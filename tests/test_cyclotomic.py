import cmath
import math
import os
import subprocess
import sys
from math import gcd, pi
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import rtfinite
from rtfinite import cyclotomic
from rtfinite.cyclotomic import (
    CyclotomicInteger,
    EmbeddingIndex,
    Sign,
    _poly_divmod,
    cyclotomic_polynomial,
    embedding_ks,
    embeddings,
    reduce,
    sin_sign,
    trace_table,
)
from rtfinite.errors import InvariantViolation, UsageError

ORDERS = [10, 14, 20, 28]


def elements(order):
    from sympy import totient

    deg = int(totient(order))
    return st.builds(
        lambda cs: reduce(cs, order),
        st.lists(st.integers(-20, 20), min_size=deg, max_size=deg),
    )


def coefficient_sum(x, y):
    # the ring's sum, coefficientwise on canonical residues of one order
    return reduce([a + b for a, b in zip(x.coeffs, y.coeffs)], x.order)


class TestReduce:
    def test_low_degree_untouched(self):
        assert reduce([0, 1], 10).coeffs == (0, 1, 0, 0)

    def test_a4_mod_phi10(self):
        # long division by phi_10 = X^4 - X^3 + X^2 - X + 1
        assert reduce([0, 0, 0, 0, 1], 10).coeffs == (-1, 1, -1, 1)

    def test_constant(self):
        assert reduce([5], 14).coeffs == (5, 0, 0, 0, 0, 0)

    def test_order_too_small(self):
        with pytest.raises(UsageError):
            reduce([1], 2)


class TestArithmetic:
    def test_unit(self):
        x = reduce([3, -1, 2], 10)
        assert reduce([1], 10) * x == x

    def test_wraparound(self):
        a = reduce([0, 1], 10)
        a3 = reduce([0, 0, 0, 1], 10)
        assert a * a3 == reduce([0, 0, 0, 0, 1], 10)

    def test_product_expansion(self):
        # (A - 1)(A + 1) = A^2 - 1, degree 2 < 4 needs no reduction
        x = reduce([-1, 1], 10)
        y = reduce([1, 1], 10)
        assert (x * y).coeffs == (-1, 0, 1, 0)

    def test_mismatched_orders(self):
        with pytest.raises(UsageError):
            reduce([1], 10) * reduce([1], 14)

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_ring_laws(self, order, data):
        x = data.draw(elements(order))
        y = data.draw(elements(order))
        z = data.draw(elements(order))
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * coefficient_sum(y, z) == coefficient_sum(x * y, x * z)


class TestConjugate:
    def test_fixes_constants(self):
        x = reduce([3], 10)
        assert x.conjugate() == x

    def test_a_conjugates_to_a9(self):
        a = reduce([0, 1], 10)
        assert a.conjugate() == reduce([0] * 9 + [1], 10)

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_involution(self, order, data):
        x = data.draw(elements(order))
        assert x.conjugate().conjugate() == x

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_ring_homomorphism(self, order, data):
        x = data.draw(elements(order))
        y = data.draw(elements(order))
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestTrace:
    def test_constant_one(self):
        assert reduce([1], 10).trace() == 4

    def test_primitive_monomial(self):
        # mobius(10) * phi(10)/phi(10) = 1; matches the numeric sum below
        a = reduce([0, 1], 10)
        assert a.trace() == 1
        numeric = sum(cmath.exp(2j * pi * k / 10) for k in (1, 3, 7, 9))
        assert abs(numeric.real - 1) < 1e-9

    def test_a5_is_minus_one(self):
        # A^5 = -1 at every primitive 10th root
        assert reduce([0] * 5 + [1], 10).trace() == -4

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_linearity_and_conjugation(self, order, data):
        x = data.draw(elements(order))
        y = data.draw(elements(order))
        assert coefficient_sum(x, y).trace() == x.trace() + y.trace()
        assert x.conjugate().trace() == x.trace()

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_trace_form_positive_definite(self, order, data):
        x = data.draw(elements(order))
        t = (x * x.conjugate()).trace()
        assert t >= 0
        assert (t == 0) == x.is_zero()

    @pytest.mark.parametrize("order", ORDERS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_numeric_agreement(self, order, data):
        # trace equals the sum over all primitive order-th roots
        x = data.draw(elements(order))
        numeric = sum(
            x.evaluate(cmath.exp(2j * pi * j / order))
            for j in range(order)
            if gcd(j, order) == 1
        )
        assert abs(numeric.imag) < 1e-7
        assert abs(numeric.real - x.trace()) < 1e-6 * max(1, abs(x.trace()))


class TestTraceTable:
    @pytest.mark.parametrize("order", [3, 4, 7, 10, 12, 20, 28, 36, 43, 52, 172])
    def test_ramanujan_sum(self, order):
        # Tr(A^m) = mu(N/g) * phi(N)/phi(N/g), g = gcd(m, N), from the sympy oracle
        phi = int(sympy.totient(order))
        expected = []
        for m in range(order):
            d = order // gcd(m, order)
            expected.append(int(sympy.mobius(d)) * phi // int(sympy.totient(d)))
        assert list(trace_table(order)) == expected
        # trace() of a canonical monomial A^j, j < phi(N), is the table entry
        for j in range(phi):
            assert reduce([0] * j + [1], order).trace() == expected[j]


class TestInvariants:
    def test_non_monic_divisor(self):
        with pytest.raises(InvariantViolation):
            _poly_divmod([1, 0, 1], (1, 2))

    def test_cyclotomic_remainder(self, monkeypatch):
        # 4 does not divide 6, so phi_4 leaves a remainder in X^6 - 1
        monkeypatch.setattr(
            cyclotomic, "divisors", lambda n: [1, 4, 6] if n == 6 else sympy.divisors(n)
        )
        cyclotomic_polynomial.cache_clear()
        try:
            with pytest.raises(InvariantViolation):
                cyclotomic_polynomial(6)
        finally:
            cyclotomic_polynomial.cache_clear()

    def test_length_check(self):
        with pytest.raises(InvariantViolation):
            CyclotomicInteger(10, (1, 2, 3))

    def test_length_check_survives_optimize_flag(self):
        src = str(Path(rtfinite.__file__).resolve().parents[1])
        code = (
            "from rtfinite.cyclotomic import CyclotomicInteger\n"
            "from rtfinite.errors import InvariantViolation\n"
            "try:\n"
            "    CyclotomicInteger(10, (1, 2, 3))\n"
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert out.stdout == "raised\n"


class TestEmbeddings:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (5, [1, 3]),
            (10, [1, 3, 7, 9]),
            (14, [1, 3, 5, 9, 11, 13]),
        ],
    )
    def test_canonical_sets(self, p, expected):
        assert [e.k for e in embeddings(p)] == expected

    def test_takes_the_level_p(self):
        assert embeddings(5) == [EmbeddingIndex(1, 5), EmbeddingIndex(3, 5)]

    def test_one_tuple_per_level(self):
        # every level p <= 400 of a prime r: the gcd filter
        for p in sorted({q for r in sympy.primerange(3, 401) for q in (r, 2 * r) if q <= 400}):
            assert embedding_ks(p) == tuple(k for k in range(1, p + 1) if gcd(k, 2 * p) == 1), p

    def test_rejects_shared_factor(self):
        with pytest.raises(UsageError):
            EmbeddingIndex(2, 5)

    def test_non_canonical_allowed(self):
        e = EmbeddingIndex(7, 5)
        assert e.k == 7

    @pytest.mark.parametrize("p", [5, 7, 10, 14])
    def test_float_oracle_consistency(self, p):
        # canonical-form evaluation at the embedding root agrees with raw
        # polynomial evaluation before reduction
        raw = [2, -1, 0, 3, 1, 0, -2, 1]
        x = reduce(raw, 2 * p)
        for emb in embeddings(p):
            root = cmath.exp(1j * pi * emb.k / emb.p)
            direct = sum(c * root**j for j, c in enumerate(raw))
            assert abs(x.evaluate(root) - direct) < 1e-9 * max(1.0, abs(direct))


class TestSinSign:
    def test_zero(self):
        assert sin_sign(0, 7) is Sign.ZERO
        assert sin_sign(5, 10) is Sign.ZERO

    def test_examples(self):
        assert sin_sign(9, 10) is Sign.NEGATIVE
        assert sin_sign(2, 5) is Sign.POSITIVE

    @given(m=st.integers(-1000, 1000), p=st.integers(3, 200))
    @settings(max_examples=300, deadline=None)
    def test_matches_float_sine(self, m, p):
        value = math.sin(2 * pi * m / p)
        if abs(value) > 1e-9:
            expected = Sign.POSITIVE if value > 0 else Sign.NEGATIVE
            assert sin_sign(m, p) is expected


@pytest.mark.parametrize("call", [lambda: sin_sign(1, 2), lambda: cyclotomic_polynomial(0)],
                         ids=["sin_sign(1, 2)", "cyclotomic_polynomial(0)"])
def test_input_out_of_range_is_a_usage_error(call):
    with pytest.raises(UsageError):
        call()


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_polynomial(20) == (1, 0, -1, 0, 1, 0, -1, 0, 1)

import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import islice, repeat
from math import gcd
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfinite import lattice
from rtfinite.cli import EXIT_INVARIANT, EXIT_OK, main
from rtfinite.context import LevelContext, totient
from rtfinite.cyclotomic import (
    CyclotomicInteger,
    _poly_divmod,
    cyclotomic_polynomial,
    reduce,
)
from rtfinite.errors import InvariantViolation, UsageError
from rtfinite.lattice import (
    COEFF_BOUND,
    discreteness_certificate,
    lattice_element,
    naive_norm_formula,
    psi_norm_sq,
)


def trace_table_norm(element: CyclotomicInteger, level: LevelContext) -> Fraction:
    """The O(phi^2) oracle: Tr(P conj P) as the quadratic form
    sum c_i c_j Tr(A^(i-j)) over the trace table.  Since Tr(A^-d) = Tr(A^d),
    the terms are grouped by d = |i - j|: the autocorrelation
    sum_i c_i c_(i+d) meets Tr(A^d) once for d = 0 and twice for d > 0.
    The table Tr(A^d) = mu(N/g) * phi(N)/phi(N/g), g = gcd(d, N), is built
    from sympy, independently of the package."""
    coeffs, order = element.coeffs, element.order
    phi = int(sympy.totient(order))
    cofactors = [order // gcd(d, order) for d in range(len(coeffs))]
    table = [int(sympy.mobius(q)) * phi // int(sympy.totient(q)) for q in cofactors]
    shifted = sum(
        t * sum(map(mul, coeffs, coeffs[d:]))
        for d, t in enumerate(table[1:len(coeffs)], 1)
        if t
    )
    return Fraction(table[0] * sum(map(mul, coeffs, coeffs)) + 2 * shifted, level.phi_alpha)


@pytest.mark.parametrize(
    "p,expected",
    [(3, 3), (7, 7), (11, 11), (5, 20), (13, 52), (6, 12), (10, 20), (14, 28)],
)
def test_alpha(p, expected):
    assert LevelContext.at(p).alpha_p == expected


class TestPsiNormSq:
    def test_zero(self):
        level = LevelContext.at(7)
        zero = reduce([], level.alpha_p)
        assert psi_norm_sq(zero, level) == 0

    def test_one(self):
        for p in (3, 7, 10, 14, 5):
            level = LevelContext.at(p)
            one = reduce([1], level.alpha_p)
            assert psi_norm_sq(one, level) == 1

    def test_root_of_unity(self):
        level = LevelContext.at(7)
        a = reduce([0, 1], level.alpha_p)
        assert psi_norm_sq(a, level) == 1

    def test_order_mismatch_rejected(self):
        level = LevelContext.at(7)
        with pytest.raises(UsageError):
            psi_norm_sq(reduce([1], 10), level)

    def test_matches_float_oracle(self):
        import cmath

        for p in (7, 10, 14):
            level = LevelContext.at(p)
            n = level.alpha_p
            element = lattice_element(level, [1, -2, 0, 3])
            total = 0.0
            count = 0
            for k in range(1, n):
                import math

                if math.gcd(k, n) != 1:
                    continue
                z = cmath.exp(2j * cmath.pi * k / n)
                total += abs(element.evaluate(z)) ** 2
                count += 1
            assert count == level.phi_alpha
            exact = psi_norm_sq(element, level)
            assert abs(total / count - float(exact)) < 1e-9

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_nonnegative_and_integral(self, coeffs):
        level = LevelContext.at(10)
        element = lattice_element(level, coeffs)
        norm = psi_norm_sq(element, level)
        scaled = norm * level.phi_alpha
        assert scaled.denominator == 1
        assert norm >= 0
        assert (norm == 0) == element.is_zero()

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_conjugation_and_rotation_invariance(self, coeffs):
        level = LevelContext.at(7)
        element = lattice_element(level, coeffs)
        norm = psi_norm_sq(element, level)
        assert psi_norm_sq(element.conjugate(), level) == norm
        a = reduce([0, 1], level.alpha_p)
        assert psi_norm_sq(a * element, level) == norm


    # every level of the benchmark's lattice workload: alpha_p = p and 4r,
    # phi(alpha_p) from 6 to 84; the smallest levels, where some divisor e of
    # alpha_p is below phi(alpha_p) and others are not; and the largest level
    # lattice-check admits, phi(508) = 252
    @pytest.mark.parametrize(
        "p", [7, 13, 19, 26, 31, 43, 47, 58, 74, 83, 86, 3, 5, 6, 10, 11, 254]
    )
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_quadratic_form_matches_ring_path(self, p, data):
        level = LevelContext.at(p)
        coeffs = data.draw(
            st.lists(st.integers(-10, 10), min_size=1, max_size=level.phi_alpha + 4)
        )
        element = lattice_element(level, coeffs)
        ring = Fraction((element * element.conjugate()).trace(), level.phi_alpha)
        assert psi_norm_sq(element, level) == ring == trace_table_norm(element, level)


@pytest.mark.parametrize("order", [3, 4, 5, 7, 8, 11, 12, 20, 28, 52, 83, 508])
def test_reduce_is_the_identity_up_to_phi_coefficients(order):
    phi = totient(order)
    rng = random.Random(order)
    for length in range(phi + 1):
        coeffs = [rng.randint(-10, 10) for _ in range(length)]
        padded = tuple(coeffs) + (0,) * (phi - length)
        assert reduce(coeffs, order).coeffs == padded
        _, rem = _poly_divmod(coeffs or [0], cyclotomic_polynomial(order))
        assert tuple(rem) + (0,) * (phi - len(rem)) == padded


class TestNaiveNormFormula:
    def test_monomial(self):
        level = LevelContext.at(14)
        a = reduce([0, 0, 0, 1], level.alpha_p)
        assert naive_norm_formula(a) == 1

    def test_sum_of_squares_prime_level(self):
        level = LevelContext.at(7)
        element = lattice_element(level, [1, -2, 3])
        assert naive_norm_formula(element) == Fraction(14)

    def test_can_disagree_with_exact_trace(self):
        # the displayed form omits cross terms at p = 3 (mod 4)
        level = LevelContext.at(7)
        element = lattice_element(level, [1, 1])
        assert naive_norm_formula(element) != psi_norm_sq(element, level)

    @pytest.mark.parametrize("p", [10, 14, 26, 38])
    def test_sum_of_squares_at_even_levels(self, p):
        # a canonical element at alpha_p = 4r has 2r - 2 coefficients, so the
        # display's p = 2r correction, over indices 2r apart, is empty
        level = LevelContext.at(p)
        rng = random.Random(p)
        for _ in range(20):
            coeffs = [rng.randint(-10, 10) for _ in range(level.alpha_p + 3)]
            element = lattice_element(level, coeffs)
            assert len(element.coeffs) <= 2 * level.r - 2
            assert naive_norm_formula(element) == sum(c * c for c in element.coeffs)


class TestDiscretenessCertificate:
    @pytest.mark.parametrize("p", [7, 10, 254])
    def test_the_unit_meets_the_sharp_bound(self, p):
        # Tr(1 * conjugate(1)) = phi(alpha_p), the least numerator there is
        level = LevelContext.at(p)
        one = bytes([COEFF_BOUND + 1]) + bytes([COEFF_BOUND] * (level.phi_alpha - 1))
        assert lattice._norm_numerator(one, 1, level.alpha_p, COEFF_BOUND) == level.phi_alpha

    def test_negative_seed_is_a_usage_error(self):
        with pytest.raises(UsageError, match="seed"):
            discreteness_certificate(LevelContext.at(31), 50, seed=-3)

    def test_a_numerator_below_phi_is_an_invariant_violation(self, monkeypatch, capsys):
        level = LevelContext.at(10)
        monkeypatch.setattr(lattice, "_norm_numerator", lambda *args: level.phi_alpha - 1)
        with pytest.raises(InvariantViolation, match="below phi"):
            discreteness_certificate(level, 5, seed=1)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["lattice-check", "--p", "10", "--samples", "5"])
        assert (code, out.getvalue()) == (EXIT_INVARIANT, "")
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: ") and err.count("\n") == 1

    def test_all_integrality_passes(self):
        # a sample below the bound raises, so a returned report passed them all
        for p in (7, 10):
            level = LevelContext.at(p)
            report = discreteness_certificate(level, 50, seed=1)
            assert report.samples == 50
            assert report == _fraction_certificate(level, 50, seed=1)

    def test_min_norm_bounded_below(self):
        level = LevelContext.at(10)
        report = discreteness_certificate(level, 100, seed=2)
        assert report.min_phi_norm_sq >= 1

    def test_deterministic_for_seed(self):
        level = LevelContext.at(14)
        a = discreteness_certificate(level, 30, seed=5)
        b = discreteness_certificate(level, 30, seed=5)
        assert a == b

    def test_rejects_empty_sample(self):
        with pytest.raises(UsageError):
            discreteness_certificate(LevelContext.at(7), 0)

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("p", [3, 7, 10, 83, 254])
    def test_samples_are_the_randint_stream(self, monkeypatch, p, seed):
        # the certificate's draws are those of randint(-COEFF_BOUND,
        # COEFF_BOUND) on one Random(seed): consecutive phi-chunks, with
        # the all-zero chunks skipped (at p = 3, phi = 2, both seeds skip one)
        level = LevelContext.at(p)
        samples = 600
        seen = _certified_samples(monkeypatch, level, samples, seed)
        expected, skipped = _randint_samples(level, samples, seed)
        assert seen == expected
        assert skipped == (1 if p == 3 else 0)

    @pytest.mark.parametrize("words", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    @pytest.mark.parametrize("p", [3, 7, 254])
    def test_samples_straddle_the_draws(self, monkeypatch, p, seed, words):
        # a few words per getrandbits call, so that samples, rejected draws
        # and (at p = 3) the skipped all-zero chunk fall across draw edges
        monkeypatch.setattr(lattice, "_DRAW_WORDS", words)
        level = LevelContext.at(p)
        samples = 600 if p < 254 else 40
        expected, skipped = _randint_samples(level, samples, seed)
        assert _certified_samples(monkeypatch, level, samples, seed) == expected
        assert (skipped > 0) == (p == 3)

    # the eleven levels and sample counts of the benchmark's lattice workload,
    # and the smallest and largest levels; at p = 3 and 7 the displayed form
    # agrees with the exact norm on some samples and differs on others
    @pytest.mark.parametrize("p,samples,seeds", [
        *((p, n, range(3)) for p, n in [
            (7, 1000), (13, 1000), (19, 1000), (26, 1000), (31, 1000), (43, 400),
            (47, 400), (58, 200), (74, 200), (83, 200), (86, 200)]),
        (3, 500, (0, 5)), (5, 500, (0, 5)), (6, 500, (0, 5)), (11, 500, (0, 5)),
        (254, 300, (0, 5)),
    ])
    def test_equals_the_fraction_loop(self, p, samples, seeds):
        level = LevelContext.at(p)
        for seed in seeds:
            report = discreteness_certificate(level, samples, seed)
            assert report == _fraction_certificate(level, samples, seed)
            assert report.min_phi_norm_sq >= 1
        if p in (3, 7):
            assert report.formula_agreements and report.formula_disagreements

    def test_certifies_without_ring_elements(self, monkeypatch):
        # the per-sample path reduces nothing and reads neither public norm;
        # the three lattice anchors still match
        from test_anchors import ANCHORS

        def refuse(*args):
            raise AssertionError("the certificate left its integer kernel")

        for name in ("reduce", "psi_norm_sq", "naive_norm_formula"):
            monkeypatch.setattr(lattice, name, refuse)
        anchors = [(argv, prefix) for argv, prefix in ANCHORS if argv[0] == "lattice-check"]
        assert len(anchors) == 3
        for argv, prefix in anchors:
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(argv) == EXIT_OK
            assert hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] == prefix


def _randint_samples(level: LevelContext, samples: int, seed: int):
    """The first `samples` nonzero phi-chunks of randint(-COEFF_BOUND,
    COEFF_BOUND) on Random(seed), and the number of all-zero chunks skipped."""
    rng = random.Random(seed)
    expected, skipped = [], 0
    while len(expected) < samples:
        chunk = tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(level.phi_alpha))
        if any(chunk):
            expected.append(chunk)
        else:
            skipped += 1
    return expected, skipped


def _certified_samples(monkeypatch, level: LevelContext, samples: int, seed: int):
    """The coefficient vectors the certificate passes to its norm numerator."""
    seen = []
    numerator = lattice._norm_numerator

    def record(values, squares, order, shift=0):
        seen.append(tuple(v - shift for v in values))
        return numerator(values, squares, order, shift)

    monkeypatch.setattr(lattice, "_norm_numerator", record)
    discreteness_certificate(level, samples, seed)
    monkeypatch.setattr(lattice, "_norm_numerator", numerator)
    return seen


def _fraction_certificate(level: LevelContext, sample_size: int, seed: int = 0):
    """The certificate as a loop over ring elements and Fractions: each sample
    is reduced to a CyclotomicInteger and read through psi_norm_sq and
    naive_norm_formula.  Its draws are randint(-COEFF_BOUND, COEFF_BOUND),
    unrolled: the next getrandbits draw below width, less COEFF_BOUND."""
    width = 2 * COEFF_BOUND + 1
    draws = map(random.Random(seed).getrandbits, repeat(width.bit_length()))
    values = (b - COEFF_BOUND for b in draws if b < width)
    deg = level.phi_alpha
    passes = failures = agree = disagree = 0
    min_norm = None
    drawn = 0
    while drawn < sample_size:
        element = lattice_element(level, list(islice(values, deg)))
        if element.is_zero():
            continue
        drawn += 1
        norm = psi_norm_sq(element, level)
        scaled = norm * level.phi_alpha
        if scaled.denominator == 1 and scaled >= 1:
            passes += 1
        else:
            failures += 1
        if naive_norm_formula(element) == norm:
            agree += 1
        else:
            disagree += 1
        if min_norm is None or norm < min_norm:
            min_norm = norm
    # the report has no integrality counts: every sample must pass
    assert (passes, failures) == (sample_size, 0)
    return lattice.DiscretenessReport(
        level_p=level.p,
        samples=sample_size,
        seed=seed,
        min_phi_norm_sq=min_norm * level.phi_alpha,
        formula_agreements=agree,
        formula_disagreements=disagree,
    )

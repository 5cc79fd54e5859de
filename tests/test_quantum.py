import math
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primerange

import rtfinite
from rtfinite.bases import admissible_triples, theta_norm_ratio
from rtfinite.context import LevelContext
from rtfinite.cyclotomic import EmbeddingIndex, Sign, embedding_ks, embeddings, sin_sign
from rtfinite.errors import InvariantViolation, UsageError
from rtfinite.quantum import (
    _TILE_LAPS,
    QuantumFactored,
    _residue_tile,
    eval_sign,
    qfactorial,
    qfactorial_ratio,
    qint,
    qint_product_negative,
    qint_sign_values,
)


def float_qint(n, emb):
    return math.sin(2 * pi * n * emb.k / emb.p) / math.sin(2 * pi * emb.k / emb.p)


class TestQuantumFactored:
    def test_qint_one_is_unit(self):
        assert qint(1) is not None
        assert qint(1).is_unit

    def test_formal_product(self):
        # a symbol is its factors alone: no unit, no sign
        assert QuantumFactored._fields == ("factors",)
        assert (qint(4) * qint(3)).factors == ((4, 1), (3, 1))

    def test_division_cancels(self):
        assert (qint(5) * qint(2)) / (qint(2) * qint(5)) == QuantumFactored(())

    def test_pow(self):
        x = qint(3) / qint(2)
        assert x**2 == (qint(3) * qint(3)) / (qint(2) * qint(2))
        assert x**-1 == QuantumFactored(((3, -1), (2, 1))) == qint(2) / qint(3)
        assert x**0 == QuantumFactored(())

    def test_str(self):
        value = (qint(5) * qint(4)) / (qint(3) * qint(3) * qint(2))
        assert str(value) == "[5][4]/([3]^2[2])"
        assert str(QuantumFactored(())) == "1"
        assert str(QuantumFactored(()) / qint(2)) == "1/([2])"

    def test_zero_is_rejected(self):
        # a symbol is a product of [n], n >= 1: no index 0
        with pytest.raises(UsageError):
            qint(0)
        with pytest.raises(UsageError):
            QuantumFactored.from_factors([(0, 1)])

    def test_from_factors_adds_repeated_exponents(self):
        assert QuantumFactored.from_factors([(3, 1), (3, 1)]) == qint(3) * qint(3)
        assert QuantumFactored.from_factors([(5, 2), (4, 1), (5, -2)]) == qint(4)


class TestQintSign:
    def test_known_anchor_p5(self):
        # [4] is negative at A = exp(3 i pi / 5)
        assert eval_sign(qint(4), EmbeddingIndex(3, 5)) is Sign.NEGATIVE

    def test_known_anchor_p10(self):
        # [3] is negative at A = exp(3 i pi / 10)
        assert eval_sign(qint(3), EmbeddingIndex(3, 10)) is Sign.NEGATIVE

    @pytest.mark.parametrize("p", [5, 7, 10, 14, 22])
    def test_one_always_positive(self, p):
        for emb in embeddings(p):
            assert eval_sign(qint(1), emb) is Sign.POSITIVE

    @pytest.mark.parametrize("p", [5, 6, 7, 10, 14, 22, 26])
    def test_matches_float(self, p):
        for emb in embeddings(p):
            for n in range(1, p):
                value = float_qint(n, emb)
                if abs(value) > 1e-9:
                    expected = Sign.POSITIVE if value > 0 else Sign.NEGATIVE
                    assert eval_sign(qint(n), emb) is expected, (n, emb)

    @pytest.mark.parametrize("p", [6, 10, 14, 22])
    def test_zero_iff_r_divides(self, p):
        r = p // 2
        for emb in embeddings(p):
            for n in range(1, p):
                assert (eval_sign(qint(n), emb) is Sign.ZERO) == (n % r == 0)

    @pytest.mark.parametrize("p", [5, 10, 14])
    def test_reflection_symmetry(self, p):
        # [p - n] = +/- [n] as floats; exact signs match the float signs
        for emb in embeddings(p):
            for n in range(1, p):
                a, b = float_qint(n, emb), float_qint(p - n, emb)
                assert abs(abs(a) - abs(b)) < 1e-9
                for m, value in ((n, a), (p - n, b)):
                    if abs(value) > 1e-9:
                        expected = Sign.POSITIVE if value > 0 else Sign.NEGATIVE
                        assert eval_sign(qint(m), emb) is expected


LEVELS = [q for r in primerange(3, 201) for q in (r, 2 * r) if q <= 400]


class TestQintSignValues:
    @pytest.mark.parametrize("p", [5, 6, 7, 10, 14, 22, 26, 37, 74])
    def test_prefix_counts_of_negative_quantum_integers(self, p):
        # bit n of the mask is the parity of the negatives among [1..n]
        r = p if p % 2 else p // 2
        for emb in embeddings(p):
            mask = qint_sign_values(p, emb.k)
            assert mask >> r == 0
            negatives = [eval_sign(qint(m), emb) is Sign.NEGATIVE for m in range(1, r)]
            assert [mask >> n & 1 for n in range(r)] == [
                sum(negatives[:n]) % 2 for n in range(r)]

    @pytest.mark.parametrize("p", LEVELS)
    def test_stops_before_the_first_vanishing_factor(self, p):
        # some [m] with m <= r - 1 vanishes at k exactly when r divides k
        r = p if p % 2 else p // 2
        build = qint_sign_values.__wrapped__  # uncached: the test visits every k
        for k in range(-1, p + 2):
            if k % r:
                build(p, k)
            else:
                with pytest.raises(InvariantViolation, match=r"\[1\] vanishes"):
                    build(p, k)

    def test_vanishing_factor_raises_under_optimize_flag(self):
        src = str(Path(rtfinite.__file__).resolve().parents[1])
        code = (
            "from rtfinite.errors import InvariantViolation\n"
            "from rtfinite.quantum import qint_sign_values\n"
            "try:\n"
            "    qint_sign_values(6, 3)\n"  # [1] vanishes at k = 3, p = 6
            "except InvariantViolation:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout == "raised\n"


@pytest.mark.parametrize("p", LEVELS)
def test_residue_table_marks_the_negative_sines(p):
    tile = _residue_tile(p)
    assert len(tile) == _TILE_LAPS * p
    assert [d == ord("1") for d in tile] == [
        sin_sign(x, p) is Sign.NEGATIVE for x in range(_TILE_LAPS * p)]


def test_product_read_is_the_sine_sign_of_each_factor():
    # floor(2ms/p) is odd exactly when p/2 < ms mod p < p, sin_sign's rule
    cases = 0
    for r in primerange(3, 100):
        for p in (r, 2 * r):
            for k in embedding_ks(p):
                step = min(k % p, -k % p)
                for m in range(1, r):
                    negative = sin_sign(m * step, p) is Sign.NEGATIVE
                    assert qint_product_negative(p, k, (m,)) == negative, (p, k, m)
                    cases += 1
    assert cases == 95550


@pytest.mark.parametrize("r", list(primerange(3, 200)))
def test_masks_agree_at_k_and_minus_k(r):
    # [m] at k equals [m] at p - k: both sines change sign
    p = 2 * r
    for emb in embeddings(p):
        assert qint_sign_values(p, emb.k) == qint_sign_values(p, p - emb.k), emb.k


def _loop_sign_values(p, k, n_max):
    """Prefix counts of negative [m] at k, one residue at a time, stopping
    before the first vanishing [m]: the reference for the parity mask."""
    k_negative = 2 * (k % p) > p
    counts = [0]
    x = 0
    for _ in range(n_max):
        x = (x + k) % p
        if x == 0 or 2 * x == p:
            break
        counts.append(counts[-1] + ((2 * x > p) != k_negative))
    return tuple(counts)


@pytest.mark.parametrize("p", LEVELS)
def test_sign_values_match_the_loop(p):
    r = p if p % 2 else p // 2
    build = qint_sign_values.__wrapped__  # uncached: the test visits every k
    for k in range(-1, p + 2):
        counts = _loop_sign_values(p, k, r - 1)
        if len(counts) < r:
            with pytest.raises(InvariantViolation, match=rf"\[{len(counts)}\] vanishes"):
                build(p, k)
        else:
            mask = sum((n & 1) << i for i, n in enumerate(counts))
            assert build(p, k) == mask, k


def _rmod_sign_values(p, k):
    """The parity mask with each residue m*s mod p, m = r - 1 down to 1, taken
    by one % and looked up in the first p bytes of the tile one at a time: the
    oracle of the strided slices of the tile."""
    n_max = (p if p % 2 else p // 2) - 1
    step = min(k % p, -k % p)
    negative = _residue_tile(p)
    residues = map(p.__rmod__, range(step * n_max, 0, -step))
    b = int(bytes(map(negative.__getitem__, residues)) + b"0", 2)
    for i in range(n_max.bit_length()):
        b ^= b << (1 << i)
    return b & ((2 << n_max) - 1)


class TestSlicedMasks:
    @pytest.mark.parametrize("r", list(primerange(3, 400)))
    def test_equal_the_residue_oracle(self, r):
        build = qint_sign_values.__wrapped__  # uncached: the test visits every k
        for p in (r, 2 * r):
            for k in range(1, 2 * p):
                if k % r:
                    assert build(p, k) == _rmod_sign_values(p, k), (p, k)

    @pytest.mark.parametrize("p", [1999, 3998])
    def test_equal_the_residue_oracle_over_many_slices(self, p):
        # the largest steps span about 16 slices of the tile at r = 1999
        build = qint_sign_values.__wrapped__
        for step in [*range(1, 40), *range(p // 2 - 40, p // 2 + 1)]:
            if step % 1999 and (p % 2 or step % 2):
                assert build(p, step) == _rmod_sign_values(p, step), step
                assert build(p, p - step) == _rmod_sign_values(p, p - step), step

    def test_tile_is_linear_in_the_level(self):
        p = 2 * 10007
        step = p // 2 - 2  # odd, so a valid k: about 80 slices
        assert qint_sign_values.__wrapped__(p, step) == _rmod_sign_values(p, step)
        assert len(_residue_tile(p)) <= _TILE_LAPS * p


def _merged_ratio(num, den):
    """qfactorial_ratio as one from_factors merge of every factorial's factors."""
    pairs = [pair for n in num for pair in qfactorial(n).factors]
    pairs += [(m, -e) for n in den for m, e in qfactorial(n).factors]
    return QuantumFactored.from_factors(pairs)


@given(
    st.lists(st.integers(0, 30), max_size=8),
    st.lists(st.integers(0, 30), max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_factorial_ratio_runs_match_the_merge(num, den):
    assert qfactorial_ratio(num, den) == _merged_ratio(num, den)
    assert qfactorial_ratio(num + den, den + num) == QuantumFactored(())


class TestEvalSign:
    def test_unit(self):
        for emb in embeddings(10):
            assert eval_sign(QuantumFactored(()), emb) is Sign.POSITIVE

    def test_known_ratio_p5(self):
        # [4]/([2]^2 [3]^2) carries the sign of [4]
        value = qint(4) / (qint(2) ** 2 * qint(3) ** 2)
        assert eval_sign(value, EmbeddingIndex(3, 5)) is Sign.NEGATIVE

    def test_one_step_ratio_p14(self):
        value = (qint(6) * qint(1)) / (qint(4) * qint(3))
        assert eval_sign(value, EmbeddingIndex(5, 14)) is Sign.POSITIVE

    def test_denominator_zero_raises(self):
        value = qint(1) / qint(7)
        with pytest.raises(InvariantViolation):
            eval_sign(value, EmbeddingIndex(1, 14))

    def test_numerator_zero(self):
        value = qint(7) * qint(2)
        assert eval_sign(value, EmbeddingIndex(1, 14)) is Sign.ZERO

    @given(
        ns=st.lists(st.tuples(st.integers(1, 12), st.integers(-2, 2)), max_size=5),
        ms=st.lists(st.tuples(st.integers(1, 12), st.integers(-2, 2)), max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_multiplicative(self, ns, ms):
        x = QuantumFactored(())
        for n, e in ns:
            x = x * qint(n) ** e if e >= 0 else x / qint(n) ** (-e)
        y = QuantumFactored(())
        for n, e in ms:
            y = y * qint(n) ** e if e >= 0 else y / qint(n) ** (-e)
        for emb in embeddings(13):  # p = 13 prime: no [n] vanishes for n <= 12
            product = eval_sign(x, emb).value * eval_sign(y, emb).value
            assert eval_sign(x * y, emb).value == product

    @given(
        p=st.sampled_from((5, 7, 10, 13, 14, 22, 26)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_products_match_the_float_value(self, p, data):
        # no [n] with n < r vanishes, so every value is a nonzero float
        r = p if p % 2 else p // 2
        powers = data.draw(st.lists(
            st.tuples(st.integers(1, r - 1), st.integers(-3, 3)), max_size=6))
        x = QuantumFactored(())
        for n, e in powers:
            x = x * qint(n) ** e
        for emb in embeddings(p):
            expected = Sign.POSITIVE if x.evaluate(emb) > 0 else Sign.NEGATIVE
            assert eval_sign(x, emb) is expected, (str(x), emb)


def float_qfactorials(emb, n_max):
    """[0]!, ..., [n_max]! at the embedding, from sines."""
    table = [1.0]
    for m in range(1, n_max + 1):
        table.append(table[-1] * float_qint(m, emb))
    return table


def float_bracket(n, emb):
    """The paper's loop value <n> = (-1)^n [n+1], from sines."""
    return (-1) ** n * float_qint(n + 1, emb)


def float_theta(a, b, c, emb, fact=None):
    """The paper's theta net (-1)^s [s+1]! [s-a]! [s-b]! [s-c]! / ([a]! [b]! [c]!),
    s = (a+b+c)/2, from sines; fact is float_qfactorials at emb, if built."""
    s = (a + b + c) // 2
    fact = fact or float_qfactorials(emb, s + 1)
    value = fact[s + 1] * fact[s - a] * fact[s - b] * fact[s - c]
    return (-1) ** s * value / (fact[a] * fact[b] * fact[c])


def float_theta_norm(p, t, emb, fact):
    """theta^2 / (<a><b><c>) at even levels, (-1)^s theta / (<a><b><c>) at odd."""
    theta = float_theta(*t, emb, fact)
    value = theta / math.prod(float_bracket(n, emb) for n in t)
    if p % 2 == 0:
        return value * theta
    return (-1) ** (sum(t) // 2) * value


def close(x, y):
    # both sides multiply the same float [n] in another order: the largest
    # relative gap at the levels p < 40 is 2e-15, so 1e-9 leaves a wide margin
    return math.isclose(x, y, rel_tol=1e-9)


def levels_below(limit):
    return [q for r in primerange(3, limit) for q in (r, 2 * r) if q < limit]


class TestBracketAndTheta:
    """The sine oracle of the paper's <n> and theta(a,b,c), pinned on known
    values, and theta_norm_ratio checked against it."""

    def test_bracket_examples(self):
        for emb in embeddings(10):
            assert float_bracket(0, emb) == 1.0
            assert close(float_bracket(2, emb), float_qint(3, emb))
            assert close(float_bracket(1, emb), -float_qint(2, emb))

    def test_theta_trivial(self):
        for emb in embeddings(5):
            assert float_theta(0, 0, 0, emb) == 1.0
        assert theta_norm_ratio(LevelContext.at(5), (0, 0, 0)) == QuantumFactored(())

    def test_theta_222(self):
        for p in (7, 10):
            for emb in embeddings(p):
                expected = -float_qint(4, emb) * float_qint(3, emb) / float_qint(2, emb) ** 2
                assert close(float_theta(2, 2, 2, emb), expected)

    def test_theta_211(self):
        for emb in embeddings(10):
            assert close(float_theta(2, 1, 1, emb), float_qint(3, emb))

    @pytest.mark.parametrize("n", range(8))
    def test_theta_collapses_to_loop_value(self, n):
        # theta(n, n, 0) = <n>, so the norm of u_{n,n,0} is 1 at even levels
        # and 1/[n+1] at odd levels, where the colors are even
        for emb in embeddings(26):
            assert close(float_theta(n, n, 0, emb), float_bracket(n, emb))
        assert theta_norm_ratio(LevelContext.at(26), (n, n, 0)) == QuantumFactored(())
        if n % 2 == 0:
            assert theta_norm_ratio(LevelContext.at(23), (n, n, 0)) == qint(n + 1) ** -1

    def test_inadmissible_raises(self):
        with pytest.raises(UsageError):
            theta_norm_ratio(LevelContext.at(14), (1, 1, 1))
        with pytest.raises(UsageError):
            theta_norm_ratio(LevelContext.at(14), (4, 1, 1))

    @pytest.mark.parametrize("p", levels_below(40))
    def test_norm_ratio_matches_the_sine_oracle(self, p):
        level = LevelContext.at(p)
        ratios = {t: theta_norm_ratio(level, t) for t in admissible_triples(level)}
        for emb in embeddings(p):
            fact = float_qfactorials(emb, level.r - 1)
            for t, ratio in ratios.items():
                assert close(ratio.evaluate(emb), float_theta_norm(p, t, emb, fact)), (t, emb)

    @pytest.mark.parametrize("p", levels_below(60))
    def test_norm_ratio_sign_is_the_mask_parity(self, p):
        # [n]! has the sign parity of bit n of the mask, so the sign of the
        # ratio is the XOR of the bits at its factorial indices: 7 lookups
        # at odd levels, and at even levels 14, of which num's 8 cancel
        level = LevelContext.at(p)
        ratios = {t: theta_norm_ratio(level, t) for t in admissible_triples(level)}
        for emb in embeddings(p):
            mask = qint_sign_values(p, emb.k)
            for (a, b, c), ratio in ratios.items():
                s = (a + b + c) // 2
                indices = [s + 1, s - a, s - b, s - c, a + 1, b + 1, c + 1]
                if level.is_even_level:
                    indices += [s + 1, s - a, s - b, s - c, a, b, c]
                parity = 0
                for n in indices:
                    parity ^= mask >> n & 1
                expected = Sign.NEGATIVE if parity else Sign.POSITIVE
                assert eval_sign(ratio, emb) is expected, ((a, b, c), emb)

    def test_factorial(self):
        assert qfactorial(4) == qint(2) * qint(3) * qint(4)
        assert qfactorial(1) == QuantumFactored(())

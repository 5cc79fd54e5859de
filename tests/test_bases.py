import hashlib

import pytest
from sympy import primerange

from rtfinite.bases import (
    admissible_triples,
    is_admissible,
    lollipop_ratio_cumulative,
    lollipop_ratio_step,
    lollipop_ratio_two_step,
    theta_norm_ratio,
)
from rtfinite.context import LevelContext
from rtfinite.cyclotomic import EmbeddingIndex, Sign, embeddings
from rtfinite.errors import InvariantViolation, UsageError
from rtfinite.quantum import QuantumFactored, eval_sign, qint


class TestColorSet:
    def test_p6(self):
        assert list(LevelContext.at(6).colors) == [0, 1]

    def test_p5(self):
        assert list(LevelContext.at(5).colors) == [0, 2]

    def test_p10(self):
        assert list(LevelContext.at(10).colors) == [0, 1, 2, 3]


def basis_indices(level, c):
    """The i of the lollipop vectors u_i^c that the cumulative ratio
    builder accepts: u_0 and every j with a ratio <u_j>/<u_0>."""
    indices = [0]
    while True:
        try:
            lollipop_ratio_cumulative(level, c, indices[-1] + 1)
        except UsageError:
            return indices
        indices.append(indices[-1] + 1)


class TestLollipopBasis:
    def test_two_dimensional_boundary_case(self):
        # 2c = r - 3: exactly {u_0, u_1}
        assert basis_indices(LevelContext.at(10), 1) == [0, 1]

    def test_count(self):
        assert len(basis_indices(LevelContext.at(14), 0)) == 6

    def test_out_of_range_color(self):
        with pytest.raises(UsageError):
            lollipop_ratio_cumulative(LevelContext.at(10), 2, 1)

    @pytest.mark.parametrize("r", [5, 7, 11, 13])
    def test_dimension_formula(self, r):
        level = LevelContext.at(2 * r)
        for c in range((r - 2) // 2 + 1):
            assert len(basis_indices(level, c)) == r - 1 - 2 * c

    @pytest.mark.parametrize("r", [5, 7, 11, 13])
    def test_vertex_triples_admissible(self, r):
        # u_i^c has its loop colored i + c and its stick colored 2c
        level = LevelContext.at(2 * r)
        for c in range((r - 2) // 2 + 1):
            for i in range(r - 1 - 2 * c):
                assert is_admissible(level, i + c, i + c, 2 * c), (c, i)


class TestLollipopRatios:
    def test_one_step_display(self):
        level = LevelContext.at(14)
        ratio = lollipop_ratio_step(level, 2, 0)
        assert ratio == (qint(6) * qint(1)) / (qint(4) * qint(3))

    def test_one_step_closed_torus_is_unit(self):
        level = LevelContext.at(14)
        for i in range(5):
            assert lollipop_ratio_step(level, 0, i) == QuantumFactored(())

    def test_one_step_sign(self):
        level = LevelContext.at(14)
        value = lollipop_ratio_step(level, 1, 0)
        assert eval_sign(value, EmbeddingIndex(1, 14)) is Sign.POSITIVE

    def test_two_step_display(self):
        level = LevelContext.at(14)
        ratio = lollipop_ratio_two_step(level, 1, 0)
        expected = (qint(5) * qint(4) * qint(2) * qint(1)) / (
            qint(2) * qint(4) * qint(3) ** 2
        )
        assert ratio == expected

    def test_two_step_negative_at_clause_witness(self):
        # k = (2r+1)/3 = 5 for r = 7
        level = LevelContext.at(14)
        value = lollipop_ratio_two_step(level, 1, 0)
        assert eval_sign(value, EmbeddingIndex(5, 14)) is Sign.NEGATIVE

    def test_index_out_of_range(self):
        level = LevelContext.at(14)
        with pytest.raises(UsageError):
            lollipop_ratio_step(level, 1, 3)
        with pytest.raises(UsageError):
            lollipop_ratio_two_step(level, 1, 2)

    @pytest.mark.parametrize("r", list(primerange(5, 98)))
    def test_two_step_equals_step_product(self, r):
        level = LevelContext.at(2 * r)
        for c in range((r - 2) // 2 + 1):
            for i in range(r - 3 - 2 * c):
                one = lollipop_ratio_step(level, c, i)
                two = lollipop_ratio_step(level, c, i + 1)
                assert lollipop_ratio_two_step(level, c, i) == one * two

    @pytest.mark.parametrize("r", list(primerange(5, 98)))
    def test_no_vanishing_factor_anywhere(self, r):
        # every factor index is <= r - 1 < p, so no quantum integer in a
        # ratio vanishes at any embedding
        level = LevelContext.at(2 * r)
        embs = embeddings(level.p)
        for c in range((r - 2) // 2 + 1):
            for i in range(r - 2 - 2 * c):
                value = lollipop_ratio_step(level, c, i)
                assert all(n < r for n, _ in value.factors)
                for emb in embs:
                    try:
                        assert eval_sign(value, emb) is not Sign.ZERO
                    except InvariantViolation:
                        pytest.fail(f"vanishing factor at r={r} c={c} i={i} k={emb.k}")

    def test_cumulative(self):
        level = LevelContext.at(14)
        product = (
            lollipop_ratio_step(level, 1, 0)
            * lollipop_ratio_step(level, 1, 1)
        )
        assert lollipop_ratio_cumulative(level, 1, 2) == product

    @pytest.mark.parametrize("r", list(primerange(3, 40)))
    def test_cumulative_closed_form_is_the_step_product(self, r):
        for level in (LevelContext.at(2 * r), LevelContext.at(r)):
            for c in range((r - 2) // 2 + 1):
                product = QuantumFactored(())
                for j in range(1, r - 1 - 2 * c):
                    product = product * lollipop_ratio_step(level, c, j - 1)
                    assert lollipop_ratio_cumulative(level, c, j) == product


class TestAdmissibleTriples:
    def test_p6(self):
        triples = {tuple(t) for t in admissible_triples(LevelContext.at(6))}
        assert triples == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
        assert (1, 1, 1) not in triples

    def test_p5(self):
        triples = {tuple(t) for t in admissible_triples(LevelContext.at(5))}
        assert {(0, 0, 0), (2, 2, 2), (2, 2, 0), (2, 0, 2), (0, 2, 2)} <= triples

    def test_p10(self):
        triples = {tuple(t) for t in admissible_triples(LevelContext.at(10))}
        assert (2, 1, 1) in triples
        assert (2, 2, 2) in triples
        assert (3, 3, 2) not in triples  # sum exceeds 2r - 4

    def test_lexicographic(self):
        triples = [tuple(t) for t in admissible_triples(LevelContext.at(10))]
        assert triples == sorted(triples)

    @pytest.mark.parametrize("r", list(primerange(5, 60)))
    def test_largest_sum_is_2r_minus_4_at_both_levels(self, r):
        for p in (r, 2 * r):
            triples = admissible_triples(LevelContext.at(p))
            assert max(sum(t) for t in triples) == 2 * r - 4, p


class TestThetaNormRatio:
    def test_base_vector(self):
        level = LevelContext.at(10)
        assert theta_norm_ratio(level, (0, 0, 0)) == QuantumFactored(())

    def test_p5_222(self):
        # the printed value [4]/([2]^2 [3]^2), negative at k = 3
        level = LevelContext.at(5)
        value = theta_norm_ratio(level, (2, 2, 2))
        assert value == qint(4) / (qint(2) ** 2 * qint(3) ** 2)
        assert eval_sign(value, EmbeddingIndex(3, 5)) is Sign.NEGATIVE

    def test_p10_211(self):
        # carries the sign of <2> = [3] at every embedding; negative at k = 3
        level = LevelContext.at(10)
        value = theta_norm_ratio(level, (2, 1, 1))
        for emb in embeddings(level.p):
            assert eval_sign(value, emb) is eval_sign(qint(3), emb)
        assert eval_sign(value, EmbeddingIndex(3, 10)) is Sign.NEGATIVE

    def test_inadmissible(self):
        with pytest.raises(UsageError):
            theta_norm_ratio(LevelContext.at(6), (1, 1, 1))

    @pytest.mark.parametrize("p", [6, 10, 14, 22])
    def test_diagonal_pairs_positive_at_k1(self, p):
        # (a, a, 0) colorings reduce to the unit ratio at even levels
        level = LevelContext.at(p)
        emb = EmbeddingIndex(1, p)
        for a in level.colors:
            if not is_admissible(level, a, a, 0):
                continue
            value = theta_norm_ratio(level, (a, a, 0))
            assert value == QuantumFactored(())
            assert eval_sign(value, emb) is Sign.POSITIVE


def test_every_builder_symbol_is_pinned_below_p60():
    # the factors of all 52,750 ratios the four builders accept at the 25
    # levels p < 60, as the signed-symbol construction of theta(a,b,c) and
    # <n> built them
    lines = []
    for p in sorted(q for r in primerange(3, 60) for q in (r, 2 * r) if q < 60):
        level = LevelContext.at(p)
        r = level.r
        lines += [f"{p} theta {t} {theta_norm_ratio(level, t).factors}"
                  for t in admissible_triples(level)]
        for c in range((r - 2) // 2 + 1):
            lines += [f"{p} step {c} {i} {lollipop_ratio_step(level, c, i).factors}"
                      for i in range(r - 2 - 2 * c)]
            lines += [f"{p} two {c} {i} {lollipop_ratio_two_step(level, c, i).factors}"
                      for i in range(r - 3 - 2 * c)]
            lines += [f"{p} cum {c} {j} {lollipop_ratio_cumulative(level, c, j).factors}"
                      for j in range(1, r - 1 - 2 * c)]
    assert len(lines) == 52750
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode())
    assert digest.hexdigest()[:16] == "f73d46baf3f709f9"

import io
import math
from contextlib import redirect_stdout
from functools import lru_cache

import pytest
from sympy import primerange

from rtfinite.bases import (admissible_triples, lollipop_ratio_cumulative, lollipop_ratio_step,
                            theta_norm_ratio)
from rtfinite import positivity
from rtfinite.cli import EXIT_OK, main
from rtfinite.context import LevelContext, isprime
from rtfinite.cyclotomic import EmbeddingIndex, Sign, embedding_ks, embeddings
from rtfinite.errors import InvariantViolation, UsageError
from rtfinite.positivity import (
    Crosscheck,
    Finiteness,
    Positivity,
    Provenance,
    _torus_signs,
    _torus_verdicts,
    check_complete_positivity,
    decide_closed,
    decide_torus,
    decide_torus_level,
    clause_witness_k,
    negative_ratios,
    theorem_predicate,
)
from rtfinite.quantum import _residue_tile, eval_sign, qint_sign_values


def _torus_witness(level, c):
    """The witness of color c alone, from the witness search of a level."""
    return _torus_verdicts(level, (c,))[0].report.witness


class TestCheckCompletePositivity:
    def test_closed_torus_all_unit(self):
        level = LevelContext.at(14)
        ratios = [lollipop_ratio_step(level, 0, i) for i in range(5)]
        report = check_complete_positivity(ratios, level)
        assert report.verdict is Positivity.COMPLETELY_POSITIVE
        assert report.witness is None
        assert all(s is Sign.POSITIVE for s in report.sign_matrix.values())

    def test_boundary_color_case_positive(self):
        # 2c = r - 3 at r = 7
        level = LevelContext.at(14)
        ratios = [lollipop_ratio_cumulative(level, 2, 1)]
        report = check_complete_positivity(ratios, level)
        assert report.verdict is Positivity.COMPLETELY_POSITIVE

    def test_theta_p5_not_positive(self):
        level = LevelContext.at(5)
        ratios = [
            theta_norm_ratio(level, (2, 2, 2)),
        ]
        report = check_complete_positivity(ratios, level)
        assert report.verdict is Positivity.NOT_COMPLETELY_POSITIVE
        assert report.witness == (1, 0)  # [4] is negative at every embedding

    def test_witness_is_lex_least(self):
        level = LevelContext.at(14)
        ratios = [lollipop_ratio_cumulative(level, 1, j) for j in (1, 2, 3)]
        report = check_complete_positivity(ratios, level)
        negatives = sorted(
            key for key, s in report.sign_matrix.items() if s is Sign.NEGATIVE
        )
        assert report.witness == negatives[0]

    def test_each_entry_is_evaluated_once(self, monkeypatch):
        # every theta coloring at p = 10: the witness (3, 6) is entry 27
        level = LevelContext.at(10)
        ratios = [theta_norm_ratio(level, t) for t in admissible_triples(level)]
        assert len(ratios) == 20
        calls = []

        def record(ratio, emb):
            calls.append(emb.k)
            return eval_sign(ratio, emb)

        monkeypatch.setattr(positivity, "eval_sign", record)
        report = check_complete_positivity(ratios, level)
        assert len(report.sign_matrix) == 27
        assert list(report.sign_matrix)[-1] == report.witness == (3, 6)
        assert len(calls) == 27


class TestDecideTorus:
    def test_clause1_finite(self):
        verdict = decide_torus(7, 2)
        assert verdict.verdict is Finiteness.FINITE
        assert verdict.clause == 1
        assert verdict.crosscheck is Crosscheck.AGREE
        assert verdict.provenance is Provenance.DIRECT_COMPUTATION

    def test_clause2_infinite_with_witness(self):
        verdict = decide_torus(7, 1)
        assert verdict.verdict is Finiteness.INFINITE
        assert verdict.clause == 2
        assert verdict.report.witness == (5, 1)

    def test_clause4_witness_k3(self):
        verdict = decide_torus(13, 2)
        assert verdict.verdict is Finiteness.INFINITE
        assert verdict.clause == 4
        assert verdict.report.witness[0] == 3

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            decide_torus(4, 0)
        with pytest.raises(UsageError):
            decide_torus(9, 0)

    def test_color_out_of_range(self):
        with pytest.raises(UsageError):
            decide_torus(5, 2)  # 2c > r - 2
        with pytest.raises(UsageError):
            decide_torus(7, -1)

    @pytest.mark.parametrize("p_choice", ["2r", "r"])
    def test_no_admitted_color_has_dimension_below_two(self, p_choice):
        # c = (r-1)/2 is the first color with r - 1 - 2c < 2, and is rejected
        for r in primerange(3, 200):
            with pytest.raises(UsageError):
                decide_torus(r, (r - 1) // 2, p_choice)

    def test_scan_matches_symbolic_evaluation(self):
        # the incremental scan agrees with evaluating full cumulative symbols
        for r, c in ((7, 1), (11, 1), (13, 2)):
            level = LevelContext.at(2 * r)
            sign_matrix = dict(_torus_signs(level, c))
            for j in range(1, r - 1 - 2 * c):
                value = lollipop_ratio_cumulative(level, c, j)
                for emb in embeddings(level.p):
                    assert sign_matrix[(emb.k, j)] is eval_sign(value, emb)

    def test_conjugation_invariance(self):
        # replacing k by 2p - k changes no sign entry
        for r, c in ((7, 1), (11, 4), (13, 1)):
            level = LevelContext.at(2 * r)
            for j in range(1, r - 1 - 2 * c):
                value = lollipop_ratio_cumulative(level, c, j)
                for emb in embeddings(level.p):
                    mirrored = EmbeddingIndex(2 * level.p - emb.k, level.p)
                    assert eval_sign(value, emb) is eval_sign(value, mirrored)

    def test_cumulative_multiplicativity(self):
        level = LevelContext.at(22)
        sign_matrix = dict(_torus_signs(level, 1))
        for emb in embeddings(level.p):
            running = 1
            for j in range(1, 11 - 1 - 2):
                running *= eval_sign(lollipop_ratio_step(level, 1, j - 1), emb).value
                assert sign_matrix[(emb.k, j)].value == running


def _first_negative(sign_matrix):
    return next((key for key, s in sign_matrix.items() if s is Sign.NEGATIVE), None)


class TestSignEngine:
    @pytest.mark.parametrize("r", list(primerange(3, 40)))
    def test_full_matrix_matches_symbolic_signs(self, r):
        # prefix parity over quantum factorials vs the cumulative symbol,
        # at p = 2r and at p = r
        for level in (LevelContext.at(2 * r), LevelContext.at(r)):
            embs = embeddings(level.p)
            for c in range((r - 2) // 2 + 1):
                sign_matrix = dict(_torus_signs(level, c))
                assert len(sign_matrix) == len(embs) * (r - 2 - 2 * c)
                assert list(sign_matrix) == sorted(sign_matrix)
                for j in range(1, r - 1 - 2 * c):
                    value = lollipop_ratio_cumulative(level, c, j)
                    for emb in embs:
                        assert sign_matrix[(emb.k, j)] is eval_sign(value, emb), (
                            level.p, c, j, emb.k)

    @pytest.mark.parametrize("r", list(primerange(3, 90)))
    def test_early_exit_stops_at_first_negative_of_full_matrix(self, r):
        for p_choice in ("2r", "r"):
            for c in range((r - 2) // 2 + 1):
                report = decide_torus(r, c, p_choice).report
                full = dict(_torus_signs(report.level, c))
                witness = _torus_witness(report.level, c)
                assert report.witness == witness == _first_negative(full)
                entries = list(full.items())
                if witness is not None:
                    entries = entries[: list(full).index(witness) + 1]
                assert list(report.sign_matrix.items()) == entries


def _seven_term_witness(level, c):
    """First (k, j) with a negative cumulative ratio, one entry at a time from
    the prefix-count parities: the per-entry parity rule the masks replace."""
    r = level.r
    for emb in embeddings(level.p):
        b = qint_sign_values(level.p, emb.k)
        n = [b >> i & 1 for i in range(r)]
        for j in range(1, r - 1 - 2 * c):
            parity = (n[2 * c + j + 1] - n[2 * c + 1] + n[j] - n[c + j + 1]
                      + n[c + 1] - n[c + j] + n[c])
            if parity % 2:
                return emb.k, j
    return None


class TestMaskWitness:
    @pytest.mark.parametrize("r", list(primerange(3, 150)))
    def test_matches_per_entry_scan(self, r):
        for level in (LevelContext.at(2 * r), LevelContext.at(r)):
            for c in range((r - 2) // 2 + 1):
                assert _torus_witness(level, c) == _seven_term_witness(level, c), (
                    level.p, c)

    def test_parity_bits(self):
        # bit n is N(n) mod 2.  The order is invisible in the witnesses, whose
        # tables are symmetric, N(r-1-n) = N(r-1) - N(n), but not below r - 1:
        # at p = 14, k = 5 only [2] is negative among [1..4], so N = 0,0,1,1,1
        assert qint_sign_values(14, 5) & 0b11111 == 0b11100

    def test_sign_matrix_is_built_on_first_access(self, monkeypatch):
        def fail(level, c):
            raise AssertionError("sign entries built eagerly")

        with monkeypatch.context() as patch:
            patch.setattr(positivity, "_torus_signs", fail)
            verdict = decide_torus(97, 0)
            closed = decide_closed(14, 2)
        assert verdict.verdict is Finiteness.FINITE
        assert closed.report.witness == (5, 1)
        report = verdict.report
        assert report.sign_matrix == dict(_torus_signs(report.level, 0))
        assert len(report.sign_matrix) == len(embeddings(report.level.p)) * 95
        assert list(closed.report.sign_matrix)[-1] == closed.report.witness


class TestReportEntries:
    # acceptance 1 inspects sign_matrix values; an empty matrix would pass it
    @pytest.mark.parametrize("r", [5, 7, 11, 13, 97, 199])
    def test_completely_positive_report_holds_every_entry(self, r):
        for c in (0, (r - 3) // 2):
            verdict = decide_torus(r, c)
            report = verdict.report
            assert report.verdict is Positivity.COMPLETELY_POSITIVE
            dim = r - 1 - 2 * c
            assert len(report.sign_matrix) == len(embeddings(report.level.p)) * (dim - 1)
            assert all(s is Sign.POSITIVE for s in report.sign_matrix.values())

    @pytest.mark.parametrize("r,c", [(7, 1), (13, 2), (97, 1), (97, 5), (199, 30)])
    def test_witness_report_ends_at_the_witness(self, r, c):
        report = decide_torus(r, c).report
        keys = list(report.sign_matrix)
        assert keys[-1] == report.witness
        assert _first_negative(report.sign_matrix) == report.witness

    @pytest.mark.parametrize("p", [14, 7, 22])
    def test_closed_handle_report_ends_at_the_witness(self, p):
        report = decide_closed(p, 3).report
        assert list(report.sign_matrix)[-1] == report.witness
        assert _first_negative(report.sign_matrix) == report.witness


class TestInvariants:
    def test_vanishing_factor_in_range(self, monkeypatch):
        # the builder itself raises at k = 0 (mod p), where [1] already vanishes
        monkeypatch.setattr(
            positivity, "qint_sign_values", lambda p, k: qint_sign_values(p, 0)
        )
        with pytest.raises(InvariantViolation, match=r"\[1\] vanishes"):
            decide_torus(7, 1)

    def test_handle_decomposition_without_witness(self, monkeypatch):
        # every embedding read as the unitary one, k = 1 at p = 2r, where all
        # [m] with m <= r - 1 are positive
        monkeypatch.setattr(
            positivity, "qint_sign_values", lambda p, k: qint_sign_values(p, 1)
        )
        assert decide_torus(7, 1).verdict is Finiteness.FINITE
        with pytest.raises(InvariantViolation):
            decide_closed(14, 2)

    def test_designated_theta_witness_not_negative(self, monkeypatch):
        monkeypatch.setattr(positivity, "eval_sign", lambda value, emb: Sign.POSITIVE)
        with pytest.raises(InvariantViolation):
            decide_closed(5, 2)


class TestTheoremPredicate:
    @pytest.mark.parametrize(
        "r,c,expected",
        [
            (7, 2, (1, Finiteness.FINITE)),
            (7, 1, (2, Finiteness.INFINITE)),
            (5, 1, (1, Finiteness.FINITE)),  # clause 2 excludes r = 5
            (13, 2, (4, Finiteness.INFINITE)),
            (7, 0, None),  # c = 0 is the closed torus; no clause fires
        ],
    )
    def test_first_match(self, r, c, expected):
        assert theorem_predicate(r, c) == expected

    @pytest.mark.parametrize(
        "r,c,clause,expected",
        [
            (7, 1, 2, 5),       # (2*7+1)/3
            (7, 3, 3, 3),       # r = 2 (mod 5): (2*7+1)/5
            (13, 1, 4, 3),
            (7, 2, 1, None),
        ],
    )
    def test_clause_witness(self, r, c, clause, expected):
        assert clause_witness_k(r, clause) == expected

    @pytest.mark.parametrize("clause", [1, 2, 3, 4])
    def test_clause_witness_at_every_prime(self, clause):
        # the residue cases of the theorem's statement, one branch each
        def by_residue(r):
            if clause == 2:
                return {1: (2 * r + 1) // 3, 2: (2 * r - 1) // 3}.get(r % 3)
            if clause == 3:
                return {2: (2 * r + 1) // 5, 3: (2 * r - 1) // 5}.get(r % 5)
            return 3 if clause == 4 else None

        for r in primerange(5, 2000):
            assert clause_witness_k(r, clause) == by_residue(r), r

    @pytest.mark.parametrize("r", list(primerange(5, 300)))
    def test_designated_witnesses_match_the_float_sines(self, r):
        # X at each designated k against the float sign of <u_j>/<u_0>, the
        # product of the first j one-step ratios, kept as its sign
        p = 2 * r
        for c in range((r - 1) // 2):
            clause = (theorem_predicate(r, c) or (None,))[0]
            if clause not in (2, 3, 4):
                continue
            k = clause_witness_k(r, clause)

            def q(n):
                return math.sin(2 * math.pi * n * k / p) / math.sin(2 * math.pi * k / p)

            expected, sign = 0, 1.0
            for j in range(1, r - 1 - 2 * c):
                step = q(2 * c + j + 1) * q(j) / (q(c + j + 1) * q(c + j))
                sign = math.copysign(1.0, sign * step)
                expected |= (sign < 0) << j
            assert negative_ratios(LevelContext.at(p), k, c) == expected, (r, c, clause)
            # the clause's claim: a negative one-step ratio (4), or <u_2>/<u_0> (2, 3)
            assert (expected if clause == 4 else expected >> 2 & 1), (r, c, clause)

    @pytest.mark.parametrize("r", list(primerange(5, 98)))
    def test_crosscheck_always_agrees(self, r):
        for c in range((r - 2) // 2 + 1):
            if r - 1 - 2 * c < 2:
                continue
            verdict = decide_torus(r, c)
            if verdict.clause is not None:
                assert verdict.crosscheck is Crosscheck.AGREE, (r, c, verdict.clause)


class TestLevelDoubling:
    """With k' = 2k + r (mod 2r), [m] at (2r, k') is (-1)^(m-1) times [m] at
    (r, k); the signs cancel in every <u_j>/<u_0>."""

    @pytest.mark.parametrize("r", list(primerange(3, 60)))
    def test_sign_entries(self, r):
        canonical = list(embedding_ks(r))
        images = [(2 * k + r) % (2 * r) for k in canonical]
        images += [(2 * (2 * r - k) + r) % (2 * r) for k in canonical]
        assert sorted(images) == list(embedding_ks(2 * r))
        for c in range((r - 1) // 2):
            doubled = dict(_torus_signs(LevelContext.at(2 * r), c))
            for (k, j), s in _torus_signs(LevelContext.at(r), c):
                # k and its conjugate 2r - k have the same signs at p = r
                for k_odd in (k, 2 * r - k):
                    assert doubled[((2 * k_odd + r) % (2 * r), j)] is s, (r, c, k_odd, j)

    @pytest.mark.parametrize("r", list(primerange(3, 200)))
    def test_verdicts(self, r):
        for c in range((r - 1) // 2):
            odd, even = decide_torus(r, c, "r"), decide_torus(r, c)
            assert (odd.verdict, odd.clause) == (even.verdict, even.clause), (r, c)
            if odd.clause is not None:
                assert odd.crosscheck is Crosscheck.AGREE, (r, c)

    @pytest.mark.parametrize("r", list(primerange(3, 200)))
    def test_unitary_embedding_has_no_negative_entry(self, r):
        # k = 1 at p = 2r; at p = r its preimage, the odd one of (r +- 1)/2
        [k_odd] = [k for k in ((r - 1) // 2, (r + 1) // 2) if k % 2]
        for p, k_unitary in ((2 * r, 1), (r, k_odd)):
            for c in range((r - 1) // 2):
                assert negative_ratios(LevelContext.at(p), k_unitary, c) == 0, (p, c)


class TestClassification:
    """The one-holed torus has no witness exactly when c = 0 or 2c = r - 3, at
    both levels (README "Sign engine"): [m] < 0 at the folded step s exactly
    when floor(2ms/p) is odd."""

    def test_k1_lemma_at_p_equals_r(self):
        # for 1 <= c <= (r - 5)/2 the stated j is negative at k = 1
        colors = 0
        for r in primerange(3, 2000):
            level = LevelContext.at(r)
            for c in range(1, (r - 5) // 2 + 1):
                j = 1 if 4 * c + 4 > r else (r - 1) // 2 - 2 * c
                assert negative_ratios(level, 1, c) >> j & 1, (r, c, j)
                colors += 1
        assert colors == 137770

    def test_no_witness_exactly_at_c0_and_the_one_ratio(self):
        witnesses_at_r = 0
        for r in primerange(3, 600):
            for p_choice in ("2r", "r"):
                for c, verdict in enumerate(decide_torus_level(r, p_choice)):
                    witness = verdict.report.witness
                    assert (witness is None) == (c == 0 or 2 * c == r - 3), (r, p_choice, c)
                    if p_choice == "r" and witness is not None:
                        assert witness[0] == 1, (r, c, witness)
                        witnesses_at_r += 1
        assert witnesses_at_r == 14378

    def test_level_doubling_bit_for_bit(self):
        # X at (r, k) equals X at (2r, |r - 2k|), for every c and canonical k
        triples = 0
        for r in primerange(3, 200):
            odd, even = LevelContext.at(r), LevelContext.at(2 * r)
            for c in range((r - 1) // 2):
                for k in embedding_ks(r):
                    assert negative_ratios(odd, k, c) == negative_ratios(even, abs(r - 2 * k), c), (
                        r, c, k)
                    triples += 1
        assert triples == 139164

    def test_the_one_ratio_is_positive_at_every_embedding(self):
        # clause 1: the read is 0 at every canonical k of both levels
        reads = 0
        for r in primerange(3, 2000):
            for level in (LevelContext.at(2 * r), LevelContext.at(r)):
                for k in embedding_ks(level.p):
                    assert negative_ratios(level, k, (r - 3) // 2) == 0, (level.p, k)
                    reads += 1
        assert reads == 415119


class TestDecideClosed:
    def test_genus1_finite(self):
        verdict = decide_closed(10, 1)
        assert verdict.verdict is Finiteness.FINITE
        assert verdict.report.verdict is Positivity.COMPLETELY_POSITIVE

    def test_genus1_runs_no_per_entry_sign_evaluation(self, monkeypatch):
        def fail(value, emb):
            raise AssertionError("closed torus evaluated a ratio entry by entry")

        monkeypatch.setattr(positivity, "eval_sign", fail)
        for p in (3, 5, 6, 14, 998):
            assert decide_closed(p, 1).verdict is Finiteness.FINITE

    @pytest.mark.parametrize("r", [3, 5, 7, 11, 13, 97])
    def test_genus1_signs_are_the_c0_torus_signs(self, r):
        even = decide_torus(r, 0).report.sign_matrix
        odd = decide_torus(r, 0, p_choice="r").report.sign_matrix
        assert decide_closed(2 * r, 1).report.sign_matrix == even
        assert decide_closed(r, 1).report.sign_matrix == odd

    def test_p5_witness(self):
        verdict = decide_closed(5, 2)
        assert verdict.verdict is Finiteness.INFINITE
        assert verdict.report.witness == (3, (2, 2, 2))

    def test_p10_witness(self):
        verdict = decide_closed(10, 2)
        assert verdict.report.witness == (3, (2, 1, 1))

    def test_r5_witnesses_are_designated_not_first_in_scan_order(self):
        # at p = 5 the witness coloring is negative at k = 1 already, and at
        # p = 10 (1, 1, 2) precedes (2, 1, 1) at k = 3, the first negative k
        level5, level10 = LevelContext.at(5), LevelContext.at(10)
        assert decide_closed(5, 2).report.witness == (3, (2, 2, 2))
        assert eval_sign(theta_norm_ratio(level5, (2, 2, 2)),
                         EmbeddingIndex(1, 5)) is Sign.NEGATIVE
        assert decide_closed(10, 2).report.witness == (3, (2, 1, 1))
        first = next((emb.k, t) for emb in embeddings(10) for t in admissible_triples(level10)
                     if eval_sign(theta_norm_ratio(level10, t), emb) is Sign.NEGATIVE)
        assert first == (3, (1, 1, 2))

    def test_p6_all_genera_finite(self):
        for g in (1, 2, 3, 4):
            assert decide_closed(6, g).verdict is Finiteness.FINITE

    def test_p3_finite(self):
        assert decide_closed(3, 5).verdict is Finiteness.FINITE

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_p3_report_holds_the_unit_coloring(self, g):
        # the single theta coloring (0, 0, 0) at the single embedding k = 1
        report = decide_closed(3, g).report
        assert report.sign_matrix == {(1, 0): Sign.POSITIVE}
        assert report.witness is None

    def test_handle_decomposition_for_large_r(self):
        verdict = decide_closed(14, 3)
        assert verdict.verdict is Finiteness.INFINITE
        assert verdict.provenance is Provenance.CLOSED_SURFACE_RULE

    def test_invalid_level(self):
        with pytest.raises(UsageError):
            decide_closed(9, 2)
        with pytest.raises(UsageError):
            decide_closed(10, 0)

    @pytest.mark.parametrize("p", [3, 5, 6, 7, 10, 14, 22, 26])
    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_matches_closed_theorem(self, p, g):
        level = LevelContext.at(p)
        expected = (
            Finiteness.FINITE if g == 1 or level.r == 3 else Finiteness.INFINITE
        )
        verdict = decide_closed(p, g)
        assert verdict.verdict is expected
        assert verdict.crosscheck is Crosscheck.AGREE


def _general_masks(level, c):
    """The (k, X) of the general parity-mask path, for any c: the reference
    the two shapes that need no mask are checked against."""
    r = level.r
    ratios = (1 << (r - 1 - 2 * c)) - 2
    masks = []
    for k in embedding_ks(level.p):
        b = qint_sign_values.__wrapped__(level.p, k)
        x = (b >> (2 * c + 1)) ^ b ^ (b >> (c + 1)) ^ (b >> c)
        masks.append((k, (~x if x & 1 else x) & ratios))
    return masks


class TestMasklessShapes:
    """The one ratio of 2c = r - 3 is read without a parity mask, and the
    witness search never opens c = 0, whose X is 0 at every k."""

    @pytest.mark.parametrize("r", list(primerange(3, 400)))
    def test_equal_the_general_masks(self, r):
        for level in (LevelContext.at(2 * r), LevelContext.at(r)):
            for c in {0, (r - 3) // 2}:
                masks = [(k, negative_ratios(level, k, c)) for k in embedding_ks(level.p)]
                assert masks == _general_masks(level, c), (level.p, c)

    @pytest.mark.parametrize("decide,args", [
        (decide_torus, (1999, 998)),
        (decide_torus, (1999, 998, "r")),
        (decide_torus, (1999, 0)),
        (decide_closed, (3998, 1)),
    ])
    def test_build_no_mask(self, decide, args):
        qint_sign_values.cache_clear()
        assert decide(*args).verdict is Finiteness.FINITE
        assert qint_sign_values.cache_info().misses == 0

    @pytest.mark.parametrize("r", [3, 5, 7, 97, 1999])
    def test_c0_visits_no_mask(self, r, monkeypatch):
        # every mask at c = 0 is 0, so the witness search reads none of them
        def no_masks(level, k, c):
            raise AssertionError(f"a mask was read at k = {k}, c = {c}")

        monkeypatch.setattr(positivity, "negative_ratios", no_masks)
        for p_choice in ("2r", "r"):
            assert decide_torus(r, 0, p_choice).verdict is Finiteness.FINITE

    @pytest.mark.parametrize("r", [5, 7, 11, 97, 1999])
    def test_one_residue_table_per_level(self, r):
        # at most one table per level, and the one ratio of 2c = r - 3 needs
        # none: it reads three floor parities, so it builds no table and no mask
        for p_choice in ("2r", "r"):
            _residue_tile.cache_clear()
            qint_sign_values.cache_clear()
            decide_torus(r, (r - 3) // 2, p_choice)
            assert _residue_tile.cache_info().misses == 0, p_choice
            assert qint_sign_values.cache_info().misses == 0, p_choice

    @pytest.mark.parametrize("r", list(primerange(5, 300)))
    def test_one_ratio_matches_the_float_sines(self, r):
        c = (r - 3) // 2
        for p in (2 * r, r):
            for k in embedding_ks(p):
                x = negative_ratios(LevelContext.at(p), k, c)

                def q(n):
                    return math.sin(2 * math.pi * n * k / p) / math.sin(2 * math.pi * k / p)

                negative = q(2 * c + 2) / (q(c + 2) * q(c + 1)) < 0
                assert x == (2 if negative else 0), (p, k)


class TestMirroredEmbeddings:
    """At p = 2r, k and 2r - k share their folded step, so the witness search
    stops after k = r - 2; the sign matrix still covers every k."""

    @pytest.mark.parametrize("r", [5, 7, 11, 97, 1999])
    def test_finite_shape_visits_half_the_embeddings(self, r, monkeypatch):
        visited = []
        product = positivity.qint_product_negative

        def count(p, k, ms):
            visited.append((p, k))
            return product(p, k, ms)

        monkeypatch.setattr(positivity, "qint_product_negative", count)
        c = (r - 3) // 2
        verdict = decide_torus(r, c)
        assert verdict.verdict is Finiteness.FINITE
        assert visited == [(2 * r, k) for k in embedding_ks(2 * r) if k < r]
        assert len(visited) == (r - 1) // 2
        assert [k for k, j in verdict.report.sign_matrix] == list(embedding_ks(2 * r))
        visited.clear()
        assert decide_torus(r, c, "r").verdict is Finiteness.FINITE
        assert visited == [(r, k) for k in embedding_ks(r)]

    @pytest.mark.parametrize("r", list(primerange(3, 400)))
    def test_witnesses_equal_the_full_walk(self, r):
        for level in (LevelContext.at(2 * r), LevelContext.at(r)):
            for c in range(1, (r - 1) // 2):
                masks = ((k, negative_ratios(level, k, c)) for k in embedding_ks(level.p))
                full = next(((k, (x & -x).bit_length() - 1) for k, x in masks if x), None)
                assert _torus_witness(level, c) == full, (level.p, c)


class TestMaskCache:
    def test_bounded_cache_keeps_the_verdicts(self, monkeypatch):
        # two passes over levels whose masks outnumber the cache: the second
        # pass builds again the masks the first one evicted
        pairs = [(r, c) for r in primerange(300, 500) for c in range((r - 1) // 2)] * 2

        def witnesses():
            return [decide_torus(r, c).report.witness for r, c in pairs]

        qint_sign_values.cache_clear()
        bounded = witnesses()
        info = qint_sign_values.cache_info()
        unbounded = lru_cache(maxsize=None)(qint_sign_values.__wrapped__)
        monkeypatch.setattr(positivity, "qint_sign_values", unbounded)
        assert witnesses() == bounded
        assert info.currsize <= info.maxsize
        assert info.misses > unbounded.cache_info().misses


class TestTorusLevel:
    def test_checked_once_per_level(self, monkeypatch):
        calls = []
        monkeypatch.setattr(positivity, "isprime", lambda n: calls.append(n) or isprime(n))
        for c in range(10):
            decide_torus(23, c)
            decide_torus(23, c, "r")
        assert calls == [23] * 20  # each call tests r once

    @pytest.mark.parametrize("args,message", [
        ((9, 1), "r must be an odd prime, got 9"),
        ((2, 0), "r must be an odd prime, got 2"),
        ((7, 1, "3r"), "p_choice must be 'r' or '2r', got '3r'"),
    ])
    def test_usage_errors_every_call(self, args, message):
        for _ in range(2):  # each call checks r and p_choice
            with pytest.raises(UsageError) as exc:
                decide_torus(*args)
            assert str(exc.value) == message


class TestRecordSemantics:
    # reports and verdicts are plain named tuples, compared and hashed by
    # every field
    @pytest.mark.parametrize("decide", [
        lambda: decide_torus(97, 5),
        lambda: decide_torus(97, 5).report,
        lambda: decide_closed(14, 3),
        lambda: LevelContext.at(14),
    ], ids=["decide_torus(97, 5)", "its report", "decide_closed(14, 3)", "LevelContext.at(14)"])
    def test_equal_across_calls(self, decide):
        first = decide()
        second = decide()
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)

    def test_records_of_different_colors_differ(self):
        assert decide_torus(97, 5).report != decide_torus(97, 4).report
        assert decide_torus(97, 5) != decide_torus(97, 6)

    @pytest.mark.parametrize("decide,flipped", [
        (lambda: decide_torus(7, 1), Finiteness.FINITE),
        (lambda: decide_torus(7, 2), Finiteness.INFINITE),
        (lambda: decide_closed(10, 2), Finiteness.FINITE),
        (lambda: decide_closed(14, 1), Finiteness.INFINITE),
    ], ids=["decide_torus(7, 1)", "decide_torus(7, 2)",
            "decide_closed(10, 2)", "decide_closed(14, 1)"])
    def test_crosscheck_is_derived_from_expected(self, decide, flipped):
        verdict = decide()
        assert verdict.crosscheck is Crosscheck.AGREE
        assert verdict._replace(expected=flipped).crosscheck is Crosscheck.DISAGREE
        assert verdict._replace(expected=None).crosscheck is Crosscheck.NOT_APPLICABLE


class TestLevelPass:
    """decide_torus_level decides a whole level from one walk over the
    embeddings, and decide_torus goes through the same search."""

    @staticmethod
    def _fields(verdict):
        report = verdict.report
        return (verdict.verdict, report.witness, verdict.clause, verdict.crosscheck,
                report.torus_c, report.level, verdict.provenance)

    @pytest.mark.parametrize("r", list(primerange(3, 500)))
    def test_equals_the_per_color_decisions(self, r):
        for p_choice in ("2r", "r"):
            level = decide_torus_level(r, p_choice)
            single = [decide_torus(r, c, p_choice) for c in range((r - 1) // 2)]
            assert [self._fields(v) for v in level] == [self._fields(v) for v in single]
            assert level == single

    @pytest.mark.parametrize("r,p_choice,expected", [
        # r = 3 has the one color c = 0, where also 2c = r - 3; r = 5 has two
        (3, "2r", [(None, 1)]),
        (3, "r", [(None, 1)]),
        (5, "2r", [(None, None), (None, 1)]),
        (5, "r", [(None, None), (None, 1)]),
        (7, "2r", [(None, None), ((5, 1), 2), (None, 1)]),
        (7, "r", [(None, None), ((1, 1), 2), (None, 1)]),
    ])
    def test_edge_levels(self, r, p_choice, expected):
        verdicts = decide_torus_level(r, p_choice)
        assert [(v.report.witness, v.clause) for v in verdicts] == expected
        assert [v.report.torus_c for v in verdicts] == list(range(len(expected)))
        assert all(v.crosscheck is Crosscheck.AGREE for v in verdicts if v.clause)

    def test_one_search_for_every_decision(self, monkeypatch):
        searches = []
        search = positivity._torus_verdicts

        def record(level, cs):
            searches.append((level.p, tuple(cs)))
            return search(level, cs)

        monkeypatch.setattr(positivity, "_torus_verdicts", record)
        decide_torus(7, 1)
        decide_torus(7, 2, "r")
        decide_torus_level(7)
        decide_closed(14, 1)
        decide_closed(14, 2)
        assert searches == [(14, (1,)), (7, (2,)), (14, (0, 1, 2)), (14, (0,)), (14, (1,))]

    def test_usage_errors(self):
        with pytest.raises(UsageError, match="r must be an odd prime, got 9"):
            decide_torus_level(9)
        with pytest.raises(UsageError, match="p_choice must be 'r' or '2r'"):
            decide_torus_level(7, "3r")

    def test_sweep_builds_each_mask_once(self):
        # the benchmark's sweep: the first open color at k builds its mask, and
        # the cache of qint_sign_values serves it to the other open colors
        qint_sign_values.cache_clear()
        with redirect_stdout(io.StringIO()):
            assert main(["scan", "--r-max", "151", "--format", "csv", "--jobs", "1"]) == EXIT_OK
        assert qint_sign_values.cache_info().misses == 839

    @pytest.mark.parametrize("argv,builds,hits", [
        (["scan", "--r-max", "499", "--format", "csv", "--jobs", "1"], 7268, 36272),
        # the designated checks build 4 masks the witness search did not and
        # hit 8,604 more times
        (["verify-theorem", "--r-max", "499"], 7268 + 4, 36272 + 8604),
    ], ids=["scan", "verify-theorem"])
    def test_the_sweep_limit_shares_its_masks(self, argv, builds, hits):
        qint_sign_values.cache_clear()
        with redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        info = qint_sign_values.cache_info()
        assert (info.misses, info.hits) == (builds, hits)

    @pytest.mark.parametrize("r", [3, 5])
    @pytest.mark.parametrize("p_choice", ["2r", "r"])
    def test_maskless_levels_build_no_mask(self, r, p_choice):
        # every color of these levels is c = 0 or 2c = r - 3, the two shapes
        # negative_ratios reads without a parity mask
        qint_sign_values.cache_clear()
        decide_torus_level(r, p_choice)
        assert qint_sign_values.cache_info().misses == 0

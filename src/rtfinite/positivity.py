"""The decision engine.

Finiteness of the representation image is equivalent to complete
positivity: at every choice of primitive 2p-th root of unity the
invariant Hermitian form is definite.  Since the graph bases are
orthogonal and norms are taken relative to a fixed base vector, the
form fails to be definite at an embedding exactly when some relative
norm ratio is negative there.  Everything below is an exact sign scan
over (embedding x ratio), plus cross-checks against the closed-form
clauses of the one-holed-torus theorem.
"""

import enum
from typing import NamedTuple, Optional, Sequence

from .bases import (_check_lollipop_color, admissible_triples, lollipop_ratio_step,
                    theta_norm_ratio)
from .context import LevelContext, isprime
from .cyclotomic import EmbeddingIndex, Sign, embedding_ks, embeddings
from .errors import InvariantViolation, UsageError
from .quantum import QuantumFactored, eval_sign, qint_product_negative, qint_sign_values


class Positivity(enum.Enum):
    COMPLETELY_POSITIVE = "completely-positive"
    NOT_COMPLETELY_POSITIVE = "not-completely-positive"


class Finiteness(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"


class Crosscheck(enum.Enum):
    AGREE = "agree"
    DISAGREE = "disagree"
    NOT_APPLICABLE = "not-applicable"


class Provenance(enum.Enum):
    DIRECT_COMPUTATION = "direct-computation"
    CLOSED_SURFACE_RULE = "closed-surface-rule"


class PositivityReport(NamedTuple):
    """Witness and the sign entries that lead to it.

    The witness is the first (embedding k, ratio id) in scan order at which
    a ratio is negative, or None; the verdict is read off it.  The one
    exception is decide_closed's r = 5 witness, which is designated, not
    searched for, and pinned by acceptance 5 (ROADMAP item 3): (3, (2, 2, 2))
    at p = 5, where (2, 2, 2) is already negative at k = 1, and (3, (2, 1, 1))
    at p = 10, where (3, (1, 1, 2)) comes first in scan order.  sign_matrix
    maps each (k, ratio id) in scan order (ascending k, then ratio) to its
    Sign: every entry when there is no witness, otherwise the entries up to
    and including the witness.  A symbol scan stores those ((k, ratio id),
    Sign) pairs as entries.  torus_c is the color of a one-holed-torus
    report, whose ratio ids are lollipop indices j; it stores no entries,
    and sign_matrix reads them through _torus_signs on each access.
    """

    level: LevelContext
    witness: Optional[tuple] = None
    torus_c: Optional[int] = None
    entries: tuple = ()

    @property
    def verdict(self) -> Positivity:
        if self.witness is None:
            return Positivity.COMPLETELY_POSITIVE
        return Positivity.NOT_COMPLETELY_POSITIVE

    @property
    def sign_matrix(self) -> dict:
        if self.torus_c is None:
            return dict(self.entries)
        sign_matrix = {}
        for key, s in _torus_signs(self.level, self.torus_c):
            sign_matrix[key] = s
            if s is Sign.NEGATIVE:
                break
        return sign_matrix


class FinitenessVerdict(NamedTuple):
    """The image is finite exactly when the report has no witness.  expected
    is what the matching clause or the closed-surface rule predicts, or None;
    crosscheck compares it with the verdict."""

    provenance: Provenance
    report: PositivityReport
    clause: Optional[int] = None
    expected: Optional[Finiteness] = None

    @property
    def verdict(self) -> Finiteness:
        return Finiteness.FINITE if self.report.witness is None else Finiteness.INFINITE

    @property
    def crosscheck(self) -> Crosscheck:
        if self.expected is None:
            return Crosscheck.NOT_APPLICABLE
        return Crosscheck.AGREE if self.expected is self.verdict else Crosscheck.DISAGREE


def check_complete_positivity(
    ratios: Sequence[QuantumFactored], level: LevelContext
) -> PositivityReport:
    """Evaluate relative-norm ratios at the canonical embeddings.

    Entries are scanned in ascending k, then ratio list order, and each is
    evaluated once; the first Negative entry is the witness and ends the
    scan.  Zero entries are recorded as such; they never occur for
    admissible data.
    """
    entries = []
    for emb in embeddings(level.p):
        for idx, ratio in enumerate(ratios):
            s = eval_sign(ratio, emb)
            entries.append(((emb.k, idx), s))
            if s is Sign.NEGATIVE:
                return PositivityReport(level, (emb.k, idx), entries=tuple(entries))
    return PositivityReport(level, entries=tuple(entries))


_PARITY_SIGN = (Sign.POSITIVE, Sign.NEGATIVE)


def negative_ratios(level: LevelContext, k: int, c: int) -> int:
    """X at embedding k: bit j is set exactly when <u_j>/<u_0> < 0 at k, for
    1 <= j <= r-2-2c, and every other bit is clear.

    The cumulative ratio telescopes to
        [2c+j+1]! [j]! [c+1]! [c]! / ([2c+1]! [c+j+1]! [c+j]!),
    so with N(n) the number of negative [m], m <= n, at k, its sign is the
    parity of
        N(2c+j+1) + N(j) - N(c+j+1) - N(c+j) + (N(c+1) + N(c) - N(2c+1)).
    With B the parity mask of N (qint_sign_values), the first four terms
    are, for every j at once, the bits of (B >> 2c+1) ^ B ^ (B >> c+1) ^ (B >> c);
    bit 0 of that is the bracket, as N(0) = 0, and when odd it inverts them
    all.  Every index is at most r - 1, where no quantum integer vanishes.

    The one ratio of 2c = r - 3 needs no B: with d(m) = 1 when [m] < 0 at k,
    so that B(m) ^ B(m-1) = d(m), bit 1 of X after the bit-0 inversion is
    d(2c+2) ^ d(1) ^ d(c+2) ^ d(c+1), the sign of the step ratio
    [2c+2][1]/([c+2][c+1]); [1] = 1, so it is the sign of the product
    [2c+2][c+2][c+1], three floor parities (qint_product_negative).  That
    read is clause 1's runtime check, and it is provably 0 at every canonical
    k of both levels (README "Sign engine").
    """
    p, r = level.p, level.r
    if 2 * c == r - 3:
        return qint_product_negative(p, k, (2 * c + 2, c + 2, c + 1)) << 1
    b = qint_sign_values(p, k)
    x = (b >> (2 * c + 1)) ^ b ^ (b >> (c + 1)) ^ (b >> c)
    return (~x if x & 1 else x) & ((1 << (r - 1 - 2 * c)) - 2)


def _torus_verdicts(level: LevelContext, cs) -> list[FinitenessVerdict]:
    """The verdict of each color c in cs, whose witness is the lowest set bit
    (k, j) of its first nonzero X (negative_ratios), or None.  One walk over
    k = 1, 3, .., r - 2 (2r - k has k's folded step) reads X at k for every
    color still open; a color leaves at its witness.  c = 0 never opens: its
    shifts are (B >> 1) ^ B ^ (B >> 1) ^ B = 0, bit 0 included, so X = 0 at
    every k (every ratio of the closed torus is 1).  The open colors ask
    negative_ratios for the same (p, k) in turn, so the first one that needs
    the parity mask builds it and the cache of qint_sign_values serves it to
    the rest."""
    r = level.r
    witnesses = dict.fromkeys(cs)
    colors = [c for c in witnesses if c]
    for k in range(1, r - 1, 2):
        if not colors:
            break
        for c in colors:
            x = negative_ratios(level, k, c)
            if x:
                witnesses[c] = k, (x & -x).bit_length() - 1
        colors = [c for c in colors if witnesses[c] is None]
    # theorem_predicate gives (clause, expected), or None when no clause matches
    return [FinitenessVerdict(Provenance.DIRECT_COMPUTATION, PositivityReport(level, witness, c),
                              *(theorem_predicate(r, c) or ()))
            for c, witness in witnesses.items()]


def _torus_signs(level: LevelContext, c: int):
    """Yield ((k, j), sign of <u_j>/<u_0>) for the lollipop basis at color c,
    in ascending k, then ascending j >= 1, read off negative_ratios at each k."""
    js = range(1, level.r - 1 - 2 * c)
    for k in embedding_ks(level.p):
        x = negative_ratios(level, k, c)
        for j in js:
            yield (k, j), _PARITY_SIGN[x >> j & 1]


def theorem_predicate(r: int, c: int) -> Optional[tuple[int, Finiteness]]:
    """First matching closed-form clause for the one-holed torus at p = 2r;
    the clauses hold at p = r as well by level doubling (see decide_torus).

    Clauses, in order: (1) 2c = r-3 finite; (2) c = 1 (mod 3), r != 3, 5
    infinite; (3) the mod-5 residue classes, infinite; (4) 1 <= c and
    3c <= r-7 infinite.  Clause 4 excludes c = 0: a stick colored 0 is
    the closed torus, all of whose ratios are identically 1, so the
    bound is only meaningful for a nontrivial boundary color.
    """
    if 2 * c == r - 3:
        return (1, Finiteness.FINITE)
    if c % 3 == 1 and r not in (3, 5):
        return (2, Finiteness.INFINITE)
    if (
        (c % 5 == 3 and r % 5 in (2, 3))
        or (c % 5 == 1 and r % 5 == 3)
        or (c % 5 == 2 and r % 5 == 2)
    ):
        return (3, Finiteness.INFINITE)
    if 1 <= c and 3 * c <= r - 7:
        return (4, Finiteness.INFINITE)
    return None


def clause_witness_k(r: int, clause: int) -> Optional[int]:
    """The designated witness embedding index for a clause.

    Clause 4 uses k = 3.  Clause 2 uses whichever of (2r+1)/3 and (2r-1)/3
    is an integer, and clause 3 whichever of (2r+1)/5 and (2r-1)/5 is; None
    when neither is.  Clause 1 has no witness (it asserts positivity).
    """
    if clause == 4:
        return 3
    d = {2: 3, 3: 5}.get(clause)
    return next((n // d for n in (2 * r + 1, 2 * r - 1) if d and n % d == 0), None)


def _torus_level(r: int, p_choice: str) -> LevelContext:
    """The level of decide_torus and decide_torus_level, after checking r and
    p_choice."""
    if r < 3 or not isprime(r):
        raise UsageError(f"r must be an odd prime, got {r}")
    if p_choice not in ("r", "2r"):
        raise UsageError(f"p_choice must be 'r' or '2r', got {p_choice!r}")
    return LevelContext.at(r if p_choice == "r" else 2 * r)


def decide_torus(r: int, c: int, p_choice: str = "2r") -> FinitenessVerdict:
    """Decide finiteness for the one-holed torus with boundary color 2c.

    Direct computation: the witness is the first (k, j), in ascending k
    and then j, at which the cumulative relative norm <u_j>/<u_0> is
    negative; one parity mask per embedding decides every j at once.  When
    a theorem clause applies, the clause's prediction is cross-checked.

    The clauses hold at p = r as at p = 2r by level doubling, the sign form
    of the BHMV splitting of V_2r (Blanchet-Habegger-Masbaum-Vogel, Topology
    34 (1995)): with k' = 2k + r (mod 2r), [m] at (2r, k') is (-1)^(m-1)
    times [m] at (r, k), so [n]! picks up (-1)^T(n), T(n) = n(n-1)/2.  In
    <u_j>/<u_0> these cancel, as
        T(2c+j+1) + T(j) + T(c+1) + T(c) - T(2c+1) - T(c+j+1) - T(c+j) = 0
    (the indices above and below the bar have equal sums and equal sums of
    squares).  k -> k' maps the r - 1 embeddings at p = r onto the r - 1
    canonical ones at p = 2r, and k and 2r - k give the same signs, so a
    ratio is negative somewhere at p = r exactly when it is at p = 2r.
    """
    level = _torus_level(r, p_choice)
    _check_lollipop_color(level, c)
    return _torus_verdicts(level, (c,))[0]


def decide_torus_level(r: int, p_choice: str = "2r") -> list[FinitenessVerdict]:
    """decide_torus(r, c, p_choice) for every c in range((r - 1) // 2), in
    ascending c, from one witness search shared by the whole level."""
    return _torus_verdicts(_torus_level(r, p_choice), range((r - 1) // 2))


def decide_closed(p: int, g: int) -> FinitenessVerdict:
    """Decide finiteness for the closed surface of genus g at level p.

    Composes the computational witnesses the way the handle-splitting
    decomposition allows: genus 1 by the c = 0 one-holed torus, whose ratios
    are all 1, so the level walk never opens it and visits no embedding (the
    report has no witness), r = 3 by checking every
    admissible-coloring norm, r = 5 by the designated genus-2 theta witness
    (embedded by zero-coloring for g >= 3), and r >= 7 through the
    non-complete-positivity of the one-holed torus at boundary color 1.
    The r = 5 witness, (3, (2, 2, 2)) at p = 5 and (3, (2, 1, 1)) at p = 10,
    is not the first negative entry in scan order: it is designated, and
    pinned by acceptance 5 (ROADMAP item 3).

    The verdict is cross-checked against the closed-surface rule, finite
    exactly when g = 1 or r = 3: Funar's result (L. Funar, On the TQFT
    representations of the mapping class groups, Pacific J. Math. 188
    (1999)), which the source paper re-derives from its sign criterion.
    """
    if g < 1:
        raise UsageError(f"genus must be >= 1, got {g}")
    level = LevelContext.at(p)
    r = level.r

    if g == 1:
        # Closed torus: the c = 0 lollipop ratios all cancel to the unit.
        if not all(lollipop_ratio_step(level, 0, i).is_unit for i in range(r - 2)):
            raise InvariantViolation(f"a c = 0 lollipop step ratio is not 1 at p={p}")
        report = _torus_verdicts(level, (0,))[0].report
    elif r == 3:
        # Every theta coloring; at p = 3 the only one is (0, 0, 0), the unit.
        ratios = [theta_norm_ratio(level, t) for t in admissible_triples(level)]
        report = check_complete_positivity(ratios, level)
    elif r == 5:
        triple = (2, 2, 2) if p == 5 else (2, 1, 1)
        s = eval_sign(theta_norm_ratio(level, triple), EmbeddingIndex(3, p))
        if s is not Sign.NEGATIVE:
            raise InvariantViolation(
                f"designated witness {triple} at k=3 is not negative at p={p}")
        key = (3, triple)
        report = PositivityReport(level, key, entries=((key, s),))
    else:
        # r >= 7: handle decomposition V_p(S_g) = (+)_c V_p(T^c) (x) V_p(S_{g-1}^c);
        # the one-holed torus at c = 1 already fails complete positivity.
        report = _torus_verdicts(level, (1,))[0].report
        if report.witness is None:
            raise InvariantViolation(
                f"expected a negative one-holed-torus ratio at c=1 for p={p}")
    provenance = Provenance.DIRECT_COMPUTATION if g == 1 else Provenance.CLOSED_SURFACE_RULE
    expected = Finiteness.FINITE if g == 1 or r == 3 else Finiteness.INFINITE
    return FinitenessVerdict(provenance, report, expected=expected)

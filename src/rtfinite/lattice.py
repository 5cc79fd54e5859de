"""Integrality and discreteness machinery for the ring O_p = Z[A]/phi_alpha(A).

The embedding into the product of Galois conjugates has a discrete
image because the averaged square norm of any element is an integer
divided by phi(alpha_p).  The exact trace Tr(P * conjugate(P)), taken as
the integer quadratic form sum c_i c_j Tr(A^(i-j)) over the canonical
coefficients, is the ground truth for that norm; the literal closed form
displayed alongside the integrality statement (the sum of squared canonical
coefficients) is computed separately purely so the two can be compared.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .context import LevelContext
from .cyclotomic import CyclotomicInteger, reduce, trace_table
from .errors import UsageError

# discreteness_certificate draws each coefficient uniformly from
# [-COEFF_BOUND, COEFF_BOUND]
COEFF_BOUND = 10


def lattice_element(level: LevelContext, raw_coeffs) -> CyclotomicInteger:
    """The canonical residue of an integer coefficient vector in O_p."""
    return reduce(raw_coeffs, level.alpha_p)


def psi_norm_sq(element: CyclotomicInteger, level: LevelContext) -> Fraction:
    """Exact averaged square norm over all conjugate embeddings.

    Equals trace(P * conjugate(P)) / phi(alpha_p); the numerator is a
    nonnegative rational integer, zero only for P = 0.  The trace is linear,
    so the numerator is the quadratic form sum c_i c_j Tr(A^(i-j)) of the
    canonical coefficients over the cached trace table; no ring arithmetic
    is done.  Since Tr(A^-d) = Tr(A^d), the terms are grouped by d = |i - j|:
    the autocorrelation sum_i c_i c_(i+d) meets Tr(A^d) once for d = 0 and
    twice for d > 0, and the d with Tr(A^d) = 0 are skipped.
    """
    if element.order != level.alpha_p:
        raise UsageError(
            f"element has order {element.order}, expected alpha_p = {level.alpha_p}"
        )
    coeffs = element.coeffs
    table = trace_table(element.order)
    shifted = sum(
        t * sum(map(mul, coeffs, coeffs[d:]))
        for d, t in enumerate(table[1:len(coeffs)], 1)
        if t
    )
    return Fraction(table[0] * sum(map(mul, coeffs, coeffs)) + 2 * shifted, level.phi_alpha)


def naive_norm_formula(element: CyclotomicInteger) -> Fraction:
    """The literal displayed closed form, from the canonical coefficients.

    On canonical coefficients it is sum(n_i^2) at both levels: the p = 2r
    correction, minus 2 * sum over |i-j| = 2r of n_i n_j, pairs indices 2r
    apart, and alpha_p = 4r leaves only phi(4r) = 2r - 2 coefficients.  This
    is documentation, not ground truth: the display omits cross terms that
    the exact trace produces (none of which affect the integrality that
    discreteness rests on).
    """
    return Fraction(sum(c * c for c in element.coeffs))


@dataclass(frozen=True)
class DiscretenessReport:
    level_p: int
    samples: int
    seed: int
    integrality_passes: int
    integrality_failures: int
    min_norm_sq: Fraction
    formula_agreements: int
    formula_disagreements: int


def discreteness_certificate(
    level: LevelContext, sample_size: int, seed: int = 0
) -> DiscretenessReport:
    """Sample random nonzero elements and certify phi(alpha_p) * norm^2 in Z >= 1.

    Integrality bounds every nonzero norm below by 1/phi(alpha_p), which
    is the discreteness statement.  Also tallies where the displayed
    closed form agrees with the exact trace value.
    """
    if sample_size < 1:
        raise UsageError("sample_size must be >= 1")
    rng = random.Random(seed)
    deg = level.phi_alpha
    passes = failures = agree = disagree = 0
    min_norm = None
    drawn = 0
    while drawn < sample_size:
        coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(deg)]
        element = lattice_element(level, coeffs)
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
    return DiscretenessReport(
        level_p=level.p,
        samples=sample_size,
        seed=seed,
        integrality_passes=passes,
        integrality_failures=failures,
        min_norm_sq=min_norm,
        formula_agreements=agree,
        formula_disagreements=disagree,
    )

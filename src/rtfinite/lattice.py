"""Integrality and discreteness machinery for the ring O_p = Z[A]/phi_alpha(A).

The embedding into the product of Galois conjugates has a discrete
image because the averaged square norm of any element is an integer
divided by phi(alpha_p).  The exact trace Tr(P * conjugate(P)), a weighted
sum of squared residue-class sums of the coefficients (Ramanujan sums, see
psi_norm_sq), is the ground truth for that norm; the literal closed form
displayed alongside the integrality statement (the sum of squared canonical
coefficients) is computed separately purely so the two can be compared.
"""

import random
from functools import lru_cache
from itertools import islice, repeat
from operator import mul
from typing import NamedTuple

from .context import LevelContext, divisors, mobius
from .cyclotomic import CyclotomicInteger, reduce
from .errors import UsageError

# discreteness_certificate draws each coefficient uniformly from
# [-COEFF_BOUND, COEFF_BOUND]
COEFF_BOUND = 10


def lattice_element(level: LevelContext, raw_coeffs) -> CyclotomicInteger:
    """The canonical residue of an integer coefficient vector in O_p."""
    return reduce(raw_coeffs, level.alpha_p)


@lru_cache(maxsize=None)
def _ramanujan_weights(order: int) -> tuple[tuple[int, int], ...]:
    """(e, e * mu(order / e)) for the divisors e of order with a nonzero weight."""
    return tuple((e, e * mobius(order // e)) for e in divisors(order) if mobius(order // e))


def psi_norm_sq(element: CyclotomicInteger, level: LevelContext) -> "Fraction":
    """Exact averaged square norm over all conjugate embeddings.

    Equals trace(P * conjugate(P)) / phi(alpha_p); the numerator is a
    nonnegative rational integer, zero only for P = 0.  Tr(A^(i-j)) is the
    Ramanujan sum of e * mu(N/e) over the e | N = alpha_p dividing i - j, so
    the numerator sum c_i c_j Tr(A^(i-j)) regroups by e into
        sum_{e | N} mu(N/e) e sum_{a mod e} (sum_{i = a mod e} c_i)^2:
    strided slice sums, and sum c_i^2 for e >= phi(N), where every class
    holds at most one coefficient.  No ring arithmetic is done.
    """
    if element.order != level.alpha_p:
        raise UsageError(
            f"element has order {element.order}, expected alpha_p = {level.alpha_p}"
        )
    coeffs = element.coeffs
    squares = sum(map(mul, coeffs, coeffs))
    numerator = 0
    for e, weight in _ramanujan_weights(element.order):
        if e >= len(coeffs):
            numerator += weight * squares
        else:
            numerator += weight * sum(sum(coeffs[a::e]) ** 2 for a in range(e))
    from fractions import Fraction  # here, so that start-up skips fractions and decimal
    return Fraction(numerator, level.phi_alpha)


def naive_norm_formula(element: CyclotomicInteger) -> "Fraction":
    """The literal displayed closed form, from the canonical coefficients.

    On canonical coefficients it is sum(n_i^2) at both levels: the p = 2r
    correction, minus 2 * sum over |i-j| = 2r of n_i n_j, pairs indices 2r
    apart, and alpha_p = 4r leaves only phi(4r) = 2r - 2 coefficients.  This
    is documentation, not ground truth: the display omits cross terms that
    the exact trace produces (none of which affect the integrality that
    discreteness rests on).
    """
    from fractions import Fraction
    return Fraction(sum(map(mul, element.coeffs, element.coeffs)))


class DiscretenessReport(NamedTuple):
    level_p: int
    samples: int
    seed: int
    integrality_passes: int
    integrality_failures: int
    min_norm_sq: "Fraction"
    formula_agreements: int
    formula_disagreements: int


def discreteness_certificate(
    level: LevelContext, sample_size: int, seed: int = 0
) -> DiscretenessReport:
    """Sample random nonzero elements and certify phi(alpha_p) * norm^2 in Z >= 1.

    Integrality bounds every nonzero norm below by 1/phi(alpha_p), which
    is the discreteness statement.  Also tallies where the displayed
    closed form agrees with the exact trace value.

    The coefficients are rng.randint(-COEFF_BOUND, COEFF_BOUND) on CPython's
    Random, unrolled: each is the next getrandbits draw below width, less
    COEFF_BOUND; the generator draws no further than the last value taken.
    """
    if sample_size < 1:
        raise UsageError("sample_size must be >= 1")
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

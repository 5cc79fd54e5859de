"""Integrality and discreteness machinery for the ring O_p = Z[A]/phi_alpha(A).

The embedding into the product of Galois conjugates has a discrete
image because the averaged square norm of any element is an integer
divided by phi(alpha_p).  The exact trace Tr(P * conjugate(P)), a weighted
sum of squared residue-class sums of the coefficients (Ramanujan sums, see
psi_norm_sq), is the ground truth for that norm; the literal closed form
displayed alongside the integrality statement, the sum of squared canonical
coefficients, is its term for e >= phi(alpha_p), read from the same sums.
"""

import random
from functools import lru_cache
from itertools import islice
from operator import mul
from typing import NamedTuple

from .context import LevelContext, divisors, mobius
from .cyclotomic import CyclotomicInteger, reduce
from .errors import InvariantViolation, UsageError

# discreteness_certificate draws each coefficient uniformly from
# [-COEFF_BOUND, COEFF_BOUND]
COEFF_BOUND = 10
# randint(-COEFF_BOUND, COEFF_BOUND) is getrandbits(5), the top 5 bits of one
# 32-bit output, redrawn until below _WIDTH: as bytes, an output's top byte b
# decodes to b >> _SHIFT, offset by COEFF_BOUND, unless it is in _REJECTED
_WIDTH = 2 * COEFF_BOUND + 1
_SHIFT = 8 - _WIDTH.bit_length()
_DECODE, _REJECTED = bytes(b >> _SHIFT for b in range(256)), bytes(range(_WIDTH << _SHIFT, 256))
_SQUARES = bytes((b - COEFF_BOUND) ** 2 if b < _WIDTH else 0 for b in range(256))
_DRAW_WORDS = 4096  # 32-bit outputs per getrandbits call


def lattice_element(level: LevelContext, raw_coeffs) -> CyclotomicInteger:
    """The canonical residue of an integer coefficient vector in O_p."""
    return reduce(raw_coeffs, level.alpha_p)


@lru_cache(maxsize=None)
def _ramanujan_weights(order: int) -> tuple[tuple[int, int], ...]:
    """(e, e * mu(order / e)) for the divisors e of order with a nonzero weight."""
    return tuple((e, e * mobius(order // e)) for e in divisors(order) if mobius(order // e))


def psi_norm_sq(element: CyclotomicInteger, level: LevelContext) -> "Fraction":
    """Exact averaged square norm over all conjugate embeddings.

    Equals trace(P * conjugate(P)) / phi(alpha_p); the numerator
    (_norm_numerator) is a nonnegative rational integer, zero only for P = 0.
    """
    if element.order != level.alpha_p:
        raise UsageError(
            f"element has order {element.order}, expected alpha_p = {level.alpha_p}"
        )
    coeffs = element.coeffs
    from fractions import Fraction  # here, so that start-up skips fractions and decimal
    return Fraction(_norm_numerator(coeffs, sum(map(mul, coeffs, coeffs)), element.order),
                    level.phi_alpha)


def _norm_numerator(values, squares: int, order: int, shift: int = 0) -> int:
    """Tr(P * conjugate(P)) for the coefficients c_i = values[i] - shift, given
    squares = sum c_i^2.

    Tr(A^(i-j)) is the Ramanujan sum of e * mu(N/e) over the e | N = order
    dividing i - j, so sum c_i c_j Tr(A^(i-j)) regroups by e into
        sum_{e | N} mu(N/e) e sum_{a mod e} (sum_{i = a mod e} c_i)^2:
    strided slice sums, and sum c_i^2 for e >= phi(N), where every class
    holds at most one coefficient.  No ring arithmetic is done.  Each class
    mod e < phi(N) has phi(N)/e values: at N = alpha_p, e is 1, 2 or 4.
    """
    n = len(values)
    numerator = 0
    for e, weight in _ramanujan_weights(order):
        if e >= n:
            numerator += weight * squares
        else:
            for a in range(e):
                numerator += weight * (sum(values[a::e]) - shift * n // e) ** 2
    return numerator


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
    min_phi_norm_sq: int  # phi(alpha_p) * the least norm^2 sampled, an integer
    formula_agreements: int
    formula_disagreements: int


def _coefficient_slices(seed: int, deg: int):
    """Consecutive deg-byte slices of the decoded randint stream of
    Random(seed).  CPython's getrandbits(32 n) is n successive outputs, least
    significant first, so [3::4] of its little-endian bytes are their top bytes."""
    getrandbits, stream = random.Random(seed).getrandbits, b""
    while True:
        words = getrandbits(32 * _DRAW_WORDS).to_bytes(4 * _DRAW_WORDS, "little")
        stream += words[3::4].translate(_DECODE, _REJECTED)
        end = len(stream) - len(stream) % deg
        yield from (stream[i:i + deg] for i in range(0, end, deg))
        stream = stream[end:]


def discreteness_certificate(
    level: LevelContext, sample_size: int, seed: int = 0
) -> DiscretenessReport:
    """Sample random nonzero elements and certify phi(alpha_p) * norm^2 in Z >= 1.

    Integrality bounds every nonzero norm below by 1/phi(alpha_p), which
    is the discreteness statement.  Also tallies where the displayed
    closed form agrees with the exact trace value.

    Each numerator Tr(P * conjugate(P)) is checked against its sharp bound
    phi(alpha_p): by AM-GM over the phi conjugates |P_i|^2, the trace is at
    least phi * |N(P)|^(2/phi), and the norm N(P) of a nonzero P is a nonzero
    integer.  A numerator below it raises InvariantViolation, so every
    sample of a report that is returned passed integrality.

    The coefficients are rng.randint(-COEFF_BOUND, COEFF_BOUND) on CPython's
    Random in phi(alpha_p)-byte samples (_coefficient_slices), all-zero ones
    skipped; each is certified in integers, and no Fraction is built.
    """
    if sample_size < 1:
        raise UsageError("sample_size must be >= 1")
    deg = level.phi_alpha
    agree, least = 0, None
    nonzero = filter(bytes([COEFF_BOUND] * deg).__ne__, _coefficient_slices(seed, deg))
    for values in islice(nonzero, sample_size):
        squares = sum(values.translate(_SQUARES))
        numerator = _norm_numerator(values, squares, level.alpha_p, COEFF_BOUND)
        if numerator < deg:
            raise InvariantViolation(f"Tr(P * conjugate(P)) = {numerator} is below "
                                     f"phi(alpha_p) = {deg} at p = {level.p}")
        agree += numerator == deg * squares
        if least is None or numerator < least:
            least = numerator
    return DiscretenessReport(level.p, sample_size, seed, least, agree, sample_size - agree)

"""Exact arithmetic in rings of cyclotomic integers Z[A]/phi_N(A).

A value is a canonically reduced integer coefficient vector of length
phi(N); equality of values is equality of vectors.  Coefficients are
Python integers, so no overflow handling is needed.  A vector of at most
phi(N) coefficients is its own remainder; only longer ones are divided by
phi_N.  The field trace and phi_N read the Ramanujan weights of N.
The ring keeps only what the lattice oracle, the acceptance spec and the
traced benchmark read: reduce, *, conjugate, trace, is_zero and evaluate.
The module also provides the Galois embedding bookkeeping (EmbeddingIndex),
the three-valued Sign, and the pure integer sign function sin_sign that
underlies every exact sign evaluation in the package: quantum reads the sign
of [n] as sin_sign at the folded step of the embedding, directly or through
its residue table, and the sign of a product as the parity of its negative
factors.
"""

import enum
from collections import namedtuple
from functools import lru_cache
from math import gcd

from .context import ramanujan_weights, totient
from .errors import InvariantViolation, UsageError


class Sign(enum.Enum):
    """The sign of a real number."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


def sin_sign(m: int, p: int) -> Sign:
    """Exact sign of sin(2*pi*m/p), by pure integer arithmetic."""
    if p < 3:
        raise UsageError(f"p must be >= 3, got {p}")
    m = m % p
    if m == 0 or 2 * m == p:
        return Sign.ZERO
    return Sign.POSITIVE if 2 * m < p else Sign.NEGATIVE


def _poly_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials; den must be monic."""
    if den[-1] != 1:
        raise InvariantViolation(f"divisor polynomial {den} is not monic")
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c:
            quot[i - deg_d] = c
            for j, d in enumerate(den):
                num[i - deg_d + j] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    phi_n is the product of (X^e - 1)^sign(w) over ramanujan_weights(n): the
    binomials of positive w are multiplied, then the negative ones divided out.
    The lru_cache fill is idempotent, so concurrent initialization is safe.
    """
    if n < 1:
        raise UsageError("cyclotomic polynomial order must be positive")
    poly = [1]
    for e, w in sorted(ramanujan_weights(n), key=lambda pair: pair[1] < 0):
        if w > 0:
            poly = [a - b for a, b in zip([0] * e + poly, poly + [0] * e)]
        else:
            poly, rem = _poly_divmod(poly, (-1,) + (0,) * (e - 1) + (1,))
            if rem != [0]:
                raise InvariantViolation(f"X^{e} - 1 does not divide phi_{n} cleanly")
    return tuple(poly)


class CyclotomicInteger(namedtuple("CyclotomicInteger", "order coeffs")):
    """A canonical residue in Z[A]/phi_N(A); coeffs[j] is the coefficient of A^j."""

    __slots__ = ()

    def __new__(cls, order: int, coeffs: tuple[int, ...]):
        if len(coeffs) != totient(order):
            raise InvariantViolation(
                f"{len(coeffs)} coefficients for order {order}, "
                f"expected phi({order}) = {totient(order)}"
            )
        return super().__new__(cls, order, coeffs)

    def __mul__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        if self.order != other.order:
            raise UsageError(f"mismatched cyclotomic orders {self.order} and {other.order}")
        prod = [0] * (2 * len(self.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        return reduce(prod, self.order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def conjugate(self) -> "CyclotomicInteger":
        """Image under the involution A -> A^(-1)."""
        raw = [0] * self.order
        for j, c in enumerate(self.coeffs):
            raw[(-j) % self.order] += c
        return reduce(raw, self.order)

    def trace(self) -> int:
        """Field trace down to the rationals: sum of all Galois conjugates.

        Tr(A^m) sums the w of ramanujan_weights(N) with e | m: sum w * sum(coeffs[::e]).
        """
        return sum(w * sum(self.coeffs[::e]) for e, w in ramanujan_weights(self.order))

    def evaluate(self, z: complex) -> complex:
        """Numeric value at a chosen root A = z (float oracle support)."""
        result = 0j
        for c in reversed(self.coeffs):
            result = result * z + c
        return result


def reduce(raw_coeffs, order: int) -> CyclotomicInteger:
    """Canonical residue of sum(raw_coeffs[j] * A^j) modulo phi_order(A)."""
    if order < 3:
        raise UsageError(f"order must be >= 3, got {order}")
    rem = list(raw_coeffs)
    deg = totient(order)
    if len(rem) > deg:
        _, rem = _poly_divmod(rem, cyclotomic_polynomial(order))
    return CyclotomicInteger(order, tuple(rem + [0] * (deg - len(rem))))


class EmbeddingIndex(namedtuple("EmbeddingIndex", "k p")):
    """A choice of primitive 2p-th root of unity A = exp(i*pi*k/p).

    Canonical representatives have k <= p; the conjugate embedding 2p - k
    yields identical signs for every real quantity, so only canonical ones
    are enumerated.  Non-canonical k are still accepted (used to check
    conjugation invariance directly).

    A quantum integer [m] = sin(2 pi m k / p) / sin(2 pi k / p) depends only
    on k mod p and takes the same value at k and p - k, where both sines
    change sign; so its sign is read at the folded step
    s = min(k mod p, -k mod p), where sin(2 pi s / p) > 0.
    """

    __slots__ = ()

    def __new__(cls, k: int, p: int):
        if not 1 <= k <= 2 * p - 1 or gcd(k, 2 * p) != 1:
            raise UsageError(f"k = {k} is not a valid embedding index for p = {p}")
        return super().__new__(cls, k, p)


def embedding_ks(p: int) -> tuple[int, ...]:
    """The canonical k <= p with gcd(k, 2p) = 1, ascending, read by
    embeddings() and by the sign matrix of a torus report."""
    return tuple(k for k in range(1, p + 1) if gcd(k, 2 * p) == 1)


def embeddings(p: int) -> list[EmbeddingIndex]:
    """All canonical embedding indices k <= p with gcd(k, 2p) = 1, ascending."""
    return [EmbeddingIndex(k, p) for k in embedding_ks(p)]

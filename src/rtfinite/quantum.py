"""Quantum integers and their relatives, as exact factored symbols.

The quantum integer [n] = (A^2n - A^-2n)/(A^2 - A^-2) evaluates to
sin(2*pi*n*k/p)/sin(2*pi*k/p) at the embedding A = exp(i*pi*k/p).  Every
Gram ratio here is a product of powers of quantum integers, so sign
evaluation at an embedding is exact and division-free.
"""

from collections import Counter
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cyclotomic import EmbeddingIndex, Sign, sin_sign
from .errors import InvariantViolation, UsageError


class QuantumFactored(NamedTuple):
    """A formal product prod [n]^e_n of quantum integers.

    factors is sorted by n descending; [1] (the multiplicative unit) and
    zero exponents are never stored, so equal symbols have equal
    representations.
    """

    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_factors(cls, factors) -> "QuantumFactored":
        """Canonical symbol from (n, e) pairs; exponents of a repeated n add up."""
        merged: dict[int, int] = {}
        for n, e in factors:
            if n == 1 or e == 0:
                continue
            if n < 1:
                raise UsageError(f"quantum integer index must be positive, got {n}")
            merged[n] = merged.get(n, 0) + e
        return cls(tuple(sorted(((n, e) for n, e in merged.items() if e), reverse=True)))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def __mul__(self, other: "QuantumFactored") -> "QuantumFactored":
        return QuantumFactored.from_factors(self.factors + other.factors)

    def __truediv__(self, other: "QuantumFactored") -> "QuantumFactored":
        return self * other ** -1

    def __pow__(self, e: int) -> "QuantumFactored":
        return QuantumFactored.from_factors((n, k * e) for n, k in self.factors)

    def __str__(self) -> str:
        num = "".join(
            f"[{n}]" if e == 1 else f"[{n}]^{e}" for n, e in self.factors if e > 0
        ) or "1"
        den = "".join(
            f"[{n}]" if e == -1 else f"[{n}]^{-e}" for n, e in self.factors if e < 0
        )
        return f"{num}/({den})" if den else num

    def evaluate(self, emb: EmbeddingIndex) -> float:
        """Float value at the embedding (oracle support, not used in verdicts)."""
        import math

        s1 = math.sin(2 * math.pi * emb.k / emb.p)
        return math.prod(((math.sin(2 * math.pi * n * emb.k / emb.p) / s1) ** e
                          for n, e in self.factors), start=1.0)


def qint(n: int) -> QuantumFactored:
    """The symbol [n], n >= 1; [1] is the unit."""
    return QuantumFactored.from_factors(((n, 1),))


@lru_cache(maxsize=None)
def qfactorial(n: int) -> QuantumFactored:
    """The quantum factorial [n]! = [n][n-1]...[1]."""
    return QuantumFactored(tuple((m, 1) for m in range(n, 1, -1)))


def qfactorial_ratio(num, den) -> QuantumFactored:
    """prod [n]! over n in num divided by prod [n]! over n in den.

    The exponent of [m] is #{n in num : n >= m} - #{n in den : n >= m}, a
    step function of m that changes only at the given n.  Walking those
    breakpoints downward emits each run of nonzero exponents directly, in
    canonical order (m descending, [1] and zero exponents left out).
    """
    steps = Counter(num)
    steps.subtract(den)
    points = sorted((n for n in steps if n > 1), reverse=True)
    factors = []
    exponent = 0
    for top, bottom in zip(points, points[1:] + [1]):
        exponent += steps[top]
        if exponent:
            factors.extend((m, exponent) for m in range(top, bottom, -1))
    return QuantumFactored(tuple(factors))


_TILE_LAPS = 64


@lru_cache(maxsize=1)
def _residue_tile(p: int) -> bytes:
    """Byte i is the digit 1 when sin(2 pi i / p) < 0, and the digit 0
    otherwise, 0 <= i < _TILE_LAPS * p: sin_sign's rule, negative exactly when
    p/2 < i mod p < p.  Byte i is the digit of i mod p: the rule below as a
    table, for the strided slices of qint_sign_values, its one reader.

    [m] at k is [m] at the folded step s = min(k mod p, -k mod p), since both
    sines of sin(2 pi m k / p) / sin(2 pi k / p) change sign under k -> -k, and
    sin(2 pi s / p) > 0; so [m] < 0 at k exactly when floor(2ms/p) is odd.
    """
    return (b"0" * (p // 2 + 1) + b"1" * (p - 1 - p // 2)) * _TILE_LAPS


def qint_product_negative(p: int, k: int, ms) -> int:
    """1 when the product of the [m], m in ms, is negative at k, and 0 when it
    is positive: the parity of the sum of floor(2ms/p) over m in ms, s the
    folded step, which is _residue_tile's rule read in integers, with no
    table.  No [m] may vanish at k: m*k must not be 0 or p/2 (mod p).
    """
    step = 2 * min(k % p, -k % p)
    parity = 0
    for m in ms:
        parity ^= m * step // p
    return parity & 1


@lru_cache(maxsize=4096)
def qint_sign_values(p: int, k: int) -> int:
    """The parity mask at k: bit n is #{1 <= m <= n : [m] < 0} mod 2, n < r,
    where r is p for odd p and p/2 for even p.

    A ratio of quantum factorials with no vanishing factor has the sign
    (-1)^(signed sum of those counts at its indices).  Raises
    InvariantViolation when r divides k, the only k where some [m], m < r,
    vanishes.

    The digits of [m] < 0 for a run of m are one strided slice of the
    _TILE_LAPS * p bytes of _residue_tile at m*s, s the folded step, shifted
    down by a multiple of p; a run spans fewer than _TILE_LAPS laps of p.

    The cache keeps the 4096 most recently used masks, every embedding of a
    level up to r = 4097, and is how callers share a mask: the level walk of
    positivity._torus_verdicts asks for (p, k) once per open color in turn,
    so the first color builds it and the rest hit it.  A torus report's
    sign_matrix, verify-theorem's designated witnesses and decide_torus per
    color read the same masks again.
    """
    n_max = (p if p % 2 else p // 2) - 1
    step = min(k % p, -k % p)
    # [m] vanishes when p divides 2mk, first at m = p / gcd(2k, p)
    first_zero = p // gcd(2 * step, p)
    if n_max >= first_zero:
        raise InvariantViolation(f"[{first_zero}] vanishes at k={k}, p={p}, inside 1..{n_max}")
    # the digit of [m] < 0 at bit m, m = n_max down to 1, then bit 0; prefix
    # XOR then makes bit n the parity of bits 1..n.  The slice of m in
    # (low, high] stops at low*s - base >= 0, as a negative stop would wrap
    tile = _residue_tile(p)
    chunk = (_TILE_LAPS - 1) * p // step
    pieces = []
    for high in range(n_max, 0, -chunk):
        low = max(high - chunk, 0)
        base = low * step - low * step % p
        pieces.append(tile[high * step - base:low * step - base:-step])
    b = int(b"".join(pieces) + b"0", 2)
    for i in range(n_max.bit_length()):
        b ^= b << (1 << i)
    return b & ((2 << n_max) - 1)


def eval_sign(x: QuantumFactored, emb: EmbeddingIndex) -> Sign:
    """Sign of a factored symbol at an embedding: the parity of the
    odd-exponent factors [n] < 0, the rule of the parity masks.

    [n] < 0 when sin_sign(n*s, p) is negative at the folded step s of
    _residue_tile.  A vanishing numerator factor makes the sign ZERO;
    a vanishing denominator factor raises InvariantViolation, which ratios
    built from admissible data never do.
    """
    parity = 0
    step = min(emb.k % emb.p, -emb.k % emb.p)
    zero_in_numerator = False
    for n, e in x.factors:
        s = sin_sign(n * step, emb.p)
        if s is Sign.ZERO:
            if e < 0:
                raise InvariantViolation(
                    f"[{n}] vanishes at k={emb.k}, p={emb.p}, in a denominator"
                )
            zero_in_numerator = True
        elif s is Sign.NEGATIVE:
            parity ^= e & 1
    if zero_in_numerator:
        return Sign.ZERO
    return Sign.NEGATIVE if parity else Sign.POSITIVE


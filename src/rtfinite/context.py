"""Level bookkeeping and the elementary number theory it rests on.

A *level* is an integer p with p = r or p = 2r for an odd prime r.  A
LevelContext stores only the pair (p, r); the auxiliary order alpha_p of the
lattice machinery, its totient phi(alpha_p) and the valid edge colors are
derived from that pair when read.
"""

from functools import lru_cache
from typing import NamedTuple

from .errors import UsageError

# Miller-Rabin with the first 13 prime bases is exact for n < 3.3 * 10^24
# (Sorenson and Webster, Math. Comp. 86 (2017)); above that it is a strong
# probable-prime test.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def isprime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primerange(a: int, b: int):
    """The primes q with a <= q < b, ascending, generated lazily."""
    return (n for n in range(max(a, 2), b) if isprime(n))


def _factorize(n: int) -> list[int]:
    """The distinct primes of n >= 1 by trial division, ascending.

    Trial division stops as soon as the cofactor is prime, so n = 4r with a
    large prime r (an alpha_p) costs two divisions and two primality tests,
    of 4r and then of r.
    """
    primes = []
    q = 2
    prime_cofactor = isprime(n)
    while q * q <= n and not prime_cofactor:
        if n % q == 0:
            while n % q == 0:
                n //= q
            primes.append(q)
            prime_cofactor = isprime(n)
        q += 1 if q == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def ramanujan_weights(n: int) -> tuple[tuple[int, int], ...]:
    """(e, e * mu(n/e)) for the divisors e of n >= 1 with mu(n/e) != 0, e ascending.

    From (n, n), each prime q of n adds (e/q, -w/q) for each pair (e, w) so far.
    Tr(A^m) in Q(zeta_n) sums the w whose e divides m, so phi(n) = Tr(1) sums all w.
    """
    pairs = [(n, n)]
    for q in _factorize(n):
        pairs += [(e // q, -w // q) for e, w in pairs]
    return tuple(sorted(pairs))


def totient(n: int) -> int:
    """Euler's phi(n) for n >= 1, the sum of the weights of ramanujan_weights(n)."""
    return sum(w for _, w in ramanujan_weights(n))


def level_prime(p: int) -> int:
    """Return the odd prime r with p = r or p = 2r, or raise UsageError."""
    if p >= 3 and p % 2 == 1 and isprime(p):
        return p
    if p % 2 == 0 and p // 2 >= 3 and isprime(p // 2):
        return p // 2
    raise UsageError(f"p = {p} is not r or 2r for an odd prime r")


class LevelContext(NamedTuple):
    """A level, stored as its defining pair (p, r) with p = r or p = 2r.

    alpha_p, phi(alpha_p) and the colors are computed from p and r when read,
    so two contexts of one level compare and hash equal.
    """

    p: int
    r: int

    @classmethod
    def at(cls, p: int) -> "LevelContext":
        return cls(p, level_prime(p))

    @property
    def is_even_level(self) -> bool:
        return self.p == 2 * self.r

    @property
    def alpha_p(self) -> int:
        """The order of the lattice ring: p itself when p = 3 (mod 4), otherwise 4r."""
        return self.p if self.p % 4 == 3 else 4 * self.r

    @property
    def phi_alpha(self) -> int:
        return totient(self.alpha_p)

    @property
    def colors(self) -> range:
        """The edge colors: 0 .. r - 2 at p = 2r, the even ones below p - 2 at p = r."""
        return range(self.r - 1) if self.is_even_level else range(0, self.p - 2, 2)

"""Colored-graph bases and their exact Gram-norm ratios.

Two families are implemented: lollipop bases of the one-holed torus
(stick colored 2c, loop colored i+c) and theta-graph colorings in genus
two.  Only ratios of diagonal norms are ever produced; the bases are
orthogonal and absolute norms are never needed.
"""

from itertools import product

from .context import LevelContext
from .errors import UsageError
from .quantum import QuantumFactored, qfactorial_ratio


def is_admissible(level: LevelContext, a: int, b: int, c: int) -> bool:
    """Parity, triangle inequality and the level bound on a+b+c."""
    if any(x not in level.colors for x in (a, b, c)):
        return False
    if (a + b + c) % 2 or abs(a - b) > c or c > a + b:
        return False
    return a + b + c <= 2 * level.r - 4  # at p = r, 2p - 4 is the same bound


def admissible_triples(level: LevelContext) -> list[tuple[int, int, int]]:
    """All admissible (a, b, c) over the color set, lexicographic."""
    return [t for t in product(level.colors, repeat=3) if is_admissible(level, *t)]


def _check_lollipop_color(level: LevelContext, c: int):
    if c < 0 or 2 * c > level.r - 2:
        raise UsageError(f"boundary half-color c = {c} out of range for r = {level.r}")


def lollipop_ratio_step(level: LevelContext, c: int, i: int) -> QuantumFactored:
    """<u_{i+1}, u_{i+1}> / <u_i, u_i> = [2c+i+2][i+1] / ([c+i+2][c+i+1])."""
    _check_lollipop_color(level, c)
    if not 0 <= i <= level.r - 3 - 2 * c:
        raise UsageError(f"step index i = {i} out of range for r = {level.r}, c = {c}")
    factors = ((2 * c + i + 2, 1), (i + 1, 1), (c + i + 2, -1), (c + i + 1, -1))
    return QuantumFactored.from_factors(factors)


def lollipop_ratio_two_step(level: LevelContext, c: int, i: int) -> QuantumFactored:
    """<u_{i+2}, u_{i+2}> / <u_i, u_i>, as displayed:

    [2c+i+3][2c+i+2][i+2][i+1] / ([c+i+1][c+i+3][c+i+2]^2)

    Canonically equal to the product of the two intermediate one-steps.
    """
    _check_lollipop_color(level, c)
    if not 0 <= i <= level.r - 4 - 2 * c:
        raise UsageError(
            f"two-step index i = {i} out of range for r = {level.r}, c = {c}"
        )
    factors = ((2 * c + i + 3, 1), (2 * c + i + 2, 1), (i + 2, 1), (i + 1, 1),
               (c + i + 1, -1), (c + i + 3, -1), (c + i + 2, -2))
    return QuantumFactored.from_factors(factors)


def lollipop_ratio_cumulative(level: LevelContext, c: int, j: int) -> QuantumFactored:
    """<u_j, u_j> / <u_0, u_0>, the product of the first j one-step ratios.

    The product telescopes to
    [2c+j+1]! [j]! [c+1]! [c]! / ([2c+1]! [c+j+1]! [c+j]!).
    """
    _check_lollipop_color(level, c)
    if not 1 <= j <= level.r - 2 - 2 * c:
        raise UsageError(f"index j = {j} out of range for r = {level.r}, c = {c}")
    return qfactorial_ratio((2 * c + j + 1, j, c + 1, c), (2 * c + 1, c + j + 1, c + j))


def theta_norm_ratio(level: LevelContext, t: tuple[int, int, int]) -> QuantumFactored:
    """Norm of the genus-2 theta-graph vector u_{a,b,c} relative to u_{0,0,0}.

    With s = (a+b+c)/2, theta(a,b,c) = (-1)^s [s+1]![s-a]![s-b]![s-c]! /
    ([a]![b]![c]!) and <n> = (-1)^n [n+1]!/[n]!, so theta / (<a><b><c>) is
    (-1)^s times the factorial ratio of num = (s+1, s-a, s-b, s-c) over
    den = (a+1, b+1, c+1), and theta^2 / (<a><b><c>) is the ratio of num
    twice over den + (a, b, c).  The normalization is pinned by the level's
    own printed anchor values (see the decide_closed witnesses), not
    derived: even levels take theta^2 / (<a><b><c>), odd levels
    theta / (<a><b><c>) without its sign.
    """
    a, b, c = t
    if not is_admissible(level, a, b, c):
        raise UsageError(f"({a},{b},{c}) is not {level.p}-admissible")
    s = (a + b + c) // 2
    num = (s + 1, s - a, s - b, s - c)
    den = (a + 1, b + 1, c + 1)
    if level.is_even_level:
        return qfactorial_ratio(num * 2, den + (a, b, c))
    return qfactorial_ratio(num, den)

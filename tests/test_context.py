import sympy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfinite import context
from rtfinite.context import (
    LevelContext,
    isprime,
    level_prime,
    primerange,
    ramanujan_weights,
    totient,
)
from rtfinite.errors import UsageError

# sympy is the test-only oracle for the stdlib number theory.
N = st.integers(1, 10**4)


def sympy_weights(n):
    """(e, e * mu(n/e)) for the divisors e of n with mu(n/e) != 0, from sympy."""
    return tuple((e, e * int(sympy.mobius(n // e))) for e in sympy.divisors(n)
                 if sympy.mobius(n // e))


class TestAgainstSympy:
    @given(N)
    @settings(max_examples=400, deadline=None)
    def test_totient(self, n):
        assert totient(n) == int(sympy.totient(n))

    @given(N)
    @settings(max_examples=400, deadline=None)
    def test_mobius(self, n):
        # every weight of the table is e * mu(n/e), and no nonzero one is missing
        assert ramanujan_weights(n) == sympy_weights(n)

    @given(N)
    @settings(max_examples=400, deadline=None)
    def test_divisors(self, n):
        # the table lists exactly the divisors e of n with n/e squarefree
        assert [e for e, _ in ramanujan_weights(n)] == [
            e for e in sympy.divisors(n) if sympy.mobius(n // e)]

    @given(st.integers(0, 10**4), st.integers(0, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_primerange(self, a, b):
        assert list(primerange(a, b)) == list(sympy.primerange(a, b))

    @pytest.mark.parametrize(
        "n", [2**61 - 1, 4 * (2**61 - 1), 12 * (2**61 - 1), 9 * 7919 * (2**31 - 1)]
    )
    def test_large_prime_cofactor(self, n):
        # trial division stops at the prime cofactor
        assert totient(n) == int(sympy.totient(n))
        assert ramanujan_weights(n) == sympy_weights(n)

    def test_isprime_exhaustive_below_bound(self):
        assert [n for n in range(-5, 10**4 + 1) if isprime(n)] == list(
            sympy.primerange(0, 10**4 + 1)
        )


class TestIsPrimeLarge:
    @pytest.mark.parametrize(
        "n",
        [
            2**61 - 1,
            2**89 - 1,
            # strong pseudoprime to the bases 2 .. 37 (the first 12 primes);
            # base 41 exposes it
            318665857834031151167461,
            3825123056546413051,
            561,
            2**61 + 1,
            (2**31 - 1) * (2**61 - 1),
        ],
    )
    def test_agrees_with_sympy(self, n):
        assert isprime(n) == sympy.isprime(n)


class TestLevelContext:
    @pytest.mark.parametrize("p", [3, 5, 6, 7, 10, 13, 14, 26, 43, 83, 86, 998])
    def test_phi_alpha_is_totient_of_alpha(self, p):
        level = LevelContext.at(p)
        assert level.phi_alpha == int(sympy.totient(level.alpha_p))

    def test_huge_level_is_fast_and_lazy(self):
        # only validation and bookkeeping: no decision runs at this size
        r = 2**61 - 1
        level = LevelContext.at(2 * r)
        assert level.r == r
        assert level.alpha_p == 4 * r
        assert level.phi_alpha == 2 * (r - 1)
        assert len(level.colors) == r - 1
        assert r - 2 in level.colors and r - 1 not in level.colors
        # p = r = 3 (mod 4): alpha_p = r itself, so totient meets a large prime
        assert LevelContext.at(r).phi_alpha == r - 1

    def test_at_is_a_classmethod(self):
        assert isinstance(vars(LevelContext)["at"], classmethod)
        assert LevelContext.at(22) == LevelContext.at(22)
        assert hash(LevelContext.at(22)) == hash(LevelContext.at(22))
        with pytest.raises(UsageError):
            LevelContext.at(9)

    def test_a_level_stores_its_pair(self):
        assert LevelContext._fields == ("p", "r")
        assert LevelContext.at(22) == (22, 11)
        assert not hasattr(context, "_level_context")

    def test_a_new_level_tests_r_once(self, monkeypatch):
        # level_prime tests r = 151 once; reading phi(alpha_p), the sum of
        # ramanujan_weights(4r), then tests 604 and its cofactor 151
        calls = []

        def record(n):
            calls.append(n)
            return isprime(n)

        monkeypatch.setattr(context, "isprime", record)
        level = LevelContext.at(302)
        assert calls == [151]
        ramanujan_weights.cache_clear()
        assert level.phi_alpha == 300
        assert calls == [151, 604, 151]

    @pytest.mark.parametrize("p", [2**61 - 1 + 2, 2 * (2**61 + 1), 2 * 561])
    def test_huge_non_level_rejected(self, p):
        with pytest.raises(UsageError):
            level_prime(p)

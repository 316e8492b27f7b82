from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps import arith
from orthoreps.arith import (
    BoundInputs,
    compute_M,
    factorize,
    find_prime_pairs,
    has_order,
    is_prime,
    multiplicative_order,
)
from orthoreps.induced import TameParameters


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-3, 50):
            assert is_prime(n) == (n in primes)

    def test_carmichael_and_large(self):
        assert not is_prime(561)
        assert not is_prime(341550071728321)
        assert is_prime(1000033)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 10**6))
    def test_matches_trial_division(self, n):
        naive = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == naive


class TestFactorize:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**9))
    def test_reconstructs(self, n):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


class TestComputeM:
    def test_n10(self):
        assert compute_M(BoundInputs(10, 1, 1)) == 4_790_016_000_001

    def test_n2(self):
        assert compute_M(BoundInputs(2, 1, 1)) == 385

    def test_n16_two_power_clause(self):
        # for n = 2^f, M must exceed every prime of 2 prod_{i<=f}(2^(2i) - 1);
        # those primes are below 2^(2f) = n^2, so n^4 (n+2)! already does
        for f in range(1, 13):
            n = 2**f
            M = compute_M(BoundInputs(n, 1, 1))
            assert M == n**4 * factorial(n + 2) + 1
            primes = {2}
            for i in range(1, f + 1):
                primes |= set(factorize(2 ** (2 * i) - 1))
            if n == 16:
                assert primes == {2, 3, 5, 7, 17}
            assert all(M > q for q in primes)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6).map(lambda h: 2 * h), st.integers(1, 4), st.integers(1, 10**9))
    def test_dominates_everything(self, n, k, N):
        M = compute_M(BoundInputs(n, k, N))
        assert M > n**4 * factorial(n + 2)
        assert M > N
        assert M > k * factorial(n) + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(5, 1, 1)
        with pytest.raises(ValueError):
            BoundInputs(4, 0, 1)


class TestOrder:
    def test_examples(self):
        assert multiplicative_order(1, 7) == 1
        assert multiplicative_order(3, 5) == 4
        assert multiplicative_order(2, 13) == 12

    def test_errors(self):
        with pytest.raises(ValueError):
            multiplicative_order(3, 8)
        with pytest.raises(ValueError):
            multiplicative_order(26, 13)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 13, 101, 1009]), st.integers(2, 5000))
    def test_order_divides_group_order(self, p, t):
        if t % p == 0:
            t += 1
        d = multiplicative_order(t, p)
        assert (p - 1) % d == 0
        assert pow(t, d, p) == 1
        assert all(pow(t, d // q, p) != 1 for q in factorize(d))
        assert [e for e in range(1, p) if has_order(t, e, p)] == [d]


class TestExactOrder:
    def test_order_checks_never_factor_p_minus_1(self, monkeypatch):
        (pair,) = find_prime_pairs(10, compute_M(BoundInputs(10, 1, 1)), count=1).pairs
        p, t = pair.p, pair.t
        assert all(vars(pair.checks).values())
        factor = arith.factorize

        def small_only(m):
            if m > 10**6:
                raise AssertionError(f"factorize({m}) called")
            return factor(m)

        monkeypatch.setattr(arith, "factorize", small_only)
        assert has_order(t, 10, p)
        lam = next(k * p + 1 for k in range(2, 10**4, 2) if is_prime(k * p + 1))
        params = TameParameters(p, t, 10, lam)
        assert params.t == t
        zeta = params.zeta  # lambda < p^2: the least of order p, found by a scan of about lam/p
        assert pow(zeta, p, lam) == 1 != zeta
        assert all(pow(z, p, lam) != 1 for z in range(2, zeta))
        assert pow(3, 10, p) != 1  # so 3 does not have order 10 mod p
        with pytest.raises(ValueError, match="order"):
            TameParameters(p, 3, 10, lam)


class TestPairSearch:
    def test_first_pair_n4(self):
        result = find_prime_pairs(4, 2, count=1)
        assert [(p.p, p.t) for p in result.pairs] == [(5, 3)]
        assert not result.exhausted

    def test_scan_order_n4(self):
        result = find_prime_pairs(4, 2, count=3)
        assert [(p.p, p.t) for p in result.pairs] == [(5, 3), (5, 7), (5, 13)]

    def test_first_pair_n12(self):
        # t = 3, 5 have orders 3 and 4 mod 13; the first odd prime of full
        # order above the floor is 7
        result = find_prime_pairs(12, 2, count=2)
        assert [(p.p, p.t) for p in result.pairs] == [(13, 7), (13, 11)]

    def test_all_checks_recorded_true(self):
        result = find_prime_pairs(12, 2, count=1)
        checks = result.pairs[0].checks
        assert checks.p_is_prime and checks.t_is_prime
        assert checks.p_1_mod_n and checks.p_greater_M and checks.t_greater_M
        assert checks.order_of_t_is_n and checks.t_half_power_is_minus_one
        assert "L0_splitting" not in vars(checks)

    def test_large_floor(self):
        result = find_prime_pairs(4, 10**6, count=1)
        (pair,) = result.pairs
        assert pair.p > 10**6 and pair.t > 10**6
        assert pair.p % 4 == 1
        assert multiplicative_order(pair.t, pair.p) == 4
        assert pow(pair.t, 2, pair.p) == pair.p - 1

    def test_search_limit_partial(self):
        result = find_prime_pairs(4, 2, count=50, search_limit=100)
        assert result.exhausted
        assert 0 < len(result.pairs) < 50
        for pair in result.pairs:
            assert pair.p <= 100 and pair.t <= 100

    def test_order_forces_half_power(self):
        # consistency of the two recorded conditions on every found pair
        for n in (4, 6, 10):
            result = find_prime_pairs(n, 2, count=3)
            for pair in result.pairs:
                assert multiplicative_order(pair.t, pair.p) == n
                assert pow(pair.t, n // 2, pair.p) == pair.p - 1

    def test_any_false_check_raises_and_is_named(self, monkeypatch):
        monkeypatch.setattr(arith, "has_order", lambda t, n, p: False)
        with pytest.raises(AssertionError, match=r"fails order_of_t_is_n$"):
            find_prime_pairs(4, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_prime_pairs(5, 2)
        with pytest.raises(ValueError):
            find_prime_pairs(4, 0)
        with pytest.raises(ValueError):
            find_prime_pairs(4, 2, count=0)

    @pytest.mark.parametrize("M, limit", [(2, -5), (2, 0), (2, 2), (100, 50)])
    def test_search_limit_at_or_below_M_rejected(self, M, limit):
        with pytest.raises(ValueError, match=f"search limit must exceed M = {M}, got {limit}$"):
            find_prime_pairs(4, M, search_limit=limit)

    def test_pairs_are_odd_primes_above_floor(self):
        result = find_prime_pairs(6, 10, count=3)
        for pair in result.pairs:
            assert pair.p > 10 and pair.t > 10
            assert pair.p % 2 == 1 and pair.t % 2 == 1
            assert pair.p != pair.t

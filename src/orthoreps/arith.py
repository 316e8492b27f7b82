"""Big-integer bound computation and the prime-pair search.

The bound M majorizes n^4 (n+2)!, the conductor bound, k n! + 1, and (for
two-power n) every prime dividing 2 prod(2^{2i} - 1).  The pair search
walks primes p = 1 (mod n) upward and, for each p, walks primes t upward
inside the residue classes mod p whose multiplicative order is exactly n;
this visits exactly the same (p, t) in exactly the same order as a naive
ascending scan, just without testing hopeless t.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd
from typing import Iterator

# Below this threshold the fixed Miller-Rabin base set is a proven
# deterministic primality test; above it the same bases plus additional
# fixed bases form a strong probable-prime battery.
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)

PRIMALITY_POLICY = (
    "Miller-Rabin with bases 2..37 (deterministic below 3.3e24); "
    "fixed extra bases 41..101 as a strong probable-prime battery above"
)

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_DETERMINISTIC_LIMIT else _MR_BASES + _MR_EXTRA_BASES
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Floyd's cycle detection: x steps once, y twice)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; deterministic."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        d = _pollard_rho(v)
        stack += [d, v // d]
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the bound M: dimension n, inertia-weight bound k, conductor bound N."""

    n: int
    k: int
    N: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        if self.k < 1 or self.N < 1:
            raise ValueError("k and N must be positive")


def compute_M(inputs: BoundInputs) -> int:
    """Smallest integer exceeding all the quantities the bound must dominate."""
    n, k, N = inputs.n, inputs.k, inputs.N
    # For n = 2^f, M must also exceed the primes of 2 prod_{i<=f}(2^(2i) - 1); each
    # is below 2^(2f) = n^2 < n^4 (n+2)!, so that clause never raises M.
    return max(n**4 * factorial(n + 2), N, k * factorial(n) + 1) + 1


def multiplicative_order(t: int, p: int) -> int:
    """Least d >= 1 with t^d = 1 (mod p), by factoring p - 1 and descending."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if t % p == 0:
        raise ValueError(f"t={t} is divisible by p={p}; no multiplicative order")
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(t, order // q, p) == 1:
            order //= q
    return order


def has_order(t: int, n: int, p: int) -> bool:
    """True iff t has multiplicative order exactly n mod p.

    Needs only the prime divisors of n, never a factorization of p - 1.
    """
    if pow(t, n, p) != 1:
        return False
    return all(pow(t, n // q, p) != 1 for q in factorize(n))


@dataclass(frozen=True)
class PairChecks:
    p_is_prime: bool
    t_is_prime: bool
    p_1_mod_n: bool
    p_greater_M: bool
    t_greater_M: bool
    order_of_t_is_n: bool
    t_half_power_is_minus_one: bool


@dataclass(frozen=True)
class PrimePair:
    p: int
    t: int
    n: int
    M: int
    checks: PairChecks


@dataclass(frozen=True)
class PairSearchResult:
    n: int
    M: int
    pairs: tuple[PrimePair, ...]
    exhausted: bool


def _primes_1_mod_n(n: int, M: int, limit: int | None) -> Iterator[int]:
    p = M + 1 + ((1 - (M + 1)) % n)  # smallest p = 1 (mod n) with p > M
    while limit is None or p <= limit:
        if is_prime(p):
            yield p
        p += n


def _smallest_primitive_root(p: int) -> int:
    qs = tuple(factorize(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def _order_n_residues(n: int, p: int) -> list[int]:
    """The residues of order exactly n mod p, ascending.

    Powers of the least primitive root; finding it factors p - 1, which
    stalls on some full-strength searches (n = 34, 38, 40, ...).
    """
    g = _smallest_primitive_root(p)
    step = (p - 1) // n
    return sorted(pow(g, j * step, p) for j in range(1, n) if gcd(j, n) == 1)


def find_prime_pairs(
    n: int,
    M: int,
    count: int = 1,
    search_limit: int | None = None,
) -> PairSearchResult:
    """Up to `count` odd prime pairs (p, t) with p = 1 (mod n), p, t > M,
    and t of multiplicative order exactly n mod p.

    Order-n residues force t^(n/2) = -1 (mod p); every field of PairChecks
    is still computed independently on each pair, and any False one raises.
    The scan is by increasing p, then increasing t, so results are
    deterministic; when search_limit caps the scanned values the result may
    be partial and is flagged exhausted.  A search_limit <= M leaves no t to
    scan, so it is refused.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if search_limit is not None and search_limit <= M:
        raise ValueError(f"search limit must exceed M = {M}, got {search_limit}")
    pairs: list[PrimePair] = []
    exhausted = search_limit is not None
    for p in _primes_1_mod_n(n, M, search_limit):
        residues = _order_n_residues(n, p)
        k = 0
        while search_limit is None or k * p <= search_limit:
            for r in residues:
                t = k * p + r
                if t <= M or (search_limit is not None and t > search_limit):
                    continue
                if t % 2 == 0 or not is_prime(t):
                    continue
                checks = PairChecks(
                    p_is_prime=is_prime(p),
                    t_is_prime=is_prime(t),
                    p_1_mod_n=p % n == 1,
                    p_greater_M=p > M,
                    t_greater_M=t > M,
                    order_of_t_is_n=has_order(t, n, p),
                    t_half_power_is_minus_one=pow(t, n // 2, p) == p - 1,
                )
                failed = [name for name, ok in vars(checks).items() if not ok]
                if failed:
                    raise AssertionError(f"pair p={p}, t={t} fails {', '.join(failed)}")
                pairs.append(PrimePair(p=p, t=t, n=n, M=M, checks=checks))
                if len(pairs) == count:
                    return PairSearchResult(n, M, tuple(pairs), exhausted=False)
            k += 1
    return PairSearchResult(n, M, tuple(pairs), exhausted=exhausted)


def pair_json(pair: PrimePair) -> dict:
    return {
        "p": str(pair.p),
        "t": str(pair.t),
        "checks": vars(pair.checks),
    }


def search_json(result: PairSearchResult, m_mode: str) -> dict:
    return {
        "n": result.n,
        "M": str(result.M),
        "M_mode": m_mode,
        "pairs": [pair_json(p) for p in result.pairs],
        "exhausted": result.exhausted,
        "primality_policy": PRIMALITY_POLICY,
    }

"""Explicit matrix model of the induced local representation on the tame quotient.

The representation is supported on the quotient generated by a Frobenius
element phi and a tame generator tau with the single relation
phi tau phi^{-1} = tau^t.  Inducing an order-p character of the degree-n
unramified level gives a monomial model: tau acts by the diagonal matrix
with entries zeta^(t^i mod p) and phi by the cyclic shift.  Matrices live
over a prime field F_lambda with lambda = 1 (mod p) so all arithmetic is
exact; the invariant symmetric form pairs coordinate i with i + n/2, which
is forced by t^(n/2) = -1 (mod p).  tau, phi and the Gram matrix are held
in monomial form (a permutation and one coefficient per column) as Python
ints, so lambda has no size limit and no verdict can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arith import factorize, has_order, is_prime


@dataclass(frozen=True)
class TameParameters:
    """Arithmetic data of the induction: character order p, residue
    characteristic t, degree n, coefficient field size lambda (when omitted,
    the smallest odd prime = 1 mod p), and zeta, the smallest element of
    exact multiplicative order p in F_lambda.  p, t, n and a given lambda are
    checked before either search, and a ValueError names the first failure."""

    p: int
    t: int
    n: int
    lam: int | None = None  # set to the default lambda when omitted
    zeta: int = field(init=False)

    def __post_init__(self) -> None:
        p, t, n, lam = self.p, self.t, self.n, self.lam
        if not is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime, got {p}")
        if not is_prime(t):
            raise ValueError(f"t must be prime, got {t}")
        if n < 2 or n % 2:
            raise ValueError(f"n must be even and >= 2, got {n}")
        if (p - 1) % n or not has_order(t, n, p):  # orders divide p - 1; never factor such an n
            raise ValueError(
                f"t={t} does not have order exactly n={n} mod p={p}; "
                "the induced module would not be irreducible"
            )
        if lam is None:
            lam = _default_lambda(p)
            object.__setattr__(self, "lam", lam)
        elif not is_prime(lam) or lam % p != 1:
            raise ValueError(f"lambda={lam} must be a prime = 1 (mod p={p})")
        object.__setattr__(self, "zeta", _smallest_zeta(p, lam))


# (sigma, coeffs): the matrix sending e_j to coeffs[j] e_sigma[j] over F_lambda.
Monomial = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class MonomialRep:
    """The induced representation: diagonal tau, cyclic phi, and the Gram form,
    each a Monomial of Python ints.  Each generator is checked when the rep
    is built, and its coefficients are stored reduced mod lambda: a ValueError
    names a generator whose sigma is not a permutation of range(n) or that
    lacks n coefficients nonzero mod lambda."""

    params: TameParameters
    n: int
    exponents: tuple[int, ...]  # t^i mod p, i = 0..n-1
    tau: Monomial
    phi: Monomial
    gram: Monomial

    def __post_init__(self) -> None:
        lam, n = self.params.lam, self.n
        for name in ("tau", "phi", "gram"):
            sigma, coeffs = getattr(self, name)
            coeffs = tuple(c % lam for c in coeffs)
            if sorted(sigma) != list(range(n)) or len(coeffs) != n or 0 in coeffs:
                raise ValueError(
                    f"{name} is not monomial: it needs a permutation of range({n}) "
                    f"and {n} coefficients nonzero mod {lam}"
                )
            object.__setattr__(self, name, (tuple(sigma), coeffs))


def _default_lambda(p: int) -> int:
    lam = p + 1
    while True:
        if lam % 2 and is_prime(lam) and lam % p == 1:
            return lam
        lam += 1


def _smallest_zeta(p: int, lam: int) -> int:
    """The least z with z^p = 1 != z in F_lambda, by the cheaper of two exact routes.

    Scanning z = 2, 3, ... takes about lambda/p steps.  The order-p elements
    are also g^1, ..., g^(p-1) for g = a^((lambda-1)/p), the first a giving
    g != 1; their least takes p steps.
    """
    if p * p > lam:
        for z in range(2, lam):
            if pow(z, p, lam) == 1:
                return z
        raise AssertionError(f"no element of order {p} in F_{lam}; lambda = 1 (mod p) violated")
    a = 2
    while (g := pow(a, (lam - 1) // p, lam)) == 1:
        a += 1
    least, z = g, g
    for _ in range(p - 2):
        z = z * g % lam
        least = min(least, z)
    return least


def build_induced_rep(p: int, t: int, n: int, lam: int | None = None) -> MonomialRep:
    """Construct the monomial model for the given (p, t, n).

    TameParameters checks the inputs and derives lambda and zeta.  Distinct
    character exponents, the tame relation and Gram symmetry are verified at
    construction; the Gram matrix is a permutation matrix by construction, so
    it is invertible.
    """
    params = TameParameters(p, t, n, lam)
    lam = params.lam

    exponents = tuple(pow(t, i, p) for i in range(n))
    ones = (1,) * n
    tau = (tuple(range(n)), tuple(pow(params.zeta, c, lam) for c in exponents))
    phi = (tuple((j - 1) % n for j in range(n)), ones)  # phi sends e_j to e_{j-1}
    gram = (tuple((j + n // 2) % n for j in range(n)), ones)

    rep = MonomialRep(params=params, n=n, exponents=exponents, tau=tau, phi=phi, gram=gram)
    if len(set(exponents)) != n:
        raise AssertionError("character exponents collide; order of t mod p is too small")
    if not tame_relation_holds(rep):
        raise AssertionError("tame relation phi tau phi^-1 = tau^t fails")
    if _transpose(gram) != gram:
        raise AssertionError("Gram form is not symmetric")
    return rep


def _compose(g: Monomial, h: Monomial, lam: int) -> Monomial:
    """The monomial g h: e_j goes to h_j g_{h(j)} e_{g(h(j))}."""
    (g_sigma, g_coeffs), (h_sigma, h_coeffs) = g, h
    return (tuple(g_sigma[k] for k in h_sigma),
            tuple(c * g_coeffs[k] % lam for k, c in zip(h_sigma, h_coeffs)))


def _transpose(g: Monomial) -> Monomial:
    """g^T: e_sigma(j) goes to c_j e_j."""
    sigma, coeffs = g
    t_sigma, t_coeffs = [0] * len(sigma), [0] * len(sigma)
    for j, k in enumerate(sigma):
        t_sigma[k], t_coeffs[k] = j, coeffs[j]
    return tuple(t_sigma), tuple(t_coeffs)


def _power(g: Monomial, k: int, lam: int) -> Monomial:
    """g^k by repeated squaring."""
    out = (tuple(range(len(g[0]))), (1,) * len(g[0]))
    while k:
        if k & 1:
            out = _compose(out, g, lam)
        g = _compose(g, g, lam)
        k >>= 1
    return out


def tame_relation_holds(rep: MonomialRep) -> bool:
    """True iff phi tau phi^-1 = tau^t over F_lambda, checked as phi tau = tau^t phi."""
    lam, tau, phi = rep.params.lam, rep.tau, rep.phi
    return _compose(phi, tau, lam) == _compose(_power(tau, rep.params.t, lam), phi, lam)


def verify_orthogonality(rep: MonomialRep) -> bool:
    """True iff both generators preserve the Gram form over F_lambda."""
    lam, gram = rep.params.lam, rep.gram
    return all(
        _compose(_compose(_transpose(g), gram, lam), g, lam) == gram for g in (rep.tau, rep.phi)
    )


def commutant_dimension(rep: MonomialRep, use: tuple[str, ...] = ("tau", "phi")) -> int:
    """Dimension over F_lambda of the joint commutant of the chosen generators.

    For a monomial g sending e_j to c_j e_sigma(j), X g = g X says
    X[sigma a, sigma j] = (c_a / c_j) X[a, j]: each generator maps the n^2
    entries of X to each other one to one, with a weight.  On a connected
    component of these maps one entry fixes all others; it is free when every
    cycle of weights closes to 1 and forced to 0 otherwise.  The dimension is
    the number of free components, found in O(n^2 |use|) steps with no
    matrix.  1 certifies absolute irreducibility here since lambda splits all
    character values.
    """
    lam, n = rep.params.lam, rep.n
    maps = []
    for name in use:
        sigma, coeffs = getattr(rep, name)
        maps.append((sigma, coeffs, [pow(c, -1, lam) for c in coeffs]))
    potential = [0] * (n * n)  # 0 marks an unvisited entry; potentials are units
    free = 0
    for root in range(n * n):
        if potential[root]:
            continue
        potential[root] = 1
        stack, closed = [root], True
        while stack:
            cell = stack.pop()
            a, j = divmod(cell, n)
            for sigma, coeffs, inverses in maps:
                nxt = sigma[a] * n + sigma[j]
                value = potential[cell] * coeffs[a] * inverses[j] % lam
                if not potential[nxt]:
                    potential[nxt] = value
                    stack.append(nxt)
                elif potential[nxt] != value:
                    closed = False
        free += closed
    return free


def projective_order(rep: MonomialRep, which: str) -> int:
    """Least d >= 1 such that the d-th power of the generator is scalar.

    For a monomial g, g^d is scalar only when sigma^d = id, so d is a multiple
    of m, the lcm of sigma's cycle lengths.  g^m is diagonal: on each cycle C
    it is the product of C's coefficients to the power m/|C|.  g^(m k) is
    scalar iff every ratio of those values has k-th power 1; the least such k
    divides lambda - 1 and is found by descending over its prime divisors.
    When the p-part p^a of lambda - 1 already serves as k, as it does in a
    built model (every coefficient is a power of zeta), the descent is from
    p^a over p alone and nothing is factored; otherwise it is from lambda - 1
    over p and the primes of the cofactor (lambda - 1)/p^a.
    """
    lam, p = rep.params.lam, rep.params.p
    sigma, coeffs = getattr(rep, which)
    seen = [False] * rep.n
    cycles = []  # (length, coefficient product) of each cycle of sigma
    for start in range(rep.n):
        length, prod, j = 0, 1, start
        while not seen[j]:
            seen[j] = True
            length, prod, j = length + 1, prod * coeffs[j] % lam, sigma[j]
        if length:
            cycles.append((length, prod))
    m = math.lcm(*(length for length, _ in cycles))
    values = [pow(prod, m // length, lam) for length, prod in cycles]
    first = pow(values[0], -1, lam)
    ratios = {v * first % lam for v in values} - {1}
    if not ratios:
        return m
    cofactor = k = lam - 1
    while cofactor % p == 0:
        cofactor //= p
    if all(pow(r, k // cofactor, lam) == 1 for r in ratios):
        k, cofactor = k // cofactor, 1
    for q in {p, *factorize(cofactor)}:
        while k % q == 0 and all(pow(r, k // q, lam) == 1 for r in ratios):
            k //= q
    return m * k


def _rows(rep: MonomialRep, name: str) -> list[list[int]]:
    """The generator `name` as a row-major n x n matrix."""
    sigma, coeffs = getattr(rep, name)
    return [[c if k == row else 0 for k, c in zip(sigma, coeffs)] for row in range(rep.n)]


def rep_json(rep: MonomialRep) -> dict:
    """Row-major integer matrices plus all verification verdicts."""
    return {
        "p": rep.params.p,
        "t": rep.params.t,
        "n": rep.n,
        "lambda": rep.params.lam,
        "zeta": rep.params.zeta,
        "character_exponents": list(rep.exponents),
        "tau": _rows(rep, "tau"),
        "phi": _rows(rep, "phi"),
        "gram": _rows(rep, "gram"),
        "verdicts": {
            "tame_relation": tame_relation_holds(rep),
            "gram_preserved": verify_orthogonality(rep),
            "commutant_dimension": commutant_dimension(rep),
            "tau_projective_order": projective_order(rep, "tau"),
            "phi_projective_order": projective_order(rep, "phi"),
        },
    }

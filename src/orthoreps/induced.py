"""Explicit matrix model of the induced local representation on the tame quotient.

The representation is supported on the quotient generated by a Frobenius
element phi and a tame generator tau with the single relation
phi tau phi^{-1} = tau^t.  Inducing an order-p character of the degree-n
unramified level gives a monomial model: tau acts by the diagonal matrix
with entries zeta^(t^i mod p) and phi by the cyclic shift.  Matrices live
over a prime field F_lambda with lambda = 1 (mod p) so all arithmetic is
exact; the invariant symmetric form pairs coordinate i with i + n/2, which
is forced by t^(n/2) = -1 (mod p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import has_order, is_prime

__all__ = [
    "TameParameters",
    "MonomialRep",
    "build_induced_rep",
    "verify_orthogonality",
    "tame_relation_holds",
    "commutant_dimension",
    "projective_order",
    "rep_json",
]


@dataclass(frozen=True)
class TameParameters:
    """Arithmetic data of the induction: character order p, residue
    characteristic t, degree n, coefficient field size lambda, and a fixed
    element zeta of exact multiplicative order p in F_lambda."""

    p: int
    t: int
    n: int
    lam: int
    zeta: int

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not is_prime(self.t):
            raise ValueError(f"t must be prime, got {self.t}")
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        if not has_order(self.t, self.n, self.p):
            raise ValueError(
                f"t={self.t} does not have order exactly n={self.n} mod p={self.p}; "
                "the induced module would not be irreducible"
            )
        if not is_prime(self.lam) or self.lam % self.p != 1:
            raise ValueError(f"lambda={self.lam} must be a prime = 1 (mod p={self.p})")
        if pow(self.zeta, self.p, self.lam) != 1 or self.zeta % self.lam == 1:
            raise ValueError(f"zeta={self.zeta} does not have exact order p in F_{self.lam}")


@dataclass(frozen=True, eq=False)
class MonomialRep:
    """The induced representation: diagonal tau, cyclic phi, and the Gram form."""

    params: TameParameters
    n: int
    exponents: tuple[int, ...]  # t^i mod p, i = 0..n-1
    tau: np.ndarray
    phi: np.ndarray
    gram: np.ndarray


def _default_lambda(p: int, n: int) -> int:
    lam = p + 1
    while True:
        if lam % 2 and is_prime(lam) and lam % p == 1 and n % lam != 0:
            return lam
        lam += 1


def _smallest_zeta(p: int, lam: int) -> int:
    for z in range(2, lam):
        if pow(z, p, lam) == 1:
            return z
    raise AssertionError(f"no element of order {p} in F_{lam}; lambda = 1 (mod p) violated")


def build_induced_rep(p: int, t: int, n: int, lam: int | None = None) -> MonomialRep:
    """Construct the monomial model for the given (p, t, n).

    When lam is omitted the smallest odd prime = 1 (mod p) not dividing n
    is used; zeta is the smallest element of exact order p.  The order of t,
    distinct character exponents, the tame relation and Gram symmetry are
    verified at construction; the Gram matrix is a permutation matrix by
    construction, so it is invertible.
    """
    if lam is None:
        lam = _default_lambda(p, n)
    params = TameParameters(p=p, t=t, n=n, lam=lam, zeta=_smallest_zeta(p, lam))

    exponents = tuple(pow(t, i, p) for i in range(n))
    tau = np.zeros((n, n), dtype=np.int64)
    for i, c in enumerate(exponents):
        tau[i, i] = pow(params.zeta, c, lam)
    phi = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        phi[(j - 1) % n, j] = 1  # phi sends basis vector e_j to e_{j-1}
    gram = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        gram[i, (i + n // 2) % n] = 1

    rep = MonomialRep(params=params, n=n, exponents=exponents, tau=tau, phi=phi, gram=gram)
    if len(set(exponents)) != n:
        raise AssertionError("character exponents collide; order of t mod p is too small")
    if not tame_relation_holds(rep):
        raise AssertionError("tame relation phi tau phi^-1 = tau^t fails")
    if not bool((gram == gram.T).all()):
        raise AssertionError("Gram form is not symmetric")
    for arr in (rep.tau, rep.phi, rep.gram):
        arr.flags.writeable = False
    return rep


def tame_relation_holds(rep: MonomialRep) -> bool:
    lam = rep.params.lam
    lhs = rep.phi @ rep.tau @ rep.phi.T % lam
    rhs = np.diag([pow(int(d), rep.params.t, lam) for d in np.diag(rep.tau)])
    return bool((lhs == rhs).all())


def verify_orthogonality(rep: MonomialRep) -> bool:
    """True iff both generators preserve the Gram form over F_lambda."""
    lam = rep.params.lam
    return all(
        bool(((g.T @ rep.gram @ g) % lam == rep.gram).all()) for g in (rep.tau, rep.phi)
    )


def _rank_mod(matrix: np.ndarray, lam: int) -> int:
    """Rank over F_lambda by Gaussian elimination; rows stay int64 mod lam."""
    m = matrix % lam
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if m[r, col]:
                piv = r
                break
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        inv = pow(int(m[rank, col]), lam - 2, lam)
        m[rank] = m[rank] * inv % lam
        hits = np.nonzero(m[:, col])[0]
        hits = hits[hits != rank]
        if hits.size:
            m[hits] = (m[hits] - np.outer(m[hits, col], m[rank])) % lam
        rank += 1
        if rank == rows:
            break
    return rank


def commutant_dimension(rep: MonomialRep, use: tuple[str, ...] = ("tau", "phi")) -> int:
    """Dimension over F_lambda of the joint commutant of the chosen generators.

    Solves X g = g X for all selected g by exact linear algebra on the
    n^2 unknowns; 1 certifies absolute irreducibility here since lambda
    splits all character values.
    """
    lam = rep.params.lam
    n = rep.n
    eye = np.eye(n, dtype=np.int64)
    blocks = []
    for name in use:
        g = getattr(rep, name)
        blocks.append((np.kron(eye, g) - np.kron(g.T, eye)) % lam)
    system = np.vstack(blocks)
    return n * n - _rank_mod(system, lam)


def projective_order(rep: MonomialRep, which: str) -> int:
    """Least d >= 1 such that the d-th power of the generator is scalar."""
    g = getattr(rep, which)
    lam = rep.params.lam
    acc = g.copy()
    bound = rep.params.p * rep.n + 1
    for d in range(1, bound + 1):
        diag = np.diag(acc)
        if bool((acc == np.diag(diag)).all()) and len(set(diag.tolist())) == 1:
            return d
        acc = acc @ g % lam
    raise AssertionError(f"no scalar power of {which} up to {bound}")


def rep_json(rep: MonomialRep) -> dict:
    """Row-major integer matrices plus all verification verdicts."""
    return {
        "p": rep.params.p,
        "t": rep.params.t,
        "n": rep.n,
        "lambda": rep.params.lam,
        "zeta": rep.params.zeta,
        "character_exponents": list(rep.exponents),
        "tau": rep.tau.tolist(),
        "phi": rep.phi.tolist(),
        "gram": rep.gram.tolist(),
        "verdicts": {
            "tame_relation": tame_relation_holds(rep),
            "gram_preserved": verify_orthogonality(rep),
            "commutant_dimension": commutant_dimension(rep),
            "tau_projective_order": projective_order(rep, "tau"),
            "phi_projective_order": projective_order(rep, "phi"),
        },
    }

"""Enumeration of restricted highest-weight modules below a dimension bound.

The search walks the dominant-weight lattice depth-first, incrementing one
coordinate at a time; strict monotonicity of the Weyl dimension in every
coordinate makes pruning at the bound exhaustive.  Coordinates whose
fundamental module already exceeds the bound can never appear in a hit, so
the walk is confined to the "active" coordinates.  The fundamental
dimensions of a type rise and then fall along the diagram, so the active
coordinates are a prefix and a suffix of it, read off the type's RootDatum
from both ends: a scan over large-rank types reads only a few columns of
each.  The pairings and heights of the coroots that meet those
coordinates are kept per (type, active coordinates), so a repeated search
builds no coroot, and the self-duality and indicator of every hit are read
on the same coordinates.  Generic (characteristic-zero) dimensions are
reported; a known small-characteristic correction is not computed but passed
in from Python as an ExceptionRecord.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .arith import is_prime
from .root_data import LieType, RootDatum, build_root_datum, coroot_columns
from .weights import as_weight, coroot_pairings, dim_from_pairings, indicator

# The least min_char of a module or a report.  A report's is max(floor, n + 1),
# fixed by n; exception records can raise a module's.
GENERIC_CHAR_FLOOR = 20


@dataclass(frozen=True)
class IrrepCandidate:
    """One restricted highest-weight module with its classification flags."""

    type_id: LieType
    weight: tuple[int, ...]
    dim: int
    fs: int  # +1 orthogonal, -1 symplectic, 0 not self-dual
    min_char: int

    @property
    def self_dual(self) -> bool:
        return self.fs != 0

    @property
    def epsilon(self) -> int:
        return self.type_id.epsilon

    @classmethod
    def of(cls, datum: RootDatum, weight: tuple[int, ...], dim: int, cols: Sequence[int],
           matching_ells: Iterable[int] = ()) -> "IrrepCandidate":
        """The candidate L(weight) of datum's type with the given dimension.

        cols holds the weight's support (see weights.indicator);
        range(datum.type_id.rank) always does.
        matching_ells are the characteristics of exception records for this
        weight; they can only raise min_char.
        """
        return cls(
            type_id=datum.type_id,
            weight=weight,
            dim=dim,
            fs=indicator(datum, weight, cols),
            min_char=_min_char(weight, cols, matching_ells),
        )


@dataclass(frozen=True)
class ExceptionRecord:
    """A non-generic dimension: at characteristic ell the module with this
    highest weight has corrected_dim instead of the generic value.

    L(weight) is the simple quotient of the Weyl module V(weight) (Jantzen,
    RAGS II.2), so a record must lower the generic dimension; one that
    equals it corrects nothing.  ell must be prime, and below <lambda + rho,
    theta^vee>: at or above it L = V (RAGS II.5.6, the bottom alcove).  The
    weight must be restricted at ell (every coefficient below ell): L(300) of
    A1 at ell = 277 is L(23) (x) L(1)^[1] (Steinberg), not a module of its own.

    Lemma: for dominant lambda != 0, dim V(lambda) >= <lambda + rho, theta^vee>.
    The positive coroots form a root poset graded by height (for beta < beta'
    and delta = beta' - beta, (delta, delta) > 0 gives a simple alpha in delta
    with (delta, alpha) > 0, so beta' - alpha or beta + alpha lies between).
    So for lambda_j >= 1 a chain alpha_j^vee = gamma_1 < ... < gamma_H =
    theta^vee (the highest coroot) has <rho, gamma_k> = k, along which
    <lambda, gamma_k> >= 1 rises to A = <lambda, theta^vee>.  Every Weyl factor
    is >= 1, and the chain's give at least prod_{k<H} (k + 1)/k * (A + H)/H =
    A + H.  So a record lifts a module's min_char to at most ell + 1 <= dim.
    """

    type_id: LieType
    weight: tuple[int, ...]
    ell: int
    corrected_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_weight(self.weight, self.type_id.rank))
        if not is_prime(self.ell):
            raise ValueError(f"ell={self.ell} is not prime")
        if self.corrected_dim < 1:
            raise ValueError("corrected dimension must be positive")
        heights, pairings = coroot_pairings(self.type_id, self.weight)  # theta^vee is among them
        generic = dim_from_pairings(heights, pairings)
        if self.corrected_dim >= generic:
            how = "exceeds" if self.corrected_dim > generic else "equals"
            raise ValueError(f"corrected dimension {self.corrected_dim} {how} the generic "
                             f"dimension {generic} of {self.type_id} weight {list(self.weight)}")
        if (top := int((heights + pairings).max())) <= self.ell:  # <lambda+rho, theta^vee>
            raise ValueError(f"{self.type_id} weight {list(self.weight)} has <lambda+rho, "
                             f"theta^vee> = {top} <= ell={self.ell}, so L = V there")
        if max(self.weight) >= self.ell:
            raise ValueError(f"{self.type_id} weight {list(self.weight)} is not restricted at "
                             f"ell={self.ell}: a coefficient is >= ell")


def _active_columns(datum: RootDatum, bound: int) -> tuple[int, ...]:
    """The columns whose fundamental modules fit the bound; no hit leaves them.

    Every row of fundamental dimensions rises and then falls, so the columns
    that fit are a prefix and a suffix: walking in from both ends reads
    only them and the two columns that stop the walks.
    """
    dims, m = datum.fund_dims, datum.type_id.rank
    lo = 0
    while lo < m and dims[lo] <= bound:
        lo += 1
    hi = m
    while hi > lo and dims[hi - 1] <= bound:
        hi -= 1
    return (*range(lo), *range(hi, m))


# coroot_columns, kept per (type, active columns): the active set grows with
# the bound, so a type has at most rank + 1 blocks.
_search_columns = lru_cache(maxsize=None)(coroot_columns)


def _search_weights(datum: RootDatum, cols: tuple[int, ...],
                    bound: int) -> list[tuple[tuple[int, ...], int]]:
    """All dominant weights with dimension <= bound, with exact dimensions.

    cols is _active_columns(datum, bound).
    """
    zero = (0,) * datum.type_id.rank
    if not cols:
        return [(zero, 1)]
    sub, heights = _search_columns(datum.type_id, cols)
    sub, heights = sub.astype(np.int64), heights.astype(np.int64)  # R x a, R

    def bump(w: tuple[int, ...], j: int) -> tuple[int, ...]:
        c = cols[j]
        return w[:c] + (w[c] + 1,) + w[c + 1:]

    # The fundamental weights that fit are the walk's first level; hits
    # still to extend are each in their columns start and above.
    stack = [(bump(zero, j), sub[:, j], datum.fund_dims[c], j) for j, c in enumerate(cols)]
    found: list[tuple[tuple[int, ...], int]] = [(zero, 1)]
    while stack:
        w, pair, dim, start = stack.pop()
        found.append((w, dim))
        if dim < bound:
            for j in range(start, len(cols)):
                child_pair = pair + sub[:, j]
                d = dim_from_pairings(heights, child_pair)
                if d <= bound:
                    stack.append((bump(w, j), child_pair, d, j))
    return found


def _min_char(weight: tuple[int, ...], cols: Sequence[int], matching_ells: Iterable[int]) -> int:
    raised = (ell + 1 for ell in matching_ells if ell >= GENERIC_CHAR_FLOOR)
    return max(GENERIC_CHAR_FLOOR, 1 + max((weight[c] for c in cols), default=0), *raised)


def enumerate_restricted(
    type_id: LieType,
    dim_bound: int,
    exceptions: Sequence[ExceptionRecord] = (),
) -> list[IrrepCandidate]:
    """All restricted modules of one type with generic dimension <= dim_bound.

    Output is duplicate-free and sorted by (dimension, weight); the trivial
    module is included.  A module's min_char is the least ell >=
    GENERIC_CHAR_FLOOR at which its weight is restricted (every coefficient
    below ell), raised above the ell of each matching exception at or above
    that floor.  It is not a certificate: the generic dimension can fail
    above it.  B11's L(2 omega_1) has min_char 20 and generic dimension 275,
    but at ell = 23 it is 274-dimensional, and the A22 adjoint drops there
    too.
    """
    if dim_bound < 1:
        raise ValueError(f"dimension bound must be >= 1, got {dim_bound}")
    datum = build_root_datum(type_id)
    exc_by_weight: dict[tuple[int, ...], list[int]] = {}
    for rec in exceptions:
        if rec.type_id == type_id:
            exc_by_weight.setdefault(rec.weight, []).append(rec.ell)

    cols = _active_columns(datum, dim_bound)
    out = [
        IrrepCandidate.of(datum, weight, dim, cols, exc_by_weight.get(weight, ()))
        for weight, dim in _search_weights(datum, cols, dim_bound)
    ]
    out.sort(key=lambda c: (c.dim, c.weight))
    return out


def default_scan_types(n: int) -> list[LieType]:
    """Types whose smallest faithful module can still fit in dimension n.

    Classical ranks are cut off at the natural-module dimension; the
    exceptional types are always scanned.  C2 is omitted in favor of the
    isomorphic B2 so coincident rank-2 candidates are not double-listed.
    """
    types = [LieType("A", m) for m in range(1, n)]
    types += [LieType("B", m) for m in range(2, n // 2 + 1)]
    types += [LieType("C", m) for m in range(3, n // 2 + 1)]
    types += [LieType("D", m) for m in range(4, n // 2 + 1)]
    types += [LieType("E", m) for m in (6, 7, 8)]
    types += [LieType("F", 4), LieType("G", 2)]
    return sorted(types)


def candidates_of_dimension(types: Iterable[LieType], n: int) -> list[IrrepCandidate]:
    """Nontrivial restricted modules of exactly dimension n among the given types."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    out: list[IrrepCandidate] = []
    for t in sorted(set(types)):
        for cand in enumerate_restricted(t, n):
            if cand.dim == n and any(cand.weight):
                out.append(cand)
    out.sort(key=lambda c: (c.type_id, c.weight))
    return out


def candidate_json(cand: IrrepCandidate) -> dict:
    """JSON object for one candidate; dimensions as decimal strings."""
    return {
        "family": cand.type_id.family,
        "rank": cand.type_id.rank,
        "weight": list(cand.weight),
        "dim": str(cand.dim),
        "self_dual": cand.self_dual,
        "fs": cand.fs,
        "epsilon": cand.epsilon,
        "min_char": cand.min_char,
    }

"""Dominant-weight arithmetic: dimensions, duality, indicators.

All computations are exact.  Weyl dimensions come from
root_data.dim_from_pairings, on the pairings coroot_pairings builds.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .root_data import LieType, RootDatum, as_int, coroot_columns, dim_from_pairings

# Cap keeps the int64 pairing mat-vec exact; far above any realistic weight.
_COEFF_LIMIT = 1 << 40

Weight = tuple[int, ...]


def as_weight(weight: Sequence[int], rank: int) -> Weight:
    """Validate and normalize a dominant weight given in fundamental coordinates."""
    w = tuple(as_int(a, "weight coefficient") for a in weight)
    if len(w) != rank:
        raise ValueError(f"weight length {len(w)} does not match rank {rank}")
    if any(a < 0 for a in w):
        raise ValueError(f"weight {w} has a negative coefficient; dominance requires >= 0")
    if any(a > _COEFF_LIMIT for a in w):
        raise ValueError("weight coefficient too large for exact evaluation")
    return w


def coroot_pairings(type_id: LieType, weight: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(<rho, a^vee>, <lambda, a^vee>) over the coroots a^vee that meet lambda's support.

    Those coroots are the only ones whose Weyl factor differs from 1; the
    highest coroot is among them unless lambda is 0.
    """
    w = as_weight(weight, type_id.rank)
    support = [i for i, a in enumerate(w) if a]
    sub, heights = coroot_columns(type_id, support)
    return heights, sub @ np.asarray([w[i] for i in support], dtype=np.int64)


def weyl_dimension(datum: RootDatum, weight: Sequence[int]) -> int:
    """Dimension of the highest-weight module with the given dominant weight."""
    return dim_from_pairings(*coroot_pairings(datum.type_id, weight))


def indicator(datum: RootDatum, weight: Weight, cols: Sequence[int]) -> int:
    """Frobenius-Schur indicator: +1 orthogonal, -1 symplectic, 0 not self-dual.

    The module is self-dual iff -w0 fixes lambda; its indicator is then the
    sign (-1)^<lambda, 2 rho^vee>, to which only the columns where lambda is
    odd contribute.  Only the columns in cols are read, and they must hold
    the weight's support (range(rank) always does).  The diagram symmetry s
    is an involution, so where lambda differs at c and s(c), one of the two
    is in the support and the check there sees it: -w0 fixes lambda iff it
    fixes lambda on cols.
    The weight is not validated: pass a tuple already checked by as_weight
    against datum's rank.
    """
    sym = datum.dynkin_symmetry
    if any(weight[sym[c]] != weight[c] for c in cols):
        return 0
    two_rho = datum.two_rho_check
    return -1 if sum(two_rho[c] for c in cols if weight[c] % 2) % 2 else 1


def fs_indicator(datum: RootDatum, weight: Sequence[int]) -> int:
    """Frobenius-Schur indicator of a self-dual module: +1 orthogonal, -1 symplectic.

    A module that is not self-dual (indicator 0) is rejected; see indicator
    for the rule.
    """
    w = as_weight(weight, datum.type_id.rank)
    fs = indicator(datum, w, range(datum.type_id.rank))
    if not fs:
        raise ValueError(
            f"{datum.type_id} weight {w} is not self-dual; the indicator is defined "
            "only for self-dual modules"
        )
    return fs

"""Dominant-weight arithmetic: dimensions, duality, indicators.

All computations are exact.  The Weyl dimension is evaluated as a product
of rational factors over the positive coroots and asserted to be integral.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .root_data import LieType, RootDatum, build_root_datum, coroot_columns

# Cap keeps the int64 pairing mat-vec exact; far above any realistic weight.
_COEFF_LIMIT = 1 << 40
# Above this largest h + s, dim_from_pairings counts the distinct values
# rather than bincounting every value from 0 up.
_DENSE_LIMIT = 1 << 16

Weight = tuple[int, ...]


def _coefficient(a: int) -> int:
    """a as a Python int; an integer type (Python or numpy) is required, not truncated."""
    try:
        return operator.index(a)
    except TypeError:
        raise ValueError(f"weight coefficient {a!r} is not an integer") from None


def as_weight(weight: Sequence[int], rank: int) -> Weight:
    """Validate and normalize a dominant weight given in fundamental coordinates."""
    w = tuple(map(_coefficient, weight))
    if len(w) != rank:
        raise ValueError(f"weight length {len(w)} does not match rank {rank}")
    if any(a < 0 for a in w):
        raise ValueError(f"weight {w} has a negative coefficient; dominance requires >= 0")
    if any(a > _COEFF_LIMIT for a in w):
        raise ValueError("weight coefficient too large for exact evaluation")
    return w


def dim_from_pairings(heights: np.ndarray, pairings: np.ndarray) -> int:
    """Exact dimension from <rho, a^vee> and <lambda, a^vee> over positive coroots.

    The dimension is the product of (h + s) / h over the coroots pairing
    nonzero with lambda (s >= 0, as lambda is dominant).  Equal factors above
    and below cancel first: e[v] counts v among the h + s less v among the h,
    so only the v with e[v] != 0 are multiplied out.  The final division is
    checked to be exact.  The counts take O(_DENSE_LIMIT + pairings) memory
    whatever the size of the coefficients.
    """
    nz = pairings.nonzero()[0]
    if nz.size == 0:
        return 1
    hs = heights[nz]
    tops = hs + pairings[nz]
    top = int(tops.max())  # the largest of all the values: s >= 0
    if top < _DENSE_LIMIT:
        e = np.bincount(tops) - np.bincount(hs, minlength=top + 1)
        vs = vals = e.nonzero()[0]
    else:
        uniq, idx = np.unique(np.concatenate((tops, hs)), return_inverse=True)
        k = nz.size
        e = np.bincount(idx[:k], minlength=uniq.size) - np.bincount(idx[k:], minlength=uniq.size)
        vs = e.nonzero()[0]
        vals = uniq[vs]
    numer = denom = 1
    for v, k in zip(vals.tolist(), e[vs].tolist()):
        if k > 0:
            numer *= v**k
        else:
            denom *= v**-k
    dim, rem = divmod(numer, denom)
    if rem:
        raise ArithmeticError("Weyl dimension product is not integral; root data corrupt")
    return dim


def weyl_dimension(datum: RootDatum, weight: Sequence[int]) -> int:
    """Dimension of the highest-weight module with the given dominant weight.

    Only the coroots that meet the weight's support enter the product.
    """
    w = as_weight(weight, datum.type_id.rank)
    support = [i for i, a in enumerate(w) if a]
    sub, heights = coroot_columns(datum.type_id, support)
    return dim_from_pairings(heights, sub @ np.asarray([w[i] for i in support], dtype=np.int64))


def minus_w0(type_id: LieType, weight: Sequence[int]) -> Weight:
    """Highest weight of the dual module: the diagram symmetry applied to lambda."""
    w = as_weight(weight, type_id.rank)
    return tuple(w[p] for p in build_root_datum(type_id).dynkin_symmetry)


def is_self_dual(type_id: LieType, weight: Sequence[int]) -> bool:
    """True iff -w0 fixes lambda: the indicator's rule, read on every column."""
    w = as_weight(weight, type_id.rank)
    return indicator(build_root_datum(type_id), w, range(type_id.rank)) != 0


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

    Callers must gate on is_self_dual first (the indicator-0 case is
    rejected here); see indicator for the rule.
    """
    w = as_weight(weight, datum.type_id.rank)
    fs = indicator(datum, w, range(datum.type_id.rank))
    if not fs:
        raise ValueError(
            f"{datum.type_id} weight {w} is not self-dual; the indicator is defined "
            "only for self-dual modules"
        )
    return fs

"""Exact root-system data for the simple Lie types A-G.

The positive coroots of the classical types are written down, not searched
for.  With e_0, e_1, ... the standard basis they are e_i - e_j for A_m,
e_i -+ e_j and 2e_i for B_m, e_i -+ e_j and e_i for C_m, and e_i -+ e_j for
D_m (i < j; Bourbaki, Planches I-IV).  In the simple-coroot basis each one
is a step function of the column c: [c >= f] + [c >= p] - [c >= q] for three
integers f <= p, q, so coroot_columns builds only the coroots that meet the
columns it is asked for, and the type's 2rho^vee and fundamental dimensions
are closed forms in the rank.

The exceptional types E6-E8, F4 and G2 (at most 120 coroots) are generated
from their simple coroots, level by level in the height grading, by the
root-string criterion (beta + alpha_k is a coroot iff the string of beta
through alpha_k descends further than the Cartan pairing allows).

Either way the coroots come out ordered by height and then
lexicographically, so output built on them is byte-stable across runs.
Simple roots are numbered in the Bourbaki convention throughout.  The
Cartan matrix has entry ``cartan[i][j] = <alpha_j, alpha_i^vee>`` (row =
coroot index, column = root index), so the j-th column is the coordinate
vector of alpha_j in the fundamental-weight basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# Minimal/maximal rank per family (None = unbounded).
_RANK_RULES = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        rule = _RANK_RULES.get(self.family)
        if rule is None:
            raise ValueError(f"unknown family {self.family!r}; expected one of A..G")
        lo, hi = rule
        if not isinstance(self.rank, int):
            raise ValueError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < lo or (hi is not None and self.rank > hi):
            span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"family {self.family} needs rank {span}, got {self.rank}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Immutable per-type data for one simple Lie type.

    This is the package's one per-type record, cached per type by
    build_root_datum, so it holds only rank-sized data.  coroot_columns
    supplies the coroots themselves; the module search keeps the blocks it
    reads per (type, active columns).  two_rho_check[i] is
    ``<omega_i, 2 rho^vee>``, the i-th coordinate of the sum of the positive
    coroots, and fund_dims[i] is the exact dimension of the fundamental
    module L(omega_i).  fund_order lists the columns in ascending order of
    fund_dims, so the columns whose fundamental modules fit a bound are a
    prefix of it.  dynkin_symmetry is the package's one permutation of the
    columns realizing -w0, checked when the record is built.
    """

    type_id: LieType
    two_rho_check: tuple[int, ...]
    fund_dims: tuple[int, ...]
    fund_order: tuple[int, ...]
    dynkin_symmetry: tuple[int, ...]
    epsilon: int


def positive_coroot_count(type_id: LieType) -> int:
    """Closed-form number of positive coroots, used to cross-check generation."""
    m = type_id.rank
    if type_id.family == "A":
        return m * (m + 1) // 2
    if type_id.family in ("B", "C"):
        return m * m
    if type_id.family == "D":
        return m * (m - 1)
    if type_id.family == "G":
        return 6
    if type_id.family == "F":
        return 24
    return {6: 36, 7: 63, 8: 120}[m]


def _diagram_symmetry(type_id: LieType) -> tuple[int, ...]:
    """Permutation (0-based) of the nodes realizing -w0 on fundamental weights.

    Reversal for A_m (m >= 2), swap of the two fork nodes for D_m with m
    odd, the flip 1<->6 / 3<->5 for E6, identity otherwise.
    """
    m = type_id.rank
    fam = type_id.family
    if fam == "A" and m >= 2:
        return tuple(reversed(range(m)))
    if fam == "D" and m % 2 == 1:
        return tuple(range(m - 2)) + (m - 1, m - 2)
    if fam == "E" and m == 6:
        return (5, 1, 4, 3, 2, 0)
    return tuple(range(m))


def _epsilon(type_id: LieType) -> int:
    """Order of the diagram symmetry available for twisting (1 or 2)."""
    fam, m = type_id.family, type_id.rank
    if (fam == "A" and m >= 2) or fam == "D" or (fam == "E" and m == 6):
        return 2
    return 1


def _cartan_matrix(family: str, rank: int) -> np.ndarray:
    C = np.zeros((rank, rank), dtype=np.int64)
    np.fill_diagonal(C, 2)

    def bond(i: int, j: int) -> None:
        C[i, j] = C[j, i] = -1

    if family == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif family == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        C[rank - 2, rank - 1] = -1
        C[rank - 1, rank - 2] = -2
    elif family == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        C[rank - 2, rank - 1] = -2
        C[rank - 1, rank - 2] = -1
    elif family == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            bond(i, j)
    elif family == "F":
        bond(0, 1)
        C[1, 2] = -1
        C[2, 1] = -2
        bond(2, 3)
    elif family == "G":
        C[0, 1] = -3
        C[1, 0] = -1
    return C


def _string_closure(cartan: np.ndarray) -> np.ndarray:
    """All positive roots of the system with the given Cartan matrix.

    Rows come out graded by height and lexicographically sorted within each
    height level, in a column-major array.  String descent depths (p-values)
    are carried along incrementally, so no set lookups are needed:
    beta + alpha_k is a root iff p(beta, k) - <beta, alpha_k^vee> > 0.
    """
    m = cartan.shape[0]
    C = cartan.astype(np.int16)
    level = np.eye(m, dtype=np.int16)[::-1].copy()  # lex order within height 1
    pair = C[::-1].copy()
    pvec = np.zeros((m, m), dtype=np.int16)
    chunks = [level]
    while True:
        rs, ks = np.nonzero(pvec - pair > 0)
        if rs.size == 0:
            break
        cand = level[rs].copy()
        cand[np.arange(rs.size), ks] += 1
        # rows sorted lexicographically; every occurrence of a row has the same pairings
        uniq, first, inv = np.unique(cand, axis=0, return_index=True, return_inverse=True)
        new_pair = pair[rs[first]] + C[ks[first]]
        new_pvec = np.zeros((uniq.shape[0], m), dtype=np.int16)
        new_pvec[inv.ravel(), ks] = pvec[rs, ks] + 1  # each (root, direction) has a unique parent
        chunks.append(uniq)
        level, pair, pvec = uniq, new_pair, new_pvec
    out = np.empty((sum(len(c) for c in chunks), m), dtype=np.int16, order="F")
    return np.concatenate(chunks, out=out)


@lru_cache(maxsize=None)
def _closure_coroots(type_id: LieType) -> tuple[np.ndarray, np.ndarray]:
    """Coroot rows and heights of an exceptional type, by string closure."""
    mat = _string_closure(_cartan_matrix(type_id.family, type_id.rank))
    if mat.shape[0] != positive_coroot_count(type_id):
        raise AssertionError(f"{type_id}: generated {mat.shape[0]} positive coroots, "
                             f"expected {positive_coroot_count(type_id)}")
    heights = mat.sum(axis=1, dtype=np.int64)
    mat.flags.writeable = heights.flags.writeable = False
    return mat, heights


def _classical_steps(family: str, m: int, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """(f, p, q, height) of the classical coroots that meet cols, in (height, lex) order.

    A coroot's entry at column c is [c >= f] + [c >= p] - [c >= q], and it
    is zero left of f, so only the f up to the last col matter.  The
    e_i - e_j have f = i, p = m (never fires) and q = j, so they are the
    intervals [i, j - 1]; the one from i meets cols iff it reaches the least
    col >= i.  For B, C and D each e_i + e_j (2e_i for B, e_i for C) has
    f = i, p = j and q = m - 1, m or m - 2, and reaches column m - 1.

    The (height, lex) order of the string closure is the order of height,
    then of f descending, then, for the one pair of D coroots that share
    both (e_i -+ e_{m-1}), the e_i + e_{m-1} first.  Each coroot's sort key
    is 2 * (height * m + m - 1 - f), plus 1 for an e_i - e_j, and a run of
    coroots from the same i steps that key by 2m.
    """
    hits = np.sort(cols)
    firsts = np.arange(hits[-1] + 1 if hits.size else 0)
    nxt = hits[np.searchsorted(hits, firsts)]  # least col >= i
    top = m - 1 if family == "A" else m - 2  # e_i - e_j from j = nxt[i] + 1 up to top + 1
    base = 2 * ((nxt + 1 - firsts) * m + m - 1 - firsts) + 1
    counts = np.maximum(top + 1 - nxt, 0)
    q_plus = m
    if family != "A":  # e_i + e_j from j = j_top down to i + j_lo
        j_lo, q_plus, j_top = {"B": (0, m - 1, m - 1), "C": (1, m, m),
                               "D": (1, m - 2, m - 1)}[family]
        if family == "D" and firsts.size == m - 1:
            j_top = j_top - (nxt == m - 2)  # e_i + e_{m-1} is zero at column m - 2
        base = np.concatenate((base, 2 * ((m + q_plus - firsts - j_top) * m + m - 1 - firsts)))
        counts = np.concatenate((counts, j_top + 1 - j_lo - firsts))
    ends = np.cumsum(counts)  # run g is base[g], base[g] + 2m, ..., counts[g] keys
    keys = np.repeat(base - 2 * m * (ends - counts), counts)
    keys += 2 * m * np.arange(keys.size)
    keys.sort()
    height, rem = np.divmod(keys, 2 * m)
    f = m - 1 - (rem >> 1)
    q = np.where(rem & 1, f + height, q_plus)  # last + 1 for an e_i - e_j
    return f, m - f - height + q, q, height


def prewarm_family(family: str, rank: int) -> None:
    """Check that (family, rank) is a valid type; nothing is built ahead.

    coroot_columns builds what each caller asks for, and the module search
    keeps its own blocks, so there is nothing to warm; the name stays
    because timing harnesses wrap it.
    """
    LieType(family, rank)


def coroot_columns(type_id: LieType, cols: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Pairings and heights of the coroots that meet cols, as read-only arrays.

    Keeps the positive coroots that pair nonzero with some omega_j (j in
    cols), in (height, lex) order, and returns their pairings with the
    omega_j, one column per entry of cols in the order given (column-major,
    int16), with their heights ``<rho, coroot>`` (int64).  range(rank)
    gives every coroot.  For A-D only those coroots are built, from the
    closed forms; E, F and G read them from the cached closure.  The result
    is not kept here: the module search keeps the blocks it reuses.
    """
    cols = np.asarray(cols, dtype=np.intp)
    if type_id.family in "ABCD":
        f, p, q, heights = _classical_steps(type_id.family, type_id.rank, cols)
        c = cols[:, None]
        sub = ((c >= f).astype(np.int16) + (c >= p) - (c >= q)).T
    else:
        mat, all_heights = _closure_coroots(type_id)
        rows = (mat[:, cols] != 0).any(axis=1).nonzero()[0]
        sub, heights = mat[np.ix_(rows, cols)], all_heights[rows]
    sub.flags.writeable = heights.flags.writeable = False
    return sub, heights


def _binomials(n: int, top: int) -> list[int]:
    """C(n, 0), ..., C(n, top), by the multiplicative recurrence."""
    row = [1]
    for k in range(top):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def _classical_forms(family: str, m: int) -> tuple[list[int], list[int]]:
    """<omega_k, 2 rho^vee> and dim L(omega_k), k = 1..m, in closed form."""
    ks = range(1, m + 1)
    if family == "A":
        return [k * (m + 1 - k) for k in ks], _binomials(m + 1, m)[1:]
    if family == "B":
        return ([k * (2 * m - k + 1) for k in ks[:-1]] + [m * (m + 1) // 2],
                _binomials(2 * m + 1, m - 1)[1:] + [2**m])
    row = _binomials(2 * m, m)
    if family == "C":
        return [k * (2 * m - k) for k in ks], [row[k] - (row[k - 2] if k > 1 else 0) for k in ks]
    fork = m - 2  # D: the last two nodes carry the half-spin modules
    return ([k * (2 * m - k - 1) for k in ks[:fork]] + [m * (m - 1) // 2] * 2,
            row[1:fork + 1] + [2 ** (m - 1)] * 2)


def _validate_symmetry(type_id: LieType, perm: tuple[int, ...], fund_dims: Sequence[int]) -> None:
    """perm is an involution fixing the Cartan matrix and (-w0 keeps dimensions) fund_dims."""
    if [perm[p] for p in perm] != list(range(type_id.rank)):
        raise AssertionError(f"{type_id}: diagram symmetry is not an involution")
    cartan = _cartan_matrix(type_id.family, type_id.rank)
    if not bool((cartan[np.ix_(perm, perm)] == cartan).all()):
        raise AssertionError(f"{type_id}: Cartan matrix not fixed by the symmetry")
    if [fund_dims[p] for p in perm] != list(fund_dims):
        raise AssertionError(f"{type_id}: fundamental dimensions {tuple(fund_dims)} not fixed "
                             "by the symmetry")


@lru_cache(maxsize=None)
def build_root_datum(type_id: LieType) -> RootDatum:
    """Construct (and verify) the root datum of one simple type, cached per type."""
    fam, m = type_id.family, type_id.rank
    perm = _diagram_symmetry(type_id)
    if fam in "ABCD":
        two_rho, fund_dims = _classical_forms(fam, m)
    else:
        mat, heights = _closure_coroots(type_id)
        two_rho = mat.sum(axis=0).tolist()
        fund_dims = []
        for k in range(m):  # Weyl's formula for omega_k
            nz = mat[:, k].nonzero()[0]
            fund_dims.append(math.prod((heights[nz] + mat[nz, k]).tolist())
                             // math.prod(heights[nz].tolist()))
    _validate_symmetry(type_id, perm, fund_dims)
    return RootDatum(
        type_id=type_id,
        two_rho_check=tuple(two_rho),
        fund_dims=tuple(fund_dims),
        # The classical dimensions rise and then fall, or end in the spin
        # modules, so this sort meets at most two runs.  perm holds every
        # column once; sorting it shares its int objects, not new ones.
        fund_order=tuple(sorted(perm, key=fund_dims.__getitem__)),
        dynkin_symmetry=perm,
        epsilon=_epsilon(type_id),
    )

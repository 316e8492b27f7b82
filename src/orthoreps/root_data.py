"""Exact root-system data for the simple Lie types A-G.

Positive coroots are generated, not transcribed: starting from the simple
coroots of the dual root system, new coroots are added level by level in
the height grading using the root-string criterion (beta + alpha_k is a
coroot iff the string of beta through alpha_k descends further than the
Cartan pairing allows).  The resulting table is ordered by height and then
lexicographically, so output built on it is byte-stable across runs.

Simple roots are numbered in the Bourbaki convention throughout.  The
stored Cartan matrix has entry ``cartan[i][j] = <alpha_j, alpha_i^vee>``
(row = coroot index, column = root index), so the j-th column is the
coordinate vector of alpha_j in the fundamental-weight basis.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "LieType",
    "RootDatum",
    "build_root_datum",
    "coroot_columns",
    "diagram_automorphism",
    "positive_coroot_count",
    "prewarm_family",
]

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

_TYPE_RE = re.compile(r"([A-G])\s*(\d+)")


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

    @classmethod
    def parse(cls, text: str) -> "LieType":
        m = _TYPE_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"cannot parse Lie type from {text!r} (expected e.g. 'D34')")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, eq=False)
class RootDatum:
    """Immutable root-system data for one simple Lie type.

    This is the package's one per-type record, and build_root_datum its one
    per-type cache, so it holds only rank-sized data.  The coroots stay in
    the family table, which prewarm_family may replace by a larger one, so
    positive_coroots and rho_pairings are read from the current table (and
    cartan is rebuilt) on each access, as read-only arrays.

    positive_coroots holds one coroot per row, written in the simple-coroot
    basis, so ``row[i] == <omega_i, coroot>``.  rho_pairings[r] is the
    height ``<rho, coroot_r>`` and two_rho_check is the coordinate-wise sum
    of all positive coroots, i.e. ``<omega_i, 2 rho^vee>``.  fund_log[i] is
    the natural log of the dimension of the fundamental module omega_i.
    """

    type_id: LieType
    rank: int
    two_rho_check: tuple[int, ...]
    fund_log: np.ndarray
    dynkin_symmetry: tuple[int, ...]
    epsilon: int
    has_triality: bool

    @property
    def positive_coroots(self) -> np.ndarray:
        return coroot_columns(self.type_id)[0]

    @property
    def rho_pairings(self) -> np.ndarray:
        return coroot_columns(self.type_id)[1]

    @property
    def cartan(self) -> np.ndarray:
        cartan = _cartan_matrix(self.type_id.family, self.rank)
        cartan.flags.writeable = False
        return cartan


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


def diagram_automorphism(type_id: LieType) -> tuple[int, ...]:
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
    width = 2 * m
    while True:
        q = pvec - pair
        rs, ks = np.nonzero(q > 0)
        if rs.size == 0:
            break
        cand = level[rs].copy()
        cand[np.arange(rs.size), ks] += 1
        # Key each candidate by its big-endian bytes: the entries are
        # non-negative, so the keys sort in the same order as the rows.
        raw = cand.astype(">i2").tobytes()
        keys = [raw[i:i + width] for i in range(0, len(raw), width)]
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # first occurrence wins
        order = sorted(first)
        slot = {key: j for j, key in enumerate(order)}
        first_idx = np.fromiter((first[key] for key in order), dtype=np.intp, count=len(order))
        inv = np.fromiter((slot[key] for key in keys), dtype=np.intp, count=len(keys))
        uniq = cand[first_idx]
        new_pair = pair[rs[first_idx]] + C[ks[first_idx]]
        new_pvec = np.zeros((uniq.shape[0], m), dtype=np.int16)
        new_pvec[inv, ks] = pvec[rs, ks] + 1  # each (root, direction) has a unique parent
        chunks.append(uniq)
        level, pair, pvec = uniq, new_pair, new_pvec
    out = np.empty((sum(len(c) for c in chunks), m), dtype=np.int16, order="F")
    return np.concatenate(chunks, out=out)


# Families whose sub-rank windows sit at the high end of the diagram (the
# short/long/fork end); A, E, F and G grow from the low end.
_HIGH_END = ("B", "C", "D")

# Table cells per np.nonzero pass while summing the prefix tables; bounds
# the transient index arrays to a few MB.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class _FamilyTable:
    """Positive-coroot table of one family at the largest rank built so far.

    A row's need is the least rank whose window holds it, so rank r's rows
    are those with need <= r, in table order.  The matrix is column-major:
    one column of every row is one contiguous read.  Over rank r's rows,
    two_rho_cum[r, c] sums row[c] and fund_cum[r, c] sums
    log1p(row[c] / height), so the window columns of row r of these prefix
    tables give rank r's 2rho^vee and the log dimensions of its fundamental
    modules.
    """

    top: int
    matrix: np.ndarray  # N x top, int16, Fortran order, sorted by (height, lex)
    heights: np.ndarray  # N, int64
    need: np.ndarray  # N, int16, least rank whose window holds the row
    two_rho_cum: np.ndarray  # (top + 1) x top, int64
    fund_cum: np.ndarray  # (top + 1) x top, float64


_tables: dict[str, _FamilyTable] = {}
_tables_lock = threading.RLock()


def _build_table(family: str, top: int) -> _FamilyTable:
    mat = _string_closure(_cartan_matrix(family, top))
    heights = mat.sum(axis=1, dtype=np.int64)
    nz = mat != 0
    if family in _HIGH_END:
        need = top - nz.argmax(axis=1)  # top - first nonzero column
    else:
        need = top - nz[:, ::-1].argmax(axis=1)  # last nonzero column + 1
    del nz
    coord_sums = np.zeros((top + 1) * top)  # integer sums, exact in float64
    log_sums = np.zeros((top + 1) * top)
    step = max(1, _BLOCK_CELLS // top)
    for start in range(0, mat.shape[0], step):
        block = mat[start:start + step]
        r, c = np.nonzero(block)
        key = need[start + r] * top + c
        vals = block[r, c]
        coord_sums += np.bincount(key, weights=vals, minlength=coord_sums.size)
        log_sums += np.bincount(key, weights=np.log1p(vals / heights[start + r]),
                                minlength=log_sums.size)
    two_rho_cum = np.cumsum(coord_sums.astype(np.int64).reshape(top + 1, top), axis=0)
    fund_cum = np.cumsum(log_sums.reshape(top + 1, top), axis=0)
    need = need.astype(np.int16)  # like the matrix; each rank scan reads 2 bytes a row
    for arr in (mat, heights, need, two_rho_cum, fund_cum):
        arr.flags.writeable = False
    return _FamilyTable(top, mat, heights, need, two_rho_cum, fund_cum)


def _family_table(family: str, rank: int) -> _FamilyTable:
    with _tables_lock:
        tab = _tables.get(family)
        if tab is None or tab.top < rank:
            tab = _tables[family] = _build_table(family, rank)
        return tab


def prewarm_family(family: str, rank: int) -> None:
    """Build the family's coroot table at `rank` up front.

    Sub-ranks are then row selections of the cached table instead of fresh
    closures; useful before a scan that walks a whole rank range.
    """
    _family_table(family, rank)


def _window(family: str, rank: int, top: int) -> tuple[int, int]:
    # Sub-diagram window whose induced system is the same family at `rank`.
    if family in _HIGH_END:
        return top - rank, top
    return 0, rank


def coroot_columns(
    type_id: LieType, cols: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pairings and heights of the type's positive coroots, as read-only arrays.

    Read from the current family table.  With cols given, only the coroots
    that pair nonzero with some omega_j (j in cols) are kept, and only those
    columns; by default all coroots and all columns.  Rows keep the table's
    (height, lex) order.
    """
    tab = _family_table(type_id.family, type_id.rank)
    lo, hi = _window(type_id.family, type_id.rank, tab.top)
    keep = tab.need <= type_id.rank
    if cols is None:
        rows = keep.nonzero()[0]
        sub = tab.matrix[rows, lo:hi]
    else:
        cols = np.asarray(cols, dtype=np.intp) + lo
        meet = np.zeros(keep.size, dtype=bool)
        for c in cols:  # whole contiguous columns first, then the rank's rows
            meet |= tab.matrix[:, c] != 0
        rows = (meet & keep).nonzero()[0]
        sub = tab.matrix[np.ix_(rows, cols)]
    heights = tab.heights[rows]
    sub.flags.writeable = heights.flags.writeable = False
    return sub, heights


def _validate(type_id: LieType, tab: _FamilyTable, perm: tuple[int, ...]) -> None:
    rows = (tab.need <= type_id.rank).nonzero()[0]
    lo, hi = _window(type_id.family, type_id.rank, tab.top)
    heights = tab.heights[rows]
    n_expected = positive_coroot_count(type_id)
    n = rows.size
    if n != n_expected:
        raise AssertionError(f"{type_id}: generated {n} positive coroots, expected {n_expected}")
    simple = tab.matrix[rows[heights == 1], lo:hi]
    if simple.shape[0] != type_id.rank or not bool((simple.sum(axis=0) == 1).all()):
        raise AssertionError(f"{type_id}: simple coroot block is malformed")
    if heights.min() < 1:
        raise AssertionError(f"{type_id}: nonpositive height in coroot table")
    if [perm[p] for p in perm] != list(range(type_id.rank)):
        raise AssertionError(f"{type_id}: diagram symmetry is not an involution")
    cartan = _cartan_matrix(type_id.family, type_id.rank)
    if not bool((cartan[np.ix_(perm, perm)] == cartan).all()):
        raise AssertionError(f"{type_id}: Cartan matrix not fixed by the symmetry")


@lru_cache(maxsize=None)
def build_root_datum(type_id: LieType) -> RootDatum:
    """Construct (and verify) the root datum of one simple type, cached per type."""
    fam, m = type_id.family, type_id.rank
    tab = _family_table(fam, m)
    perm = diagram_automorphism(type_id)
    _validate(type_id, tab, perm)
    lo, hi = _window(fam, m, tab.top)
    fund_log = tab.fund_cum[m, lo:hi].copy()
    fund_log.flags.writeable = False
    return RootDatum(
        type_id=type_id,
        rank=m,
        two_rho_check=tuple(int(v) for v in tab.two_rho_cum[m, lo:hi]),
        fund_log=fund_log,
        dynkin_symmetry=perm,
        epsilon=_epsilon(type_id),
        has_triality=(fam == "D" and m == 4),
    )


def _clear_caches() -> None:
    """Test hook: drop the family tables and the per-type cache."""
    with _tables_lock:
        _tables.clear()
    build_root_datum.cache_clear()

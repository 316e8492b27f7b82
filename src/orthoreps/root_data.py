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
    height level.  String descent depths (p-values) are carried along
    incrementally, so no set lookups are needed: beta + alpha_k is a root
    iff p(beta, k) - <beta, alpha_k^vee> > 0.
    """
    m = cartan.shape[0]
    C = cartan.astype(np.int16)
    level = np.eye(m, dtype=np.int16)[::-1].copy()  # lex order within height 1
    pair = C[::-1].copy()
    pvec = np.zeros((m, m), dtype=np.int16)
    chunks = [level]
    while True:
        q = pvec - pair
        rs, ks = np.nonzero(q > 0)
        if rs.size == 0:
            break
        cand = level[rs].copy()
        cand[np.arange(rs.size), ks] += 1
        uniq, first, inv = np.unique(cand, axis=0, return_index=True, return_inverse=True)
        inv = inv.ravel()
        new_pair = pair[rs[first]] + C[ks[first]]
        new_pvec = np.zeros((uniq.shape[0], m), dtype=np.int16)
        new_pvec[inv, ks] = pvec[rs, ks] + 1  # each (root, direction) has a unique parent
        chunks.append(uniq)
        level, pair, pvec = uniq, new_pair, new_pvec
    return np.vstack(chunks)


@dataclass
class _FamilyTable:
    """Positive-coroot table of one family at the largest rank built so far."""

    top: int
    matrix: np.ndarray  # N x top, int16, sorted by (height, lex)
    heights: np.ndarray  # N, int64
    sup_min: np.ndarray  # first nonzero column per row
    sup_max: np.ndarray  # last nonzero column per row


_tables: dict[str, _FamilyTable] = {}
_tables_lock = threading.RLock()


def _family_table(family: str, rank: int) -> _FamilyTable:
    with _tables_lock:
        tab = _tables.get(family)
        if tab is None or tab.top < rank:
            mat = _string_closure(_cartan_matrix(family, rank))
            nz = mat != 0
            tab = _FamilyTable(
                top=rank,
                matrix=mat,
                heights=mat.sum(axis=1, dtype=np.int64),
                sup_min=nz.argmax(axis=1),
                sup_max=rank - 1 - nz[:, ::-1].argmax(axis=1),
            )
            _tables[family] = tab
        return tab


def prewarm_family(family: str, rank: int) -> None:
    """Build the family's coroot table at `rank` up front.

    Sub-ranks are then row filters of the cached table instead of fresh
    closures; useful before a scan that walks a whole rank range.
    """
    _family_table(family, rank)


def _window(family: str, rank: int, top: int) -> tuple[int, int]:
    # Sub-diagram window whose induced system is the same family at `rank`:
    # low end for the A and E chains, short/long/fork end for B, C, D.
    if family in ("B", "C", "D"):
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
    rows = np.nonzero((tab.sup_min >= lo) & (tab.sup_max < hi))[0]
    if cols is None:
        sub = tab.matrix[rows, lo:hi]
    else:
        sub = tab.matrix[np.ix_(rows, np.asarray(cols, dtype=np.intp) + lo)]
        meet = (sub != 0).any(axis=1)
        sub, rows = sub[meet], rows[meet]
    heights = tab.heights[rows]
    sub.flags.writeable = heights.flags.writeable = False
    return sub, heights


def _validate(type_id: LieType, coroots: np.ndarray, heights: np.ndarray,
              perm: tuple[int, ...]) -> None:
    n_expected = positive_coroot_count(type_id)
    n = coroots.shape[0]
    if n != n_expected:
        raise AssertionError(f"{type_id}: generated {n} positive coroots, expected {n_expected}")
    simple = heights == 1
    if int(simple.sum()) != type_id.rank or not bool((coroots[simple].sum(axis=0) == 1).all()):
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
    coroots, heights = coroot_columns(type_id)
    perm = diagram_automorphism(type_id)
    _validate(type_id, coroots, heights, perm)
    heights_f = heights.astype(np.float64)
    fund_log = np.empty(m, dtype=np.float64)
    for j in range(m):
        col = coroots[:, j]
        nz = np.nonzero(col)[0]
        fund_log[j] = float(np.log1p(col[nz] / heights_f[nz]).sum())
    fund_log.flags.writeable = False
    return RootDatum(
        type_id=type_id,
        rank=m,
        two_rho_check=tuple(int(v) for v in coroots.sum(axis=0, dtype=np.int64)),
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

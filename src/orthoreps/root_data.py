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

Every reader only sums or counts the coroots, so they come in no set
order.  Weyl dimensions are evaluated here, once, by dim_from_pairings: a
product of rational factors over the positive coroots, asserted to be
integral.  Simple roots are numbered in the Bourbaki convention throughout.
The Cartan matrix has entry ``cartan[i][j] = <alpha_j, alpha_i^vee>`` (row
= coroot index, column = root index), so the j-th column is the coordinate
vector of alpha_j in the fundamental-weight basis.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

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
# Above this largest h + s, dim_from_pairings counts the distinct values
# rather than bincounting every value from 0 up.
_DENSE_LIMIT = 1 << 16


def as_int(value: int, what: str) -> int:
    """value as a Python int; an integer type (Python or numpy) is required, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


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
        object.__setattr__(self, "rank", as_int(self.rank, "rank"))
        if self.rank < lo or (hi is not None and self.rank > hi):
            span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"family {self.family} needs rank {span}, got {self.rank}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def epsilon(self) -> int:
        """Order of the diagram symmetry available for twisting (1 or 2)."""
        fam, m = self.family, self.rank
        return 2 if (fam == "A" and m >= 2) or fam == "D" or (fam == "E" and m == 6) else 1


@dataclass(frozen=True, eq=False, slots=True)
class RootDatum:
    """Immutable per-type data for one simple Lie type.

    This is the package's one per-type record, cached per type by
    build_root_datum, so for A-D it holds O(1) data whatever the rank.
    coroot_columns supplies the coroots themselves; the module search keeps
    the blocks it reads per (type, active columns).  two_rho_check[i] is
    ``<omega_i, 2 rho^vee>``, the i-th coordinate of the sum of the positive
    coroots, and fund_dims[i] is the exact dimension of the fundamental
    module L(omega_i): for A-D each is a read-only sequence that evaluates
    the type's closed form at the one column asked for, and for E, F and G
    a tuple.  dynkin_symmetry is the package's one permutation of the
    columns realizing -w0, checked when the record is built: a range, or a
    tuple for D_m with m odd and for E6.
    """

    type_id: LieType
    two_rho_check: Sequence[int]
    fund_dims: Sequence[int]
    dynkin_symmetry: Sequence[int]


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


def _diagram_symmetry(type_id: LieType) -> Sequence[int]:
    """Permutation (0-based) of the nodes realizing -w0 on fundamental weights.

    Reversal for A_m (m >= 2), swap of the two fork nodes for D_m with m
    odd, the flip 1<->6 / 3<->5 for E6, identity otherwise.
    """
    m = type_id.rank
    fam = type_id.family
    if fam == "A" and m >= 2:
        return range(m - 1, -1, -1)
    if fam == "D" and m % 2 == 1:
        return (*range(m - 2), m - 1, m - 2)
    if fam == "E" and m == 6:
        return (5, 1, 4, 3, 2, 0)
    return range(m)


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
    heights = mat.sum(axis=1, dtype=np.int32)
    mat.flags.writeable = heights.flags.writeable = False
    return mat, heights


def _classical_steps(family: str, m: int, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """(f, p, q, height) of the classical coroots that meet cols, in no set order.

    A coroot's entry at column c is [c >= f] + [c >= p] - [c >= q], and it
    is zero left of f, so only the f up to the last col matter.  The
    e_i - e_j have f = i, p = m (never fires) and q = j, so they are the
    intervals [i, j - 1]; the one from i meets cols iff it reaches the least
    col >= i.  For B, C and D each e_i + e_j (2e_i for B, e_i for C) has
    f = i, p = j and q = m - 1, m or m - 2, and reaches column m - 1.
    Either way the height is m - f - p + q.
    """
    hits = np.sort(cols)
    firsts = np.arange(hits[-1] + 1 if hits.size else 0)
    nxt = hits[np.searchsorted(hits, firsts)]  # least col >= i
    top = m - 1 if family == "A" else m - 2  # e_i - e_j for j = nxt[i] + 1 up to top + 1
    starts, counts = nxt + 1, np.maximum(top + 1 - nxt, 0)
    q_plus = m
    if family != "A":  # e_i + e_j for j = i + j_lo up to j_top
        j_lo, q_plus, j_top = {"B": (0, m - 1, m - 1), "C": (1, m, m),
                               "D": (1, m - 2, m - 1)}[family]
        if family == "D" and firsts.size == m - 1:
            j_top = j_top - (nxt == m - 2)  # e_i + e_{m-1} is zero at column m - 2
        starts = np.concatenate((starts, firsts + j_lo))
        counts = np.concatenate((counts, j_top + 1 - j_lo - firsts))
    j = np.repeat(starts - np.cumsum(counts) + counts, counts)
    j += np.arange(j.size)  # run g counts up from starts[g]
    f = np.repeat(np.resize(firsts, counts.size), counts)  # each i heads a run of each kind
    minus = np.arange(j.size) < counts[:firsts.size].sum()
    p, q = np.where(minus, m, j), np.where(minus, j, q_plus)
    return f, p, q, (m - f - p + q).astype(np.int32)


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
    cols), in no set order, and returns their pairings with the omega_j,
    one column per entry of cols in the order given (column-major, int16),
    with their heights ``<rho, coroot>`` (int32: at most 2 * rank - 1).
    range(rank) gives every coroot.  For A-D only those coroots are built,
    from the closed forms; E, F and G read them from the cached closure.
    The result is not kept here: the module search keeps the blocks it
    reuses.
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


def _binomials(n: int, top: int) -> list[int]:
    """C(n, 0), ..., C(n, top), by the multiplicative recurrence."""
    row = [1]
    for k in range(top):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def _forms(family: str, m: int) -> tuple[int, int, bool, int, int, int]:
    """The closed forms of a classical type, declared once: (t, b, less, s, r, e).

    Column k = 1..m - s has <omega_k, 2 rho^vee> = k(t - k) and
    dim L(omega_k) = C(b, k), less C(b, k - 2) if less; the last s columns
    carry the spin modules, each with <omega_k, 2 rho^vee> = r and
    dimension 2^e.
    """
    if family == "A":
        return m + 1, m + 1, False, 0, 0, 0
    if family == "B":
        return 2 * m + 1, 2 * m + 1, False, 1, m * (m + 1) // 2, m
    if family == "C":
        return 2 * m, 2 * m, True, 0, 0, 0
    return 2 * m - 1, 2 * m, False, 2, m * (m - 1) // 2, m - 1  # D: the fork


class _ClosedForm(Sequence[int]):
    """One row of a type's _forms (dimensions or 2 rho^vee), read a column at a time.

    It reads like a tuple of the row, but keeps only the forms, so a record
    costs the same at every rank.
    """

    __slots__ = ("_cols", "_forms", "_dims")

    def __init__(self, cols: range, forms: tuple, dims: bool) -> None:
        self._cols, self._forms, self._dims = cols, forms, dims

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, c):
        c = self._cols[c]  # IndexError past either end; a slice gives a range
        if type(c) is range:
            return tuple(map(self.__getitem__, c))
        t, b, less, s, r, e = self._forms
        k = c + 1
        if k > len(self._cols) - s:
            return 2**e if self._dims else r
        if not self._dims:
            return k * (t - k)
        return math.comb(b, k) - (math.comb(b, k - 2) if less and k > 1 else 0)


def _classical_forms(family: str, m: int) -> tuple[list[int], list[int]]:
    """The rows of <omega_k, 2 rho^vee> and dim L(omega_k), k = 1..m, from _forms.

    The binomials come from one recurrence per type, not one C(b, k) per
    column.
    """
    t, b, less, s, r, e = _forms(family, m)
    ks = range(1, m - s + 1)
    row = _binomials(b, m - s)
    dims = [row[k] - (row[k - 2] if less and k > 1 else 0) for k in ks]
    return [k * (t - k) for k in ks] + [r] * s, dims + [2**e] * s


def _validate_symmetry(type_id: LieType, perm: Sequence[int], fund_dims: Sequence[int]) -> None:
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
    """Construct (and verify) the root datum of one simple type, cached per type.

    For A-D the rows of the closed forms are checked here and then dropped:
    the record reads them a column at a time.
    """
    fam, m = type_id.family, type_id.rank
    perm = _diagram_symmetry(type_id)
    if fam in "ABCD":
        dims = _classical_forms(fam, m)[1]
        cols, forms = range(m), _forms(fam, m)  # one of each per record, for both rows
        two_rho, fund_dims = _ClosedForm(cols, forms, False), _ClosedForm(cols, forms, True)
    else:
        mat, heights = _closure_coroots(type_id)
        two_rho = tuple(mat.sum(axis=0).tolist())
        dims = fund_dims = tuple(dim_from_pairings(heights, mat[:, k]) for k in range(m))
    _validate_symmetry(type_id, perm, dims)
    return RootDatum(type_id=type_id, two_rho_check=two_rho, fund_dims=fund_dims,
                     dynkin_symmetry=perm)

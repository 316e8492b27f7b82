import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps.irreps import default_scan_types
from orthoreps.root_data import (
    LieType,
    _RANK_RULES,
    _cartan_matrix,
    _classical_forms,
    _string_closure,
    build_root_datum,
    coroot_columns,
    positive_coroot_count,
)
from orthoreps.weights import weyl_dimension

from lie_strategies import any_family_type

SMALL_TYPES = [
    LieType("A", 1), LieType("A", 2), LieType("A", 3), LieType("A", 4),
    LieType("B", 2), LieType("B", 3), LieType("B", 4),
    LieType("C", 2), LieType("C", 3), LieType("C", 4),
    LieType("D", 4), LieType("D", 5),
    LieType("G", 2), LieType("F", 4), LieType("E", 6),
]

# Every A-D type up to rank 40, and the exceptional types.
ORACLE_TYPES = [LieType(fam, m) for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                for m in range(lo, 41)]
ORACLE_TYPES += [LieType("E", 6), LieType("E", 7), LieType("E", 8),
                 LieType("F", 4), LieType("G", 2)]


def all_coroots(type_id):
    """Every positive coroot of the type, with its height."""
    return coroot_columns(type_id, range(type_id.rank))


@functools.lru_cache(maxsize=None)
def closure_oracle(type_id):
    """The string closure of the type's Cartan matrix, with its heights."""
    full = _string_closure(_cartan_matrix(type_id.family, type_id.rank))
    return full, full.sum(axis=1, dtype=np.int64)


def same_coroots(rows, heights, want_rows, want_heights):
    """Whether two lists of (row, height) pairs are equal as multisets."""
    def canonical(r, h):
        order = np.lexsort((h, *r.T))
        return r[order], h[order]
    (a, h), (b, k) = canonical(rows, heights), canonical(want_rows, want_heights)
    return np.array_equal(a, b) and np.array_equal(h, k)


def reflection_closure(pairing_matrix: np.ndarray) -> set[tuple[int, ...]]:
    """Independent oracle: close the simple vectors under all simple reflections.

    pairing_matrix[i][k] is the pairing of basis vector i against the k-th
    reflection's covector, so reflection k subtracts
    (sum_i c_i pairing_matrix[i][k]) from coordinate k.  The closure is the
    whole system; its positive members are returned.
    """
    m = pairing_matrix.shape[0]
    roots = {tuple(int(v) for v in row) for row in np.eye(m, dtype=int)}
    while True:
        new = set()
        for beta in roots:
            for k in range(m):
                pairing = sum(c * int(pairing_matrix[i, k]) for i, c in enumerate(beta))
                img = list(beta)
                img[k] -= pairing
                img_t = tuple(img)
                if img_t not in roots:
                    new.add(img_t)
        if not new:
            return {r for r in roots if all(v >= 0 for v in r) and any(r)}
        roots |= new


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_closure_matches_reflection_oracle(type_id):
    # cartan[i][k] = <alpha_k, alpha_i^vee> is also the pairing matrix of the
    # dual system in the simple-coroot basis, so the reflection orbit of the
    # simple coroots under it is exactly the coroot system.
    expected = reflection_closure(_cartan_matrix(type_id.family, type_id.rank))
    got = {tuple(int(v) for v in row) for row in all_coroots(type_id)[0]}
    assert got == expected


def byte_key_closure(cartan: np.ndarray) -> np.ndarray:
    """Oracle: the string closure with a dict of byte keys as its row dedupe.

    Each candidate row is keyed by its big-endian bytes, which sort in the
    same order as the rows because the entries are non-negative.  The first
    occurrence of each key gives its pairings; every occurrence gives the same.
    """
    m = cartan.shape[0]
    C = cartan.astype(np.int16)
    level = np.eye(m, dtype=np.int16)[::-1].copy()
    pair = C[::-1].copy()
    pvec = np.zeros((m, m), dtype=np.int16)
    chunks = [level]
    width = 2 * m
    while True:
        rs, ks = np.nonzero(pvec - pair > 0)
        if rs.size == 0:
            break
        cand = level[rs].copy()
        cand[np.arange(rs.size), ks] += 1
        raw = cand.astype(">i2").tobytes()
        keys = [raw[i:i + width] for i in range(0, len(raw), width)]
        first = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        order = sorted(first)
        slot = {key: j for j, key in enumerate(order)}
        first_idx = np.array([first[key] for key in order], dtype=np.intp)
        inv = np.array([slot[key] for key in keys], dtype=np.intp)
        uniq = cand[first_idx]
        new_pair = pair[rs[first_idx]] + C[ks[first_idx]]
        new_pvec = np.zeros((uniq.shape[0], m), dtype=np.int16)
        new_pvec[inv, ks] = pvec[rs, ks] + 1
        chunks.append(uniq)
        level, pair, pvec = uniq, new_pair, new_pvec
    return np.vstack(chunks)


@pytest.mark.parametrize(
    "type_id",
    [LieType("A", 40), LieType("B", 40), LieType("C", 40), LieType("D", 40),
     LieType("E", 8), LieType("F", 4), LieType("G", 2)],
    ids=str,
)
def test_closure_matches_unique_oracle(type_id):
    # the np.unique dedupe of _string_closure against the byte-key oracle
    cartan = _cartan_matrix(type_id.family, type_id.rank)
    got = _string_closure(cartan)
    assert got.dtype == np.int16
    assert np.array_equal(got, byte_key_closure(cartan))


def test_coroots_differ_from_roots_for_asymmetric_types():
    # B and C coroot tables are each other's root tables; a transposed
    # pairing matrix must therefore give a different (dual) answer.
    b2 = {tuple(r) for r in all_coroots(LieType("B", 2))[0].tolist()}
    c2 = {tuple(r) for r in all_coroots(LieType("C", 2))[0].tolist()}
    assert b2 == {(0, 1), (1, 0), (1, 1), (2, 1)}
    assert c2 == {(0, 1), (1, 0), (1, 1), (1, 2)}
    assert b2 != c2


@pytest.mark.parametrize(
    "type_id",
    SMALL_TYPES + [LieType("A", 17), LieType("B", 20), LieType("C", 15),
                   LieType("D", 34), LieType("E", 7), LieType("E", 8)],
    ids=str,
)
def test_coroot_counts(type_id):
    coroots, _ = all_coroots(type_id)
    assert coroots.shape == (positive_coroot_count(type_id), type_id.rank)
    # rows are pairwise distinct
    assert len(np.unique(coroots, axis=0)) == coroots.shape[0]


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_rho_pairings(type_id):
    coroots, heights = all_coroots(type_id)
    assert heights.min() == 1
    assert np.array_equal(heights, coroots.sum(axis=1))
    simple = coroots[heights == 1]
    assert sorted(tuple(r) for r in simple.tolist()) == sorted(
        tuple(r) for r in np.eye(type_id.rank, dtype=int).tolist()
    )


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_two_rho_is_coroot_sum(type_id):
    datum = build_root_datum(type_id)
    assert (tuple(datum.two_rho_check) == all_coroots(type_id)[0].sum(axis=0)).all()
    assert all(v > 0 for v in datum.two_rho_check)


def test_a1_datum():
    coroots, heights = all_coroots(LieType("A", 1))
    assert coroots.shape[0] == 1
    assert heights.tolist() == [1]
    datum = build_root_datum(LieType("A", 1))
    assert tuple(datum.two_rho_check) == (1,) and tuple(datum.fund_dims) == (2,)


def test_d4_count():
    assert all_coroots(LieType("D", 4))[0].shape[0] == 12


def test_e8_highest_coroot_height():
    coroots, heights = all_coroots(LieType("E", 8))
    assert coroots.shape[0] == 120
    assert int(heights.max()) == 29


@st.composite
def type_and_columns(draw):
    t = draw(any_family_type())
    cols = draw(st.lists(st.integers(0, t.rank - 1), unique=True, max_size=min(t.rank, 6)))
    return t, cols


@settings(max_examples=150, deadline=None)
@given(type_and_columns())
def test_column_subset_matches_mask_oracle(tc):
    # Oracle: the string closure of the type, masked to the rows pairing
    # nonzero with some omega_j (j in cols), then the cols in the order given.
    t, cols = tc
    full, heights = closure_oracle(t)
    sub, sub_heights = coroot_columns(t, cols)
    meet = (full[:, cols] != 0).any(axis=1)
    want = full[meet][:, cols]
    assert sub.shape == want.shape and sub.dtype == want.dtype
    assert same_coroots(sub, sub_heights, want, heights[meet])
    assert sub_heights.dtype == np.int32  # at most 2 * rank - 1
    assert not sub.flags.writeable and not sub_heights.flags.writeable


@pytest.mark.parametrize("type_id", ORACLE_TYPES, ids=str)
def test_closed_forms_match_closure(type_id):
    # The A-D coroots, 2rho^vee and fundamental dimensions are closed forms;
    # the closure and Weyl's formula on the closure's columns must agree.
    full, heights = closure_oracle(type_id)
    coroots, got_heights = all_coroots(type_id)
    assert coroots.shape == full.shape and coroots.dtype == full.dtype
    assert same_coroots(coroots, got_heights, full, heights)
    datum = build_root_datum(type_id)
    assert tuple(datum.two_rho_check) == tuple(full.sum(axis=0).tolist())
    for i in range(type_id.rank):
        omega = tuple(int(j == i) for j in range(type_id.rank))
        assert datum.fund_dims[i] == weyl_dimension(datum, omega), (type_id, i)
        # One column at a time, so that every cut-off of the runs is met,
        # e.g. D's column m - 2 alone, which e_i + e_{m-1} does not meet.
        sub, sub_heights = coroot_columns(type_id, [i])
        meet = full[:, i] != 0
        assert same_coroots(sub, sub_heights, full[meet][:, [i]], heights[meet]), (type_id, i)


def rises_then_falls(row):
    """True iff d_j >= min(d_i, d_k) whenever i < j < k: the row does not
    fall before its first maximum nor rise after it."""
    top = row.index(max(row))
    return (all(a <= b for a, b in zip(row[:top], row[1:top + 1]))
            and all(a >= b for a, b in zip(row[top:], row[top + 1:])))


def test_fundamental_dimensions_rise_then_fall():
    # irreps._active_columns walks in from both ends, which finds every
    # column that fits a bound only on rows of this shape.
    for fam in "ABCD":
        for m in range(_RANK_RULES[fam][0], 1001):
            assert rises_then_falls(_classical_forms(fam, m)[1]), (fam, m)
    for t in (LieType("E", 6), LieType("E", 7), LieType("E", 8), LieType("F", 4),
              LieType("G", 2)):
        assert rises_then_falls(list(build_root_datum(t).fund_dims)), t


def test_column_reads_match_rows():
    # The A-D records evaluate the closed forms one column at a time; the
    # rows that build_root_datum checks come from the same forms by a
    # recurrence.
    for fam in "ABCD":
        for m in range(_RANK_RULES[fam][0], 401):
            datum = build_root_datum(LieType(fam, m))
            two_rho, dims = _classical_forms(fam, m)
            assert list(datum.two_rho_check) == two_rho, (fam, m)
            assert list(datum.fund_dims) == dims, (fam, m)
    datum, dims = build_root_datum(LieType("D", 9)), tuple(_classical_forms("D", 9)[1])
    assert len(datum.fund_dims) == 9 and datum.fund_dims[-1] == dims[-1]
    assert datum.fund_dims[1:8:3] == dims[1:8:3] and datum.fund_dims[::-1] == dims[::-1]
    for c in (9, -10):
        with pytest.raises(IndexError):
            datum.fund_dims[c]


def test_records_keep_no_rank_length_rows():
    # Every record of a scan at n = 796: the A-D rows are checked and then
    # dropped, so the records keep about 0.8 kB per type (the D_m, m odd,
    # permutation aside); with their rows they kept about 85 MB.
    types = default_scan_types(796)
    build_root_datum.cache_clear()
    tracemalloc.start()
    try:
        for t in types:
            build_root_datum(t)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        build_root_datum.cache_clear()
    assert kept < 2_000_000, kept


@pytest.mark.parametrize(
    "type_id,perm",
    [
        (LieType("A", 3), (2, 1, 0)),
        (LieType("A", 1), (0,)),
        (LieType("B", 5), (0, 1, 2, 3, 4)),
        (LieType("C", 4), (0, 1, 2, 3)),
        (LieType("D", 4), (0, 1, 2, 3)),
        (LieType("D", 5), (0, 1, 2, 4, 3)),
        (LieType("E", 6), (5, 1, 4, 3, 2, 0)),
        (LieType("E", 7), tuple(range(7))),
        (LieType("E", 8), tuple(range(8))),
        (LieType("F", 4), (0, 1, 2, 3)),
        (LieType("G", 2), (0, 1)),
    ],
    ids=str,
)
def test_diagram_automorphism(type_id, perm):
    assert tuple(build_root_datum(type_id).dynkin_symmetry) == perm


def lowest_weight_by_orbit(cartan: np.ndarray, weight: tuple[int, ...]) -> tuple[int, ...]:
    """Oracle for -w0: walk the Weyl orbit of a dominant weight to its
    antidominant element (all fundamental coordinates <= 0).

    Reflection k acts on fundamental coordinates as v -> v - v[k] * column_k
    of the Cartan matrix.
    """
    m = cartan.shape[0]
    seen = {weight}
    frontier = [weight]
    while frontier:
        nxt = []
        for v in frontier:
            for k in range(m):
                img = tuple(int(v[i] - v[k] * cartan[i, k]) for i in range(m))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    anti = [v for v in seen if all(c <= 0 for c in v)]
    assert len(anti) == 1
    return anti[0]


@pytest.mark.parametrize(
    "type_id",
    [LieType("A", 2), LieType("A", 3), LieType("A", 4), LieType("B", 3), LieType("C", 3),
     LieType("D", 4), LieType("D", 5), LieType("E", 6), LieType("F", 4), LieType("G", 2)],
    ids=str,
)
def test_symmetry_matches_weyl_orbit_oracle(type_id):
    m = type_id.rank
    cartan = _cartan_matrix(type_id.family, type_id.rank)
    perm = build_root_datum(type_id).dynkin_symmetry
    for i in range(m):
        omega = tuple(int(j == i) for j in range(m))
        lowest = lowest_weight_by_orbit(cartan, omega)
        minus_w0_omega = tuple(-c for c in lowest)
        expected = tuple(int(perm[j] == i) for j in range(m))
        assert minus_w0_omega == expected, (type_id, i)


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_symmetry_fixes_cartan(type_id):
    cartan = _cartan_matrix(type_id.family, type_id.rank)
    perm = list(build_root_datum(type_id).dynkin_symmetry)
    assert [perm[p] for p in perm] == list(range(type_id.rank))
    assert (cartan[np.ix_(perm, perm)] == cartan).all()


def test_build_rejects_asymmetric_fundamental_dimensions(monkeypatch):
    # -w0 keeps dimensions, so A3's reversal must fix its fundamental dimensions
    monkeypatch.setattr("orthoreps.root_data._classical_forms",
                        lambda fam, m: ([3, 4, 3], [4, 6, 5]))
    build_root_datum.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"A3: fundamental dimensions \(4, 6, 5\)"):
            build_root_datum(LieType("A", 3))
    finally:
        build_root_datum.cache_clear()


def test_epsilon_and_triality():
    assert build_root_datum(LieType("A", 1)).epsilon == 1
    assert build_root_datum(LieType("A", 5)).epsilon == 2
    assert build_root_datum(LieType("B", 3)).epsilon == 1
    assert build_root_datum(LieType("D", 6)).epsilon == 2
    assert build_root_datum(LieType("E", 6)).epsilon == 2
    assert build_root_datum(LieType("E", 7)).epsilon == 1
    assert build_root_datum(LieType("D", 4)).epsilon == 2


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 3), ("H", 2),
     ("A", 2.0), ("A", "3")],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        LieType(family, rank)


def test_integer_typed_ranks_stored_as_int():
    # A bool or numpy rank is an integer type: it is kept as the int it stands for.
    for rank, expected in ((True, 1), (np.int64(3), 3)):
        t = LieType("A", rank)
        assert t == LieType("A", expected) and hash(t) == hash(LieType("A", expected))
        assert type(t.rank) is int and str(t) == f"A{expected}"


def test_datum_arrays_immutable():
    for t in (LieType("B", 2), LieType("G", 2)):
        coroots, heights = all_coroots(t)
        with pytest.raises(ValueError):
            coroots[0, 0] = 5
        with pytest.raises(ValueError):
            heights[0] = 5


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_TYPES))
def test_natural_module_row_present(type_id):
    # the first fundamental coweight pairs to 1 with exactly the simple
    # coroots carrying coordinate 1 in slot 0; sanity of indexing
    col = coroot_columns(type_id, [0])[0][:, 0]
    assert col.max() >= 1

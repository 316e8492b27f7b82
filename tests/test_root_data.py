import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps.root_data import (
    LieType,
    _cartan_matrix,
    _string_closure,
    build_root_datum,
    coroot_columns,
    diagram_automorphism,
    positive_coroot_count,
)
from orthoreps.weights import weyl_dimension

from lie_strategies import any_family_type, prewarm_larger

SMALL_TYPES = [
    LieType("A", 1), LieType("A", 2), LieType("A", 3), LieType("A", 4),
    LieType("B", 2), LieType("B", 3), LieType("B", 4),
    LieType("C", 2), LieType("C", 3), LieType("C", 4),
    LieType("D", 4), LieType("D", 5),
    LieType("G", 2), LieType("F", 4), LieType("E", 6),
]


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
    datum = build_root_datum(type_id)
    expected = reflection_closure(_cartan_matrix(type_id.family, type_id.rank))
    got = {tuple(int(v) for v in row) for row in datum.positive_coroots}
    assert got == expected


def unique_closure(cartan: np.ndarray) -> np.ndarray:
    """Oracle: the string closure with np.unique(axis=0) as its row dedupe.

    np.unique sorts the candidate rows lexicographically and returns the
    first occurrence of each, which fixes the (height, lex) row order and
    the parent each new root's string depths are carried from.
    """
    m = cartan.shape[0]
    C = cartan.astype(np.int16)
    level = np.eye(m, dtype=np.int16)[::-1].copy()
    pair = C[::-1].copy()
    pvec = np.zeros((m, m), dtype=np.int16)
    chunks = [level]
    while True:
        rs, ks = np.nonzero(pvec - pair > 0)
        if rs.size == 0:
            break
        cand = level[rs].copy()
        cand[np.arange(rs.size), ks] += 1
        uniq, first, inv = np.unique(cand, axis=0, return_index=True, return_inverse=True)
        inv = inv.ravel()
        new_pair = pair[rs[first]] + C[ks[first]]
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
    cartan = _cartan_matrix(type_id.family, type_id.rank)
    got = _string_closure(cartan)
    assert got.dtype == np.int16
    assert np.array_equal(got, unique_closure(cartan))


def test_coroots_differ_from_roots_for_asymmetric_types():
    # B and C coroot tables are each other's root tables; a transposed
    # pairing matrix must therefore give a different (dual) answer.
    b2 = {tuple(r) for r in build_root_datum(LieType("B", 2)).positive_coroots.tolist()}
    c2 = {tuple(r) for r in build_root_datum(LieType("C", 2)).positive_coroots.tolist()}
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
    datum = build_root_datum(type_id)
    assert datum.positive_coroots.shape == (positive_coroot_count(type_id), type_id.rank)
    # rows are pairwise distinct
    assert len(np.unique(datum.positive_coroots, axis=0)) == datum.positive_coroots.shape[0]


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_rho_pairings(type_id):
    datum = build_root_datum(type_id)
    assert datum.rho_pairings.min() == 1
    simple = datum.positive_coroots[datum.rho_pairings == 1]
    assert sorted(tuple(r) for r in simple.tolist()) == sorted(
        tuple(r) for r in np.eye(type_id.rank, dtype=int).tolist()
    )
    assert (datum.rho_pairings >= 1).all()


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_two_rho_is_coroot_sum(type_id):
    datum = build_root_datum(type_id)
    assert (datum.two_rho_check == datum.positive_coroots.sum(axis=0)).all()
    assert all(v > 0 for v in datum.two_rho_check)


def test_a1_datum():
    datum = build_root_datum(LieType("A", 1))
    assert datum.positive_coroots.shape[0] == 1
    assert datum.rho_pairings.tolist() == [1]
    assert datum.two_rho_check == (1,)


def test_d4_count():
    assert build_root_datum(LieType("D", 4)).positive_coroots.shape[0] == 12


def test_e8_highest_coroot_height():
    datum = build_root_datum(LieType("E", 8))
    assert datum.positive_coroots.shape[0] == 120
    assert int(datum.rho_pairings.max()) == 29


def test_height_then_lex_ordering():
    datum = build_root_datum(LieType("B", 2))
    assert datum.positive_coroots.tolist() == [[0, 1], [1, 0], [1, 1], [2, 1]]
    for t in SMALL_TYPES:
        d = build_root_datum(t)
        rows = d.positive_coroots.tolist()
        keys = [(sum(r), tuple(r)) for r in rows]
        assert keys == sorted(keys)


def test_subrank_extraction_equals_direct_closure():
    # warm the family cache at a larger rank, then compare the derived
    # sub-rank table against a standalone closure of the same type
    import orthoreps.root_data as rd

    for fam, big, small in [("A", 9, 4), ("B", 9, 3), ("C", 9, 4), ("D", 9, 5), ("E", 8, 6)]:
        rd._clear_caches()
        rd.prewarm_family(fam, big)
        derived = build_root_datum(LieType(fam, small)).positive_coroots.copy()
        rd._clear_caches()
        direct = build_root_datum(LieType(fam, small)).positive_coroots.copy()
        assert (derived == direct).all(), (fam, small)


@pytest.mark.parametrize("type_id,top", [(LieType("B", 5), 40), (LieType("D", 6), 40)], ids=str)
def test_datum_survives_family_growth(type_id, top):
    # A datum keeps no coroot table: it reads the current family table, whose
    # B/C/D window moves when prewarm_family replaces it at a larger rank.
    import orthoreps.root_data as rd

    m = type_id.rank
    weights = [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(1,) * m]

    def snapshot(datum):
        return (datum.positive_coroots.tolist(), datum.rho_pairings.tolist(),
                [a.tolist() for a in rd.coroot_columns(type_id, [0, m - 1])],
                [weyl_dimension(datum, w) for w in weights])

    rd._clear_caches()
    datum = build_root_datum(type_id)
    before = snapshot(datum)
    rd.prewarm_family(type_id.family, top)
    assert snapshot(datum) == before
    assert snapshot(build_root_datum(type_id)) == before


@st.composite
def type_and_columns(draw):
    t = draw(any_family_type())
    cols = draw(st.lists(st.integers(0, t.rank - 1), unique=True, max_size=min(t.rank, 6)))
    return t, cols


@settings(max_examples=150, deadline=None)
@given(type_and_columns())
def test_column_subset_matches_mask_oracle(tc):
    # Oracle: all rows of the type, masked to those pairing nonzero with some
    # omega_j (j in cols), then the cols in the order given.
    t, cols = tc
    prewarm_larger(t)
    full, heights = coroot_columns(t)
    sub, sub_heights = coroot_columns(t, cols)
    meet = (full[:, cols] != 0).any(axis=1)
    want = full[meet][:, cols]
    assert sub.shape == want.shape and sub.dtype == want.dtype
    assert np.array_equal(sub, want)
    assert np.array_equal(sub_heights, heights[meet])
    assert not sub.flags.writeable and not sub_heights.flags.writeable


def test_datum_reads_stay_whole_while_the_family_grows():
    # Callers on several threads share build_root_datum and the family
    # tables; a reader racing a prewarm at a larger rank must see one whole
    # window.
    import sys
    import threading

    import orthoreps.root_data as rd

    rd._clear_caches()
    datum = build_root_datum(LieType("B", 5))
    want = [a.tolist() for a in rd.coroot_columns(datum.type_id)]
    done = threading.Event()
    bad = []

    def read():
        while not done.is_set():
            got = [a.tolist() for a in rd.coroot_columns(datum.type_id)]
            if got != want or build_root_datum(LieType("B", 5)).fund_log.tolist() != (
                    datum.fund_log.tolist()):
                bad.append(got)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for t in readers:
            t.start()
        for top in range(6, 21):
            rd.prewarm_family("B", top)
    finally:
        done.set()
        for t in readers:
            t.join(timeout=30)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in readers)
    assert bad == []


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
    assert diagram_automorphism(type_id) == perm


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
    cartan = build_root_datum(type_id).cartan
    perm = diagram_automorphism(type_id)
    for i in range(m):
        omega = tuple(int(j == i) for j in range(m))
        lowest = lowest_weight_by_orbit(cartan, omega)
        minus_w0_omega = tuple(-c for c in lowest)
        expected = tuple(int(perm[j] == i) for j in range(m))
        assert minus_w0_omega == expected, (type_id, i)


@pytest.mark.parametrize("type_id", SMALL_TYPES, ids=str)
def test_symmetry_fixes_cartan(type_id):
    datum = build_root_datum(type_id)
    perm = list(datum.dynkin_symmetry)
    assert [perm[p] for p in perm] == list(range(type_id.rank))
    assert (datum.cartan[np.ix_(perm, perm)] == datum.cartan).all()


def test_epsilon_and_triality():
    assert build_root_datum(LieType("A", 1)).epsilon == 1
    assert build_root_datum(LieType("A", 5)).epsilon == 2
    assert build_root_datum(LieType("B", 3)).epsilon == 1
    assert build_root_datum(LieType("D", 6)).epsilon == 2
    assert build_root_datum(LieType("E", 6)).epsilon == 2
    assert build_root_datum(LieType("E", 7)).epsilon == 1
    d4 = build_root_datum(LieType("D", 4))
    assert d4.epsilon == 2 and d4.has_triality
    assert not build_root_datum(LieType("D", 5)).has_triality


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 3), ("H", 2)],
)
def test_invalid_types_rejected(family, rank):
    with pytest.raises(ValueError):
        LieType(family, rank)


def test_parse_roundtrip():
    assert LieType.parse("D34") == LieType("D", 34)
    assert str(LieType.parse(" E6 ")) == "E6"
    with pytest.raises(ValueError):
        LieType.parse("X2")


def test_datum_arrays_immutable():
    datum = build_root_datum(LieType("B", 2))
    with pytest.raises(ValueError):
        datum.positive_coroots[0, 0] = 5


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL_TYPES))
def test_natural_module_row_present(type_id):
    # the first fundamental coweight pairs to 1 with exactly the simple
    # coroots carrying coordinate 1 in slot 0; sanity of indexing
    datum = build_root_datum(type_id)
    col = datum.positive_coroots[:, 0]
    assert col.max() >= 1

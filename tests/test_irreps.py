import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps import irreps, weights
from orthoreps.arith import is_prime
from orthoreps.cli import run
from orthoreps.irreps import (
    ExceptionRecord,
    _active_columns,
    _search_columns,
    candidate_json,
    candidates_of_dimension,
    default_scan_types,
    enumerate_restricted,
    load_exceptions,
)
from orthoreps.root_data import LieType, _cartan_matrix, build_root_datum, coroot_columns
from orthoreps.steinberg import classify_orthogonal
from orthoreps.weights import weyl_dimension

from lie_strategies import FAMILY_RANKS
from test_weights import positive_roots

A1 = LieType("A", 1)


def box_enumeration(type_id, bound):
    """Oracle: scan an axis-capped coefficient box with direct Weyl dimensions.

    Per-axis caps come from single-coordinate weights only, so the box is a
    superset of the hits regardless of how the production search walks the
    lattice.
    """
    datum = build_root_datum(type_id)
    caps = []
    for i in range(type_id.rank):
        cap = 0
        while True:
            w = [0] * type_id.rank
            w[i] = cap + 1
            if weyl_dimension(datum, tuple(w)) > bound:
                break
            cap += 1
        caps.append(cap)
    hits = []
    for w in itertools.product(*(range(c + 1) for c in caps)):
        dim = weyl_dimension(datum, w)
        if dim <= bound:
            hits.append((w, dim))
    return sorted(hits, key=lambda t: (t[1], t[0]))


ORACLE_CASES = [
    (LieType("A", 1), 25),
    (LieType("A", 2), 60),
    (LieType("A", 3), 100),
    (LieType("A", 4), 80),
    (LieType("B", 2), 100),
    (LieType("B", 3), 100),
    (LieType("B", 4), 60),
    (LieType("C", 3), 100),
    (LieType("C", 4), 90),
    (LieType("D", 4), 100),
    (LieType("G", 2), 100),
    (LieType("F", 4), 300),
]


@pytest.mark.parametrize("type_id,bound", ORACLE_CASES, ids=lambda v: str(v))
def test_search_matches_box_oracle(type_id, bound):
    got = [(c.weight, c.dim) for c in enumerate_restricted(type_id, bound)]
    assert got == box_enumeration(type_id, bound)


@pytest.mark.parametrize(
    "type_id,bound",
    [
        (LieType("A", 6), 300),
        (LieType("B", 5), 300),
        (LieType("C", 6), 250),
        (LieType("D", 6), 300),
        (LieType("E", 6), 300),
        (LieType("A", 12), 200),
    ],
    ids=lambda v: str(v),
)
def test_search_matches_box_oracle_mid_rank(type_id, bound):
    # exercises the active-coordinate restriction where most coordinates are
    # pruned before the walk starts
    got = [(c.weight, c.dim) for c in enumerate_restricted(type_id, bound)]
    assert got == box_enumeration(type_id, bound)


def test_a1_bound_10():
    cands = enumerate_restricted(A1, 10)
    assert [(c.weight, c.dim) for c in cands] == [((a,), a + 1) for a in range(10)]


def test_b2_bound_5_table():
    cands = enumerate_restricted(LieType("B", 2), 5)
    assert [(c.weight, c.dim, c.self_dual, c.fs) for c in cands] == [
        ((0, 0), 1, True, 1),
        ((0, 1), 4, True, -1),
        ((1, 0), 5, True, 1),
    ]


def test_e8_bound_300():
    cands = enumerate_restricted(LieType("E", 8), 300)
    assert [(c.weight, c.dim) for c in cands] == [
        ((0,) * 8, 1),
        ((0, 0, 0, 0, 0, 0, 0, 1), 248),
    ]


def test_large_rank_bound_covers_both_ends():
    cands = enumerate_restricted(LieType("A", 291), 292)
    weights = {c.weight for c in cands if c.dim == 292}
    w1 = (1,) + (0,) * 290
    w291 = (0,) * 290 + (1,)
    assert weights == {w1, w291}


def test_first_level_dims_are_not_recomputed(monkeypatch):
    # A200 at 292: omega_1 and omega_200 (dim 201) are the only fundamental
    # modules that fit.  Their exact dims from the RootDatum start the walk,
    # and three exact products try 2 omega_1, omega_1 + omega_200 and
    # 2 omega_200.
    import orthoreps.irreps as irreps_module

    calls = []
    real = irreps_module.dim_from_pairings

    def counted(heights, pairings):
        calls.append(1)
        return real(heights, pairings)

    monkeypatch.setattr(irreps_module, "dim_from_pairings", counted)
    cands = enumerate_restricted(LieType("A", 200), 292)
    assert [c.dim for c in cands] == [1, 201, 201]
    assert len(calls) == 3


@pytest.mark.parametrize("type_id", [LieType("A", 5), LieType("D", 7), LieType("E", 6)],
                         ids=str)
def test_column_cache_is_transparent(type_id):
    datum = build_root_datum(type_id)
    bounds = sorted({1, 50, 300, *datum.fund_dims[:4]})
    fresh = {}
    for b in bounds:
        _search_columns.cache_clear()
        fresh[b] = enumerate_restricted(type_id, b)
    _search_columns.cache_clear()
    for order in (bounds[::-1], bounds, bounds):  # descending, ascending, repeated
        for b in order:
            assert enumerate_restricted(type_id, b) == fresh[b]


@pytest.mark.parametrize("type_id", [LieType("A", 5), LieType("B", 4), LieType("C", 5),
                                     LieType("D", 7), LieType("E", 6), LieType("F", 4),
                                     LieType("G", 2)], ids=str)
def test_readers_treat_coroots_as_a_set(type_id, monkeypatch):
    # Every reader only sums or counts the coroots, so handing them over
    # reversed or shuffled changes no module and no dimension.
    datum = build_root_datum(type_id)
    bounds = sorted({1, 50, 300, *datum.fund_dims})
    rng = np.random.default_rng(7)
    sample = [tuple(rng.integers(0, 4, type_id.rank).tolist()) for _ in range(12)]
    _search_columns.cache_clear()
    modules = [enumerate_restricted(type_id, b) for b in bounds]
    dims = [weyl_dimension(datum, w) for w in sample]
    for order in (lambda k: np.arange(k)[::-1], rng.permutation):
        def reordered(t, cols, order=order):
            sub, heights = coroot_columns(t, cols)
            perm = order(heights.size)
            sub, heights = sub[perm], heights[perm]
            sub.flags.writeable = heights.flags.writeable = False
            return sub, heights

        monkeypatch.setattr(irreps, "_search_columns", reordered)
        monkeypatch.setattr(weights, "coroot_columns", reordered)
        try:
            assert [enumerate_restricted(type_id, b) for b in bounds] == modules
            assert [weyl_dimension(datum, w) for w in sample] == dims
        finally:
            monkeypatch.undo()
            _search_columns.cache_clear()


def test_column_cache_is_read_only():
    datum = build_root_datum(LieType("D", 7))
    sub, heights = _search_columns(datum.type_id, _active_columns(datum, 100))
    assert heights.dtype == np.int32  # at most 2 * rank - 1
    with pytest.raises(ValueError):
        sub[0, 0] = 1
    with pytest.raises(ValueError):
        heights[0] = 1


@pytest.mark.parametrize("type_id", [LieType("A", 9), LieType("B", 6), LieType("C", 5),
                                     LieType("D", 7), LieType("E", 6), LieType("G", 2)],
                         ids=str)
def test_column_cache_holds_at_most_rank_plus_one_entries(type_id):
    # a sweep of bounds across every fundamental dimension
    dims = sorted(set(build_root_datum(type_id).fund_dims))
    _search_columns.cache_clear()
    for d in dims:
        for b in (d - 1, d, d + 1):
            enumerate_restricted(type_id, max(b, 1))
    assert _search_columns.cache_info().currsize <= type_id.rank + 1


def test_natural_modules_at_rank_near_800():
    # Bound 796: A795 has both natural modules, C398 and D398 one each, and
    # B398's natural module (797) is one too many.  Per call only the
    # coroots that meet the fitting columns are generated.
    import time

    start = time.perf_counter()
    got = {t: [(c.weight, c.dim) for c in enumerate_restricted(t, 796)]
           for t in (LieType("A", 795), LieType("B", 398), LieType("C", 398), LieType("D", 398))}
    elapsed = time.perf_counter() - start

    def omega(m, *ones):
        return tuple(int(i in ones) for i in range(m))

    assert got[LieType("A", 795)] == [(omega(795), 1), (omega(795, 794), 796), (omega(795, 0), 796)]
    assert got[LieType("B", 398)] == [(omega(398), 1)]
    assert got[LieType("C", 398)] == [(omega(398), 1), (omega(398, 0), 796)]
    assert got[LieType("D", 398)] == [(omega(398), 1), (omega(398, 0), 796)]
    assert elapsed < 1.0


def test_trivial_included_and_sorted():
    cands = enumerate_restricted(LieType("C", 3), 20)
    assert cands[0].weight == (0, 0, 0) and cands[0].dim == 1
    keys = [(c.dim, c.weight) for c in cands]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_min_char_records_restrictedness():
    cands = enumerate_restricted(A1, 70)
    by_weight = {c.weight: c for c in cands}
    assert by_weight[(67,)].min_char == 68
    assert by_weight[(3,)].min_char == 20


def test_candidates_restricted_at_their_min_char():
    for t in (A1, LieType("B", 3), LieType("D", 4)):
        for c in enumerate_restricted(t, 60):
            assert all(0 <= a < c.min_char for a in c.weight)
            assert c.min_char >= 20


def test_bad_bound():
    with pytest.raises(ValueError):
        enumerate_restricted(A1, 0)


def test_rerun_is_byte_identical(capsys):
    def dump():
        assert run(["enumerate", "--family", "B", "--rank", "3", "--bound", "50"]) == 0
        return capsys.readouterr().out

    first = dump()
    assert first and dump() == first


def test_jsonl_schema():
    cands = enumerate_restricted(LieType("B", 2), 5)
    obj = candidate_json(cands[1])
    assert list(obj) == ["family", "rank", "weight", "dim", "self_dual", "fs", "epsilon", "min_char"]
    assert obj == {
        "family": "B", "rank": 2, "weight": [0, 1], "dim": "4",
        "self_dual": True, "fs": -1, "epsilon": 1, "min_char": 20,
    }
    assert isinstance(json.loads(json.dumps(obj))["dim"], str)


class TestCandidatesOfDimension:
    def test_dim2_only_a1(self):
        types = default_scan_types(2)
        assert [c for c in candidates_of_dimension(types, 2) if c.type_id != A1] == []
        a1 = candidates_of_dimension([A1], 2)
        assert [(c.weight, c.fs) for c in a1] == [((1,), -1)]

    def test_dim4(self):
        non_a1 = [t for t in default_scan_types(4) if t != A1]
        got = [(str(c.type_id), c.weight, c.self_dual, c.fs) for c in candidates_of_dimension(non_a1, 4)]
        assert got == [
            ("A3", (0, 0, 1), False, 0),
            ("A3", (1, 0, 0), False, 0),
            ("B2", (0, 1), True, -1),
        ]

    def test_dim68_self_dual(self):
        got = [c for c in candidates_of_dimension(default_scan_types(68), 68) if c.self_dual]
        labels = [(str(c.type_id), c.fs) for c in got]
        assert labels == [("A1", -1), ("C34", -1), ("D34", 1)]
        assert got[0].weight == (67,)
        assert got[0].min_char == 68

    def test_scan_types_skips_rank2_c(self):
        types = default_scan_types(10)
        assert LieType("B", 2) in types
        assert LieType("C", 2) not in types
        assert LieType("C", 3) in types
        assert LieType("A", 9) in types and LieType("A", 10) not in types
        assert LieType("B", 5) in types and LieType("B", 6) not in types
        assert LieType("D", 5) in types and LieType("D", 6) not in types


EXC_HEADER = "family,rank,weight,ell,dim"
B2_22 = ExceptionRecord(LieType("B", 2), (2, 2), 7, 71)
B2_32 = ExceptionRecord(LieType("B", 2), (3, 2), 7, 61)
CRLF_TEXT = f"{EXC_HEADER}\r\nB,2,[2,2],7,71\r\n"


def _write(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("make_source,expected", [
    (lambda tmp: [EXC_HEADER, 'B,2,"[2,2]",7,71'], (B2_22,)),
    (lambda tmp: [EXC_HEADER, "B,2,[3,2],7,61"], (B2_32,)),
    (lambda tmp: [EXC_HEADER, "B, 2, [2, 2], 7, 71", "B, 2, [3,2] ,7 , 61 "], (B2_22, B2_32)),
    (lambda tmp: ['"family","rank","weight","ell","dim"', '"B","2","[2,2]","7","71"'], (B2_22,)),
    (lambda tmp: ["", "  ", EXC_HEADER, "", "B,2,[2,2],7,71", "   ", "B,2,[3,2],7,61", ""],
     (B2_22, B2_32)),
    (lambda tmp: CRLF_TEXT.splitlines(keepends=True), (B2_22,)),
    (lambda tmp: io.StringIO(CRLF_TEXT), (B2_22,)),
    (lambda tmp: io.StringIO(f"{EXC_HEADER}\nB,2,[3,2],7,61\n"), (B2_32,)),
    (lambda tmp: _write(tmp / "exc.csv", CRLF_TEXT.encode()), (B2_22,)),
    (lambda tmp: str(_write(tmp / "exc.csv", b"family,rank,weight,ell,dim\nB,2,[3,2],7,61")),
     (B2_32,)),
], ids=["quoted", "unquoted", "spaced", "all-quoted", "blank-lines", "crlf-lines",
        "crlf-stream", "stream", "crlf-path", "path-str"])
def test_loader_accepted_forms(tmp_path, make_source, expected):
    assert load_exceptions(make_source(tmp_path)) == expected


@pytest.mark.parametrize("row,message", [
    ("B,2,[2,2],7", "line 3: expected 5 fields, got 4"),
    (",", "line 3: expected 5 fields, got 2"),
    ("B,2,2,7,71", "line 3: weight must be a bracketed list, got '2'"),
    ("X,2,[2,2],7,71", "line 3: unknown family 'X'; expected one of A..G"),
    ("B,1,[2],7,2", "line 3: family B needs rank >= 2, got 1"),
    ("B,2,[2,2],seven,71", "line 3: invalid literal for int() with base 10: 'seven'"),
    ("B,2,[-1,2],7,1",
     "line 3: weight (-1, 2) has a negative coefficient; dominance requires >= 0"),
    ("B,2,[2,2,2],7,71", "line 3: weight length 3 does not match rank 2"),
    ("B,2,[2,2],9,71", "line 3: ell=9 is not prime"),
    ("B,2,[2,2],7,0", "line 3: corrected dimension must be positive"),
    ("B,2,[1,0],7,500",
     "line 3: corrected dimension 500 exceeds the generic dimension 5 of B2 weight [1, 0]"),
    ("B,2,[2,2],7,70", "line 3: duplicate record (first seen on line 2)"),
    ("B,2,[2,2],23,71",
     "line 3: B2 weight [2, 2] has <lambda+rho, theta^vee> = 9 <= ell=23, so L = V there"),
    (None, "line 2: bad header 'family,rank,ell,dim'; expected family,rank,weight,ell,dim"),
], ids=["few-fields", "empty-fields", "unbracketed", "family", "rank", "non-integer", "negative",
        "weight-length", "ell-not-prime", "dim-zero", "dim-above-generic", "duplicate",
        "bottom-alcove", "header"])
def test_loader_rejections_name_line_and_reason(row, message):
    # The row is line 3, after the header and a valid row; the bad header is
    # line 2, after a blank line.
    lines = ["", "family,rank,ell,dim", "B,2,7,71"] if row is None else [
        EXC_HEADER, "B,2,[2,2],7,71", row]
    with pytest.raises(ValueError) as err:
        load_exceptions(lines)
    assert str(err.value) == message


class TestExceptions:
    def test_empty_stream(self):
        assert load_exceptions(io.StringIO("")) == ()

    def test_round_trip(self):
        rows = [EXC_HEADER, 'B,2,"[2,2]",7,71', "B,2,[3,2],7,61"]
        recs = load_exceptions(rows)
        assert recs == (
            ExceptionRecord(LieType("B", 2), (2, 2), 7, 71),
            ExceptionRecord(LieType("B", 2), (3, 2), 7, 61),
        )

    def test_oversized_dimension_rejected(self):
        rows = [EXC_HEADER, "B,2,[1,0],7,500"]
        with pytest.raises(ValueError, match="line 2.*exceeds the generic"):
            load_exceptions(rows)

    def test_huge_weight_row_checked(self):
        recs = load_exceptions([EXC_HEADER, 'A,1,"[1000000000000]",7,1'])
        assert recs == (ExceptionRecord(LieType("A", 1), (10**12,), 7, 1),)

    def test_duplicate_rejected(self):
        rows = [EXC_HEADER, "B,2,[2,2],7,71", "B,2,[2,2],7,70"]
        with pytest.raises(ValueError, match="duplicate.*line 2"):
            load_exceptions(rows)

    def test_malformed_row_names_line(self):
        rows = [EXC_HEADER, "B,2,[2,2],7"]
        with pytest.raises(ValueError, match="line 2"):
            load_exceptions(rows)

    def test_nonprime_ell_rejected(self):
        rows = [EXC_HEADER, "B,2,[2,2],9,71"]
        with pytest.raises(ValueError, match="not prime"):
            load_exceptions(rows)

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            load_exceptions(["family,rank,ell,dim", "B,2,7,71"])

    def test_exception_raises_min_char(self):
        # a record at ell >= 20 moves the trust floor above that ell; L(10, 1)
        # is 1144-dimensional, with <lambda + rho, theta^vee> = 24 > 23
        recs = load_exceptions([EXC_HEADER, "B,2,[10,1],23,71"])
        cands = enumerate_restricted(LieType("B", 2), 1200, recs)
        by_weight = {c.weight: c for c in cands}
        assert by_weight[(10, 1)].min_char == 24
        assert by_weight[(1, 1)].min_char == 20

    def test_record_must_lower_the_generic_dimension(self):
        # L(9) of A1 has the generic dimension 10 at ell = 23, so a record
        # giving 10 corrects nothing and would list the module twice.
        with pytest.raises(ValueError, match="line 2: corrected dimension 10 equals the generic"):
            load_exceptions([EXC_HEADER, "A,1,[9],23,10"])
        with pytest.raises(ValueError, match="equals the generic"):
            ExceptionRecord(A1, (9,), 23, 10)
        # L(12) = L(1) (x) L(1)^[1] at ell = 11 has dimension 4: listed once, flagged.
        report = classify_orthogonal(4, exceptions=[ExceptionRecord(A1, (12,), 11, 4)])
        hits = [tc.non_generic_ell for tc in report.orthogonal + report.symplectic
                if (tc.type_id, tc.factors[0].weight) == (A1, (12,))]
        assert hits == [11]

    def test_small_ell_exception_keeps_floor(self):
        recs = load_exceptions([EXC_HEADER, "B,2,[2,2],7,71"])
        cands = enumerate_restricted(LieType("B", 2), 100, recs)
        by_weight = {c.weight: c for c in cands}
        assert by_weight[(2, 2)].min_char == 20


def highest_coroot(type_id):
    """theta^vee in the simple-coroot basis, so <lambda + rho, theta^vee> = sum c_i (lambda_i + 1).

    The classical rows are written out; for E, F and G it is the highest
    root of the coroot system, whose Cartan matrix is the transpose.
    """
    fam, m = type_id.family, type_id.rank
    if fam in "ABCD":
        return {"A": (1,) * m, "B": (2,) * (m - 1) + (1,), "C": (1,) + (2,) * (m - 1),
                "D": (1,) + (2,) * (m - 3) + (1, 1)}[fam]
    return max(positive_roots(_cartan_matrix(fam, m).T.tolist()), key=sum)


def alcove_value(type_id, weight):
    return sum(c * (a + 1) for c, a in zip(highest_coroot(type_id), weight))


@pytest.mark.parametrize("n", [68, 292])
def test_weyl_dimension_bounds_alcove_value(n):
    # The lemma in ExceptionRecord: dim V(lambda) >= <lambda + rho, theta^vee>
    # for lambda != 0, on every module a report of dimension n can list.
    for t in default_scan_types(n):
        for cand in enumerate_restricted(t, n):
            if any(cand.weight):
                assert alcove_value(t, cand.weight) <= cand.dim, (t, cand.weight)


SMALL_RANK_TYPES = [LieType(fam, m) for fam, (lo, hi) in sorted(FAMILY_RANKS.items())
                    for m in range(lo, min(hi, 8) + 1)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_RANK_TYPES), st.sampled_from([p for p in range(100) if is_prime(p)]),
       st.data())
def test_record_accepted_iff_above_bottom_alcove(type_id, ell, data):
    weight = data.draw(st.lists(st.integers(0, 5), min_size=type_id.rank,
                                max_size=type_id.rank).filter(any))
    if alcove_value(type_id, weight) > ell:
        ExceptionRecord(type_id, weight, ell, 1)
    else:
        with pytest.raises(ValueError, match=r"theta\^vee> = \d+ <= ell"):
            ExceptionRecord(type_id, weight, ell, 1)

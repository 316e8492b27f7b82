import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoreps import steinberg
from orthoreps.irreps import (
    GENERIC_CHAR_FLOOR,
    ExceptionRecord,
    IrrepCandidate,
    default_scan_types,
    load_exceptions,
)
from orthoreps.root_data import LieType, build_root_datum
from orthoreps.steinberg import (
    MODE_ALL,
    MODE_ORBIT,
    ClassificationReport,
    ExclusionNote,
    classify_orthogonal,
    evidence_json,
    factorizations,
    report_json,
    steinberg_products,
    theorem1_sweep,
    verify_theorem1,
)

A1 = LieType("A", 1)

# Each type at an n with multi-factor products, in both modes; A3, D5 and E6
# give factors that are not self-dual.
DERIVATION_CASES = [
    (type_id, n, mode)
    for type_id, n in [(A1, 36), (A1, 64), (LieType("A", 3), 16), (LieType("B", 2), 16),
                       (LieType("C", 4), 64), (LieType("D", 5), 256), (LieType("G", 2), 49),
                       (LieType("E", 6), 729)]
    for mode in (MODE_ORBIT, MODE_ALL)
]


class TestFactorizations:
    def test_twelve(self):
        assert set(factorizations(12)) == {(12,), (2, 6), (3, 4), (2, 2, 3)}

    def test_prime(self):
        assert factorizations(7) == ((7,),)

    def test_four_pi(self):
        for pi in (17, 73):
            assert set(factorizations(4 * pi)) == {
                (4 * pi,), (2, 2 * pi), (4, pi), (2, 2, pi)
            }

    def test_too_small(self):
        with pytest.raises(ValueError):
            factorizations(1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 400))
    def test_products_and_canonical_form(self, n):
        facts = factorizations(n)
        assert len(set(facts)) == len(facts)
        for fact in facts:
            prod = 1
            for f in fact:
                prod *= f
                assert f > 1
            assert prod == n
            assert tuple(sorted(fact)) == fact


class TestSteinbergProducts:
    def test_a1_dim68_orbit_single_factor_only(self):
        prods = steinberg_products(A1, 68, MODE_ORBIT)
        assert len(prods) == 1
        assert [f.weight for f in prods[0].factors] == [(67,)]
        assert prods[0].fs == -1

    def test_a1_dim4_orbit(self):
        prods = steinberg_products(A1, 4, MODE_ORBIT)
        shapes = [[f.dim for f in tc.factors] for tc in prods]
        assert shapes == [[4], [2, 2]]
        square = prods[1]
        assert square.factors[0].weight == square.factors[1].weight == (1,)
        assert square.fs == 1 and square.self_dual

    def test_b2_dim16_all_contains_spin_square(self):
        prods = steinberg_products(LieType("B", 2), 16, MODE_ALL)
        assert any(
            [f.weight for f in tc.factors] == [(0, 1), (0, 1)] for tc in prods
        )

    def test_dim_multiplicative(self):
        for type_id, n, mode in DERIVATION_CASES:
            products = steinberg_products(type_id, n, mode)
            assert products
            for tc in products:
                assert tc.dim == math.prod(f.dim for f in tc.factors) == n
                assert tc.min_char == max(f.min_char for f in tc.factors)

    @pytest.mark.parametrize("type_id,n", [(A1, 16), (A1, 36), (LieType("B", 2), 16), (LieType("A", 3), 16)])
    def test_orbit_subset_of_all(self, type_id, n):
        orbit = {tuple((f.weight, f.dim) for f in tc.factors) for tc in steinberg_products(type_id, n, MODE_ORBIT)}
        full = {tuple((f.weight, f.dim) for f in tc.factors) for tc in steinberg_products(type_id, n, MODE_ALL)}
        assert orbit <= full

    def test_sign_rule_on_products(self):
        for type_id, n, mode in DERIVATION_CASES:
            products = steinberg_products(type_id, n, mode)
            for tc in products:
                assert tc.fs == math.prod(f.fs for f in tc.factors)
                assert tc.self_dual == (tc.fs != 0) == all(f.self_dual for f in tc.factors)
            if type_id in (LieType("A", 3), LieType("D", 5), LieType("E", 6)):
                assert any(not f.self_dual for tc in products for f in tc.factors)

    def test_min_char_exceeds_coefficients(self):
        for tc in steinberg_products(A1, 68, MODE_ALL):
            top = max(max(f.weight) for f in tc.factors)
            assert tc.min_char > top >= 0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            steinberg_products(A1, 4, "both")


class TestClassify:
    def test_n2_empty_orthogonal_with_notes(self):
        report = classify_orthogonal(2)
        assert report.orthogonal == ()
        assert [(str(tc.type_id), [f.dim for f in tc.factors]) for tc in report.symplectic] == [("A1", [2])]
        assert report.notes
        assert all(n.rule == "missing-factor-dimension" for n in report.notes)

    def test_n12_orbit(self):
        report = classify_orthogonal(12, min_char=20)
        orth = [(str(tc.type_id), [f.weight for f in tc.factors]) for tc in report.orthogonal]
        assert orth == [("D6", [(1, 0, 0, 0, 0, 0)])]
        sympl = {(str(tc.type_id), tuple(f.dim for f in tc.factors)) for tc in report.symplectic}
        assert ("C6", (12,)) in sympl
        assert ("A1", (12,)) in sympl

    def test_n68_orbit(self):
        report = classify_orthogonal(68, min_char=69)
        assert [str(tc.type_id) for tc in report.orthogonal] == ["D34"]
        sympl = {str(tc.type_id) for tc in report.symplectic}
        assert {"A1", "C34"} <= sympl
        assert report.excluded_non_self_dual >= 2  # the two A67 naturals

    def test_all_mode_at_68_shows_a1_products(self):
        report = classify_orthogonal(68, min_char=69, mode=MODE_ALL)
        orth = {(str(tc.type_id), tuple(f.dim for f in tc.factors)) for tc in report.orthogonal}
        assert ("D34", (68,)) in orth
        assert ("A1", (17, 2, 2)) in orth  # kept by all_products, dropped by the orbit rule
        assert ("A1", (34, 2)) in orth
        orbit = classify_orthogonal(68, min_char=69, mode=MODE_ORBIT)
        assert {(str(tc.type_id), tuple(f.dim for f in tc.factors)) for tc in orbit.orthogonal} == {
            ("D34", (68,))
        }

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            classify_orthogonal(7)

    def test_low_min_char_rejected(self):
        with pytest.raises(ValueError):
            classify_orthogonal(12, min_char=7)

    def test_no_non_a1_dim2_factor_anywhere(self):
        for n in (4, 12, 16):
            report = classify_orthogonal(n, mode=MODE_ALL)
            for tc in report.orthogonal + report.symplectic:
                for f in tc.factors:
                    assert not (f.dim == 2 and f.type_id.family != "A")

    def test_exception_candidates_flagged(self):
        recs = load_exceptions(
            ["family,rank,weight,ell,dim", "B,2,[3,1],23,60"]
        )
        report = classify_orthogonal(60, min_char=61, exceptions=recs)
        tagged = [tc for tc in report.orthogonal + report.symplectic if tc.non_generic_ell is not None]
        assert len(tagged) == 1
        assert tagged[0].non_generic_ell == 23
        assert tagged[0].dim == 60
        assert str(tagged[0].type_id) == "B2"

    def test_non_self_dual_exception_record_is_noted(self):
        # L(2*omega_1) of A2 is not self-dual; a record giving it dimension n
        # is dropped, and the drop must show in the notes and the count.
        rec = ExceptionRecord(LieType("A", 2), (2, 0), 3, 4)
        plain = classify_orthogonal(4, min_char=20)
        report = classify_orthogonal(4, min_char=20, exceptions=[rec])
        assert report.orthogonal == plain.orthogonal and report.symplectic == plain.symplectic
        assert report.excluded_non_self_dual == plain.excluded_non_self_dual + 1
        added = [note for note in report.notes if note not in plain.notes]
        assert [(a.rule, a.family, a.ranks, a.factorization, a.count) for a in added] == [
            ("non-self-dual", "A", "2", (4,), 1)
        ]
        assert "ell=3" in added[0].detail


class TestTheorem1:
    def test_out_of_range_rejected(self):
        for bad in (13, 79, 18, 20):
            with pytest.raises(ValueError):
                verify_theorem1(bad)

    def test_pi_17(self):
        ev = verify_theorem1(17)
        assert ev.passed
        assert ev.n == 68
        assert [str(tc.type_id) for tc in ev.orthogonal] == ["D34"]
        assert ev.symplectic_has_c_natural and ev.symplectic_has_a1_power

    def test_sweep_subset(self):
        evs = theorem1_sweep([19, 23])
        assert [ev.pi for ev in evs] == [19, 23]
        assert all(ev.passed for ev in evs)

    def test_sweep_matches_one_prime_at_a_time(self):
        swept = theorem1_sweep([17, 23])
        assert [ev.pi for ev in swept] == [17, 23]
        for ev in swept:
            alone = verify_theorem1(ev.pi)
            assert json.dumps(evidence_json(ev)) == json.dumps(evidence_json(alone))

    def test_sweep_enumerates_each_type_once_at_the_largest_n(self, monkeypatch):
        calls = _count_enumerations(monkeypatch)
        theorem1_sweep([17, 19])
        assert sorted(t for t, _ in calls) == default_scan_types(76)
        assert {bound for _, bound in calls} == {76}

    def test_sweep_checks_every_prime_before_scanning(self, monkeypatch):
        calls = _count_enumerations(monkeypatch)
        with pytest.raises(ValueError, match="17 <= pi <= 73"):
            theorem1_sweep([17, 13])
        assert calls == []
        assert theorem1_sweep([]) == []
        assert calls == []


def _count_enumerations(monkeypatch) -> list[tuple[LieType, int]]:
    """Patch steinberg's enumerate_restricted to record (type, bound) per call."""
    calls: list[tuple[LieType, int]] = []
    real = steinberg.enumerate_restricted

    def counted(type_id, dim_bound, exceptions=()):
        calls.append((type_id, dim_bound))
        return real(type_id, dim_bound, exceptions)

    monkeypatch.setattr(steinberg, "enumerate_restricted", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([A1, LieType("A", 3), LieType("B", 3), LieType("C", 4),
                     LieType("D", 4), LieType("G", 2), LieType("E", 6)]),
    st.integers(1, 40),
    st.integers(0, 60),
    st.sampled_from([MODE_ORBIT, MODE_ALL]),
)
def test_assembly_reads_a_larger_bound_table_only_at_n(type_id, half_n, extra, mode):
    """A factor table built at any bound >= n gives the split, products and events of bound n."""
    n = 2 * half_n
    facts = factorizations(n)
    runs = []
    for bound in (n, n + extra):
        by_dim = steinberg._factors_by_dim(type_id, bound, ())
        complete, missing = steinberg._split_missing(facts, by_dim)
        runs.append((missing, *steinberg._assemble(type_id, complete, by_dim, mode)))
    (missing_n, _, events_n), (missing_wide, products, events_wide) = runs
    assert missing_wide == missing_n and events_wide == events_n
    assert sorted(products, key=steinberg._product_sort_key) == steinberg_products(type_id, n, mode)


def _oracle_assemble(type_id, facts, by_dim, mode):
    """Assembly with the missing-dimension check made per type and per factorization."""
    products, events = [], []
    for fact in facts:
        missing = sorted(d for d in set(fact) if d not in by_dim)
        if missing:
            events.append(
                ("missing-factor-dimension", fact, f"no restricted module of dimension {missing[0]}", 1)
            )
            continue
        more, more_events = steinberg._assemble(type_id, [fact], by_dim, mode)
        products += more
        events += more_events
    return products, events


def _oracle_filter(type_id, products, n, min_char, exceptions):
    """Kept products, exclusion events and the non-self-dual count of one type,
    with the type's exception records of dimension n added."""
    events, kept, non_self_dual = [], [], 0
    for tc in products:
        fact = tuple(sorted(f.dim for f in tc.factors))
        if not all(f.self_dual for f in tc.factors):
            non_self_dual += 1
            events.append(("non-self-dual", fact, f"e.g. weight {list(tc.factors[0].weight)}", 1))
        elif tc.min_char > min_char:
            events.append(("characteristic-floor", fact,
                           f"needs characteristic >= {tc.min_char}, scan fixed {min_char}", 1))
        else:
            kept.append(tc)
    for rec in exceptions:
        if rec.type_id != type_id or rec.corrected_dim != n:
            continue
        factor = IrrepCandidate.of(build_root_datum(type_id), rec.weight, rec.corrected_dim,
                                   range(type_id.rank))
        if factor.fs == 0:
            non_self_dual += 1
            events.append(("non-self-dual", (n,),
                           f"exception record at ell={rec.ell}, weight {list(rec.weight)}", 1))
        else:
            kept.append(steinberg._tensor(type_id, (factor,), non_generic_ell=rec.ell))
    return kept, events, non_self_dual


def oracle_classify(n, min_char, mode, exceptions, factors_of):
    """Reference classification: one event per (type, factorization), aggregated
    by listing every (rank, count) hit of each note key."""
    if min_char is None:
        min_char = max(GENERIC_CHAR_FLOOR, n + 1)
    facts = factorizations(n)
    orthogonal, symplectic, non_self_dual, raw = [], [], 0, {}
    for t in default_scan_types(n):
        products, events = _oracle_assemble(t, facts, factors_of(t), mode)
        kept, dropped, nsd = _oracle_filter(t, products, n, min_char, exceptions)
        non_self_dual += nsd
        for tc in kept:
            (orthogonal if tc.fs == 1 else symplectic).append(tc)
        for rule, fact, detail, count in events + dropped:
            raw.setdefault((rule, t.family, fact, detail), []).append((t.rank, count))
    notes = tuple(
        ExclusionNote(rule=rule, family=family,
                      ranks=steinberg._compress_ranks(sorted({r for r, _ in hits})),
                      factorization=fact, detail=detail, count=sum(c for _, c in hits))
        for (rule, family, fact, detail), hits in sorted(raw.items())
    )
    key = lambda tc: (tc.type_id, steinberg._product_sort_key(tc))
    return ClassificationReport(n=n, mode=mode, min_char=min_char,
                                orthogonal=tuple(sorted(orthogonal, key=key)),
                                symplectic=tuple(sorted(symplectic, key=key)),
                                excluded_non_self_dual=non_self_dual, notes=notes)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 60).map(lambda h: 2 * h) | st.sampled_from([144, 240, 288]),
    st.sampled_from([MODE_ORBIT, MODE_ALL]),
    st.sampled_from([None, 20]),
    st.booleans(),
)
def test_notes_per_divisor_signature_match_oracle(n, mode, min_char, with_exceptions):
    # One self-dual record (B2, kept or below the floor) and one that is not
    # (A2); both lower their generic dimensions, 640 and 300, at every n drawn.
    exceptions = (ExceptionRecord(LieType("B", 2), (5, 3), 23, n),
                  ExceptionRecord(LieType("A", 2), (23, 0), 3, n)) if with_exceptions else ()
    report = classify_orthogonal(n, min_char, mode, exceptions)
    oracle = oracle_classify(n, min_char, mode, exceptions,
                             lambda t: steinberg._factors_by_dim(t, n, exceptions))
    assert json.dumps(report_json(report)) == json.dumps(report_json(oracle))


def test_sweep_notes_match_oracle():
    # The sweep's tables are built at 4 * 19 = 76 and read at n = 68 too.
    for ev in theorem1_sweep([17, 19]):
        oracle = oracle_classify(ev.n, ev.n + 1, MODE_ORBIT, (),
                                 lambda t: steinberg._factors_by_dim(t, 76, ()))
        assert json.dumps(report_json(ev.report)) == json.dumps(report_json(oracle))

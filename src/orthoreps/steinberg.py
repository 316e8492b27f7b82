"""Twisted tensor products of restricted modules and the orthogonal classification.

Every irreducible module of a finite group of one simple type is a twisted
tensor product of restricted modules; twist indices never change the
dimension, self-duality or indicator of a factor, so products are handled
as multisets of restricted factors.  Two assembly modes are exposed:
``class_s_orbit`` keeps a multi-factor product only when all factors are
one and the same module (a Galois orbit of a single module), while
``all_products`` forms every factor combination.  The classifier scans all
types that can reach the target dimension, drops non-self-dual products,
and splits the survivors by Frobenius-Schur indicator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, isqrt, prod
from typing import Callable, Container, Iterable, Sequence

from .arith import is_prime
from .irreps import (
    GENERIC_CHAR_FLOOR,
    IrrepCandidate,
    candidate_json,
    default_scan_types,
    enumerate_restricted,
)
from .root_data import LieType

MODE_ORBIT = "class_s_orbit"
MODE_ALL = "all_products"

# Primes covered by the n = 4*pi classification.
THEOREM1_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def factorizations(n: int) -> tuple[tuple[int, ...], ...]:
    """All multisets of integers > 1 with product n, as ascending tuples."""
    if n < 2:
        raise ValueError(f"factorizations need n >= 2, got {n}")
    out: list[tuple[int, ...]] = []

    def rec(rem: int, start: int, acc: tuple[int, ...]) -> None:
        for f in range(start, isqrt(rem) + 1):
            if rem % f == 0:
                rec(rem // f, f, acc + (f,))
        out.append(acc + (rem,))

    rec(n, 2, ())
    return tuple(sorted(out, key=lambda fs: (len(fs), fs)))


@dataclass(frozen=True)
class TensorCandidate:
    """A tensor product of restricted modules of one type (twists abstracted)."""

    type_id: LieType
    factors: tuple[IrrepCandidate, ...]
    dim: int
    fs: int  # the product of the factors' indicators, so 0 iff a factor is not self-dual
    min_char: int

    @property
    def self_dual(self) -> bool:
        return self.fs != 0


@dataclass(frozen=True)
class ExclusionNote:
    """One aggregated exclusion rule application during a classification scan."""

    rule: str
    family: str
    ranks: str
    factorization: tuple[int, ...]
    detail: str
    count: int


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    mode: str
    min_char: int
    orthogonal: tuple[TensorCandidate, ...]
    symplectic: tuple[TensorCandidate, ...]
    excluded_non_self_dual: int
    notes: tuple[ExclusionNote, ...]


@dataclass(frozen=True)
class Theorem1Evidence:
    pi: int
    n: int
    passed: bool
    orthogonal: tuple[TensorCandidate, ...]
    symplectic_has_c_natural: bool
    symplectic_has_a1_power: bool
    report: ClassificationReport


def _tensor(type_id: LieType, factors: Sequence[IrrepCandidate]) -> TensorCandidate:
    factors = tuple(sorted(factors, key=lambda c: (-c.dim, c.weight)))
    return TensorCandidate(
        type_id=type_id,
        factors=factors,
        dim=prod(c.dim for c in factors),
        fs=prod(c.fs for c in factors),
        min_char=max(c.min_char for c in factors),
    )


def _split_missing(
    facts: Sequence[tuple[int, ...]], have: Container[int]
) -> tuple[list[tuple[int, ...]], list[tuple[tuple[int, ...], str]]]:
    """The factorizations whose parts all lie in have, and the others with a note detail.

    The detail names the least part not in have.  Which factorizations are
    complete depends on a type only through the divisors of n its table
    holds, so callers split once per such set.
    """
    complete: list[tuple[int, ...]] = []
    missing: list[tuple[tuple[int, ...], str]] = []
    for fact in facts:
        # fact is ascending, so the first part not in have is the least
        lack = next((d for d in fact if d not in have), None)
        if lack is None:
            complete.append(fact)
        else:
            missing.append((fact, f"no restricted module of dimension {lack}"))
    return complete, missing


def _assemble(
    type_id: LieType,
    facts: Sequence[tuple[int, ...]],
    by_dim: dict[int, list[IrrepCandidate]],
    mode: str,
) -> tuple[list[TensorCandidate], list[tuple[str, tuple[int, ...], str, int]]]:
    """Products of this type for each complete factorization, plus raw exclusion events.

    Every part of every factorization in facts must be a key of by_dim (see
    _split_missing).  Events are (rule, factorization, detail, count)
    tuples, aggregated later across ranks.
    """
    products: list[TensorCandidate] = []
    events: list[tuple[str, tuple[int, ...], str, int]] = []
    for fact in facts:
        if len(fact) == 1:
            products.extend(_tensor(type_id, (c,)) for c in by_dim[fact[0]])
            continue
        counts = {d: fact.count(d) for d in set(fact)}
        if mode == MODE_ORBIT:
            total = prod(comb(len(by_dim[d]) + r - 1, r) for d, r in counts.items())
            if len(set(fact)) == 1:
                d = fact[0]
                products.extend(_tensor(type_id, (c,) * len(fact)) for c in by_dim[d])
                skipped = total - len(by_dim[d])
            else:
                skipped = total
            if skipped:
                events.append(
                    ("orbit-restriction", fact,
                     "multi-factor products must repeat a single module", skipped)
                )
        else:
            pools = [
                itertools.combinations_with_replacement(by_dim[d], counts[d])
                for d in sorted(counts)
            ]
            for combo in itertools.product(*pools):
                factors = tuple(itertools.chain.from_iterable(combo))
                products.append(_tensor(type_id, factors))
    return products, events


def _factors_by_dim(type_id: LieType, n: int) -> dict[int, list[IrrepCandidate]]:
    """Nontrivial restricted modules of dimension <= n, grouped by dimension."""
    by_dim: dict[int, list[IrrepCandidate]] = {}
    for c in enumerate_restricted(type_id, n):
        if any(c.weight):
            by_dim.setdefault(c.dim, []).append(c)
    return by_dim


def _product_sort_key(tc: TensorCandidate):
    return (
        len(tc.factors),
        tuple(-f.dim for f in tc.factors),
        tuple(f.weight for f in tc.factors),
    )


def _compress_ranks(ranks: list[int]) -> str:
    runs = []
    start = prev = ranks[0]
    for r in ranks[1:]:
        if r == prev + 1:
            prev = r
            continue
        runs.append((start, prev))
        start = prev = r
    runs.append((start, prev))
    return ",".join(f"{a}" if a == b else f"{a}..{b}" for a, b in runs)


def classify_orthogonal(n: int, mode: str = MODE_ORBIT) -> ClassificationReport:
    """Classify all orthogonal/symplectic tensor candidates of dimension n.

    The report holds in the generic regime ell > n, so its min_char is
    max(GENERIC_CHAR_FLOOR, n + 1), fixed by n: at some ell <= n a module
    whose generic dimension exceeds n can have dimension n, and the scan
    never reaches it.  Above n every listed factor has
    <lambda + rho, theta^vee> <= dim <= n < ell (the lemma in ExceptionRecord),
    so lambda lies in the bottom alcove and L = V (RAGS II.5.6).  No exception
    record is read: a type with a nontrivial module of dimension n has Coxeter
    number h <= n, and at ell > n >= h a restricted L of dimension n < ell is
    in the bottom alcove too (Jantzen 1997), so a true record of dimension n
    has ell <= n, outside the report's regime.  The scan covers every type
    whose natural module fits in dimension n, assembles tensor candidates per
    factorization of n, drops non-self-dual products, and splits the rest by
    indicator.  Every dropped branch is recorded in the exclusion notes.
    """
    return _classify(n, mode, lambda type_id: _factors_by_dim(type_id, n))


def _classify(
    n: int,
    mode: str,
    factors_of: Callable[[LieType], dict[int, list[IrrepCandidate]]],
) -> ClassificationReport:
    """classify_orthogonal, with each type's `_factors_by_dim` table from factors_of.

    The table may come from any bound >= n: only its entries at the divisors
    of n are read, and a factor's flags depend on its weight, not on the
    bound.
    """
    if n < 2 or n % 2:
        raise ValueError(f"target dimension must be even and >= 2, got {n}")
    if mode not in (MODE_ORBIT, MODE_ALL):
        raise ValueError(f"mode must be {MODE_ORBIT!r} or {MODE_ALL!r}, got {mode!r}")

    facts = factorizations(n)
    divisors = {d for fact in facts for d in fact}
    split = functools.cache(lambda have: _split_missing(facts, have))

    orthogonal: list[TensorCandidate] = []
    symplectic: list[TensorCandidate] = []
    # note key (rule, family, factorization, detail) -> [ranks, count]
    raw: dict[tuple[str, str, tuple[int, ...], str], list] = {}

    def tally(key: tuple[str, str, tuple[int, ...], str], ranks: Iterable[int], count: int) -> None:
        hit = raw.setdefault(key, [set(), 0])
        hit[0].update(ranks)
        hit[1] += count

    # (family, divisors of n in the type's table) -> ranks: the types of a
    # group miss the same factorizations, so their notes are made once.
    groups: dict[tuple[str, frozenset[int]], list[int]] = {}
    for t in default_scan_types(n):
        by_dim = factors_of(t)
        have = frozenset(d for d in divisors if d in by_dim)
        groups.setdefault((t.family, have), []).append(t.rank)
        products, events = _assemble(t, split(have)[0], by_dim, mode)
        for rule, fact, detail, count in events:
            tally((rule, t.family, fact, detail), (t.rank,), count)
        for tc in products:
            if tc.self_dual:
                (orthogonal if tc.fs == 1 else symplectic).append(tc)
                continue
            detail = f"e.g. weight {list(tc.factors[0].weight)}"
            tally(("non-self-dual", t.family, tuple(sorted(f.dim for f in tc.factors)), detail),
                  (t.rank,), 1)
    for (family, have), ranks in groups.items():
        for fact, detail in split(have)[1]:
            tally(("missing-factor-dimension", family, fact, detail), ranks, len(ranks))

    for tc in orthogonal + symplectic:
        for f in tc.factors:
            if f.dim == 2 and f.type_id.family != "A":
                raise AssertionError(
                    f"classification produced a 2-dimensional factor of type {f.type_id}"
                )

    notes = tuple(
        ExclusionNote(
            rule=rule,
            family=family,
            ranks=_compress_ranks(sorted(ranks)),
            factorization=fact,
            detail=detail,
            count=count,
        )
        for (rule, family, fact, detail), (ranks, count) in sorted(raw.items())
    )
    key = lambda tc: (tc.type_id, _product_sort_key(tc))
    return ClassificationReport(
        n=n,
        mode=mode,
        min_char=max(GENERIC_CHAR_FLOOR, n + 1),
        orthogonal=tuple(sorted(orthogonal, key=key)),
        symplectic=tuple(sorted(symplectic, key=key)),
        excluded_non_self_dual=sum(note.count for note in notes if note.rule == "non-self-dual"),
        notes=notes,
    )


def verify_theorem1(pi: int) -> Theorem1Evidence:
    """Machine check of the classification at n = 4*pi for a prime 17 <= pi <= 73.

    Passes iff the orthogonal list is exactly the natural module of D at
    rank 2*pi; the evidence keeps the full report, including the symplectic
    side and every exclusion applied.
    """
    _check_theorem1_prime(pi)
    return _evidence(pi, classify_orthogonal(4 * pi, mode=MODE_ORBIT))


def _check_theorem1_prime(pi: int) -> None:
    if not is_prime(pi) or not (17 <= pi <= 73):
        raise ValueError(
            f"pi={pi} is outside the classification hypothesis: pi must be a prime "
            "with 17 <= pi <= 73"
        )


def _evidence(pi: int, report: ClassificationReport) -> Theorem1Evidence:
    """The theorem-1 checks on the n = 4*pi report."""
    n = 4 * pi
    omega1 = (1,) + (0,) * (2 * pi - 1)

    def has(products: Sequence[TensorCandidate], type_id: LieType, weight: tuple[int, ...]) -> bool:
        """Whether products hold the one-factor product L(weight) of type_id."""
        return any(tc.type_id == type_id and len(tc.factors) == 1
                   and tc.factors[0].weight == weight for tc in products)

    return Theorem1Evidence(
        pi=pi,
        n=n,
        passed=len(report.orthogonal) == 1 and has(report.orthogonal, LieType("D", 2 * pi), omega1),
        orthogonal=report.orthogonal,
        symplectic_has_c_natural=has(report.symplectic, LieType("C", 2 * pi), omega1),
        symplectic_has_a1_power=has(report.symplectic, LieType("A", 1), (n - 1,)),
        report=report,
    )


def theorem1_sweep(pis: Iterable[int] | None = None) -> list[Theorem1Evidence]:
    """verify_theorem1's evidence for several primes, in ascending order of pi.

    Every pi is checked before any scan.  Each scanned type is enumerated
    once, at the largest n, and that table serves every smaller n.
    """
    pis = sorted(set(THEOREM1_PRIMES if pis is None else pis))
    for pi in pis:
        _check_theorem1_prime(pi)
    if not pis:
        return []
    bound = 4 * pis[-1]
    factors_of = functools.cache(lambda type_id: _factors_by_dim(type_id, bound))
    return [_evidence(pi, _classify(4 * pi, MODE_ORBIT, factors_of))
            for pi in pis]


def tensor_json(tc: TensorCandidate) -> dict:
    return {
        "family": tc.type_id.family,
        "rank": tc.type_id.rank,
        "factors": [candidate_json(f) for f in tc.factors],
        "dim": str(tc.dim),
        "self_dual": tc.self_dual,
        "fs": tc.fs,
        "min_char": tc.min_char,
    }


def report_json(report: ClassificationReport) -> dict:
    return {
        "n": report.n,
        "mode": report.mode,
        "min_char": report.min_char,
        "orthogonal": [tensor_json(tc) for tc in report.orthogonal],
        "symplectic": [tensor_json(tc) for tc in report.symplectic],
        "excluded_non_self_dual": report.excluded_non_self_dual,
        "exclusions": [vars(note) for note in report.notes],
    }


def evidence_json(ev: Theorem1Evidence) -> dict:
    return {
        "pi": ev.pi,
        "n": ev.n,
        "passed": ev.passed,
        "orthogonal": [tensor_json(tc) for tc in ev.orthogonal],
        "symplectic_has_c_natural": ev.symplectic_has_c_natural,
        "symplectic_has_a1_power": ev.symplectic_has_a1_power,
        "report": report_json(ev.report),
    }

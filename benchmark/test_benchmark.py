"""Tests of the benchmark itself: op lists, tracing and output checks.

They run small op lists in-process, so they take seconds, not a workload's
full run:

    PYTHONPATH=src python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# Sum of per-layer self times vs the traced wall of the same ops: the gap is
# the benchmark's own work between ops (output checks, bookkeeping).
SELF_TIME_TOLERANCE = 0.05

CLASSIFY_OPS = [Op(a, ("digest", workloads.digest_key(a)))
                for a in (workloads.classify_argv(68, "orbit"), workloads.classify_argv(70, "all"))]
LOCAL_OPS = [
    Op(("primes", "--n", "6", "--M", "6"), ("pair", 6, "6", None)),
    Op(("induce", "--p", "7", "--t", "17", "--n", "6"), ("induce", "7", "17", 6)),
    Op(("bound", "--n", "4", "--k", "1", "--cond", "1"), ("bound", "184321")),
]


@pytest.fixture(scope="module")
def ref():
    return workloads.load_reference()


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def _traced(ops, ref):
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = [worker.run_op(op, op.deadline, ref, tracer, i) for i, op in enumerate(ops, 1)]
    finally:
        tracer.uninstall()
    return tracer, records


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload, ref):
    first = workloads.build_ops(workload, 7, 30, ref)
    assert first == workloads.build_ops(workload, 7, 30, ref)
    if workload != "sweep-cold":
        assert first != workloads.build_ops(workload, 8, 30, ref)


def test_run_sizes(ref):
    assert len(workloads.build_ops("sweep-cold", 1, 30, ref)) == 1
    assert len(workloads.build_ops("classify-warm", 1, 30, ref)) == 100
    local = workloads.build_ops("local-model", 1, 30, ref)
    assert len(local) >= 100
    induce_n = {op.argv[-1] for op in local if op.argv[0] == "induce" and "--auto-M" not in op.argv}
    assert "4" in induce_n and "68" in induce_n
    assert local[0].argv[-1] == "68"  # the peak-memory op runs first


def test_traced_and_untraced_outputs_are_byte_identical():
    for op in CLASSIFY_OPS + LOCAL_OPS:
        plain = worker.invoke(op.argv, op.deadline)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = worker.invoke(op.argv, op.deadline)
        finally:
            tracer.uninstall()
        assert plain["status"] == traced["status"] == "ok"
        assert plain["stdout"] == traced["stdout"], op.label


def test_wrappers_reach_names_bound_at_import():
    from orthoreps import arith, induced, irreps, steinberg, weights

    originals = (steinberg.enumerate_restricted, irreps.dim_from_pairings,
                 irreps.build_root_datum, induced.is_prime, steinberg.is_prime)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert steinberg.enumerate_restricted is irreps.enumerate_restricted
        assert irreps.dim_from_pairings is weights.dim_from_pairings
        assert induced.is_prime is arith.is_prime is steinberg.is_prime
        assert all(getattr(f, "__wrapped__", None) is not None for f in (
            steinberg.enumerate_restricted, irreps.dim_from_pairings, irreps.build_root_datum,
            induced.is_prime))
    finally:
        tracer.uninstall()
    assert (steinberg.enumerate_restricted, irreps.dim_from_pairings, irreps.build_root_datum,
            induced.is_prime, steinberg.is_prime) == originals


def test_products_equal_orthogonal_symplectic_excluded_for_every_op(ref):
    ops = CLASSIFY_OPS + [Op(("theorem1", "--pi", "17"), ("digest", "unused"))]
    tracer = spans.Tracer()
    tracer.install()
    try:
        outputs = []
        for i, op in enumerate(ops, 1):
            tracer.begin_op(i)
            res = worker.invoke(op.argv, op.deadline)
            assert res["status"] == "ok"
            outputs.append(json.loads(res["stdout"]))
    finally:
        tracer.uninstall()
    for i, payload in enumerate(outputs, 1):
        reports = [case["report"] for case in payload["cases"]] if "cases" in payload else [payload]
        expected = sum(len(r["orthogonal"]) + len(r["symplectic"]) + r["excluded_non_self_dual"]
                       for r in reports)
        assert tracer.counters[i]["steinberg.products"] == expected > 0


def test_self_times_sum_to_traced_wall(ref):
    import time

    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records = [worker.run_op(op, op.deadline, ref, tracer, i)
                   for i, op in enumerate(CLASSIFY_OPS + LOCAL_OPS, 1)]
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert all(r["status"] == "ok" for r in records)
    metrics = tracer.metrics(wall)
    assert set(metrics) == set(spans.metric_units())
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith("setup."))
    assert self_total <= wall
    assert self_total >= (1 - SELF_TIME_TOLERANCE) * wall
    assert metrics["cli.run.calls"] == len(records)
    assert metrics["induced.commutant_bytes"] == 2 * 6**4 * 8


def test_missed_deadline_is_a_named_failure(ref):
    op = Op(("primes", "--n", "40", "--auto-M", "1,1"), ("pair", 40, ref["bound_M"]["40"], None))
    tracer, (record,) = _traced([op], ref)
    assert record["status"] == "deadline"
    assert record["where"].startswith("arith.")
    assert record["span"] and record["span"].startswith("arith.")


def test_deadlines_inside_short_spans_keep_the_trace_whole(ref):
    # The lambda walk makes about 10^5 is_prime spans a second, so some of
    # these alarms arrive while the tracer is recording a span.
    p, t = ref["auto_pairs"]["4"]["pair"]
    op = Op(("induce", "--p", p, "--t", t, "--n", "4"), ("induce", p, t, 4))
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = [worker.run_op(op, 0.05, ref, tracer, i) for i in range(1, 21)]
    finally:
        tracer.uninstall()
    assert {r["status"] for r in records} == {"deadline"}
    assert all(r["span"] for r in records)
    lengths = {len(a) for a in (tracer.name, tracer.parent, tracer.op, tracer.err,
                                tracer.start, tracer.end)}
    assert len(lengths) == 1
    metrics = tracer.metrics(1.0)
    assert metrics["cli.run.calls"] == metrics["cli.run.errors"] == 20
    assert min(tracer.arrays()["self"]) > -1e-9


def test_wrong_output_fails_the_check(ref):
    op = CLASSIFY_OPS[0]
    res = worker.invoke(op.argv, op.deadline)
    assert workloads.check_output(op, res["rc"], res["stdout"], ref) is None
    assert workloads.check_output(op, res["rc"], res["stdout"] + " ", ref) is not None
    wrong_pair = Op(LOCAL_OPS[0].argv, ("pair", 6, "6", ["7", "19"]))
    res = worker.invoke(wrong_pair.argv, wrong_pair.deadline)
    assert "first pair" in workloads.check_output(wrong_pair, res["rc"], res["stdout"], ref)


def _scored(records, ref):
    result = {"ops": records, "wall_s": 4.0, "speed_samples": [speed.REF_S], "setup_samples": [0.3],
              "reference_spawns": [run.REFERENCE_SPAWN_S], "warmup": None, "peak_rss_mb": 100.0}
    return run.score(result, False, ref)


def test_times_are_scaled_to_the_reference_host():
    ref_s = speed.REF_S
    ops = [{"status": "ok", "latency_s": 7.0}, {"status": "deadline", "latency_s": 3.0}]
    result = {"wall_s": 10.0, "ops": ops, "speed_samples": [ref_s * 1.5, ref_s * 2.5],
              "setup_samples": [0.3, 0.2, 0.4], "reference_spawns": [run.REFERENCE_SPAWN_S * 3] * 2,
              "warmup": {"latency_s": 4.0, "speed_samples": [ref_s / 2]}, "peak_rss_mb": 100.0}
    metrics = run.end_to_end(result)
    assert metrics["norm_wall_s"] == pytest.approx(3.0 + 7.0 / 2)
    assert metrics["setup_s"] == pytest.approx(0.3 / 3 + 4.0 * 2)


def test_speed_samples_are_left_out_of_op_latency():
    import time

    op = CLASSIFY_OPS[1]
    sampler = speed.Sampler()
    sampler.install()
    try:
        t0 = time.perf_counter()
        results = [worker.invoke(op.argv, op.deadline, sampler=sampler) for _ in range(20)]
        elapsed = time.perf_counter() - t0
    finally:
        sampler.uninstall()
    assert {r["status"] for r in results} == {"ok"} and sampler.samples
    assert sum(r["latency_s"] for r in results) == pytest.approx(elapsed - sampler.spent, abs=0.02)


def test_a_crashing_op_makes_the_run_incorrect(ref, monkeypatch):
    from orthoreps import cli

    def crash(args):
        raise RuntimeError("injected")

    monkeypatch.setitem(cli._HANDLERS, "bound", crash)
    record = worker.run_op(LOCAL_OPS[2], LOCAL_OPS[2].deadline, ref, None, 1)
    assert record["status"] == "exception"
    line = _scored([record], ref)
    assert line["correct"] is False and line["failed"] == 1


def test_only_listed_failures_keep_the_run_correct(ref):
    known = ref["known_failures"][0]
    record = {"id": 1, "op": known["op"], "status": "deadline", "latency_s": 3.0,
              "deadline_s": 3.0, "reason": known["failure"], "where": None, "span": None}
    assert _scored([record], ref)["correct"] is True
    for status, reason in (("memory", "hit the address-space cap"), ("exception", "KeyError: 1")):
        assert _scored([{**record, "status": status, "reason": reason}], ref)["correct"] is False
    passing = {**record, "op": "bound --n 4 --k 1 --cond 1"}
    assert _scored([passing], ref)["correct"] is False


def test_refuses_a_directory_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "sweep-cold", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""orthoreps benchmark: cold sweep, warm classification stream, local model.

Run from the root of a checkout that holds `src/orthoreps`:

    python3 benchmark/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --all            # every workload, untraced and traced

With --workload, the last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.  Lines before it name
the environment and every failed op.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Default --seconds.  It gives classify-warm 100 and local-model 128 ops,
# so --all can report op_p90_s with at least 10 ops beyond it.  The
# run_seconds of BENCHMARK.json (20) is shorter, so many repeated runs stay
# cheap; --all says when a run has too few ops for op_p90_s.
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 5  # spawns per run whose spawn-to-ready times give setup_s
# Before each of those spawns, a reference interpreter that imports numpy and
# nothing of the program: the same kind of work as most of a worker's
# set-up.  setup_s scales the workers' spawn time by the reference's, so
# that it reads as on a host where the reference takes REFERENCE_SPAWN_S.
REFERENCE_SPAWN = "import numpy; print(flush=True)"
REFERENCE_SPAWN_S = 0.15
RUN_LIMIT_S = 170.0  # a run that is not done by then is killed and reported as an error

# End-to-end metrics of the result line, with units.  Times on it are
# scaled to a reference host speed (speed.py).  The raw wall_s, the per-op
# latency percentiles and fail_ratio are printed by --all only: on this
# kind of shared 2-core host raw times spread from run to run by more than
# any bound the result line may carry, and fail_ratio is 0 on two workloads.
END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (workloads.ADDRESS_SPACE_CAP, workloads.ADDRESS_SPACE_CAP))


def _child_env() -> dict[str, str]:
    """The default single-thread path, the checkout's package, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k != "ORTHOREPS_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float):
    """Start the worker; return (process, watchdog, seconds from spawn to ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, preexec_fn=_cap_address_space,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    try:
        package = Path(json.loads(line)["package"]).resolve()
    except (ValueError, KeyError, TypeError):
        proc.kill()
        _reap(proc, watchdog)
        raise RunError("worker did not start") from None
    if ROOT / "src" not in package.parents:
        proc.kill()
        _reap(proc, watchdog)
        raise RunError(f"worker imported orthoreps from {package}, not from {ROOT / 'src'}")
    return proc, watchdog, setup


def _reference_spawn(deadline: float) -> float:
    """Seconds from spawning the reference interpreter until it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", REFERENCE_SPAWN], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=_cap_address_space,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready = proc.stdout.readline()
    took = time.perf_counter() - t0
    _reap(proc, watchdog)
    if not ready:
        raise RunError("the reference interpreter did not start")
    return took


def _reap(proc, watchdog) -> str:
    """Wait for the worker to end; return its remaining stdout."""
    try:
        rest, err = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode:
        raise RunError(f"worker exited with {proc.returncode}: {(err or rest).strip()[-2000:]}")
    return rest


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in fresh processes; returns the worker's result plus set-up samples."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups, references = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            references.append(_reference_spawn(deadline))
            proc, watchdog, setup = _spawn([*base, "--probe"], deadline)
            _reap(proc, watchdog)
            setups.append(setup)
        references.append(_reference_spawn(deadline))
    proc, watchdog, setup = _spawn([*base, "--trace", str(int(trace))], deadline)
    setups.append(setup)
    lines = _reap(proc, watchdog).splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("event") != "result":
        raise RunError(f"worker gave no result: {result.get('detail', lines[-1:] or 'no output')}")
    result["setup_samples"] = setups
    result["reference_spawns"] = references
    return result


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result: dict) -> dict[str, float]:
    """The END_TO_END metrics of one untraced run.

    Spawn time is scaled by the reference spawns, computing time by the
    host-speed samples; a missed deadline, a wall-clock limit, is not scaled.
    """
    setup = (statistics.median(result["setup_samples"]) * REFERENCE_SPAWN_S
             / statistics.median(result["reference_spawns"]))
    if result["warmup"] is not None:
        setup += result["warmup"]["latency_s"] * speed.factor(result["warmup"]["speed_samples"])
    deadlines = sum(r["latency_s"] for r in result["ops"] if r["status"] == "deadline")
    wall = deadlines + (result["wall_s"] - deadlines) * speed.factor(result["speed_samples"])
    return {"setup_s": setup, "norm_wall_s": wall, "peak_rss_mb": result["peak_rss_mb"]}


def percentiles(result: dict) -> dict[str, float]:
    """op_p50_s and op_p90_s; a failed op counts as missing its deadline."""
    latencies = [r["latency_s"] if r["status"] == "ok" else max(r["latency_s"], r["deadline_s"])
                 for r in result["ops"]]
    return {"op_p50_s": _nearest_rank(latencies, 0.5), "op_p90_s": _nearest_rank(latencies, 0.9)}


def repeat_share(result: dict) -> float:
    seen, repeats = set(), 0
    for r in result["ops"]:
        repeats += r["op"] in seen
        seen.add(r["op"])
    return repeats / len(result["ops"])


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "address_space_cap_bytes": workloads.ADDRESS_SPACE_CAP,
        "deadlines_s": workloads.DEADLINE_S,
    }


def failure_lines(result: dict) -> list[str]:
    lines = []
    for r in result["ops"]:
        if r["status"] != "ok":
            where = r["where"] or "no package frame"
            span = f", open span {r['span']}" if r["span"] else ""
            lines.append(f"failed op {r['id']}: {r['op']}: {r['reason']} at {where}{span}")
    return lines


def score(result: dict, trace: bool, ref: dict) -> dict:
    """The result object of one run.

    `correct` is false when any op fails, unless the op and the way it
    failed are listed under `known_failures` in the reference: a crash, a
    hit of the memory cap or a wrong answer is never expected.
    """
    known = {(f["op"], f["failure"]) for f in ref["known_failures"]}
    failed = [r for r in result["ops"] if r["status"] != "ok"]
    if trace:
        units, values = spans.metric_units(), result["per_layer"]
    else:
        units, values = END_TO_END, end_to_end(result)
    return {
        "correct": all((r["op"], r["reason"]) in known for r in failed),
        "attempted": len(result["ops"]),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, ref: dict) -> tuple[dict, dict]:
    """One run: print the environment and failed ops; return the worker's result and its score."""
    result = run_workload(workload, seed, seconds, trace)
    env = environment(workload, seed, seconds, trace)
    for line in [f"env {json.dumps(env)}", *failure_lines(result)]:
        print(line)
    if not trace:
        print(f"wall_s {result['wall_s']:.4f} s; host speed factor {speed.factor(result['speed_samples']):.4f} "
              f"from {len(result['speed_samples'])} samples; spawn {statistics.median(result['setup_samples']):.4f} s, "
              f"reference spawn {statistics.median(result['reference_spawns']):.4f} s")
    if workload == "classify-warm":
        print(f"repeated (n, mode) pairs: {repeat_share(result):.4f} of {len(result['ops'])} stream ops")
    return result, score(result, trace, ref)


def summary(seed: int, seconds: float, ref: dict) -> int:
    """Every workload untraced and traced, as tables; exit 1 if any run is not correct."""
    ok = True
    for workload in workloads.WORKLOADS:
        print(f"\n== {workload}  (seed {seed}, --seconds {seconds:g})")
        plain, line = measure(workload, seed, seconds, False, ref)
        _, traced = measure(workload, seed, seconds, True, ref)
        ok &= line["correct"] and traced["correct"]
        n_ops = line["attempted"]
        samples = {"setup_s": len(plain["setup_samples"])}
        rows = [(name, m["value"], m["unit"], samples.get(name, 1)) for name, m in line["metrics"].items()]
        rows.append(("wall_s", plain["wall_s"], "s", 1))
        rows += [(name, value, "s", n_ops) for name, value in percentiles(plain).items()]
        rows.append(("fail_ratio", line["failed"] / n_ops, "ratio", n_ops))
        print(f"  correct: {line['correct'] and traced['correct']}  ops: {n_ops}  failed: {line['failed']}")
        for name, value, unit, count in rows:
            note = ""
            if name.startswith("op_p") and n_ops == 1:
                note = "  (one op: its latency, not a percentile)"
            elif name == "op_p90_s" and n_ops < 100:
                note = "  (fewer than 10 ops beyond it; use --seconds 30 or more)"
            print(f"  {name:<12} {value:>12.4f} {unit:<6} samples={count}{note}")
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        print(f"  tracing overhead: {traced_wall - plain['wall_s']:+.4f} s "
              f"(traced wall_s {traced_wall:.4f} s)")
        print("  per-layer (traced run, measured ops):")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"    {name:<52} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orthoreps" / "cli.py").is_file():
        print(f"error: no orthoreps source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    ref = workloads.load_reference()
    try:
        if args.all:
            return summary(args.seed, args.seconds, ref)
        _, line = measure(args.workload, args.seed, args.seconds, bool(args.trace), ref)
        print(json.dumps(line))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

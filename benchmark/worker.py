"""The workload process: imports orthoreps, runs one op list, reports JSON.

Started by run.py with the address-space cap already set.  It prints one
JSON line when it is ready for the first op (after `import orthoreps`) and
one JSON line with the results at the end; op output never reaches stdout.
Each op runs under its own deadline (SIGALRM); an op that misses it, hits
the memory cap, raises, or prints a wrong answer counts as failed and the
run goes on.  Untraced, it takes host-speed samples (speed.py) during the
warm-up and the measured ops; their time is left out of every latency.
With --trace 1 the spans are written at the end to
`.bench_out/<workload>-seed<seed>-trace.npz` in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import orthoreps
from orthoreps import cli

import speed
import workloads


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class Deadline(BaseException):
    """Raised in the op by SIGALRM; not an Exception, so the CLI cannot catch it."""


def _alarm_handler(tracer):
    def handler(signum, frame):
        if tracer is not None and tracer.busy:
            signal.setitimer(signal.ITIMER_REAL, 0.001)  # again once the span is recorded
            return
        raise Deadline()

    return handler


def _where(exc: BaseException) -> str | None:
    """The three innermost package frames of the failure, innermost first."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if Path(f.filename).parent.name == "orthoreps"]
    if not frames:
        return None
    return " < ".join(f"{Path(f.filename).stem}.{f.name} ({Path(f.filename).name}:{f.lineno})"
                      for f in reversed(frames[-3:]))


def invoke(argv, deadline: float, tracer=None, sampler=None) -> dict:
    """Run one command line through cli.run under a deadline; never raises.

    The latency leaves out the time of the host-speed samples the sampler,
    if given, takes during the op.
    """
    out, err = io.StringIO(), io.StringIO()
    res = {"status": "ok", "rc": None, "reason": None, "where": None}
    signal.signal(signal.SIGALRM, _alarm_handler(tracer))
    spent = sampler.spent if sampler is not None else 0.0
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                res["rc"] = cli.run(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline as exc:
        res.update(status="deadline", reason=f"missed its {deadline:g} s deadline", where=_where(exc))
    except MemoryError as exc:
        res.update(status="memory", reason="hit the address-space cap", where=_where(exc))
    except Exception as exc:  # any other failure of the op is recorded, the run goes on
        res.update(status="exception", reason=f"{type(exc).__name__}: {exc}", where=_where(exc))
    res["latency_s"] = time.perf_counter() - t0
    if sampler is not None:
        res["latency_s"] -= sampler.spent - spent
    res["stdout"], res["stderr"] = out.getvalue(), err.getvalue()
    return res


def run_op(op, deadline: float, ref: dict, tracer, op_id: int, sampler=None) -> dict:
    """invoke() plus the output check; the record a run reports for one op."""
    if tracer is not None:
        tracer.begin_op(op_id)
    res = invoke(op.argv, deadline, tracer, sampler)
    if res["status"] == "ok":
        try:
            reason = workloads.check_output(op, res["rc"], res["stdout"], ref)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            res.update(status="wrong", reason=f"{reason} {res['stderr'].strip()}".strip())
    return {
        "id": op_id,
        "op": op.label,
        "status": res["status"],
        "latency_s": res["latency_s"],
        "deadline_s": deadline,
        "reason": res["reason"],
        "where": res["where"],
        "span": tracer.failed_span if tracer is not None and res["status"] != "ok" else None,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once ready (set-up sample)")
    args = ap.parse_args()
    _emit({"event": "ready", "package": orthoreps.__file__})
    if args.probe:
        return 0

    from spans import Tracer

    ref = workloads.load_reference()
    ops = workloads.build_ops(args.workload, args.seed, args.seconds, ref)
    # The traced run gives per-layer times and takes no host-speed samples.
    tracer = Tracer() if args.trace else None
    sampler = speed.Sampler()
    if tracer is not None:
        tracer.install()
    else:
        sampler.install()

    warmup = None
    if args.workload == "classify-warm":
        warmup = run_op(workloads.warmup_op(), workloads.WARMUP_DEADLINE_S, ref, tracer, 0, sampler)
        warmup["speed_samples"] = sampler.take()
        if warmup["status"] != "ok":
            _emit({"event": "error", "detail": f"warm-up failed: {warmup}"})
            return 1

    records = []
    spent = sampler.spent
    t_start = time.perf_counter()
    for op_id, op in enumerate(ops, start=1):
        records.append(run_op(op, op.deadline, ref, tracer, op_id, sampler))
    wall_s = time.perf_counter() - t_start - (sampler.spent - spent)
    sampler.uninstall()

    result = {
        "event": "result",
        "warmup": warmup,
        "wall_s": wall_s,
        "speed_samples": sampler.take(),
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics(wall_s)
        out = Path(__file__).resolve().parent.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}-seed{args.seed}-trace.npz",
                     [{k: r[k] for k in ("id", "op", "status", "span")}
                      for r in ([warmup] if warmup else []) + records])
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

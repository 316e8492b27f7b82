"""Record the reference outputs the benchmark checks every op against.

Run from the root of a checkout, in one process (a few minutes on 2 cores):

    PYTHONPATH=src python3 benchmark/record_reference.py

It writes benchmark/reference.json with:
- digests: SHA-256 of the byte-stable JSON of `theorem1 --all` and of
  `classify --n N --mode M` for every even N in 68..292 and both modes;
- bound_M: M from `bound --n n --k 1 --cond 1` for even n in 4..68;
- desk_pairs: the first pair of `primes --n N --M N` for even N in 4..52,
  and the verdicts of `induce` at that pair;
- auto_pairs: the first pair of `primes --n n --auto-M 1,1` for even n in
  4..68, or the known failure when the search misses its deadline;
- chain_induce and criterion8: `induce` verdicts, or the known failure;
- known_failures: every failing op above, with its stack location.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from worker import invoke  # noqa: E402


def _ok(argv, deadline, known_failures):
    res = invoke(argv, deadline)
    if res["status"] == "ok" and res["rc"] == 0:
        return json.loads(res["stdout"]), res["stdout"]
    known_failures.append({"op": " ".join(argv), "failure": res["reason"], "where": res["where"]})
    print(f"known failure: {' '.join(argv)}: {res['reason']} at {res['where']}", flush=True)
    return None, None


def _verdicts(payload: dict) -> dict:
    v = payload["verdicts"]
    return {k: v[k] for k in ("tame_relation", "gram_preserved", "commutant_dimension",
                              "tau_projective_order", "phi_projective_order")}


def record() -> dict:
    cap = workloads.ADDRESS_SPACE_CAP
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    failures: list[dict] = []
    ref: dict = {"digests": {}, "bound_M": {}, "desk_pairs": {}, "desk_verdicts": {},
                 "auto_pairs": {}, "chain_induce": {}, "criterion8": None}

    def digest(argv, deadline):
        _, text = _ok(argv, deadline, failures)
        if text is None:
            raise SystemExit(f"{' '.join(argv)} failed; the reference needs it")
        ref["digests"][workloads.digest_key(argv)] = workloads.sha256(text)

    digest(("theorem1", "--all"), workloads.DEADLINE_S["theorem1"])
    digest(workloads.warmup_op().argv, workloads.WARMUP_DEADLINE_S)
    for n in workloads.CLASSIFY_N:
        for mode in workloads.CLASSIFY_MODES:
            digest(workloads.classify_argv(n, mode), workloads.DEADLINE_S["classify"])
    print("digests recorded", flush=True)

    for n in range(4, 69, 2):
        payload, _ = _ok(("bound", "--n", str(n), "--k", "1", "--cond", "1"),
                         workloads.DEADLINE_S["bound"], failures)
        ref["bound_M"][str(n)] = payload["M"]

    for n in workloads.DESK_N:
        payload, _ = _ok(("primes", "--n", str(n), "--M", str(n)), workloads.DEADLINE_S["primes"], failures)
        pair = [payload["pairs"][0]["p"], payload["pairs"][0]["t"]]
        ref["desk_pairs"][str(n)] = pair
        payload, _ = _ok(("induce", "--p", pair[0], "--t", pair[1], "--n", str(n)),
                         workloads.DEADLINE_S["induce"], failures)
        ref["desk_verdicts"][str(n)] = _verdicts(payload)

    for n in range(4, 69, 2):
        payload, _ = _ok(("primes", "--n", str(n), "--auto-M", "1,1"), workloads.DEADLINE_S["primes"], failures)
        entry = {"known_failure": failures[-1]["failure"]} if payload is None else \
            {"pair": [payload["pairs"][0]["p"], payload["pairs"][0]["t"]]}
        ref["auto_pairs"][str(n)] = entry
        print(f"auto pair n={n}: {entry}", flush=True)

    for n in workloads.CHAIN_N:
        p, t = ref["auto_pairs"][str(n)]["pair"]
        payload, _ = _ok(("induce", "--p", p, "--t", t, "--n", str(n)), workloads.DEADLINE_S["induce"], failures)
        ref["chain_induce"][str(n)] = (
            {"known_failure": failures[-1]["failure"]} if payload is None else _verdicts(payload))

    p, t, n = workloads.CRITERION8
    payload, _ = _ok(("induce", "--p", str(p), "--t", str(t), "--n", str(n)),
                     workloads.DEADLINE_S["induce"], failures)
    ref["criterion8"] = {"known_failure": failures[-1]["failure"]} if payload is None else _verdicts(payload)
    ref["known_failures"] = failures
    return ref


if __name__ == "__main__":
    reference = record()
    with open(workloads.REFERENCE_PATH, "w") as fp:
        json.dump(reference, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")

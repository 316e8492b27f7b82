"""Workload definitions: seeded op lists, per-op limits and output checks.

An op is one `orthoreps` command line, run through `orthoreps.cli.run` in
the workload's process.  Op lists depend only on the workload name, the
seed, the run length and the recorded reference (`reference.json`), so the
same arguments always give the same list.  Every op output is checked
against the reference or against properties the benchmark verifies itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

WORKLOADS = ("sweep-cold", "classify-warm", "local-model")

# Per-op deadlines (seconds) by command, and the address-space cap of the
# workload process.  An op that misses either one counts as failed.
DEADLINE_S = {
    "theorem1": 120.0,
    "classify": 10.0,
    "bound": 3.0,
    "primes": 3.0,
    "induce": 10.0,
}
WARMUP_DEADLINE_S = 120.0
ADDRESS_SPACE_CAP = 2 << 30

# classify-warm: even n in the paper's range, both assembly modes.
CLASSIFY_N = tuple(range(68, 293, 2))
CLASSIFY_MODES = ("orbit", "all")
CLASSIFY_STRATA = 20
CLASSIFY_OPS_PER_SECOND = 10 / 3  # 100 stream ops in a 30 s run

# local-model parts.
DESK_N = tuple(range(4, 53, 2))
DESK_ROUNDS_PER_SECOND = 1 / 15  # every desk n twice in a 30 s run
CHAIN_N = (4, 6, 8, 10, 12)
EXTRA_N = tuple(range(14, 69, 2))
CRITERION8 = (137, 101, 68)  # (p, t, n): the desk pair checked at n = 68


@dataclass(frozen=True)
class Op:
    """One command line with its deadline and the check its output must pass."""

    argv: tuple[str, ...]
    check: tuple  # (kind, *data), see check_output

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def deadline(self) -> float:
        return DEADLINE_S[self.command]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fp:
        return json.load(fp)


def classify_argv(n: int, mode: str) -> tuple[str, ...]:
    return ("classify", "--n", str(n), "--mode", mode)


def digest_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def _stratified(rng: random.Random, pool: tuple, strata: int, per_stratum: int) -> list:
    """Draws with replacement, the same number from each contiguous stratum.

    Keeping the count per stratum fixed keeps the cost of a run nearly the
    same for every seed, since the cost of an op grows with n.
    """
    size, extra = divmod(len(pool), strata)
    out, lo = [], 0
    for s in range(strata):
        hi = lo + size + (1 if s < extra else 0)
        out += [pool[rng.randrange(lo, hi)] for _ in range(per_stratum)]
        lo = hi
    return out


def warmup_op() -> Op:
    argv = classify_argv(max(CLASSIFY_N), "orbit")
    return Op(argv, ("digest", digest_key(argv)))


def build_ops(workload: str, seed: int, seconds: float, ref: dict) -> list[Op]:
    """The fixed op list of one run; units stay in order, units are shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-cold":
        argv = ("theorem1", "--all")
        return [Op(argv, ("digest", digest_key(argv)))]
    if workload == "classify-warm":
        per_stratum = max(1, round(seconds * CLASSIFY_OPS_PER_SECOND / CLASSIFY_STRATA))
        ops = []
        for n in _stratified(rng, CLASSIFY_N, CLASSIFY_STRATA, per_stratum):
            argv = classify_argv(n, rng.choice(CLASSIFY_MODES))
            ops.append(Op(argv, ("digest", digest_key(argv))))
        rng.shuffle(ops)
        return ops
    if workload == "local-model":
        # Desk-scale: every n the same number of times, so the latency
        # distribution, and with it op_p50_s and op_p90_s, is the same for
        # every seed; the seed sets the order.
        rounds = max(1, round(seconds * DESK_ROUNDS_PER_SECOND))
        units = [_desk_unit(n, ref) for n in DESK_N for _ in range(rounds)]
        # Full-strength chains: bound and primes at every n, induce at n = 4
        # and at one larger n per run.  Every induce above n = 4 misses its
        # deadline at the benchmark-defining commit, so one per run keeps the
        # failure count, and the run's cost, the same for every seed.
        slow_n = rng.choice(CHAIN_N[1:])
        units += [_chain_unit(n, ref, with_induce=n in (CHAIN_N[0], slow_n)) for n in CHAIN_N]
        # Extra full-strength searches: every n in 14..68 whose search
        # finishes at the benchmark-defining commit, and one seeded n whose
        # search stalls there, so each run shows one stall.
        passing = [n for n in EXTRA_N if "pair" in ref["auto_pairs"][str(n)]]
        failing = [n for n in EXTRA_N if "pair" not in ref["auto_pairs"][str(n)]]
        extra = passing + ([rng.choice(failing)] if failing else [])
        units += [[_auto_primes_op(n, ref)] for n in extra]
        rng.shuffle(units)
        # The criterion-8 check goes first: its dense commutant solve sets
        # the run's peak memory, which then does not depend on the order.
        p, t, n = CRITERION8
        return [_induce_op(p, t, n)] + [op for unit in units for op in unit]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _desk_unit(n: int, ref: dict) -> list[Op]:
    p, t = ref["desk_pairs"][str(n)]
    primes = Op(("primes", "--n", str(n), "--M", str(n)), ("pair", n, str(n), [p, t]))
    return [primes, _induce_op(p, t, n)]


def _chain_unit(n: int, ref: dict, with_induce: bool) -> list[Op]:
    M = ref["bound_M"][str(n)]
    unit = [Op(("bound", "--n", str(n), "--k", "1", "--cond", "1"), ("bound", M)),
            _auto_primes_op(n, ref)]
    if with_induce:
        p, t = ref["auto_pairs"][str(n)]["pair"]
        unit.append(_induce_op(p, t, n))
    return unit


def _auto_primes_op(n: int, ref: dict) -> Op:
    entry = ref["auto_pairs"][str(n)]
    return Op(("primes", "--n", str(n), "--auto-M", "1,1"),
              ("pair", n, ref["bound_M"][str(n)], entry.get("pair")))


def _induce_op(p: str, t: str, n: int) -> Op:
    return Op(("induce", "--p", str(p), "--t", str(t), "--n", str(n)), ("induce", str(p), str(t), n))


# ---------------------------------------------------------------- checks


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _probable_prime(n: int) -> bool:
    """Strong probable-prime test with fixed bases, kept apart from the program's own."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def check_output(op: Op, rc: int, out: str, ref: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    if rc != 0:
        return f"exit status {rc}"
    kind, *data = op.check
    if kind == "digest":
        want = ref["digests"][data[0]]
        return None if sha256(out) == want else "output digest differs from the reference"
    payload = json.loads(out)
    if kind == "bound":
        return None if str(payload["M"]) == data[0] else f"M = {payload['M']}, expected {data[0]}"
    if kind == "pair":
        return _check_pair(payload, *data)
    if kind == "induce":
        return _check_induce(payload, *data)
    raise ValueError(f"unknown check {kind!r}")


def _check_pair(payload: dict, n: int, M: str, pinned: list[str] | None) -> str | None:
    if str(payload["M"]) != M:
        return f"M = {payload['M']}, expected {M}"
    if not payload["pairs"]:
        return "no pair returned"
    pair = payload["pairs"][0]
    if pinned is not None and [str(pair["p"]), str(pair["t"])] != pinned:
        return f"first pair ({pair['p']}, {pair['t']}), expected ({pinned[0]}, {pinned[1]})"
    if not all(v for v in pair["checks"].values() if isinstance(v, bool)):
        return "a pair check is false"
    p, t, m = int(pair["p"]), int(pair["t"]), int(M)
    ok = (
        _probable_prime(p) and _probable_prime(t) and t % 2 == 1
        and p % n == 1 and p > m and t > m
        and pow(t, n, p) == 1
        and all(pow(t, n // q, p) != 1 for q in _prime_divisors(n))
        and pow(t, n // 2, p) == p - 1
    )
    return None if ok else f"pair ({p}, {t}) fails the benchmark's own checks"


def _check_induce(payload: dict, p: str, t: str, n: int) -> str | None:
    # Integers are compared by value, so decimal-string output passes too.
    v = payload["verdicts"]
    got = (int(payload["p"]), int(payload["t"]), int(payload["n"]), int(payload["lambda"]) % int(p),
           v["tame_relation"], v["gram_preserved"], int(v["commutant_dimension"]),
           int(v["tau_projective_order"]), int(v["phi_projective_order"]))
    want = (int(p), int(t), n, 1, True, True, 1, int(p), n)
    return None if got == want else f"verdicts {v} for p={p} t={t} n={n}"

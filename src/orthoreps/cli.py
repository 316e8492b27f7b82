"""Command-line surface with stable, machine-readable output.

Subcommands: enumerate, classify, theorem1, primes, induce, bound.  Exit
status 0 on success (and verification pass), 2 on a theorem1 verification
failure, 1 on usage or validation errors.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arith, induced, irreps, steinberg
from .root_data import LieType


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orthoreps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("enumerate", help="restricted modules of one type below a bound")
    p.add_argument("--family", required=True, choices=list("ABCDEFG"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--bound", required=True, type=int)
    common(p)

    p = sub.add_parser("classify", help="orthogonal/symplectic tensor candidates of dimension n")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--mode", choices=("orbit", "all"), default="orbit")
    common(p)

    p = sub.add_parser("theorem1", help="verify the n = 4*pi orthogonal classification")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pi", type=int)
    group.add_argument("--all", action="store_true")
    common(p)

    p = sub.add_parser("primes", help="search prime pairs (p, t) for a degree n")
    p.add_argument("--n", required=True, type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--M", type=int, dest="M")
    group.add_argument("--auto-M", dest="auto_m", metavar="K,N", help="compute M from k and N")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)
    common(p)

    p = sub.add_parser("induce", help="build and verify the induced local representation")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--lambda", type=int, default=None, dest="lam")
    common(p)

    p = sub.add_parser("bound", help="the dominating constant M for (n, k, N)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--cond", required=True, type=int, help="conductor bound N")
    common(p)

    return parser


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as fp:
        fp.write(text)


def _emit(args, payload, table) -> None:
    """Write payload as indented JSON, or the text table() renders under --format table."""
    text = json.dumps(payload, indent=2) + "\n" if args.format == "json" else table()
    _write(text, args.output)


def _table_candidates(cands) -> str:
    rows = [("type", "weight", "dim", "self_dual", "fs", "epsilon", "min_char")]
    for c in cands:
        rows.append(
            (str(c.type_id), str(list(c.weight)), str(c.dim),
             str(c.self_dual), str(c.fs), str(c.epsilon), str(c.min_char))
        )
    return _align(rows)


def _align(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines) + "\n"


def _weight_str(weight: tuple[int, ...]) -> str:
    if len(weight) > 8 and weight.count(0) > 6:
        terms = [f"{a}@{i + 1}" for i, a in enumerate(weight) if a] or ["0"]
        return "{" + ",".join(terms) + f"}}/{len(weight)}"
    return str(list(weight))


def _tensor_label(tc) -> str:
    factors = " (x) ".join(f"{_weight_str(f.weight)}:{f.dim}" for f in tc.factors)
    return f"{tc.type_id}  {factors}"


def _table_report(report) -> str:
    lines = [
        f"n = {report.n}   mode = {report.mode}   min_char = {report.min_char}",
        f"orthogonal ({len(report.orthogonal)}):",
    ]
    lines += [f"  {_tensor_label(tc)}" for tc in report.orthogonal] or ["  (none)"]
    lines.append(f"symplectic ({len(report.symplectic)}):")
    lines += [f"  {_tensor_label(tc)}" for tc in report.symplectic]
    lines.append(f"excluded non-self-dual products: {report.excluded_non_self_dual}")
    lines.append(f"exclusion notes ({len(report.notes)}):")
    for note in report.notes:
        lines.append(
            f"  [{note.rule}] {note.family} ranks {note.ranks} "
            f"factorization {list(note.factorization)}: {note.detail} (x{note.count})"
        )
    return "\n".join(lines) + "\n"


def _cmd_enumerate(args) -> int:
    cands = irreps.enumerate_restricted(LieType(args.family, args.rank), args.bound)
    if args.format == "json":
        text = "".join(json.dumps(irreps.candidate_json(c)) + "\n" for c in cands)
    else:
        text = _table_candidates(cands)
    _write(text, args.output)
    return 0


def _cmd_classify(args) -> int:
    mode = steinberg.MODE_ORBIT if args.mode == "orbit" else steinberg.MODE_ALL
    report = steinberg.classify_orthogonal(args.n, mode)
    _emit(args, steinberg.report_json(report), lambda: _table_report(report))
    return 0


def _cmd_theorem1(args) -> int:
    evidence = (
        steinberg.theorem1_sweep() if args.all else [steinberg.verify_theorem1(args.pi)]
    )
    passed = all(ev.passed for ev in evidence)

    def table() -> str:
        lines = []
        for ev in evidence:
            orth = "; ".join(_tensor_label(tc) for tc in ev.orthogonal)
            lines.append(
                f"pi={ev.pi} n={ev.n}: {'PASS' if ev.passed else 'FAIL'}  orthogonal: {orth}"
            )
        lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
        return "\n".join(lines) + "\n"

    payload = {"passed": passed, "cases": [steinberg.evidence_json(ev) for ev in evidence]}
    _emit(args, payload, table)
    return 0 if passed else 2


def _cmd_primes(args) -> int:
    if args.auto_m is not None:
        try:
            k_s, n0_s = args.auto_m.split(",")
            k, n0 = int(k_s), int(n0_s)
        except ValueError:
            raise ValueError(f"--auto-M expects 'k,N', got {args.auto_m!r}") from None
        M = arith.compute_M(arith.BoundInputs(n=args.n, k=k, N=n0))
        mode = "auto"
    else:
        M = args.M
        mode = "override"
    result = arith.find_prime_pairs(args.n, M, count=args.count, search_limit=args.limit)

    def table() -> str:
        rows = [("p", "t", "all_checks")]
        for pair in result.pairs:
            rows.append((str(pair.p), str(pair.t), str(all(vars(pair.checks).values()))))
        partial = "search limit exhausted: partial result\n" if result.exhausted else ""
        return _align(rows) + partial

    _emit(args, arith.search_json(result, m_mode=mode), table)
    return 0


def _cmd_induce(args) -> int:
    rep = induced.build_induced_rep(args.p, args.t, args.n, args.lam)
    payload = induced.rep_json(rep)

    def table() -> str:
        v = payload["verdicts"]
        lines = [
            f"p={args.p} t={args.t} n={args.n} lambda={payload['lambda']} zeta={payload['zeta']}",
            f"character exponents: {payload['character_exponents']}",
            f"tame relation: {v['tame_relation']}",
            f"gram preserved: {v['gram_preserved']}",
            f"commutant dimension: {v['commutant_dimension']}",
            f"tau projective order: {v['tau_projective_order']}",
            f"phi projective order: {v['phi_projective_order']}",
        ]
        return "\n".join(lines) + "\n"

    _emit(args, payload, table)
    return 0


def _cmd_bound(args) -> int:
    M = arith.compute_M(arith.BoundInputs(n=args.n, k=args.k, N=args.cond))
    _emit(args, {"n": args.n, "k": args.k, "cond": args.cond, "M": str(M)}, lambda: f"M = {M}\n")
    return 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "theorem1": _cmd_theorem1,
    "primes": _cmd_primes,
    "induce": _cmd_induce,
    "bound": _cmd_bound,
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    # M is written in full: lift Python's int-to-str digit limit (>= 3.11), process-wide
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; ours is 1
        return 1 if exc.code == 2 else int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except TimeoutError:  # an OSError, but a caller's time limit, not a failed command
        raise
    except (ValueError, OSError) as exc:
        print(f"orthoreps {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"orthoreps {args.command}: error: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

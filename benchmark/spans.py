"""Spans and counters around the public functions of each orthoreps layer.

The package binds several of these names at import time (`steinberg` binds
`enumerate_restricted` and `is_prime`, `irreps` binds `dim_from_pairings`
and `build_root_datum`, `induced` binds `is_prime` and
`multiplicative_order`), so a wrapper replaces the original in every module
namespace that holds it, not only in the defining module.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory
and written once when the run ends.  The tracer is not thread-safe; the
benchmark runs the package single-threaded.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function) pairs that get a span; every one the CLI can reach.
WRAPPED = (
    ("root_data", "prewarm_family"),
    ("root_data", "build_root_datum"),
    ("weights", "dim_from_pairings"),
    ("weights", "weyl_dimension"),
    ("irreps", "enumerate_restricted"),
    ("steinberg", "classify_orthogonal"),
    ("steinberg", "verify_theorem1"),
    ("steinberg", "theorem1_sweep"),
    ("arith", "compute_M"),
    ("arith", "find_prime_pairs"),
    ("arith", "factorize"),
    ("arith", "is_prime"),
    ("arith", "multiplicative_order"),
    ("induced", "build_induced_rep"),
    ("induced", "tame_relation_holds"),
    ("induced", "verify_orthogonality"),
    ("induced", "commutant_dimension"),
    ("induced", "projective_order"),
    ("cli", "run"),
)

# enumerate_restricted gets two span names: the first call per type in the
# process carries the per-type scan data, later calls reuse it.
ENUMERATE_SPANS = ("irreps.enumerate_restricted.first", "irreps.enumerate_restricted.repeat")


def span_names() -> list[str]:
    names = []
    for module, func in WRAPPED:
        if (module, func) == ("irreps", "enumerate_restricted"):
            names += ENUMERATE_SPANS
        else:
            names.append(f"{module}.{func}")
    return names


# Counters and ratios derived from spans and return values; with unit.
DERIVED = (
    ("root_data.coroots_built", "count"),
    ("irreps.candidates", "count"),
    ("irreps.search_yield", "ratio"),
    ("steinberg.types_scanned", "count"),
    ("steinberg.products", "count"),
    ("steinberg.notes", "count"),
    ("arith.prime_yield", "ratio"),
    ("induced.commutant_bytes", "bytes"),
    ("induced.projective_order.steps", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
)
# Set-up (op 0) counterparts of the metrics that should move set-up time.
SETUP = (
    ("setup.root_data.prewarm_family.self_s", "s"),
    ("setup.irreps.enumerate_restricted.first.self_s", "s"),
    ("setup.root_data.coroots_built", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    units.update(SETUP)
    return units


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.err = array("b")
        self.stack = [-1]
        self.busy = False
        self.op_id = 0
        self.counters: dict[int, Counter] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._seen_types: set = set()
        self._prewarmed: dict[str, int] = {}
        self._exc: BaseException | None = None
        self.failed_span: str | None = None

    # -- op boundaries

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack = [-1]
        self._exc = None
        self.failed_span = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters.setdefault(self.op_id, Counter())[key] += amount

    # -- installation

    def install(self) -> None:
        import orthoreps
        from orthoreps import arith, cli, induced, irreps, root_data, steinberg, weights

        modules = {"root_data": root_data, "weights": weights, "irreps": irreps,
                   "steinberg": steinberg, "arith": arith, "induced": induced, "cli": cli}
        namespaces = [orthoreps, *modules.values()]
        for module, func in WRAPPED:
            original = getattr(modules[module], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname: str, fn):
        observe = getattr(self, "_observe_" + qualname.split(".")[1], None)
        if qualname == "irreps.enumerate_restricted":
            first_id, repeat_id = (self._span_id(n) for n in ENUMERATE_SPANS)

            def span_id(args, kwargs):
                type_id = args[0] if args else kwargs["type_id"]
                if type_id in self._seen_types:
                    return repeat_id
                self._seen_types.add(type_id)
                return first_id
        else:
            fixed = self._span_id(qualname)

            def span_id(args, kwargs):
                return fixed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The op deadline arrives as a signal that raises between any two
            # bytecodes; while `busy` is set the handler postpones it, so the
            # arrays always stay the same length.
            self.busy = True
            idx = len(self.start)
            depth = len(self.stack)
            t0 = time.perf_counter()
            self.name.append(span_id(args, kwargs))
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.err.append(0)
            self.start.append(t0)
            self.end.append(t0)
            self.stack.append(idx)
            self.busy = False
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.busy = True
                self.err[idx] = 1
                if exc is not self._exc:  # innermost span the failure passed through
                    self._exc = exc
                    self.failed_span = self.names[self.name[idx]]
                raise
            finally:
                self.busy = True
                self.end[idx] = time.perf_counter()
                del self.stack[depth:]
                self.busy = False
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters taken from arguments and return values

    def _observe_prewarm_family(self, args, kwargs, result) -> None:
        from orthoreps.root_data import LieType, positive_coroot_count

        family, rank = args
        if rank > self._prewarmed.get(family, 0):
            self._prewarmed[family] = rank
            self.count("root_data.coroots_built", positive_coroot_count(LieType(family, rank)))

    def _observe_enumerate_restricted(self, args, kwargs, result) -> None:
        self.count("irreps.candidates", len(result))

    def _observe_classify_orthogonal(self, args, kwargs, result) -> None:
        self.count("steinberg.products",
                   len(result.orthogonal) + len(result.symplectic) + result.excluded_non_self_dual)
        self.count("steinberg.notes", len(result.notes))

    def _observe_is_prime(self, args, kwargs, result) -> None:
        if result:
            self.count("arith.is_prime.true")

    def _observe_commutant_dimension(self, args, kwargs, result) -> None:
        n = args[0].n
        self.count("induced.commutant_bytes", 2 * n**4 * 8)

    def _observe_projective_order(self, args, kwargs, result) -> None:
        self.count("induced.projective_order.steps", result)

    # -- results

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int_),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int_),
            "err": np.frombuffer(self.err, dtype=np.int8),
            "start": start,
            "end": end,
            "self": dur - children,
        }

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over the measured ops (op id >= 1), set-up apart."""
        a = self.arrays()
        measured = a["op"] >= 1
        out: dict[str, float] = {}
        for name in span_names():
            sel = measured & (a["name"] == self._ids.get(name, -1))
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.errors"] = int(a["err"][sel].sum())
            out[f"{name}.self_s"] = float(a["self"][sel].sum())
        totals, setup = Counter(), Counter(self.counters.get(0, {}))
        for op_id, counter in self.counters.items():
            if op_id >= 1:
                totals.update(counter)
        out["root_data.coroots_built"] = totals["root_data.coroots_built"]
        out["irreps.candidates"] = totals["irreps.candidates"]
        dim_calls = out["weights.dim_from_pairings.calls"]
        out["irreps.search_yield"] = totals["irreps.candidates"] / dim_calls if dim_calls else 0.0
        classify = self._ids.get("steinberg.classify_orthogonal", -2)
        enum_ids = [self._ids.get(n, -1) for n in ENUMERATE_SPANS]
        under_classify = np.zeros_like(measured)
        has_parent = a["parent"] >= 0
        under_classify[has_parent] = a["name"][a["parent"][has_parent]] == classify
        out["steinberg.types_scanned"] = int(
            (measured & under_classify & np.isin(a["name"], enum_ids)).sum())
        out["steinberg.products"] = totals["steinberg.products"]
        out["steinberg.notes"] = totals["steinberg.notes"]
        prime_calls = out["arith.is_prime.calls"]
        out["arith.prime_yield"] = totals["arith.is_prime.true"] / prime_calls if prime_calls else 0.0
        out["induced.commutant_bytes"] = totals["induced.commutant_bytes"]
        out["induced.projective_order.steps"] = totals["induced.projective_order.steps"]
        out["trace.spans"] = int(measured.sum())
        out["trace.wall_s"] = wall_s
        at_setup = a["op"] == 0
        for key in ("root_data.prewarm_family", "irreps.enumerate_restricted.first"):
            sel = at_setup & (a["name"] == self._ids.get(key, -1))
            out[f"setup.{key}.self_s"] = float(a["self"][sel].sum())
        out["setup.root_data.coroots_built"] = setup["root_data.coroots_built"]
        return out

    def write(self, path: Path, ops: list[dict]) -> None:
        """Spans as arrays plus the span-name and op tables, in one .npz file."""
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            ops=np.array(json.dumps(ops)),
            **{k: a[k] for k in ("name", "parent", "op", "err", "start", "end")},
        )

"""Per-layer spans from wrappers around cppforge's public calls.

Only the traced run imports this module.  ``Tracer.install`` replaces each
target function in its defining module *and* in every cppforge namespace
that imported it by name (``grids`` and ``cli`` do), plus the listed
methods on ``LiftResult``, ``TowerTables`` and ``BaseTables``, and the
entries of ``grids.REGISTRY``.  ``uninstall`` puts every original back.

Spans nest on one stack.  For each group the tracer keeps the call count
and the inclusive time of its outermost calls (a call nested in a call of
the same group is not counted twice); for each layer it keeps self time,
the span time not covered by child spans.  Every close checks that the
span is the innermost open one and that its children fit inside it.

``Tracer(malloc=True)`` also runs tracemalloc inside the outermost tables
spans other than the builds.  That slows those spans, so its times are not
reported; a separate pass gives the peak.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

WRAPPED_MARK = "__perfbench_wrapped__"
SWEEP_TOKENS = ("thm2.2",)
# span groups reported as <group>_s (outermost inclusive time) and <group>_calls
TIMED_GROUPS = ("tables.build", "tables.add_to_x", "tables.arith",
                "lifts.build", "lifts.verify", "lifts.map", "maps.kernel", "maps.criterion",
                "maps.trace_norm", "permcheck.verdict", "permcheck.fiber", "fields.build")
MODULES = ("fields", "maps", "permcheck", "lifts", "search", "tables", "grids", "cli")

FUNCTIONS = {
    "fields.build": ("fields", ["make_prime_field", "make_extension", "make_tower"]),
    "tables.build": ("tables", ["base_tables", "tower_tables"]),
    "lifts.build": ("lifts", ["norm_lift", "trace_lift_simple", "trace_lift_general",
                              "trace_lift_binomial", "cppeg_construct", "monomial_cpp_check"]),
    "maps.kernel": ("maps", ["ppoly_permutes_kernel"]),
    "maps.criterion": ("maps", ["binomial_kernel_criterion"]),
    "maps.trace_norm": ("maps", ["rel_trace", "rel_norm", "trace_kernel"]),
    "permcheck.verdict": ("permcheck", ["is_complete_permutation", "table_verdict",
                                        "value_table"]),
    "permcheck.fiber": ("permcheck", ["fiber_criterion_verify"]),
    "search.enumerate": ("search", ["enumerate_complete_mappings"]),
    "cli.main": ("cli", ["main"]),
}
METHODS = {
    "tables.add_to_x": [("tables", "TowerTables", "add_to_x")],
    "tables.arith": [("tables", "TowerTables", m)
                     for m in ("add", "mul", "pow_map", "pow_all", "scale_row")]
                    + [("tables", "BaseTables", "pow_all")],
    "lifts.verify": [("lifts", "LiftResult", "verified_cpp")],
    "lifts.map": [("lifts", "LiftResult", "map_table"), ("lifts", "LiftResult", "evaluate")],
    # the report builder expands the lifted polynomial; without this span the
    # expansion would count as cli self time
    "lifts.report": [("lifts", "LiftResult", "to_json")],
}


class Tracer:
    def __init__(self, malloc: bool = False):
        self.malloc = malloc
        self.stack = []          # open spans: [group, layer, start, child_time, malloc]
        self.depth = Counter()   # open spans per group
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.violations = []
        self.spans = 0
        self.tables_peak = 0
        self._patched = []

    # -- spans -----------------------------------------------------------

    def _open(self, group: str):
        layer = group.split(".", 1)[0]
        # tracemalloc runs only inside outermost tables spans other than the
        # builds, whose Python loops it would slow down several times over
        malloc = (self.malloc and layer == "tables" and group != "tables.build"
                  and not any(f[1] == "tables" for f in self.stack))
        if malloc:
            tracemalloc.start()
        frame = [group, layer, time.perf_counter(), 0.0, malloc]
        self.stack.append(frame)
        self.depth[group] += 1
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        group, layer, start, child, malloc = frame
        dur = end - start
        if not self.stack or self.stack[-1] is not frame:
            self.violations.append(f"{group}: closed out of order")
        else:
            self.stack.pop()
        if child > dur + 1e-9:
            self.violations.append(f"{group}: children {child:.6f}s > span {dur:.6f}s")
        self.depth[group] -= 1
        self.calls[group] += 1
        self.spans += 1
        if self.depth[group] == 0:
            self.incl[group] += dur
        self.self_time[layer] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        if malloc:
            self.tables_peak = max(self.tables_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def _wrap(self, group: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                tracer._count(fn.__name__, None, failed=True)
                raise
            tracer._close(frame)
            tracer._count(fn.__name__, result, failed=False)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def _count(self, name: str, result, failed: bool):
        if name == "trace_lift_general":
            self.counts["lifts.general_attempts"] += 1
            self.counts["lifts.general_built"] += 0 if failed else 1
        elif name == "enumerate_complete_mappings" and not failed:
            self.counts["search.mappings"] += len(result)
        elif name.startswith("sweep_") and not failed:
            self.counts["grids.cases"] += result.cases
            self.counts["grids.crosschecks"] += result.extras.get("builder_crosschecks", 0)

    # -- installation ----------------------------------------------------

    def _set(self, owner, name: str, value, item: bool = False):
        old = owner[name] if item else getattr(owner, name)
        self._patched.append((owner, name, old, item))
        if item:
            owner[name] = value
        else:
            setattr(owner, name, value)

    def install(self):
        mods = {m: importlib.import_module(f"cppforge.{m}") for m in MODULES}
        namespaces = [importlib.import_module("cppforge"), *mods.values()]
        for group, (home, names) in FUNCTIONS.items():
            for name in names:
                orig = getattr(mods[home], name)
                wrapped = self._wrap(group, orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._set(ns, attr, wrapped)
        for group, targets in METHODS.items():
            for home, cls_name, meth in targets:
                cls = getattr(mods[home], cls_name)
                self._set(cls, meth, self._wrap(group, vars(cls)[meth]))
        registry = mods["grids"].REGISTRY
        for token, fn in list(registry.items()):
            self._set(registry, token, self._wrap(f"grids.{token}", fn), item=True)

    def uninstall(self):
        while self._patched:
            owner, name, old, item = self._patched.pop()
            if item:
                owner[name] = old
            else:
                setattr(owner, name, old)
        if wrapped_anywhere():
            self.violations.append("a wrapper survived uninstall")
        if self.stack:
            self.violations.append(f"{len(self.stack)} spans left open")

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values by name (see BENCHMARK.json for units)."""
        c, t, n = self.calls, self.incl, self.counts
        out = {"grids.self_s": self.self_time["grids"]}
        out.update({f"grids.{tok}_s": t[f"grids.{tok}"] for tok in SWEEP_TOKENS})
        out.update({"grids.cases": n["grids.cases"], "grids.crosschecks": n["grids.crosschecks"]})
        for group in TIMED_GROUPS:
            out[f"{group}_s"] = t[group]
            out[f"{group}_calls"] = c[group]
        out.update({
            "lifts.report_s": t["lifts.report"],
            "lifts.general_built": n["lifts.general_built"],
            "lifts.general_attempts": n["lifts.general_attempts"],
            "search.enumerate_s": t["search.enumerate"],
            "search.calls": c["search.enumerate"],
            "search.mappings": n["search.mappings"],
            "cli.self_s": self.self_time["cli"],
            "cli.calls": c["cli.main"],
            "trace.spans": self.spans,
        })
        return out


def span_cost_s(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one wrapped call adds to a bare call: median over batches."""
    def nop():
        return None

    wrapped = Tracer()._wrap("fields.build", nop)
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            nop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def wrapped_anywhere() -> bool:
    """True if any cppforge namespace or traced class still holds a wrapper."""
    for name, mod in list(sys.modules.items()):
        if name == "cppforge" or name.startswith("cppforge."):
            for val in vars(mod).values():
                if hasattr(val, WRAPPED_MARK):
                    return True
                if isinstance(val, type) and any(hasattr(v, WRAPPED_MARK)
                                                 for v in vars(val).values()):
                    return True
                if isinstance(val, dict) and any(hasattr(v, WRAPPED_MARK)
                                                 for v in list(val.values())):
                    return True
    return False

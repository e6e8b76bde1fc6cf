"""Spans around calls into each lexichoice module, recorded from outside.

``Tracer.install`` replaces every binding of a traced function: the module
attribute, every ``from x import y`` copy in the other lexichoice modules and
every dict entry that holds it (``ALL_CHECKS``, ``FLEX_CHECKS``,
``MECHANISM_CHECKS``, ``COMMANDS``, ...).  ``uninstall`` restores them, so
traced and untraced passes alternate in one process.

A span is (op id, name, start, end, parent index).  Spans stay in memory and
are written when the run ends.  A layer's self time is its span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# Public functions timed per module.  Dict-registered checkers are named by
# their dict key (axioms.ALL_CHECKS, mechanism.MECHANISM_CHECKS, cli.COMMANDS).
KERNELS = ("cwlex_fill", "flex_fill", "chosen_over_wit", "revealed_wit",
           "gs_first_violation", "path_independence_first")
AXIOMS = ("capacity_filling", "gross_substitutes", "monotonicity", "iaa",
          "cwarp", "wrarp", "cwrarp", "path_independence")
PROPERTIES = ("unavailable_type_invariance", "weak_non_wastefulness",
              "resource_monotonicity", "truncation_invariance", "strategy_proofness",
              "irrelevance_of_satisfied_demand", "weak_irrelevance_of_satisfied_demand")
COMMANDS = ("check", "extract", "da", "repro")
FUNCTIONS = {
    "_kernels": KERNELS,
    "rules": ("materialize",),
    "axioms": ("replay_witness",),
    "identify": ("extract_lex_profile", "extract_responsive",
                 "extract_capacity_wise_responsive"),
    "feasibility": ("flex_materialize", "check_f_capacity_filling", "check_csarp",
                    "extract_flex_profile", "f_revealed_pref"),
    "mechanism": ("da_allocate", "find_impossibility_witness"),
    "serialize": ("load_spec", "canonical_json"),
    "casebook": ("run_all",),
    "cli": ("main",),
}


def _self_metrics():
    names = [f"kernels.{k}" for k in KERNELS]
    names += ["rules.materialize", "core.validate"]
    names += [f"axioms.{a}" for a in AXIOMS] + ["axioms.replay_witness"]
    names += [f"identify.{f}" for f in FUNCTIONS["identify"]]
    names += [f"feasibility.{f}" for f in FUNCTIONS["feasibility"]]
    names += ["mechanism.da_allocate", "mechanism.find_impossibility_witness"]
    names += [f"mechanism.{p}" for p in PROPERTIES]
    names += ["serialize.load_spec", "serialize.canonical_json", "casebook.run_all"]
    names += ["cli.main"] + [f"cli.{c}" for c in COMMANDS]
    return names


SPAN_NAMES = _self_metrics()
# Spans whose inclusive time is reported too (none of them nests in itself).
TOTAL_NAMES = ("rules.materialize", "mechanism.da_allocate") + tuple(
    f"cli.{c}" for c in COMMANDS)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = [(f"{s}.self_s", "s", "lower") for s in SPAN_NAMES]
    out += [(f"{s}.total_s", "s", "lower") for s in TOTAL_NAMES]
    out += [(f"kernels.{k}.calls", "count", "lower") for k in KERNELS]
    out += [("rules.materialize.calls", "count", "lower"),
            ("rules.materialize.cells", "count", "lower")]
    for a in AXIOMS:
        out += [(f"axioms.{a}.cells_needed", "count", "lower"),
                (f"axioms.{a}.problems_checked", "count", "lower"),
                (f"axioms.{a}.needed_per_checked", "ratio", "higher")]
    out += [("mechanism.da_allocate.calls", "count", "lower"),
            ("mechanism.calls", "count", "lower"),
            ("mechanism.memo_hit_ratio", "ratio", "higher"),
            ("mechanism.table_materializations", "count", "lower"),
            ("mechanism.alloc_p50_us", "us", "lower"),
            ("mechanism.alloc_p99_us", "us", "lower"),
            ("mechanism.alloc_samples", "count", "higher"),
            ("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.unattributed_s", "s", "lower"),
            ("trace.passes", "count", "higher")]
    return out


# --- honest work counters ---------------------------------------------------


def _mask(labels_of_universe, names) -> int:
    m = 0
    for x in names:
        m |= 1 << labels_of_universe.index(x)
    return m


def cells_needed(axiom: str, n: int, labels, witness) -> int:
    """Cells a checker must examine: its whole space on pass, else up to and
    including the witness in the checker's canonical order.

    Spaces: capacity filling (S, q); monotonicity (S, q < n); gross
    substitutes (S, q, a, b); IAA (q < n, S) q-major; CWARP (q >= 2, S),
    WRARP (q, S) and CWRARP (S, q) over first witnessing sets; path
    independence (S, T, q).
    """
    sets = (1 << n) - 1
    full = {
        "capacity_filling": sets * n,
        "monotonicity": sets * (n - 1),
        "gross_substitutes": sets * n ** 3,
        "iaa": (n - 1) * sets,
        "cwarp": (n - 1) * sets,
        "wrarp": n * sets,
        "cwrarp": sets * n,
        "path_independence": sets * sets * n,
    }[axiom]
    if witness is None:
        return full
    m = lambda key: _mask(labels, witness[key])  # noqa: E731
    idx = labels.index
    if axiom == "capacity_filling":
        return (m("S") - 1) * n + witness["q"]
    if axiom == "monotonicity":
        return (m("S") - 1) * (n - 1) + witness["q"]
    if axiom == "gross_substitutes":
        return ((((m("S") - 1) * n + witness["q"] - 1) * n + idx(witness["a"])) * n
                + idx(witness["b"]) + 1)
    if axiom == "iaa":
        return (witness["q"] - 1) * sets + m("S_prime")
    if axiom == "cwarp":
        return (witness["q"] - 2) * sets + max(m("S_ab"), m("S_ba"))
    if axiom == "wrarp":
        return (witness["q"] - 1) * sets + max(m("S_ab"), m("S_ba"))
    if axiom == "cwrarp":
        return max((m("S_ab") - 1) * n + witness["q_ab"],
                   (m("S_ba") - 1) * n + witness["q_ba"])
    return ((m("S") - 1) * sets + m("T") - 1) * n + witness["q"]


# --- the tracer ----------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op id, name, start, end, parent index)
        self.ops: list[str] = []  # op id -> op name
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = None
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple] = []

    # recording

    def begin_op(self, name: str) -> None:
        self._op = len(self.ops)
        self.ops.append(name)

    def end_op(self) -> None:
        self._op = None

    def count(self, key: str, value=1) -> None:
        if self._op is not None:
            self.counters[self._op][key] += value

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (tracer._op, name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # installation

    def _targets(self):
        """(original function, span name, post-call hook) for every target."""
        import lexichoice
        from lexichoice import axioms, cli, core, mechanism

        out = []
        for mod, names in FUNCTIONS.items():
            for fname in names:
                fn = getattr(getattr(lexichoice, mod, None), fname, None)
                if fn is not None:  # metric names start with a letter: _kernels -> kernels
                    out.append((fn, f"{mod.lstrip('_')}.{fname}", self._hook(mod, fname)))
        for key, fn in getattr(axioms, "ALL_CHECKS", {}).items():
            out.append((fn, f"axioms.{key}", self._checker_hook(key)))
        for key, fn in getattr(mechanism, "MECHANISM_CHECKS", {}).items():
            out.append((fn, f"mechanism.{key}", None))
        for key, fn in getattr(cli, "COMMANDS", {}).items():
            out.append((fn, f"cli.{key}", None))
        validate = getattr(core.ChoiceTable, "validate", None)
        if validate is not None:
            out.append((validate, "core.validate", None))
        return out

    def _hook(self, mod, fname):
        if (mod, fname) == ("rules", "materialize"):
            def after(args, table):
                n = table.n
                self.count("rules.materialize.cells", ((1 << n) - 1) * n)
            return after
        return None

    def _checker_hook(self, axiom):
        def after(args, report):
            table = args[0]
            self.count(f"axioms.{axiom}.cells_needed",
                       cells_needed(axiom, table.n, table.universe.labels, report.witness))
            self.count(f"axioms.{axiom}.problems_checked",
                       getattr(report, "problems_checked", 0) or 0)
        return after

    def install(self) -> None:
        if self._patches:
            return
        from lexichoice import core, mechanism

        for fn, name, after in self._targets():
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = (fn, self._span(name, fn, after))
        wrapped = {k: w for k, (fn, w) in self._wrappers.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "lexichoice" and not modname.startswith("lexichoice."):
                continue
            for key, val in list(vars(mod).items()):
                if id(val) in wrapped and callable(val):
                    w = wrapped[id(val)]
                    if modname == "lexichoice.mechanism" and key == "materialize":
                        w = self._counting(w, "mechanism.table_materializations")
                    self._patch(mod, key, val, w, setattr)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrapped:
                            self._patch(val, k, v, wrapped[id(v)], dict.__setitem__)
        validate = core.ChoiceTable.__dict__.get("validate")
        if validate is not None and id(validate) in wrapped:
            self._patch(core.ChoiceTable, "validate", validate, wrapped[id(validate)], setattr)
        call = mechanism.DAMechanism.__dict__.get("__call__")
        if call is not None:
            self._patch(mechanism.DAMechanism, "__call__", call, self._memo_counter(call),
                        setattr)

    def _patch(self, container, key, old, new, setter) -> None:
        setter(container, key, new)
        self._patches.append((container, key, old, setter))

    def uninstall(self) -> None:
        while self._patches:
            container, key, old, setter = self._patches.pop()
            setter(container, key, old)

    def _counting(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _memo_counter(self, call):
        tracer = self

        @functools.wraps(call)
        def wrapper(mech, prob):
            if tracer._op is None:
                return call(mech, prob)
            before = len(tracer.spans)
            result = call(mech, prob)
            tracer.count("mechanism.calls")
            if len(tracer.spans) == before:
                tracer.count("mechanism.memo_hits")
            return result
        return wrapper

    # results

    def per_op_totals(self) -> dict[int, Counter]:
        """Self time and calls per span name, plus counters, per op id."""
        totals = {op: Counter(self.counters.get(op, ())) for op in range(len(self.ops))}
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            totals[op][f"{name}.self_s"] += end - start - child[i]
            totals[op][f"{name}.calls"] += 1
            if name in TOTAL_NAMES:
                totals[op][f"{name}.total_s"] += end - start
        return totals

    def metrics(self, traced: dict[str, list[float]], untraced: dict[str, list[float]]) -> dict:
        """Per-pass means of every per-layer metric.

        ``traced``/``untraced`` map op name to its durations in traced and
        untraced passes; a pass runs every op of the workload once.
        """
        totals = self.per_op_totals()
        by_op: dict[str, list[Counter]] = defaultdict(list)
        for op, counter in totals.items():
            by_op[self.ops[op]].append(counter)
        per_pass: Counter = Counter()
        for name, counters in by_op.items():
            for counter in counters:
                for key, value in counter.items():
                    per_pass[key] += value / len(counters)
        out = {}
        for name, unit, _ in per_layer_metrics():
            out[name] = float(per_pass.get(name, 0.0))
        for a in AXIOMS:
            checked = per_pass.get(f"axioms.{a}.problems_checked", 0)
            needed = per_pass.get(f"axioms.{a}.cells_needed", 0)
            out[f"axioms.{a}.needed_per_checked"] = needed / checked if checked else 0.0
        calls = per_pass.get("mechanism.calls", 0)
        out["mechanism.memo_hit_ratio"] = (
            per_pass.get("mechanism.memo_hits", 0) / calls if calls else 0.0)
        allocs = [(end - start) * 1e6 for _, name, start, end, _ in self.spans
                  if name == "mechanism.da_allocate"]
        if len(allocs) >= 2:
            q = statistics.quantiles(allocs, n=100, method="inclusive")
            out["mechanism.alloc_p50_us"] = statistics.median(allocs)
            out["mechanism.alloc_p99_us"] = q[98]
        out["mechanism.alloc_samples"] = float(len(allocs))
        wall = sum(statistics.fmean(v) for v in traced.values())
        base = sum(statistics.fmean(v) for v in untraced.values())
        layers = sum(v for k, v in out.items() if k.endswith(".self_s"))
        out["trace.wall_s"] = wall
        out["trace.untraced_wall_s"] = base
        out["trace.overhead_s"] = wall - base
        out["trace.unattributed_s"] = wall - layers
        out["trace.passes"] = float(min(len(v) for v in traced.values()))
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": self.ops}) + "\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f'[{op}, "{name}", {start:.9f}, {end:.9f}, {parent}]\n')

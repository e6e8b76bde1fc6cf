#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lexichoice.

Usage, from the repository root::

    python3 perfbench/run.py --workload check-n12 --seed 1 --seconds 35 --trace 0

Workloads (see perfbench/README.md): ``check-n12``, ``audit-n16`` and
``mech-sweep``.  One process, one thread, closed loop: each operation starts
when the previous one ends.  The package is imported from ``src/`` next to
this directory.  One untimed warm-up operation runs first; then the
workload's operations run in a fixed cycle, each after a timed run of the
workload's reference computation (``workloads.REFERENCES``), until the timed
work adds up to ``--seconds``.  Every output is checked; an operation fails
on a wrong exit code or output, or on stdout that differs between repeats of
it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
declared in BENCHMARK.json; with ``--trace 1`` the run alternates untraced
and traced passes and reports the per-layer metrics.  The lines before it
summarize the run, and a JSON record stamped with the environment is written
to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 10  # import probes, spread evenly over the timed ops
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lexichoice.cli; "
    "d = time.perf_counter() - t; print(d); print(lexichoice.cli.__file__)"
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")


def import_time() -> float:
    """Seconds to import lexichoice.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                       capture_output=True, text=True, timeout=120)
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2:
        die(f"importing lexichoice.cli failed: {r.stderr.strip()[-500:]}")
    if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
        die(f"lexichoice was imported from {lines[1]}, not from {SRC}")
    return float(lines[0])


def environment() -> dict:
    import numpy
    from lexichoice import _kernels

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    cache = {"l2_bytes": libc.sysconf(191), "l3_bytes": libc.sysconf(194)}  # glibc _SC_LEVEL{2,3}_CACHE_SIZE
    return {
        "kernel_path": getattr(_kernels, "ACTIVE", "unknown"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **cache,
        "table_bytes": {n: (1 << n) * (n + 1) * 8 for n in (8, 12, 14, 16)},
    }


class Runner:
    """Closed-loop executor that times, checks and tallies operations."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}

    def execute(self, op, traced: bool) -> float:
        if traced:
            self.tracer.begin_op(op.name)
        start = time.perf_counter()
        try:
            code, stdout = op.run()
        except (Exception, SystemExit) as e:  # a crash is a failed op, not a crashed run
            code, stdout = None, f"raised {e!r}"
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.end_op()
        self.attempted += 1
        problems = self.check(op, code, stdout)
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.name}: {p}" for p in problems)
        return elapsed

    def check(self, op, code, stdout) -> list[str]:
        if code is None:
            return [stdout]
        first = self.first.setdefault(op.name, stdout)
        if stdout != first:
            return ["stdout differs between repeats of the op"]
        if stdout not in op.verified:
            try:
                op.verified[stdout] = op.verify(code, stdout)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
                op.verified[stdout] = [f"output could not be checked: {e!r}"]
        return op.verified[stdout]

    def loop(self, seconds: float, reference):
        """Warm up once, then cycle until the timed work adds up to ``seconds``.

        ``reference`` is timed before every op and once after the last, and
        counts towards ``seconds``.  Returns per-op durations of untraced and
        traced passes (with a tracer every second pass is traced), each
        untraced duration divided by the mean of the reference times just
        before and after it, the reference times, and the import times
        sampled between ops, about
        every ``seconds / SETUP_SAMPLES`` of timed work, so that set-up is
        measured over the same stretch of time as the ops.
        """
        self.execute(self.ops[0], traced=False)
        timed(reference)
        untraced = {op.name: [] for op in self.ops}
        traced = {op.name: [] for op in self.ops}
        pending = []  # (op name, duration, reference time before it)
        relative = {op.name: [] for op in self.ops}
        references = []
        setup = []
        measured = next_probe = 0.0
        cycle = 0
        while True:
            tracing = self.tracer is not None and cycle % 2 == 1
            if self.tracer is not None:
                self.tracer.install() if tracing else self.tracer.uninstall()
            for op in self.ops:
                if measured >= next_probe:
                    setup.append(import_time())
                    next_probe = measured + seconds / SETUP_SAMPLES
                ref = timed(reference)
                references.append(ref)
                for name, elapsed, before in pending:
                    relative[name].append(2 * elapsed / (before + ref))
                pending = []
                elapsed = self.execute(op, tracing)
                (traced if tracing else untraced)[op.name].append(elapsed)
                if not tracing:
                    pending.append((op.name, elapsed, ref))
                measured += ref + elapsed
                done = measured >= seconds and all(untraced.values())
                if self.tracer is not None:
                    done = done and all(traced.values())
                if done:
                    if self.tracer is not None:
                        self.tracer.uninstall()
                    ref = timed(reference)
                    references.append(ref)
                    for name, elapsed, before in pending:
                        relative[name].append(2 * elapsed / (before + ref))
                    traced = {k: v for k, v in traced.items() if v}
                    return untraced, traced, relative, references, setup
            cycle += 1


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def end_to_end(ops, untraced, relative, references, setup, rss_mb):
    """End-to-end metrics, per-command totals and per-op medians."""
    medians = {op.name: statistics.median(untraced[op.name]) for op in ops}
    values = {
        "setup_s": statistics.median(setup),
        "wall_rel": sum(statistics.median(relative[op.name]) for op in ops),
        "peak_rss_mb": rss_mb,
    }
    totals = {"wall_s": sum(medians.values()), "reference_s": statistics.median(references)}
    for op in ops:
        totals[f"{op.command}_s"] = totals.get(f"{op.command}_s", 0.0) + medians[op.name]
    return values, totals, medians


def selftest() -> tuple[bool, list[str]]:
    """Feed the output checks corrupted outputs; each must be flagged."""
    lines = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        rng = random.Random("selftest")
        lex = wl.lex_spec(rng, tmp, "lex", 6)
        da_path, da_expected = wl.da_spec(rng, tmp, "da", 6, 3)
        cases = [
            (wl.check_op("check", lex), "flipped verdict",
             lambda o: o.__setitem__("axioms", {**o["axioms"], "iaa": {
                 **o["axioms"]["iaa"], "verdict": "fail", "witness_replayed": True}})),
            (wl.extract_op("extract", lex, "lexicographic"), "wrong extracted profile",
             lambda o: o["profile"][0].insert(1, o["profile"][0].pop(0))),
            (wl.da_op("da", da_path, da_expected), "changed allocation",
             lambda o: o["allocation"].__setitem__(
                 "i00", "o1" if o["allocation"]["i00"] != "o1" else "o2")),
        ]
        clean = corrupted = 0
        for op, label, corrupt in cases:
            code, stdout = op.run()
            clean += bool(op.verify(code, stdout))
            out = json.loads(stdout)
            corrupt(out)
            flagged = bool(op.verify(code, wl.canonical(out)))
            corrupted += flagged
            lines.append(f"selftest: {label}: {'flagged' if flagged else 'NOT flagged'}")
        lines.append(f"selftest: error_rate clean {clean}/{len(cases)}, "
                     f"corrupted {corrupted}/{len(cases)}")
    return clean == 0 and corrupted == len(cases), lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = load_declared()
    if not (SRC / "lexichoice" / "__init__.py").is_file():
        die(f"no lexichoice package under {SRC}")
    if args.workload not in wl.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)

    import_time()  # untimed: compiles bytecode, as an installed package has it
    sys.path.insert(0, str(SRC))
    import lexichoice.cli  # noqa: F401  (the import every CLI call pays)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops = wl.WORKLOADS[args.workload](rng, str(workdir))
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        runner = Runner(ops, tracer)
        untraced, traced, relative, references, setup = runner.loop(
            args.seconds, wl.REFERENCES[args.workload]())
        st_ok, st_lines = selftest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    values, totals, medians = end_to_end(ops, untraced, relative, references, setup, rss_mb)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    if args.trace:
        wanted = [m["name"] for m in declared["per_layer"]]
        computed = tracer.metrics(traced, untraced)
    else:
        wanted = [m["name"] for m in declared["end_to_end"]]
        computed = values
    missing = [m for m in wanted if m not in computed]
    if missing:
        die(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    metrics = {m: {"value": computed[m], "unit": units[m]} for m in wanted}

    env = environment()
    error_rate = runner.failed / runner.attempted
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_samples_s": setup,
        "end_to_end": values, "totals": totals, "op_medians_s": medians,
        "op_samples": {k: len(v) for k, v in untraced.items()},
        "op_durations_s": {"untraced": untraced, "traced": traced},
        "attempted": runner.attempted, "failed": runner.failed, "error_rate": error_rate,
        "problems": runner.problems[:50], "selftest": st_lines, "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(str(OUT / f"spans-{tag}.jsonl"))

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for name, value in {**values, **totals}.items():
        print(f"{name}: {value:.6f} {units.get(name, 's')}")
    print(f"repeats per op: {json.dumps(summary['op_samples'], sort_keys=True)}")
    print(f"error_rate: {error_rate:.6f} ({runner.failed} failed of {runner.attempted} ops)")
    for line in runner.problems[:20] + st_lines:
        print(line)
    print(json.dumps({
        "correct": runner.failed == 0 and st_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

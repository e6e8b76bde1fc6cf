"""Seeded inputs, operations and output checks for the three workloads.

An operation (``Op``) is one CLI invocation through ``lexichoice.cli.main`` or
one library call; its ``run`` is the timed part and returns the exit code and
the captured stdout.  Its ``verify`` is untimed and returns a list of problems
found in that output (empty when the output is correct).

Checks never pin ``problems_checked`` or the stderr ``elapsed:`` line, and no
argv carries ``--jobs`` or ``--seed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

CHECK_AXIOMS = (
    "capacity_filling", "gross_substitutes", "monotonicity", "iaa",
    "cwarp", "wrarp", "cwrarp", "path_independence",
)
AUDIT_AXIOMS = tuple(a for a in CHECK_AXIOMS if a != "path_independence")
FLEX_AXIOMS = ("f_capacity_filling", "csarp")

# Verdicts known by construction: ordering-built rules are capacity-filling,
# gross-substitutable and path-independent; lexicographic ones also pass
# monotonicity, IAA and CWARP.  Flex tables pass both flex axioms.
ORDERING_PASS = {"capacity_filling", "gross_substitutes", "path_independence"}
LEX_PASS = ORDERING_PASS | {"monotonicity", "iaa", "cwarp"}

# Verdicts pinned by the acceptance suite for lexicographic DA.
SWEEP_PASS = {
    "unavailable_type_invariance", "weak_non_wastefulness",
    "resource_monotonicity", "truncation_invariance", "strategy_proofness",
    "weak_irrelevance_of_satisfied_demand",
}


@dataclass
class Op:
    name: str
    command: str  # check | extract | da | repro | sweep
    run: Callable[[], tuple[int, str]]
    verify: Callable[[int, str], list[str]]
    verified: dict = field(default_factory=dict)  # stdout -> problems


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:02d}" for i in range(n)]


def perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run():
        import lexichoice.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lexichoice.cli.main(argv)
        return code, out.getvalue()

    return run


def parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as e:
        return None, f"stdout is not JSON: {e}"


# --- rule specs -------------------------------------------------------------


class SpecFile:
    """A rule spec written to disk, with what the benchmark knows about it."""

    def __init__(self, workdir: str, name: str, obj: dict, n: int, steps=None,
                 feas=None, known_pass=(), known_fail=(), table=None):
        self.path = os.path.join(workdir, f"{name}.json")
        with open(self.path, "w") as fh:
            json.dump(obj, fh)
        self.obj = obj
        self.n = n
        self.universe = obj["universe"]
        self.steps = steps
        self.feas = feas
        self.known_pass = set(known_pass)
        self.known_fail = set(known_fail)
        self._table = table

    def table(self) -> np.ndarray:
        if self._table is None:
            self._table = oracle.sequential_table(self.n, self.steps, self.feas)
        return self._table


def lex_spec(rng, workdir, name, n) -> SpecFile:
    u = labels("x", n)
    steps = [perm(rng, n) for _ in range(n)]
    obj = {"universe": u, "rule": {"kind": "lexicographic",
                                   "profile": [[u[a] for a in o] for o in steps]}}
    return SpecFile(workdir, name, obj, n, steps=steps, known_pass=LEX_PASS)


def responsive_spec(rng, workdir, name, n) -> SpecFile:
    u = labels("x", n)
    o = perm(rng, n)
    obj = {"universe": u, "rule": {"kind": "responsive", "ordering": [u[a] for a in o]}}
    return SpecFile(workdir, name, obj, n, steps=[o] * n, known_pass=LEX_PASS)


def capacity_wise_spec(rng, workdir, name, n, responsive=False) -> SpecFile:
    """Random capacity-wise lists; with ``responsive`` one ordering per capacity."""
    u = labels("x", n)
    lists = []
    for q in range(1, n + 1):
        if responsive:
            lists.append([perm(rng, n)] * q)
        else:
            lists.append([perm(rng, n) for _ in range(q)])
    obj = {"universe": u, "rule": {"kind": "capacity_wise", "lists": [
        [[u[a] for a in o] for o in row] for row in lists]}}
    table = None
    if responsive:
        table = oracle.responsive_per_capacity_table(n, [row[0] for row in lists])
    return SpecFile(workdir, name, obj, n, known_pass=ORDERING_PASS, table=table)


def perturbed_table_spec(rng, workdir, name, n) -> SpecFile:
    """A lexicographic table with C(S0, 1) moved to the second-best member.

    With |S0| >= 3 this breaks gross substitutes (drop a third member of S0)
    and path independence (S = S0, T = {best of S0}); capacity filling holds.
    """
    u = labels("x", n)
    steps = [perm(rng, n) for _ in range(n)]
    table = oracle.sequential_table(n, steps)
    while True:
        s0 = rng.randrange(1, 1 << n)
        if bin(s0).count("1") >= 3:
            break
    members = [a for a in steps[0] if s0 >> a & 1]
    table[s0, 1] = 1 << members[1]
    obj = {"universe": u, "rule": {"kind": "table", "entries": table.tolist()}}
    return SpecFile(workdir, name, obj, n, table=table,
                    known_pass={"capacity_filling"},
                    known_fail={"gross_substitutes", "path_independence"})


def flex_spec(rng, workdir, name, n) -> SpecFile:
    u = labels("x", n)
    steps = [perm(rng, n) for _ in range(n)]
    # One maximal feasible set of each size from n/2 to n - 2, so that the
    # family, and the work on it, is about the same size for every seed.
    maximal = [sum(1 << a for a in rng.sample(range(n), size))
               for size in range(n // 2, n - 1)]
    feas = oracle.family_membership(n, maximal)
    obj = {"universe": u, "rule": {
        "kind": "flex",
        "profile": [[u[a] for a in o] for o in steps],
        "maximal_feasible_sets": [[u[a] for a in range(n) if m >> a & 1] for m in maximal],
    }}
    return SpecFile(workdir, name, obj, n, steps=steps, feas=feas,
                    known_pass=FLEX_AXIOMS)


# --- checks of CLI outputs ----------------------------------------------------


def verify_check(spec: SpecFile, axioms, code: int, stdout: str) -> list[str]:
    out, err = parse(stdout)
    if err:
        return [err]
    problems = []
    if out.get("input_digest") != digest(spec.obj):
        problems.append("input_digest does not match the spec")
    reports = out.get("axioms", {})
    if set(reports) != set(axioms):
        problems.append(f"reported axioms {sorted(reports)} != requested {sorted(axioms)}")
    all_pass = all(r.get("verdict") == "pass" for r in reports.values())
    if out.get("all_pass") != all_pass:
        problems.append("all_pass disagrees with the verdicts")
    if code != (0 if all_pass else 1):
        problems.append(f"exit code {code} with all_pass={all_pass}")
    for name, rep in reports.items():
        verdict = rep.get("verdict")
        if name in spec.known_pass and verdict != "pass":
            problems.append(f"{name}: verdict {verdict}, known pass")
        if name in spec.known_fail and verdict != "fail":
            problems.append(f"{name}: verdict {verdict}, known fail")
        if verdict == "fail" and rep.get("witness_replayed") is not True:
            problems.append(f"{name}: witness replay is not true")
        if verdict not in ("pass", "fail"):
            problems.append(f"{name}: unknown verdict {verdict!r}")
    return problems


def check_op(name: str, spec: SpecFile, axioms=None) -> Op:
    argv = ["check", spec.path, "--replay-witness"]
    if axioms is not None:
        argv += ["--axioms", ",".join(axioms)]
    wanted = axioms or (FLEX_AXIOMS if spec.feas is not None else CHECK_AXIOMS)
    return Op(name, "check", cli_run(argv),
              lambda code, out: verify_check(spec, wanted, code, out))


def extracted_table(spec: SpecFile, out: dict) -> np.ndarray:
    u, n = spec.universe, spec.n
    idx = lambda row: [u.index(x) for x in row]  # noqa: E731
    kind = out["kind"]
    if kind in ("lexicographic", "flex"):
        return oracle.sequential_table(n, [idx(r) for r in out["profile"]], spec.feas)
    if kind == "responsive":
        return oracle.sequential_table(n, [idx(out["ordering"])] * n)
    return oracle.responsive_per_capacity_table(n, [idx(r) for r in out["orderings"]])


def verify_extract(spec: SpecFile, kind: str, code: int, stdout: str) -> list[str]:
    out, err = parse(stdout)
    if err:
        return [err]
    if code != 0 or out.get("extracted") is not True:
        return [f"extraction failed (exit {code}): {out.get('error')}"]
    if out.get("input_digest") != digest(spec.obj):
        return ["input_digest does not match the spec"]
    if out.get("kind") != kind:
        return [f"kind {out.get('kind')!r} != {kind!r}"]
    try:
        got = extracted_table(spec, out)
    except (KeyError, ValueError, IndexError, TypeError) as e:
        return [f"extracted structure is malformed: {e!r}"]
    if not np.array_equal(got, spec.table()):
        return ["re-materialized extraction differs from the input table"]
    return []


def extract_op(name: str, spec: SpecFile, kind: str) -> Op:
    return Op(name, "extract", cli_run(["extract", spec.path, "--kind", kind]),
              lambda code, out: verify_extract(spec, kind, code, out))


# --- deferred acceptance ----------------------------------------------------


def da_spec(rng, workdir, name, n_agents, n_objects):
    agents = labels("i", n_agents)
    objects = [f"o{k}" for k in range(n_objects)]
    rules, oracle_rules = {}, []
    for k, x in enumerate(objects):
        if k % 2 == 0:
            steps = [perm(rng, n_agents) for _ in range(n_agents)]
            rules[x] = {"kind": "lexicographic",
                        "profile": [[agents[a] for a in o] for o in steps]}
            oracle_rules.append(oracle.ObjectRule("lexicographic", steps))
        else:
            o = perm(rng, n_agents)
            rules[x] = {"kind": "responsive", "ordering": [agents[a] for a in o]}
            oracle_rules.append(oracle.ObjectRule("responsive", [o]))
    prefs = []
    for i in range(n_agents):
        row = list(range(n_objects)) + [None]
        rng.shuffle(row)
        if i < n_objects:  # every object gets applicants, so all tables are built
            row.remove(i)
            row.insert(0, i)
        prefs.append(row)
    caps = [rng.randrange(2, 6) for _ in objects]
    obj = {
        "agents": agents, "objects": objects, "rules": rules,
        "preferences": [["null" if x is None else objects[x] for x in row] for row in prefs],
        "capacities": caps,
    }
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    assignment, rounds = oracle.deferred_acceptance(oracle_rules, prefs, caps)
    expected = {
        "input_digest": digest(obj),
        "allocation": {a: ("null" if x is None else objects[x])
                       for a, x in zip(agents, assignment)},
        "rounds": [{objects[x]: [agents[i] for i in range(n_agents) if m >> i & 1]
                    for x, m in r.items()} for r in rounds],
    }
    return path, expected


def verify_da(expected: dict, code: int, stdout: str) -> list[str]:
    out, err = parse(stdout)
    if err:
        return [err]
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    for key in ("input_digest", "allocation", "rounds"):
        if out.get(key) != expected[key]:
            problems.append(f"{key} differs from the table-free DA oracle")
    return problems


def da_op(name: str, path: str, expected: dict) -> Op:
    return Op(name, "da", cli_run(["da", path, "--trace"]),
              lambda code, out: verify_da(expected, code, out))


def verify_repro(code: int, stdout: str) -> list[str]:
    out, err = parse(stdout)
    if err:
        return [err]
    if code != 0 or out.get("ok") is not True:
        return [f"repro not ok (exit {code})"]
    bad = [c.get("id") for c in out.get("cases", []) if c.get("ok") is not True]
    return [f"repro cases failed: {bad}"] if bad else []


# --- mechanism sweeps ---------------------------------------------------------


class StructureSpec:
    """Per-object orderings of a choice structure, with library and oracle forms.

    ``kind`` is "rotating" (``rules.build_rotating`` over a
    walk-zone and an open ordering, which is lexicographic with steps
    w, o, w, ...) or "responsive".
    """

    def __init__(self, agents, objects, kind, orderings):
        self.agents = tuple(agents)
        self.objects = tuple(objects)
        self.kind = kind
        self.orderings = orderings  # per object: (w, o) or (o,)

    def build(self):
        from lexichoice import mechanism, rules
        from lexichoice.core import make_universe

        u = make_universe(self.agents)
        per_object = {}
        for x, ords in zip(self.objects, self.orderings):
            pos = [rules.PriorityOrdering(tuple(o)) for o in ords]
            if self.kind == "rotating":
                per_object[x] = rules.CapacityWise(rules.build_rotating(pos[0], pos[1], u.n))
            else:
                per_object[x] = rules.Responsive(pos[0])
        return mechanism.ChoiceStructure(u, self.objects, per_object)

    def oracle_rules(self):
        n = len(self.agents)
        out = []
        for ords in self.orderings:
            if self.kind == "rotating":
                steps = [list(ords[t % 2]) for t in range(n)]
                out.append(oracle.ObjectRule("lexicographic", steps))
            else:
                out.append(oracle.ObjectRule("responsive", [list(ords[0])]))
        return out


class OracleMechanism:
    """Memoized table-free DA with the library's mechanism calling convention."""

    def __init__(self, spec: StructureSpec):
        self.objects = spec.objects
        self.rules = spec.oracle_rules()
        self._memo = {}

    def __call__(self, prob):
        if prob not in self._memo:
            idx = {x: k for k, x in enumerate(self.objects)}
            prefs = [[None if x is None else idx[x] for x in p] for p in prob.preferences]
            assignment, _ = oracle.deferred_acceptance(self.rules, prefs, list(prob.capacities))
            self._memo[prob] = tuple(None if x is None else self.objects[x] for x in assignment)
        return self._memo[prob]


def rotating_spec(rng, n_agents, objects) -> StructureSpec:
    """The acceptance suite's sweep structure up to a seeded renaming of the
    agents: every object runs the rotating rule of an ordering w and its
    reverse, so the suite's pass verdicts carry over."""
    agents = labels("i", n_agents)
    w = perm(rng, n_agents)
    return StructureSpec(agents, objects, "rotating", [(w, w[::-1])] * len(objects))


def sweep_results(mech, spaces_checks) -> dict:
    from lexichoice import mechanism

    results = {}
    for space_name, space, names in spaces_checks:
        for name in names:
            rep = mechanism.MECHANISM_CHECKS[name](mech, space)
            results[f"{space_name}.{name}"] = {"verdict": rep.verdict, "witness": rep.witness}
    return results


def sweep_plan(spec: StructureSpec, plan):
    """plan: list of (space name, mechanism space function, check names)."""
    from lexichoice import mechanism

    return [(space_name, getattr(mechanism, space)(spec.agents, spec.objects), names)
            for space_name, space, names in plan]


def sweep_op(name: str, spec: StructureSpec, plan) -> Op:
    def run():
        from lexichoice import mechanism

        mech = mechanism.DAMechanism(spec.build())
        return 0, canonical(sweep_results(mech, sweep_plan(spec, plan)))

    def verify(code, stdout):
        got = json.loads(stdout)
        want = sweep_results(OracleMechanism(spec), sweep_plan(spec, plan))
        problems = []
        for key, w in want.items():
            g = got.get(key)
            if g != w:
                problems.append(f"{key}: {g and g['verdict']} differs from the "
                                f"oracle mechanism's {w['verdict']}")
            if key.split(".", 1)[1] in SWEEP_PASS and w["verdict"] != "pass":
                problems.append(f"{key}: fails, the acceptance suite says pass")
        if set(got) != set(want):
            problems.append("sweep reported a different set of properties")
        return problems

    return Op(name, "sweep", run, verify)


def impossibility_op(name: str, specs: list[StructureSpec]) -> Op:
    def run():
        from lexichoice import mechanism

        out = [mechanism.find_impossibility_witness(s.build()) for s in specs]
        return 0, canonical(out)

    def verify(code, stdout):
        from lexichoice.mechanism import AllocationProblem

        problems = []
        for spec, w in zip(specs, json.loads(stdout)):
            mech = OracleMechanism(spec)

            def prefs(rows):
                return tuple(tuple(None if x == "null" else x for x in row) for row in rows)

            r, rp = prefs(w["R"]), prefs(w["R_prime"])
            q, q_up = tuple(w["capacities"]), tuple(w["capacities_increased"])
            a = w["object_a"]

            def demand(profile, caps):
                alloc = mech(AllocationProblem(profile, caps))
                return sorted(spec.agents[i] for i, p in enumerate(profile)
                              if alloc[i] != a and p.index(a) < p.index(alloc[i]))

            got = {
                "demand_before_R": demand(r, q), "demand_before_R_prime": demand(rp, q),
                "demand_after_R": demand(r, q_up), "demand_after_R_prime": demand(rp, q_up),
            }
            if any(w[k] != v for k, v in got.items()):
                problems.append("impossibility witness demands differ from the oracle")
            elif got["demand_before_R"] != got["demand_before_R_prime"] or \
                    got["demand_after_R"] == got["demand_after_R_prime"]:
                problems.append("impossibility witness does not replay")
        return problems

    return Op(name, "sweep", run, verify)


# --- workloads ----------------------------------------------------------------


def build_check_n12(rng, workdir):
    n = 12
    return [
        check_op("check.lexicographic", lex_spec(rng, workdir, "lex12", n)),
        check_op("check.capacity_wise", capacity_wise_spec(rng, workdir, "cw12", n)),
        check_op("check.table", perturbed_table_spec(rng, workdir, "table12", n)),
    ]


def build_audit_n16(rng, workdir):
    n, nf = 16, 14
    lex = lex_spec(rng, workdir, "lex16", n)
    cw = capacity_wise_spec(rng, workdir, "cw16", n)
    resp = responsive_spec(rng, workdir, "resp16", n)
    cwr = capacity_wise_spec(rng, workdir, "cwresp16", n, responsive=True)
    flex = flex_spec(rng, workdir, "flex14", nf)
    da_path, da_expected = da_spec(rng, workdir, "da16x4", 16, 4)
    return [
        check_op("check.lexicographic", lex, AUDIT_AXIOMS),
        check_op("check.capacity_wise", cw, AUDIT_AXIOMS),
        extract_op("extract.lexicographic", lex, "lexicographic"),
        extract_op("extract.responsive", resp, "responsive"),
        extract_op("extract.capacity_wise", cwr, "capacity_wise"),
        check_op("check.flex", flex),
        extract_op("extract.flex", flex, "flex"),
        da_op("da.16x4", da_path, da_expected),
    ]


ALL_PROPS = (
    "unavailable_type_invariance", "weak_non_wastefulness", "resource_monotonicity",
    "truncation_invariance", "strategy_proofness", "irrelevance_of_satisfied_demand",
    "weak_irrelevance_of_satisfied_demand",
)


def build_mech_sweep(rng, workdir):
    three = rotating_spec(rng, 3, ("x", "y"))
    four = rotating_spec(rng, 4, ("x", "y"))
    impossible = [
        StructureSpec(labels("i", 3), ("x", "y", "z"), "responsive",
                      [(perm(rng, 3),) for _ in range(3)])
        for _ in range(3)
    ] + [rotating_spec(rng, 4, ("x", "y", "z"))]
    repro = Op("repro", "repro", cli_run(["repro"]), verify_repro)
    return [
        sweep_op("sweep.3x2", three, [("exhaustive", "exhaustive_space", ALL_PROPS)]),
        sweep_op("sweep.4x2_single", four, [("single", "single_object_space", (
            "weak_irrelevance_of_satisfied_demand", "irrelevance_of_satisfied_demand",
            "unavailable_type_invariance", "strategy_proofness"))]),
        sweep_op("sweep.4x2_exhaustive", four, [("exhaustive", "exhaustive_space", (
            "weak_non_wastefulness", "irrelevance_of_satisfied_demand"))]),
        impossibility_op("sweep.impossibility", impossible),
        repro,
    ]


WORKLOADS = {
    "check-n12": build_check_n12,
    "audit-n16": build_audit_n16,
    "mech-sweep": build_mech_sweep,
}


# --- references ---------------------------------------------------------------
#
# A workload's reference is a fixed computation in oracle.py (no lexichoice
# code, the same inputs for every seed) of the same kind as the workload's
# operations, timed beside each of them.  On a shared host the speed of the
# same code changes by up to 1.85x for stretches of 5 to 30 seconds, and by
# how much depends on the kind of code: pure-Python DA slows as much as the
# mechanism sweeps do, numpy fills slow as much as the table commands (about
# 1.2x), and neither tracks the other.  Dividing an operation's time by its
# reference's cancels that change.


def table_reference() -> Callable[[], object]:
    """Numpy: the oracle fill of one n = 16 lexicographic table."""
    rng = random.Random("reference")
    steps = [perm(rng, 16) for _ in range(16)]
    return lambda: oracle.sequential_table(16, steps)


def da_reference() -> Callable[[], object]:
    """Pure Python: oracle DA on every profile in which each of 4 agents
    ranks 2 objects and the null object (6**4 = 1296 problems), five times."""
    rng = random.Random("reference")
    rules = [oracle.ObjectRule("lexicographic", [perm(rng, 4) for _ in range(4)])
             for _ in range(2)]
    rows = list(itertools.permutations([0, 1, None]))
    problems = [[list(r) for r in profile] for profile in itertools.product(rows, repeat=4)]

    def run():
        for _ in range(5):
            for prefs in problems:
                oracle.deferred_acceptance(rules, prefs, [1, 1])
    return run


REFERENCES = {
    "check-n12": table_reference,
    "audit-n16": table_reference,
    "mech-sweep": da_reference,
}

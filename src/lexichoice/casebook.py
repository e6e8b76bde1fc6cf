"""Embedded regression casebook: canonical rules with pinned expected outputs.

Each case builds a small rule, structure, or mechanism from scratch, runs
the relevant checkers, and reduces the result to a plain JSON-able dict.
The expected dict is pinned here; a case passes when observed == expected,
bit for bit.  The ``repro`` CLI subcommand replays every case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .axioms import ALL_CHECKS, check_insertion
from .core import ChoiceTable, Problem, make_universe
from .identify import ExtractionError, extract_lex_profile
from .mechanism import (
    AllocationProblem,
    ChoiceStructure,
    DAMechanism,
    demand,
    find_impossibility_witness,
)
from .rules import (
    CapacityWise,
    Responsive,
    build_open_walk,
    build_walk_open,
    build_compromise,
    materialize,
    ordering_from_labels,
)


@dataclass(frozen=True)
class ReproCase:
    case_id: str
    title: str
    run: Callable[[], dict]
    expected: dict


def _rejections(table: ChoiceTable, problems: dict[str, tuple]) -> dict:
    out = {}
    for key, (labels, q) in problems.items():
        s = table.universe.mask_of(labels)
        out[key] = sorted(table.universe.labels_of(s & ~table.choose(Problem(s, q))))
    return out


def is_lexicographic(table: ChoiceTable) -> bool:
    """Whether ``extract_lex_profile`` recovers a profile generating ``table``."""
    try:
        extract_lex_profile(table)
        return True
    except ExtractionError:
        return False


# --- small hand-built tables ---------------------------------------------------
#
# Each hand table reads its cells from materialized responsive tables; C(S, 1)
# of a responsive table is the top-priority member of S.


def _responsive(u, labels) -> ChoiceTable:
    return materialize(Responsive(ordering_from_labels(u, labels)), u)


def switching_rule_table() -> ChoiceTable:
    """Two responsive branches switched by the presence of one alternative."""
    u = make_universe("abcde")
    with_d = _responsive(u, "abcde")
    without_d = _responsive(u, "acbde")
    d = u.index("d")

    def cell(mask, q):
        return (with_d if (mask >> d) & 1 else without_d).choose(Problem(mask, q))

    return ChoiceTable.from_function(u, cell)


def favored_singleton_table() -> ChoiceTable:
    """Fixed singleton when one alternative is present, responsive otherwise."""
    u = make_universe("abc")
    order = _responsive(u, "abc")
    a = u.index("a")

    def cell(mask, q):
        if (mask >> a) & 1:
            return 1 << a
        return order.choose(Problem(mask, q))

    return ChoiceTable.from_function(u, cell)


def capacity_switch_table() -> ChoiceTable:
    """One ordering at capacity 1, a different ordering above."""
    u = make_universe("abcd")
    low = _responsive(u, "abcd")
    high = _responsive(u, "bcda")

    def cell(mask, q):
        return (low if q == 1 else high).choose(Problem(mask, q))

    return ChoiceTable.from_function(u, cell)


def tail_swap_table() -> ChoiceTable:
    """Two responsive branches differing only below the switching alternative."""
    u = make_universe("abcd")
    with_a = _responsive(u, "abcd")
    without_a = _responsive(u, "abdc")
    a = u.index("a")

    def cell(mask, q):
        return (with_a if (mask >> a) & 1 else without_a).choose(Problem(mask, q))

    return ChoiceTable.from_function(u, cell)


def constant_singleton_table() -> ChoiceTable:
    """Always the single top-priority alternative, regardless of capacity."""
    u = make_universe("abc")
    order = _responsive(u, "abc")
    return ChoiceTable.from_function(u, lambda mask, q: order.choose(Problem(mask, 1)))


def trigger_switch_table() -> ChoiceTable:
    """Top of one ordering at capacity 1 when a trigger is present, else
    responsive to another ordering."""
    u = make_universe("abc")
    order = _responsive(u, "abc")
    other = _responsive(u, "bac")
    c = u.index("c")

    def cell(mask, q):
        if q == 1 and (mask >> c) & 1:
            return order.choose(Problem(mask, 1))
        return other.choose(Problem(mask, q))

    return ChoiceTable.from_function(u, cell)


def exception_patch_table() -> ChoiceTable:
    """Priority-maximal at capacity 1, whole set above, one exception."""
    u = make_universe("abc")
    order = _responsive(u, "abc")
    full = u.full_mask
    bc = u.mask_of("bc")

    def cell(mask, q):
        if q == 1:
            return order.choose(Problem(mask, 1))
        if mask == full and q == 2:
            return bc
        return mask

    return ChoiceTable.from_function(u, cell)


# --- two-ordering school tables ------------------------------------------------

WALK_5 = "abcde"
OPEN_5 = "ebdca"
WALK_6 = "abcdxy"
OPEN_6 = "bcyxda"  # this ranking fixture lists only five; the remaining
#                    alternative is placed last


def walk_open_rule_5():
    u = make_universe(WALK_5)
    w = ordering_from_labels(u, WALK_5)
    o = ordering_from_labels(u, OPEN_5)
    return u, build_walk_open(w, o, u.n)


def open_walk_rule_5():
    """Open-walk with the two orderings' roles interchanged."""
    u = make_universe(WALK_5)
    w = ordering_from_labels(u, OPEN_5)
    o = ordering_from_labels(u, WALK_5)
    return u, build_open_walk(w, o, u.n)


def compromise_rule_6():
    u = make_universe(WALK_6)
    w = ordering_from_labels(u, WALK_6)
    o = ordering_from_labels(u, OPEN_6)
    return u, build_compromise(w, o, u.n)


def walk_open_structure(objects: tuple[str, ...]) -> ChoiceStructure:
    """Every object runs the same five-agent walk-open rule."""
    u, lists = walk_open_rule_5()
    return ChoiceStructure(u, objects, {x: CapacityWise(lists) for x in objects})


def impossibility_structure() -> ChoiceStructure:
    """Three objects with responsive rules over three agents."""
    u = make_universe(("i", "j", "k"))
    orders = {
        "x": ordering_from_labels(u, ("i", "j", "k")),
        "y": ordering_from_labels(u, ("j", "i", "k")),
        "z": ordering_from_labels(u, ("i", "k", "j")),
    }
    return ChoiceStructure(
        u, ("x", "y", "z"), {x: Responsive(o) for x, o in orders.items()}
    )


# --- case runners ---------------------------------------------------------------

_FOUR = ("capacity_filling", "gross_substitutes", "monotonicity", "iaa")
FOUR_CWARP = _FOUR + ("cwarp",)
_NO_GS = ("capacity_filling", "monotonicity", "iaa", "cwarp")


def run_axioms(t: ChoiceTable, axioms, witnesses=(), spot_checks=None) -> dict:
    """Each axiom's verdict on ``t``, the fail witness of each axiom in
    ``witnesses``, and C(S, q) at each named (S, q) in ``spot_checks``."""
    u = t.universe
    reports = {name: ALL_CHECKS[name](t) for name in axioms}
    out = {"axioms": {name: rep.verdict for name, rep in reports.items()}}
    for name in witnesses:
        out[f"{name}_witness"] = reports[name].witness
    if spot_checks is not None:
        out["spot_checks"] = {
            key: sorted(u.labels_of(t.choose(Problem(u.mask_of(s), q))))
            for key, (s, q) in spot_checks.items()
        }
    return out


def walk_open_table() -> ChoiceTable:
    u, lists = walk_open_rule_5()
    return materialize(CapacityWise(lists), u)


_REJ_5 = {
    "R({a,c,d,e},2)": ("acde", 2),
    "R({a,b,c,d},2)": ("abcd", 2),
    "R({a,c,d,e},3)": ("acde", 3),
    "R({a,b,c,d},3)": ("abcd", 3),
}
_REJ_6 = {
    "R({a,b,c,x,y},3)": ("abcxy", 3),
    "R({a,b,d,x,y},3)": ("abdxy", 3),
    "R({a,b,c,x,y},4)": ("abcxy", 4),
    "R({a,b,d,x,y},4)": ("abdxy", 4),
}


def _run_school(builder, rejections) -> dict:
    u, lists = builder()
    t = materialize(CapacityWise(lists), u)
    return {
        **run_axioms(t, _FOUR),
        "insertion": check_insertion(lists).verdict,
        "rejections": _rejections(t, rejections),
        "lexicographic": is_lexicographic(t),
    }


def _run_demand_discontinuity() -> dict:
    cs = walk_open_structure(("x",))
    mech = DAMechanism(cs)
    agents = cs.agents.labels
    accept_all = ("x", None)
    reject = (None, "x")

    def profile(refuser):
        return tuple(reject if i == refuser else accept_all for i in agents)

    r = profile("b")
    r_prime = profile("e")
    demands = {}
    for tag, prefs in (("R", r), ("R_prime", r_prime)):
        for qtag, caps in (("q", (2,)), ("q_plus_1", (3,))):
            d = demand(mech(AllocationProblem(prefs, caps)), prefs, "x")
            demands[f"demand_{tag}_{qtag}"] = sorted(agents[i] for i in d)
    demands["isd_violated"] = (
        demands["demand_R_q"] == demands["demand_R_prime_q"]
        and demands["demand_R_q_plus_1"] != demands["demand_R_prime_q_plus_1"]
    )
    return demands


def _run_impossibility_witness_case() -> dict:
    witness = find_impossibility_witness(impossibility_structure())
    witness["isd_violated"] = (
        witness["demand_before_R"] == witness["demand_before_R_prime"]
        and witness["demand_after_R"] != witness["demand_after_R_prime"]
    )
    return witness


# --- the registry ----------------------------------------------------------------

_SCHOOL_VERDICTS = {
    "capacity_filling": "pass",
    "gross_substitutes": "pass",
    "monotonicity": "pass",
    "iaa": "fail",
}

CASES: dict[str, ReproCase] = {}


def _case(case_id: str, title: str, run, expected: dict) -> None:
    CASES[case_id] = ReproCase(case_id, title, run, expected)


_case(
    "switching_rule",
    "presence-switched responsive rule: all axioms but pairwise "
    "revealed-preference asymmetry",
    lambda: run_axioms(
        switching_rule_table(),
        ("capacity_filling", "monotonicity", "iaa", "cwarp"),
        ("cwarp",),
        {"C({a,b,c,d},2)": ("abcd", 2), "C({a,b,c,e},2)": ("abce", 2)},
    ),
    {
        "axioms": {
            "capacity_filling": "pass",
            "monotonicity": "pass",
            "iaa": "pass",
            "cwarp": "fail",
        },
        "cwarp_witness": {
            "q": 2,
            "a": "b",
            "b": "c",
            "S_ab": ["a", "b", "c", "d"],
            "S_ba": ["a", "b", "c"],
        },
        "spot_checks": {
            "C({a,b,c,d},2)": ["a", "b"],
            "C({a,b,c,e},2)": ["a", "c"],
        },
    },
)

_case(
    "favored_singleton",
    "fixed-singleton rule: capacity-filling is needed for rejection-based "
    "consistency",
    lambda: run_axioms(favored_singleton_table(), _NO_GS, ("capacity_filling", "iaa")),
    {
        "axioms": {
            "capacity_filling": "fail",
            "monotonicity": "pass",
            "cwarp": "pass",
            "iaa": "fail",
        },
        "capacity_filling_witness": {"S": ["a", "b"], "q": 2, "chosen": ["a"]},
        "iaa_witness": {
            "S": ["a", "c"],
            "S_prime": ["b", "c"],
            "q": 1,
            "rejected": ["c"],
            "new_accepted_S": [],
            "new_accepted_S_prime": ["c"],
        },
    },
)

_case(
    "capacity_switch",
    "capacity-switched responsive rule: monotonicity is needed for "
    "rejection-based consistency",
    lambda: run_axioms(capacity_switch_table(), _NO_GS, ("monotonicity", "iaa")),
    {
        "axioms": {
            "capacity_filling": "pass",
            "monotonicity": "fail",
            "cwarp": "pass",
            "iaa": "fail",
        },
        "monotonicity_witness": {"S": ["a", "b", "c"], "q": 1, "alt": "a"},
        "iaa_witness": {
            "S": ["a", "c", "d"],
            "S_prime": ["b", "c", "d"],
            "q": 1,
            "rejected": ["c", "d"],
            "new_accepted_S": ["c", "d"],
            "new_accepted_S_prime": ["c"],
        },
    },
)

_case(
    "tail_swap",
    "presence-switched responsive rule: revealed-preference asymmetry is "
    "needed for rejection-based consistency",
    lambda: run_axioms(tail_swap_table(), _NO_GS, ("cwarp", "iaa")),
    {
        "axioms": {
            "capacity_filling": "pass",
            "monotonicity": "pass",
            "cwarp": "fail",
            "iaa": "fail",
        },
        "cwarp_witness": {
            "q": 2,
            "a": "c",
            "b": "d",
            "S_ab": ["a", "c", "d"],
            "S_ba": ["b", "c", "d"],
        },
        "iaa_witness": {
            "S": ["a", "c", "d"],
            "S_prime": ["b", "c", "d"],
            "q": 1,
            "rejected": ["c", "d"],
            "new_accepted_S": ["c"],
            "new_accepted_S_prime": ["d"],
        },
    },
)

_case(
    "constant_singleton",
    "constant-singleton rule: violates only capacity-filling",
    lambda: run_axioms(constant_singleton_table(), _FOUR, ("capacity_filling",)),
    {
        "axioms": {
            "capacity_filling": "fail",
            "gross_substitutes": "pass",
            "monotonicity": "pass",
            "iaa": "pass",
        },
        "capacity_filling_witness": {"S": ["a", "b"], "q": 2, "chosen": ["a"]},
    },
)

_case(
    "trigger_switch",
    "trigger-switched rule: violates only removal stability",
    lambda: run_axioms(trigger_switch_table(), FOUR_CWARP, ("gross_substitutes",)),
    {
        "axioms": {
            "capacity_filling": "pass",
            "gross_substitutes": "fail",
            "monotonicity": "pass",
            "iaa": "pass",
            "cwarp": "pass",
        },
        "gross_substitutes_witness": {
            "S": ["a", "b", "c"],
            "q": 1,
            "a": "a",
            "b": "c",
        },
    },
)

_case(
    "exception_patch",
    "exception-patched rule: violates only monotonicity",
    lambda: run_axioms(exception_patch_table(), _FOUR, ("monotonicity",)),
    {
        "axioms": {
            "capacity_filling": "pass",
            "gross_substitutes": "pass",
            "monotonicity": "fail",
            "iaa": "pass",
        },
        "monotonicity_witness": {"S": ["a", "b", "c"], "q": 1, "alt": "a"},
    },
)

_case(
    "walk_open_axioms",
    "walk-open rule: violates only the rejection-consistency pair",
    lambda: run_axioms(walk_open_table(), FOUR_CWARP),
    {
        "axioms": {
            "capacity_filling": "pass",
            "gross_substitutes": "pass",
            "monotonicity": "pass",
            "iaa": "fail",
            "cwarp": "fail",
        }
    },
)

_case(
    "walk_open_rejections",
    "walk-open school rule: equal rejections at 2, different new rejections at 3",
    lambda: _run_school(walk_open_rule_5, _REJ_5),
    {
        "axioms": _SCHOOL_VERDICTS,
        "insertion": "pass",
        "rejections": {
            "R({a,c,d,e},2)": ["c", "d"],
            "R({a,b,c,d},2)": ["c", "d"],
            "R({a,c,d,e},3)": ["d"],
            "R({a,b,c,d},3)": ["c"],
        },
        "lexicographic": False,
    },
)

_case(
    "open_walk_rejections",
    "open-walk school rule with interchanged orderings: same violation pattern",
    lambda: _run_school(open_walk_rule_5, _REJ_5),
    {
        "axioms": _SCHOOL_VERDICTS,
        "insertion": "pass",
        "rejections": {
            "R({a,c,d,e},2)": ["c", "d"],
            "R({a,b,c,d},2)": ["c", "d"],
            "R({a,c,d,e},3)": ["d"],
            "R({a,b,c,d},3)": ["c"],
        },
        "lexicographic": False,
    },
)

_case(
    "compromise_rejections",
    "compromise school rule: equal rejections at 3, different new rejections at 4",
    lambda: _run_school(compromise_rule_6, _REJ_6),
    {
        "axioms": _SCHOOL_VERDICTS,
        "insertion": "pass",
        "rejections": {
            "R({a,b,c,x,y},3)": ["x", "y"],
            "R({a,b,d,x,y},3)": ["x", "y"],
            "R({a,b,c,x,y},4)": ["y"],
            "R({a,b,d,x,y},4)": ["x"],
        },
        "lexicographic": False,
    },
)

_case(
    "demand_discontinuity",
    "deferred acceptance over the walk-open rule: demand-irrelevance fails",
    _run_demand_discontinuity,
    {
        "demand_R_q": ["c", "d"],
        "demand_R_prime_q": ["c", "d"],
        "demand_R_q_plus_1": ["d"],
        "demand_R_prime_q_plus_1": ["c"],
        "isd_violated": True,
    },
)

_case(
    "impossibility_witness",
    "constructed two-profile configuration violating demand-irrelevance "
    "for any deferred acceptance mechanism over three objects",
    _run_impossibility_witness_case,
    {
        "agent_i": "i",
        "agent_j": "j",
        "object_a": "x",
        "object_b": "z",
        "R": [
            ["x", "z", "null", "y"],
            ["z", "x", "null", "y"],
            ["null", "x", "z", "y"],
        ],
        "R_prime": [
            ["x", "z", "null", "y"],
            ["x", "z", "null", "y"],
            ["null", "x", "z", "y"],
        ],
        "capacities": [0, 0, 1],
        "capacities_increased": [1, 0, 1],
        "demand_before_R": ["i", "j"],
        "demand_before_R_prime": ["i", "j"],
        "demand_after_R": [],
        "demand_after_R_prime": ["j"],
        "isd_violated": True,
    },
)


def run_case(case_id: str) -> tuple[dict, dict, bool]:
    """Run one case; returns (observed, expected, matches)."""
    case = CASES[case_id]
    observed = case.run()
    return observed, case.expected, observed == case.expected


def case_record(case_id: str) -> dict:
    """One case's JSON-able result, as ``repro`` reports it."""
    observed, expected, ok = run_case(case_id)
    return {
        "id": case_id,
        "title": CASES[case_id].title,
        "ok": ok,
        "observed": observed,
        "expected": expected,
    }


def run_all() -> dict:
    """Replay every case; deterministic, JSON-able summary."""
    results = [case_record(case_id) for case_id in CASES]
    return {"ok": all(r["ok"] for r in results), "cases": results}

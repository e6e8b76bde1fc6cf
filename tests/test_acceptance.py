"""End-to-end acceptance suite.

Each test enforces one numbered guarantee of the package: exact round-trips,
exhaustive axiom verdicts on the committed fixture rules, mechanism property
sweeps, and byte-level determinism of the command-line reports.  Runtime
bounds are asserted where a guarantee includes one.
"""

import json
import time



from lexichoice import (
    ALL_CHECKS,
    AllocationProblem,
    CapacityWise,
    CapacityWiseLists,
    ChoiceStructure,
    DAMechanism,
    Lexicographic,
    PriorityOrdering,
    Problem,
    Responsive,
    build_rotating,
    check_capacity_filling,
    check_csarp,
    check_cwarp,
    check_cwrarp,
    check_f_capacity_filling,
    check_gross_substitutes,
    check_iaa,
    check_monotonicity,
    check_resource_monotonicity,
    check_strategy_proofness,
    check_truncation_invariance,
    check_unavailable_type_invariance,
    check_weak_isd,
    check_weak_non_wastefulness,
    check_wrarp,
    da_allocate,
    demand,
    exhaustive_space,
    extract_flex_profile,
    extract_lex_profile,
    extract_responsive,
    find_impossibility_witness,
    flex_materialize,
    materialize,
    make_universe,
    ordering_from_labels,
    rejected,
    single_object_space,
)
from lexichoice.casebook import (
    OPEN_5,
    WALK_5,
    compromise_rule_6,
    switching_rule_table,
    open_walk_rule_5,
    walk_open_rule_5,
    walk_open_structure,
)
from lexichoice.cli import main
from lexichoice.rules import BOSTON_BUILDERS

from conftest import random_ordering, random_profile, universe
from test_feasibility import random_family


def _elapsed(start):
    return time.perf_counter() - start


def test_criterion_01_extraction_round_trip_500_profiles_per_size(rng):
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        u = universe(n)
        for _ in range(500):
            profile = random_profile(rng, n)
            t = materialize(Lexicographic(profile), u)
            recovered = extract_lex_profile(t)
            assert materialize(Lexicographic(recovered), u) == t
    assert _elapsed(start) < 10.0


def test_criterion_02_sequential_tables_pass_core_axioms(rng):
    start = time.perf_counter()
    for n in range(1, 7):
        u = universe(n)
        for _ in range(25):
            t = materialize(Lexicographic(random_profile(rng, n)), u)
            assert check_capacity_filling(t).ok
            assert check_gross_substitutes(t).ok
            assert check_monotonicity(t).ok
            assert check_iaa(t).ok
            assert check_cwarp(t).ok
    assert _elapsed(start) < 5.0


def test_criterion_03_school_choice_verdict_matrix_with_exact_rejections():
    start = time.perf_counter()
    u = universe(5)
    w = ordering_from_labels(u, WALK_5)
    o = ordering_from_labels(u, OPEN_5)
    tables = {
        name: materialize(CapacityWise(build(w, o, 5)), u)
        for name, build in BOSTON_BUILDERS.items()
    }
    # the open-walk fixture interchanges the two orderings' roles, which makes
    # its table coincide with the walk-open one
    u5b, ow = open_walk_rule_5()
    tables["open_walk"] = materialize(CapacityWise(ow), u5b)
    u6, lists6 = compromise_rule_6()
    tables["compromise"] = materialize(CapacityWise(lists6), u6)

    for name, t in tables.items():
        assert check_capacity_filling(t).ok, name
        assert check_gross_substitutes(t).ok, name
        assert check_monotonicity(t).ok, name
        if name == "rotating":
            assert check_iaa(t).ok
        else:
            assert not check_iaa(t).ok, name

    def rej(t, labels, q):
        uu = t.universe
        return rejected(t, Problem(uu.mask_of(labels), q))

    for name in ("walk_open", "open_walk"):
        t = tables[name]
        assert rej(t, "acde", 2) == t.universe.mask_of("cd")
        assert rej(t, "abcd", 2) == t.universe.mask_of("cd")
        assert rej(t, "acde", 3) == t.universe.mask_of("d")
        assert rej(t, "abcd", 3) == t.universe.mask_of("c")
    t = tables["compromise"]
    assert rej(t, "abcxy", 3) == u6.mask_of("xy")
    assert rej(t, "abdxy", 3) == u6.mask_of("xy")
    assert rej(t, "abcxy", 4) == u6.mask_of("y")
    assert rej(t, "abdxy", 4) == u6.mask_of("x")
    assert _elapsed(start) < 1.0


def test_criterion_04_three_rule_suite_with_exact_witnesses():
    from lexichoice.casebook import (
        favored_singleton_table,
        capacity_switch_table,
        tail_swap_table,
    )

    t1 = favored_singleton_table()
    assert check_gross_substitutes(t1).ok and check_monotonicity(t1).ok
    assert not check_capacity_filling(t1).ok
    rep = check_iaa(t1)
    assert not rep.ok
    assert rep.witness == {
        "S": ["a", "c"],
        "S_prime": ["b", "c"],
        "q": 1,
        "rejected": ["c"],
        "new_accepted_S": [],
        "new_accepted_S_prime": ["c"],
    }

    t2 = capacity_switch_table()
    assert check_capacity_filling(t2).ok and check_gross_substitutes(t2).ok
    assert not check_monotonicity(t2).ok
    rep = check_iaa(t2)
    assert not rep.ok
    assert rep.witness == {
        "S": ["a", "c", "d"],
        "S_prime": ["b", "c", "d"],
        "q": 1,
        "rejected": ["c", "d"],
        "new_accepted_S": ["c", "d"],
        "new_accepted_S_prime": ["c"],
    }

    t3 = tail_swap_table()
    assert check_capacity_filling(t3).ok and check_monotonicity(t3).ok
    assert not check_cwarp(t3).ok
    rep = check_iaa(t3)
    assert not rep.ok
    assert rep.witness["new_accepted_S"] != rep.witness["new_accepted_S_prime"]


def test_criterion_05_independence_suite():
    from lexichoice.casebook import (
        constant_singleton_table,
        trigger_switch_table,
        exception_patch_table,
        walk_open_rule_5,
    )

    u5, wo = walk_open_rule_5()
    suite = {
        "capacity_filling": constant_singleton_table(),
        "gross_substitutes": trigger_switch_table(),
        "monotonicity": exception_patch_table(),
        "iaa": materialize(CapacityWise(wo), u5),
    }
    core = ("capacity_filling", "gross_substitutes", "monotonicity", "iaa")
    for named, t in suite.items():
        for axiom in core:
            assert ALL_CHECKS[axiom](t).ok == (axiom != named), (named, axiom)


def test_criterion_06_switching_rule_cycle():
    t = switching_rule_table()
    u = t.universe
    rep = check_cwarp(t)
    assert not rep.ok
    w = rep.witness
    assert {w["a"], w["b"]} == {"b", "c"} and w["q"] == 2
    assert t.choose(Problem(u.mask_of("abcd"), 2)) == u.mask_of("ab")
    assert t.choose(Problem(u.mask_of("abce"), 2)) == u.mask_of("ac")
    assert check_capacity_filling(t).ok
    assert check_monotonicity(t).ok
    assert check_iaa(t).ok


def test_criterion_07_demand_discontinuity_and_witness_search():
    cs = walk_open_structure(("x", "y", "z"))
    agents = cs.agents
    accept_x = ("x", None, "y", "z")
    R = tuple(
        accept_x if lab in "abcd" else (None, "x", "y", "z")
        for lab in agents.labels
    )
    R_prime = tuple(
        accept_x if lab in "acde" else (None, "x", "y", "z")
        for lab in agents.labels
    )
    for caps, expect_R, expect_Rp in (((2, 0, 0), "cd", "cd"), ((3, 0, 0), "c", "d")):
        a_R = da_allocate(cs, AllocationProblem(R, caps))
        a_Rp = da_allocate(cs, AllocationProblem(R_prime, caps))
        d_R = {agents.labels[i] for i in demand(a_R, R, "x")}
        d_Rp = {agents.labels[i] for i in demand(a_Rp, R_prime, "x")}
        assert d_R == set(expect_R)
        assert d_Rp == set(expect_Rp)

    structures = [walk_open_structure(("x", "y", "z"))]
    u3 = make_universe(("i", "j", "k"))
    for orders in (
        ("ijk", "ijk", "ijk"),
        ("ijk", "jik", "ikj"),
        ("kji", "jki", "ijk"),
    ):
        structures.append(
            ChoiceStructure(
                u3,
                ("x", "y", "z"),
                {
                    obj: Responsive(ordering_from_labels(u3, list(order)))
                    for obj, order in zip(("x", "y", "z"), orders)
                },
            )
        )
    for cs in structures:
        w = find_impossibility_witness(cs)
        assert w["demand_before_R"] == w["demand_before_R_prime"]
        assert w["demand_after_R"] != w["demand_after_R_prime"]


def test_criterion_08_mechanism_property_sweep():
    start = time.perf_counter()

    def rotating_structure(agent_labels, objects):
        u = make_universe(agent_labels)
        w = ordering_from_labels(u, agent_labels)
        o = ordering_from_labels(u, tuple(reversed(agent_labels)))
        lists = build_rotating(w, o, u.n)
        return ChoiceStructure(
            u, tuple(objects), {x: CapacityWise(lists) for x in objects}
        )

    cs = rotating_structure(("i", "j", "k"), ("x", "y"))
    mech = DAMechanism(cs)
    space = exhaustive_space(("i", "j", "k"), ("x", "y"))
    assert len(space.profiles) == 216
    for chk in (
        check_unavailable_type_invariance,
        check_weak_non_wastefulness,
        check_resource_monotonicity,
        check_truncation_invariance,
        check_strategy_proofness,
    ):
        rep = chk(mech, space)
        assert rep.ok, (rep.axiom, rep.witness)

    cs4 = rotating_structure(("i", "j", "k", "l"), ("x", "y"))
    rep = check_weak_isd(DAMechanism(cs4), single_object_space(("i", "j", "k", "l"), ("x", "y")))
    assert rep.ok, rep.witness
    assert _elapsed(start) < 60.0


def test_criterion_09_feasibility_round_trip_200_pairs(rng):
    start = time.perf_counter()
    done = 0
    while done < 200:
        for n in (3, 4, 5):
            u = universe(n)
            family = random_family(rng, n)
            profile = random_profile(rng, n)
            t = flex_materialize(profile, family, u)
            assert check_f_capacity_filling(t).ok
            assert check_monotonicity(t).ok
            assert check_csarp(t).ok
            recovered = extract_flex_profile(t)
            assert flex_materialize(recovered, family, u) == t
            done += 1
    assert _elapsed(start) < 10.0


def test_criterion_10_responsive_signatures(rng):
    for n in (3, 4, 5):
        u = universe(n)
        for _ in range(10):
            ordering = random_ordering(rng, n)
            t = materialize(Responsive(ordering), u)
            assert check_capacity_filling(t).ok
            assert check_cwrarp(t).ok
            assert extract_responsive(t) == ordering
    # distinct per-capacity orderings: the within-capacity signature holds
    u = universe(4)
    orders = [
        PriorityOrdering((0, 1, 2, 3)),
        PriorityOrdering((3, 2, 1, 0)),
        PriorityOrdering((1, 0, 3, 2)),
        PriorityOrdering((2, 3, 0, 1)),
    ]
    lists = CapacityWiseLists(
        tuple(tuple([orders[q - 1]] * q) for q in range(1, 5))
    )
    t = materialize(CapacityWise(lists), u)
    assert check_wrarp(t).ok
    assert not check_cwrarp(t).ok
    # genuinely mixed per-capacity lists fail the cross-capacity signature
    # with a concrete witness
    u5, wo = walk_open_rule_5()
    t = materialize(CapacityWise(wo), u5)
    rep = check_cwrarp(t)
    assert not rep.ok and rep.witness is not None
    u5b, ow = open_walk_rule_5()
    assert not check_cwrarp(materialize(CapacityWise(ow), u5b)).ok


def test_criterion_11_byte_identical_reports(tmp_path, capsys):
    spec = {
        "universe": ["a", "b", "c", "d", "e"],
        "rule": {
            "kind": "boston",
            "variant": "walk_open",
            "walk": ["a", "b", "c", "d", "e"],
            "open": ["e", "b", "d", "c", "a"],
        },
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    check_outs = set()
    for _ in range(6):
        code, out = run(["check", str(path), "--replay-witness"])
        assert code == 1
        check_outs.add(out)
    assert len(check_outs) == 1

    repro_outs = set()
    for _ in range(4):
        code, out = run(["repro"])
        assert code == 0
        repro_outs.add(out)
    assert len(repro_outs) == 1

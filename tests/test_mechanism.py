import pytest

from lexichoice import (
    MECHANISM_CHECKS,
    AllocationProblem,
    ChoiceStructure,
    DAMechanism,
    Responsive,
    all_preferences,
    build_rotating,
    check_strategy_proofness,
    check_weak_isd,
    check_weak_non_wastefulness,
    da_allocate,
    demand,
    exhaustive_space,
    find_impossibility_witness,
    make_universe,
    sampled_space,
    single_object_space,
)
from lexichoice.mechanism import prefers, validate_preference
from lexichoice.rules import CapacityWise, ordering_from_labels

from conftest import random_ordering


def _responsive_structure(agent_labels, object_orders):
    u = make_universe(agent_labels)
    return ChoiceStructure(
        u,
        tuple(object_orders),
        {
            x: Responsive(ordering_from_labels(u, order))
            for x, order in object_orders.items()
        },
    )


def _rotating_structure(agent_labels, objects):
    u = make_universe(agent_labels)
    w = ordering_from_labels(u, agent_labels)
    o = ordering_from_labels(u, tuple(reversed(agent_labels)))
    lists = build_rotating(w, o, u.n)
    return ChoiceStructure(u, tuple(objects), {x: CapacityWise(lists) for x in objects})


def test_preference_validation():
    validate_preference(("x", None, "y"), ("x", "y"))
    with pytest.raises(ValueError):
        validate_preference(("x", "y"), ("x", "y"))
    with pytest.raises(ValueError):
        validate_preference(("x", "x", None), ("x", "y"))
    # an object named "None" is distinct from the null object
    validate_preference(("x", None, "None"), ("None", "x"))
    with pytest.raises(ValueError):
        validate_preference(("x", "None", "None"), ("None", "x"))
    assert prefers(("x", None, "y"), "x", None)
    assert not prefers(("x", None, "y"), "y", None)
    assert len(all_preferences(("x", "y"))) == 6


def test_da_single_object_equals_choice_rule():
    cs = _responsive_structure(("i", "j", "k"), {"x": ("j", "i", "k")})
    accept = ("x", None)
    prefs = (accept, accept, accept)
    alloc = da_allocate(cs, AllocationProblem(prefs, (2,)))
    assert alloc == ("x", "x", None)  # top two of j > i > k are j and i
    alloc, rounds = da_allocate(cs, AllocationProblem(prefs, (1,)), trace=True)
    assert alloc == (None, "x", None)
    assert rounds[0] == {"x": ["i", "j", "k"]}


def test_da_rejection_chains():
    cs = _responsive_structure(
        ("i", "j"), {"x": ("i", "j"), "y": ("j", "i")}
    )
    # both want x first; j is displaced to y
    prefs = (("x", "y", None), ("x", "y", None))
    alloc = da_allocate(cs, AllocationProblem(prefs, (1, 1)))
    assert alloc == ("x", "y")
    # zero-capacity objects reject everyone: both fall through to y, whose
    # priority order is (j, i)
    alloc = da_allocate(cs, AllocationProblem(prefs, (0, 1)))
    assert alloc == (None, "y")


def test_da_respects_unacceptability():
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j")})
    prefs = ((None, "x"), ("x", None))
    alloc = da_allocate(cs, AllocationProblem(prefs, (2,)))
    assert alloc == (None, "x")


def test_demand():
    prefs = (("x", "y", None), ("y", None, "x"), (None, "x", "y"))
    alloc = ("y", None, None)
    assert demand(alloc, prefs, "x") == {0}
    assert demand(alloc, prefs, "y") == {1}
    assert demand(alloc, prefs, None) == set()


def test_mechanism_memoization():
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j")})
    mech = DAMechanism(cs)
    p = AllocationProblem((("x", None), ("x", None)), (1,))
    assert mech(p) == mech(p)
    assert len(mech._cache) == 1


def test_spaces():
    ex = exhaustive_space(("i", "j"), ("x",))
    assert ex.counts() == {
        "profiles": 4,
        "capacity_profiles": 3,
        "problems": 12,
    }
    so = single_object_space(("i", "j", "k"), ("x", "y"))
    assert all(sum(1 for q in caps if q > 0) == 1 for caps in so.capacities)
    s1 = sampled_space(("i", "j"), ("x", "y"), 20, seed=7)
    s2 = sampled_space(("i", "j"), ("x", "y"), 20, seed=7)
    assert s1 == s2
    assert s1 != sampled_space(("i", "j"), ("x", "y"), 20, seed=8)


def test_lexicographic_da_passes_all_properties_small():
    """|N| = 2, |O| = 2, exhaustive: the deferred acceptance mechanism over
    per-object sequential rules satisfies every checked property."""
    cs = _rotating_structure(("i", "j"), ("x", "y"))
    mech = DAMechanism(cs)
    space = exhaustive_space(("i", "j"), ("x", "y"))
    for name, chk in MECHANISM_CHECKS.items():
        if name == "irrelevance_of_satisfied_demand":
            continue  # not implied in general; see the impossibility test
        rep = chk(mech, space)
        assert rep.ok, (name, rep.witness)


def test_weak_isd_single_object_spaces():
    for agents in (("i", "j", "k"), ("i", "j", "k", "l")):
        cs = _rotating_structure(agents, ("x", "y"))
        mech = DAMechanism(cs)
        space = single_object_space(agents, ("x", "y"))
        assert check_weak_isd(mech, space).ok


class _ImmediateAcceptance:
    """Serial-dictatorship-style immediate acceptance: processes agents'
    first choices in one pass per rank; manipulable by construction."""

    def __init__(self, structure):
        self.structure = structure

    def __call__(self, prob):
        objects = self.structure.objects
        slots = dict(zip(objects, prob.capacities))
        n = self.structure.agents.n
        assigned = [None] * n
        done = [False] * n
        for rank in range(len(objects) + 1):
            applicants = {}
            for i in range(n):
                if done[i]:
                    continue
                want = prob.preferences[i][rank]
                if want is None:
                    done[i] = True
                else:
                    applicants.setdefault(want, []).append(i)
            for x, group in applicants.items():
                table = self.structure.table(x)
                if slots[x] > 0:
                    from lexichoice import Problem

                    pool = 0
                    for i in group:
                        pool |= 1 << i
                    chosen = table.choose(Problem(pool, slots[x]))
                    for i in group:
                        if (chosen >> i) & 1:
                            assigned[i] = x
                            done[i] = True
                            slots[x] -= 1
        return tuple(assigned)


def test_immediate_acceptance_fails_strategy_proofness():
    cs = _rotating_structure(("i", "j"), ("x", "y"))
    mech = _ImmediateAcceptance(cs)
    space = exhaustive_space(("i", "j"), ("x", "y"))
    rep = check_strategy_proofness(mech, space)
    assert not rep.ok
    assert set(rep.witness) == {
        "R",
        "capacities",
        "agent",
        "misreport",
        "truthful_allotment",
        "misreport_allotment",
    }


def test_reject_all_fails_weak_non_wastefulness():
    space = exhaustive_space(("i", "j"), ("x",))
    mech = lambda prob: (None, None)
    rep = check_weak_non_wastefulness(mech, space)
    assert not rep.ok
    assert rep.witness["object"] == "x"


def test_capacity_dependent_mechanism_fails_resource_monotonicity():
    """A mechanism that throws away all assignments once capacity reaches two
    hurts the agent who held a seat at capacity one."""
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j")})
    da = DAMechanism(cs)
    n_agents = 2

    def mech(prob):
        if sum(prob.capacities) >= 2:
            return (None,) * n_agents
        return da(prob)

    space = exhaustive_space(("i", "j"), ("x",))
    from lexichoice import check_resource_monotonicity

    rep = check_resource_monotonicity(mech, space)
    assert not rep.ok
    assert rep.witness["agent"] in ("i", "j")


def test_preference_dependent_mechanism_fails_uti_and_truncation():
    """A mechanism that keys on the ranking of an unavailable object breaks
    both invariance properties."""
    cs1 = _responsive_structure(("i", "j"), {"x": ("i", "j"), "y": ("i", "j")})
    cs2 = _responsive_structure(("i", "j"), {"x": ("j", "i"), "y": ("j", "i")})
    m1, m2 = DAMechanism(cs1), DAMechanism(cs2)

    def mech(prob):
        # key on whether agent i ranks y above the null object
        sensitive = prefers(prob.preferences[0], "y", None)
        return (m1 if sensitive else m2)(prob)

    space = exhaustive_space(("i", "j"), ("x", "y"))
    from lexichoice import (
        check_truncation_invariance,
        check_unavailable_type_invariance,
    )

    assert not check_unavailable_type_invariance(mech, space).ok
    assert not check_truncation_invariance(mech, space).ok


def test_isd_impossibility_witness_responsive():
    cs = _responsive_structure(
        ("i", "j", "k"),
        {"x": ("i", "j", "k"), "y": ("j", "i", "k"), "z": ("i", "k", "j")},
    )
    w = find_impossibility_witness(cs)
    assert w["demand_before_R"] == w["demand_before_R_prime"]
    assert w["demand_after_R"] != w["demand_after_R_prime"]


def test_isd_impossibility_witness_various_structures(rng):
    for _ in range(5):
        orders = {
            x: tuple(
                ("i", "j", "k")[a] for a in random_ordering(rng, 3).rank
            )
            for x in ("x", "y", "z")
        }
        cs = _responsive_structure(("i", "j", "k"), orders)
        w = find_impossibility_witness(cs)
        assert w["demand_before_R"] == w["demand_before_R_prime"]
        assert w["demand_after_R"] != w["demand_after_R_prime"]


def test_isd_impossibility_witness_preconditions():
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j"), "y": ("j", "i")})
    with pytest.raises(ValueError):
        find_impossibility_witness(cs)  # fewer than three objects
    from lexichoice import ChoiceTable, TableRule

    u = make_universe(("i", "j"))
    bad = ChoiceTable.from_function(u, lambda mask, q: mask & -mask)
    cs3 = ChoiceStructure(
        u, ("x", "y", "z"), {x: TableRule(bad) for x in ("x", "y", "z")}
    )
    with pytest.raises(ValueError):
        find_impossibility_witness(cs3)  # rules violate capacity-filling


def test_full_isd_fails_for_three_objects():
    """Confirms the witness really breaks the unrestricted demand property
    for a deferred acceptance mechanism with three objects."""
    cs = _responsive_structure(
        ("i", "j"),
        {"x": ("i", "j"), "y": ("i", "j"), "z": ("i", "j")},
    )
    w = find_impossibility_witness(cs)
    assert w["demand_before_R"] == w["demand_before_R_prime"]
    assert w["demand_after_R"] != w["demand_after_R_prime"]

import dataclasses
import functools
import random

import numpy as np
import pytest

from lexichoice import mechanism
from lexichoice import (
    MECHANISM_CHECKS,
    AllocationProblem,
    ChoiceStructure,
    ChoiceTable,
    DAMechanism,
    MechanismSpace,
    Problem,
    Responsive,
    TableRule,
    all_preferences,
    AxiomReport,
    build_rotating,
    check_capacity_filling,
    check_gross_substitutes,
    check_resource_monotonicity,
    check_isd,
    check_strategy_proofness,
    check_truncation_invariance,
    check_unavailable_type_invariance,
    check_weak_isd,
    check_weak_non_wastefulness,
    da_allocate,
    exhaustive_space,
    find_impossibility_witness,
    make_universe,
    single_object_space,
)
from lexichoice.core import iter_bits
from lexichoice.mechanism import (
    _object_labels,
    _profile_labels,
    _rankings,
    allocations,
    space_demands,
    validate_preference,
)
from lexichoice.rules import (
    BOSTON_BUILDERS,
    CapacityWise,
    CapacityWiseLists,
    Lexicographic,
    materialize,
    ordering_from_labels,
)

from conftest import (
    demand,
    prefers,
    random_ordering,
    random_profile,
    sampled_space,
    set_major,
    space_problems,
    table_from_function,
    weakly_prefers,
)


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


def test_da_mechanism_call_is_da_allocate():
    """Called on one problem, a DAMechanism runs da_allocate; it keeps no memo."""
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j"), "y": ("j", "i")})
    mech = DAMechanism(cs)
    for prob in space_problems(exhaustive_space(("i", "j"), ("x", "y"))):
        assert mech(prob) == da_allocate(cs, prob)
    assert vars(mech) == {"structure": cs}


def test_spaces():
    ex = exhaustive_space(("i", "j"), ("x",))
    assert len(ex.profiles) == 4
    assert len(ex.capacities) == 3
    assert len(space_problems(ex)) == 12
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
    u = make_universe(("i", "j"))
    bad = table_from_function(u, lambda mask, q: mask & -mask)
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


def test_checkers_agree_where_codes_overflow_int64(monkeypatch):
    """At 16 agents and 3 objects the 24 rankings give profile codes up to
    24**16 > 2**63, so ``_codes`` reads them as Python ints, and truncation
    invariance packs 16 * (3 + 1) = 64 bits per allocation row, past int64,
    so it does the same.  Every checker reports alike through the whole-space
    DA and through ``da_allocate`` called once per problem, and ISD fails."""
    rng = random.Random(16)
    u = make_universe([f"a{k:02d}" for k in range(16)])
    objects = ("x", "y", "z")
    cs = ChoiceStructure(u, objects, {x: Lexicographic(random_profile(rng, 16)) for x in objects})
    w = find_impossibility_witness(cs)
    i = u.labels.index(w["agent_i"])
    a, b = w["object_a"], w["object_b"]
    r, rp = ([tuple(None if x == "null" else x for x in pref) for pref in w[key]] for key in ("R", "R_prime"))
    truncated = list(r)
    truncated[i] = (a, None, b) + tuple(x for x in objects if x not in (a, b))
    space = MechanismSpace(
        u.labels, objects, (tuple(r), tuple(rp), tuple(truncated)),
        (tuple(w["capacities"]), tuple(w["capacities_increased"]), (1, 1, 1)),
    )
    wide = []
    codes = mechanism._codes

    def counted(digits, base):
        out = codes(digits, base)
        wide.append(out.dtype == object)
        return out

    monkeypatch.setattr(mechanism, "_codes", counted)
    for name, check in MECHANISM_CHECKS.items():
        want = check(DAMechanism(cs), space)
        assert check(lambda p: da_allocate(cs, p), space) == want, name
        if name == "irrelevance_of_satisfied_demand":
            assert want.verdict == "fail"
    assert any(wide) and not all(wide)


# --- malformed problems and tables ---------------------------------------------


@pytest.mark.parametrize(
    "prefs, caps",
    [
        ((("x", "y", None),) * 2, (1,)),  # a capacity missing
        ((("x", "y", None),) * 2, (1, 1, 5)),  # an extra capacity
        ((("x", "y", None),) * 2, (-1, 1)),  # a negative capacity
        ((("x", "y", None),) * 2, (3, 1)),  # a capacity above n
        ((("x", "y", None),), (1, 1)),  # a preference missing
        ((("x", "y", None),) * 3, (1, 1)),  # an extra preference
    ],
    ids=["short_caps", "long_caps", "negative_cap", "cap_above_n", "short_prefs", "long_prefs"],
)
def test_da_refuses_malformed_problems(prefs, caps):
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j"), "y": ("j", "i")})
    with pytest.raises(ValueError):
        da_allocate(cs, AllocationProblem(prefs, caps))


_INVALID_TABLE_ERROR = "entry at (S=0x1, q=1) is not a subset of S"


def _invalid_entries():
    """The agents and a matrix with C({i}, 1) = {i, j}: as the table of x, x
    could hold j while y holds j too."""
    u = make_universe(("i", "j"))
    entries = set_major(materialize(Responsive(ordering_from_labels(u, ("i", "j"))), u))
    entries[0b01, 1] = 0b11
    return u, entries


def test_structure_refuses_invalid_table_rule():
    """A matrix that is not a choice rule is refused when its table is
    built, so no table rule, and no structure, can hold it."""
    u, entries = _invalid_entries()
    with pytest.raises(ValueError) as got:
        ChoiceStructure(
            u,
            ("x", "y"),
            {"x": TableRule(ChoiceTable(u, entries)), "y": Responsive(ordering_from_labels(u, ("j", "i")))},
        )
    assert str(got.value) == _INVALID_TABLE_ERROR


# --- deferred acceptance against the loop that rescans placed agents ------------


def _placed_scan_da(cs, prob):
    """Each round, every agent neither held nor at null applies."""
    n = cs.agents.n
    objects = cs.objects
    caps = dict(zip(objects, prob.capacities))
    ptr = [0] * n
    held = {x: 0 for x in objects}
    at_null = 0
    rounds = []
    for _ in range(n * len(objects) + 2):
        placed = at_null
        for x in objects:
            placed |= held[x]
        free = [i for i in range(n) if not (placed >> i) & 1]
        if not free:
            break
        applicants = {}
        for i in free:
            target = prob.preferences[i][ptr[i]]
            if target is None:
                at_null |= 1 << i
            else:
                applicants[target] = applicants.get(target, 0) | (1 << i)
        rounds.append({x: sorted(cs.agents.labels_of(m)) for x, m in applicants.items()})
        for x in objects:
            if x not in applicants:
                continue
            pool = held[x] | applicants[x]
            accepted = cs.table(x).choose(Problem(pool, caps[x])) if caps[x] > 0 else 0
            held[x] = accepted
            for i in iter_bits(pool & ~accepted):
                ptr[i] += 1
    else:
        raise RuntimeError("round cap exceeded")
    assignment = [None] * n
    for x in objects:
        for i in iter_bits(held[x]):
            assignment[i] = x
    return tuple(assignment), rounds


def _non_gs_table(rng, u):
    """A valid table, a responsive one with entries redrawn until it fails
    gross substitutes."""
    entries = set_major(materialize(Responsive(random_ordering(rng, u.n)), u))
    while check_gross_substitutes(ChoiceTable(u, entries.copy())).ok:
        s = rng.randrange(3, 1 << u.n)
        q = rng.randrange(1, u.n + 1)
        members = list(iter_bits(s))
        entries[s, q] = sum(1 << i for i in rng.sample(members, rng.randint(0, min(q, len(members)))))
    return ChoiceTable(u, entries)


def _random_rule(rng, u, kind):
    if kind == "responsive":
        return Responsive(random_ordering(rng, u.n))
    if kind == "lexicographic":
        return Lexicographic(random_profile(rng, u.n))
    if kind == "capacity_wise":
        return CapacityWise(CapacityWiseLists(tuple(
            tuple(random_ordering(rng, u.n) for _ in range(q)) for q in range(1, u.n + 1)
        )))
    if kind == "table":
        return TableRule(_non_gs_table(rng, u))
    w, o = random_ordering(rng, u.n), random_ordering(rng, u.n)
    return CapacityWise(BOSTON_BUILDERS[kind](w, o, u.n))


DA_RULE_KINDS = ("responsive", "lexicographic", "capacity_wise", "table", *BOSTON_BUILDERS)


def test_da_matches_placed_scan_loop():
    """Allocations and traced rounds, key order included, on random
    structures: Boston variants and tables failing gross substitutes are
    where proposal order could matter."""
    rng = random.Random(8)
    for trial in range(150):
        objects = ("x", "y", "z", "w")[: rng.randint(1, 4)]
        kinds = [DA_RULE_KINDS[(trial + k) % len(DA_RULE_KINDS)] for k in range(len(objects))]
        # every rule over two agents is gross-substitutable
        n = rng.randint(3 if "table" in kinds else 2, 5)
        u = make_universe(tuple("abcde"[:n]))
        cs = ChoiceStructure(u, objects, {x: _random_rule(rng, u, k) for x, k in zip(objects, kinds)})
        prefs = all_preferences(objects)
        for _ in range(20):
            prob = AllocationProblem(
                tuple(rng.choice(prefs) for _ in range(n)),
                tuple(rng.randint(0, n) for _ in objects),
            )
            want, want_rounds = _placed_scan_da(cs, prob)
            got, rounds = da_allocate(cs, prob, trace=True)
            assert got == want, (kinds, prob)
            assert [list(r.items()) for r in rounds] == [list(r.items()) for r in want_rounds]
            assert da_allocate(cs, prob) == want


@pytest.mark.parametrize("n", [9, 16])
def test_traced_da_matches_placed_scan_loop_on_wide_masks(n):
    """Allocations and traced rounds, key order included, with four objects
    at sizes whose agent masks are uint16."""
    rng = random.Random(n)
    objects = ("w", "x", "y", "z")
    kinds = ("lexicographic", "capacity_wise", "responsive", *BOSTON_BUILDERS)
    u = make_universe(tuple(f"a{i}" for i in range(n)))
    prefs = all_preferences(objects)
    longest = 0
    for trial in range(2):
        rules = {x: _random_rule(rng, u, kinds[(trial + k) % len(kinds)]) for k, x in enumerate(objects)}
        cs = ChoiceStructure(u, objects, rules)
        for _ in range(10):
            prob = AllocationProblem(
                tuple(rng.choice(prefs) for _ in range(n)),
                tuple(rng.randint(0, n // 2) for _ in objects),
            )
            want, want_rounds = _placed_scan_da(cs, prob)
            got, rounds = da_allocate(cs, prob, trace=True)
            assert got == want, prob
            assert [list(r.items()) for r in rounds] == [list(r.items()) for r in want_rounds]
            longest = max(longest, len(rounds))
    assert longest >= 4  # rejection chains, not one round of acceptances


def test_da_allocate_reads_only_its_own_rankings(monkeypatch):
    """One problem allocates from its agents' rankings alone, trace
    included: at 12 objects the catalogue of all 13! rankings would not fit
    in memory, and it is never listed."""
    rng = random.Random(12)
    objects = tuple(f"o{k}" for k in range(12))
    u = make_universe(("i", "j", "k"))
    rules = {x: _random_rule(rng, u, DA_RULE_KINDS[k % len(DA_RULE_KINDS)]) for k, x in enumerate(objects)}
    cs = ChoiceStructure(u, objects, rules)

    def listed(*args):
        raise AssertionError("the ranking catalogue was listed")

    monkeypatch.setattr(mechanism, "_rankings", listed)
    monkeypatch.setattr(mechanism, "all_preferences", listed)
    longest = 0
    for _ in range(30):
        prob = AllocationProblem(
            tuple(tuple(rng.sample(objects + (None,), 13)) for _ in range(3)),
            tuple(rng.choice((0, 1, 1, 2)) for _ in objects),
        )
        want, want_rounds = _placed_scan_da(cs, prob)
        got, rounds = da_allocate(cs, prob, trace=True)
        assert got == want, prob
        assert [list(r.items()) for r in rounds] == [list(r.items()) for r in want_rounds]
        assert da_allocate(cs, prob) == want
        longest = max(longest, len(rounds))
    assert longest >= 3  # rejection chains, not one round of acceptances


def test_da_reads_list_rankings_as_tuples():
    """Rankings given as lists allocate as the same rankings as tuples, and
    any other mechanism, here one that hashes its problem, gets them as
    tuples."""
    cs = _responsive_structure(("i", "j"), {"x": ("j", "i")})
    listed = AllocationProblem([["x", None], ["x", None]], [1])
    assert da_allocate(cs, listed) == (None, "x")
    assert da_allocate(cs, listed, trace=True) == ((None, "x"), [{"x": ["i", "j"]}, {}])
    space = MechanismSpace(("i", "j"), ("x",), (listed.preferences,), ((1,), (2,)))
    for m in (DAMechanism(cs), functools.cache(functools.partial(da_allocate, cs))):
        assert _allocation_rows(space, allocations(m, space)) == [
            [(None, "x"), ("x", "x")]
        ]
        for name, check in MECHANISM_CHECKS.items():
            assert check(m, space).ok, name


def test_space_holds_listed_agents_and_objects_as_tuples():
    """A space given its agents and objects as lists holds them as tuples,
    as ``exhaustive_space`` does, so allocation can append the null object."""
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j")})
    space = MechanismSpace(["i", "j"], ["x"], ((("x", None), ("x", None)),), ((1,),))
    assert space.agents == ("i", "j") and space.objects == ("x",)
    m = DAMechanism(cs)
    assert _allocation_rows(space, allocations(m, space)) == [[("x", None)]]
    for name, check in MECHANISM_CHECKS.items():
        assert check(m, space).ok, name


# --- the whole-space deferred acceptance against the placed-scan loop ------------


def _allocation_rows(space, alloc):
    names = space.objects + (None,)
    return [
        [tuple(names[s] for s in alloc[p, c]) for c in range(len(space.capacities))]
        for p in range(len(space.profiles))
    ]


def _per_problem_rows(cs, space):
    return [
        [_placed_scan_da(cs, AllocationProblem(prefs, caps))[0] for caps in space.capacities]
        for prefs in space.profiles
    ]


def test_array_da_matches_da_allocate():
    """Every problem of exhaustive and single-object spaces against the
    placed-scan loop (da_allocate is the same array code), on structures
    that mix all rule kinds: Boston variants and tables failing gross
    substitutes are where proposal order could matter."""
    rng = random.Random(12)
    seen = set()
    for trial in range(2 * len(DA_RULE_KINDS)):
        n_obj = (1, 2, 2, 3)[trial % 4]
        objects = ("x", "y", "z")[:n_obj]
        kinds = [DA_RULE_KINDS[(trial + k) % len(DA_RULE_KINDS)] for k in range(n_obj)]
        # every rule over two agents is gross-substitutable, and three
        # objects take two agents to keep the exhaustive space small
        n = 2 if n_obj == 3 else (3 if "table" in kinds else rng.randint(2, 3))
        if n_obj == 3 and "table" in kinds:
            kinds = ["lexicographic" if k == "table" else k for k in kinds]
        seen.update(kinds)
        agents = tuple("abcd"[:n])
        u = make_universe(agents)
        cs = ChoiceStructure(u, objects, {x: _random_rule(rng, u, k) for x, k in zip(objects, kinds)})
        for space in (exhaustive_space(agents, objects), single_object_space(agents, objects)):
            got = allocations(DAMechanism(cs), space)
            assert got.shape == (len(space.profiles), len(space.capacities), n)
            assert _allocation_rows(space, got) == _per_problem_rows(cs, space), kinds
    assert seen == set(DA_RULE_KINDS)


# --- the whole-space shortcuts: agent-major rounds, round 1 per profile ----------


def _assert_placed_scan(cs, space, alloc):
    """``alloc`` is the read-only ``(P, C, n)`` int8 array of the space's
    allocations, each equal to the placed-scan loop's."""
    assert alloc.shape == (len(space.profiles), len(space.capacities), cs.agents.n)
    assert alloc.dtype == np.int8 and not alloc.flags.writeable
    assert _allocation_rows(space, alloc) == _per_problem_rows(cs, space)


def _cut_structure(agents, objects, cuts):
    """Responsive rules in agent order whose table of x is cut at ``cuts``,
    a map (set, capacity) -> mask: tables that fail capacity filling, where
    re-choosing from a held set alone can change it."""
    u = make_universe(agents)
    rules = {x: Responsive(ordering_from_labels(u, agents)) for x in objects}
    entries = set_major(materialize(rules["x"], u))
    for (s, q), m in cuts.items():
        entries[s, q] = m
    rules["x"] = TableRule(ChoiceTable(u, entries))
    return ChoiceStructure(u, objects, rules)


def test_whole_space_da_on_exhaustive_spaces():
    """The exhaustive 4 x 2 space of the benchmark's sweep, over its rotating
    structure and over a table that fails capacity filling, and the 2 x 3
    space over mixed rules: every problem against the placed-scan loop."""
    agents = ("i", "j", "k", "l")
    space = exhaustive_space(agents, ("x", "y"))
    cut = _cut_structure(agents, ("x", "y"), {(0b1111, 3): 0b0011, (0b0111, 2): 0b0100})
    assert not check_capacity_filling(cut.table("x")).ok
    for cs in (_rotating_structure(agents, ("x", "y")), cut):
        _assert_placed_scan(cs, space, allocations(DAMechanism(cs), space))
    rng = random.Random(27)
    u = make_universe(("i", "j"))
    kinds = ("lexicographic", "rotating", "responsive")
    rules = {x: _random_rule(rng, u, k) for x, k in zip("xyz", kinds)}
    cs = ChoiceStructure(u, ("x", "y", "z"), rules)
    space = exhaustive_space(("i", "j"), ("x", "y", "z"))
    _assert_placed_scan(cs, space, allocations(DAMechanism(cs), space))


def test_whole_space_da_on_explicit_spaces():
    """Spaces that list a profile or a capacity vector more than once, hold
    vectors with capacities 0 and n, pair one profile with many vectors or
    many profiles with one vector: the first round is shared by the vectors
    of a profile, and no problem may take another's."""
    rng = random.Random(28)
    agents, objects = ("i", "j", "k"), ("x", "y")
    prefs = all_preferences(objects)
    everything = exhaustive_space(agents, objects)
    for kind in ("rotating", "table", "walk_open"):
        u = make_universe(agents)
        cs = ChoiceStructure(u, objects, {x: _random_rule(rng, u, kind) for x in objects})
        profiles = tuple(tuple(rng.choice(prefs) for _ in agents) for _ in range(12))
        vectors = tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(12))
        spaces = [
            MechanismSpace(agents, objects, profiles + profiles[:5],
                           vectors + ((0, 3), (3, 0), (0, 0), (3, 3), vectors[0])),
            MechanismSpace(agents, objects, profiles[:1], everything.capacities),
            MechanismSpace(agents, objects, everything.profiles, ((2, 1),)),
            MechanismSpace(agents, objects, everything.profiles[::-1], ((3, 0), (3, 0))),
        ]
        for space in spaces:
            _assert_placed_scan(cs, space, allocations(DAMechanism(cs), space))


def test_whole_space_da_keeps_held_sets_without_applicants():
    """C({i, j, k}, 2) = {i, j} but C({i, j}, 2) = {i}: when k, rejected by
    x, applies to y, x gets no applicants and keeps {i, j}, where a re-choice
    of x would reject j.  Random tables that fail capacity filling too."""
    agents, objects = ("i", "j", "k"), ("x", "y")
    cs = _cut_structure(agents, objects, {(0b011, 2): 0b001})
    space = exhaustive_space(agents, objects)
    alloc = allocations(DAMechanism(cs), space)
    _assert_placed_scan(cs, space, alloc)
    p = space.profiles.index((("x", "y", None),) * 3)
    assert _allocation_rows(space, alloc)[p][space.capacities.index((2, 1))] == ("x", "x", "y")
    rng = random.Random(29)
    for n in (3, 4):
        agents = tuple("ijkl"[:n])
        u = make_universe(agents)
        tables = []
        while len(tables) < len(objects):
            table = _non_gs_table(rng, u)
            if not check_capacity_filling(table).ok:
                tables.append(TableRule(table))
        cs = ChoiceStructure(u, objects, dict(zip(objects, tables)))
        space = (single_object_space if n == 4 else exhaustive_space)(agents, objects)
        _assert_placed_scan(cs, space, allocations(DAMechanism(cs), space))


def test_whole_space_da_on_appended_problems():
    """The problems that checkers append: capacity vectors after a
    single-object space's (ISD) and profiles after a sampled space's
    (strategy-proofness), allocated on top of the kept allocation."""
    agents, objects = ("i", "j", "k", "l"), ("x", "y")
    cs = _rotating_structure(agents, objects)
    m = DAMechanism(cs)
    space = single_object_space(agents, objects)
    allocations(m, space)  # kept: the appended vectors alone are allocated next
    extra = ((1, 1), (4, 1), (1, 4), (2, 3))
    alloc = mechanism._allocate(m, space, extra_caps=np.array(extra, dtype=np.int16))
    whole = MechanismSpace(agents, objects, space.profiles, space.capacities + extra)
    _assert_placed_scan(cs, whole, alloc)
    space = sampled_space(agents, objects, 30, seed=27)
    ids = np.array([[k, (k + 1) % 6, 5 - k, k // 2] for k in range(6)], dtype=np.int32)
    alloc = mechanism._allocate(m, space, extra_ids=ids)
    prefs = all_preferences(objects)
    added = tuple(tuple(prefs[k] for k in row) for row in ids.tolist())
    whole = MechanismSpace(agents, objects, space.profiles + added, space.capacities)
    _assert_placed_scan(cs, whole, alloc)


def test_truncation_pairs_are_listed_once_per_space(monkeypatch):
    """Two truncation checks on one space list its (R, R') pairs once, on
    the first call, and report alike; a space never checked lists none."""
    calls = []
    real = mechanism._truncation_pairs

    def counted(objects, pidx):
        calls.append(pidx)
        return real(objects, pidx)

    monkeypatch.setattr(mechanism, "_truncation_pairs", counted)
    agents, objects = ("i", "j", "k", "l"), ("x", "y")
    space = exhaustive_space(agents, objects)
    reports = [check_truncation_invariance(DAMechanism(_rotating_structure(agents, objects)), space)
               for _ in range(2)]
    assert len(calls) == 1 and calls[0] is space.ids
    assert reports[0] == reports[1] and reports[0].verdict == "fail"
    first, second, allowed = space.truncation_pairs
    assert len(first) == len(second) == len(allowed) == 19440
    assert not any(a.flags.writeable for a in (first, second, allowed))
    m = DAMechanism(_rotating_structure(agents, objects))
    check_weak_isd(m, single_object_space(agents, objects))
    assert len(calls) == 1


def test_space_demands_match_demand_oracle():
    """Each agent mask of space_demands against the per-problem demand of
    the placed-scan allocation, for every object and the null object."""
    rng = random.Random(15)
    for agents, objects, make_space in (
        ("abc", ("x", "y"), exhaustive_space),
        ("abcd", ("x", "y"), single_object_space),
        ("abcd", ("x", "y", "z"), lambda a, o: sampled_space(a, o, 12, seed=3)),
    ):
        cs = _structure(rng, "rotating", agents, objects)
        space = make_space(agents, objects)
        rows = _per_problem_rows(cs, space)
        for x in objects + (None,):
            got = space_demands(cs, space, x)
            assert got.shape == (len(space.profiles), len(space.capacities))
            want = [
                [sum(1 << i for i in demand(alloc, prefs, x)) for alloc in row]
                for prefs, row in zip(space.profiles, rows)
            ]
            assert got.tolist() == want, (agents, objects, x)
    # agents rank x above, at and below their allotment
    cs = _responsive_structure(("i", "j", "k"), {"x": ("k", "j", "i"), "y": ("i", "j", "k")})
    prefs = (("x", "y", None), ("y", None, "x"), (None, "x", "y"))
    space = MechanismSpace(("i", "j", "k"), ("x", "y"), (prefs,), ((0, 1),))
    assert [space_demands(cs, space, x).tolist() for x in ("x", "y", None)] == [
        [[0b001]], [[0b010]], [[0]]]


_BAD_RANKING = (("x", "y", None), ("x", "x", None))
_RANKING_ERROR = "preference ('x', 'x', None) is not a ranking of objects + null"


_SPACE_ERRORS = {  # per edit of a space, the error that refuses it; None for a space that is built
    "cap_above_n": "capacity vector 4 of the space is malformed: "
    "capacity 3 of object 'x' is not in 0..2",
    "bad_ranking": f"profile 5 of the space is malformed: {_RANKING_ERROR}",
    "short_profile": "profile 5 of the space is malformed: problem lists 1 preferences for 2 agents",
    # profiles are read first, though the capacity comes first in problem order
    "cap_and_ranking": f"profile 5 of the space is malformed: {_RANKING_ERROR}",
    "invalid_table": _INVALID_TABLE_ERROR,  # refused by its table
    "bad_ranking_no_capacities": f"profile 5 of the space is malformed: {_RANKING_ERROR}",
    "short_profile_no_capacities": "profile 5 of the space is malformed: "
    "problem lists 1 preferences for 2 agents",
    "bool_capacity": "capacity vector 4 of the space is malformed: "
    "capacity True of object 'y' is not in 0..2",
    "long_capacities": "capacity vector 4 of the space is malformed: "
    "problem lists 3 capacities for 2 objects",
}


@pytest.mark.parametrize("edit", list(_SPACE_ERRORS))
def test_array_da_refuses_malformed_spaces(edit):
    """A space is refused when it is built, directly or through
    ``dataclasses.replace``, with an error that names its first malformed
    profile, else its first malformed capacity vector.  An invalid table is
    refused when it is built, before any table rule or allocation."""
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j"), "y": ("j", "i")})
    space = exhaustive_space(("i", "j"), ("x", "y"))
    profiles, capacities = space.profiles, space.capacities
    if edit == "cap_above_n":
        capacities = capacities[:4] + ((3, 1),) + capacities[4:]
    elif edit == "bad_ranking":
        profiles = profiles[:5] + (_BAD_RANKING,) + profiles[5:]
    elif edit == "short_profile":
        profiles = profiles[:5] + ((("x", "y", None),),) + profiles[5:]
    elif edit == "cap_and_ranking":
        capacities = capacities[:4] + ((1, -1),) + capacities[4:]
        profiles = profiles[:5] + (_BAD_RANKING,) + profiles[5:]
    elif edit == "bool_capacity":
        capacities = capacities[:4] + ((1, True),) + capacities[4:]
    elif edit == "long_capacities":
        capacities = capacities[:4] + ((1, 1, 1),) + capacities[4:]
    elif edit.endswith("_no_capacities"):
        capacities = ()
        bad = _BAD_RANKING if edit.startswith("bad_ranking") else (("x", "y", None),)
        profiles = profiles[:5] + (bad,) + profiles[5:]
    builds = (
        lambda: dataclasses.replace(space, profiles=profiles, capacities=capacities),
        lambda: MechanismSpace(space.agents, space.objects, profiles, capacities),
    )
    if edit == "invalid_table":
        builds = (
            lambda: dataclasses.replace(TableRule(cs.table("x")), table=ChoiceTable(*_invalid_entries())),
            lambda: TableRule(ChoiceTable(*_invalid_entries())),
        )
    want = _SPACE_ERRORS[edit]
    for build in builds:
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == want


def test_space_is_read_once_into_read_only_arrays():
    """The ranking ids and capacity vectors of a space, and the arrays of the
    cached ranking catalogue, are read-only; they take no part in equality
    or hashing; and ``da_allocate`` does not read the catalogue."""
    space = exhaustive_space(("i", "j"), ("x", "y"))
    prefs = all_preferences(("x", "y"))
    assert space.ids.tolist() == [[prefs.index(r) for r in rs] for rs in space.profiles]
    assert space.caps.tolist() == [list(q) for q in space.capacities]
    listed, ids, slot_at, rank_of = _rankings(("x", "y"))
    assert listed == tuple(prefs) and ids == {r: k for k, r in enumerate(prefs)}
    for array in (space.ids, space.caps, slot_at, rank_of):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    again = dataclasses.replace(space)
    assert again == space and hash(again) == hash(space)
    assert again.ids is not space.ids and (again.ids == space.ids).all()
    with pytest.raises(ValueError):
        dataclasses.replace(space, ids=space.ids)
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j"), "y": ("j", "i")})
    prob = AllocationProblem((("x", "y", None), ("x", None, "y")), (1, 1))
    info = _rankings.cache_info()
    assert da_allocate(cs, prob) == ("x", None)
    assert _rankings.cache_info() == info


def test_repeated_or_null_object_names_are_refused():
    """An object named twice, None (the null object) or "null" is refused
    when a structure or a space is built: a repeated name would let deferred
    acceptance seat two agents at one single-seat object, and witnesses
    print the null object as "null"."""
    u = make_universe("ij")
    rule = Responsive(ordering_from_labels(u, ("i", "j")))
    for objects in (("x", "x"), ("x", None), ("null", "x")):
        with pytest.raises(ValueError, match='must be distinct names other than None and "null"'):
            ChoiceStructure(u, objects, {x: rule for x in objects})
        with pytest.raises(ValueError, match='must be distinct names other than None and "null"'):
            exhaustive_space(("i", "j"), objects)
    assert ChoiceStructure(u, ["x", "y"], {"x": rule, "y": rule}).objects == ("x", "y")


def test_array_da_refuses_a_space_over_other_agents():
    """A space whose agents are not the structure's, in the same order, is
    refused by every reader of DA allocations; its witnesses would name the
    wrong agents."""
    cs = _responsive_structure(("i", "j"), {"x": ("i", "j")})
    m = DAMechanism(cs)
    for agents in (("j", "i"), ("i",), ("i", "j", "k"), ("i", "k")):
        space = exhaustive_space(agents, ("x",))
        for check in (allocations, *MECHANISM_CHECKS.values()):
            with pytest.raises(ValueError, match="the space's agents are not the structure's agents"):
                check(m, space)
        with pytest.raises(ValueError, match="the space's agents are not the structure's agents"):
            space_demands(cs, space, "x")


# --- the rewritten checkers against their per-pair loops -------------------------


def _resource_monotonicity_loop(m, space):
    pairs = [
        (q1, q2)
        for q1 in space.capacities
        for q2 in space.capacities
        if q1 != q2 and all(a <= b for a, b in zip(q1, q2))
    ]
    for prefs in space.profiles:
        for q1, q2 in pairs:
            a1 = m(AllocationProblem(prefs, q1))
            a2 = m(AllocationProblem(prefs, q2))
            for i, pref in enumerate(prefs):
                if not weakly_prefers(pref, a2[i], a1[i]):
                    return AxiomReport(
                        "resource_monotonicity",
                        {
                            "R": _profile_labels(prefs),
                            "capacities": list(q1),
                            "capacities_higher": list(q2),
                            "agent": space.agents[i],
                            "allocation_low": _object_labels(a1),
                            "allocation_high": _object_labels(a2),
                        },
                    )
    return AxiomReport("resource_monotonicity")


def _truncation_invariance_loop(m, space):
    def acceptable(pref):
        return frozenset(pref[: pref.index(None)])

    by_order = {}
    for prefs in space.profiles:
        key = tuple(tuple(x for x in pref if x is not None) for pref in prefs)
        by_order.setdefault(key, []).append(prefs)
    for caps in space.capacities:
        for group in by_order.values():
            for prefs in group:
                alloc = m(AllocationProblem(prefs, caps))
                for prefs2 in group:
                    if prefs2 == prefs:
                        continue
                    if not all(
                        acceptable(prefs2[i]) <= acceptable(prefs[i])
                        and weakly_prefers(prefs2[i], alloc[i], None)
                        for i in range(len(alloc))
                    ):
                        continue
                    alloc2 = m(AllocationProblem(prefs2, caps))
                    if alloc2 != alloc:
                        return AxiomReport(
                            "truncation_invariance",
                            {
                                "capacities": list(caps),
                                "R": _profile_labels(prefs),
                                "R_prime": _profile_labels(prefs2),
                                "allocation_R": _object_labels(alloc),
                                "allocation_R_prime": _object_labels(alloc2),
                            },
                        )
    return AxiomReport("truncation_invariance")


def _strategy_proofness_loop(m, space):
    deviations = all_preferences(space.objects)
    for prob in space_problems(space):
        alloc = m(prob)
        for i, pref in enumerate(prob.preferences):
            for dev in deviations:
                if dev == pref:
                    continue
                misreport = prob.preferences[:i] + (dev,) + prob.preferences[i + 1:]
                alloc2 = m(AllocationProblem(misreport, prob.capacities))
                if not weakly_prefers(pref, alloc[i], alloc2[i]):
                    return AxiomReport(
                        "strategy_proofness",
                        {
                            "R": _profile_labels(prob.preferences),
                            "capacities": list(prob.capacities),
                            "agent": space.agents[i],
                            "misreport": _object_labels(dev),
                            "truthful_allotment": _object_labels(alloc)[i],
                            "misreport_allotment": _object_labels(alloc2)[i],
                        },
                    )
    return AxiomReport("strategy_proofness")


def _weak_non_wastefulness_loop(m, space):
    for prob in space_problems(space):
        alloc = m(prob)
        filled = {x: sum(1 for a in alloc if a == x) for x in space.objects}
        for i, a_i in enumerate(alloc):
            if a_i is not None:
                continue
            for x, q in zip(space.objects, prob.capacities):
                if q > 0 and filled[x] < q and prefers(prob.preferences[i], x, None):
                    return AxiomReport(
                        "weak_non_wastefulness",
                        {
                            "R": _profile_labels(prob.preferences),
                            "capacities": list(prob.capacities),
                            "agent": space.agents[i],
                            "object": x,
                            "allocation": _object_labels(alloc),
                        },
                    )
    return AxiomReport("weak_non_wastefulness")


def _unavailable_type_invariance_loop(m, space):
    for caps in space.capacities:
        available = tuple(
            x for x, q in zip(space.objects, caps) if q > 0
        ) + (None,)
        seen = {}
        for prefs in space.profiles:
            sig = tuple(
                tuple(x for x in pref if x in available) for pref in prefs
            )
            alloc = m(AllocationProblem(prefs, caps))
            if sig in seen:
                prefs0, alloc0 = seen[sig]
                if alloc != alloc0:
                    return AxiomReport(
                        "unavailable_type_invariance",
                        {
                            "capacities": list(caps),
                            "R": _profile_labels(prefs0),
                            "R_prime": _profile_labels(prefs),
                            "allocation_R": _object_labels(alloc0),
                            "allocation_R_prime": _object_labels(alloc),
                        },
                    )
            else:
                seen[sig] = (prefs, alloc)
    return AxiomReport("unavailable_type_invariance")


def _isd_loop(m, space, caps_for_object, prop_name):
    agents = space.agents
    for k, x in enumerate(space.objects):
        for caps in caps_for_object(k):
            if caps[k] >= len(agents):
                continue
            caps_up = caps[:k] + (caps[k] + 1,) + caps[k + 1:]
            seen = {}
            for prefs in space.profiles:
                d = demand(m(AllocationProblem(prefs, caps)), prefs, x)
                d_up = demand(m(AllocationProblem(prefs, caps_up)), prefs, x)
                if d in seen:
                    prefs0, d_up0 = seen[d]
                    if d_up != d_up0:
                        return AxiomReport(
                            prop_name,
                            {
                                "object": x,
                                "capacities": list(caps),
                                "R": _profile_labels(prefs0),
                                "R_prime": _profile_labels(prefs),
                                "demand_before": sorted(agents[i] for i in d),
                                "demand_after_R": sorted(agents[i] for i in d_up0),
                                "demand_after_R_prime": sorted(agents[i] for i in d_up),
                            },
                        )
                else:
                    seen[d] = (prefs, d_up)
    return AxiomReport(prop_name)


def _isd_full_loop(m, space):
    return _isd_loop(m, space, lambda k: space.capacities, "irrelevance_of_satisfied_demand")


def _weak_isd_loop(m, space):
    def caps_for_object(k):
        return [
            caps for caps in space.capacities
            if all(q == 0 for j, q in enumerate(caps) if j != k)
        ]

    return _isd_loop(m, space, caps_for_object, "weak_irrelevance_of_satisfied_demand")


REWRITTEN_CHECKS = {
    "unavailable_type_invariance": (
        check_unavailable_type_invariance, _unavailable_type_invariance_loop,
    ),
    "irrelevance_of_satisfied_demand": (check_isd, _isd_full_loop),
    "weak_irrelevance_of_satisfied_demand": (check_weak_isd, _weak_isd_loop),
    "weak_non_wastefulness": (check_weak_non_wastefulness, _weak_non_wastefulness_loop),
    "resource_monotonicity": (check_resource_monotonicity, _resource_monotonicity_loop),
    "truncation_invariance": (check_truncation_invariance, _truncation_invariance_loop),
    "strategy_proofness": (check_strategy_proofness, _strategy_proofness_loop),
}


def _structure(rng, kind, agents, objects):
    """Rotating, responsive or Boston-builder rules, one per object."""
    u = make_universe(agents)
    rules = {}
    for x in objects:
        w, o = random_ordering(rng, u.n), random_ordering(rng, u.n)
        if kind == "responsive":
            rules[x] = Responsive(w)
        else:
            rules[x] = CapacityWise(BOSTON_BUILDERS[kind](w, o, u.n))
    return ChoiceStructure(u, objects, rules)


def _loop_da(cs):
    """Deferred acceptance one problem at a time, by the placed-scan loop."""
    return lambda prob: _placed_scan_da(cs, prob)[0]


def _mechanisms(rng, kind, agents, objects):
    cs = _structure(rng, kind, agents, objects)
    da = _loop_da(cs)
    other = _loop_da(_structure(rng, "responsive", agents, objects))
    n = len(agents)

    def capacity_dependent(prob):
        return (None,) * n if sum(prob.capacities) >= 2 else da(prob)

    def preference_dependent(prob):
        return (da if prefers(prob.preferences[0], objects[-1], None) else other)(prob)

    def truncation_dependent(prob):
        # many truncation pairs break it, so the first witness depends on
        # the order in which pairs are tried
        acceptable = sum(pref.index(None) for pref in prob.preferences)
        return (da if acceptable % 2 else other)(prob)

    return {
        "da": DAMechanism(cs),
        "immediate_acceptance": _ImmediateAcceptance(cs),
        "reject_all": lambda prob: (None,) * n,
        "capacity_dependent": capacity_dependent,
        "preference_dependent": preference_dependent,
        "truncation_dependent": truncation_dependent,
    }


def _memoized(m):
    """The loops ask for one problem many times; a memo keeps them fast.  A
    DAMechanism is replaced by the placed-scan loop, so that the loops share
    no code with the whole-space deferred acceptance."""
    if isinstance(m, DAMechanism):
        m = _loop_da(m.structure)
    memo = {}

    def call(prob):
        if prob not in memo:
            memo[prob] = m(prob)
        return memo[prob]

    return call


ORACLE_SPACES = [
    ("rotating", "exhaustive", 2, ("x", "y")),
    ("responsive", "reversed", 2, ("x", "y")),
    ("walk_open", "exhaustive", 3, ("x", "y")),
    ("responsive", "single", 3, ("x", "y")),
    ("compromise", "single", 2, ("x", "y")),
    ("open_walk", "sampled", 4, ("x", "y")),
    ("rotating", "sampled", 2, ("x", "y", "z")),
    ("walk_open", "duplicates", 2, ("x", "y")),
    ("rotating", "thinned", 3, ("x", "y")),
    ("responsive", "thinned", 3, ("x", "y")),
    ("compromise", "thinned", 3, ("x", "y")),
]


def _oracle_space(rng, space_kind, agents, objects):
    """The space of an ``ORACLE_SPACES`` entry; sampled kinds draw their seed from ``rng``."""
    if space_kind == "exhaustive":
        return exhaustive_space(agents, objects)
    if space_kind == "single":
        return single_object_space(agents, objects)
    if space_kind == "reversed":  # capacities and profiles in reverse order
        space = exhaustive_space(agents, objects)
        return MechanismSpace(agents, objects, space.profiles[::-1], space.capacities[::-1])
    if space_kind == "duplicates":  # 40 draws from 36 profiles
        space = sampled_space(agents, objects, 40, seed=rng.randrange(1000))
        assert len(set(space.profiles)) < len(space.profiles)
        return space
    if space_kind == "thinned":  # every other vector, reversed, the first twice
        space = sampled_space(agents, objects, 60, seed=rng.randrange(1000))
        thinned = space.capacities[::2][::-1]
        return MechanismSpace(agents, objects, space.profiles, thinned + thinned[:1])
    return sampled_space(agents, objects, 8, seed=rng.randrange(1000))


def test_rewritten_checkers_match_their_loops():
    """Verdict and first witness agree on every mechanism and space, sampled
    spaces included: their misreports fall outside the space, and they may
    list a profile twice.  A thinned space lacks most unit capacity increases
    and lists a capacity vector twice.  A DAMechanism is checked unwrapped, so that it
    takes the whole-space deferred acceptance, and behind a memo, which
    calls the placed-scan loop once per problem like any other mechanism."""
    rng = random.Random(11)
    verdicts = {name: set() for name in REWRITTEN_CHECKS}
    for kind, space_kind, n, objects in ORACLE_SPACES:
        agents = tuple("ijkl"[:n])
        space = _oracle_space(rng, space_kind, agents, objects)
        for mech_name, m in _mechanisms(rng, kind, agents, objects).items():
            memoized = _memoized(m)
            for name, (check, loop) in REWRITTEN_CHECKS.items():
                want = loop(memoized, space)
                for form in (memoized, m) if isinstance(m, DAMechanism) else (memoized,):
                    got = check(form, space)
                    assert (got.verdict, got.witness) == (want.verdict, want.witness), (
                        kind, space_kind, n, mech_name, name, form is m,
                    )
                verdicts[name].add(want.verdict)
    assert all(v == {"pass", "fail"} for v in verdicts.values()), verdicts


# --- one allocation per sweep -----------------------------------------------------


@pytest.fixture
def da_calls(monkeypatch):
    """The ``(profiles, capacity vectors)`` arrays of every whole-space
    deferred acceptance run, in call order."""
    calls = []
    real = mechanism._da_slots

    def counted(cs, slot_at, pidx, caps, rounds=None):
        calls.append((pidx, caps))
        return real(cs, slot_at, pidx, caps, rounds)

    monkeypatch.setattr(mechanism, "_da_slots", counted)
    return calls


def _rows(array) -> set:
    return set(map(tuple, array.tolist()))


def test_a_sweep_allocates_once(da_calls):
    """Every checker of a sweep over one space reads the allocation that the
    first one computed; a checker that appends problems allocates only those."""
    agents = ("i", "j", "k")
    m = DAMechanism(_rotating_structure(agents, ("x", "y")))
    space = exhaustive_space(agents, ("x", "y"))
    for check in MECHANISM_CHECKS.values():
        check(m, space)
    assert len(da_calls) == 1 and da_calls[0][0] is space.ids and da_calls[0][1] is space.caps

    da_calls.clear()  # ISD on one available object appends the vectors with two
    agents = ("i", "j", "k", "l")
    space = single_object_space(agents, ("x", "y"))
    check_isd(DAMechanism(_rotating_structure(agents, ("x", "y"))), space)
    (base_ids, base_caps), (ids, extra) = da_calls
    assert base_ids is space.ids and base_caps is space.caps and ids is space.ids
    assert len(extra) == 7 and _rows(extra) == {(q, 1) for q in range(1, 5)} | {(1, q) for q in range(1, 5)}

    da_calls.clear()  # strategy-proofness on a sample appends the misreports it lacks
    agents = ("i", "j", "k")
    space = sampled_space(agents, ("x", "y"), 10, seed=3)
    check_strategy_proofness(DAMechanism(_rotating_structure(agents, ("x", "y"))), space)
    (base_ids, base_caps), (extra, caps) = da_calls
    assert base_ids is space.ids and base_caps is space.caps and caps is space.caps
    assert 0 < len(extra) == len(_rows(extra)) and not _rows(extra) & _rows(space.ids)


def test_kept_allocation_gives_the_same_reports():
    """A structure that keeps its last space's allocation reports, on every
    oracle space and in either order of the checkers, what a fresh structure
    per checker reports."""
    rng = random.Random(13)
    for kind, space_kind, n, objects in ORACLE_SPACES:
        agents = tuple("ijkl"[:n])
        space = _oracle_space(rng, space_kind, agents, objects)
        cs = _structure(rng, kind, agents, objects)
        m = DAMechanism(cs)
        for name, check in [*MECHANISM_CHECKS.items(), *reversed(MECHANISM_CHECKS.items())]:
            got, want = check(m, space), check(DAMechanism(dataclasses.replace(cs)), space)
            assert (got.verdict, got.witness) == (want.verdict, want.witness), (kind, space_kind, name)


def test_kept_allocation_is_read_only_and_per_space(da_calls):
    """``allocations`` returns a read-only array, for any mechanism; a
    structure allocates spaces A, B, A in turn each by its own problems, an
    equal space that is another object included."""
    agents, objects = ("i", "j", "k"), ("x", "y")
    cs = _rotating_structure(agents, objects)
    a, b = exhaustive_space(agents, objects), single_object_space(agents, objects)
    for m in (DAMechanism(cs), _loop_da(cs)):
        alloc = allocations(m, a)
        assert not alloc.flags.writeable
        with pytest.raises(ValueError):
            alloc[0, 0, 0] = 0
    copy = dataclasses.replace(a)
    assert copy == a and copy is not a
    # cs keeps a; then it allocates b, a again and the copy, and keeps the copy
    for space, allocates in ((b, 1), (a, 1), (copy, 1), (copy, 0)):
        want = allocations(DAMechanism(dataclasses.replace(cs)), space)
        calls = len(da_calls)
        assert np.array_equal(allocations(DAMechanism(cs), space), want)
        assert len(da_calls) - calls == allocates


def test_invalid_table_is_refused_on_every_call():
    """An invalid matrix is refused each time a table is built from it, with
    the error that names its first invalid entry; the refusal changes
    nothing, so an allocation can never fail on a table."""
    u, entries = _invalid_entries()
    before = entries.copy()
    for _ in range(3):
        with pytest.raises(ValueError) as got:
            ChoiceTable(u, entries)
        assert str(got.value) == _INVALID_TABLE_ERROR
    assert np.array_equal(entries, before) and entries.flags.writeable


# --- the paper's characterization, exhaustively at 5 agents x 2 objects ---------


def test_rotating_da_characterization_5x2():
    """Deferred acceptance over the rotating lexicographic rule (walk-zone,
    open, walk-zone, ...) on all 7,776 profiles x 36 capacity vectors.

    Truncation invariance fails here, as it already does at 4 agents: under
    R, agent l's application to x starts a rejection chain that leaves l
    unassigned but moves k to x and m to y; when l truncates to null-first,
    m keeps x and k keeps y.  The witness replays on da_allocate.
    """
    agents = ("i", "j", "k", "l", "m")
    cs = _rotating_structure(agents, ("x", "y"))
    mech = DAMechanism(cs)
    space = exhaustive_space(agents, ("x", "y"))
    assert len(space.profiles) * len(space.capacities) == 7776 * 36
    for chk in (
        check_unavailable_type_invariance,
        check_weak_non_wastefulness,
        check_resource_monotonicity,
        check_strategy_proofness,
        check_weak_isd,
    ):
        rep = chk(mech, space)
        assert rep.ok, (rep.axiom, rep.witness)
    rep = check_truncation_invariance(mech, space)
    accept_y, accept_x, null_first = ["y", "x", "null"], ["x", "y", "null"], ["null", "x", "y"]
    assert rep.witness == {
        "capacities": [1, 2],
        "R": [null_first, accept_y, accept_y, accept_x, accept_x],
        "R_prime": [null_first, accept_y, accept_y, null_first, accept_x],
        "allocation_R": ["null", "y", "x", "null", "y"],
        "allocation_R_prime": ["null", "y", "y", "null", "x"],
    }
    for profile, alloc in (("R", "allocation_R"), ("R_prime", "allocation_R_prime")):
        prefs = tuple(tuple(None if x == "null" else x for x in p) for p in rep.witness[profile])
        assert _object_labels(da_allocate(cs, AllocationProblem(prefs, (1, 2)))) == rep.witness[alloc]

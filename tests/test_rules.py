import pytest

from lexichoice import (
    BOSTON_BUILDERS,
    CapacityWise,
    CapacityWiseLists,
    ChoiceTable,
    Lexicographic,
    PriorityOrdering,
    PriorityProfile,
    Responsive,
    TableRule,
    boston_requirement_holds,
    build_compromise,
    build_open_walk,
    build_rotating,
    build_walk_open,
    materialize,
    ordering_from_labels,
)
from conftest import (
    enumerate_problems,
    mask_of,
    members_of,
    naive_sequential_choice,
    random_ordering,
    random_profile,
    table_from_function,
    universe,
)


def test_ordering_validation_and_helpers():
    with pytest.raises(ValueError):
        PriorityOrdering((0, 0, 1))
    o = PriorityOrdering((2, 0, 1))
    assert o.key().tolist() == [1, 2, 0]
    assert o.n == 3


def test_profile_and_lists_validation():
    o3 = PriorityOrdering((0, 1, 2))
    o2 = PriorityOrdering((0, 1))
    with pytest.raises(ValueError):
        PriorityProfile((o3, o3))  # wrong count
    with pytest.raises(ValueError):
        PriorityProfile((o3, o3, o2))  # wrong sizes
    with pytest.raises(ValueError):
        CapacityWiseLists(((o3,), (o3,), (o3, o3, o3)))  # wrong lengths


def _oracle_table(u, orderings_at) -> ChoiceTable:
    """The naive greedy choice with ``orderings_at(q)`` at every problem."""

    def choose(mask, q):
        return mask_of(naive_sequential_choice(orderings_at(q), members_of(mask), q))

    return table_from_function(u, choose)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_choose_functions_match_naive_oracle(rng, n):
    # a rule is evaluated as materialize(rule, u).choose(p)
    u = universe(n)
    for _ in range(10):
        profile = random_profile(rng, n)
        ordering = random_ordering(rng, n)
        lists = CapacityWiseLists(
            tuple(
                tuple(random_ordering(rng, n) for _ in range(q))
                for q in range(1, n + 1)
            )
        )
        lex = materialize(Lexicographic(profile), u)
        resp = materialize(Responsive(ordering), u)
        cw = materialize(CapacityWise(lists), u)
        for p in enumerate_problems(u):
            members = members_of(p.set)
            assert lex.choose(p) == mask_of(
                naive_sequential_choice(profile.orderings[: p.capacity], members, p.capacity)
            )
            assert resp.choose(p) == mask_of(
                naive_sequential_choice((ordering,) * p.capacity, members, p.capacity)
            )
            assert cw.choose(p) == mask_of(
                naive_sequential_choice(lists.at(p.capacity), members, p.capacity)
            )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_materialize_matches_per_problem_choose(rng, n):
    # whole tables: random rules of the three kinds, the four Boston builders
    # and table rules against tables filled cell by cell by the naive oracle
    u = universe(n)
    for _ in range(5):
        profile = random_profile(rng, n)
        o = random_ordering(rng, n)
        lists = CapacityWiseLists(
            tuple(
                tuple(random_ordering(rng, n) for _ in range(q))
                for q in range(1, n + 1)
            )
        )
        w = random_ordering(rng, n)
        cases = [
            (Lexicographic(profile), lambda q: profile.orderings[:q]),
            (Responsive(o), lambda q: (o,) * q),
            (CapacityWise(lists), lists.at),
        ]
        for build in BOSTON_BUILDERS.values():
            boston = build(w, o, n)
            cases.append((CapacityWise(boston), boston.at))
        for rule, orderings_at in cases:
            t = materialize(rule, u)
            assert t == _oracle_table(u, orderings_at)
            assert materialize(TableRule(t), u) is t


def test_materialize_table_rule_and_mismatches(rng):
    u = universe(3)
    t = materialize(Responsive(random_ordering(rng, 3)), u)
    assert materialize(TableRule(t), u) is t
    with pytest.raises(ValueError):
        materialize(TableRule(t), universe(4))
    with pytest.raises(ValueError):
        materialize(Responsive(random_ordering(rng, 4)), u)
    with pytest.raises(TypeError):
        materialize(object(), u)


def _wo(n):
    u = universe(n)
    w = ordering_from_labels(u, u.labels)
    o = ordering_from_labels(u, tuple(reversed(u.labels)))
    return u, w, o


def test_boston_builders_list_shapes():
    _, w, o = _wo(5)
    assert build_walk_open(w, o, 5).per_capacity == (
        (w,),
        (w, o),
        (w, w, o),
        (w, w, o, o),
        (w, w, w, o, o),
    )
    assert build_open_walk(w, o, 5).per_capacity == (
        (o,),
        (o, w),
        (o, o, w),
        (o, o, w, w),
        (o, o, o, w, w),
    )
    assert build_rotating(w, o, 5).per_capacity == (
        (w,),
        (w, o),
        (w, o, w),
        (w, o, w, o),
        (w, o, w, o, w),
    )
    _, w8, o8 = _wo(8)
    assert build_compromise(w8, o8, 8).per_capacity[7] == (w8, w8, o8, o8, o8, o8, w8, w8)
    assert build_compromise(w8, o8, 8).per_capacity[4] == (w8, w8, o8, o8, w8)
    assert build_compromise(w8, o8, 8).per_capacity[5] == (w8, w8, o8, o8, o8, w8)
    assert build_compromise(w8, o8, 8).per_capacity[6] == (w8, w8, o8, o8, o8, w8, w8)


def test_boston_requirement():
    _, w, o = _wo(5)
    for name, build in BOSTON_BUILDERS.items():
        assert boston_requirement_holds(build(w, o, 5), w, o), name
    bad = CapacityWiseLists(((w,), (w, w), (w, w, o), (w, w, o, o), (w, w, w, o, o)))
    assert not boston_requirement_holds(bad, w, o)
    u = universe(5)
    third = ordering_from_labels(u, "baced")
    with_third = CapacityWiseLists(
        ((w,), (w, o), (w, o, third), (w, w, o, o), (w, w, w, o, o))
    )
    assert not boston_requirement_holds(with_third, w, o)

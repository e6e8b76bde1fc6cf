import itertools
import random

import numpy as np
import pytest

from lexichoice import (
    CapacityWise,
    ChoiceTable,
    CapacityWiseLists,
    ExtractionError,
    Lexicographic,
    PriorityOrdering,
    PriorityProfile,
    Problem,
    Responsive,
    check_cwrarp,
    check_wrarp,
    extract_capacity_wise_responsive,
    extract_lex_profile,
    extract_responsive,
    materialize,
    ordering_from_labels,
)
from lexichoice.identify import linear_extension
from lexichoice.casebook import (
    constant_singleton_table,
    trigger_switch_table,
    switching_rule_table,
    open_walk_rule_5,
    walk_open_rule_5,
)

from conftest import random_ordering, random_profile, set_major, universe


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lex_round_trip(rng, n):
    u = universe(n)
    for _ in range(25):
        profile = random_profile(rng, n)
        t = materialize(Lexicographic(profile), u)
        recovered = extract_lex_profile(t)
        assert materialize(Lexicographic(recovered), u) == t


def test_first_ordering_is_forced(rng):
    n = 5
    u = universe(n)
    for _ in range(10):
        profile = random_profile(rng, n)
        t = materialize(Lexicographic(profile), u)
        recovered = extract_lex_profile(t)
        # the first ordering is identified exactly by capacity-1 peeling
        assert recovered.orderings[0] == profile.orderings[0]


def test_extract_fails_on_non_lexicographic_tables():
    for t in (switching_rule_table(), constant_singleton_table(), trigger_switch_table()):
        with pytest.raises(ExtractionError):
            extract_lex_profile(t)
    u, wo = walk_open_rule_5()
    with pytest.raises(ExtractionError):
        extract_lex_profile(materialize(CapacityWise(wo), u))


def test_extraction_error_carries_diagnostics():
    try:
        extract_lex_profile(constant_singleton_table())
    except ExtractionError as e:
        assert e.step is not None or e.problem is not None
    else:  # pragma: no cover
        pytest.fail("expected failure")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_responsive_round_trip_and_cwrarp_iff(rng, n):
    u = universe(n)
    for _ in range(10):
        ordering = random_ordering(rng, n)
        t = materialize(Responsive(ordering), u)
        assert extract_responsive(t) == ordering
        assert check_cwrarp(t).ok
    # rotating with two distinct orderings fails cross-capacity asymmetry
    if n >= 3:
        w = random_ordering(rng, n)
        o = PriorityOrdering(tuple(reversed(w.rank)))
        from lexichoice import build_rotating

        t = materialize(CapacityWise(build_rotating(w, o, n)), u)
        assert not check_cwrarp(t).ok
        with pytest.raises(ExtractionError):
            extract_responsive(t)


def test_extract_responsive_iff_cwrarp(rng):
    """Success of single-ordering extraction coincides with capacity-filling
    plus cross-capacity asymmetry, over a mixed pool of tables."""
    n = 3
    u = universe(n)
    pool = [
        materialize(Responsive(random_ordering(rng, n)), u) for _ in range(5)
    ] + [materialize(Lexicographic(random_profile(rng, n)), u) for _ in range(15)]
    pool.append(switching_rule_table())
    pool.append(trigger_switch_table())
    from lexichoice import check_capacity_filling

    for t in pool:
        ok = check_capacity_filling(t).ok and check_cwrarp(t).ok
        try:
            extract_responsive(t)
            extracted = True
        except ExtractionError:
            extracted = False
        assert extracted == ok


def test_capacity_wise_responsive_round_trip(rng):
    n = 4
    u = universe(n)
    perms = [PriorityOrdering(p) for p in itertools.permutations(range(n))]
    for _ in range(10):
        per_q = [perms[rng.randrange(len(perms))] for _ in range(n)]
        lists = CapacityWiseLists(
            tuple(tuple([per_q[q - 1]] * q) for q in range(1, n + 1))
        )
        t = materialize(CapacityWise(lists), u)
        assert check_wrarp(t).ok
        orderings = extract_capacity_wise_responsive(t)
        for q in range(1, n + 1):
            rebuilt = materialize(Responsive(orderings[q - 1]), u)
            for s in range(1, 1 << n):
                assert rebuilt.choose(Problem(s, q)) == t.choose(Problem(s, q))


def test_capacity_wise_responsive_failures():
    assert not check_wrarp(trigger_switch_table()).ok
    with pytest.raises(ExtractionError) as err:
        extract_capacity_wise_responsive(trigger_switch_table())
    assert str(err.value) == (
        "chosen-over relation at capacity 1 is cyclic among ['a', 'b', 'c']; "
        "the table violates the per-capacity revealed preference axiom"
    )
    assert err.value.step == "capacity 1"
    # genuinely mixed per-capacity lists are not per-capacity responsive:
    # settled empirically and pinned
    u, ow = open_walk_rule_5()
    t = materialize(CapacityWise(ow), u)
    assert not check_wrarp(t).ok
    with pytest.raises(ExtractionError) as err:
        extract_capacity_wise_responsive(t)
    assert str(err.value) == (
        "chosen-over relation at capacity 2 is cyclic among ['c', 'd']; "
        "the table violates the per-capacity revealed preference axiom"
    )
    assert err.value.step == "capacity 2"


def _capacity_wise_over_every_set(t: ChoiceTable):
    """The capacity-wise responsive extraction read from the chosen-over
    edges over every set of a fresh copy of ``t``: its orderings, or the
    message, step and problem of its error."""
    t = ChoiceTable(t.universe, set_major(t))
    n = t.n
    orderings = []
    for q in range(1, n + 1):
        rank = linear_extension(t.chosen_over[q - 1])
        if len(rank) != n:
            cyc = [lab for a, lab in enumerate(t.universe.labels) if a not in rank]
            return (f"chosen-over relation at capacity {q} is cyclic among {cyc}; "
                    "the table violates the per-capacity revealed preference axiom",
                    f"capacity {q}", None)
        orderings.append(PriorityOrdering(tuple(rank)))
    lists = CapacityWiseLists(tuple(tuple([o] * q) for q, o in enumerate(orderings, start=1)))
    diff = materialize(CapacityWise(lists), t.universe).first_difference(t)
    if diff is not None:
        return (f"table is not capacity-wise responsive: first mismatch at problem {diff}",
                None, diff)
    return orderings


def _capacity_wise_extracted(t: ChoiceTable):
    try:
        return extract_capacity_wise_responsive(t)
    except ExtractionError as e:
        return str(e), e.step, e.problem


@pytest.mark.parametrize("n", range(2, 11))
def test_capacity_wise_extraction_reads_the_sets_of_q_plus_1(n):
    # a capacity-wise responsive table is extracted from its sets of q+1
    # alternatives alone: the edges over every set are never built
    rng = random.Random(f"cw-reads-{n}")
    u = universe(n)
    for _ in range(4 if n > 8 else 10):
        per_q = [random_ordering(rng, n) for _ in range(n)]
        lists = CapacityWiseLists(tuple(tuple([per_q[q - 1]] * q) for q in range(1, n + 1)))
        t = materialize(CapacityWise(lists), u)
        orderings = extract_capacity_wise_responsive(t)
        assert "chosen_over" not in t.__dict__
        assert orderings == _capacity_wise_over_every_set(t)
        assert orderings[0] == per_q[0]  # capacity 1 orders every alternative


@pytest.mark.parametrize("n", range(2, 9))
def test_capacity_wise_extraction_errors_are_those_of_every_set(n):
    # tables that are not capacity-wise responsive fail the proposal from
    # the sets of q+1 alternatives, and then report the error that the
    # edges over every set give: the same message, step and problem
    rng = random.Random(f"cw-errors-{n}")
    u = universe(n)
    seen = set()
    casebook = {3: [constant_singleton_table(), trigger_switch_table()], 5: [switching_rule_table()]}
    for t in casebook.get(n, []):
        assert _capacity_wise_extracted(t) == _capacity_wise_over_every_set(t)
    for _ in range(6):
        per_q = [random_ordering(rng, n) for _ in range(n)]
        responsive = CapacityWiseLists(tuple(tuple([per_q[q - 1]] * q) for q in range(1, n + 1)))
        mixed = CapacityWiseLists(tuple(
            tuple(random_ordering(rng, n) for _ in range(q)) for q in range(1, n + 1)))
        tables = [materialize(Lexicographic(random_profile(rng, n)), u),
                  materialize(CapacityWise(mixed), u)]
        for rule in (CapacityWise(responsive), Lexicographic(random_profile(rng, n))):
            entries = set_major(materialize(rule, u))
            s = rng.randrange(1, 1 << n)
            q = rng.randrange(1, n + 1)
            members = [a for a in range(n) if (s >> a) & 1]
            entries[s, q] = sum(1 << a for a in rng.sample(members, min(q, len(members)) - 1))
            tables.append(ChoiceTable(u, entries))
        for t in tables:
            got = _capacity_wise_extracted(t)
            assert got == _capacity_wise_over_every_set(t)
            seen.add("ok" if isinstance(got, list) else "cyclic" if got[1] else "mismatch")
    assert seen >= ({"cyclic", "mismatch"} if n > 3 else {"mismatch"})


def test_rotating_equivalent_to_alternating_profile():
    u = universe(5)
    w = ordering_from_labels(u, "abcde")
    o = ordering_from_labels(u, "ebdca")
    from lexichoice import build_rotating

    t = materialize(CapacityWise(build_rotating(w, o, 5)), u)
    recovered = extract_lex_profile(t)
    alternating = PriorityProfile((w, o, w, o, w))
    assert materialize(Lexicographic(alternating), u) == t
    assert materialize(Lexicographic(recovered), u) == t


def _closure_extension(n, edges):
    # Transitive closure, then repeatedly the lowest-index alternative that
    # nothing remaining reaches; None when some step has no such source.
    reach = [set() for _ in range(n)]
    for a, b in edges:
        reach[a].add(b)
    for k in range(n):
        for a in range(n):
            if k in reach[a]:
                reach[a] |= reach[k]
    remaining = set(range(n))
    rank = []
    while remaining:
        sources = [
            a for a in sorted(remaining)
            if not any(a in reach[b] for b in remaining if b != a)
        ]
        if not sources:
            return None
        rank.append(sources[0])
        remaining.remove(sources[0])
    return rank


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_linear_extension_matches_closure_oracle(rng, n):
    seen = {"ordered": 0, "cyclic": 0}
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for _ in range(300):
        density = rng.random() * 0.5
        edges = {p for p in pairs if rng.random() < density}
        want = _closure_extension(n, edges)
        matrix = np.zeros((n, n), dtype=bool)
        for a, b in edges:
            matrix[a, b] = True
        got = linear_extension(matrix)
        if want is None:
            seen["cyclic"] += 1
            assert len(got) < n
        else:
            seen["ordered"] += 1
            assert got == want
    assert seen["ordered"] > 0
    if n >= 2:
        assert seen["cyclic"] > 0

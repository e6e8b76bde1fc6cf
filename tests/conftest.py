"""Shared fixtures and independent naive oracles.

The oracles here deliberately avoid the library's kernels: they recompute
choices with plain python set logic so that library outputs are checked
against an independent implementation.
"""

from __future__ import annotations

import itertools
import random
import string

import pytest

import numpy as np

from lexichoice import (
    AllocationProblem,
    ChoiceTable,
    MechanismSpace,
    PriorityOrdering,
    PriorityProfile,
    Problem,
    _kernels,
    all_preferences,
    axioms,
    core,
    make_universe,
    serialize,
)


def universe(n: int):
    return make_universe(string.ascii_lowercase[:n])


def random_ordering(rng: random.Random, n: int) -> PriorityOrdering:
    ranks = list(range(n))
    rng.shuffle(ranks)
    return PriorityOrdering(tuple(ranks))


def random_profile(rng: random.Random, n: int) -> PriorityProfile:
    return PriorityProfile(tuple(random_ordering(rng, n) for _ in range(n)))


def sampled_space(agents, objects, n_profiles: int, seed: int) -> MechanismSpace:
    """A seeded sample of preference profiles, with every capacity vector.

    A sample may list a profile twice and lacks most unilateral misreports,
    so the checkers append the problems it misses.
    """
    agents, objects = tuple(agents), tuple(objects)
    rng = random.Random(seed)
    prefs = all_preferences(objects)
    profiles = tuple(
        tuple(prefs[rng.randrange(len(prefs))] for _ in agents)
        for _ in range(n_profiles)
    )
    capacities = tuple(itertools.product(range(len(agents) + 1), repeat=len(objects)))
    return MechanismSpace(agents, objects, profiles, capacities)


def space_problems(space) -> list[AllocationProblem]:
    """Every problem of ``space``: profiles in order, capacity vectors within."""
    return [AllocationProblem(p, c) for p in space.profiles for c in space.capacities]


# --- naive oracles -------------------------------------------------------------


def enumerate_problems(u):
    """All (S, q) with nonempty S and 1 <= q <= n, in canonical order: sets
    ascend by bitmask, capacities ascend within each set."""
    for mask in range(1, 1 << u.n):
        for q in range(1, u.n + 1):
            yield Problem(mask, q)


def table_from_function(u, choose) -> ChoiceTable:
    """The table of ``choose(mask, q)``, called once per problem."""
    entries = np.zeros((1 << u.n, u.n + 1), dtype=np.int64)
    for p in enumerate_problems(u):
        entries[p.set, p.capacity] = choose(p.set, p.capacity)
    return ChoiceTable(u, entries)


def random_choices(rng: random.Random, n: int) -> np.ndarray:
    """A set-major matrix whose every C(S, q) is a random subset of S with
    at most q members: a choice rule, which mostly breaks capacity filling,
    monotonicity and heritage."""
    entries = np.zeros((1 << n, n + 1), dtype=np.int64)
    for s in range(1, 1 << n):
        members = [a for a in range(n) if (s >> a) & 1]
        for q in range(1, n + 1):
            k = rng.randrange(0, min(len(members), q) + 1)
            entries[s, q] = sum(1 << a for a in rng.sample(members, k))
    return entries


def admissible_tables(n: int):
    """Every table over n alternatives that is capacity-filling, keeps
    heritage (gross substitutes) and is monotone, each as a fresh
    :class:`ChoiceTable`: 1, 2, 12 and 384 tables at n = 1..4.

    Filling and monotonicity make the choices of a set S a chain, the top
    q of one ordering of S at each q below |S| and S itself from |S| on,
    so each set picks one ordering of its members.  Sets go in size order,
    and an ordering is kept only when heritage holds against the choices
    of every S minus b, already picked.
    """
    u = universe(n)
    sets = sorted(range(1, 1 << n), key=core.popcount)
    entries = np.zeros((1 << n, n + 1), dtype=np.int64)

    def chains(s):
        for order in itertools.permutations(sorted(members_of(s))):
            yield [mask_of(order[:q]) for q in range(1, n + 1)]

    def keeps_heritage(s, chain):
        for b in members_of(s):
            sub = s & ~(1 << b)
            if sub and any(chain[q - 1] & ~(1 << b) & ~entries[sub, q] for q in range(1, n + 1)):
                return False
        return True

    def walk(i):
        if i == len(sets):
            yield ChoiceTable(u, entries)
            return
        s = sets[i]
        for chain in chains(s):
            if keeps_heritage(s, chain):
                entries[s, 1:] = chain
                yield from walk(i + 1)

    yield from walk(0)


def rejected(table, p) -> int:
    """R(S, q) = S minus C(S, q); may be empty."""
    return p.set & ~table.choose(p)


def prefers(pref, x, y) -> bool:
    """The ranking ``pref`` (best first) puts x strictly above y."""
    return pref.index(x) < pref.index(y)


def demand(allocation, preferences, x) -> frozenset[int]:
    """Agents (indices) who strictly prefer x to their allotment."""
    return frozenset(
        i for i, pref in enumerate(preferences)
        if allocation[i] != x and prefers(pref, x, allocation[i])
    )


def naive_pick(ordering: PriorityOrdering, remaining: set[int]) -> int | None:
    for alt in ordering.rank:
        if alt in remaining:
            return alt
    return None


def naive_sequential_choice(orderings, members: set[int], capacity: int) -> set[int]:
    """Greedy sequential choice by an explicit list of orderings."""
    remaining = set(members)
    chosen: set[int] = set()
    for t in range(min(capacity, len(orderings))):
        alt = naive_pick(orderings[t], remaining)
        if alt is None:
            break
        chosen.add(alt)
        remaining.discard(alt)
    return chosen


def naive_flex_choice(profile, feasible_sets, members, capacity) -> set[int]:
    """Greedy feasibility-constrained choice against an explicit set family."""
    remaining = set(members)
    chosen: set[int] = set()
    for t in range(capacity):
        pick = None
        for alt in profile.orderings[t].rank:
            if alt in remaining and frozenset(chosen | {alt}) in feasible_sets:
                pick = alt
                break
        if pick is None:
            break
        chosen.add(pick)
        remaining.discard(pick)
    return chosen


def feasible(family, mask: int) -> bool:
    """Per-mask membership oracle: ``mask`` has at most one alternative or
    lies inside one of the family's maximal sets."""
    return mask.bit_count() <= 1 or any(mask & ~m == 0 for m in family.maximal)


@pytest.fixture
def augmentation_calls(monkeypatch):
    """The n of each ``_kernels._augmentations`` call made during the test."""
    calls = []
    build = _kernels._augmentations

    def counted(n, feas):
        calls.append(n)
        return build(n, feas)

    monkeypatch.setattr(_kernels, "_augmentations", counted)
    return calls


@pytest.fixture
def table_reads(monkeypatch):
    """How each table spec's entries were read during the test: ``"bytes"``
    for each spec that ``serialize._byte_read`` returned, ``"json"`` for each
    ``serialize._table`` call, which reads the nested lists of ``json``."""
    reads = []
    byte_read, table = serialize._byte_read, serialize._table

    def counted_byte_read(data):
        spec = byte_read(data)
        if spec is not None:
            reads.append("bytes")
        return spec

    def counted_table(u, rows):
        reads.append("json")
        return table(u, rows)

    monkeypatch.setattr(serialize, "_byte_read", counted_byte_read)
    monkeypatch.setattr(serialize, "_table", counted_table)
    return reads


@pytest.fixture
def scan_calls(monkeypatch):
    """The whole-table scans made during the test: under ``removal`` the
    condition of each ``_kernels._removal_violations`` call; per
    ``_kernels.chosen_over_edges`` call, its chosen columns, under ``edges``
    as a ``(Q, 2**n)`` array when they cover every set, and under
    ``witness_edges`` as the 1-D runs of the sets of q+1 alternatives
    (``_kernels.witness_set_columns``) when ``starts`` is given; under
    ``unfilled`` the n of each capacity filling scan ``_kernels._unfilled``;
    under ``invalid`` the n of each validity scan ``core._first_invalid``
    of a table built from a matrix; and under ``iaa`` the number of sets
    that each call of the IAA loop body ``axioms._iaa_first`` reads."""
    calls = {"removal": [], "edges": [], "witness_edges": [], "unfilled": [], "invalid": [],
             "iaa": []}
    removal, edges, unfilled, invalid, iaa = (
        _kernels._removal_violations, _kernels.chosen_over_edges, _kernels._unfilled,
        core._first_invalid, axioms._iaa_first,
    )

    def counted_removal(n, rows, condition="heritage"):
        calls["removal"].append(condition)
        return removal(n, rows, condition)

    def counted_edges(n, chosen, rejected, starts=None):
        if starts is None:
            calls["edges"].append(np.asarray(chosen).reshape(-1, 1 << n))
        else:
            calls["witness_edges"].append(np.asarray(chosen))
        return edges(n, chosen, rejected, starts)

    def counted_unfilled(n, cols):
        calls["unfilled"].append(n)
        return unfilled(n, cols)

    def counted_invalid(n, cols):
        calls["invalid"].append(n)
        return invalid(n, cols)

    def counted_iaa(sets, chosen, chosen_next, slot):
        calls["iaa"].append(len(sets))
        return iaa(sets, chosen, chosen_next, slot)

    monkeypatch.setattr(_kernels, "_removal_violations", counted_removal)
    monkeypatch.setattr(axioms, "_iaa_first", counted_iaa)
    monkeypatch.setattr(_kernels, "_unfilled", counted_unfilled)
    monkeypatch.setattr(_kernels, "chosen_over_edges", counted_edges)
    monkeypatch.setattr(core, "_first_invalid", counted_invalid)
    return calls


def set_major(table) -> np.ndarray:
    """A writable int64 copy of the table's entries as ``[S, q]``, the
    set-major matrix that ``ChoiceTable(u, entries)`` takes."""
    return np.array(table.cols.T, dtype=np.int64)


def table_entries(table) -> list[list[int]]:
    """Raw entries matrix, the ``table`` spec-kind wire format."""
    return table.cols.T.tolist()


def mask_of(members) -> int:
    out = 0
    for a in members:
        out |= 1 << a
    return out


def members_of(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if (mask >> i) & 1}


def all_subsets(n: int):
    for mask in range(1, 1 << n):
        yield members_of(mask)


def naive_iaa_holds(choose, n: int) -> bool:
    """Pairwise-set formulation: equal rejections at q imply equal newly
    accepted rejects at q+1.  ``choose(members, q)`` returns a set."""
    for q in range(1, n):
        for s in all_subsets(n):
            for t in all_subsets(n):
                rs = s - choose(s, q)
                rt = t - choose(t, q)
                if rs != rt:
                    continue
                if choose(s, q + 1) & rs != choose(t, q + 1) & rt:
                    return False
    return True


def naive_iaa_witness(choose, n: int) -> dict | None:
    """The first IAA violation in canonical order, None when IAA holds.

    Capacities ascend; at each, sets S' ascend by bitmask, and S' violates
    IAA when its newly accepted set at q+1 differs from that of S, the first
    set with the same rejection set at q.  The entries are member sets.
    ``choose(members, q)`` returns a set.
    """
    for q in range(1, n):
        first = {}
        for mask in range(1, 1 << n):
            s = members_of(mask)
            rej = frozenset(s - choose(s, q))
            new = choose(s, q + 1) & rej
            if rej not in first:
                first[rej] = (s, new)
            elif first[rej][1] != new:
                s0, new0 = first[rej]
                return {"q": q, "S": s0, "S_prime": s, "rejected": set(rej),
                        "new_accepted_S": new0, "new_accepted_S_prime": new}
    return None


def naive_gs_holds(choose, n: int) -> bool:
    for s in all_subsets(n):
        for q in range(1, n + 1):
            chosen = choose(s, q)
            for b in s:
                sub = s - {b}
                if not sub:
                    continue
                if not (chosen - {b}) <= choose(sub, q):
                    return False
    return True


def naive_monotone_holds(choose, n: int) -> bool:
    for s in all_subsets(n):
        for q in range(1, n):
            if not choose(s, q) <= choose(s, q + 1):
                return False
    return True


def weakly_prefers(pref, x, y) -> bool:
    """x is y, or the ranking ``pref`` (best first) puts x above y."""
    return x == y or pref.index(x) < pref.index(y)


def naive_capacity_filling_holds(choose, n: int) -> bool:
    for s in all_subsets(n):
        for q in range(1, n + 1):
            if len(choose(s, q)) != min(len(s), q):
                return False
    return True


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


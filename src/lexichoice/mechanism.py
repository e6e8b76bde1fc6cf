"""Variable-capacity object allocation: deferred acceptance and mechanism axioms.

Agents form a universe; each object carries a choice rule over agent
subsets.  The deferred acceptance loop re-chooses each round from held plus
new applicants, with the null object accepting everyone.  Property checkers
quantify over an explicitly enumerated problem space and return an
:class:`~lexichoice.axioms.AxiomReport`, the same report as the table
checkers: it fails exactly when it carries a replayable witness.

Preferences are tuples ranking every object and ``None`` (the null object),
best first.  Allocation problems and allocations are index-aligned tuples,
so they are hashable and mechanism evaluations can be memoized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .axioms import (
    AxiomReport,
    check_capacity_filling,
    check_gross_substitutes,
    check_monotonicity,
)
from .core import Problem, Universe, iter_bits
from .rules import ChoiceRule, materialize

Preference = tuple  # ranking of objects + None, best first
Allocation = tuple  # per-agent assigned object name or None


@dataclass(frozen=True)
class AllocationProblem:
    """Preferences (per agent, in agent order) and capacities (in object order)."""

    preferences: tuple[Preference, ...]
    capacities: tuple[int, ...]


@dataclass
class ChoiceStructure:
    """One choice rule per object, all over the agent universe."""

    agents: Universe
    objects: tuple[str, ...]
    rules: dict[str, ChoiceRule]

    def __post_init__(self):
        if set(self.rules) != set(self.objects):
            raise ValueError("rules must cover exactly the object set")
        self._tables = {}

    def table(self, obj: str):
        if obj not in self._tables:
            self._tables[obj] = materialize(self.rules[obj], self.agents)
        return self._tables[obj]


def validate_preference(pref: Preference, objects: tuple[str, ...]) -> None:
    if len(pref) != len(objects) + 1 or set(pref) != {*objects, None}:
        raise ValueError(f"preference {pref!r} is not a ranking of objects + null")


def prefers(pref: Preference, x, y) -> bool:
    """Strict preference of x over y (x != y)."""
    return pref.index(x) < pref.index(y)


def weakly_prefers(pref: Preference, x, y) -> bool:
    return x == y or prefers(pref, x, y)


def all_preferences(objects: tuple[str, ...]):
    """All strict rankings of objects + null, in a deterministic order."""
    return [tuple(p) for p in itertools.permutations(objects + (None,))]


def da_allocate(
    cs: ChoiceStructure, prob: AllocationProblem, trace: bool = False
):
    """Deferred acceptance over the structure's per-object choice rules.

    Each round, rejected agents apply to their next-preferred object; every
    available object re-chooses from its held set plus new applicants.  Runs
    are capped at n * |O| + 1 rounds; exceeding the cap means some rule is
    violating its contract.
    """
    agents = cs.agents.labels
    n = len(agents)
    objects = cs.objects
    caps = dict(zip(objects, prob.capacities))
    for pref in prob.preferences:
        validate_preference(pref, objects)

    ptr = [0] * n
    held: dict[str, int] = {x: 0 for x in objects}  # bitmask of agents
    at_null = 0
    rounds = []
    limit = n * len(objects) + 1
    for _ in range(limit + 1):
        placed = at_null
        for x in objects:
            placed |= held[x]
        free = [i for i in range(n) if not (placed >> i) & 1]
        if not free:
            break
        applicants: dict[str, int] = {}
        for i in free:
            target = prob.preferences[i][ptr[i]]
            if target is None:
                at_null |= 1 << i
            else:
                applicants[target] = applicants.get(target, 0) | (1 << i)
        if trace:
            rounds.append(
                {x: sorted(cs.agents.labels_of(m)) for x, m in applicants.items()}
            )
        for x in objects:
            if x not in applicants:
                continue
            pool = held[x] | applicants[x]
            if caps[x] > 0:
                accepted = cs.table(x).choose(Problem(pool, caps[x]))
            else:
                accepted = 0
            rejected = pool & ~accepted
            held[x] = accepted
            for i in iter_bits(rejected):
                ptr[i] += 1
    else:
        raise RuntimeError(
            f"deferred acceptance exceeded {limit} rounds; a choice rule is "
            "violating its contract"
        )

    assignment: list = [None] * n
    for x in objects:
        for i in iter_bits(held[x]):
            assignment[i] = x
    result = tuple(assignment)
    if trace:
        return result, rounds
    return result


def demand(a: Allocation, preferences: tuple[Preference, ...], x) -> frozenset[int]:
    """Agents (indices) strictly preferring x to their assignment."""
    return frozenset(
        i for i, pref in enumerate(preferences) if a[i] != x and prefers(pref, x, a[i])
    )


class DAMechanism:
    """Memoized deferred acceptance mechanism over a choice structure."""

    def __init__(self, structure: ChoiceStructure):
        self.structure = structure
        self._cache: dict[AllocationProblem, Allocation] = {}

    @property
    def agents(self):
        return self.structure.agents.labels

    @property
    def objects(self):
        return self.structure.objects

    def __call__(self, prob: AllocationProblem) -> Allocation:
        if prob not in self._cache:
            self._cache[prob] = da_allocate(self.structure, prob)
        return self._cache[prob]


Mechanism = Callable[[AllocationProblem], Allocation]


@dataclass(frozen=True)
class MechanismSpace:
    """An explicit problem space for exhaustive or sampled property checks."""

    agents: tuple[str, ...]
    objects: tuple[str, ...]
    profiles: tuple[tuple[Preference, ...], ...]
    capacities: tuple[tuple[int, ...], ...]

    def problems(self):
        for prefs in self.profiles:
            for caps in self.capacities:
                yield AllocationProblem(prefs, caps)


def exhaustive_space(agents, objects) -> MechanismSpace:
    """All preference profiles and all capacity profiles (0..n per object)."""
    agents = tuple(agents)
    objects = tuple(objects)
    n = len(agents)
    prefs = all_preferences(objects)
    profiles = tuple(itertools.product(prefs, repeat=n))
    capacities = tuple(
        itertools.product(range(n + 1), repeat=len(objects))
    )
    return MechanismSpace(agents, objects, profiles, capacities)


def single_object_space(agents, objects) -> MechanismSpace:
    """All profiles, but only capacity profiles with exactly one available object."""
    agents = tuple(agents)
    objects = tuple(objects)
    n = len(agents)
    prefs = all_preferences(objects)
    profiles = tuple(itertools.product(prefs, repeat=n))
    capacities = []
    for k, x in enumerate(objects):
        for q in range(1, n + 1):
            caps = [0] * len(objects)
            caps[k] = q
            capacities.append(tuple(caps))
    return MechanismSpace(agents, objects, profiles, tuple(capacities))


def sampled_space(agents, objects, n_profiles: int, seed: int) -> MechanismSpace:
    """Deterministic seeded sample of preference profiles, all capacities."""
    import random

    agents = tuple(agents)
    objects = tuple(objects)
    n = len(agents)
    rng = random.Random(seed)
    prefs = all_preferences(objects)
    profiles = tuple(
        tuple(prefs[rng.randrange(len(prefs))] for _ in range(n))
        for _ in range(n_profiles)
    )
    capacities = tuple(itertools.product(range(n + 1), repeat=len(objects)))
    return MechanismSpace(agents, objects, profiles, capacities)


# --- serialization helpers for witnesses --------------------------------------


def _object_labels(objects) -> list:
    """A preference or an allocation, with the null object as "null"."""
    return ["null" if x is None else x for x in objects]


def _profile_labels(profile) -> list:
    return [_object_labels(p) for p in profile]


def _agent_names(agents, agent_set) -> list[str]:
    return sorted(agents[i] for i in agent_set)


# --- property checkers ---------------------------------------------------------


def check_unavailable_type_invariance(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Shuffling unavailable objects in preferences must not move the allocation.

    Two profiles are compared when every agent ranks the available objects
    and the null object identically.
    """
    for caps in space.capacities:
        available = tuple(
            x for x, q in zip(space.objects, caps) if q > 0
        ) + (None,)
        seen: dict[tuple, tuple] = {}
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


def check_weak_non_wastefulness(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """No agent at the null object may prefer a non-exhausted available object."""
    for prob in space.problems():
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


def check_resource_monotonicity(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Raising capacities componentwise must not hurt any agent."""
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


def check_truncation_invariance(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Moving the null object up, while keeping assignments acceptable, is inert.

    Compares profile pairs that rank the objects identically, where every
    agent's acceptable set under the second profile is contained in their
    acceptable set under the first (each agent truncates, never extends), and
    where each agent's assignment under the first profile stays weakly above
    null under the second.
    """

    def acceptable(pref):
        return frozenset(pref[: pref.index(None)])

    by_order: dict[tuple, list] = {}
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


def check_strategy_proofness(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """No agent may gain from any unilateral misreport."""
    deviations = all_preferences(space.objects)
    for prob in space.problems():
        alloc = m(prob)
        for i, pref in enumerate(prob.preferences):
            for dev in deviations:
                if dev == pref:
                    continue
                misreport = (
                    prob.preferences[:i] + (dev,) + prob.preferences[i + 1:]
                )
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


def _isd_scan(m, space, caps_for_object, prop_name) -> AxiomReport:
    agents = space.agents
    for k, x in enumerate(space.objects):
        for caps in caps_for_object(k):
            if caps[k] >= len(agents):
                continue  # capacity already at its ceiling, no increase exists
            caps_up = caps[:k] + (caps[k] + 1,) + caps[k + 1:]
            seen: dict[frozenset, tuple] = {}
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
                                "demand_before": _agent_names(agents, d),
                                "demand_after_R": _agent_names(agents, d_up0),
                                "demand_after_R_prime": _agent_names(agents, d_up),
                            },
                        )
                else:
                    seen[d] = (prefs, d_up)
    return AxiomReport(prop_name)


def check_isd(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Equal demands before a unit capacity increase imply equal demands after."""
    return _isd_scan(
        m, space, lambda k: space.capacities, "irrelevance_of_satisfied_demand"
    )


def check_weak_isd(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """The same implication, restricted to capacity profiles where every object
    other than the increased one has zero capacity."""

    def caps_for_object(k):
        return tuple(
            caps
            for caps in space.capacities
            if all(q == 0 for j, q in enumerate(caps) if j != k)
        )

    return _isd_scan(
        m, space, caps_for_object, "weak_irrelevance_of_satisfied_demand"
    )


MECHANISM_CHECKS = {
    "unavailable_type_invariance": check_unavailable_type_invariance,
    "weak_non_wastefulness": check_weak_non_wastefulness,
    "resource_monotonicity": check_resource_monotonicity,
    "truncation_invariance": check_truncation_invariance,
    "strategy_proofness": check_strategy_proofness,
    "irrelevance_of_satisfied_demand": check_isd,
    "weak_irrelevance_of_satisfied_demand": check_weak_isd,
}


def find_impossibility_witness(cs: ChoiceStructure) -> dict:
    """Construct a replayable violation of demand-irrelevance for any DA
    mechanism over a structure with at least three objects.

    Finds agents i, j and objects a, b such that i wins the single seat of
    both a and b against j, then builds the two-profile, two-capacity
    configuration whose demands for a coincide before the capacity increase
    and differ after it.
    """
    if len(cs.objects) < 3:
        raise ValueError("the construction requires at least three objects")
    if cs.agents.n < 2:
        raise ValueError("the construction requires at least two agents")
    for obj in cs.objects:
        t = cs.table(obj)
        for chk in (check_capacity_filling, check_gross_substitutes, check_monotonicity):
            rep = chk(t)
            if not rep.ok:
                raise ValueError(
                    f"choice rule of {obj!r} fails {rep.axiom}; the "
                    "construction needs capacity-filling, gross substitutes, "
                    "and monotonicity"
                )

    agents = cs.agents.labels
    found = None
    for i in range(cs.agents.n):
        for j in range(cs.agents.n):
            if i == j:
                continue
            pair = (1 << i) | (1 << j)
            winners = [
                x for x in cs.objects
                if (cs.table(x).choose(Problem(pair, 1)) >> i) & 1
            ]
            if len(winners) >= 2:
                found = (i, j, winners[0], winners[1])
                break
        if found:
            break
    if found is None:  # unreachable for capacity-filling structures
        raise ValueError("no agent wins two single-seat contests; structure is degenerate")

    i, j, a, b = found
    rest = tuple(x for x in cs.objects if x not in (a, b))
    null_top = (None,) + (a, b) + rest
    prefs_r = []
    prefs_rp = []
    for k in range(cs.agents.n):
        if k == i:
            prefs_r.append((a, b, None) + rest)
            prefs_rp.append((a, b, None) + rest)
        elif k == j:
            prefs_r.append((b, a, None) + rest)
            prefs_rp.append((a, b, None) + rest)
        else:
            prefs_r.append(null_top)
            prefs_rp.append(null_top)
    ia, ib = cs.objects.index(a), cs.objects.index(b)
    q = tuple(1 if k == ib else 0 for k in range(len(cs.objects)))
    q_up = tuple(1 if k in (ia, ib) else 0 for k in range(len(cs.objects)))

    mech = DAMechanism(cs)
    r, rp = tuple(prefs_r), tuple(prefs_rp)
    d_before_r = demand(mech(AllocationProblem(r, q)), r, a)
    d_before_rp = demand(mech(AllocationProblem(rp, q)), rp, a)
    d_after_r = demand(mech(AllocationProblem(r, q_up)), r, a)
    d_after_rp = demand(mech(AllocationProblem(rp, q_up)), rp, a)
    if d_before_r != d_before_rp or d_after_r == d_after_rp:
        raise ValueError("constructed configuration failed to replay the violation")

    return {
        "agent_i": agents[i],
        "agent_j": agents[j],
        "object_a": a,
        "object_b": b,
        "R": _profile_labels(r),
        "R_prime": _profile_labels(rp),
        "capacities": list(q),
        "capacities_increased": list(q_up),
        "demand_before_R": _agent_names(agents, d_before_r),
        "demand_before_R_prime": _agent_names(agents, d_before_rp),
        "demand_after_R": _agent_names(agents, d_after_r),
        "demand_after_R_prime": _agent_names(agents, d_after_rp),
    }

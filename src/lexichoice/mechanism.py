"""Variable-capacity object allocation: deferred acceptance and mechanism axioms.

Agents form a universe; each object carries a choice rule over agent
subsets.  Deferred acceptance re-chooses each round from held plus new
applicants, with the null object accepting everyone.  Property checkers
quantify over an explicitly enumerated problem space and return an
:class:`~lexichoice.axioms.AxiomReport`, the same report as the table
checkers: it fails exactly when it carries a replayable witness.

Preferences are tuples ranking every object and ``None`` (the null object),
best first.  Allocation problems and allocations are index-aligned tuples.
A space is read once, when it is built, into two arrays: the ranking ids
of its profiles (ids from one cached catalogue per tuple of objects) and
its capacity vectors.  :func:`allocations` returns one read-only
``(P, C, n)`` int8 array of every allocation, which the one deferred
acceptance implementation fills for every problem at once; its state is
agent-major (one row per agent or object over the problems still
running), and round 1, which the profile alone decides, is found once per
profile.  :func:`da_allocate` is its call on one problem, and any other
mechanism is called once per problem, each ranking given as a tuple.  A
structure keeps the deferred acceptance allocation of the last space it
allocated, so a sweep of checkers over one space allocates it once.  The
checkers append the misreports and unit capacity increases that a space
lacks by one lookup, and allocate only those.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

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


@dataclass(frozen=True, slots=True)
class AllocationProblem:
    """Preferences (per agent, in agent order) and capacities (in object order)."""

    preferences: tuple[Preference, ...]
    capacities: tuple[int, ...]


@dataclass
class ChoiceStructure:
    """One choice rule per object, all over the agent universe.

    Every object's table is materialized when the structure is built, so a
    rule over other agents is refused there.  The structure also keeps the
    deferred acceptance allocation of the last space that it allocated
    whole (:func:`allocations`), found again by the identity of the space
    and read-only.  A space's arrays and the structure's tables do not
    change once read, so that allocation cannot go stale.
    """

    agents: Universe
    objects: tuple[str, ...]
    rules: dict[str, ChoiceRule]

    def __post_init__(self):
        self.objects = _distinct(self.objects)
        if set(self.rules) != set(self.objects):
            raise ValueError("rules must cover exactly the object set")
        self._tables = {x: materialize(self.rules[x], self.agents) for x in self.objects}
        self._allocated = (None, None)  # (space, its read-only slots)

    def table(self, obj: str):
        """The object's choice table."""
        return self._tables[obj]


def validate_preference(pref: Preference, objects: tuple[str, ...]) -> None:
    if len(pref) != len(objects) + 1 or set(pref) != {*objects, None}:
        raise ValueError(f"preference {pref!r} is not a ranking of objects + null")


def _distinct(objects) -> tuple[str, ...]:
    """``objects`` as a tuple of distinct names, none of them None (the null
    object) or "null" (its name in witnesses)."""
    objects = tuple(objects)
    if len(set(objects + (None,))) != len(objects) + 1 or "null" in objects:
        raise ValueError(f'objects {objects!r} must be distinct names other than None and "null"')
    return objects


def _capacity_ok(q, n: int) -> bool:
    return not isinstance(q, bool) and isinstance(q, Integral) and 0 <= q <= n


def _require_profile(prefs, n: int, objects: tuple[str, ...]) -> None:
    if len(prefs) != n:
        raise ValueError(f"problem lists {len(prefs)} preferences for {n} agents")
    for pref in prefs:
        validate_preference(pref, objects)


def _require_capacities(caps, n: int, objects: tuple[str, ...]) -> None:
    if len(caps) != len(objects):
        raise ValueError(f"problem lists {len(caps)} capacities for {len(objects)} objects")
    for x, q in zip(objects, caps):
        if not _capacity_ok(q, n):
            raise ValueError(f"capacity {q!r} of object {x!r} is not in 0..{n}")


def require_problem(prob: AllocationProblem, n: int, objects: tuple[str, ...]) -> None:
    """Refuse a problem without one ranking per agent and one capacity in
    0..n per object."""
    _require_profile(prob.preferences, n, objects)
    _require_capacities(prob.capacities, n, objects)


def all_preferences(objects: tuple[str, ...]):
    """All strict rankings of objects + null, in a deterministic order."""
    return [tuple(p) for p in itertools.permutations(objects + (None,))]


@functools.cache
def _rankings(objects: tuple[str, ...]) -> tuple[tuple, dict, np.ndarray, np.ndarray]:
    """The rankings ``all_preferences(objects)``, the id k of each (its
    position), and read-only ``slot_at[k, r]``, the slot that ranking k puts
    r-th, and ``rank_of[k, s]``, the position of slot s in ranking k; object
    ``objects[s]`` is slot s and null is slot |O|.  Built once per tuple."""
    prefs = tuple(all_preferences(objects))
    slot = {x: s for s, x in enumerate(objects + (None,))}
    slot_at = np.array([[slot[x] for x in pref] for pref in prefs], dtype=np.int8)
    rank_of = np.argsort(slot_at, axis=1).astype(np.int8)
    slot_at.setflags(write=False)
    rank_of.setflags(write=False)
    return prefs, {pref: k for k, pref in enumerate(prefs)}, slot_at, rank_of


def da_allocate(
    cs: ChoiceStructure, prob: AllocationProblem, trace: bool = False
):
    """Deferred acceptance over the structure's per-object choice rules.

    Each round, rejected agents apply to their next-preferred object; every
    available object re-chooses from its held set plus new applicants.  This
    is the deferred acceptance of :func:`allocations` (:func:`_da_slots`)
    on the one problem, read from the agents' own rankings, one row each,
    rather than from the catalogue of all (|O|+1)! rankings.  With
    ``trace`` it also returns the rounds: per round, each object that got
    applicants maps to their sorted labels, keyed in the order of their
    lowest applicant.  Raises ``ValueError`` on a malformed problem (not
    one ranking per agent, or not one capacity in 0..n per object).
    """
    n, names = cs.agents.n, cs.objects + (None,)
    require_problem(prob, n, cs.objects)
    slot = {x: s for s, x in enumerate(names)}
    slot_at = np.array([[slot[x] for x in pref] for pref in prob.preferences], dtype=np.intp)
    caps = np.array([prob.capacities], dtype=np.intp)
    rounds = [] if trace else None
    slots = _da_slots(cs, slot_at, np.arange(n).reshape(1, n), caps, rounds)[0, 0].tolist()
    result = tuple(names[s] for s in slots)
    return (result, rounds) if trace else result


class DAMechanism:
    """Deferred acceptance over a choice structure.

    Called on one problem it runs :func:`da_allocate`; :func:`allocations`
    runs it on every problem of a space at once.
    """

    def __init__(self, structure: ChoiceStructure):
        self.structure = structure

    def __call__(self, prob: AllocationProblem) -> Allocation:
        return da_allocate(self.structure, prob)


Mechanism = Callable[[AllocationProblem], Allocation]


@dataclass(frozen=True)
class MechanismSpace:
    """An explicit problem space for exhaustive or sampled property checks.

    Read once, when built, into read-only ``ids[p, i]``, the position of
    agent i's ranking at ``profiles[p]`` in ``all_preferences(objects)``,
    and ``caps[c]``, the vector ``capacities[c]``.  The first malformed
    profile, else capacity vector, is refused there by name.  Rankings
    given as lists (or other sequences) are read as tuples.  The profile
    pairs that truncation invariance compares are listed on first use and
    kept (:attr:`truncation_pairs`).
    """

    agents: tuple[str, ...]
    objects: tuple[str, ...]
    profiles: tuple[tuple[Preference, ...], ...]
    capacities: tuple[tuple[int, ...], ...]
    ids: np.ndarray = field(init=False, repr=False, compare=False)
    caps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # allocation appends the null object to ``objects``, a tuple
        agents, objects = tuple(self.agents), _distinct(self.objects)
        n, profiles, vectors = len(agents), self.profiles, self.capacities
        _, ids, _, _ = _rankings(objects)
        try:
            flat = list(map(ids.get, itertools.chain.from_iterable(profiles)))
        except TypeError:  # an unhashable ranking, such as a list
            flat = [None]
        slow = None in flat or set(map(len, profiles)) - {n}
        for name, require, parts in (
            ("profile", _require_profile, profiles if slow else ()),
            ("capacity vector", _require_capacities, vectors),
        ):
            for k, part in enumerate(parts):
                try:
                    require(part, n, objects)
                except ValueError as e:
                    raise ValueError(f"{name} {k} of the space is malformed: {e}") from None
        if slow:
            flat = [ids[tuple(pref)] for pref in itertools.chain.from_iterable(profiles)]
        pidx = np.array(flat, dtype=np.int32).reshape(len(profiles), n)
        caps = np.array(vectors, dtype=np.int16).reshape(len(vectors), len(objects))
        pidx.setflags(write=False)
        caps.setflags(write=False)
        for name, value in (("agents", agents), ("objects", objects), ("ids", pidx), ("caps", caps)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def truncation_pairs(self) -> tuple[np.ndarray, ...]:
        """The profile pairs that truncation invariance compares, listed on
        first use (:func:`_truncation_pairs`) and kept, so that a space that
        is never checked for it pays nothing."""
        return _truncation_pairs(self.objects, self.ids)


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


# --- allocation arrays -----------------------------------------------------------
#
# A space's allocations are one int8 array indexed by (profile, capacity
# vector, agent) whose values are slots (:func:`_rankings`).


def _da_slots(
    cs: ChoiceStructure, slot_at: np.ndarray, pidx: np.ndarray, caps: np.ndarray,
    rounds: list | None = None,
) -> np.ndarray:
    """Deferred acceptance on every problem at once: each profile of ranking
    ids ``pidx`` with each capacity vector of ``caps``, where ranking k puts
    slot ``slot_at[k, r]`` r-th; the result is the ``(P, C, n)`` array of
    each agent's slot, ``out[p, c, i]``, of ``slot_at``'s dtype.
    :func:`_allocate` passes the ranking catalogue of :func:`_rankings`
    with :attr:`MechanismSpace.ids` and makes the int8 result read-only;
    :func:`da_allocate` passes its one problem's rankings, one per agent.

    The state is agent-major, so that every array operation runs along the
    long axis of the problems still running: per agent, the index into the
    flattened ``slot_at`` of their latest application, ``(n, problems)``;
    per object, the agent mask it holds and its capacity, ``(O, problems)``;
    and per problem its index ``p * C + c`` and the mask of the agents
    rejected in the last round.  A round moves each rejected agent one place
    down their ranking; each object that got applicants re-chooses from what
    it holds plus them with one gather from its table, and the others keep
    what they hold (a table that is not capacity-filling could change a held
    set on a re-choice).  An agent is held by at most one object and an
    agent who reaches the null object stays there, so a problem with no one
    rejected is done: each agent's last application is their allotment,
    and the problems still running are compacted by index.

    In round 1 everyone applies to their first choice, which the profile
    alone decides, so its applicants are found once per profile: each
    object chooses from them at every capacity, and each capacity vector
    takes its capacity's row.  Every problem starts from its profile's
    first choices, which stand as the allotments of the problems that round
    1 leaves with no one rejected.  Runs are capped at n * |O| + 1 rounds;
    exceeding the cap means some rule is violating its contract.
    ``rounds``, given for one problem, receives the trace that
    :func:`da_allocate` returns.
    """
    n, objects = cs.agents.n, cs.objects
    n_obj, n_prof, n_caps = len(objects), len(pidx), len(caps)
    slot_at = slot_at.reshape(-1)
    mask_t = np.min_scalar_type(cs.agents.full_mask)
    bits = np.left_shift(mask_t.type(1), np.arange(n, dtype=mask_t))[:, None]
    tables = [cs.table(x).cols for x in objects]  # row 0, read at q = 0, is empty

    def applicants(target):  # per object, the mask of the agents applying to it
        new = [np.bitwise_or.reduce(np.where(target == x, bits, 0), axis=0) for x in range(n_obj)]
        if rounds is not None:  # the one problem's round, keyed by lowest applicant
            applied = [(int(m[0]), x) for x, m in zip(objects, new) if m[0]]
            applied.sort(key=lambda item: item[0] & -item[0])
            rounds.append({x: sorted(cs.agents.labels_of(m)) for m, x in applied})
        return new

    # round 1, per profile; problems are read capacity vector first here,
    # c * P + p, and each survivor takes its profile's column
    start = pidx.T * (n_obj + 1)  # (n, P): the first place of each ranking
    first = slot_at.take(start)
    new = applicants(first)
    held = np.empty((n_obj, n_caps, n_prof), dtype=mask_t)
    rejected = np.zeros((n_caps, n_prof), dtype=mask_t)
    for x in range(n_obj):
        held[x] = tables[x].take(new[x], axis=1).take(caps[:, x], axis=0)
        rejected |= new[x] & ~held[x]
    out = np.repeat(first.T, n_caps, axis=0)  # (P * C, n), problem p * C + c
    going = np.flatnonzero(rejected)
    cap, prof = np.divmod(going, n_prof)
    problem = (prof * n_caps + cap).astype(np.int32)
    at = start.take(prof, axis=1)
    held = held.reshape(n_obj, n_caps * n_prof).take(going, axis=1)
    quota = caps.T.take(cap, axis=1)
    free = rejected.take(going)
    limit = n * n_obj + 1
    for _ in range(limit - 1):
        if not problem.size:
            break
        moving = (free & bits) != 0
        at += moving
        placed = slot_at.take(at)
        new = applicants(np.where(moving, placed, n_obj))  # those not moving stay put
        free = np.zeros(problem.size, dtype=mask_t)
        for x in range(n_obj):
            rows = np.flatnonzero(new[x])
            if not rows.size:
                continue
            pool = held[x].take(rows) | new[x].take(rows)
            accepted = tables[x][quota[x].take(rows), pool].astype(mask_t, copy=False)
            held[x, rows] = accepted
            free[rows] |= pool & ~accepted
        keep = np.flatnonzero(free)
        if keep.size < problem.size:
            done = np.flatnonzero(free == 0)
            out[problem.take(done)] = placed.take(done, axis=1).T
            problem, at, held, quota, free = (
                problem.take(keep), at.take(keep, axis=1), held.take(keep, axis=1),
                quota.take(keep, axis=1), free.take(keep),
            )
    if problem.size:
        raise RuntimeError(
            f"deferred acceptance exceeded {limit} rounds; a choice rule is "
            "violating its contract"
        )
    return out.reshape(n_prof, n_caps, n)


def _per_problem(m: Mechanism, objects: tuple[str, ...], pidx: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The ``(P, C, n)`` slots of ``m``, called once per problem: each
    profile of ranking ids ``pidx`` with each capacity vector of ``caps``."""
    prefs, names = _rankings(objects)[0], objects + (None,)
    vectors = [tuple(q) for q in caps.tolist()]
    out = np.empty((len(pidx), len(caps), pidx.shape[1]), dtype=np.int8)
    for p, ids in enumerate(pidx.tolist()):
        profile = tuple(prefs[k] for k in ids)
        for c, q in enumerate(vectors):
            out[p, c] = [names.index(x) for x in m(AllocationProblem(profile, q))]
    return out


def _allocate(
    m: Mechanism, space: MechanismSpace,
    extra_ids: np.ndarray | None = None, extra_caps: np.ndarray | None = None,
) -> np.ndarray:
    """The ``(P, C, n)`` slots of ``m`` on the space, with the profiles of
    ranking ids ``extra_ids`` appended after its profiles, or the capacity
    vectors ``extra_caps`` after its vectors: the problems that a checker
    appends.  Only those are allocated on top of the space's own problems,
    which a :class:`DAMechanism` takes from its structure when the
    structure last allocated this space.  The array is read-only."""
    if isinstance(m, DAMechanism):
        cs = m.structure
        if space.objects != cs.objects:
            raise ValueError("the space's objects are not the structure's objects")
        if space.agents != tuple(cs.agents.labels):
            raise ValueError("the space's agents are not the structure's agents")
        run = functools.partial(_da_slots, cs, _rankings(cs.objects)[2])
        kept, base = cs._allocated  # one read: another thread may replace it
        if kept is not space:
            base = _read_only(run(space.ids, space.caps))
            cs._allocated = (space, base)
    else:
        run = functools.partial(_per_problem, m, space.objects)
        base = _read_only(run(space.ids, space.caps))
    if extra_ids is not None and len(extra_ids):
        return _read_only(np.concatenate([base, run(extra_ids, space.caps)]))
    if extra_caps is not None and len(extra_caps):
        return _read_only(np.concatenate([base, run(space.ids, extra_caps)], axis=1))
    return base


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def allocations(m: Mechanism, space: MechanismSpace) -> np.ndarray:
    """Every allocation of the space, as one ``(P, C, n)`` int8 array.

    ``out[p, c, i]`` is the slot of agent i's object at ``space.profiles[p]``
    and ``space.capacities[c]``: s for ``space.objects[s]``, |O| for null.
    A :class:`DAMechanism` fills it by one deferred acceptance over all
    problems at once, and refuses a space whose agents or objects (or their
    order) are not its structure's; its structure keeps the array of the
    last space it allocated, so that every checker of a sweep over one
    space reads the same array.  Any other mechanism is called once per
    problem.  The array is read-only.
    """
    return _allocate(m, space)


def _ranked(rank_of: np.ndarray, pidx: np.ndarray, alloc: np.ndarray) -> np.ndarray:
    """``out[p, c, i] = rank_of[pidx[p, i], alloc[p, c, i]]``: the position of
    each allotment in its agent's ranking, for the profiles of ``pidx``."""
    rows = pidx * rank_of.shape[1]
    return rank_of.reshape(-1)[rows[:, None, :] + alloc[: len(pidx)]]


def _demand_masks(rank_of: np.ndarray, pidx: np.ndarray, ranked: np.ndarray, k: int) -> np.ndarray:
    """``(P, C)``: the demand for slot k, the mask of the agents who rank it
    strictly above their allotment, per problem of ``ranked`` (:func:`_ranked`)."""
    n = pidx.shape[1]
    mask_t = np.min_scalar_type((1 << n) - 1)
    bits = np.left_shift(mask_t.type(1), np.arange(n, dtype=mask_t))
    return (rank_of[pidx, k][:, None] < ranked) @ bits


def space_demands(cs: ChoiceStructure, space: MechanismSpace, x) -> np.ndarray:
    """``(P, C)`` agent masks: bit i of ``out[p, c]`` is set when agent i
    strictly prefers x (an object or None) to their allotment under
    deferred acceptance at ``space.profiles[p]`` and ``space.capacities[c]``."""
    _, _, _, rank_of = _rankings(space.objects)
    ranked = _ranked(rank_of, space.ids, allocations(DAMechanism(cs), space))
    return _demand_masks(rank_of, space.ids, ranked, (space.objects + (None,)).index(x))


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """Each row of ``digits`` read as one base-``base`` number, least
    significant first (Python ints where int64 would overflow)."""
    n = digits.shape[1]
    dtype = np.int64 if base ** n < 2 ** 63 else object
    return digits.astype(dtype) @ np.array([base ** i for i in range(n)], dtype=dtype)


def _find_or_append(
    rows: np.ndarray, base: int, wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Look up rows by their base-``base`` codes (:func:`_codes`).

    Returns, for each code of ``wanted``, the index of the first row of
    ``rows`` with that code, and the wanted rows that ``rows`` lacks, in
    ascending code order; those are indexed as if appended after ``rows``.
    """
    codes = _codes(rows, base)
    order = np.argsort(codes, kind="stable")
    at = np.searchsorted(codes[order], wanted)
    known = codes[order][np.minimum(at, len(codes) - 1)] == wanted if len(codes) else at < 0
    extra = np.unique(wanted[~known])
    if extra.size:
        codes = np.concatenate([codes, extra])
        order = np.argsort(codes, kind="stable")
        at = np.searchsorted(codes[order], wanted)
    weights = _codes(np.eye(rows.shape[1], dtype=np.int64), base)
    return order[at], (extra[:, None] // weights % base).astype(rows.dtype)


def _first_of(keys: np.ndarray) -> np.ndarray:
    """For each key, the index of the first key equal to it."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first[inverse.reshape(-1)]


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """The first True index of ``mask`` in row-major order, or None."""
    if not mask.any():
        return None
    return tuple(int(j) for j in np.unravel_index(np.argmax(mask), mask.shape))


# --- serialization helpers for witnesses --------------------------------------


def _object_labels(objects) -> list:
    """A preference or an allocation, with the null object as "null"."""
    return ["null" if x is None else x for x in objects]


def _profile_labels(profile) -> list:
    return [_object_labels(p) for p in profile]


def _slot_labels(space: MechanismSpace, slots) -> list:
    """An allocation row of slots, as :func:`_object_labels` prints it."""
    names = space.objects + (None,)
    return _object_labels(names[s] for s in slots)


def _agent_names(agents, mask) -> list[str]:
    return sorted(agents[i] for i in iter_bits(int(mask)))


# --- property checkers ---------------------------------------------------------
#
# Each checker reads one allocation array through per-profile rank tables and
# reports the first witness in the space's order: the loops that each
# docstring describes.


def check_unavailable_type_invariance(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Shuffling unavailable objects in preferences must not move the allocation.

    Two profiles are compared when every agent ranks the available objects
    and the null object identically.  For each capacity vector in order, the
    first profile whose allocation differs from that of the first profile
    with its restricted rankings is the witness.
    """
    pidx, caps = space.ids, space.caps
    alloc = allocations(m, space)
    _, _, slot_at, _ = _rankings(space.objects)
    n_prefs, width = slot_at.shape
    available = np.concatenate([caps > 0, np.ones((len(caps), 1), dtype=bool)], axis=1)
    patterns, pattern_of = np.unique(available, axis=0, return_inverse=True)
    firsts = np.empty((len(patterns), len(pidx)), dtype=np.intp)
    for t, avail in enumerate(patterns):
        restricted = slot_at[avail[slot_at]].reshape(n_prefs, -1)
        same_as = _first_of(_codes(restricted, width))
        firsts[t] = _first_of(_codes(same_as[pidx], n_prefs))
    first = firsts[pattern_of.reshape(-1)]  # (C, P)
    columns = np.arange(len(caps))[:, None]
    found = _first((alloc[first, columns] != alloc.transpose(1, 0, 2)).any(2))
    if found is None:
        return AxiomReport("unavailable_type_invariance")
    c, p = found
    p0 = int(first[c, p])
    return AxiomReport(
        "unavailable_type_invariance",
        {
            "capacities": list(space.capacities[c]),
            "R": _profile_labels(space.profiles[p0]),
            "R_prime": _profile_labels(space.profiles[p]),
            "allocation_R": _slot_labels(space, alloc[p0, c]),
            "allocation_R_prime": _slot_labels(space, alloc[p, c]),
        },
    )


def check_weak_non_wastefulness(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """No agent at the null object may prefer a non-exhausted available object.

    The witness is the first (profile, capacities, agent, object) in order.
    """
    pidx, caps = space.ids, space.caps
    alloc = allocations(m, space)
    _, _, _, rank_of = _rankings(space.objects)
    n_obj = len(space.objects)
    ranks = rank_of[pidx][:, None]  # (P, 1, n, O + 1)
    at_null = alloc == n_obj
    ones = np.ones(alloc.shape[2], dtype=np.int16)
    wasted = [  # per object: agents at null who rank it above null while a seat is free
        at_null
        & (ranks[..., x] < ranks[..., n_obj])
        & ((alloc == x) @ ones < caps[:, x])[..., None]
        for x in range(n_obj)
    ]
    found = _first(np.logical_or.reduce(wasted)) if wasted else None
    if found is None:
        return AxiomReport("weak_non_wastefulness")
    p, c, i = found
    x = next(x for x in range(n_obj) if wasted[x][p, c, i])
    return AxiomReport(
        "weak_non_wastefulness",
        {
            "R": _profile_labels(space.profiles[p]),
            "capacities": list(space.capacities[c]),
            "agent": space.agents[i],
            "object": space.objects[x],
            "allocation": _slot_labels(space, alloc[p, c]),
        },
    )


def check_resource_monotonicity(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Raising capacities componentwise must not hurt any agent.

    Pairs of capacity vectors are taken lower-first in space order; the
    witness is the first (profile, pair, agent).  Profiles are decided one
    lower vector at a time, against the best rank over its higher vectors.
    """
    pidx, caps = space.ids, space.caps
    alloc = allocations(m, space)
    # higher[j1, j2]: vector j2 is componentwise at least vector j1, and differs
    higher = (caps[:, None] <= caps).all(2) & (caps[:, None] != caps).any(2)
    _, _, _, rank_of = _rankings(space.objects)
    ranked = _ranked(rank_of, pidx, alloc)  # (P, C, n)
    hurt = np.zeros(len(pidx), dtype=bool)
    for j1, ups in enumerate(higher):
        if ups.any():
            hurt |= (ranked[:, ups].max(1) > ranked[:, j1]).any(1)
    if not hurt.any():
        return AxiomReport("resource_monotonicity")
    p = int(np.argmax(hurt))
    low, high = np.nonzero(higher)
    j, i = _first(ranked[p, high] > ranked[p, low])
    j1, j2 = int(low[j]), int(high[j])
    return AxiomReport(
        "resource_monotonicity",
        {
            "R": _profile_labels(space.profiles[p]),
            "capacities": list(space.capacities[j1]),
            "capacities_higher": list(space.capacities[j2]),
            "agent": space.agents[i],
            "allocation_low": _slot_labels(space, alloc[p, j1]),
            "allocation_high": _slot_labels(space, alloc[p, j2]),
        },
    )


def _truncation_pairs(objects: tuple[str, ...], pidx: np.ndarray) -> tuple[np.ndarray, ...]:
    """The profile pairs (R, R') that truncation invariance compares, for
    the profiles of ranking ids ``pidx``: R and R' rank the objects
    identically and differ, and every agent's acceptable set under R' is
    contained in their acceptable set under R.  Pairs are listed by groups
    of profiles that rank the objects alike, in order of first appearance,
    R then R' in space order within a group.  Returns the read-only indices
    of R and of R', and per pair the allocation rows allowed under R': one
    mask with bit i * (|O| + 1) + s for each agent i and each slot s that
    agent i ranks weakly above null under R' (Python ints where int64 would
    overflow)."""
    n = pidx.shape[1]
    _, _, slot_at, rank_of = _rankings(objects)
    n_prefs, width = slot_at.shape
    n_obj = width - 1
    orders = slot_at[slot_at != n_obj].reshape(n_prefs, n_obj)
    order_id = _first_of(_codes(orders, max(n_obj, 1)))
    group = _first_of(_codes(order_id[pidx], n_prefs))
    # slots ranked weakly above null, null included, per ranking and per profile
    accept = ((rank_of <= rank_of[:, n_obj:]) << np.arange(width)).sum(1)
    acc = accept[pidx]
    members = np.argsort(group, kind="stable")
    starts = np.flatnonzero(np.diff(group[members], prepend=-1))
    first, second = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for g in np.split(members, starts[1:]):
        if len(g) < 2:
            continue
        within = ((acc[g][None] & ~acc[g][:, None]) == 0).all(2)
        within &= (pidx[g][None] != pidx[g][:, None]).any(2)
        a, b = np.nonzero(within)
        first.append(g[a])
        second.append(g[b])
    first, second = np.concatenate(first), np.concatenate(second)
    dtype = np.int64 if n * width < 63 else object
    allowed = (acc.astype(dtype) << np.arange(n) * width).sum(1)[second]
    for array in (first, second, allowed):
        array.setflags(write=False)
    return first, second, allowed


def check_truncation_invariance(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Moving the null object up, while keeping assignments acceptable, is inert.

    Compares profile pairs (R, R') that rank the objects identically, where
    every agent's acceptable set under R' is contained in their acceptable
    set under R (each agent truncates, never extends), and where each agent's
    assignment under R stays weakly above null under R'.  Only the last
    condition depends on capacities, so the pairs depend on the space alone,
    which lists them on the first call and keeps them
    (:attr:`MechanismSpace.truncation_pairs`).  The witness is the first
    pair of the first capacity vector whose allocations differ.
    """
    alloc = allocations(m, space)
    first, second, allowed = space.truncation_pairs
    if not first.size:
        return AxiomReport("truncation_invariance")
    n_caps, n = alloc.shape[1:]
    # an allocation row as one mask with bit i * width + slot per agent i
    offsets = np.arange(n) * (len(space.objects) + 1)
    one = np.array(1, dtype=allowed.dtype)
    for c in range(n_caps):
        held = (one << (offsets + alloc[:, c])).sum(1)
        x, y = held[first], held[second]
        found = _first((x != y) & ((x & ~allowed) == 0))
        if found is None:
            continue
        a, b = int(first[found[0]]), int(second[found[0]])
        return AxiomReport(
            "truncation_invariance",
            {
                "capacities": list(space.capacities[c]),
                "R": _profile_labels(space.profiles[a]),
                "R_prime": _profile_labels(space.profiles[b]),
                "allocation_R": _slot_labels(space, alloc[a, c]),
                "allocation_R_prime": _slot_labels(space, alloc[b, c]),
            },
        )
    return AxiomReport("truncation_invariance")


def check_strategy_proofness(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """No agent may gain from any unilateral misreport.

    Every profile that replaces one agent's ranking by another ranking is
    looked up by its base-K code over the K rankings; those outside the
    space (a sampled one) are appended to the profiles whose allocations
    are computed (:func:`_find_or_append`).  A (profile, capacities, agent)
    fails when its best reachable allotment beats the truthful one; the
    witness is the first that fails, with its first misreport in
    ``all_preferences`` order.
    """
    pidx = space.ids
    n = pidx.shape[1]
    prefs, _, _, rank_of = _rankings(space.objects)
    n_prefs = len(prefs)
    weights = _codes(np.eye(n, dtype=np.int64), n_prefs)
    misreport = _codes(pidx, n_prefs)[:, None, None] + (
        np.arange(n_prefs) - pidx[..., None]
    ) * weights[:, None]  # (P, n, K)
    # (P, n, K): the first listed profile of each misreport
    lookup, extra = _find_or_append(pidx, n_prefs, misreport)
    alloc = _allocate(m, space, extra_ids=extra)
    truthful = _ranked(rank_of, pidx, alloc)  # (P, C, n)
    rows = pidx * rank_of.shape[1]
    gains = np.empty(truthful.shape, dtype=bool)
    for i in range(n):
        reached = alloc[:, :, i][lookup[:, i].T]  # (K, P, C): agent i's allotments
        best = rank_of.reshape(-1)[rows[:, i, None] + reached].min(0)
        gains[:, :, i] = best < truthful[:, :, i]
    found = _first(gains)
    if found is None:
        return AxiomReport("strategy_proofness")
    p, c, i = found
    reports = lookup[p, i]
    k = int(np.argmax(rank_of[pidx[p, i], alloc[reports, c, i]] < truthful[p, c, i]))
    return AxiomReport(
        "strategy_proofness",
        {
            "R": _profile_labels(space.profiles[p]),
            "capacities": list(space.capacities[c]),
            "agent": space.agents[i],
            "misreport": _object_labels(prefs[k]),
            "truthful_allotment": _slot_labels(space, [alloc[p, c, i]])[0],
            "misreport_allotment": _slot_labels(space, [alloc[reports[k], c, i]])[0],
        },
    )


def _isd_scan(m, space, scanned, prop_name) -> AxiomReport:
    """Demand for each object k (in order) before and after a unit increase of
    its capacity from each capacity vector (in order) that the mask
    ``scanned(k, caps)`` admits over the capacity array; the increased
    vectors that the space lacks are appended (:func:`_find_or_append`).
    Per vector, the witness is the first profile whose demand after differs
    from that of the first profile with its demand before."""
    pidx, caps = space.ids, space.caps
    n_prof, n = pidx.shape
    steps = [  # per object: the vectors scanned, below its ceiling n
        np.flatnonzero((caps[:, k] < n) & scanned(k, caps)) for k in range(caps.shape[1])
    ]
    if not any(s.size for s in steps):
        return AxiomReport(prop_name)
    codes = _codes(caps, n + 1)
    lookup, extra = _find_or_append(
        caps, n + 1, np.concatenate([codes[s] + (n + 1) ** k for k, s in enumerate(steps)])
    )
    ups = np.split(lookup, np.cumsum([s.size for s in steps])[:-1])
    alloc = _allocate(m, space, extra_caps=extra)
    _, _, _, rank_of = _rankings(space.objects)
    ranked = _ranked(rank_of, pidx, alloc)
    for k, x in enumerate(space.objects):
        base, up = steps[k], ups[k]
        if not base.size:
            continue
        wanted = _demand_masks(rank_of, pidx, ranked, k)  # (P, C')
        before, after = wanted[:, base].T, wanted[:, up].T  # (J, P)
        keys = (np.arange(len(base), dtype=np.int64)[:, None] << n) + before
        first = _first_of(keys.reshape(-1)).reshape(before.shape)
        seen_after = after.reshape(-1)[first]
        found = _first(after != seen_after)
        if found is None:
            continue
        j, p = found
        p0 = int(first[j, p]) - j * n_prof
        agents = space.agents
        return AxiomReport(
            prop_name,
            {
                "object": x,
                "capacities": list(space.capacities[base[j]]),
                "R": _profile_labels(space.profiles[p0]),
                "R_prime": _profile_labels(space.profiles[p]),
                "demand_before": _agent_names(agents, before[j, p]),
                "demand_after_R": _agent_names(agents, seen_after[j, p]),
                "demand_after_R_prime": _agent_names(agents, after[j, p]),
            },
        )
    return AxiomReport(prop_name)


def check_isd(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """Equal demands before a unit capacity increase imply equal demands after."""
    return _isd_scan(
        m, space, lambda k, caps: True, "irrelevance_of_satisfied_demand"
    )


def check_weak_isd(m: Mechanism, space: MechanismSpace) -> AxiomReport:
    """The same implication, restricted to capacity profiles where every object
    other than the increased one has zero capacity."""
    return _isd_scan(
        m,
        space,
        lambda k, caps: (np.delete(caps, k, axis=1) == 0).all(1),
        "weak_irrelevance_of_satisfied_demand",
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

    r, rp = tuple(prefs_r), tuple(prefs_rp)
    (d_before_r, d_after_r), (d_before_rp, d_after_rp) = space_demands(
        cs, MechanismSpace(agents, cs.objects, (r, rp), (q, q_up)), a
    ).tolist()
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

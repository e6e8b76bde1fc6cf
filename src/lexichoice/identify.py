"""Extraction of rationalizing priority structures from choice tables.

Given a table that satisfies the four characterizing axioms, a priority
profile is recovered by constructive peeling: the first ordering by repeated
capacity-1 choices, each later ordering from capacity-i choices with the
earlier orderings' top alternatives removed and re-appended at the tail.
Every extraction validates its own output by full re-materialization, so a
precondition slip surfaces as a diagnosable failure instead of a silently
wrong profile.
"""

from __future__ import annotations

import heapq

import numpy as np

from . import _kernels
from .core import ChoiceTable, Problem, popcount
from .rules import (
    CapacityWise,
    CapacityWiseLists,
    Lexicographic,
    PriorityOrdering,
    PriorityProfile,
    Responsive,
    materialize,
)


class ExtractionError(ValueError):
    """Raised when a peel step or the final validation fails.

    Carries the construction step or the first mismatching problem, so the
    caller can diagnose which precondition the input table violates.
    """

    def __init__(self, message: str, *, step: str | None = None,
                 problem: Problem | None = None):
        super().__init__(message)
        self.step = step
        self.problem = problem


def require_rebuild(c: ChoiceTable, rebuilt: ChoiceTable, message: str) -> None:
    """Raise :class:`ExtractionError` unless ``rebuilt`` equals ``c``.

    ``message`` names the first mismatching problem through its ``{}``.
    """
    diff = rebuilt.first_difference(c)
    if diff is not None:
        raise ExtractionError(message.format(diff), problem=diff)


def _peel_singleton(c: ChoiceTable, mask: int, q: int, drop: int, step: str) -> int:
    """C(mask, q) minus drop, required to be a single new alternative."""
    got = c.choose(Problem(mask, q)) & ~drop
    if popcount(got) != 1:
        raise ExtractionError(
            f"peel step {step} produced {popcount(got)} alternatives "
            "instead of one",
            step=step,
        )
    return got.bit_length() - 1


def extract_lex_profile(c: ChoiceTable) -> PriorityProfile:
    """Recover a priority profile whose lexicographic table equals ``c``.

    The caller is expected to have verified capacity-filling, gross
    substitutes, monotonicity, and the irrelevance of accepted alternatives;
    any violation surfaces as :class:`ExtractionError` during peeling or at
    the final re-materialization check.
    """
    n = c.n
    full = c.universe.full_mask
    heads: list[int] = []  # top alternative of each ordering built so far
    orderings: list[PriorityOrdering] = []

    for i in range(1, n + 1):
        drop = 0
        for h in heads:
            drop |= 1 << h
        rank: list[int] = []
        # first entry: the new alternative appearing at capacity i
        a_i1 = _peel_singleton(c, full, i, drop, step=f"ordering {i}, position 1")
        rank.append(a_i1)
        # positions 2..n-i+1: peel at capacity i, ignoring earlier heads
        for j in range(2, n - i + 2):
            peeled = 0
            for alt in rank:
                peeled |= 1 << alt
            a_ij = _peel_singleton(
                c, full & ~peeled, i, drop, step=f"ordering {i}, position {j}"
            )
            rank.append(a_ij)
        # tail positions: earlier orderings' heads, in construction order
        rank.extend(heads)
        heads.append(a_i1)
        orderings.append(PriorityOrdering(tuple(rank)))

    profile = PriorityProfile(tuple(orderings))
    require_rebuild(
        c,
        materialize(Lexicographic(profile), c.universe),
        "extracted profile fails validation at problem {}; "
        "the table is not lexicographic",
    )
    return profile


def extract_responsive(c: ChoiceTable) -> PriorityOrdering:
    """Recover a single ordering whose responsive table equals ``c``.

    Built by repeated capacity-1 peeling, then validated at all capacities.
    """
    n = c.n
    full = c.universe.full_mask
    rank: list[int] = []
    remaining = full
    for j in range(n):
        alt = _peel_singleton(c, remaining, 1, 0, step=f"position {j + 1}")
        rank.append(alt)
        remaining &= ~(1 << alt)
    ordering = PriorityOrdering(tuple(rank))
    require_rebuild(
        c,
        materialize(Responsive(ordering), c.universe),
        "table is not responsive: first mismatch at problem {}",
    )
    return ordering


def linear_extension(edges: np.ndarray) -> list[int]:
    """Kahn order of the relation ``edges`` (``edges[a, b]``: a before b).

    ``edges`` is an (n, n) bool edge matrix such as one capacity's
    ``ChoiceTable.chosen_over``.  The lowest-index ready alternative goes
    first.  On a cyclic relation the order stops short: the alternatives
    left out are exactly those still holding a predecessor.
    """
    n = len(edges)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in np.argwhere(edges).tolist():
        succ[a].append(b)
        indeg[b] += 1
    ready = [a for a in range(n) if indeg[a] == 0]
    rank: list[int] = []
    while ready:
        a = heapq.heappop(ready)
        rank.append(a)
        for b in succ[a]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
    return rank


def _capacity_wise_rebuild(c: ChoiceTable, orderings: list[PriorityOrdering]) -> ChoiceTable:
    """The table of the rule whose capacity q is responsive to ``orderings[q-1]``."""
    lists = CapacityWiseLists(
        tuple(tuple([o] * q) for q, o in enumerate(orderings, start=1))
    )
    return materialize(CapacityWise(lists), c.universe)


def extract_capacity_wise_responsive(c: ChoiceTable) -> list[PriorityOrdering]:
    """One ordering per capacity whose top-q sets reproduce the table.

    For each capacity, an ordering is any linear extension of the
    chosen-over relation at that capacity (every chosen alternative must
    outrank every rejected one at every set).  Incomparable alternatives
    are broken by lowest index; a cycle or a validation mismatch raises
    :class:`ExtractionError`.

    The orderings are first proposed from the chosen-over edges of the
    sets of q+1 alternatives alone (``_kernels.relation_runs`` with
    ``witness``), which are not kept as ``ChoiceTable.chosen_over``: WRARP
    and CWRARP read that, and it must hold the edges of every set.  If
    every proposed order is complete (the proposal stops at the first that
    is not) and their rebuild equals the table, they are returned.
    Otherwise the edges over every set give the orderings and the errors,
    one capacity at a time up to the first cyclic one.  Both give the same
    result: a capacity-wise responsive table fills capacity and keeps
    heritage, so by the q+1 witness lemma (``ChoiceTable.witness_sets_apply``)
    its edges on the sets of q+1 alternatives are all its edges, and a
    rebuild that matches means the edges over every set give the same
    orderings.  A proposal that fails means the table is not capacity-wise
    responsive, and the edges over every set find the error.  A table that
    fails pays for the proposal, and at worst for one more rebuild.
    """
    n = c.n
    proposed: list[PriorityOrdering] = []
    runs = _kernels.relation_runs(n, c.cols, range(1, n + 1), witness=True)
    for edges in _kernels.chosen_over_edges(n, *runs):
        rank = linear_extension(edges)
        if len(rank) != n:
            break
        proposed.append(PriorityOrdering(tuple(rank)))
    else:
        if _capacity_wise_rebuild(c, proposed).first_difference(c) is None:
            return proposed
    orderings: list[PriorityOrdering] = []
    for q in range(1, n + 1):
        edges = _kernels.chosen_over_edges(n, *_kernels.relation_runs(n, c.cols, range(q, q + 1)))
        rank = linear_extension(edges[0])
        if len(rank) != n:
            cyc = [lab for a, lab in enumerate(c.universe.labels) if a not in rank]
            raise ExtractionError(
                f"chosen-over relation at capacity {q} is cyclic among {cyc}; "
                "the table violates the per-capacity revealed preference axiom",
                step=f"capacity {q}",
            )
        orderings.append(PriorityOrdering(tuple(rank)))
    require_rebuild(
        c,
        _capacity_wise_rebuild(c, orderings),
        "table is not capacity-wise responsive: first mismatch at problem {}",
    )
    return orderings

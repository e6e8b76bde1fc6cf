"""Choice-rule constructors and table materialization.

Covers lexicographic rules (one priority profile used at every capacity),
responsive rules (one ordering), capacity-wise lexicographic rules (a
separate ordering list per capacity, including the four Boston school
builders), and raw-table rules.  ``materialize`` turns any of them into a
:class:`~lexichoice.core.ChoiceTable`, the common input of all checkers.

A rule only describes its priorities; the table is the only evaluator.  The
choice at one problem is ``materialize(rule, u).choose(p)``: the ordering
kinds are filled by the one greedy kernel, ``_kernels.cwlex_fill``, and a
``TableRule`` is its table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import ChoiceTable, Universe


@dataclass(frozen=True)
class PriorityOrdering:
    """A strict priority ordering; ``rank[0]`` is the highest alternative."""

    rank: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.rank) != list(range(len(self.rank))):
            raise ValueError("rank must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.rank)

    def key(self) -> np.ndarray:
        """key[alt] = position of alt (0 = highest priority)."""
        key = np.empty(self.n, dtype=np.int64)
        for pos, alt in enumerate(self.rank):
            key[alt] = pos
        return key


@dataclass(frozen=True)
class PriorityProfile:
    """An ordered list of exactly n priority orderings."""

    orderings: tuple[PriorityOrdering, ...]

    def __post_init__(self):
        n = len(self.orderings)
        if any(o.n != n for o in self.orderings):
            raise ValueError("profile must contain exactly n orderings over n alternatives")

    @property
    def n(self) -> int:
        return len(self.orderings)


@dataclass(frozen=True)
class CapacityWiseLists:
    """For each capacity q in 1..n, a list of exactly q orderings."""

    per_capacity: tuple[tuple[PriorityOrdering, ...], ...]

    def __post_init__(self):
        n = len(self.per_capacity)
        for q, lst in enumerate(self.per_capacity, start=1):
            if len(lst) != q:
                raise ValueError(f"capacity-{q} list must have length {q}")
            if any(o.n != n for o in lst):
                raise ValueError("orderings must cover the full universe")

    @property
    def n(self) -> int:
        return len(self.per_capacity)

    def at(self, q: int) -> tuple[PriorityOrdering, ...]:
        return self.per_capacity[q - 1]


# --- rule kinds -------------------------------------------------------------


@dataclass(frozen=True)
class Lexicographic:
    profile: PriorityProfile

    def keys(self) -> np.ndarray:
        n = self.profile.n
        row = np.stack([o.key() for o in self.profile.orderings])
        return np.broadcast_to(row, (n, n, n))


@dataclass(frozen=True)
class Responsive:
    ordering: PriorityOrdering

    def keys(self) -> np.ndarray:
        n = self.ordering.n
        return np.broadcast_to(self.ordering.key(), (n, n, n))


@dataclass(frozen=True)
class CapacityWise:
    lists: CapacityWiseLists

    def keys(self) -> np.ndarray:
        n = self.lists.n
        keys = np.zeros((n, n, n), dtype=np.int64)
        for q in range(1, n + 1):
            for t, ordering in enumerate(self.lists.at(q)):
                keys[q - 1, t] = ordering.key()
        return keys


@dataclass(frozen=True)
class TableRule:
    """A rule given by its table.  A ``ChoiceTable`` is a choice rule from
    the moment it is built, each choice a subset of its set, which deferred
    acceptance relies on, so that an agent is held by at most one object."""

    table: ChoiceTable


ChoiceRule = Lexicographic | Responsive | CapacityWise | TableRule


# --- Boston school builders -------------------------------------------------
#
# Each builder combines a walk-zone ordering w and an open ordering o into a
# capacity-wise list; every list mixes only w and o with counts differing by
# at most one, and each capacity's list extends the previous one by a single
# order-preserving insertion.


def _check_wo(w: PriorityOrdering, o: PriorityOrdering, n: int) -> None:
    if w.n != n or o.n != n:
        raise ValueError("orderings must cover the full universe")


def build_walk_open(w: PriorityOrdering, o: PriorityOrdering, n: int) -> CapacityWiseLists:
    """First ceil(q/2) entries walk-zone, the rest open."""
    _check_wo(w, o, n)
    lists = []
    for q in range(1, n + 1):
        k = (q + 1) // 2
        lists.append((w,) * k + (o,) * (q - k))
    return CapacityWiseLists(tuple(lists))


def build_open_walk(w: PriorityOrdering, o: PriorityOrdering, n: int) -> CapacityWiseLists:
    """First ceil(q/2) entries open, the rest walk-zone."""
    return build_walk_open(o, w, n)


def build_rotating(w: PriorityOrdering, o: PriorityOrdering, n: int) -> CapacityWiseLists:
    """Alternating walk-zone / open, starting with walk-zone."""
    _check_wo(w, o, n)
    lists = []
    for q in range(1, n + 1):
        lists.append(tuple(w if t % 2 == 0 else o for t in range(q)))
    return CapacityWiseLists(tuple(lists))


def build_compromise(w: PriorityOrdering, o: PriorityOrdering, n: int) -> CapacityWiseLists:
    """Walk-zone quarter, open half, walk-zone quarter, with remainder rules.

    For q = q' + k with q' divisible by 4 and k in {1, 2, 3}: k extra
    entries go to the leading walk block first, then the open block, then
    the trailing walk block.
    """
    _check_wo(w, o, n)
    lists = []
    for q in range(1, n + 1):
        qp, k = divmod(q, 4)
        qp *= 4
        if k == 0:
            head, mid, tail = qp // 4, qp // 2, qp // 4
        elif k == 1:
            head, mid, tail = qp // 4 + 1, qp // 2, qp // 4
        elif k == 2:
            head, mid, tail = qp // 4 + 1, qp // 2 + 1, qp // 4
        else:
            head, mid, tail = qp // 4 + 1, qp // 2 + 1, qp // 4 + 1
        lists.append((w,) * head + (o,) * mid + (w,) * tail)
    return CapacityWiseLists(tuple(lists))


BOSTON_BUILDERS = {
    "walk_open": build_walk_open,
    "open_walk": build_open_walk,
    "rotating": build_rotating,
    "compromise": build_compromise,
}


def boston_requirement_holds(lists: CapacityWiseLists, w: PriorityOrdering, o: PriorityOrdering) -> bool:
    """Every entry is w or o, and their counts differ by at most one per capacity."""
    for q in range(1, lists.n + 1):
        lst = lists.at(q)
        if any(x not in (w, o) for x in lst):
            return False
        nw = sum(1 for x in lst if x == w)
        if abs(nw - (len(lst) - nw)) > 1:
            return False
    return True


# --- materialization ---------------------------------------------------------


def materialize(rule: ChoiceRule, u: Universe) -> ChoiceTable:
    """Total table over all (2^n - 1) * n problems of ``u``."""
    if isinstance(rule, TableRule):
        if rule.table.universe != u:
            raise ValueError("table rule is defined over a different universe")
        return rule.table
    if isinstance(rule, Responsive):
        n_rule = rule.ordering.n
    elif isinstance(rule, Lexicographic):
        n_rule = rule.profile.n
    elif isinstance(rule, CapacityWise):
        n_rule = rule.lists.n
    else:
        raise TypeError(f"not a choice rule: {rule!r}")
    if n_rule != u.n:
        raise ValueError("rule is defined over a different universe size")
    return ChoiceTable._of_fill(u, _kernels.cwlex_fill(u.n, rule.keys()))


def ordering_from_labels(u: Universe, labels) -> PriorityOrdering:
    """Ordering from best-to-worst label list (must cover the universe)."""
    idx = tuple(u.index(lab) for lab in labels)
    if len(idx) != u.n:
        raise ValueError("ordering must rank every alternative exactly once")
    return PriorityOrdering(idx)

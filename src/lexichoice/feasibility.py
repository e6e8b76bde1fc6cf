"""Feasibility-constrained choice: downward-closed families and extraction.

A feasibility family is stored by its maximal sets; membership means being
a subset of some maximal set, so downward closure holds by construction and
singletons are always added.  Feasibility-constrained lexicographic choice
greedily picks the best remaining alternative that keeps the chosen set
feasible, stopping early when no feasible augmentation exists.

Like a plain rule, a profile and family are evaluated only through their
table: ``flex_materialize(profile, family, u).choose(p)``, filled by
``_kernels.cwlex_fill`` with the family's ``augment``.  The fill, the
checkers, extraction and replay read the two arrays a family builds once,
``membership`` and ``augment``; the checkers scan whole tables against them
and build the witness of the first violating problem in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .axioms import AxiomReport
from .core import ChoiceTable, Universe, first_cell, iter_bits, popcount
from .identify import ExtractionError, linear_extension, require_rebuild
from .rules import Lexicographic, PriorityOrdering, PriorityProfile


@dataclass(frozen=True)
class FeasibilityFamily:
    """A downward-closed family containing every singleton, read once, when
    built, into read-only ``membership[m]`` (mask m is feasible) and
    ``augment[m]`` (the alternatives b with ``membership[m | b]``).  An n
    outside 0..16 or a maximal mask outside the n alternatives is refused.
    """

    n: int
    maximal: tuple[int, ...]
    membership: np.ndarray = field(init=False, repr=False, compare=False)
    augment: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masks = _kernels._masks(self.n)
        if any(m >> self.n for m in self.maximal):  # a negative mask too
            raise ValueError("maximal set outside the universe")
        membership = np.bitwise_count(masks) <= 1
        for m in self.maximal:
            membership |= (masks & ~np.uint16(m)) == 0
        augment = _kernels._augmentations(self.n, membership)
        membership.setflags(write=False)
        augment.setflags(write=False)
        object.__setattr__(self, "membership", membership)
        object.__setattr__(self, "augment", augment)


def make_family(u: Universe, maximal_sets) -> FeasibilityFamily:
    """Family = downward closure of the given sets plus all singletons.

    ``maximal_sets`` is an iterable of bitmasks (or label iterables); sets
    contained in others are pruned.
    """
    masks = []
    for s in maximal_sets:
        masks.append(s if isinstance(s, int) else u.mask_of(s))
    masks = sorted(set(masks))
    pruned = [
        m for m in masks
        if not any(m != other and m & ~other == 0 for other in masks)
    ]
    return FeasibilityFamily(u.n, tuple(pruned))


def _require_family(f: FeasibilityFamily, u: Universe) -> None:
    if f.n != u.n:
        raise ValueError(f"feasibility family over {f.n} alternatives, universe of {u.n}")


class FChoiceTable(ChoiceTable):
    """A choice table whose entries must additionally be feasible and
    nonempty, under a family over the universe's n alternatives.  Built from
    ``entries``, it refuses what a ``ChoiceTable`` refuses, then the first
    empty or infeasible choice in canonical order (set, then capacity)."""

    def __init__(self, universe: Universe, family: FeasibilityFamily, entries):
        _require_family(family, universe)
        super().__init__(universe, entries)
        self.family = family
        body = self.cols[1:, 1:]
        bad = (body == 0) | ~family.membership[body]
        if bad.any():
            s, qi = first_cell(bad)
            what = "empty" if body[qi, s] == 0 else "infeasible"
            raise ValueError(f"{what} choice at (S={s + 1:#x}, q={qi + 1})")


def flex_materialize(
    profile: PriorityProfile, f: FeasibilityFamily, u: Universe
) -> FChoiceTable:
    _require_family(f, u)
    keys = Lexicographic(profile).keys()
    table = FChoiceTable._of_fill(u, _kernels.cwlex_fill(u.n, keys, f.augment))
    table.family = f
    return table


def check_f_capacity_filling(c: FChoiceTable) -> AxiomReport:
    """Rejection only when capacity is full or the augmentation is infeasible.

    Capacity q is full when at least q alternatives are chosen.  A problem
    (S, q) violates it when |C(S, q)| < q and some a in S outside C(S, q)
    keeps C(S, q) + a in the family; the witness is the first such problem
    and its lowest such a, which :func:`replay_f_witness` confirms.
    """
    n = c.n
    got = c.cols[1:]
    addable = _kernels._masks(n) & ~got & c.family.augment[got]
    full = np.bitwise_count(got) >= np.arange(1, n + 1, dtype=np.uint8)[:, None]
    viol = ~full & (addable != 0)
    if not viol.any():
        return AxiomReport("f_capacity_filling")
    s, qi = first_cell(viol)
    chosen = int(c.cols[qi + 1, s])
    a = next(iter_bits(int(addable[qi, s])))
    return AxiomReport(
        "f_capacity_filling",
        {
            "S": sorted(c.universe.labels_of(s)),
            "q": qi + 1,
            "alt": c.universe.labels[a],
            "chosen": sorted(c.universe.labels_of(chosen)),
        },
    )


def _f_edges(c: FChoiceTable, q: int) -> np.ndarray:
    """The CSARP relation at q: the revealed preference edges, a rejected b
    kept only when C(S, q-1) plus b is feasible (C(S, 0) is the empty set),
    by one gather from the family's ``augment``; the revealed columns never
    hold a bit of C(S, q-1).
    """
    if not 1 <= q <= c.n:
        raise ValueError(f"capacity {q} outside 1..{c.n}")
    new, rej, starts = _kernels.relation_runs(c.n, c.cols, range(q, q + 1), revealed=True)
    return _kernels.chosen_over_edges(c.n, new, rej & c.family.augment[c.cols[q - 1]], starts)[0]


def replay_f_witness(c: FChoiceTable, axiom: str, w: dict) -> bool:
    """Re-evaluate a feasibility-axiom fail witness against the raw table."""
    u = c.universe
    if axiom == "f_capacity_filling":
        s, q = u.mask_of(w["S"]), w["q"]
        got = int(c.cols[q, s])
        a = u.index(w["alt"])
        return (
            popcount(got) < q
            and bool(((s & ~got) >> a) & 1)
            and bool(c.family.membership[got | (1 << a)])
            and got == u.mask_of(w["chosen"])
        )
    if axiom == "csarp":
        cycle = [u.index(lab) for lab in w["cycle"]]
        if len(cycle) < 2 or cycle[0] != cycle[-1]:
            return False
        edges = _f_edges(c, w["q"])
        return all(edges[a, b] for a, b in zip(cycle, cycle[1:]))
    raise ValueError(f"unknown axiom {axiom!r}")


def _find_cycle(wit: np.ndarray) -> list[int] | None:
    """The first cycle of the relation ``wit`` found by depth-first search
    from the lowest index, successors in ascending order."""
    n = len(wit)
    succ = [[] for _ in range(n)]
    for a, b in np.argwhere(wit).tolist():
        succ[a].append(b)
    color = [0] * n
    stack: list[int] = []

    def dfs(v: int) -> list[int] | None:
        color[v] = 1
        stack.append(v)
        for w in succ[v]:
            if color[w] == 1:
                return stack[stack.index(w):] + [w]
            if color[w] == 0:
                cyc = dfs(w)
                if cyc is not None:
                    return cyc
        stack.pop()
        color[v] = 2
        return None

    for v in range(n):
        if color[v] == 0:
            cyc = dfs(v)
            if cyc is not None:
                return cyc
    return None


def check_csarp(c: FChoiceTable) -> AxiomReport:
    """The feasibility-aware revealed preference must be acyclic at each q."""
    for q in range(1, c.n + 1):
        cyc = _find_cycle(_f_edges(c, q))
        if cyc is not None:
            return AxiomReport(
                "csarp", {"q": q, "cycle": [c.universe.labels[v] for v in cyc]}
            )
    return AxiomReport("csarp")


FLEX_CHECKS = {
    "f_capacity_filling": check_f_capacity_filling,
    "csarp": check_csarp,
}


def extract_flex_profile(c: FChoiceTable) -> PriorityProfile:
    """Recover a profile whose feasibility-constrained table equals ``c``.

    Each capacity's ordering is the canonical linear extension (lowest index
    first) of the revealed preference at that capacity; the result is
    validated by full re-materialization.
    """
    orderings = []
    for q in range(1, c.n + 1):
        rank = linear_extension(_f_edges(c, q))
        if len(rank) != c.n:
            raise ExtractionError(
                f"revealed preference at capacity {q} is cyclic",
                step=f"capacity {q}",
            )
        orderings.append(PriorityOrdering(tuple(rank)))
    profile = PriorityProfile(tuple(orderings))
    require_rebuild(
        c,
        flex_materialize(profile, c.family, c.universe),
        "table is not feasibility-constrained lexicographic: first "
        "mismatch at problem {}",
    )
    return profile

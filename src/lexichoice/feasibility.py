"""Feasibility-constrained choice: downward-closed families and extraction.

A feasibility family is stored by its maximal sets; membership means being
a subset of some maximal set, so downward closure holds by construction and
singletons are always added.  Feasibility-constrained lexicographic choice
greedily picks the best remaining alternative that keeps the chosen set
feasible, stopping early when no feasible augmentation exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .axioms import AxiomReport, RevealedPreference
from .core import ChoiceTable, Problem, Universe, iter_bits, popcount
from .identify import ExtractionError
from .rules import PriorityOrdering, PriorityProfile


@dataclass(frozen=True)
class FeasibilityFamily:
    """A downward-closed family containing every singleton."""

    n: int
    maximal: tuple[int, ...]
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __contains__(self, mask: int) -> bool:
        if mask in self._memo:
            return self._memo[mask]
        ok = popcount(mask) <= 1 or any(mask & ~m == 0 for m in self.maximal)
        self._memo[mask] = ok
        return ok

    def membership_array(self) -> np.ndarray:
        """Boolean membership over all 2**n masks (kernel input)."""
        size = 1 << self.n
        masks = np.arange(size, dtype=np.int64)
        feas = np.bitwise_count(masks) <= 1
        for m in self.maximal:
            feas |= (masks & ~np.int64(m)) == 0
        return feas


def make_family(u: Universe, maximal_sets) -> FeasibilityFamily:
    """Family = downward closure of the given sets plus all singletons.

    ``maximal_sets`` is an iterable of bitmasks (or label iterables); sets
    contained in others are pruned.
    """
    masks = []
    for s in maximal_sets:
        masks.append(s if isinstance(s, int) else u.mask_of(s))
    for m in masks:
        if m & ~u.full_mask:
            raise ValueError("maximal set outside the universe")
    masks = sorted(set(masks))
    pruned = [
        m for m in masks
        if not any(m != other and m & ~other == 0 for other in masks)
    ]
    return FeasibilityFamily(u.n, tuple(pruned))


def agent_partition_family(u: Universe, groups) -> FeasibilityFamily:
    """Contracts-style family: at most one alternative per group.

    ``groups`` partitions the universe labels; feasible sets are the
    transversal subsets.
    """
    group_masks = [u.mask_of(g) for g in groups]
    combined = 0
    for g in group_masks:
        if combined & g:
            raise ValueError("groups must be disjoint")
        combined |= g
    if combined != u.full_mask:
        raise ValueError("groups must cover the universe")
    maximal = []

    def build(idx: int, mask: int) -> None:
        if idx == len(group_masks):
            maximal.append(mask)
            return
        for alt in iter_bits(group_masks[idx]):
            build(idx + 1, mask | (1 << alt))

    build(0, 0)
    return make_family(u, maximal)


class FChoiceTable(ChoiceTable):
    """A choice table whose entries must additionally be feasible and nonempty."""

    def __init__(self, universe: Universe, family: FeasibilityFamily, entries):
        super().__init__(universe, entries)
        self.family = family

    def validate(self) -> None:
        super().validate()
        for mask in range(1, 1 << self.n):
            for q in range(1, self.n + 1):
                got = int(self.entries[mask, q])
                if got == 0:
                    raise ValueError(f"empty choice at (S={mask:#x}, q={q})")
                if got not in self.family:
                    raise ValueError(f"infeasible choice at (S={mask:#x}, q={q})")


def flex_choose(profile: PriorityProfile, f: FeasibilityFamily, p: Problem) -> int:
    """Greedy feasibility-constrained lexicographic pick for one problem."""
    remaining = p.set
    chosen = 0
    for t in range(p.capacity):
        best = None
        ordering = profile.orderings[t]
        for alt in ordering.rank:
            if (remaining >> alt) & 1 and (chosen | (1 << alt)) in f:
                best = alt
                break
        if best is None:
            break
        chosen |= 1 << best
        remaining &= ~(1 << best)
    return chosen


def flex_materialize(
    profile: PriorityProfile, f: FeasibilityFamily, u: Universe
) -> FChoiceTable:
    keys = np.stack([o.key() for o in profile.orderings])
    entries = _kernels.flex_fill(u.n, keys, f.membership_array())
    return FChoiceTable(u, f, entries)


def check_f_capacity_filling(c: FChoiceTable) -> AxiomReport:
    """Rejection only when capacity is full or the augmentation is infeasible."""
    n = c.n
    checked = ((1 << n) - 1) * n
    for s in range(1, 1 << n):
        for q in range(1, n + 1):
            got = int(c.entries[s, q])
            if popcount(got) == q:
                continue
            for a in iter_bits(s & ~got):
                if (got | (1 << a)) in c.family:
                    return AxiomReport(
                        "f_capacity_filling",
                        "fail",
                        {
                            "S": sorted(c.universe.labels_of(s)),
                            "q": q,
                            "alt": c.universe.labels[a],
                            "chosen": sorted(c.universe.labels_of(got)),
                        },
                        checked,
                    )
    return AxiomReport("f_capacity_filling", "pass", None, checked)


def f_revealed_pref(c: FChoiceTable, q: int) -> RevealedPreference:
    """Edges a over b at q: a, b unchosen at q-1, a chosen and b present but
    rejected at q, with C(S, q-1) plus b feasible.  Uses C(S, 0) = empty set."""
    if not 1 <= q <= c.n:
        raise ValueError(f"capacity {q} outside 1..{c.n}")
    n = c.n
    edges = set()
    witnesses: dict[tuple[int, int], int] = {}
    for s in range(1, 1 << n):
        prev = int(c.entries[s, q - 1])  # column 0 is the empty set
        cur = int(c.entries[s, q])
        new = cur & ~prev
        rej = (s & ~cur) & ~prev
        if new == 0 or rej == 0:
            continue
        for a in iter_bits(new):
            for b in iter_bits(rej):
                if (a, b) not in witnesses and (prev | (1 << b)) in c.family:
                    edges.add((a, b))
                    witnesses[(a, b)] = s
    return RevealedPreference(q, frozenset(edges), witnesses)


def replay_f_witness(c: FChoiceTable, axiom: str, w: dict) -> bool:
    """Re-evaluate a feasibility-axiom fail witness against the raw table."""
    u = c.universe
    if axiom == "f_capacity_filling":
        s, q = u.mask_of(w["S"]), w["q"]
        got = int(c.entries[s, q])
        a = u.index(w["alt"])
        return (
            popcount(got) < q
            and bool(((s & ~got) >> a) & 1)
            and (got | (1 << a)) in c.family
            and got == u.mask_of(w["chosen"])
        )
    if axiom == "csarp":
        q = w["q"]
        cycle = [u.index(lab) for lab in w["cycle"]]
        edges = f_revealed_pref(c, q).edges
        return all(
            (cycle[i], cycle[i + 1]) in edges for i in range(len(cycle) - 1)
        ) and cycle[0] == cycle[-1]
    raise ValueError(f"unknown axiom {axiom!r}")


def _find_cycle(n: int, edges: frozenset[tuple[int, int]]) -> list[int] | None:
    succ = [[] for _ in range(n)]
    for a, b in sorted(edges):
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
    checked = ((1 << c.n) - 1) * c.n
    for q in range(1, c.n + 1):
        rp = f_revealed_pref(c, q)
        cyc = _find_cycle(c.n, rp.edges)
        if cyc is not None:
            return AxiomReport(
                "csarp",
                "fail",
                {"q": q, "cycle": [c.universe.labels[v] for v in cyc]},
                checked,
            )
    return AxiomReport("csarp", "pass", None, checked)


def _transitive_closure(n: int, edges: frozenset[tuple[int, int]]) -> list[set[int]]:
    reach = [set() for _ in range(n)]
    for a, b in edges:
        reach[a].add(b)
    for k in range(n):
        for a in range(n):
            if k in reach[a]:
                reach[a] |= reach[k]
    return reach


def _linear_extension(n: int, reach: list[set[int]]) -> PriorityOrdering:
    """Canonical completion: repeatedly take the lowest-index source."""
    remaining = set(range(n))
    rank: list[int] = []
    while remaining:
        sources = [
            a for a in sorted(remaining)
            if not any(a in reach[b] for b in remaining if b != a)
        ]
        if not sources:
            raise ExtractionError("revealed preference relation is cyclic")
        rank.append(sources[0])
        remaining.remove(sources[0])
    return PriorityOrdering(tuple(rank))


def extract_flex_profile(c: FChoiceTable) -> PriorityProfile:
    """Recover a profile whose feasibility-constrained table equals ``c``.

    Each capacity's ordering is the canonical linear extension of the
    transitive closure of the revealed preference at that capacity; the
    result is validated by full re-materialization.
    """
    orderings = []
    for q in range(1, c.n + 1):
        rp = f_revealed_pref(c, q)
        cyc = _find_cycle(c.n, rp.edges)
        if cyc is not None:
            raise ExtractionError(
                f"revealed preference at capacity {q} is cyclic",
                step=f"capacity {q}",
            )
        reach = _transitive_closure(c.n, rp.edges)
        orderings.append(_linear_extension(c.n, reach))
    profile = PriorityProfile(tuple(orderings))
    got = flex_materialize(profile, c.family, c.universe)
    diff = got.first_difference(c)
    if diff is not None:
        raise ExtractionError(
            "table is not feasibility-constrained lexicographic: first "
            f"mismatch at problem {diff}",
            problem=diff,
        )
    return profile

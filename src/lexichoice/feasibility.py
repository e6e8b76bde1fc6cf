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
from .axioms import AxiomReport, RevealedPreference, relation, relation_columns
from .core import ChoiceTable, Problem, Universe, iter_bits, popcount
from .identify import ExtractionError, linear_extension
from .rules import Lexicographic, PriorityOrdering, PriorityProfile


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
    keys = Lexicographic(profile).keys()
    entries = _kernels.cwlex_fill(u.n, keys, f.membership_array())
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
    new, rej = relation_columns(c, q, revealed=True)
    prev = c.entries[:, q - 1]
    feas = c.family.membership_array()
    for b in range(c.n):
        bit = np.int64(1) << np.int64(b)
        rej = np.where(feas[prev | bit], rej, rej & ~bit)
    return relation(q, _kernels.chosen_over_wit(c.n, new, rej))


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


def extract_flex_profile(c: FChoiceTable) -> PriorityProfile:
    """Recover a profile whose feasibility-constrained table equals ``c``.

    Each capacity's ordering is the canonical linear extension (lowest index
    first) of the revealed preference at that capacity; the result is
    validated by full re-materialization.
    """
    orderings = []
    for q in range(1, c.n + 1):
        rank = linear_extension(c.n, f_revealed_pref(c, q).edges)
        if len(rank) != c.n:
            raise ExtractionError(
                f"revealed preference at capacity {q} is cyclic",
                step=f"capacity {q}",
            )
        orderings.append(PriorityOrdering(tuple(rank)))
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

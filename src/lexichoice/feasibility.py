"""Feasibility-constrained choice: downward-closed families and extraction.

A feasibility family is stored by its maximal sets; membership means being
a subset of some maximal set, so downward closure holds by construction and
singletons are always added.  Feasibility-constrained lexicographic choice
greedily picks the best remaining alternative that keeps the chosen set
feasible, stopping early when no feasible augmentation exists.

Like a plain rule, a profile and family are evaluated only through their
table: ``flex_materialize(profile, family, u).choose(p)``, filled by
``_kernels.cwlex_fill`` with the family's ``membership_array()`` as its
mask.  The checkers scan whole tables against that array, find the first
violating problem in canonical order, and build its witness from that one
cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .axioms import AxiomReport, RevealedPreference, relation, relation_columns
from .core import ChoiceTable, Universe, iter_bits, popcount
from .identify import ExtractionError, linear_extension, require_rebuild
from .rules import Lexicographic, PriorityOrdering, PriorityProfile


@dataclass(frozen=True)
class FeasibilityFamily:
    """A downward-closed family containing every singleton."""

    n: int
    maximal: tuple[int, ...]

    def __contains__(self, mask: int) -> bool:
        return popcount(mask) <= 1 or any(mask & ~m == 0 for m in self.maximal)

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
        super().validate()  # every entry is now a subset of its S
        body = self.entries[1:, 1:]
        bad = (body == 0) | ~self.family.membership_array()[body]
        if bad.any():
            s, qi = (int(v) for v in np.argwhere(bad)[0])
            what = "empty" if body[s, qi] == 0 else "infeasible"
            raise ValueError(f"{what} choice at (S={s + 1:#x}, q={qi + 1})")


def flex_materialize(
    profile: PriorityProfile, f: FeasibilityFamily, u: Universe
) -> FChoiceTable:
    keys = Lexicographic(profile).keys()
    entries = _kernels.cwlex_fill(u.n, keys, f.membership_array())
    return FChoiceTable(u, f, entries)


def check_f_capacity_filling(c: FChoiceTable) -> AxiomReport:
    """Rejection only when capacity is full or the augmentation is infeasible.

    A problem (S, q) violates it when |C(S, q)| != q and some a in S outside
    C(S, q) keeps C(S, q) + a in the family; the witness is the first such
    problem and its lowest such a.
    """
    n = c.n
    full = np.int64(c.universe.full_mask)
    feas = c.family.membership_array()
    got = c.entries[:, 1:]
    absent = np.arange(1 << n, dtype=np.int64)[:, None] & ~got
    # cells in canonical order that are not full and leave something out
    cells = np.flatnonzero((np.bitwise_count(got) != np.arange(1, n + 1)) & (absent != 0))
    got, absent = got.ravel()[cells], absent.ravel()[cells]
    viol = np.zeros(cells.size, dtype=bool)
    for a in range(n):
        aug = got | (np.int64(1) << np.int64(a))
        # membership of any int64 mask, as FeasibilityFamily.__contains__
        member = (np.bitwise_count(aug) <= 1) | (((aug & ~full) == 0) & feas[aug & full])
        viol |= ((absent >> a) & 1).astype(bool) & member
    if not viol.any():
        return AxiomReport("f_capacity_filling")
    s, qi = divmod(int(cells[np.argmax(viol)]), n)
    chosen = int(c.entries[s, qi + 1])
    a = next(a for a in iter_bits(s & ~chosen) if (chosen | (1 << a)) in c.family)
    return AxiomReport(
        "f_capacity_filling",
        {
            "S": sorted(c.universe.labels_of(s)),
            "q": qi + 1,
            "alt": c.universe.labels[a],
            "chosen": sorted(c.universe.labels_of(chosen)),
        },
    )


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
    for q in range(1, c.n + 1):
        cyc = _find_cycle(c.n, f_revealed_pref(c, q).edges)
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
        rank = linear_extension(c.n, f_revealed_pref(c, q).edges)
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

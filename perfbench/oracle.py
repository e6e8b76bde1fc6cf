"""Independent reference implementations used to check lexichoice outputs.

Nothing here imports lexichoice.  Orderings are lists of alternative indices,
best first.  Tables are int64 arrays of shape (2**n, n + 1) holding chosen
bitmasks, column 0 and row 0 empty, as in the package's wire format.
"""

from __future__ import annotations

import numpy as np


def _masks(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def sequential_table(n: int, steps: list[list[int]], feas: np.ndarray | None = None) -> np.ndarray:
    """Greedy sequential choice where step t picks by ``steps[t]``.

    Column q holds the first q picks, which is the lexicographic rule of the
    profile ``steps`` (and the responsive rule when every step is the same
    ordering).  With ``feas`` (membership over all masks of a downward-closed
    family) a pick must keep the chosen set feasible.
    """
    masks = _masks(n)
    remaining = masks.copy()
    chosen = np.zeros_like(masks)
    table = np.zeros((1 << n, n + 1), dtype=np.int64)
    for t in range(n):
        pick = np.zeros_like(masks)
        for alt in steps[t]:
            bit = np.int64(1) << np.int64(alt)
            sel = (pick == 0) & ((remaining & bit) != 0)
            if feas is not None:
                sel &= feas[chosen | bit]
            pick[sel] = bit
        chosen |= pick
        remaining &= ~pick
        table[:, t + 1] = chosen
    table[0, :] = 0
    return table


def top_q_column(n: int, ordering: list[int], q: int) -> np.ndarray:
    """C(S, q) of the responsive rule of one ordering, for every S."""
    masks = _masks(n)
    count = np.zeros_like(masks)
    col = np.zeros_like(masks)
    for alt in ordering:
        bit = np.int64(1) << np.int64(alt)
        has = (masks & bit) != 0
        col[has & (count < q)] |= bit
        count += has
    return col


def responsive_per_capacity_table(n: int, orderings: list[list[int]]) -> np.ndarray:
    """Column q is the top q of ``orderings[q - 1]`` (one ordering per capacity)."""
    table = np.zeros((1 << n, n + 1), dtype=np.int64)
    for q, ordering in enumerate(orderings, start=1):
        table[:, q] = top_q_column(n, ordering, q)
    table[0, :] = 0
    return table


def family_membership(n: int, maximal: list[int]) -> np.ndarray:
    """Downward closure of ``maximal`` plus every singleton and the empty set."""
    masks = _masks(n)
    sizes = np.zeros_like(masks)
    for a in range(n):
        sizes += (masks >> a) & 1
    feas = sizes <= 1
    for m in maximal:
        feas |= (masks & ~np.int64(m)) == 0
    return feas


def sequential_choice(steps: list[list[int]], pool: int, q: int) -> int:
    """One greedy sequential choice from ``pool`` at capacity ``q``."""
    chosen = 0
    for t in range(min(q, len(steps))):
        for alt in steps[t]:
            bit = 1 << alt
            if pool & bit and not chosen & bit:
                chosen |= bit
                break
        else:
            break
    return chosen


class ObjectRule:
    """A per-object choice rule given by the orderings used at each step."""

    def __init__(self, kind: str, orderings: list[list[int]]):
        self.kind = kind  # "lexicographic" (one ordering per step) or "responsive"
        self.orderings = orderings

    def choose(self, pool: int, q: int) -> int:
        if self.kind == "responsive":
            return sequential_choice([self.orderings[0]] * q, pool, q)
        return sequential_choice(self.orderings, pool, q)


def deferred_acceptance(rules: list[ObjectRule], prefs: list[list[int | None]],
                        caps: list[int]):
    """Table-free deferred acceptance.

    ``prefs[i]`` ranks object indices and None (the null object), best first.
    Returns (assignment, rounds): assignment[i] is an object index or None;
    rounds[r] maps object index to the bitmask of its applicants in round r.
    """
    n = len(prefs)
    ptr = [0] * n
    held = [0] * len(rules)
    at_null = 0
    rounds = []
    while True:
        placed = at_null
        for h in held:
            placed |= h
        free = [i for i in range(n) if not (placed >> i) & 1]
        if not free:
            break
        applicants: dict[int, int] = {}
        for i in free:
            target = prefs[i][ptr[i]]
            if target is None:
                at_null |= 1 << i
            else:
                applicants[target] = applicants.get(target, 0) | (1 << i)
        rounds.append(applicants)
        for x, apps in applicants.items():
            pool = held[x] | apps
            accepted = rules[x].choose(pool, caps[x]) if caps[x] > 0 else 0
            held[x] = accepted
            for i in range(n):
                if (pool & ~accepted) >> i & 1:
                    ptr[i] += 1
    assignment: list[int | None] = [None] * n
    for x, h in enumerate(held):
        for i in range(n):
            if h >> i & 1:
                assignment[i] = x
    return assignment, rounds

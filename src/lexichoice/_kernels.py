"""Hot inner loops over exhaustive problem tables, vectorized with numpy.

Four kernels, each with exactly one implementation: ``cwlex_fill`` (the
greedy fill of every capacity-wise and, with a feasibility mask,
feasibility-constrained rule), ``chosen_over_wit`` (first witnesses of a
chosen-over relation given two bitmask columns, shared by WRARP, CWARP,
CWRARP, CSARP and extraction), ``gs_first_violation`` and
``path_independence_first``.  They work on whole table columns at once,
looping in Python only over capacities, greedy steps and alternatives.
Gross substitutes (heritage) and path independence share one single-removal
scan: path independence holds exactly when heritage and outcast do
(Aizerman-Malishevski 1981; see Chambers-Yenmez 2017, "Choice and
matching"), so its verdict costs O(n^2 2^n), and the set-major search for
its first (S, T, q), a Python loop over sets, runs only when the verdict is
fail.
``tests/test_kernels.py`` holds per-set loop versions of every kernel and
checks that the outputs here match them bit for bit, witness tie-breaks
included.

All tables are int64 arrays of shape ``(2**n, n+1)`` holding chosen
bitmasks, with column 0 fixed empty.  Key tensors encode priority orderings
positionally: ``keys[..., alt]`` is the rank of ``alt`` (0 = highest
priority).
"""

from __future__ import annotations

import numpy as np


def _greedy_pick(remaining, chosen, key, feas=None):
    """Per-set greedy pick of the best remaining (feasible) alternative.

    Returns the picked-alternative bitmask per set (0 where nothing could
    be picked).
    """
    size = remaining.shape[0]
    pick = np.full(size, -1, dtype=np.int64)
    for alt in np.argsort(key, kind="stable"):
        avail = ((remaining >> alt) & 1) == 1
        if feas is not None:
            avail &= feas[chosen | (np.int64(1) << np.int64(alt))]
        sel = (pick < 0) & avail
        pick[sel] = alt
    bits = np.where(pick >= 0, np.int64(1) << np.maximum(pick, 0), np.int64(0))
    return bits


def _first_true(cond):
    idx = np.argmax(cond)
    if cond[idx]:
        return int(idx)
    return 0


def cwlex_fill(n: int, keys: np.ndarray, feas: np.ndarray | None = None) -> np.ndarray:
    """Materialize a capacity-wise lexicographic rule into a full table.

    ``keys`` has shape (n, n, n); ``keys[q-1, t, alt]`` is the rank used at
    step t+1 of capacity q.  Unused steps (t >= q) are never read.  With
    ``feas`` (a boolean array over all 2**n masks) each pick must keep the
    chosen set feasible; a set with no feasible augmentation at one step has
    none at any later step, since neither its chosen nor its remaining
    alternatives change.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if feas is not None:
        feas = np.ascontiguousarray(feas, dtype=np.bool_)
    size = 1 << n
    table = np.zeros((size, n + 1), dtype=np.int64)
    masks = np.arange(size, dtype=np.int64)
    for q in range(1, n + 1):
        remaining = masks.copy()
        chosen = np.zeros(size, dtype=np.int64)
        for t in range(q):
            bits = _greedy_pick(remaining, chosen, keys[q - 1, t], feas)
            chosen |= bits
            remaining &= ~bits
        table[:, q] = chosen
    table[0, :] = 0
    return table


def chosen_over_wit(n: int, chosen: np.ndarray, rejected: np.ndarray) -> np.ndarray:
    """First witnessing set per ordered pair of a chosen-over relation.

    ``chosen`` and ``rejected`` are bitmask columns over all 2**n sets.
    ``wit[a, b]`` is the first set S (ascending) with a in ``chosen[S]`` and
    b in ``rejected[S]``; 0 means no such S.
    """
    wit = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        has_a = ((chosen >> a) & 1) == 1
        for b in range(n):
            cond = has_a & (((rejected >> b) & 1) == 1)
            wit[a, b] = _first_true(cond)
    return wit


def _removal_violations(n: int, table: np.ndarray, outcast: bool = False) -> np.ndarray:
    """Per set S, whether removing one b in S breaks heritage at some q:
    C(S, q) minus b not contained in C(S minus b, q), with S minus b
    nonempty.  With ``outcast`` also flag a rejected b whose removal changes
    the choice: b not in C(S, q) and C(S minus b, q) != C(S, q).

    The sets holding b and their partners without b are the two halves of a
    reshape, so each alternative costs one pass over the table and no gather.
    """
    viol = np.zeros(1 << n, dtype=bool)
    cols = table[:, 1:]
    for b in range(n):
        bit = np.int64(1) << np.int64(b)
        pairs = cols.reshape(-1, 2, 1 << b, n)
        without, with_b = pairs[:, 0], pairs[:, 1]
        bad = (with_b & ~without & ~bit) != 0
        bad[0, 0] = False  # S = {b}: S minus b is empty
        if outcast:
            bad |= ((with_b & bit) == 0) & (with_b != without)
        viol.reshape(-1, 2, 1 << b)[:, 1] |= bad.any(axis=-1)
    return viol


def gs_first_violation(n: int, table: np.ndarray) -> np.ndarray:
    """First (S, q, a, b) in canonical order with a chosen from (S, q) but
    not from (S without b, q); all -1 when no violation exists."""
    out = np.full(4, -1, dtype=np.int64)
    viol = _removal_violations(n, table)
    if not viol.any():
        return out
    s = int(np.argmax(viol))
    # refine within the first violating set in (q, a, b) order
    for q in range(1, n + 1):
        c = int(table[s, q])
        for a in range(n):
            if (c >> a) & 1:
                for b in range(n):
                    if b != a and (s >> b) & 1:
                        sub = s & ~(1 << b)
                        if sub and not (int(table[sub, q]) >> a) & 1:
                            out[:] = (s, q, a, b)
                            return out
    return out


def path_independence_first(n: int, table: np.ndarray) -> np.ndarray:
    """First (S, T, q) with C(S|T, q) != C(C(S,q)|C(T,q), q); all -1 when
    the table is path independent.

    The verdict comes from heritage and outcast, which together are
    equivalent to path independence for a choice function
    (Aizerman-Malishevski 1981; see Chambers-Yenmez 2017, "Choice and
    matching").  Both are checked one removal at a time, in O(n^2 2^n).
    Only when they fail, or when some C(S, q) is not a subset of S (the
    equivalence needs that), are the sets S searched in ascending order.
    Each S is compared with every T and q at once, and the search stops at
    the first S with a violation.  The condition is symmetric in S and T,
    so a violation (S, T) with T < S would have stopped the search at T:
    only T >= S need comparing.
    """
    out = np.full(3, -1, dtype=np.int64)
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    cols = table[:, 1:]
    if not (cols & ~masks[:, None]).any() and not _removal_violations(
        n, table, outcast=True
    ).any():
        return out
    q_idx = np.arange(1, n + 1)
    for s in range(1, size):
        union = table[s | masks[s:], 1:]
        merged = cols[s:] | cols[s]
        viol = union != table[merged, q_idx]
        if viol.any():
            t, q = divmod(int(np.argmax(viol)), n)
            out[:] = (s, s + t, q + 1)
            return out
    return out

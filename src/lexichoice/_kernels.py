"""Hot inner loops over exhaustive problem tables, vectorized with numpy.

Four kernels, each with exactly one implementation: ``cwlex_fill`` (the
greedy fill of every capacity-wise and, with a feasibility mask,
feasibility-constrained rule), ``chosen_over_edges`` (the edges of a
chosen-over relation given two bitmask columns, which decide WRARP, CWARP,
CWRARP, CSARP and order both extractions), ``gs_first_violation`` and
``path_independence_first``.  They work on whole table columns at once.
``cwlex_fill`` makes each greedy pick one gather from a per-ordering "top"
table (the best alternative of every mask, built by a subset DP in n
vectorized steps) and starts capacity q from capacity q-1's column when q's
orderings extend q-1's, so a lexicographic fill is n gathers.
``chosen_over_edges`` is one scatter-OR of rejected masks into chosen-mask
slots and n OR-reductions; a checker that fails looks up the witnessing
sets of its one reported pair afterwards.  Gross substitutes (heritage)
and path independence share one single-removal scan: path independence
holds exactly when heritage and outcast do (Aizerman-Malishevski 1981; see
Chambers-Yenmez 2017, "Choice and matching"), so its verdict costs
O(n^2 2^n), and the set-major search for its first (S, T, q), a Python
loop over sets, runs only when the verdict is fail.
``tests/test_kernels.py`` holds per-set loop versions of every kernel and
checks that the outputs here match them bit for bit, witness tie-breaks
included.

All tables are int64 arrays of shape ``(2**n, n+1)`` holding chosen
bitmasks, with column 0 fixed empty; the kernels take and return them.  The
engine caps n at 16 (``core.MAX_ALTERNATIVES``), so every mask fits in 16
bits, and ``cwlex_fill`` and the single-removal scan compute on uint16
masks, a quarter of the bytes per pass.  The fill stages its capacities in
a contiguous uint16 array and casts it once into the table; the scan reads
a uint16 copy of the table.  Nothing is truncated: the fill refuses n above
16, and in ``gs_first_violation`` and ``path_independence_first`` an entry
with a bit outside the n alternatives raises ``ValueError``; no validated
table holds one.  Key tensors encode priority orderings positionally:
``keys[..., alt]`` is the rank of ``alt`` (0 = highest priority).
"""

from __future__ import annotations

import numpy as np

MASK_BITS = 16  # the kernels hold masks as uint16: n <= MASK_BITS


def _top_bits(key: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``top[mask]``: the bit of the best alternative in ``mask`` (lowest
    ``key``, then lowest index), 0 for the empty mask.

    A subset DP on the highest bit: a mask with highest bit b is ``2**b |
    lower`` with ``lower < 2**b``, and its best is b unless ``lower`` holds
    an alternative that beats b, so each b is one vectorized step.
    """
    key = key.tolist()
    top = np.zeros_like(masks)
    for b in range(len(key)):
        lo = 1 << b
        beats_b = sum(1 << a for a in range(b) if key[a] <= key[b])
        top[lo : 2 * lo] = np.where(masks[:lo] & beats_b, top[:lo], lo)
    return top


def _masks(n: int) -> np.ndarray:
    """Every mask over n alternatives, 0..2**n-1, as uint16."""
    if not 0 <= n <= MASK_BITS:
        raise ValueError(f"{n} alternatives do not fit {MASK_BITS}-bit masks")
    return np.arange(1 << n, dtype=np.uint16)


def _augmentations(n: int, feas: np.ndarray) -> np.ndarray:
    """``augment[m]``: the bitmask of the alternatives b with ``feas[m | b]``,
    over all 2**n masks m (b in m counts exactly when m is feasible), as
    uint16."""
    feas = np.asarray(feas, dtype=np.bool_)
    masks = _masks(n)
    augment = np.zeros_like(masks)
    for b in range(n):
        bit = np.uint16(1 << b)
        augment |= np.where(feas[masks | bit], bit, np.uint16(0))
    return augment


def cwlex_fill(n: int, keys: np.ndarray, feas: np.ndarray | None = None) -> np.ndarray:
    """Materialize a capacity-wise lexicographic rule into a full table.

    ``keys`` has shape (n, n, n); ``keys[q-1, t, alt]`` is the rank used at
    step t+1 of capacity q.  Unused steps (t >= q) are never read.  With
    ``feas`` (a boolean array over all 2**n masks) each pick must keep the
    chosen set feasible; a set with no feasible augmentation at one step has
    none at any later step, since neither its chosen nor its remaining
    alternatives change.

    Each greedy step is one gather, ``chosen | top[remaining]``, from the
    step's top table (:func:`_top_bits`); with ``feas``, ``remaining`` is
    first narrowed to the alternatives a with ``feas[chosen | a]``, read from
    a per-mask table of them.  When capacity q's first q-1 orderings are
    capacity q-1's, its first q-1 picks are capacity q-1's choice, so it
    starts there and makes one pick: a lexicographic or responsive fill takes
    n picks, not n(n+1)/2.  Only the last top table is kept, which is all a
    repeated ordering needs.  The capacities are filled as the rows of a
    contiguous uint16 array, which is cast once into the int64 table.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    masks = _masks(n)
    if feas is not None:
        augment = _augmentations(n, feas)
    cols = np.zeros((n + 1, 1 << n), dtype=np.uint16)
    top_key = top = None
    for q in range(1, n + 1):
        if q > 1 and np.array_equal(keys[q - 1, : q - 1], keys[q - 2, : q - 1]):
            start = q - 1  # chosen still holds C(S, q-1)
        else:
            start, chosen = 0, np.zeros_like(masks)
        for t in range(start, q):
            if top_key is None or not np.array_equal(keys[q - 1, t], top_key):
                top_key = keys[q - 1, t]
                top = _top_bits(top_key, masks)
            remaining = masks ^ chosen
            if feas is not None:
                remaining &= augment.take(chosen)
            chosen = chosen | top.take(remaining)
        cols[q] = chosen
    return cols.T.astype(np.int64, order="C")


def chosen_over_edges(n: int, chosen: np.ndarray, rejected: np.ndarray) -> np.ndarray:
    """The edges of a chosen-over relation as an (n, n) bool matrix.

    ``chosen`` and ``rejected`` are bitmask columns over all 2**n sets;
    ``edges[a, b]`` is true when some S has a in ``chosen[S]`` and b in
    ``rejected[S]``.  ``chosen`` masks must lie in 0..2**n-1 (they index
    slots); bits of ``rejected`` at or above n are ignored.  Every row
    counts, row 0 included; on table columns row 0 is empty.

    One scatter ORs each set's rejected mask into the slot of its chosen
    mask.  Row a is then the OR of the slots whose mask holds a: from the
    highest a down, the upper half of the slots, which are then folded onto
    the lower half, so the rows cost two passes over the slots in all.
    """
    slots = np.zeros(1 << n, dtype=np.int64)
    np.bitwise_or.at(slots, chosen, rejected)
    rows = np.zeros(n, dtype=np.int64)
    for a in range(n - 1, -1, -1):
        half = 1 << a
        rows[a] = np.bitwise_or.reduce(slots[half:])
        slots = slots[:half] | slots[half:]
    return ((rows[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(bool)


def _narrow(table: np.ndarray) -> np.ndarray:
    """``table[:, 1:]`` as uint16, padded with empty columns to 16, so each
    row is 32 bytes; ``ValueError`` when an entry has a bit outside the n
    alternatives (negative included).

    Every entry of a validated table is a subset of its set, so it fits.
    """
    cols = table[:, 1:]
    n = cols.shape[1]
    if np.bitwise_or.reduce(cols, axis=None) >> n:  # negative included
        raise ValueError(f"a table entry has a bit outside the {n} alternatives")
    out = np.zeros((len(table), MASK_BITS), dtype=np.uint16)
    out[:, : cols.shape[1]] = cols
    return out


def _removal_violations(n: int, cols: np.ndarray, outcast: bool = False) -> np.ndarray:
    """Per set S, whether removing one b in S breaks heritage at some q:
    C(S, q) minus b not contained in C(S minus b, q), with S minus b
    nonempty.  With ``outcast`` also flag a rejected b whose removal changes
    the choice: b not in C(S, q) and C(S minus b, q) != C(S, q).

    ``cols`` is the table narrowed by :func:`_narrow`.  The sets holding b
    and their partners without b are the two halves of a reshape, so each
    alternative costs one pass over the table and no gather.  Both
    conditions leave the offending bits of each cell, and a set's 16 cells
    are read as four 64-bit words to find whether any bit is left.
    """
    viol = np.zeros(1 << n, dtype=bool)
    for b in range(n):
        bit = np.uint16(1 << b)
        pairs = cols.reshape(-1, 2, 1 << b, MASK_BITS)
        without, with_b = pairs[:, 0], pairs[:, 1]
        bad = with_b & ~without & ~bit
        bad[0, 0] = 0  # S = {b}: S minus b is empty
        if outcast:  # all ones where b is not in C(S, q), else zero
            bad |= (with_b ^ without) & (((with_b >> b) & 1) - np.uint16(1))
        words = bad.view(np.uint64)
        left = (words[..., 0] | words[..., 1] | words[..., 2] | words[..., 3]) != 0
        viol.reshape(-1, 2, 1 << b)[:, 1] |= left
    return viol


def gs_first_violation(n: int, table: np.ndarray) -> np.ndarray:
    """First (S, q, a, b) in canonical order with a chosen from (S, q) but
    not from (S without b, q); all -1 when no violation exists.

    ``ValueError`` when an entry has a bit outside the n alternatives.
    """
    out = np.full(4, -1, dtype=np.int64)
    viol = _removal_violations(n, _narrow(table))
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

    ``ValueError`` when an entry has a bit outside the n alternatives.
    """
    out = np.full(3, -1, dtype=np.int64)
    narrow = _narrow(table)
    if not (narrow & ~_masks(n)[:, None]).any() and not _removal_violations(
        n, narrow, outcast=True
    ).any():
        return out
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    cols = table[:, 1:]
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

"""Hot inner loops over exhaustive problem tables, vectorized with numpy.

Four kernels, each with exactly one implementation: ``cwlex_fill`` (the
greedy fill of every capacity-wise and, with a family's augmentation table,
feasibility-constrained rule), ``chosen_over_edges`` (the edges of the
chosen-over relations of runs of sets, which decide WRARP, CWARP, CWRARP,
CSARP and order both extractions), ``gs_first_violation`` and
``path_independence_first``.  They work on whole table columns at once.
``cwlex_fill`` makes each greedy pick one gather from a per-ordering "top"
table (the best alternative of every mask) and starts capacity q from
capacity q-1's column when q's orderings extend q-1's, so a lexicographic
fill is n gathers.  Any other capacity q without an augmentation table (a
fresh one) chooses every set of at most q alternatives whole; once that
skips at least as many gathers as it scatters entries, it picks only for
the larger sets, a suffix of the masks sorted by size, so at n = 16 a fill
of fresh capacities gathers 2.01 M entries and scatters 0.14 M rather than
gathering 8.9 M.  Its top tables come from half tables: one subset DP of n
vectorized steps builds, for all the rule's distinct orderings at once, the
best of every mask over the low n//2 and over the high n - n//2
alternatives, and an ordering's top table is one outer minimum of its two.
``chosen_over_edges`` takes uint16 chosen and rejected columns cut into
runs, one per capacity, which :func:`relation_runs` builds from a table,
and makes one pass per alternative over as many runs at once as fit a fixed
L2 budget (every capacity at n <= 12, one at n = 16); a checker that fails
looks up the witnessing sets of its one reported pair afterwards.  A table
computes the chosen-over edges of all its capacities once
(``ChoiceTable.chosen_over``), for WRARP and CWRARP.  By the q+1 witness
lemma (proved at ``ChoiceTable.witness_sets_apply``), on a table that is
capacity-filling and keeps heritage every chosen-over edge of capacity q
has a witness set of exactly q+1 alternatives, and so does every revealed
(CWARP) edge when the table is also monotone.  So when a check has already
derived those facts, capacity q's run holds only the C(n, q+1) sets of
exactly q+1 alternatives (65,519 sets over all 16 capacities at n = 16
rather than 16 x 65,536), and CWARP takes all its capacities at once.  IAA,
on a table with the same facts, decides capacity q on the C(n, q+2) sets of
exactly q+2 alternatives, also one run of the masks sorted by size (the q+2
witness lemma, proved at ``axioms.check_iaa``).  The capacity-wise
responsive extraction derives none of the facts: it proposes its orderings
from the runs of the sets of q+1 alternatives and keeps them when their
rebuild equals the table, which proves the facts; otherwise it reads every
set, one capacity at a time up to the first cyclic one.  Where the facts
are not known, CWARP's revealed edges go one :func:`capacity_block` of
capacities at a time, so it stops at its first failing block.  Gross
substitutes (heritage) and path independence share one single-removal scan,
which a table runs once (``ChoiceTable.heritage``): path independence holds
exactly when heritage and outcast do, and on a capacity-filling table
heritage implies outcast (proved at :func:`path_independence_first`), so
only a table that is not capacity-filling adds the outcast condition to its
heritage flags, in a scan of that condition alone.  Capacity filling is
decided once per table too (``ChoiceTable.unfilled``), for the capacity
filling checker and path independence alike.  The verdict costs O(n^2 2^n),
and the set-major search for its first (S, T, q), a Python loop over sets,
runs only when the verdict is fail.
``tests/test_kernels.py`` holds per-set loop versions of every kernel and
checks that the outputs here match them bit for bit, witness tie-breaks
included.

All tables are C-contiguous uint16 arrays of shape ``(n+1, 2**n)``, the
layout of ``ChoiceTable.cols``: row q holds the chosen bitmask of every set
at capacity q, so each capacity is one contiguous column, and row 0 is
empty.  The engine caps n at 16 (``core.MAX_ALTERNATIVES``), so every mask
fits in 16 bits; the fill refuses n above 16 and returns its staging array
as the table.  The single-removal scan reads the table as rows instead, a
padded row-major uint16 copy that a table builds once (``ChoiceTable.rows``),
and the two first-violation kernels take its flags as ``heritage``.
The kernels trust every table to be a choice rule, each C(S, q) a subset
of S with at most q members: ``ChoiceTable`` refuses any other when it is
built.  Key tensors encode priority orderings positionally:
``keys[..., alt]`` is the rank of ``alt`` (0 = highest priority), and the
ranks are 0..n-1.  The fill relies on that:
it packs an alternative as ``rank << 16 | bit`` in uint32, so that the
better of two alternatives is the minimum of their packed entries.
"""

from __future__ import annotations

import functools

import numpy as np

MASK_BITS = 16  # the kernels hold masks as uint16: n <= MASK_BITS


def _masks(n: int) -> np.ndarray:
    """Every mask over n alternatives, 0..2**n-1, as uint16."""
    if not 0 <= n <= MASK_BITS:
        raise ValueError(f"{n} alternatives do not fit {MASK_BITS}-bit masks")
    return np.arange(1 << n, dtype=np.uint16)


def _augmentations(n: int, feas: np.ndarray) -> np.ndarray:
    """``augment[m]``: the bitmask of the alternatives b with ``feas[m | b]``,
    over all 2**n masks m (b in m counts exactly when m is feasible), as
    uint16.  A ``FeasibilityFamily`` builds it once, as its ``augment``."""
    feas = np.asarray(feas, dtype=np.bool_)
    masks = _masks(n)
    augment = np.zeros_like(masks)
    for b in range(n):
        bit = np.uint16(1 << b)
        augment |= np.where(feas[masks | bit], bit, np.uint16(0))
    return augment


_NO_ALT = np.uint32(0xFFFF << 16)  # the best of an empty mask: loses to any alternative


def _half_tables(orderings: np.ndarray, low: int, width: int) -> np.ndarray:
    """Per ordering, the best of every mask over alternatives low..low+width-1:
    ``half[k, m]`` is the packed entry ``rank << 16 | bit`` of the best
    alternative of ``m << low``, as uint32, and ``_NO_ALT`` for m = 0.

    ``orderings`` is a (k, n) rank array.  A packed entry orders by rank,
    then by index, so the better of two is their minimum, and the best of a
    mask with highest bit b is the minimum of b's entry and the best of the
    mask without b: each b is one ``np.minimum`` over all orderings at once.
    """
    half = np.empty((len(orderings), 1 << width), dtype=np.uint32)
    half[:, 0] = _NO_ALT
    packed = orderings[:, low : low + width].astype(np.uint32) << 16
    packed |= np.uint32(1) << np.arange(low, low + width, dtype=np.uint32)
    for b in range(width):
        lo = 1 << b
        np.minimum(half[:, :lo], packed[:, b : b + 1], out=half[:, lo : 2 * lo])
    return half


def _top_tables(n: int, orderings: np.ndarray):
    """``top(k)`` for each row k of the (k, n) rank array ``orderings``: the
    uint16 table, over all 2**n masks, of the bit of the best alternative in
    the mask (lowest rank, then lowest index), 0 for the empty mask.

    One batched DP builds every ordering's half tables, over the low n//2
    and the high n - n//2 alternatives; a mask is a high half and a low half,
    so ``top(k)`` is one outer minimum of ordering k's two half tables, whose
    packed entries keep the winner's bit in their low 16 bits.
    """
    width = n // 2
    lo = _half_tables(orderings, 0, width)
    hi = _half_tables(orderings, width, n - width)

    def top(k: int) -> np.ndarray:
        return np.minimum(hi[k, :, None], lo[k]).ravel().astype(np.uint16)

    return top


@functools.cache
def _by_size(n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every mask over n alternatives sorted by size, ascending within a
    size, as read-only uint16 (to gather with) and intp (to scatter into a
    row with) arrays, and per q = 0..n the position of the first mask of
    more than q alternatives, which is the number of masks of at most q.
    So the masks of exactly k alternatives are the run between the
    positions of k-1 and k: the witness sets of the relation axioms
    (k = q+1) and of IAA (k = q+2) are such runs, and a fill's suffix is
    all the runs from k = q+1 on."""
    masks = _masks(n)
    sizes = np.bitwise_count(masks)
    by_size = masks[np.argsort(sizes, kind="stable")]
    at = by_size.astype(np.intp)
    by_size.flags.writeable = at.flags.writeable = False
    return by_size, at, np.cumsum(np.bincount(sizes, minlength=n + 1)).tolist()


def cwlex_fill(n: int, keys: np.ndarray, augment: np.ndarray | None = None) -> np.ndarray:
    """Materialize a capacity-wise lexicographic rule into a full table.

    ``keys`` has shape (n, n, n); ``keys[q-1, t, alt]`` is the rank used at
    step t+1 of capacity q.  Unused steps (t >= q) are never read.  With
    ``augment``, a family's augmentation table (:func:`_augmentations` of
    its membership, ``FeasibilityFamily.augment``), each pick must keep the
    chosen set feasible; a set with no feasible augmentation at one step has
    none at any later step, since neither its chosen nor its remaining
    alternatives change.

    Each greedy step is one gather, ``chosen | top[remaining]``, from the top
    table of the step's ordering (:func:`_top_tables`); with ``augment``,
    ``remaining`` is first narrowed to ``augment[chosen]``, the alternatives
    a that keep ``chosen | a`` feasible.  When capacity q's first q-1
    orderings are capacity q-1's, its first q-1 picks are capacity q-1's
    choice, so it starts there and makes one pick over every set: a
    lexicographic or responsive fill takes n picks, not n(n+1)/2.  A
    capacity q that does not extend q-1's list and has no ``augment`` (a
    fresh capacity) chooses every set of at most q alternatives whole, so
    its q picks may run only on the sets of more than q, a suffix of the
    masks sorted by size (:func:`_by_size`), and their result is scattered
    into the row; at q = n no set is larger, and no pick runs.  It does so when
    the gathers this skips, q per set of at most q alternatives, are at least
    the entries it scatters: from q = 6 at n = 16 (q = 5 at n = 12).  Below
    that, as at capacity 1 of every rule, scattering costs more than it saves,
    and the capacity picks over every set.  At n = 16 a fill whose capacities
    are all fresh gathers 2.01 M entries and scatters 0.14 M, against 8.9 M
    gathered when every capacity picks over all 2**n sets.  The steps are
    planned first, so that the half tables of all their distinct orderings come
    from one DP; a top table is then built when the ordering changes from the
    previous step's, and only the last one is kept.  The capacities are filled
    as the rows of the returned ``(n+1, 2**n)`` uint16 array, the layout of
    ``ChoiceTable.cols``.
    """
    keys = np.asarray(keys).tolist()
    masks = _masks(n)
    by_size, scatter_at, larger = _by_size(n)
    steps, distinct = [], {}  # per capacity: (extends, first set picked for, ordering ids)
    for q in range(1, n + 1):
        if q > 1 and keys[q - 1][: q - 1] == keys[q - 2][: q - 1]:
            extends, first, picks = True, None, keys[q - 1][q - 1 : q]
        elif augment is None and q * larger[q] >= len(masks) - larger[q]:
            # fresh, and its skipped gathers pay for the scatter: only the
            # sets of more than q alternatives pick
            extends, first, picks = False, larger[q], keys[q - 1][:q] if q < n else []
        else:
            extends, first, picks = False, None, keys[q - 1][:q]
        ids = [distinct.setdefault(tuple(key), len(distinct)) for key in picks]
        steps.append((extends, first, ids))
    top = _top_tables(n, np.array(list(distinct), dtype=np.int64).reshape(len(distinct), n))
    cols = np.zeros((n + 1, 1 << n), dtype=np.uint16)
    last = table = None
    for q, (extends, first, ids) in enumerate(steps, start=1):
        sets = masks if first is None else by_size[first:]
        chosen = cols[q - 1] if extends else np.zeros_like(sets)
        for k in ids:
            if k != last:
                last, table = k, top(k)
            remaining = sets ^ chosen
            if augment is not None:
                remaining &= augment.take(chosen)
            chosen = chosen | table.take(remaining)
        if first is None:
            cols[q] = chosen
        else:  # every set of at most q alternatives is chosen whole
            cols[q] = masks
            cols[q, scatter_at[first:]] = chosen
    return cols


_BLOCK_BYTES = 1 << 18  # a group of the edge kernel's runs stays in L2, like serialize's blocks


def capacity_block(n: int) -> int:
    """How many capacities' chosen and rejected columns over 2**n sets, as
    uint16, fit in ``_BLOCK_BYTES``: 2**(16-n), so every capacity at n <= 12,
    4 at n = 14 and 1 at n = 16."""
    return max(1, _BLOCK_BYTES >> (n + 2))


def chosen_over_edges(
    n: int, chosen: np.ndarray, rejected: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """The edges of chosen-over relations, one ``(n, n)`` bool matrix per run
    of sets: a ``(len(starts), n, n)`` array.

    ``chosen`` and ``rejected`` are 1-D uint16 bitmask columns, one entry per
    set, and ``starts`` holds the position of each run's first set,
    ascending, each run holding at least one set (:func:`relation_runs`
    builds them).  ``edges[r, a, b]`` is true when some set of run r has a
    in its ``chosen`` mask and b in its ``rejected`` mask.  Bits at or above
    n of either column are ignored.

    Per alternative a, ``((chosen >> a) & 1) * 0xFFFF`` is all ones at each
    set whose chosen mask holds a; ANDed with the rejected masks and
    OR-reduced over each run (``np.bitwise_or.reduceat``), it leaves per run
    the mask of row a, so a row is one pass over the columns.  Consecutive
    runs go in groups whose columns fit ``_BLOCK_BYTES`` (a longer run is a
    group alone), so that a group's n passes read it from L2: every capacity
    of a table in one group at n <= 12, one at a time at n = 16.
    """
    starts = np.asarray(starts, dtype=np.intp)
    bounds = starts.tolist() + [len(chosen)]
    rows = np.empty((n, len(starts)), dtype=np.uint16)
    first = 0
    while first < len(starts):
        last = first + 1  # the group: runs first..last-1
        while last < len(starts) and 4 * (bounds[last + 1] - bounds[first]) <= _BLOCK_BYTES:
            last += 1
        lo, hi = bounds[first], bounds[last]
        ch, rej, at = chosen[lo:hi], rejected[lo:hi], starts[first:last] - lo
        hit = np.empty_like(ch)
        for a in range(n):
            np.right_shift(ch, a, out=hit)
            hit &= 1
            hit *= np.uint16(0xFFFF)
            hit &= rej
            np.bitwise_or.reduceat(hit, at, out=rows[a, first:last])
        first = last
    return ((rows.T[..., None] >> np.arange(n, dtype=np.uint16)) & 1).astype(bool)


def relation_runs(
    n: int, cols: np.ndarray, capacities: range, witness: bool = False, revealed: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chosen-over columns of the table ``cols`` at ``capacities``, a
    consecutive range within 1..n, as the runs ``(chosen, rejected,
    starts)`` of :func:`chosen_over_edges`, one run per capacity.

    Per set S of capacity q's run: C(S, q) and S minus C(S, q); with
    ``revealed``, both also drop C(S, q-1) (C(S, 0) is the empty set), which
    gives the revealed preference columns of CWARP and CSARP.  A run holds
    every set, at the position of its mask, or with ``witness`` the sets of
    exactly q+1 alternatives alone, one run of the masks sorted by size
    (:func:`_by_size`) gathered from ``cols[q]`` (and ``cols[q-1]``); at
    q = n no set has q+1 alternatives, and the run holds the empty set
    alone, which gives no edge.  On a table that fills capacity and keeps
    heritage (and, with ``revealed``, is monotone) the witness runs give the
    edges of the runs over every set; see ``ChoiceTable.witness_sets_apply``.
    """
    lo, hi = capacities.start, capacities.stop
    if witness:
        by_size, _, larger = _by_size(n)
        runs = [by_size[larger[q] : larger[q + 1]] if q < n else by_size[:1] for q in capacities]
        bounds = np.cumsum([0] + [len(run) for run in runs])
        sets = np.concatenate([by_size[:0], *runs])
        cur, prev = np.empty((2, len(sets)), dtype=np.uint16)
        for q, run, at in zip(capacities, runs, bounds.tolist()):
            cols[q].take(run, out=cur[at : at + len(run)])
            if revealed:
                cols[q - 1].take(run, out=prev[at : at + len(run)])
    else:
        sets, cur, prev = _masks(n), cols[lo:hi], cols[lo - 1 : hi - 1]
        bounds = np.arange(hi - lo + 1) << n
    chosen, rejected = (cur & ~prev, ~(cur | prev)) if revealed else (cur, ~cur)
    rejected &= sets
    return chosen.reshape(-1), rejected.reshape(-1), bounds[:-1]


def _rows(cols: np.ndarray) -> np.ndarray:
    """A table's ``cols[1:]`` as rows: per set S, C(S, 1..n) as uint16,
    padded with empty capacities to 16, so each row is 32 bytes.  A table
    builds this copy once, as ``ChoiceTable.rows``."""
    n = len(cols) - 1
    out = np.zeros((cols.shape[1], MASK_BITS), dtype=np.uint16)
    out[:, :n] = cols[1:].T
    return out


def _removal_violations(n: int, cols: np.ndarray, condition: str = "heritage") -> np.ndarray:
    """Per set S, whether removing one b in S breaks ``condition`` at some
    q: "heritage", C(S, q) minus b not contained in C(S minus b, q), with
    S minus b nonempty; or "outcast", b rejected (not in C(S, q)) and
    C(S minus b, q) != C(S, q).

    ``cols`` is the table as rows (``ChoiceTable.rows``).  The sets holding b
    and their partners without b are the two halves of a reshape, so each
    alternative costs one pass over the table and no gather.  The condition
    leaves the offending bits of each cell, and a set's 16 cells are read
    as four 64-bit words to find whether any bit is left.
    """
    viol = np.zeros(1 << n, dtype=bool)
    for b in range(n):
        bit = np.uint16(1 << b)
        pairs = cols.reshape(-1, 2, 1 << b, MASK_BITS)
        without, with_b = pairs[:, 0], pairs[:, 1]
        if condition == "heritage":
            bad = with_b & ~without & ~bit
            bad[0, 0] = 0  # S = {b}: S minus b is empty
        else:  # all ones where b is not in C(S, q), else zero
            bad = (with_b ^ without) & (((with_b >> b) & 1) - np.uint16(1))
        words = bad.view(np.uint64)
        left = (words[..., 0] | words[..., 1] | words[..., 2] | words[..., 3]) != 0
        viol.reshape(-1, 2, 1 << b)[:, 1] |= left
    return viol


def _unfilled(n: int, cols: np.ndarray) -> np.ndarray:
    """``out[q-1, S]``: whether |C(S, q)| != min(|S|, q), the cells of the
    table ``cols`` that break capacity filling, over q = 1..n; the empty set
    is never flagged.  A table keeps its first cell as
    ``ChoiceTable.unfilled``."""
    sizes = np.bitwise_count(_masks(n))
    want = np.minimum(sizes, np.arange(1, n + 1, dtype=np.uint8)[:, None])
    out = np.bitwise_count(cols[1:]) != want
    out[:, 0] = False
    return out


def gs_first_violation(n: int, rows: np.ndarray, heritage: np.ndarray) -> np.ndarray:
    """First (S, q, a, b) in canonical order with a chosen from (S, q) but
    not from (S without b, q); all -1 when no violation exists.

    ``rows`` is a table as rows (``ChoiceTable.rows``, from :func:`_rows`),
    and ``heritage`` its :func:`_removal_violations` of heritage
    (``ChoiceTable.heritage``): the first flagged set is refined in
    (q, a, b) order.
    """
    out = np.full(4, -1, dtype=np.int64)
    if not heritage.any():
        return out
    s = int(np.argmax(heritage))
    # refine within the first violating set in (q, a, b) order
    for q in range(1, n + 1):
        c = int(rows[s, q - 1])
        for a in range(n):
            if (c >> a) & 1:
                for b in range(n):
                    if b != a and (s >> b) & 1:
                        sub = s & ~(1 << b)
                        if sub and not (int(rows[sub, q - 1]) >> a) & 1:
                            out[:] = (s, q, a, b)
                            return out
    return out


def path_independence_first(
    n: int, rows: np.ndarray, heritage: np.ndarray, filling: bool
) -> np.ndarray:
    """First (S, T, q) with C(S|T, q) != C(C(S,q)|C(T,q), q); all -1 when
    the table, given as ``rows`` (``ChoiceTable.rows``), is path
    independent.  The caller decides the rest once per table: ``heritage``,
    the flags of :func:`_removal_violations` (``ChoiceTable.heritage``), and
    ``filling``, whether the table is capacity-filling (no cell of
    :func:`_unfilled`).

    The verdict comes from heritage and outcast, which together are
    equivalent to path independence for a choice rule, whose C(S, q) is a
    subset of S (Aizerman-Malishevski 1981; see Chambers-Yenmez 2017,
    "Choice and matching").  Heritage implies outcast on a capacity-filling
    table (substitutes and the law of aggregate demand give path
    independence; Aygun-Sonmez 2013).  Proof: if b in S is rejected at
    (S, q), then C(S, q) != S, so filling gives |C(S, q)| = q and
    |S minus b| >= q, so |C(S minus b, q)| = q too; heritage, C(S, q)
    minus b within C(S minus b, q), is C(S, q) within C(S minus b, q), and
    two sets of q members, one within the other, are equal.  So the
    heritage flags decide the verdict, and a table that is not
    capacity-filling runs only the outcast condition of the removal scan,
    since its heritage flags are already known; both cost O(n^2 2^n).
    Only when they fail are the sets S searched in ascending order, on the
    rows that the removal scan reads.  Each S is compared with every T and
    q at once, and the search stops at the first S with a violation.  The
    condition is symmetric in S and T, so a violation (S, T) with T < S
    would have stopped the search at T: only T >= S need comparing.
    """
    out = np.full(3, -1, dtype=np.int64)
    if not heritage.any() and (filling or not _removal_violations(n, rows, "outcast").any()):
        return out
    masks = _masks(n)
    body = rows[:, :n]
    q_idx = np.arange(n)
    for s in range(1, 1 << n):
        union = body[s | masks[s:]]
        merged = body[s:] | body[s]
        viol = union != body[merged, q_idx]
        if viol.any():
            t, q = divmod(int(np.argmax(viol)), n)
            out[:] = (s, s + t, q + 1)
            return out
    return out

"""The vectorized kernels must agree bit for bit with straight per-set loops
on every output, including witness tie-breaks.

The loop versions below are the reference oracle: each walks sets, then
capacities, then alternatives in canonical order, exactly as the kernel's
contract is stated, and writes into a preallocated output.
"""

import itertools
import random
from math import comb

import numpy as np
import pytest

from lexichoice import (
    BOSTON_BUILDERS,
    CapacityWise,
    CapacityWiseLists,
    Lexicographic,
    PriorityOrdering,
    Responsive,
    materialize,
)
from lexichoice import (ALL_CHECKS, ChoiceTable, FChoiceTable, MAX_ALTERNATIVES, _kernels,
                        make_family)

from conftest import random_ordering, random_profile, set_major, universe

_NO_PICK = 1 << 40  # sentinel rank larger than any real one


# --- loop oracles --------------------------------------------------------------


def _cwlex_choice(n, keys, s, q, feas=None):
    # keys: (n, n, n); keys[q-1, t, alt] is the rank used at step t+1 of
    # capacity q.  Unused steps (t >= q) are never read.  With feas (a
    # boolean array over all 2**n masks) a pick must keep the chosen set
    # feasible, and the pass stops when no feasible augmentation exists.
    remaining = s
    chosen = 0
    for t in range(q):
        best = -1
        best_key = _NO_PICK
        for a in range(n):
            if (remaining >> a) & 1 and (feas is None or feas[chosen | (1 << a)]):
                k = keys[q - 1, t, a]
                if k < best_key:
                    best_key = k
                    best = a
        if best < 0:
            break
        chosen |= 1 << best
        remaining &= ~(1 << best)
    return chosen


def _cwlex_fill_loops(n, keys, table, feas=None):
    for s in range(1, 1 << n):
        for q in range(1, n + 1):
            table[s, q] = _cwlex_choice(n, keys, s, q, feas)


def _flex_fill(n, keys, feas):
    # the kernel under test reads a family's augmentation table, the loop
    # oracle its membership
    return _kernels.cwlex_fill(n, keys, _kernels._augmentations(n, feas))


def _chosen_over_wit_columns_loops(n, chosen, rejected):
    # first S (ascending, row 0 included) with a in chosen[S] and b in
    # rejected[S]; a first S of 0 reads as no witness, as in the kernel
    wit = np.zeros((n, n), dtype=np.int64)
    found = np.zeros((n, n), dtype=bool)
    for s in range(len(chosen)):
        for a in range(n):
            if (chosen[s] >> a) & 1:
                for b in range(n):
                    if (rejected[s] >> b) & 1 and not found[a, b]:
                        found[a, b] = True
                        wit[a, b] = s
    return wit


def _chosen_over_edges_loops(n, chosen, rejected):
    # edges[a, b]: some S (row 0 included) with a in chosen[S] and b in
    # rejected[S]
    edges = np.zeros((n, n), dtype=bool)
    for s in range(len(chosen)):
        for a in range(n):
            if (chosen[s] >> a) & 1:
                for b in range(n):
                    if (rejected[s] >> b) & 1:
                        edges[a, b] = True
    return edges


def _gs_first_violation_loops(n, table, out):
    # First (S, q, a, b) in canonical order with a chosen from (S, q) but
    # not from (S without b, q).  out stays all -1 when no violation exists.
    size = 1 << n
    for s in range(1, size):
        for q in range(1, n + 1):
            c = table[s, q]
            for a in range(n):
                if (c >> a) & 1:
                    for b in range(n):
                        if b != a and (s >> b) & 1:
                            sub = s & ~(1 << b)
                            if sub == 0:
                                continue
                            if not (table[sub, q] >> a) & 1:
                                out[0] = s
                                out[1] = q
                                out[2] = a
                                out[3] = b
                                return


def _removal_violation_at(n, table, s, condition):
    # Whether some b in S and q break the condition at S: heritage, C(S, q)
    # minus b not within C(S minus b, q), S minus b nonempty; or outcast, b
    # rejected and C(S minus b, q) != C(S, q).
    for b in range(n):
        if not (s >> b) & 1:
            continue
        sub = s & ~(1 << b)
        for q in range(1, n + 1):
            c, d = table[s, q], table[sub, q]
            if condition == "heritage" and sub and c & ~d & ~(1 << b):
                return True
            if condition == "outcast" and not (c >> b) & 1 and c != d:
                return True
    return False


def _removal_violations_loops(n, table, condition):
    return [s > 0 and _removal_violation_at(n, table, s, condition) for s in range(1 << n)]


def _path_independence_first_loops(n, table, out):
    # First (S, T, q) with C(S|T, q) != C(C(S,q)|C(T,q), q).
    size = 1 << n
    for s in range(1, size):
        for t in range(1, size):
            for q in range(1, n + 1):
                u = s | t
                m = table[s, q] | table[t, q]
                if table[u, q] != table[m, q]:
                    out[0] = s
                    out[1] = t
                    out[2] = q
                    return


# --- inputs --------------------------------------------------------------------


def _random_keys(rng, n):
    keys = np.zeros((n, n, n), dtype=np.int64)
    for q in range(n):
        for t in range(n):
            row = list(range(n))
            rng.shuffle(row)
            keys[q, t] = row
    return keys


def _random_family(rng, n):
    """Membership of a random downward-closed family holding every singleton."""
    feas = np.zeros(1 << n, dtype=np.bool_)
    feas[0] = True
    for a in range(n):
        feas[1 << a] = True
    for mask in range(1, 1 << n):
        if feas[mask]:
            continue
        feas[mask] = rng.random() < 0.4
    # force downward closure
    for mask in range((1 << n) - 1, 0, -1):
        if feas[mask]:
            sub = (mask - 1) & mask
            while sub:
                feas[sub] = True
                sub = (sub - 1) & mask
    return feas


def _prefix_extends(keys, q):
    """Whether capacity q's first q-1 orderings are capacity q-1's."""
    return np.array_equal(keys[q - 1, : q - 1], keys[q - 2, : q - 1])


def _structured_keys(rng, n):
    """Key tensors of the rule kinds the library builds, by name."""
    out = {
        "lexicographic": Lexicographic(random_profile(rng, n)).keys(),
        "responsive": Responsive(random_ordering(rng, n)).keys(),
    }
    w, o = random_ordering(rng, n), random_ordering(rng, n)
    for variant, build in BOSTON_BUILDERS.items():
        out[variant] = CapacityWise(build(w, o, n)).keys()
    # one ordering repeated q times per capacity, as extraction rebuilds a
    # capacity-wise responsive rule; neighbours share it only sometimes
    pool = [random_ordering(rng, n) for _ in range(2)]
    out["responsive_per_capacity"] = CapacityWise(CapacityWiseLists(tuple(
        (rng.choice(pool),) * q for q in range(1, n + 1)))).keys()
    # each list extends the previous one at some capacities only
    lists = [(random_ordering(rng, n),)]
    for q in range(2, n + 1):
        if rng.random() < 0.5:
            lists.append(lists[-1] + (random_ordering(rng, n),))
        else:
            lists.append(tuple(random_ordering(rng, n) for _ in range(q)))
    out["partial_prefix"] = CapacityWise(CapacityWiseLists(tuple(lists))).keys()
    return out


def _random_table(rng, n, mutations=3):
    """A materialized rule table (valid) or a mutated (adversarial) one."""
    profile = random_profile(rng, n)
    t = materialize(Lexicographic(profile), universe(n))
    entries = set_major(t)
    if rng.random() < 0.5:
        _perturb(rng, n, entries, mutations)
    return entries


def _perturb(rng, n, entries, mutations):
    """Set a few entries to random subsets of their sets, each within
    capacity, to exercise fail paths."""
    for _ in range(mutations):
        s = rng.randrange(1, 1 << n)
        q = rng.randrange(1, n + 1)
        sub = s
        for a in range(n):
            if (s >> a) & 1 and rng.random() < 0.5:
                sub &= ~(1 << a)
        while sub.bit_count() > q:
            sub &= sub - 1
        entries[s, q] = sub


def _cols(table):
    """A set-major matrix ``table[S, q]`` in the kernels' ``(n+1, 2**n)``
    uint16 layout, unchecked."""
    return np.ascontiguousarray(np.asarray(table).T, dtype=np.uint16)


def _rows(table):
    """A set-major matrix ``table[S, q]`` as the padded uint16 rows that the
    removal scan reads (``ChoiceTable.rows``), unchecked."""
    return _kernels._rows(_cols(table))


def _first_violations(n, table):
    """Both first-violation kernels on a set-major matrix, each given the
    rows, heritage flags and capacity filling verdict that a ``ChoiceTable``
    keeps."""
    rows = _rows(table)
    heritage = _kernels._removal_violations(n, rows)
    filling = not _kernels._unfilled(n, _cols(table)).any()
    return (_kernels.gs_first_violation(n, rows, heritage),
            _kernels.path_independence_first(n, rows, heritage, filling))


def _assert_first_violations_agree(n, table):
    gs, pi = _first_violations(n, table)
    want = np.full(4, -1, dtype=np.int64)
    _gs_first_violation_loops(n, table, want)
    assert np.array_equal(gs, want)
    want = np.full(3, -1, dtype=np.int64)
    _path_independence_first_loops(n, table, want)
    assert np.array_equal(pi, want)


# --- kernel vs oracle ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cwlex_fill_paths_agree(rng, n):
    for _ in range(20):
        keys = _random_keys(rng, n)
        want = np.zeros((1 << n, n + 1), dtype=np.int64)
        _cwlex_fill_loops(n, keys, want)
        assert np.array_equal(_kernels.cwlex_fill(n, keys).T, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flex_fill_paths_agree(rng, n):
    for _ in range(20):
        keys = np.broadcast_to(_random_keys(rng, n)[0], (n, n, n))
        feas = _random_family(rng, n)
        want = np.zeros((1 << n, n + 1), dtype=np.int64)
        _cwlex_fill_loops(n, keys, want, feas)
        assert np.array_equal(_flex_fill(n, keys, feas).T, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cwlex_fill_agrees_on_structured_keys(n):
    # random keys almost never let capacity q start from capacity q-1's
    # choice; these rule kinds do at every q or at some q only
    rng = random.Random(f"structured-{n}")
    extends = set()  # (kind, whether capacity q's list extends q-1's)
    for _ in range(5):
        for kind, keys in _structured_keys(rng, n).items():
            extends.update((kind, _prefix_extends(keys, q)) for q in range(2, n + 1))
            want = np.zeros((1 << n, n + 1), dtype=np.int64)
            _cwlex_fill_loops(n, keys, want)
            assert np.array_equal(_kernels.cwlex_fill(n, keys).T, want), kind
    if n >= 4:  # compromise first breaks its prefix at q = 4
        for kind in ("lexicographic", "responsive", "rotating"):
            assert (kind, False) not in extends
        for kind in ("walk_open", "compromise", "responsive_per_capacity", "partial_prefix"):
            assert (kind, False) in extends and (kind, True) in extends


def _assert_top_tables_agree(n, orderings, masks):
    # each ordering's top table against the loop oracle's first pick: the
    # bit of the best alternative of the mask, 0 for the empty mask
    top = _kernels._top_tables(n, np.array(orderings, dtype=np.int64).reshape(-1, n))
    for k, key in enumerate(orderings):
        table = top(k)
        assert table.dtype == np.uint16 and table.shape == (1 << n,)
        keys = np.broadcast_to(np.array(key, dtype=np.int64), (1, 1, n))
        for m in masks:
            assert table[m] == _cwlex_choice(n, keys, m, 1), (key, m)


@pytest.mark.parametrize("n", range(1, 11))
def test_top_tables_agree_on_every_mask(n):
    # the low half holds n // 2 alternatives: none at n = 1, and one fewer
    # than the high half at odd n
    rng = random.Random(f"top-{n}")
    orderings = [tuple(range(n)), tuple(range(n))[::-1]]
    orderings += [random_ordering(rng, n).key().tolist() for _ in range(3)]
    _assert_top_tables_agree(n, orderings, range(1 << n))


def test_top_tables_at_sixteen_alternatives():
    n = 16
    rng = random.Random("top-16")
    masks = [0, 1, 1 << 15, 0xFF, 0xFF00, 0xFFFF] + rng.sample(range(1, 1 << n), 300)
    orderings = [tuple(range(n)), tuple(range(n))[::-1]]
    orderings += [random_ordering(rng, n).key().tolist() for _ in range(4)]
    _assert_top_tables_agree(n, orderings, masks)


@pytest.mark.parametrize("n", [2, 3, 7, 10])
def test_cwlex_fill_switches_orderings_at_every_step(n):
    # rotating lists (w, o, w, ...) extend each other, so each capacity makes
    # one pick, with w and o in turn: every step needs the other top table
    rng = random.Random(f"rotating-{n}")
    w = random_ordering(rng, n)
    o = PriorityOrdering(w.rank[::-1])
    keys = CapacityWise(BOSTON_BUILDERS["rotating"](w, o, n)).keys()
    assert all(_prefix_extends(keys, q) for q in range(2, n + 1))
    steps = [keys[q - 1, q - 1].tolist() for q in range(1, n + 1)]
    assert all(a != b for a, b in zip(steps, steps[1:]))
    _assert_top_tables_agree(n, [w.key().tolist(), o.key().tolist()], range(1 << n))
    want = np.zeros((1 << n, n + 1), dtype=np.int64)
    _cwlex_fill_loops(n, keys, want)
    assert np.array_equal(_kernels.cwlex_fill(n, keys).T, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_flex_fill_agrees_on_lexicographic_keys(n):
    rng = random.Random(f"flex-lexicographic-{n}")
    for _ in range(10):
        keys = Lexicographic(random_profile(rng, n)).keys()
        feas = _random_family(rng, n)
        want = np.zeros((1 << n, n + 1), dtype=np.int64)
        _cwlex_fill_loops(n, keys, want, feas)
        assert np.array_equal(_flex_fill(n, keys, feas).T, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_flex_fill_agrees_on_capacity_wise_keys(n):
    # with an augmentation table every capacity picks for every set, starting
    # anew where its list does not extend q-1's: the sets of at most q
    # alternatives are not chosen whole when some of them are infeasible
    rng = random.Random(f"flex-capacity-wise-{n}")
    for _ in range(4):
        kinds = {"random": _random_keys(rng, n), **_structured_keys(rng, n)}
        for kind, keys in kinds.items():
            feas = _random_family(rng, n)
            want = np.zeros((1 << n, n + 1), dtype=np.int64)
            _cwlex_fill_loops(n, keys, want, feas)
            assert np.array_equal(_flex_fill(n, keys, feas).T, want), kind


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_augmentations_agree(n):
    rng = random.Random(f"augmentations-{n}")
    for _ in range(10):
        feas = _random_family(rng, n)
        want = [sum(1 << b for b in range(n) if feas[m | (1 << b)]) for m in range(1 << n)]
        assert _kernels._augmentations(n, feas).tolist() == want


def _runs(columns):
    """The pairs ``(chosen, rejected)`` of 1-D columns, one run each, as the
    uint16 runs ``(chosen, rejected, starts)`` of ``chosen_over_edges``."""
    chosen = np.concatenate([np.zeros(0, np.uint16)] + [np.asarray(c, np.uint16) for c, _ in columns])
    rejected = np.concatenate([np.zeros(0, np.uint16)] + [np.asarray(r, np.uint16) for _, r in columns])
    starts = np.cumsum([0] + [len(c) for c, _ in columns])[:-1]
    return chosen, rejected, starts


def _agree_per_run(n, columns):
    """The kernel's edges of the runs ``columns`` at once, checked per run
    against the loop oracle, which reads only the sets nonempty in both
    columns: an edge does not depend on which set witnesses it."""
    got = _kernels.chosen_over_edges(n, *_runs(columns))
    assert got.dtype == np.bool_ and got.shape == (len(columns), n, n)
    for edges, (chosen, rejected) in zip(got, columns):
        chosen, rejected = np.asarray(chosen, np.uint16), np.asarray(rejected, np.uint16)
        live = np.flatnonzero((chosen != 0) & (rejected != 0))
        want = _chosen_over_edges_loops(n, chosen[live].tolist(), rejected[live].tolist())
        assert np.array_equal(edges, want)
    return got


def _cut(column, lengths):
    """``column`` cut into consecutive runs, their lengths cycling through
    ``lengths``; the last run takes what is left."""
    out, at, k = [], 0, 0
    while at < len(column):
        out.append(column[at : at + lengths[k % len(lengths)]])
        at += len(out[-1])
        k += 1
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chosen_over_edges_agree_on_table_columns(rng, n):
    # chosen-over and revealed columns of valid and perturbed tables, each
    # capacity one run over every set; row 0 is empty there, so the edges
    # are exactly the nonzero first witnesses
    masks = np.arange(1 << n, dtype=np.int64)
    for _ in range(20):
        table = _random_table(rng, n)
        columns = []
        for q in range(1, n + 1):
            prev, cur = table[:, q - 1], table[:, q]
            columns.append((cur, masks & ~cur))
            if q >= 2:
                columns.append((cur & ~prev, masks & ~cur & ~prev))
        got = _agree_per_run(n, columns)
        for edges, (chosen, rejected) in zip(got, columns):
            assert np.array_equal(edges, _chosen_over_wit_columns_loops(n, chosen, rejected) != 0)
            assert np.array_equal(_kernels.chosen_over_edges(n, *_runs([(chosen, rejected)]))[0], edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chosen_over_edges_agree_on_arbitrary_columns(n):
    # row 0 set, chosen and rejected overlapping, rejected bits at or
    # above n; each pair of columns as one run, and cut into runs of 1, 2,
    # 3 and 5 sets
    rng = np.random.default_rng(n)
    size = 1 << n

    def agree(chosen, rejected):
        want = _chosen_over_edges_loops(n, chosen, rejected)
        assert np.array_equal(_agree_per_run(n, [(chosen, rejected)])[0], want)
        for lengths in ([1], [2], [3], [5], [1, 2, 3, 5]):
            _agree_per_run(n, list(zip(_cut(chosen, lengths), _cut(rejected, lengths))))
        return want

    for _ in range(10):
        chosen = rng.integers(0, size, size, dtype=np.int64)
        rejected = rng.integers(0, size, size, dtype=np.int64)
        agree(chosen, rejected)
        agree(chosen, chosen | rejected)
        agree(chosen, rejected | (rejected << n))
        assert not agree(np.zeros(size, dtype=np.int64), rejected).any()
    # a pair witnessed only at S = 0 is an edge
    chosen = np.zeros(size, dtype=np.int64)
    chosen[0] = 1
    rejected = np.full(size, size - 1, dtype=np.int64)
    assert agree(chosen, rejected)[0].all()


@pytest.mark.parametrize("n", range(1, MAX_ALTERNATIVES + 1))
def test_word_wide_chosen_over_edges_agree_on_sixteen_bit_columns(n):
    # Random uint16 columns set bits at and above n in both, which the
    # kernel ignores; sparse ones (a few nonempty sets) keep the relation
    # partial and the per-set oracle fast at every n
    rng = np.random.default_rng(n)
    size = 1 << n
    low = np.uint16(size - 1)

    def agree(chosen, rejected):
        want = _chosen_over_edges_loops(n, chosen.tolist(), rejected.tolist())
        got = _kernels.chosen_over_edges(n, chosen, rejected, [0])
        assert got.dtype == np.bool_ and got.shape == (1, n, n)
        assert np.array_equal(got[0], want)
        assert np.array_equal(_kernels.chosen_over_edges(n, chosen & low, rejected & low, [0])[0], want)

    def bits(count):  # 16-bit masks of about four bits each
        return (rng.integers(0, 1 << 16, count, dtype=np.uint16)
                & rng.integers(0, 1 << 16, count, dtype=np.uint16))

    for _ in range(2):
        if n <= 10:
            agree(rng.integers(0, 1 << 16, size, dtype=np.uint16),
                  rng.integers(0, 1 << 16, size, dtype=np.uint16))
        chosen, rejected = np.zeros((2, size), dtype=np.uint16)
        at = rng.integers(0, size, 8)
        chosen[at], rejected[at] = bits(8), bits(8)
        agree(chosen, rejected)
    if n >= 2:  # a at one set and b at the next pair nothing
        chosen, rejected = np.zeros((2, size), dtype=np.uint16)
        chosen[size - 2], rejected[size - 1] = 1, 2
        assert not _kernels.chosen_over_edges(n, chosen, rejected, [0]).any()


@pytest.mark.parametrize("n", range(1, MAX_ALTERNATIVES + 1))
def test_blocked_chosen_over_edges_agree_with_single_columns(n):
    # Q runs of 2**n sets go in groups of capacity_block(n) runs, those that
    # fit _BLOCK_BYTES: all of them at n <= 12, 8 at n = 13 (a remainder of
    # 4 and 5), 4 at n = 14 (a remainder of 1 and 2), 2 at n = 15 and 1 at
    # n = 16; zero runs give no edges.  At n >= 14 runs of other lengths,
    # some longer than a group, straddle the group bounds.
    # Sparse columns keep the per-set oracle fast
    rng = np.random.default_rng(100 + n)
    size = 1 << n
    assert _kernels.capacity_block(n) == (1 << 16) >> n
    assert _kernels.capacity_block(n) * 4 * size == _kernels._BLOCK_BYTES

    def column(length):
        out = np.zeros(length, dtype=np.uint16)
        if n <= 10:
            out[:] = rng.integers(0, 1 << 16, length, dtype=np.uint16)
        else:
            out[rng.integers(0, length, 8)] = rng.integers(0, 1 << 16, 8, dtype=np.uint16)
        return out

    for count in (n, n - 1, 0):
        columns = [(column(size), column(size)) for _ in range(count)]
        got = _agree_per_run(n, columns)
        for q, pair in enumerate(columns):
            assert np.array_equal(got[q], _kernels.chosen_over_edges(n, *_runs([pair]))[0])
    if n >= 14:
        lengths = [size // 2 + 1, size + 3, 7, size - 5, 3 * size // 2, 1, size // 3]
        columns = []
        for length in lengths:
            chosen, rejected = column(length), column(length)
            # a pair at the first and last set of the run
            chosen[[0, -1]], rejected[[0, -1]] = 1 << rng.integers(n), 1 << rng.integers(n)
            columns.append((chosen, rejected))
        _agree_per_run(n, columns)


def test_chosen_over_edges_below_one_word():
    # short runs: n = 0 and n = 1, one or two sets per run, a run holding
    # only the empty set, and zero runs
    assert _kernels.chosen_over_edges(0, np.zeros(1, np.uint16), np.ones(1, np.uint16), [0]).shape == (1, 0, 0)
    values = [0, 1, 2, 3, 0xFFFF]
    for c0, c1, r0, r1 in itertools.product(values, repeat=4):
        chosen, rejected = np.array([c0, c1], np.uint16), np.array([r0, r1], np.uint16)
        want = _chosen_over_edges_loops(1, [c0, c1], [r0, r1])
        assert np.array_equal(_kernels.chosen_over_edges(1, chosen, rejected, [0])[0], want)
        split = _kernels.chosen_over_edges(1, chosen, rejected, [0, 1])
        assert np.array_equal(split[0], _chosen_over_edges_loops(1, [c0], [r0]))
        assert np.array_equal(split[1], _chosen_over_edges_loops(1, [c1], [r1]))
    for n in (1, 2, 8, 16):
        empty = np.zeros(1, np.uint16)
        assert not _kernels.chosen_over_edges(n, empty, empty, [0]).any()
        none = np.zeros(0, np.uint16)
        assert _kernels.chosen_over_edges(n, none, none, np.zeros(0, np.intp)).shape == (0, n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9])
def test_relation_runs_lay_out_one_run_per_capacity(rng, n):
    # over every set capacity q's run is its row of the table, a set at the
    # position of its mask; with witness it is the sets of exactly q+1
    # alternatives, ascending, and the empty set alone at q = n; a range
    # of no capacity gives zero runs
    cols = ChoiceTable(universe(n), _random_table(rng, n)).cols
    masks = np.arange(1 << n)
    for lo, hi in ((1, n + 1), (2, n + 1), (n, n + 1), (2, 2)):
        capacities = range(lo, hi)
        for revealed in (False, True):
            chosen, rejected, starts = _kernels.relation_runs(n, cols, capacities, revealed=revealed)
            assert chosen.dtype == rejected.dtype == np.uint16
            assert starts.tolist() == [(q - lo) << n for q in capacities]
            for i, q in enumerate(capacities):
                run = slice(i << n, (i + 1) << n)
                prev = cols[q - 1] if revealed else np.zeros_like(cols[q])
                assert np.array_equal(chosen[run], cols[q] & ~prev)
                assert np.array_equal(rejected[run], masks & ~(cols[q] | prev))
            chosen, rejected, starts = _kernels.relation_runs(n, cols, capacities, True, revealed)
            bounds = starts.tolist() + [len(chosen)]
            assert [b - a for a, b in zip(bounds, bounds[1:])] == [
                comb(n, q + 1) if q < n else 1 for q in capacities]
            if not revealed:
                sets = (chosen | rejected).astype(np.int64)
                for q, a, b in zip(capacities, bounds, bounds[1:]):
                    run = sets[a:b]
                    if q == n:
                        assert run.tolist() == [0] and chosen[a] == 0
                    else:
                        assert all(np.diff(run) > 0) and all(np.bitwise_count(run) == q + 1)
                        assert np.array_equal(chosen[a:b], cols[q, run])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_first_violation_kernels_agree(rng, n):
    for mutations in (1, 3, 16):
        for _ in range(10):
            _assert_first_violations_agree(n, _random_table(rng, n, mutations))


def _is_choice_rule(table) -> bool:
    """Whether every entry of the set-major matrix ``table`` is a subset of
    its set with at most q members, so that row 0 and column 0 are empty."""
    return all(
        not (int(c) & ~s or int(c).bit_count() > q)
        for s, row in enumerate(table.tolist()) for q, c in enumerate(row)
    )


def _assert_agree_or_refused(n, table):
    """The first-violation kernels agree with their loops on a choice rule,
    and building a table refuses any other matrix."""
    if _is_choice_rule(table):
        _assert_first_violations_agree(n, table)
    else:
        with pytest.raises(ValueError):
            ChoiceTable(universe(n), table)


def test_first_violation_kernels_agree_on_every_small_table():
    # every table at n = 1, row 0 included; at n = 2 every table whose
    # entries are subsets of their sets (256), and one column repeated at
    # each capacity with any entries at all, row 0 included (256): a matrix
    # whose C(S, q) is not a subset of S with at most q members is refused
    for col in itertools.product(range(2), repeat=2):
        _assert_agree_or_refused(1, np.array([[0, col[0]], [0, col[1]]]))
    subsets = [[m for m in range(4) if m & ~s == 0] for s in range(4)]
    for col1 in itertools.product(*subsets[1:]):
        for col2 in itertools.product(*subsets[1:]):
            table = np.zeros((4, 3), dtype=np.int64)
            table[1:, 1], table[1:, 2] = col1, col2
            _assert_first_violations_agree(2, table)
    for col in itertools.product(range(4), repeat=4):
        table = np.zeros((4, 3), dtype=np.int64)
        table[:, 1] = table[:, 2] = col
        _assert_agree_or_refused(2, table)


def test_first_violation_kernels_agree_on_every_single_column_rule():
    # every choice function at n = 3 (4,096), repeated at each capacity
    subsets = [[m for m in range(8) if m & ~s == 0] for s in range(8)]
    for col in itertools.product(*subsets[1:]):
        table = np.zeros((8, 4), dtype=np.int64)
        table[1:, 1:] = np.array(col)[:, None]
        _assert_first_violations_agree(3, table)


def _filling_choices(n, s, q):
    """Every subset of s of min(|s|, q) alternatives."""
    size = min(s.bit_count(), q)
    return [m for m in range(1 << n) if m & ~s == 0 and m.bit_count() == size]


def test_path_independence_on_every_capacity_filling_table():
    # every capacity-filling table at n = 3, each capacity's column chosen
    # on its own (24 x 3 x 1 = 72): there path independence is decided by
    # the heritage flags alone, without the outcast scan
    n = 3
    cells = [(s, q) for q in range(1, n + 1) for s in range(1, 1 << n)]
    verdicts = []
    for picks in itertools.product(*(_filling_choices(n, s, q) for s, q in cells)):
        table = np.zeros((1 << n, n + 1), dtype=np.int64)
        for (s, q), m in zip(cells, picks):
            table[s, q] = m
        _assert_first_violations_agree(n, table)
        verdicts.append(bool((_first_violations(n, table)[1] < 0).all()))
    assert len(verdicts) == 72 and 0 < sum(verdicts) < 72


def _threshold_table(rng, n, whole):
    """C(S, q) = S & A_q for |S| <= k_q, else empty, with A_q nonempty and
    of at most q alternatives: heritage holds and capacity filling fails;
    with ``whole`` k_q = n, and the table is path independent, else
    k_q < n, and outcast fails at some set."""
    masks = np.arange(1 << n, dtype=np.int64)
    table = np.zeros((1 << n, n + 1), dtype=np.int64)
    for q in range(1, n + 1):
        keep = rng.randrange(1, 1 << n) | 1 << rng.randrange(n)
        while keep.bit_count() > q:
            keep &= keep - 1
        k = n if whole else rng.randrange(1, n)
        table[:, q] = np.where(np.bitwise_count(masks) <= k, masks & keep, 0)
    return table


@pytest.mark.parametrize("n", range(4, 11))
def test_path_independence_branches_agree(scan_calls, n):
    # the kernel's (S, T, q), or -1, against the loop oracle on both sides
    # of the capacity-filling branch: capacity-filling tables (ordering-built
    # ones pass; with cells moved to other sets of the same size they
    # usually fail) never run the outcast scan, and tables that fail
    # capacity filling but keep heritage run it.  Path independent tables
    # only at n <= 8, where the 4**n oracle is fast enough.
    rng = random.Random(f"branches-{n}")
    scans = scan_calls["removal"]  # the condition of each removal scan
    kinds = []
    for _ in range(3):
        valid = set_major(materialize(Lexicographic(random_profile(rng, n)), universe(n)))
        moved = np.array(valid)
        for _ in range(rng.randrange(1, 4)):
            s, q = 0, n
            while s.bit_count() <= q:  # a set with more than one choice at q
                s, q = rng.randrange(1, 1 << n), rng.randrange(1, n)
            moved[s, q] = rng.choice([m for m in _filling_choices(n, s, q) if m != moved[s, q]])
        kinds += [("filling", moved), ("not_filling", _threshold_table(rng, n, whole=False))]
        if n <= 8:
            kinds += [("filling", valid), ("not_filling", _threshold_table(rng, n, whole=True))]
    for kind, table in kinds:
        scans.clear()
        _assert_first_violations_agree(n, table)
        assert scans == (["heritage", "outcast"] if kind == "not_filling" else ["heritage"]), kind


# --- the sets of q+1 alternatives -----------------------------------------------

RELATIONS = ("wrarp", "cwarp", "cwrarp")


def _relation_edges_loops(n, cols, revealed):
    """Per capacity (q = 1..n, or 2..n with ``revealed``), the loop oracle's
    edges over every set of the ``(n+1, 2**n)`` table ``cols``."""
    masks = np.arange(1 << n)
    out = []
    for q in range(2 if revealed else 1, n + 1):
        cur = cols[q].astype(np.int64)
        prev = cols[q - 1].astype(np.int64) if revealed else np.zeros_like(cur)
        out.append(_chosen_over_edges_loops(n, (cur & ~prev).tolist(),
                                            (masks & ~(cur | prev)).tolist()))
    return np.array(out, dtype=bool).reshape(-1, n, n)


def _assert_witness_sets_agree(n, entries):
    """On the table of the set-major matrix ``entries``: the gate of the
    sets of q+1 alternatives opens exactly when capacity filling and
    heritage hold, and, for revealed edges, monotonicity too; with the
    gate open the edges of those sets equal the loop oracle's over every set;
    and WRARP, CWARP and CWRARP report as on a table that derived none of the
    facts, which reads every set.  Returns the four facts, and whether the
    revealed edges of the sets of q+1 alternatives equal those of every set."""
    u = universe(n)
    full, gated = ChoiceTable(u, entries), ChoiceTable(u, entries)
    want = {name: ALL_CHECKS[name](full) for name in RELATIONS}
    assert not gated.witness_sets_apply() and not gated.witness_sets_apply(revealed=True)
    facts = (gated.unfilled is None, not gated.heritage.any(), gated.nonmonotone is None)
    assert gated.witness_sets_apply() == all(facts[:2])
    assert gated.witness_sets_apply(revealed=True) == all(facts)
    assert np.array_equal(gated.chosen_over, _relation_edges_loops(n, gated.cols, False))

    def edges(witness, revealed):
        capacities = range(2 if revealed else 1, n + 1)
        runs = _kernels.relation_runs(n, gated.cols, capacities, witness, revealed)
        return _kernels.chosen_over_edges(n, *runs)

    for revealed in (False, True):
        assert np.array_equal(edges(False, revealed), _relation_edges_loops(n, gated.cols, revealed))
    assert np.array_equal(edges(True, False), edges(False, False)) or not all(facts[:2])
    same = np.array_equal(edges(True, True), edges(False, True))
    assert same or not all(facts)
    assert {name: ALL_CHECKS[name](gated) for name in RELATIONS} == want
    assert not any(full.witness_sets_apply(r) for r in (False, True))
    return facts, same


def test_witness_sets_on_every_capacity_filling_table():
    # every capacity-filling table at n = 2 (2) and n = 3 (72): each fills
    # capacity, and heritage and monotonicity hold or fail
    seen = set()
    for n in (2, 3):
        cells = [(s, q) for q in range(1, n + 1) for s in range(1, 1 << n)]
        count = 0
        for picks in itertools.product(*(_filling_choices(n, s, q) for s, q in cells)):
            table = np.zeros((1 << n, n + 1), dtype=np.int64)
            for (s, q), m in zip(cells, picks):
                table[s, q] = m
            facts, _ = _assert_witness_sets_agree(n, table)
            assert facts[0]
            seen.add(facts)
            count += 1
        assert count == {2: 2, 3: 72}[n]
    assert {f[1:] for f in seen} == {(True, True), (True, False), (False, True), (False, False)}


def _break_subsets(rng, n, entries):
    """Move one C(S, q) with |S| > q to a set of its size with an alternative
    outside S, which building a table refuses."""
    s, q = 0, n
    while s.bit_count() <= q or s == (1 << n) - 1:
        s, q = rng.randrange(1, 1 << n), rng.randrange(1, n)
    inside = [a for a in range(n) if (entries[s, q] >> a) & 1]
    outside = [a for a in range(n) if not (s >> a) & 1]
    entries[s, q] ^= 1 << rng.choice(inside) | 1 << rng.choice(outside)


@pytest.mark.parametrize("n", range(2, 11))
def test_witness_sets_on_perturbed_rule_tables(n):
    # lexicographic, responsive and capacity-wise tables, as built and
    # perturbed so that they fail capacity filling (cells set to random
    # subsets) or heritage (a cell moved to another subset of its size);
    # capacity-wise rules with fresh capacities fail monotonicity.  A cell
    # moved outside its set is refused when the table is built.
    rng = random.Random(f"witness-sets-{n}")
    keys = _structured_keys(rng, n)
    seen = set()
    for name in ("lexicographic", "responsive", "rotating", "partial_prefix"):
        built = _kernels.cwlex_fill(n, keys[name]).T.astype(np.int64)
        variants = [built]
        if n > 2:
            dropped, moved, outside = (np.array(built) for _ in range(3))
            _perturb(rng, n, dropped, 2)
            s, q = 0, n
            while s.bit_count() <= q:
                s, q = rng.randrange(1, 1 << n), rng.randrange(1, n)
            moved[s, q] = rng.choice([m for m in _filling_choices(n, s, q) if m != moved[s, q]])
            _break_subsets(rng, n, outside)
            with pytest.raises(ValueError, match="is not a subset of S$"):
                ChoiceTable(universe(n), outside)
            variants += [dropped, moved]
        for entries in variants:
            seen.add(_assert_witness_sets_agree(n, entries)[0])
    assert (True, True, True) in seen
    if n > 3:
        assert (True, True, False) in seen
        for fact in range(2):
            assert any(not facts[fact] for facts in seen), fact


def test_revealed_witness_sets_need_monotonicity():
    # on capacity-wise tables that fill capacity and keep heritage but are
    # not monotone, the sets of q+1 alternatives can miss a revealed edge:
    # the gate asks for monotonicity
    rng = random.Random("need-monotonicity")
    missed = 0
    for n in range(3, 9):
        for _ in range(8):
            entries = _kernels.cwlex_fill(n, _random_keys(rng, n)).T.astype(np.int64)
            facts, same = _assert_witness_sets_agree(n, entries)
            assert facts[:2] == (True, True)
            missed += not facts[2] and not same
    assert missed > 0


# --- past the small tables: uint16 masks -----------------------------------------

# The kernels compute on uint16 masks.  At n = 7..10 the removal scan pads
# each row of capacities to 16 cells and reads it as four 64-bit words, for
# n that is and is not a multiple of 4; fewer tables than above, since the
# loop oracles cost 2**n (4**n for path independence) per table.
WIDE = [7, 8, 9, 10]


@pytest.mark.parametrize("n", WIDE)
def test_cwlex_fill_agrees_on_wide_tables(n):
    rng = random.Random(f"wide-fill-{n}")
    kinds = {"random": _random_keys(rng, n), **_structured_keys(rng, n)}
    for kind, keys in kinds.items():
        want = np.zeros((1 << n, n + 1), dtype=np.int64)
        _cwlex_fill_loops(n, keys, want)
        assert np.array_equal(_kernels.cwlex_fill(n, keys).T, want), kind


@pytest.mark.parametrize("n", WIDE)
def test_flex_fill_agrees_on_wide_tables(n):
    rng = random.Random(f"wide-flex-{n}")
    for keys in (_random_keys(rng, n)[0], Lexicographic(random_profile(rng, n)).keys()[0]):
        keys = np.broadcast_to(keys, (n, n, n))
        feas = _random_family(rng, n)
        want = np.zeros((1 << n, n + 1), dtype=np.int64)
        _cwlex_fill_loops(n, keys, want, feas)
        assert np.array_equal(_flex_fill(n, keys, feas).T, want)


@pytest.mark.parametrize("n", WIDE)
def test_first_violation_kernels_agree_on_wide_tables(n):
    rng = random.Random(f"wide-violation-{n}")
    valid = set_major(materialize(Lexicographic(random_profile(rng, n)), universe(n)))
    if n <= 8:
        _assert_first_violations_agree(n, valid)
    else:  # the 4**n path-independence oracle is too slow on a passing table
        want = np.full(4, -1, dtype=np.int64)
        _gs_first_violation_loops(n, valid, want)
        gs, pi = _first_violations(n, valid)
        assert np.array_equal(gs, want)
        assert (pi == -1).all()  # ordering-built tables are path independent
    for mutations in (1, 3, 16):
        for _ in range(3):
            table = np.array(valid)
            _perturb(rng, n, table, mutations)
            _assert_first_violations_agree(n, table)


def test_fills_at_sixteen_alternatives():
    # the table is the fill's uint16 staging array, row q holding C(., q):
    # it is C-contiguous and owns its data, so a table freezes it uncopied
    n = 16
    rng = random.Random("fill-16")
    u = universe(n)
    rows = rng.sample(range(1, 1 << n), 200)
    # a fresh capacity q from q = 6 on picks only for the sets of more than q
    # alternatives: sets of exactly q and q + 1 sit on either side of that edge
    for size in range(1, n + 1):
        for _ in range(3):
            rows.append(sum(1 << a for a in rng.sample(range(n), size)))
    lex = Lexicographic(random_profile(rng, n)).keys()
    keys = _random_keys(rng, n)
    masks = np.arange(1 << n)
    feas = np.bitwise_count(masks & 0x0FF0) <= 2  # downward closed, all singletons
    fills = {
        "lexicographic": (_kernels.cwlex_fill(n, lex),
                          lambda s, q: _cwlex_choice(n, lex, s, q)),
        "capacity_wise": (_kernels.cwlex_fill(n, keys),
                          lambda s, q: _cwlex_choice(n, keys, s, q)),
        "flex": (_flex_fill(n, lex, feas),
                 lambda s, q: _cwlex_choice(n, lex, s, q, feas)),
    }
    for kind, (table, choose) in fills.items():
        assert table.dtype == np.uint16 and table.shape == (n + 1, 1 << n), kind
        assert table.flags.c_contiguous and table.flags.owndata, kind
        assert ChoiceTable._of_fill(u, table).cols is table, kind
        assert not table[0].any() and not table[:, 0].any(), kind
        for s in rows:
            assert table[1:, s].tolist() == [choose(s, q) for q in range(1, n + 1)], (kind, s)


def test_engine_bound_fits_the_kernel_masks():
    # raising core.MAX_ALTERNATIVES past 16 needs wider kernel masks first
    assert MAX_ALTERNATIVES <= _kernels.MASK_BITS == np.iinfo(np.uint16).bits
    n = _kernels.MASK_BITS + 1
    with pytest.raises(ValueError, match="16-bit masks"):
        _kernels.cwlex_fill(n, np.zeros((n, n, n), dtype=np.int64))


def _refuses_entry(n, entries):
    # both table classes refuse the matrix when they are built, with the
    # error that names its first invalid entry, and leave it unchanged
    u = universe(n)
    before = entries.copy()
    family = make_family(u, [u.full_mask])
    for build in (lambda e: ChoiceTable(u, e), lambda e: FChoiceTable(u, family, e)):
        with pytest.raises(ValueError, match=r"^entry at \(S=0x5, q=2\) is not a subset of S$"):
            build(entries)
    assert np.array_equal(entries, before)


@pytest.mark.parametrize("entry", [1 << 16, -1])
def test_entries_past_sixteen_bits_are_refused(entry):
    # a set-major matrix may hold any int64; before a table narrows its
    # entries to 16 bits it refuses one with a bit outside the n
    # alternatives, which covers every entry that does not fit
    n = 3
    entries = set_major(materialize(Lexicographic(random_profile(random.Random(n), n)),
                                    universe(n)))
    entries[5, 2] = entry
    _refuses_entry(n, entries)


def test_entries_outside_the_universe_are_refused():
    # C({a, c}, 2) = 2**15 fits 16 bits but not the 3 alternatives.  Read as
    # it stands, the table fails gross substitutes at (S = {a, b, c}, q = 2,
    # a, b); the removal scan would flag {a, c} through bit 15 alone, which
    # the refinement over alternatives 0..n-1 cannot place, and the
    # path-independence search would index the table with bit 15 set.
    n = 3
    entries = set_major(materialize(Lexicographic(random_profile(random.Random(n), n)),
                                    universe(n)))
    entries[0b101, 2] = 1 << 15
    want = np.full(4, -1, dtype=np.int64)
    _gs_first_violation_loops(n, entries, want)
    assert want.tolist() == [0b111, 2, 0, 1]
    _refuses_entry(n, entries)
    entries[0b101, 2] = 1 << n  # the lowest bit outside the universe
    _refuses_entry(n, entries)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6] + WIDE)
def test_removal_scan_agrees_on_any_sixteen_bit_entries(n):
    # the scan itself reads any 16-bit entries, bits at or above n but below
    # 16 like any other, though ChoiceTable refuses such entries when it is
    # built
    rng = random.Random(f"removal-{n}")
    valid = set_major(materialize(Lexicographic(random_profile(rng, n)), universe(n)))
    for mutations in (1, 3, 16):
        for _ in range(2):
            table = np.array(valid)
            for _ in range(mutations):
                s, q = rng.randrange(1 << n), rng.randrange(1, n + 1)
                table[s, q] = rng.choice([rng.randrange(1 << 16), 1 << rng.randrange(n, 16),
                                          s & rng.randrange(1 << n)])
            narrow = _rows(table)
            for condition in ("heritage", "outcast"):
                want = _removal_violations_loops(n, table, condition)
                assert _kernels._removal_violations(n, narrow, condition).tolist() == want


def test_removal_scan_at_sixteen_alternatives():
    # capacities 13..16 sit in the last of the four 64-bit words of a row
    n = 16
    rng = random.Random("removal-16")
    table = set_major(materialize(Lexicographic(random_profile(rng, n)), universe(n)))
    sets = set(rng.sample(range(1, 1 << n), 200))
    for q in (1, 4, 5, 8, 9, 12, 13, 16):
        s = rng.randrange(1, 1 << n)
        table[s, q] = rng.choice([s & rng.randrange(1 << n), rng.randrange(1 << 16)])
        sets.update([s] + [s | 1 << b for b in range(n)])
    for condition in ("heritage", "outcast"):
        viol = _kernels._removal_violations(n, _rows(table), condition)
        for s in sorted(sets):
            assert viol[s] == _removal_violation_at(n, table, s, condition), (s, condition)

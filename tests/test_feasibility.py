import dataclasses
import random

import numpy as np
import pytest

from lexichoice import (
    ExtractionError,
    _kernels,
    FeasibilityFamily,
    PriorityProfile,
    Problem,
    check_csarp,
    check_f_capacity_filling,
    check_monotonicity,
    extract_flex_profile,
    flex_materialize,
    make_family,
    ordering_from_labels,
    replay_f_witness,
)
from lexichoice.core import ChoiceTable, iter_bits, popcount
from lexichoice.feasibility import FChoiceTable, _f_edges

from conftest import (
    feasible,
    mask_of,
    members_of,
    naive_flex_choice,
    random_profile,
    set_major,
    universe,
)


def random_family(rng: random.Random, n: int) -> FeasibilityFamily:
    u = universe(n)
    count = rng.randrange(1, 4)
    maximal = []
    for _ in range(count):
        mask = 0
        for a in range(n):
            if rng.random() < 0.6:
                mask |= 1 << a
        maximal.append(mask or 1)
    return make_family(u, maximal)


def explicit_sets(f: FeasibilityFamily) -> set[frozenset[int]]:
    return {
        frozenset(members_of(mask))
        for mask in range(1 << f.n)
        if feasible(f, mask)
    }


def test_make_family_prunes_and_closes():
    u = universe(4)
    f = make_family(u, ["abc", "ab", "d"])
    assert f.maximal == (u.mask_of("abc"), u.mask_of("d"))
    assert f.membership[u.mask_of("ab")]
    assert f.membership[u.mask_of("abc")]
    assert not f.membership[u.mask_of("abd")]
    # singletons always feasible, even outside every maximal set
    f2 = make_family(u, ["ab"])
    assert f2.membership[u.mask_of("c")]
    assert not f2.membership[u.mask_of("cd")]
    assert f2.membership[0]
    with pytest.raises(ValueError, match="^maximal set outside the universe$"):
        make_family(universe(2), [0b100])
    with pytest.raises(ValueError, match="^unknown alternative 'z'$"):
        make_family(universe(2), ["az"])


def test_family_refuses_masks_outside_its_alternatives():
    # a negative mask would make every set feasible, and a bit at or above
    # n names no alternative
    for maximal in [(-1,), (0b11000,), (0b011, 0b1000)]:
        with pytest.raises(ValueError, match="^maximal set outside the universe$"):
            FeasibilityFamily(3, maximal)
    for n in (-1, _kernels.MASK_BITS + 1):
        with pytest.raises(ValueError, match="16-bit masks"):
            FeasibilityFamily(n, ())
    assert FeasibilityFamily(0, ()).membership.tolist() == [True]
    assert FeasibilityFamily(3, (0b111,)).membership.all()


def test_family_arrays_match_oracle(rng):
    # membership and augment are built once, read-only, and agree with the
    # per-mask oracle; dataclasses.replace builds them anew
    for n in range(1, 9):
        for _ in range(6):
            f = random_family(rng, n)
            assert f.membership.dtype == np.bool_ and f.augment.dtype == np.uint16
            assert f.membership.shape == f.augment.shape == (1 << n,)
            for arr in (f.membership, f.augment):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
            assert f.membership.tolist() == [feasible(f, m) for m in range(1 << n)]
            assert f.augment.tolist() == [
                sum(1 << b for b in range(n) if feasible(f, m | 1 << b))
                for m in range(1 << n)
            ]
    # only the singletons: each adds only itself, and the empty set any
    g = dataclasses.replace(f, maximal=(1,))
    assert g.membership.tolist() == [m.bit_count() <= 1 for m in range(1 << n)]
    assert g.augment.tolist() == [(1 << n) - 1] + [
        m if m.bit_count() == 1 else 0 for m in range(1, 1 << n)
    ]


def test_family_over_other_alternatives_is_refused(rng):
    # unrefused, a family over 4 alternatives fills a 3-alternative table
    # that passes both checkers, and one over 2 indexes past its arrays
    u = universe(3)
    profile = random_profile(rng, 3)
    entries = set_major(flex_materialize(profile, make_family(u, [u.full_mask]), u))
    for n in (2, 4):
        f = make_family(universe(n), [(1 << n) - 1])
        message = f"^feasibility family over {n} alternatives, universe of 3$"
        with pytest.raises(ValueError, match=message):
            flex_materialize(profile, f, u)
        with pytest.raises(ValueError, match=message):
            FChoiceTable(u, f, entries)


def test_augmentations_run_once_per_family(augmentation_calls):
    # the fill, both checkers, their replays and extraction read the family's
    # one augmentation table; replace builds a new family, and so a new table
    u = universe(4)
    f = make_family(u, ["abc", "cd"])
    assert augmentation_calls == [4]
    profile = PriorityProfile(
        tuple(ordering_from_labels(u, r) for r in ("abcd", "bcda", "dcba", "cadb"))
    )
    t = flex_materialize(profile, f, u)
    assert flex_materialize(extract_flex_profile(t), f, u) == t
    entries = set_major(t)
    entries[u.mask_of("bcd"), 1] = u.mask_of("d")  # a CSARP cycle
    entries[u.mask_of("abcd"), 3] = u.mask_of("ab")  # under-filled: c fits
    bad = FChoiceTable(u, f, entries)
    for check, axiom in ((check_f_capacity_filling, "f_capacity_filling"),
                         (check_csarp, "csarp")):
        rep = check(bad)
        assert not rep.ok and replay_f_witness(bad, axiom, rep.witness)
        assert check(t).ok
    with pytest.raises(ExtractionError):
        extract_flex_profile(bad)
    assert augmentation_calls == [4]
    dataclasses.replace(f, maximal=(u.full_mask,))
    assert augmentation_calls == [4, 4]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flex_materialize_matches_naive_oracle(rng, n):
    u = universe(n)
    for _ in range(10):
        f = random_family(rng, n)
        sets = explicit_sets(f)
        profile = random_profile(rng, n)
        t = flex_materialize(profile, f, u)
        assert FChoiceTable(u, f, set_major(t)) == t  # a fill is a valid table
        for s in range(1, 1 << n):
            for q in range(1, n + 1):
                want = mask_of(
                    naive_flex_choice(profile, sets, members_of(s), q)
                )
                assert t.choose(Problem(s, q)) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flex_tables_pass_characterizing_axioms(rng, n):
    u = universe(n)
    for _ in range(10):
        f = random_family(rng, n)
        t = flex_materialize(random_profile(rng, n), f, u)
        assert check_f_capacity_filling(t).ok
        assert check_monotonicity(t).ok
        assert check_csarp(t).ok


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flex_extraction_round_trip(rng, n):
    u = universe(n)
    for _ in range(10):
        f = random_family(rng, n)
        t = flex_materialize(random_profile(rng, n), f, u)
        recovered = extract_flex_profile(t)
        assert flex_materialize(recovered, f, u) == t


def _patched_table(t: FChoiceTable, edits) -> FChoiceTable:
    entries = set_major(t)
    for (s, q), v in edits.items():
        entries[s, q] = v
    return FChoiceTable(t.universe, t.family, entries)


def test_f_capacity_filling_failure_and_replay(rng):
    n = 3
    u = universe(n)
    f = make_family(u, ["ab", "bc", "ac"])  # pairs feasible, triple not
    t = flex_materialize(random_profile(rng, n), f, u)
    # make one entry under-filled although a feasible augmentation exists
    s = u.mask_of("abc")
    first = t.choose(Problem(s, 1))
    bad = _patched_table(t, {(s, 2): first})
    rep = check_f_capacity_filling(bad)
    assert not rep.ok
    assert replay_f_witness(bad, "f_capacity_filling", rep.witness)
    assert not replay_f_witness(t, "f_capacity_filling", rep.witness)


def test_f_capacity_filling_counts_an_overfull_cell_as_full():
    # C({a, b, c}, 1) = {a, b} holds more than q = 1 alternatives, and c
    # would keep it feasible: no table holds such a cell, since building one
    # refuses it, so the checker and its replay see only the under-filled
    # C({a, b, c}, 2) = {a}.
    u = universe(3)
    f = make_family(u, [u.full_mask])
    profile = PriorityProfile(tuple(ordering_from_labels(u, r) for r in ("abc", "bca", "cab")))
    t = flex_materialize(profile, f, u)
    assert check_f_capacity_filling(t).ok
    s = u.full_mask
    for edits in ({(s, 1): u.mask_of("ab"), (s, 2): u.mask_of("a")}, {(s, 1): u.mask_of("ab")}):
        with pytest.raises(ValueError, match=r"^entry at \(S=0x7, q=1\) exceeds capacity$"):
            _patched_table(t, edits)
    bad = _patched_table(t, {(s, 2): u.mask_of("a")})
    rep = check_f_capacity_filling(bad)
    assert rep.witness == {"S": ["a", "b", "c"], "q": 2, "alt": "b", "chosen": ["a"]}
    assert replay_f_witness(bad, "f_capacity_filling", rep.witness)


def test_csarp_failure_and_replay():
    n = 3
    u = universe(n)
    f = make_family(u, [u.full_mask])
    # hand-built cyclic behavior at capacity 1: from {a,b} pick a, from
    # {b,c} pick b, from {a,c} pick c
    entries = np.zeros((1 << n, n + 1), dtype=np.int64)
    pick1 = {0b011: 0b001, 0b110: 0b010, 0b101: 0b100, 0b111: 0b001}
    for s in range(1, 1 << n):
        for q in range(1, n + 1):
            if q == 1:
                entries[s, q] = pick1.get(s, s & -s)
            else:
                prev = entries[s, q - 1]
                rest = s & ~prev
                add = rest & -rest if rest else 0
                entries[s, q] = prev | add
    t = FChoiceTable(u, f, entries)
    rep = check_csarp(t)
    assert not rep.ok and rep.witness["q"] == 1
    cyc = rep.witness["cycle"]
    assert cyc[0] == cyc[-1] and len(set(cyc)) == len(cyc) - 1
    assert replay_f_witness(t, "csarp", rep.witness)
    with pytest.raises(ExtractionError):
        extract_flex_profile(t)


def test_csarp_cycle_witness_on_perturbed_flex_table():
    u = universe(4)
    f = make_family(u, ["abc", "cd"])
    profile = PriorityProfile(
        tuple(ordering_from_labels(u, r) for r in ("abcd", "bcda", "dcba", "cadb"))
    )
    entries = set_major(flex_materialize(profile, f, u))
    entries[u.mask_of("bcd"), 1] = u.mask_of("d")  # d over b and c at q = 1
    t = FChoiceTable(u, f, entries)
    rep = check_csarp(t)
    # the search starts at a, which lies on no cycle; a's stack prefix is cut
    assert rep.witness == {"q": 1, "cycle": ["b", "c", "d", "b"]}
    assert replay_f_witness(t, "csarp", rep.witness)
    assert not replay_f_witness(t, "csarp", {"q": 1, "cycle": ["b", "d", "c", "b"]})
    # on a table that passes, a lone alternative closes no cycle and an
    # empty list names none
    clean = flex_materialize(profile, f, u)
    assert check_csarp(clean).ok
    for cycle in (["a"], []):
        assert not replay_f_witness(clean, "csarp", {"q": 1, "cycle": cycle})
    with pytest.raises(ExtractionError) as err:
        extract_flex_profile(t)
    assert str(err.value) == "revealed preference at capacity 1 is cyclic"
    assert err.value.step == "capacity 1"


def _f_edges_loops(c, q):
    # Per-set loop: edge (a, b) when some S has a new at q, b present but
    # unchosen at q-1 and q, and C(S, q-1) plus b feasible.
    edges = set()
    for s in range(1, 1 << c.n):
        prev = int(c.cols[q - 1, s])
        cur = int(c.cols[q, s])
        new = cur & ~prev
        rej = (s & ~cur) & ~prev
        for a in members_of(new):
            for b in members_of(rej):
                if feasible(c.family, prev | (1 << b)):
                    edges.add((a, b))
    return edges


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_f_edges_match_loop_oracle(rng, n):
    u = universe(n)
    for trial in range(20):
        f = random_family(rng, n)
        entries = set_major(flex_materialize(random_profile(rng, n), f, u))
        if trial % 2:
            # perturb a few entries to random choices so that cycles appear
            for _ in range(3):
                s = rng.randrange(1, 1 << n)
                q = rng.randrange(1, n + 1)
                entries[s, q] = _random_choice(rng, f, s, q)
        t = FChoiceTable(u, f, entries)
        for q in range(1, n + 1):
            edges = _f_edges(t, q)
            assert edges.shape == (n, n)
            assert {(int(a), int(b)) for a, b in np.argwhere(edges)} == _f_edges_loops(t, q)
    for q in (0, n + 1):
        with pytest.raises(ValueError):
            _f_edges(t, q)


def _f_capacity_filling_loop(c):
    # Per-cell loop: the first (S, q) with |C(S, q)| < q and some a in S
    # outside C(S, q) keeping C(S, q) + a feasible; a is the lowest such.
    n = c.n
    for s in range(1, 1 << n):
        for q in range(1, n + 1):
            got = int(c.cols[q, s])
            if popcount(got) >= q:
                continue
            for a in iter_bits(s & ~got):
                if feasible(c.family, got | (1 << a)):
                    return {
                        "S": sorted(c.universe.labels_of(s)),
                        "q": q,
                        "alt": c.universe.labels[a],
                        "chosen": sorted(c.universe.labels_of(got)),
                    }
    return None


def _build_loop(u, f, entries):
    # Per-cell loop after the plain table's checks: the first empty or
    # infeasible entry in canonical order.
    ChoiceTable(u, entries)
    for mask in range(1, 1 << u.n):
        for q in range(1, u.n + 1):
            got = int(entries[mask, q])
            if got == 0:
                raise ValueError(f"empty choice at (S={mask:#x}, q={q})")
            if not feasible(f, got):
                raise ValueError(f"infeasible choice at (S={mask:#x}, q={q})")


def _error(fn, *args):
    try:
        fn(*args)
    except ValueError as e:
        return str(e)
    return None


def _random_choice(rng, f, s, q, under=False):
    """A random nonempty feasible subset of S with at most q members, and
    with ``under`` fewer than min(|S|, q) where one can be."""
    members = sorted(members_of(s))
    most = min(q, len(members))
    while True:
        pick = mask_of(rng.sample(members, rng.randint(1, max(1, most - under))))
        if feasible(f, pick):
            return pick


def _perturbed_flex_entries(rng, n, mode):
    u = universe(n)
    f = random_family(rng, n)
    entries = set_major(flex_materialize(random_profile(rng, n), f, u))
    for _ in range(rng.randrange(4)):
        s, q = rng.randrange(1, 1 << n), rng.randrange(1, n + 1)
        members = sorted(members_of(s))
        rng.shuffle(members)
        entries[s, q] = {
            "under": _random_choice(rng, f, s, q, under=True),  # valid, under-filled
            "any": rng.randrange(1 << n),  # often not a subset of S
            "whole": s,  # exceeds q when |S| > q
            "empty": 0,
            "filled": mask_of(members[:q]),  # capacity-filled, maybe infeasible
        }[mode]
    return u, f, entries


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flex_scans_match_loop_oracles(rng, n):
    # the build's refusal against the per-cell loop, and on each table it
    # builds, verdict and witness against the per-cell loop
    seen = set()
    for trial in range(60):
        mode = ("under", "any", "whole", "empty", "filled")[trial % 5]
        u, f, entries = _perturbed_flex_entries(rng, n, mode)
        msg = _error(FChoiceTable, u, f, entries)
        assert msg == _error(_build_loop, u, f, entries)
        seen.add(msg and msg.split(" at ")[0])
        if msg is not None:
            continue
        t = FChoiceTable(u, f, entries)
        rep = check_f_capacity_filling(t)
        want = _f_capacity_filling_loop(t)
        assert rep.verdict == ("pass" if want is None else "fail")
        assert rep.witness == want
        assert rep.ok or replay_f_witness(t, "f_capacity_filling", rep.witness)
        seen.add(rep.verdict)
    # both verdicts, a valid table, and each kind of refusal
    assert seen == {"pass", "fail", None, "entry", "empty choice", "infeasible choice"}


def test_unconstrained_family_reduces_to_plain_lexicographic(rng):
    n = 4
    u = universe(n)
    f = make_family(u, [u.full_mask])
    profile = random_profile(rng, n)
    from lexichoice import Lexicographic, materialize

    flex = flex_materialize(profile, f, u)
    plain = materialize(Lexicographic(profile), u)
    assert (flex.cols == plain.cols).all()

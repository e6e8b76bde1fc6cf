import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from lexichoice import (
    ALL_CHECKS,
    FLEX_CHECKS,
    MECHANISM_CHECKS,
    AxiomReport,
    CapacityWise,
    CapacityWiseLists,
    ChoiceStructure,
    ChoiceTable,
    DAMechanism,
    ExtractionError,
    FChoiceTable,
    Lexicographic,
    PriorityOrdering,

    Problem,
    Responsive,
    _kernels,
    check_capacity_filling,
    check_cwarp,
    check_cwrarp,
    check_f_capacity_filling,
    check_gross_substitutes,
    check_iaa,
    check_insertion,
    check_monotonicity,
    check_path_independence,
    check_wrarp,
    exhaustive_space,
    extract_lex_profile,
    make_family,
    materialize,
    replay_witness,
)
from lexichoice.axioms import _iaa_first
from lexichoice.core import iter_bits, popcount
from lexichoice.casebook import (
    favored_singleton_table,
    capacity_switch_table,
    tail_swap_table,
    constant_singleton_table,
    trigger_switch_table,
    exception_patch_table,
    switching_rule_table,
    walk_open_rule_5,
)

from conftest import (
    admissible_tables,
    members_of,
    naive_capacity_filling_holds,
    naive_gs_holds,
    naive_iaa_holds,
    naive_iaa_witness,
    naive_monotone_holds,
    random_choices,
    random_ordering,
    random_profile,
    set_major,
    table_from_function,
    universe,
)

THE_FOUR = ("capacity_filling", "gross_substitutes", "monotonicity", "iaa")


def _choose_fn(t: ChoiceTable):
    return lambda members, q: members_of(
        t.choose(Problem(sum(1 << a for a in members), q))
    )


def _fixture_tables():
    u5, wo = walk_open_rule_5()
    return {
        "switching_rule": switching_rule_table(),
        "favored_singleton": favored_singleton_table(),
        "capacity_switch": capacity_switch_table(),
        "tail_swap": tail_swap_table(),
        "constant_singleton": constant_singleton_table(),
        "trigger_switch": trigger_switch_table(),
        "exception_patch": exception_patch_table(),
        "walk_open": materialize(CapacityWise(wo), u5),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lexicographic_tables_pass_everything(rng, n):
    u = universe(n)
    for _ in range(8):
        t = materialize(Lexicographic(random_profile(rng, n)), u)
        for name in THE_FOUR + ("cwarp", "path_independence"):
            assert ALL_CHECKS[name](t).ok, name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_checkers_agree_with_naive_oracles_on_adversarial_tables(rng, n):
    u = universe(n)
    for _ in range(15):
        # random capacity-monotone-ish garbage: random subset choices
        def rand_choose(mask, q):
            members = [a for a in range(n) if (mask >> a) & 1]
            k = rng.randrange(0, min(len(members), q) + 1)
            return sum(1 << a for a in rng.sample(members, k))

        t = table_from_function(u, rand_choose)
        fn = _choose_fn(t)
        assert check_capacity_filling(t).ok == naive_capacity_filling_holds(fn, n)
        assert check_gross_substitutes(t).ok == naive_gs_holds(fn, n)
        assert check_monotonicity(t).ok == naive_monotone_holds(fn, n)
        assert check_iaa(t).ok == naive_iaa_holds(fn, n)


def _first_nonmonotone_loops(t: ChoiceTable):
    # the first (S, q), sets then capacities, with an alternative of
    # C(S, q) outside C(S, q+1), and the lowest such alternative
    for s in range(1, 1 << t.n):
        for q in range(1, t.n):
            lost = t.choose(Problem(s, q)) & ~t.choose(Problem(s, q + 1))
            if lost:
                return s, q, next(iter_bits(lost))
    return None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_monotonicity_is_decided_once_and_matches_the_loop_oracle(n):
    # ChoiceTable.nonmonotone is the checker's one scan; its witness is the
    # loop oracle's on random choice rules, which mostly fail, and on
    # lexicographic tables, which pass
    rng = random.Random(f"monotone-{n}")
    u = universe(n)
    for k in range(12):
        if k % 3:
            t = ChoiceTable(u, random_choices(rng, n))
        else:
            t = materialize(Lexicographic(random_profile(rng, n)), u)
        want = _first_nonmonotone_loops(t)
        rep = check_monotonicity(t)
        assert "nonmonotone" in vars(t)  # kept for CWARP's gate
        assert t.nonmonotone == (None if want is None else Problem(*want[:2]))
        if want is None:
            assert rep.ok
        else:
            s, q, alt = want
            assert rep.witness == {"S": sorted(u.labels_of(s)), "q": q, "alt": u.labels[alt]}
            assert replay_witness(t, "monotonicity", rep.witness)


def test_fixture_verdict_matrix():
    tables = _fixture_tables()
    # expected fail sets among the four characterizing axioms + cwarp
    expected_fails = {
        # besides the asymmetry failure, this rule violates removal
        # stability: drop the switching alternative from {b,c,d} and the
        # choice flips from b to c
        "switching_rule": {"cwarp", "gross_substitutes"},
        "favored_singleton": {"capacity_filling", "iaa"},
        "capacity_switch": {"monotonicity", "iaa"},
        "tail_swap": {"cwarp", "iaa"},
        "constant_singleton": {"capacity_filling"},
        "trigger_switch": {"gross_substitutes"},
        "exception_patch": {"monotonicity"},
        "walk_open": {"cwarp", "iaa"},
    }
    for name, t in tables.items():
        fails = {
            axiom
            for axiom in THE_FOUR + ("cwarp",)
            if not ALL_CHECKS[axiom](t).ok
        }
        assert fails == expected_fails[name], name


def test_witness_self_validation():
    for name, t in _fixture_tables().items():
        for axiom, chk in ALL_CHECKS.items():
            rep = chk(t)
            if not rep.ok:
                assert replay_witness(t, axiom, rep.witness), (name, axiom)


def test_replay_rejects_fabricated_witness():
    t = switching_rule_table()
    fake = {"S": ["a", "b"], "q": 1, "alt": "a"}
    assert not replay_witness(t, "monotonicity", fake)
    # removing a itself drops a from any table, gross substitutes or not
    u = universe(3)
    abc = materialize(Responsive(PriorityOrdering((0, 1, 2))), u)
    assert check_gross_substitutes(abc).ok
    fake = {"S": ["a", "b"], "q": 1, "a": "a", "b": "a"}
    assert not replay_witness(abc, "gross_substitutes", fake)
    with pytest.raises(ValueError):
        replay_witness(t, "no_such_axiom", {})


def test_cf_mon_cwarp_imply_iaa(rng):
    """capacity-filling + monotonicity + pairwise asymmetry imply the
    rejection-consistency axiom, on every fixture and random table."""
    tables = list(_fixture_tables().values())
    for n in (3, 4):
        for _ in range(10):
            tables.append(
                materialize(Lexicographic(random_profile(rng, n)), universe(n))
            )
    checked = 0
    for t in tables:
        if (
            check_capacity_filling(t).ok
            and check_monotonicity(t).ok
            and check_cwarp(t).ok
        ):
            assert check_iaa(t).ok
            checked += 1
    assert checked >= 20


def test_iaa_cwarp_agree_given_core_axioms(rng):
    """Given CF+GS+MON, the rejection-consistency axiom and pairwise
    asymmetry pass or fail together."""
    tables = list(_fixture_tables().values())
    for n in (3, 4, 5):
        for _ in range(10):
            tables.append(
                materialize(Lexicographic(random_profile(rng, n)), universe(n))
            )
    for t in tables:
        if (
            check_capacity_filling(t).ok
            and check_gross_substitutes(t).ok
            and check_monotonicity(t).ok
        ):
            assert check_iaa(t).ok == check_cwarp(t).ok


def _perturbed_lex_table(rng, n: int, mutations: int) -> ChoiceTable:
    """A random lexicographic table with ``mutations`` cells replaced by
    random subsets of their set, each within capacity."""
    return _perturbed_table(rng, Lexicographic(random_profile(rng, n)), n, mutations)


def _perturbed_table(rng, rule, n: int, mutations: int) -> ChoiceTable:
    """The table of ``rule`` with ``mutations`` cells replaced by random
    subsets of their set, each within capacity."""
    u = universe(n)
    entries = set_major(materialize(rule, u))
    for _ in range(mutations):
        s = rng.randrange(1, 1 << n)
        members = [a for a in range(n) if (s >> a) & 1]
        q = rng.randrange(1, n + 1)
        k = rng.randrange(0, min(len(members), q) + 1)
        entries[s, q] = sum(1 << a for a in rng.sample(members, k))
    return ChoiceTable(u, entries)


def _cwarp_pairwise_holds(c: ChoiceTable) -> bool:
    """Pairwise-set formulation of CWARP, the oracle of :func:`check_cwarp`.

    Quantifies over pairs of sets (S, T) directly: no a, b in both, unchosen
    at q-1 in either, may have a chosen over b in S and b chosen over a in T.
    """
    size = 1 << c.n
    for q in range(2, c.n + 1):
        for s in range(1, size):
            cs_prev = int(c.cols[q - 1, s])
            cs = int(c.cols[q, s])
            for t in range(1, size):
                ct_prev = int(c.cols[q - 1, t])
                ct = int(c.cols[q, t])
                excluded = s & t & ~(cs_prev | ct_prev)
                for a in iter_bits(excluded):
                    if not (cs >> a) & 1:
                        continue
                    for b in iter_bits(excluded):
                        if b == a:
                            continue
                        if (ct >> b) & 1 and not (cs >> b) & 1 and not (ct >> a) & 1:
                            return False
    return True


def test_cwarp_alternative_formulation_agrees(rng):
    tables = list(_fixture_tables().values())
    for mutations in (0, 1, 3):
        for _ in range(10):
            tables.append(_perturbed_lex_table(rng, 4, mutations))
    verdicts = set()
    for t in tables:
        ok = check_cwarp(t).ok
        assert ok == _cwarp_pairwise_holds(t)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_path_independence_follows_cf_gs(rng):
    for n in (3, 4):
        u = universe(n)
        for _ in range(10):
            t = materialize(Lexicographic(random_profile(rng, n)), u)
            assert check_path_independence(t).ok
    assert not check_path_independence(trigger_switch_table()).ok


def test_wrarp_cwrarp_signatures(rng):
    n = 4
    u = universe(n)
    # responsive: both pass
    t = materialize(Responsive(random_ordering(rng, n)), u)
    assert check_wrarp(t).ok and check_cwrarp(t).ok
    # capacity-wise responsive with distinct per-q orderings: wrarp passes,
    # cwrarp generically fails
    orders = [PriorityOrdering(p) for p in itertools.permutations(range(n))]
    lists = CapacityWiseLists(
        tuple(tuple([orders[q - 1]] * q) for q in range(1, n + 1))
    )
    t = materialize(CapacityWise(lists), u)
    assert check_wrarp(t).ok
    assert not check_cwrarp(t).ok
    # the pairwise-asymmetry fixture fails wrarp too
    rep = check_wrarp(switching_rule_table())
    assert not rep.ok


def _first_sets_loops(t, q, fresh):
    # (a, b) -> first S with a chosen and b rejected at q; with ``fresh``
    # both must also be unchosen at q-1 (the revealed preference relation)
    first = {}
    for s in range(1, 1 << t.n):
        cur = t.choose(Problem(s, q))
        prev = t.choose(Problem(s, q - 1)) if fresh and q > 1 else 0
        for a in members_of(cur & ~prev):
            for b in members_of(s & ~cur & ~prev):
                first.setdefault((a, b), s)
    return first


def _asymmetry_loops(t):
    # naive CWARP, WRARP and CWRARP witnesses (None on pass)
    labels = t.universe.labels
    sets = lambda s: sorted(t.universe.labels_of(s))
    pairs = [(a, b) for a in range(t.n) for b in range(a + 1, t.n)]
    out = {}
    for axiom, qs, fresh in (("cwarp", range(2, t.n + 1), True),
                             ("wrarp", range(1, t.n + 1), False)):
        out[axiom] = None
        for q in qs:
            first = _first_sets_loops(t, q, fresh)
            hit = [(a, b) for a, b in pairs if (a, b) in first and (b, a) in first]
            if hit:
                a, b = hit[0]
                out[axiom] = {"q": q, "a": labels[a], "b": labels[b],
                              "S_ab": sets(first[(a, b)]), "S_ba": sets(first[(b, a)])}
                break
    least = {}
    for q in range(1, t.n + 1):
        for pair, s in _first_sets_loops(t, q, False).items():
            least[pair] = min(least.get(pair, (s, q)), (s, q))
    hit = [(a, b) for a, b in pairs if (a, b) in least and (b, a) in least]
    out["cwrarp"] = None
    if hit:
        a, b = hit[0]
        (s_ab, q_ab), (s_ba, q_ba) = least[(a, b)], least[(b, a)]
        out["cwrarp"] = {"a": labels[a], "b": labels[b], "S_ab": sets(s_ab),
                         "q_ab": q_ab, "S_ba": sets(s_ba), "q_ba": q_ba}
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_asymmetry_witnesses_match_loop_oracle(rng, n):
    u = universe(n)
    for _ in range(15):
        def rand_choose(mask, q):
            members = [a for a in range(n) if (mask >> a) & 1]
            k = rng.randrange(0, min(len(members), q) + 1)
            return sum(1 << a for a in rng.sample(members, k))

        t = table_from_function(u, rand_choose)
        for axiom, want in _asymmetry_loops(t).items():
            assert ALL_CHECKS[axiom](t).witness == want, axiom
    # ordering-built tables with a few perturbed cells: sparse violations,
    # so witnesses come late and the relations are dense
    for mutations in (1, 2, 4):
        for _ in range(5):
            lists = CapacityWiseLists(tuple(
                tuple(random_ordering(rng, n) for _ in range(q)) for q in range(1, n + 1)
            ))
            for rule in (Lexicographic(random_profile(rng, n)),
                         Responsive(random_ordering(rng, n)), CapacityWise(lists)):
                t = _perturbed_table(rng, rule, n, mutations)
                for axiom, want in _asymmetry_loops(t).items():
                    assert ALL_CHECKS[axiom](t).witness == want, axiom
                    if want is not None:
                        assert replay_witness(t, axiom, want), axiom


def _naive_iaa_report(t: ChoiceTable) -> dict | None:
    """``naive_iaa_witness`` of the table, with labels for member sets."""
    want = naive_iaa_witness(_choose_fn(t), t.n)
    if want is not None:
        want = {k: v if k == "q" else sorted(t.universe.labels[a] for a in v)
                for k, v in want.items()}
    return want


def _derived(t: ChoiceTable) -> ChoiceTable:
    """A new table equal to ``t`` that has derived capacity filling,
    heritage and monotonicity, as a default check has before IAA."""
    d = ChoiceTable(t.universe, set_major(t))
    d.unfilled, d.heritage, d.nonmonotone
    return d


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_iaa_witness_matches_loop_oracle(rng, n):
    for mutations in (0, 1, 3, 10):
        for _ in range(10):
            t = _perturbed_lex_table(rng, n, mutations)
            want = _naive_iaa_report(t)
            assert check_iaa(t).witness == want
            # with the facts derived; a perturbed table mostly breaks one,
            # and then IAA scans every set
            assert check_iaa(_derived(t)).witness == want


def _iaa_capacity_verdicts(t: ChoiceTable, witness_sets: bool) -> list[bool]:
    """Per capacity q = 1..n-1, whether ``_iaa_first`` finds no violation
    among every set, or among the sets of q+2 alternatives alone."""
    by_size, _, larger = _kernels._by_size(t.n)
    bounds = larger + larger[-1:]  # no set has n+1 alternatives
    slot = np.empty(1 << t.n, dtype=np.uint16)
    out = []
    for q in range(1, t.n):
        sets = by_size[bounds[q + 1] : bounds[q + 2]] if witness_sets else _kernels._masks(t.n)[1:]
        out.append(_iaa_first(sets, t.cols[q].take(sets), t.cols[q + 1].take(sets), slot) is None)
    return out


def _assert_iaa_on_admissible(t: ChoiceTable) -> bool:
    """On a table that fills capacity, keeps heritage and is monotone: the
    IAA report, with the facts derived (the q+2 witness sets) and without
    (every set), equals the loop oracle's; the verdict of each capacity on
    its sets of q+2 alternatives is the full scan's; and IAA passes exactly
    when the lexicographic extraction succeeds and when CWARP passes.
    Returns whether IAA passes."""
    derived = _derived(t)
    assert derived.witness_sets_apply(revealed=True)
    assert not t.witness_sets_apply(revealed=True)
    want = _naive_iaa_report(t)
    assert check_iaa(t).witness == want
    assert check_iaa(derived).witness == want
    assert not t.witness_sets_apply(revealed=True)  # check_iaa derives no fact
    assert _iaa_capacity_verdicts(t, True) == _iaa_capacity_verdicts(t, False)
    try:
        extract_lex_profile(t)
        extracted = True
    except ExtractionError:
        extracted = False
    assert (want is None) == extracted == check_cwarp(t).ok == check_cwarp(derived).ok
    return want is None


@pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 12), (4, 384)])
def test_iaa_on_every_admissible_table(n, count):
    # every table at n <= 4 that fills capacity, keeps heritage and is
    # monotone; 288 of the 384 at n = 4 are lexicographic
    passed = [_assert_iaa_on_admissible(t) for t in admissible_tables(n)]
    assert len(passed) == count
    assert passed.count(True) == {1: 1, 2: 2, 3: 12, 4: 288}[n]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_iaa_on_random_admissible_capacity_wise_tables(n):
    # capacity-wise rules whose capacity q inserts one ordering into
    # capacity q-1's list, kept when they keep heritage and are monotone
    # (they fill capacity): at n >= 5 many of them fail IAA
    rng = random.Random(f"admissible-{n}")
    passed = []
    for _ in range(25):
        orderings = [random_ordering(rng, n)]
        lists = [tuple(orderings)]
        for q in range(2, n + 1):
            orderings.insert(rng.randrange(q), random_ordering(rng, n))
            lists.append(tuple(orderings))
        t = materialize(CapacityWise(CapacityWiseLists(tuple(lists))), universe(n))
        if t.unfilled is None and not t.heritage.any() and t.nonmonotone is None:
            passed.append(_assert_iaa_on_admissible(ChoiceTable(t.universe, set_major(t))))
    assert len(passed) >= 20 and set(passed) == {True, False}


def _low(mask: int) -> int:
    return mask & -mask


def _high(mask: int) -> int:
    return 1 << (mask.bit_length() - 1)


def _plant(base, kind: str, cells):
    """A copy of the set-major matrix ``base`` (or zeros, for the kinds
    that plant on the empty rule) with one violation at each (S, q)."""
    e = np.zeros_like(base) if kind in ("lone", "iaa") else base.copy()
    for s, q in cells:
        if kind == "drop":  # C(S, q) loses its lowest member
            e[s, q] &= e[s, q] - 1
        elif kind == "lone":  # {a} chosen at (S, q) only: a is lost at q + 1 and
            e[s, q] = _low(s)  # when any other b leaves S
        elif kind == "iaa":  # S minus c rejects what S rejects at q; S then adds a
            e[s, q] = _high(s)
            e[s, q + 1] = _high(s) | _low(s ^ _high(s))
        elif kind == "empty":
            e[s, q] = 0
        elif kind == "outside":  # not a subset of S
            e[s, q] = len(base) - 1
    return e


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    s, q = re.search(r"\(S=(0x[0-9a-f]+), q=(\d+)\)", str(info.value)).groups()
    return int(s, 16), int(q)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_witnesses_keep_their_order_on_the_capacity_major_table(n):
    # One violation at (S1, q1) and one at (S2, q2), S1 < S2 and q1 > q2.
    # The set-major searches report S1's; a search that took the first cell
    # of the (q, S) array capacity first would report S2's.  IAA scans
    # capacities in order, like its loop oracle, and building a ChoiceTable
    # checks capacity by capacity: both report S2's.
    rng = random.Random(f"witness-order-{n}")
    u = universe(n)
    lex = set_major(materialize(Lexicographic(random_profile(rng, n)), u))
    everything = make_family(u, [u.full_mask])
    q2 = rng.randrange(1, n - 1)
    q1 = rng.randrange(q2 + 1, n)
    sets = [s for s in range(1, u.full_mask) if popcount(s) >= 2]
    while True:  # S2 minus its top member must not be S1 (an IAA group)
        s1, s2 = sorted(rng.sample(sets, 2))
        if s2 ^ _high(s2) != s1:
            break

    def at(witness, s="S"):
        return u.mask_of(witness[s]), witness["q"]

    outcomes = {
        "capacity_filling": ("drop", lambda e: at(check_capacity_filling(ChoiceTable(u, e)).witness)),
        "gross_substitutes": ("lone", lambda e: at(check_gross_substitutes(ChoiceTable(u, e)).witness)),
        "monotonicity": ("lone", lambda e: at(check_monotonicity(ChoiceTable(u, e)).witness)),
        "iaa": ("iaa", lambda e: at(check_iaa(ChoiceTable(u, e)).witness, "S_prime")),
        "f_capacity_filling": ("drop", lambda e: at(
            check_f_capacity_filling(FChoiceTable(u, everything, e)).witness)),
        "FChoiceTable build": ("empty", lambda e: _raised(lambda: FChoiceTable(u, everything, e))),
        "first_difference": ("empty", lambda e: tuple(
            ChoiceTable(u, e).first_difference(ChoiceTable(u, lex)))),
        "ChoiceTable build": ("outside", lambda e: _raised(lambda: ChoiceTable(u, e))),
    }
    for name, (kind, outcome) in outcomes.items():
        assert outcome(_plant(lex, kind, [(s1, q1)])) == (s1, q1), name
        if name == "f_capacity_filling" and q2 == 1:
            # the drop empties C(S2, 1), which an FChoiceTable refuses
            for cells in ([(s2, q2)], [(s1, q1), (s2, q2)]):
                e = _plant(lex, kind, cells)
                assert _raised(lambda: FChoiceTable(u, everything, e)) == (s2, q2)
            continue
        assert outcome(_plant(lex, kind, [(s2, q2)])) == (s2, q2), name
        first = (s2, q2) if name in ("iaa", "ChoiceTable build") else (s1, q1)
        assert outcome(_plant(lex, kind, [(s1, q1), (s2, q2)])) == first, name


def test_insertion_property():
    u = universe(3)
    w = PriorityOrdering((0, 1, 2))
    o = PriorityOrdering((2, 1, 0))
    good = CapacityWiseLists(((w,), (w, o), (w, w, o)))
    assert check_insertion(good).ok
    bad = CapacityWiseLists(((w,), (w, o), (o, w, w)))
    rep = check_insertion(bad)
    assert not rep.ok and rep.witness["q"] == 3


def test_every_checker_returns_an_axiom_report():
    assert [f.name for f in dataclasses.fields(AxiomReport)] == ["axiom", "witness"]
    verdicts = set()

    def report(rep, name):
        assert type(rep) is AxiomReport and rep.axiom == name
        assert rep.ok == (rep.witness is None)
        assert rep.verdict == ("pass" if rep.witness is None else "fail")
        verdicts.add(rep.verdict)

    for t in _fixture_tables().values():
        for name, chk in ALL_CHECKS.items():
            report(chk(t), name)
        # with every set feasible, the flex checkers read the plain table
        f = make_family(t.universe, [t.universe.full_mask])
        for name, chk in FLEX_CHECKS.items():
            report(chk(FChoiceTable(t.universe, f, set_major(t))), name)
    w, o = PriorityOrdering((0, 1, 2)), PriorityOrdering((2, 1, 0))
    for lists in (((w,), (w, o), (w, w, o)), ((w,), (w, o), (o, w, w))):
        report(check_insertion(CapacityWiseLists(lists)), "insertion")
    u = universe(2)
    rules = {"x": Responsive(PriorityOrdering((0, 1))),
             "y": Responsive(PriorityOrdering((1, 0)))}
    mech = DAMechanism(ChoiceStructure(u, ("x", "y"), rules))
    space = exhaustive_space(u.labels, ("x", "y"))
    for name, chk in MECHANISM_CHECKS.items():
        report(chk(mech, space), name)
    assert verdicts == {"pass", "fail"}

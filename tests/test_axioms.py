import dataclasses
import itertools

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
    FChoiceTable,
    Lexicographic,
    PriorityOrdering,

    Problem,
    Responsive,
    check_capacity_filling,
    check_cwarp,
    check_cwrarp,
    check_gross_substitutes,
    check_iaa,
    check_insertion,
    check_monotonicity,
    check_path_independence,
    check_wrarp,
    exhaustive_space,
    make_family,
    materialize,
    replay_witness,
    revealed_pref,
)
from lexichoice.core import iter_bits
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
    members_of,
    naive_capacity_filling_holds,
    naive_gs_holds,
    naive_iaa_holds,
    naive_monotone_holds,
    random_ordering,
    random_profile,
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

        t = ChoiceTable.from_function(u, rand_choose)
        fn = _choose_fn(t)
        assert check_capacity_filling(t).ok == naive_capacity_filling_holds(fn, n)
        assert check_gross_substitutes(t).ok == naive_gs_holds(fn, n)
        assert check_monotonicity(t).ok == naive_monotone_holds(fn, n)
        assert check_iaa(t).ok == naive_iaa_holds(fn, n)


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
    u = universe(n)
    entries = materialize(Lexicographic(random_profile(rng, n)), u).entries.copy()
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
            cs_prev = int(c.entries[s, q - 1])
            cs = int(c.entries[s, q])
            for t in range(1, size):
                ct_prev = int(c.entries[t, q - 1])
                ct = int(c.entries[t, q])
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


def test_revealed_pref_responsive_follows_ordering(rng):
    n = 3
    u = universe(n)
    ordering = PriorityOrdering((0, 1, 2))
    t = materialize(Responsive(ordering), u)
    rp = revealed_pref(t, 2)
    for a, b in rp.edges:
        assert ordering.rank.index(a) < ordering.rank.index(b)
    # acyclic by asymmetry of the ordering
    assert not any((b, a) in rp.edges for a, b in rp.edges)
    with pytest.raises(ValueError):
        revealed_pref(t, 1)
    with pytest.raises(ValueError):
        revealed_pref(t, 4)


def test_switching_rule_revealed_cycle():
    t = switching_rule_table()
    u = t.universe
    rp = revealed_pref(t, 2)
    b, c = u.index("b"), u.index("c")
    assert (b, c) in rp.edges and (c, b) in rp.edges


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_asymmetry_witnesses_match_loop_oracle(rng, n):
    u = universe(n)
    for _ in range(15):
        def rand_choose(mask, q):
            members = [a for a in range(n) if (mask >> a) & 1]
            k = rng.randrange(0, min(len(members), q) + 1)
            return sum(1 << a for a in rng.sample(members, k))

        t = ChoiceTable.from_function(u, rand_choose)
        for axiom, want in _asymmetry_loops(t).items():
            assert ALL_CHECKS[axiom](t).witness == want, axiom


def _iaa_loops(t):
    # naive IAA witness (None on pass): per capacity, the first set with
    # each rejection set, then the first later set whose new acceptances
    # at q+1 differ from it
    sets = lambda s: sorted(t.universe.labels_of(s))
    for q in range(1, t.n):
        seen = {}
        for s in range(1, 1 << t.n):
            rej = s & ~t.choose(Problem(s, q))
            new = t.choose(Problem(s, q + 1)) & rej
            if rej not in seen:
                seen[rej] = (s, new)
            elif seen[rej][1] != new:
                s0, new0 = seen[rej]
                return {"S": sets(s0), "S_prime": sets(s), "q": q,
                        "rejected": sets(rej), "new_accepted_S": sets(new0),
                        "new_accepted_S_prime": sets(new)}
    return None


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_iaa_witness_matches_loop_oracle(rng, n):
    for mutations in (0, 1, 3, 10):
        for _ in range(10):
            t = _perturbed_lex_table(rng, n, mutations)
            assert check_iaa(t).witness == _iaa_loops(t)


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
            report(chk(FChoiceTable(t.universe, f, t.entries)), name)
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

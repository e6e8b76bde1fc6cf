import builtins
import importlib
import pkgutil
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import lexichoice
from lexichoice import (
    ChoiceTable,
    DomainError,
    FChoiceTable,
    PriorityOrdering,
    PriorityProfile,
    Problem,
    check_capacity_filling,
    check_f_capacity_filling,
    check_path_independence,
    flex_materialize,
    make_family,
    make_universe,
    _kernels,
)
from lexichoice.core import iter_bits, popcount
from lexichoice.rules import Lexicographic, materialize

from conftest import (
    enumerate_problems, random_choices, random_profile, rejected, set_major, table_from_function,
    universe,
)


def test_universe_validation():
    with pytest.raises(ValueError):
        make_universe([])
    with pytest.raises(ValueError):
        make_universe(["a", "a"])
    with pytest.raises(ValueError):
        make_universe([str(i) for i in range(17)])
    u = make_universe("abc")
    assert u.n == 3 and u.full_mask == 0b111
    assert u.index("c") == 2
    with pytest.raises(ValueError, match="^unknown alternative 'z'$"):
        u.index("z")
    # a label that cannot be a key, as in a fabricated witness, is unknown too
    with pytest.raises(ValueError, match=r"^unknown alternative \['a'\]$"):
        u.index(["a"])
    assert u.mask_of("ac") == 0b101
    assert u.labels_of(0b101) == ("a", "c")


def test_bit_helpers():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert popcount(0b10110) == 3


def test_negative_masks_are_refused():
    # a negative int has infinitely many set bits
    with pytest.raises(ValueError, match="negative bitmask"):
        list(iter_bits(-2))
    u = make_universe("ab")
    with pytest.raises(ValueError, match="negative bitmask"):
        u.labels_of(-2)
    # a table whose C({a}, 2) is -2 is refused when it is built, as an
    # entry that is not a subset of its set
    f = make_family(u, [u.full_mask])
    order = PriorityOrdering((0, 1))
    t = flex_materialize(PriorityProfile((order, order)), f, u)
    entries = set_major(t)
    entries[u.mask_of("a"), 2] = -2
    for build in (lambda e: ChoiceTable(u, e), lambda e: FChoiceTable(u, f, e)):
        with pytest.raises(ValueError, match=r"^entry at \(S=0x1, q=2\) is not a subset of S$"):
            build(entries)


def test_out_of_universe_masks_are_refused():
    u = make_universe("ab")
    with pytest.raises(ValueError, match="outside the 2 alternatives"):
        u.labels_of(0b100)
    assert u.labels_of(0b11) == ("a", "b")
    # a table whose C({a, b}, 2) is {c}, outside the universe, is refused
    # when it is built
    f = make_family(u, [u.full_mask])
    order = PriorityOrdering((0, 1))
    t = flex_materialize(PriorityProfile((order, order)), f, u)
    entries = set_major(t)
    entries[u.full_mask, 2] = 0b100
    for build in (lambda e: ChoiceTable(u, e), lambda e: FChoiceTable(u, f, e)):
        with pytest.raises(ValueError, match=r"^entry at \(S=0x3, q=2\) is not a subset of S$"):
            build(entries)
    assert check_f_capacity_filling(t).ok


def test_enumerate_problems_canonical_order():
    u = universe(2)
    got = list(enumerate_problems(u))
    assert got == [
        Problem(1, 1),
        Problem(1, 2),
        Problem(2, 1),
        Problem(2, 2),
        Problem(3, 1),
        Problem(3, 2),
    ]


def _tiny_table():
    u = universe(2)
    entries = np.zeros((4, 3), dtype=np.int64)
    entries[1, 1] = entries[1, 2] = 1
    entries[2, 1] = entries[2, 2] = 2
    entries[3, 1] = 1
    entries[3, 2] = 3
    return ChoiceTable(u, entries)


def test_table_choose_and_domain():
    t = _tiny_table()
    assert t.choose(Problem(3, 1)) == 1
    assert rejected(t, Problem(3, 1)) == 2
    with pytest.raises(DomainError):
        t.choose(Problem(0, 1))
    with pytest.raises(DomainError):
        t.choose(Problem(4, 1))
    with pytest.raises(DomainError):
        t.choose(Problem(1, 0))
    with pytest.raises(DomainError):
        t.choose(Problem(1, 3))


def test_table_validate_rejects_bad_entries():
    # a table is checked when it is built: per capacity, ascending, the
    # first set whose entry is not a subset of it, then the first whose entry
    # exceeds the capacity; then a nonempty row 0 (a nonempty column 0 is an
    # entry outside its empty set)
    u = universe(2)
    for cells, message in [
        ({(1, 1): 2}, "entry at (S=0x1, q=1) is not a subset of S"),
        ({(3, 1): 3}, "entry at (S=0x3, q=1) exceeds capacity"),
        ({(3, 1): 3, (1, 2): 2}, "entry at (S=0x3, q=1) exceeds capacity"),
        ({(3, 1): 3, (2, 1): 1}, "entry at (S=0x2, q=1) is not a subset of S"),
        ({(0, 2): 1}, "entry at (S=0x0, q=2) is not a subset of S"),
        ({(3, 0): 1}, "row 0 / column 0 must be empty"),
    ]:
        entries = np.zeros((4, 3), dtype=np.int64)
        for cell, value in cells.items():
            entries[cell] = value
        with pytest.raises(ValueError) as got:
            ChoiceTable(u, entries)
        assert str(got.value) == message, cells
    for shape in ((4, 2), (3, 4)):
        with pytest.raises(ValueError, match="entries must have shape"):
            ChoiceTable(u, np.zeros(shape, dtype=np.int64))


def test_entries_must_have_an_integer_dtype():
    # a float entry is not truncated, a numeric string is not parsed and a
    # bool is not read as a bit: only an integer matrix is narrowed
    u = universe(2)
    entries = np.array([[0, 0, 0], [0, 1, 1], [0, 2, 2], [0, 1, 3]])
    assert ChoiceTable(u, entries.astype(np.uint8)) == ChoiceTable(u, entries)
    for bad in (entries + 0.7 * (entries == 1), entries.astype(str), entries != 0):
        with pytest.raises(ValueError) as got:
            ChoiceTable(u, bad)
        assert str(got.value) == f"entries must be integers, got dtype {bad.dtype}"


def test_table_entries_are_readonly():
    t = _tiny_table()
    with pytest.raises(ValueError):
        t.cols[1, 1] = 3


def test_first_difference_canonical():
    t = _tiny_table()
    u = t.universe
    entries = set_major(t)
    entries[1, 2] = 0
    entries[3, 1] = 2
    other = ChoiceTable(u, entries)
    assert t != other
    assert t.first_difference(other) == Problem(1, 2)
    assert t.first_difference(t) is None
    assert t == ChoiceTable(u, set_major(t))
    # equal tables hash equal, so a set holds them once
    assert len({t, ChoiceTable(u, set_major(t)), other}) == 2


def test_from_function_matches_callable():
    u = universe(3)
    t = table_from_function(u, lambda mask, q: mask & -mask)
    for p in enumerate_problems(u):
        assert t.choose(p) == p.set & -p.set


def test_table_from_a_view_ignores_later_writes():
    u = universe(3)
    base = set_major(table_from_function(u, lambda mask, q: mask & -mask))
    t = ChoiceTable(u, base[:])
    before = hash(t)
    base[1, 1] = 0b110  # C({a}, 1) = {b, c} in the array the view reads
    assert t.choose(Problem(1, 1)) == 0b001
    assert hash(t) == before
    # set-major entries are narrowed into a new array, so the caller's stays
    # writable; a fill's own array is frozen in place, not copied
    assert base.flags.writeable
    owned = np.array(t.cols)
    assert ChoiceTable._of_fill(u, owned).cols is owned
    assert not owned.flags.writeable


def test_table_rows_are_built_once_and_readonly():
    # the set-major copy that gross substitutes and path independence both
    # read: C(S, 1..n) per set, padded with empty capacities to 16 entries
    t = _tiny_table()
    rows = t.rows
    assert rows is t.rows
    assert rows.dtype == np.uint16 and rows.shape == (1 << t.n, 16)
    assert rows[:, : t.n].tolist() == set_major(t)[:, 1:].tolist()
    assert not rows[:, t.n :].any()
    with pytest.raises(ValueError):
        rows[1, 0] = 3
    assert t == ChoiceTable(t.universe, set_major(t))  # rows take no part in equality


def test_table_scans_are_built_once_and_readonly():
    # the heritage flags of the one removal scan, and the chosen-over edges
    # of every capacity, both kept beside rows: on a table over 4
    # alternatives whose entries are random subsets of their sets, each
    # within capacity
    n = 4
    t = ChoiceTable(universe(n), random_choices(random.Random(4), n))
    heritage, edges = t.heritage, t.chosen_over
    assert heritage is t.heritage and edges is t.chosen_over
    assert heritage.dtype == np.bool_ and heritage.shape == (1 << n,)
    assert heritage.tolist() == _kernels._removal_violations(n, t.rows).tolist()
    assert heritage.any() and not heritage.all()
    assert edges.dtype == np.bool_ and edges.shape == (n, n, n)
    for q in range(1, n + 1):
        for a in range(n):
            for b in range(n):
                want = any((t.cols[q, s] >> a) & 1 and ((s & ~t.cols[q, s]) >> b) & 1
                           for s in range(1 << n))
                assert edges[q - 1, a, b] == want, (q, a, b)
    for array in (heritage, edges):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = True


def test_capacity_filling_is_decided_once_per_table(scan_calls):
    # the first problem that breaks capacity filling, kept beside the
    # heritage flags: on a lexicographic table, then with one entry cut to
    # fewer alternatives
    n = 4
    t = materialize(Lexicographic(random_profile(random.Random(4), n)), universe(n))
    assert t.unfilled is None
    entries = set_major(t)
    entries[0b0111, 2] = 0b0001  # C({a, b, c}, 2) = {a}
    cut = ChoiceTable(universe(n), entries)
    assert cut.unfilled == Problem(0b0111, 2)
    for _ in range(2):
        assert check_capacity_filling(cut).witness == {"S": ["a", "b", "c"], "q": 2, "chosen": ["a"]}
        assert not check_path_independence(cut).ok
    assert scan_calls["unfilled"] == [n] * 2  # once per table


def test_witness_sets_gate_reads_only_derived_facts():
    # the gate of the sets of q+1 alternatives derives none of its facts,
    # and opens once the checkers have derived them, on a fill's table and
    # on the table built from its entries alike
    n = 5
    lex = materialize(Lexicographic(random_profile(random.Random(5), n)), universe(n))
    for t in (lex, ChoiceTable(universe(n), set_major(lex))):
        assert not t.witness_sets_apply() and not t.witness_sets_apply(revealed=True)
        assert set(vars(t)) & {"unfilled", "heritage", "nonmonotone"} == set()
        assert t.unfilled is None and not t.heritage.any()
        assert t.witness_sets_apply() and not t.witness_sets_apply(revealed=True)
        assert t.nonmonotone is None and t.witness_sets_apply(revealed=True)


def _resolves(name: str) -> bool:
    """Whether the dotted ``name`` is an attribute path from the package,
    one of its modules or public classes, the builtins or a standard-library
    module; a ``lexichoice.`` prefix is allowed."""
    parts = name.removeprefix("lexichoice.").split(".")
    if parts[0] in sys.stdlib_module_names:
        roots = [importlib.import_module(parts.pop(0))]
    else:
        modules = [
            importlib.import_module(f"lexichoice.{m.name}")
            for m in pkgutil.iter_modules(lexichoice.__path__)
        ]
        classes = [v for v in vars(lexichoice).values() if isinstance(v, type)]
        roots = [lexichoice, builtins, *modules, *classes]
    for obj in roots:
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_names_only_existing_functions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`((?:\w+\.)*\w+)\(", readme))
    assert len(names) > 20
    # one-letter names are notation, such as C(S, q)
    assert sorted(n for n in names if len(n) > 1 and not _resolves(n)) == []

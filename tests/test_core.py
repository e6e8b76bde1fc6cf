import numpy as np
import pytest

from lexichoice import (
    ChoiceTable,
    DomainError,
    FChoiceTable,
    PriorityOrdering,
    PriorityProfile,
    Problem,
    check_f_capacity_filling,
    enumerate_problems,
    flex_materialize,
    make_family,
    make_universe,
    rejected,
)
from lexichoice.core import iter_bits, popcount

from conftest import universe


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
    with pytest.raises(KeyError):
        u.index("z")
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
    # an unvalidated flex table whose C({a}, 2) is -2 reaches the witness build
    f = make_family(u, [u.full_mask])
    order = PriorityOrdering((0, 1))
    t = flex_materialize(PriorityProfile((order, order)), f, u)
    entries = np.array(t.entries)
    entries[u.mask_of("a"), 2] = -2
    with pytest.raises(ValueError, match="negative bitmask"):
        check_f_capacity_filling(FChoiceTable(u, f, entries))


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
    t.validate()
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
    u = universe(2)
    entries = np.zeros((4, 3), dtype=np.int64)
    entries[1, 1] = 2  # not a subset of {a}
    with pytest.raises(ValueError):
        ChoiceTable(u, entries).validate()
    entries = np.zeros((4, 3), dtype=np.int64)
    entries[3, 1] = 3  # exceeds capacity 1
    with pytest.raises(ValueError):
        ChoiceTable(u, entries).validate()
    with pytest.raises(ValueError):
        ChoiceTable(u, np.zeros((4, 2), dtype=np.int64))


def test_table_entries_are_readonly():
    t = _tiny_table()
    with pytest.raises(ValueError):
        t.entries[1, 1] = 3


def test_first_difference_canonical():
    t = _tiny_table()
    u = t.universe
    entries = np.array(t.entries)
    entries[1, 2] = 0
    entries[3, 1] = 2
    other = ChoiceTable(u, entries)
    assert t != other
    assert t.first_difference(other) == Problem(1, 2)
    assert t.first_difference(t) is None
    assert t == ChoiceTable(u, np.array(t.entries))
    # equal tables hash equal, so a set holds them once
    assert len({t, ChoiceTable(u, np.array(t.entries)), other}) == 2


def test_from_function_matches_callable():
    u = universe(3)
    t = ChoiceTable.from_function(u, lambda mask, q: mask & -mask)
    for p in enumerate_problems(u):
        assert t.choose(p) == p.set & -p.set

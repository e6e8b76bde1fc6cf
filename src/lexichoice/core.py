"""Ground-set representation, subsets-as-bitmasks, problems, and choice tables.

Alternatives are integer indices 0..n-1 internally; labels appear only at
I/O boundaries.  A subset of the ground set is an int bitmask (bit i set
means alternative i is a member).  The engine is capped at n = 16 so that
exhaustive tables over all (2^n - 1) * n problems stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels

MAX_ALTERNATIVES = 16


class DomainError(ValueError):
    """A problem or subset lies outside the table's domain."""


class Problem(NamedTuple):
    """A choice problem: a nonempty subset (bitmask) and a capacity.  A
    "first" witness is first in canonical order: by set bitmask, then
    capacity, except in ``check_iaa`` and the entry that a ``ChoiceTable``
    refuses when it is built, which take capacities first, then sets."""

    set: int
    capacity: int


@dataclass(frozen=True)
class Universe:
    """An ordered ground set of distinct alternative labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("universe must contain at least one alternative")
        if len(self.labels) > MAX_ALTERNATIVES:
            raise ValueError(
                f"universe of {len(self.labels)} alternatives exceeds the "
                f"engine bound of {MAX_ALTERNATIVES}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("universe labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _positions(self) -> dict[str, int]:
        """Each label's index, built on the first :meth:`index` call."""
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label, such as a list
            raise ValueError(f"unknown alternative {label!r}") from None

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def require_mask(self, mask: int) -> None:
        """Refuse a bitmask that is negative or has a bit at or above n."""
        if mask < 0:
            raise ValueError(f"negative bitmask {mask}")
        if mask >> self.n:
            raise ValueError(f"bitmask {mask:#x} has a bit outside the {self.n} alternatives")

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.require_mask(mask)
        return tuple(self.labels[i] for i in iter_bits(mask))


def make_universe(labels) -> Universe:
    return Universe(tuple(labels))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order.

    A negative mask has infinitely many set bits, so it is refused.
    """
    if mask < 0:
        raise ValueError(f"negative bitmask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return int(mask).bit_count()


def first_cell(viol: np.ndarray) -> tuple[int, int]:
    """The first true (S, row) of a ``(rows, 2**n)`` bool array indexed like
    ``ChoiceTable.cols``, in canonical order: by set, then by row.  (0, 0)
    when none is true."""
    s = int(np.argmax(viol.any(axis=0)))
    return s, int(np.argmax(viol[:, s]))


def _first_invalid(n: int, cols: np.ndarray) -> str | None:
    """The error a :class:`ChoiceTable` build raises on ``cols`` (entries
    ``cols[q, S]`` of any integer type), or None: per capacity, ascending,
    the first set whose entry is not a subset of it, then the first whose
    entry exceeds the capacity; then a nonempty row 0 or column 0."""
    masks = np.arange(1 << n, dtype=cols.dtype)
    for q in range(1, n + 1):
        outside = cols[q] & ~masks
        if outside.any():
            bad = int(np.argmax(outside != 0))
            return f"entry at (S={bad:#x}, q={q}) is not a subset of S"
        sizes = np.bitwise_count(cols[q])
        if np.any(sizes > q):
            bad = int(np.argmax(sizes > q))
            return f"entry at (S={bad:#x}, q={q}) exceeds capacity"
    if cols[0].any() or cols[:, 0].any():
        return "row 0 / column 0 must be empty"
    return None


def _narrow(n: int, entries) -> np.ndarray:
    """A set-major integer matrix ``entries[S, q]`` as a new ``(n+1, 2**n)``
    uint16 array, refused unless it is a choice table: a matrix of another
    shape or of any other dtype (float, bool, str) is refused, and so is
    the first invalid entry, with the error of :func:`_first_invalid`."""
    entries = np.asarray(entries)
    size = 1 << n
    if entries.shape != (size, n + 1):
        raise ValueError(
            f"entries must have shape {(size, n + 1)}, got {entries.shape}"
        )
    if entries.dtype.kind not in "iu":
        raise ValueError(f"entries must be integers, got dtype {entries.dtype}")
    # an entry that is negative or has a bit at or above n is invalid, and
    # is read as int64 so that narrowing cannot wrap it into a valid one
    wide = np.bitwise_or.reduce(entries, axis=None) >> n
    cols = entries.astype(np.int64 if wide else np.uint16).T.copy()
    error = _first_invalid(n, cols)
    if error is not None:
        raise ValueError(error)
    return cols


class ChoiceTable:
    """Exhaustive materialization of a choice rule over every problem.

    ``cols[q, S]`` is the chosen bitmask for problem (S, q): one C-contiguous
    uint16 array of shape ``(n+1, 2**n)`` whose row q holds C(., q), so each
    capacity is one contiguous column.  Row 0 holds C(S, 0), the empty set
    (the C(S, 0) = empty-set convention), and column 0 (S = 0) is unused.

    Every table is a capacity-constrained choice rule: C(S, q) is a subset
    of S with at most q members, and row 0 and column 0 are empty.  A table
    is built from ``entries``, a set-major matrix ``entries[S, q]`` of shape
    ``(2**n, n+1)`` and an integer dtype, narrowed into a new array: a
    matrix of another shape or dtype is refused, and so is the first entry
    that breaks the contract, per capacity ascending, then per set
    (:func:`_first_invalid`), with a ``ValueError`` that names it.  The
    kernels and checkers rely on the contract and never test it again.
    The table never changes once built, so what its checkers derive from it
    is built on first use and kept, each array by one producer:

    - ``rows``: the same table set-major, the layout the single-removal
      scan reads;
    - ``heritage``: per set, the flag of that one scan (heritage broken by
      removing one alternative), which decides gross substitutes and, with
      capacity filling, path independence;
    - ``unfilled``: the first problem that breaks capacity filling, which
      decides capacity filling and, with the heritage flags, path
      independence;
    - ``nonmonotone``: the first problem that breaks monotonicity, which
      decides monotonicity;
    - ``chosen_over``: the chosen-over edges of every capacity, which decide
      WRARP and CWRARP and order the capacity-wise responsive extraction
      of a table whose proposal from the sets of q+1 alternatives fails.

    The q+1 witness lemma: on a table that is capacity-filling and keeps
    heritage, every chosen-over edge of capacity q has a witness set of
    exactly q+1 alternatives, and so does every revealed (CWARP) edge when
    the table is also monotone (the proof is at :meth:`witness_sets_apply`).
    When a check has already derived those facts, ``chosen_over`` and CWARP
    read the C(n, q+1) sets of q+1 alternatives per capacity rather than all
    2**n, and IAA the C(n, q+2) sets of q+2 (the q+2 witness lemma, proved
    at ``axioms.check_iaa``); otherwise they read every set.
    """

    def __init__(self, universe: Universe, entries):
        cols = _narrow(universe.n, entries)
        cols.setflags(write=False)
        self.universe = universe
        self.cols = cols

    @classmethod
    def _of_fill(cls, universe: Universe, cols: np.ndarray):
        """The table whose ``cols`` is a fill's own new array
        (``_kernels.cwlex_fill``), which is a choice rule by construction:
        frozen in place (made read-only), neither checked nor copied."""
        table = cls.__new__(cls)
        cols.setflags(write=False)
        table.universe = universe
        table.cols = cols
        return table

    @property
    def n(self) -> int:
        return self.universe.n

    @cached_property
    def rows(self) -> np.ndarray:
        """Per set S, C(S, 1..n) padded with empty capacities to 16 entries:
        a read-only uint16 array of shape ``(2**n, 16)``."""
        rows = _kernels._rows(self.cols)
        rows.setflags(write=False)
        return rows

    @cached_property
    def heritage(self) -> np.ndarray:
        """Per set S, whether removing one b in S breaks heritage at some q
        (``_kernels._removal_violations`` of ``rows``): a read-only bool
        array of shape ``(2**n,)``."""
        flags = _kernels._removal_violations(self.n, self.rows)
        flags.setflags(write=False)
        return flags

    @cached_property
    def unfilled(self) -> Problem | None:
        """The first problem (S, q), in canonical order, with
        |C(S, q)| != min(|S|, q) (``_kernels._unfilled``), or None when the
        table is capacity-filling."""
        cells = _kernels._unfilled(self.n, self.cols)
        if not cells.any():
            return None
        s, qi = first_cell(cells)
        return Problem(s, qi + 1)

    @cached_property
    def nonmonotone(self) -> Problem | None:
        """The first problem (S, q), in canonical order, with C(S, q) not
        contained in C(S, q+1), or None when the table is monotone."""
        cells = (self.cols[1 : self.n] & ~self.cols[2:]) != 0
        if not cells.any():
            return None
        s, qi = first_cell(cells)
        return Problem(s, qi + 1)

    def witness_sets_apply(self, revealed: bool = False) -> bool:
        """Whether this table is already known to be capacity-filling
        (``unfilled``) and to keep heritage (``heritage``), and, with
        ``revealed``, to be monotone (``nonmonotone``).  Only facts derived
        before are read: this derives none, so a table whose checkers have
        not asked for them says False.

        The q+1 witness lemma: on such a table every chosen-over edge of
        capacity q, and with ``revealed`` every revealed one, has a witness
        set of exactly q+1 alternatives, so the sets of q+1 alternatives
        (``_kernels.witness_set_columns``) give all the edges of capacity q.
        Proof: let a be in C(S, q) and b in S minus C(S, q).  C(S, q) is a
        subset of S with at most q members (the table's contract), and
        since b is rejected, filling gives it exactly q, so T = C(S, q) with
        b has q+1 alternatives.  Heritage, one removal of an alternative of
        S outside T at a time, gives C(S, q) within C(T, q), and filling
        gives |C(T, q)| = q, so C(T, q) = C(S, q): a is chosen over b at T.
        If the table is also monotone, C(S, q-1) lies within C(S, q), so
        within T, and the same steps at q-1 give C(T, q-1) = C(S, q-1): a
        revealed edge at S is one at T.  Without monotonicity that step
        fails.
        """
        known = self.__dict__
        heritage = known.get("heritage")
        return (
            known.get("unfilled", ()) is None
            and heritage is not None
            and not heritage.any()
            and (not revealed or known.get("nonmonotone", ()) is None)
        )

    @cached_property
    def chosen_over(self) -> np.ndarray:
        """``chosen_over[q-1, a, b]``: whether some S has a in C(S, q) and b
        in S minus C(S, q), over q = 1..n (``_kernels.chosen_over_edges``):
        a read-only bool array of shape ``(n, n, n)``.  It reads only the
        sets of q+1 alternatives at capacity q when
        :meth:`witness_sets_apply`, and every set otherwise."""
        if self.witness_sets_apply():
            runs = _kernels.witness_set_columns(self.n, self.cols, 1)
            edges = _kernels.chosen_over_edges(self.n, *runs)
        else:
            chosen = self.cols[1:]
            rejected = ~chosen
            rejected &= _kernels._masks(self.n)
            edges = _kernels.chosen_over_edges(self.n, chosen, rejected)
        edges.setflags(write=False)
        return edges

    def _check_domain(self, p: Problem) -> None:
        if not (0 < p.set < (1 << self.n)):
            raise DomainError(f"choice set {p.set:#x} outside universe")
        if not (1 <= p.capacity <= self.n):
            raise DomainError(f"capacity {p.capacity} outside 1..{self.n}")

    def choose(self, p: Problem) -> int:
        self._check_domain(p)
        return int(self.cols[p.capacity, p.set])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChoiceTable):
            return NotImplemented
        return self.universe == other.universe and np.array_equal(
            self.cols, other.cols
        )

    def __hash__(self):  # cols are read-only, so the value hash is stable
        return hash((self.universe, self.cols.tobytes()))

    def first_difference(self, other: "ChoiceTable") -> Problem | None:
        """First problem (canonical order: set, then capacity) where the two
        tables differ."""
        diff = self.cols != other.cols
        if not diff.any():
            return None
        return Problem(*first_cell(diff))

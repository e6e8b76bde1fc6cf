"""Ground-set representation, subsets-as-bitmasks, problems, and choice tables.

Alternatives are integer indices 0..n-1 internally; labels appear only at
I/O boundaries.  A subset of the ground set is an int bitmask (bit i set
means alternative i is a member).  The engine is capped at n = 16 so that
exhaustive tables over all (2^n - 1) * n problems stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

MAX_ALTERNATIVES = 16


class DomainError(ValueError):
    """A problem or subset lies outside the table's domain."""


class Problem(NamedTuple):
    """A choice problem: a nonempty subset (bitmask) and a capacity."""

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

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown alternative {label!r}") from None

    def mask_of(self, labels) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
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


def enumerate_problems(u: Universe) -> Iterator[Problem]:
    """All (S, q) with nonempty S and 1 <= q <= n, in canonical order.

    Sets ascend by bitmask; capacities ascend within each set.  The order is
    the tie-break used everywhere a "first" witness is reported.
    """
    for mask in range(1, 1 << u.n):
        for q in range(1, u.n + 1):
            yield Problem(mask, q)


class ChoiceTable:
    """Exhaustive materialization of a choice rule over every problem.

    ``entries[S, q]`` is the chosen bitmask for problem (S, q); column 0 is
    fixed at the empty set (the C(S, 0) = empty-set convention) and row 0 is
    unused.
    """

    def __init__(self, universe: Universe, entries: np.ndarray):
        size = 1 << universe.n
        if entries.shape != (size, universe.n + 1):
            raise ValueError(
                f"entries must have shape {(size, universe.n + 1)}, "
                f"got {entries.shape}"
            )
        self.universe = universe
        self.entries = np.ascontiguousarray(entries, dtype=np.int64)
        self.entries.setflags(write=False)

    @classmethod
    def from_function(
        cls, universe: Universe, choose: Callable[[int, int], int]
    ) -> "ChoiceTable":
        n = universe.n
        entries = np.zeros((1 << n, n + 1), dtype=np.int64)
        for mask in range(1, 1 << n):
            for q in range(1, n + 1):
                entries[mask, q] = choose(mask, q)
        return cls(universe, entries)

    @property
    def n(self) -> int:
        return self.universe.n

    def _check_domain(self, p: Problem) -> None:
        if not (0 < p.set < (1 << self.n)):
            raise DomainError(f"choice set {p.set:#x} outside universe")
        if not (1 <= p.capacity <= self.n):
            raise DomainError(f"capacity {p.capacity} outside 1..{self.n}")

    def choose(self, p: Problem) -> int:
        self._check_domain(p)
        return int(self.entries[p.set, p.capacity])

    def validate(self) -> None:
        """Assert C(S, q) subset-of S and |C(S, q)| <= q on every entry."""
        masks = np.arange(1 << self.n, dtype=np.int64)
        for q in range(1, self.n + 1):
            col = self.entries[:, q]
            if np.any(col & ~masks):
                bad = int(np.argmax((col & ~masks) != 0))
                raise ValueError(f"entry at (S={bad:#x}, q={q}) is not a subset of S")
            sizes = np.bitwise_count(col)
            if np.any(sizes > q):
                bad = int(np.argmax(sizes > q))
                raise ValueError(f"entry at (S={bad:#x}, q={q}) exceeds capacity")
        if np.any(self.entries[:, 0]) or np.any(self.entries[0]):
            raise ValueError("row 0 / column 0 must be empty")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChoiceTable):
            return NotImplemented
        return self.universe == other.universe and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):  # entries are read-only, so the value hash is stable
        return hash((self.universe, self.entries.tobytes()))

    def first_difference(self, other: "ChoiceTable") -> Problem | None:
        """First problem (canonical order) where the two tables differ."""
        diff = self.entries != other.entries
        if not diff.any():
            return None
        flat = np.argwhere(diff)
        # canonical order is set-major, capacity-minor; argwhere is row-major
        s, q = (int(v) for v in flat[0])
        return Problem(s, q)


def rejected(c: ChoiceTable, p: Problem) -> int:
    """R(S, q) = S minus C(S, q); may be empty."""
    return p.set & ~c.choose(p)

"""Ground-set representation, subsets-as-bitmasks, problems, and choice tables.

Alternatives are integer indices 0..n-1 internally; labels appear only at
I/O boundaries.  A subset of the ground set is an int bitmask (bit i set
means alternative i is a member).  The engine is capped at n = 16 so that
exhaustive tables over all (2^n - 1) * n problems stay in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

MAX_ALTERNATIVES = 16


class DomainError(ValueError):
    """A problem or subset lies outside the table's domain."""


class Problem(NamedTuple):
    """A choice problem: a nonempty subset (bitmask) and a capacity.  A
    "first" witness is first in canonical order: by set bitmask, then capacity."""

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


class ChoiceTable:
    """Exhaustive materialization of a choice rule over every problem.

    ``entries[S, q]`` is the chosen bitmask for problem (S, q); column 0 is
    fixed at the empty set (the C(S, 0) = empty-set convention) and row 0 is
    unused.

    The table never changes once built.  A C-contiguous int64 array that
    owns its data is frozen in place (made read-only, so the caller's array
    is too); any other input, a view included, is copied first, so writing
    to the array it views cannot change the table.
    """

    def __init__(self, universe: Universe, entries: np.ndarray):
        size = 1 << universe.n
        if entries.shape != (size, universe.n + 1):
            raise ValueError(
                f"entries must have shape {(size, universe.n + 1)}, "
                f"got {entries.shape}"
            )
        self.universe = universe
        entries = np.ascontiguousarray(entries, dtype=np.int64)
        if entries.base is not None:
            entries = entries.copy()
        entries.setflags(write=False)
        self.entries = entries

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


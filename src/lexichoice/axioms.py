"""Exhaustive axiom checkers over choice tables.

Every checker scans the full problem space and returns an
:class:`AxiomReport`.  The report fails exactly when it carries a witness:
the first counterexample found in a deterministic canonical order (sets
ascending by bitmask, capacities ascending, alternatives ascending).
Witnesses are structured label-based dicts that :func:`replay_witness` can
re-check against the raw table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import ChoiceTable, Problem, iter_bits, popcount
from .rules import CapacityWiseLists


@dataclass(frozen=True)
class AxiomReport:
    """The outcome of one checker: it fails exactly when it has a witness."""

    axiom: str
    witness: dict | None = None

    @property
    def verdict(self) -> str:
        return "pass" if self.witness is None else "fail"

    @property
    def ok(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class RevealedPreference:
    """The capacity-wise revealed preference relation at one capacity.

    ``edges`` holds ordered index pairs (a, b): a revealed preferred to b.
    ``witnesses`` maps each edge to the first set exhibiting it.
    """

    capacity: int
    edges: frozenset[tuple[int, int]]
    witnesses: dict[tuple[int, int], int]


def _labels(c: ChoiceTable, mask: int) -> list[str]:
    return sorted(c.universe.labels_of(mask))


# --- the four characterizing axioms -----------------------------------------


def check_capacity_filling(c: ChoiceTable) -> AxiomReport:
    """|C(S, q)| must equal min(|S|, q) at every problem."""
    masks = np.arange(1 << c.n, dtype=np.int64)
    set_sizes = np.bitwise_count(masks)
    for_all = np.bitwise_count(c.entries[:, 1:])
    want = np.minimum(set_sizes[:, None], np.arange(1, c.n + 1)[None, :])
    viol = for_all != want
    viol[0, :] = False
    if not viol.any():
        return AxiomReport("capacity_filling")
    s, qi = np.argwhere(viol)[0]
    s, q = int(s), int(qi) + 1
    return AxiomReport(
        "capacity_filling",
        {
            "S": _labels(c, s),
            "q": q,
            "chosen": _labels(c, c.choose(Problem(s, q))),
        },
    )


def check_gross_substitutes(c: ChoiceTable) -> AxiomReport:
    """Chosen alternatives stay chosen when other alternatives are removed."""
    out = _kernels.gs_first_violation(c.n, c.entries)
    if out[0] < 0:
        return AxiomReport("gross_substitutes")
    s, q, a, b = (int(v) for v in out)
    return AxiomReport(
        "gross_substitutes",
        {
            "S": _labels(c, s),
            "q": q,
            "a": c.universe.labels[a],
            "b": c.universe.labels[b],
        },
    )


def check_monotonicity(c: ChoiceTable) -> AxiomReport:
    """C(S, q) must be contained in C(S, q+1)."""
    lost = c.entries[:, 1:c.n] & ~c.entries[:, 2:c.n + 1]
    viol = lost != 0
    if not viol.any():
        return AxiomReport("monotonicity")
    s, qi = np.argwhere(viol)[0]
    s, q = int(s), int(qi) + 1
    alt = next(iter_bits(int(lost[s, qi])))
    return AxiomReport(
        "monotonicity",
        {"S": _labels(c, s), "q": q, "alt": c.universe.labels[alt]},
    )


def check_iaa(c: ChoiceTable) -> AxiomReport:
    """Irrelevance of accepted alternatives.

    Equal rejection sets at q must yield equal newly-accepted sets at q+1.
    Per capacity, each set is compared with the first set sharing its
    rejection set, so the scan is linear in the problem space (plus a sort)
    rather than quadratic in set pairs.
    """
    masks = np.arange(1, 1 << c.n, dtype=np.int64)
    for q in range(1, c.n):
        rej = masks & ~c.entries[1:, q]
        new = c.entries[1:, q + 1] & rej
        _, first, group = np.unique(rej, return_index=True, return_inverse=True)
        first = first[group]
        bad = new != new[first]
        if bad.any():
            i = int(np.argmax(bad))
            s0, s = int(masks[first[i]]), int(masks[i])
            return AxiomReport(
                "iaa",
                {
                    "S": _labels(c, s0),
                    "S_prime": _labels(c, s),
                    "q": q,
                    "rejected": _labels(c, int(rej[i])),
                    "new_accepted_S": _labels(c, int(new[first[i]])),
                    "new_accepted_S_prime": _labels(c, int(new[i])),
                },
            )
    return AxiomReport("iaa")


# --- revealed preference axioms ----------------------------------------------


def relation_columns(c: ChoiceTable, q: int, revealed: bool = False):
    """Per set S: C(S, q) and S minus C(S, q), the chosen-over columns at q.

    With ``revealed`` both columns also drop C(S, q-1), which gives the
    revealed preference columns (C(S, 0) is the empty set).
    """
    cur = c.entries[:, q]
    rej = np.arange(1 << c.n, dtype=np.int64) & ~cur
    if not revealed:
        return cur, rej
    prev = c.entries[:, q - 1]
    return cur & ~prev, rej & ~prev


def first_witnesses(c: ChoiceTable, q: int, revealed: bool = False) -> np.ndarray:
    """``wit[a, b]``: the first S pairing a and b in :func:`relation_columns`."""
    return _kernels.chosen_over_wit(c.n, *relation_columns(c, q, revealed))


def relation(q: int, wit: np.ndarray) -> RevealedPreference:
    """The relation whose edges are the nonzero entries of ``wit``."""
    witnesses = {
        (int(a), int(b)): int(wit[a, b]) for a, b in np.argwhere(wit)
    }
    return RevealedPreference(q, frozenset(witnesses), witnesses)


def revealed_pref(c: ChoiceTable, q: int) -> RevealedPreference:
    """Edges (a, b): some S has a, b rejected at q-1, a chosen and b rejected at q."""
    if q < 2:
        raise ValueError("revealed preference requires capacity q >= 2")
    if q > c.n:
        raise ValueError(f"capacity {q} outside 2..{c.n}")
    return relation(q, first_witnesses(c, q, revealed=True))


def _first_two_way(wit: np.ndarray) -> tuple[int, int] | None:
    """First pair (a < b), a-major, with both wit[a, b] and wit[b, a] nonzero."""
    both = np.triu((wit != 0) & (wit.T != 0), 1)
    if not both.any():
        return None
    a, b = np.argwhere(both)[0]
    return int(a), int(b)


def _asymmetry(axiom: str, c: ChoiceTable, capacities, revealed: bool) -> AxiomReport:
    """Fail at the first capacity whose relation has a two-way pair."""
    for q in capacities:
        wit = first_witnesses(c, q, revealed)
        pair = _first_two_way(wit)
        if pair is not None:
            a, b = pair
            return AxiomReport(
                axiom,
                {
                    "q": q,
                    "a": c.universe.labels[a],
                    "b": c.universe.labels[b],
                    "S_ab": _labels(c, int(wit[a, b])),
                    "S_ba": _labels(c, int(wit[b, a])),
                },
            )
    return AxiomReport(axiom)


def check_cwarp(c: ChoiceTable) -> AxiomReport:
    """The revealed preference relation must be asymmetric at every capacity."""
    return _asymmetry("cwarp", c, range(2, c.n + 1), revealed=True)


def check_wrarp(c: ChoiceTable) -> AxiomReport:
    """Per-capacity asymmetry of the chosen-over relation.

    A violation of the pairwise formulation (a chosen over b at one problem,
    b chosen over a at another problem of the same capacity) is exactly a
    symmetric chosen-over pair at that capacity.
    """
    return _asymmetry("wrarp", c, range(1, c.n + 1), revealed=False)


def check_cwrarp(c: ChoiceTable) -> AxiomReport:
    """Cross-capacity asymmetry of the chosen-over relation."""
    n = c.n
    # per pair, the least (S, q) over all capacities, encoded S * (n+1) + q
    first = np.zeros((n, n), dtype=np.int64)
    for q in range(1, n + 1):
        wit = first_witnesses(c, q)
        cand = wit * (n + 1) + q
        take = (wit != 0) & ((first == 0) | (cand < first))
        first[take] = cand[take]
    pair = _first_two_way(first)
    if pair is None:
        return AxiomReport("cwrarp")
    a, b = pair
    s_ab, q_ab = divmod(int(first[a, b]), n + 1)
    s_ba, q_ba = divmod(int(first[b, a]), n + 1)
    return AxiomReport(
        "cwrarp",
        {
            "a": c.universe.labels[a],
            "b": c.universe.labels[b],
            "S_ab": _labels(c, s_ab),
            "q_ab": q_ab,
            "S_ba": _labels(c, s_ba),
            "q_ba": q_ba,
        },
    )


def check_path_independence(c: ChoiceTable) -> AxiomReport:
    """C(S union T, q) must equal C(C(S,q) union C(T,q), q) for all S, T, q."""
    out = _kernels.path_independence_first(c.n, c.entries)
    if out[0] < 0:
        return AxiomReport("path_independence")
    s, t, q = (int(v) for v in out)
    return AxiomReport(
        "path_independence",
        {"S": _labels(c, s), "T": _labels(c, t), "q": q},
    )


# --- capacity-wise list structure --------------------------------------------


def _is_insertion(prev: tuple, cur: tuple) -> bool:
    """cur is prev with one extra element inserted, relative order kept."""
    if len(cur) != len(prev) + 1:
        return False
    for k in range(len(cur)):
        if cur[:k] == prev[:k] and cur[k + 1:] == prev[k:]:
            return True
    return False


def check_insertion(lists: CapacityWiseLists) -> AxiomReport:
    """Each capacity's list extends the previous one by a single insertion."""
    for q in range(2, lists.n + 1):
        if not _is_insertion(lists.at(q - 1), lists.at(q)):
            return AxiomReport(
                "insertion",
                {
                    "q": q,
                    "list_prev": [list(o.rank) for o in lists.at(q - 1)],
                    "list_q": [list(o.rank) for o in lists.at(q)],
                },
            )
    return AxiomReport("insertion")


# --- witness replay -----------------------------------------------------------


ALL_CHECKS = {
    "capacity_filling": check_capacity_filling,
    "gross_substitutes": check_gross_substitutes,
    "monotonicity": check_monotonicity,
    "iaa": check_iaa,
    "cwarp": check_cwarp,
    "wrarp": check_wrarp,
    "cwrarp": check_cwrarp,
    "path_independence": check_path_independence,
}


def replay_witness(c: ChoiceTable, axiom: str, w: dict) -> bool:
    """Re-evaluate a fail witness against the raw table.

    Returns True when the witness still exhibits the claimed violation.
    """
    u = c.universe
    m = u.mask_of
    if axiom == "capacity_filling":
        s, q = m(w["S"]), w["q"]
        got = c.choose(Problem(s, q))
        return popcount(got) != min(popcount(s), q) and got == m(w["chosen"])
    if axiom == "gross_substitutes":
        s, q = m(w["S"]), w["q"]
        a, b = u.index(w["a"]), u.index(w["b"])
        sub = s & ~(1 << b)
        return (
            bool((c.choose(Problem(s, q)) >> a) & 1)
            and sub != 0
            and not (c.choose(Problem(sub, q)) >> a) & 1
        )
    if axiom == "monotonicity":
        s, q, a = m(w["S"]), w["q"], u.index(w["alt"])
        return bool((c.choose(Problem(s, q)) >> a) & 1) and not (
            c.choose(Problem(s, q + 1)) >> a
        ) & 1
    if axiom == "iaa":
        s, sp, q = m(w["S"]), m(w["S_prime"]), w["q"]
        rej = s & ~c.choose(Problem(s, q))
        rejp = sp & ~c.choose(Problem(sp, q))
        if rej != rejp:
            return False
        new = c.choose(Problem(s, q + 1)) & rej
        newp = c.choose(Problem(sp, q + 1)) & rejp
        return new != newp and new == m(w["new_accepted_S"]) and newp == m(
            w["new_accepted_S_prime"]
        )
    if axiom == "cwarp":
        q = w["q"]
        a, b = u.index(w["a"]), u.index(w["b"])
        return _revealed_at(c, q, a, b, m(w["S_ab"])) and _revealed_at(
            c, q, b, a, m(w["S_ba"])
        )
    if axiom == "wrarp":
        q = w["q"]
        a, b = u.index(w["a"]), u.index(w["b"])
        return _chosen_over_at(c, q, a, b, m(w["S_ab"])) and _chosen_over_at(
            c, q, b, a, m(w["S_ba"])
        )
    if axiom == "cwrarp":
        a, b = u.index(w["a"]), u.index(w["b"])
        return _chosen_over_at(c, w["q_ab"], a, b, m(w["S_ab"])) and _chosen_over_at(
            c, w["q_ba"], b, a, m(w["S_ba"])
        )
    if axiom == "path_independence":
        s, t, q = m(w["S"]), m(w["T"]), w["q"]
        merged = c.choose(Problem(s, q)) | c.choose(Problem(t, q))
        return c.choose(Problem(s | t, q)) != c.choose(Problem(merged, q))
    raise ValueError(f"unknown axiom {axiom!r}")


def _chosen_over_at(c: ChoiceTable, q: int, a: int, b: int, s: int) -> bool:
    ch = c.choose(Problem(s, q))
    return bool((ch >> a) & 1) and bool(((s & ~ch) >> b) & 1)


def _revealed_at(c: ChoiceTable, q: int, a: int, b: int, s: int) -> bool:
    prev = c.choose(Problem(s, q - 1))
    if (prev >> a) & 1 or (prev >> b) & 1:
        return False
    return _chosen_over_at(c, q, a, b, s)

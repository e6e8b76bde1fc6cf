"""Exhaustive axiom checkers over choice tables.

Every checker scans the full problem space and returns an
:class:`AxiomReport`.  The report fails exactly when it carries a witness:
the first counterexample found in a deterministic canonical order (sets
ascending by bitmask, capacities ascending, alternatives ascending).  Two
scans take capacities first, then sets: :func:`check_iaa` reports the first
violating set of the lowest capacity that has one, and a
:class:`~lexichoice.core.ChoiceTable` refuses, when it is built, the first
bad entry of the lowest capacity that has one.
Once a check has derived capacity filling, heritage and monotonicity, the
relation axioms read only the sets of q+1 alternatives at capacity q, and
:func:`check_iaa` only those of q+2: the q+1 and q+2 witness lemmas
(proved at ``ChoiceTable.witness_sets_apply`` and :func:`check_iaa`) show
that these sets give the verdict of the whole space, and each witness is
still looked up over every set.
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


def _labels(c: ChoiceTable, mask: int) -> list[str]:
    return sorted(c.universe.labels_of(mask))


# --- the four characterizing axioms -----------------------------------------


def check_capacity_filling(c: ChoiceTable) -> AxiomReport:
    """|C(S, q)| must equal min(|S|, q) at every problem."""
    if c.unfilled is None:
        return AxiomReport("capacity_filling")
    s, q = c.unfilled
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
    out = _kernels.gs_first_violation(c.n, c.rows, c.heritage)
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
    if c.nonmonotone is None:
        return AxiomReport("monotonicity")
    s, q = c.nonmonotone
    alt = next(iter_bits(int(c.cols[q, s]) & ~int(c.cols[q + 1, s])))
    return AxiomReport(
        "monotonicity",
        {"S": _labels(c, s), "q": q, "alt": c.universe.labels[alt]},
    )


def _iaa_first(sets: np.ndarray, chosen: np.ndarray, chosen_next: np.ndarray, slot: np.ndarray):
    """The first IAA violation among ``sets`` at one capacity q, or None.

    ``sets`` is an ascending array of nonempty uint16 masks, ``chosen`` and
    ``chosen_next`` their C(S, q) and C(S, q+1), and ``slot`` a uint16 array
    of 2**n entries to group in.  Each set is compared with the first set
    of ``sets`` sharing its rejection set, so the scan is linear in the sets
    rather than quadratic in set pairs.  A rejection set is a mask below
    2**n, so sets are grouped by direct address: each set's newly accepted
    set is written into the slot of its rejection set, from the last set
    down, so the first set of each rejection set is written last and stays.
    NumPy writes the repeated indices of a one-dimensional assignment in
    order; ``test_iaa_witness_matches_loop_oracle`` pins the witness this
    gives.  A violation is ``(f, i, rejected, new)``: the positions in
    ``sets`` of the first set S and of the first set S' that disagrees
    with it, and the rejection and newly accepted sets of every set.
    """
    rej = sets & ~chosen
    new = chosen_next & rej
    slot[rej[::-1]] = new[::-1]
    bad = new != slot[rej]
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return int(np.argmax(rej == rej[i])), i, rej, new  # f: the first set with rej[i]


def check_iaa(c: ChoiceTable) -> AxiomReport:
    """Irrelevance of accepted alternatives.

    Equal rejection sets at q must yield equal newly-accepted sets at q+1.
    Capacities ascend, and at each one :func:`_iaa_first` scans every set;
    the first violation is reported.

    The q+2 witness lemma: let the table be capacity-filling, keep heritage
    and be monotone (``ChoiceTable.witness_sets_apply(revealed=True)``).
    Then IAA fails at q exactly when two sets of exactly q+2 alternatives
    have the same rejection set at q and newly accept different sets at
    q+1.  Proof: let S1 and S2 share R = Si minus C(Si, q) and differ in
    their new sets C(Si, q+1) within R.  R is not empty, since otherwise
    both new sets are, so filling gives |Ai| = q, where Ai = C(Si, q).
    Monotonicity and filling give C(Si, q+1) = Ai with one xi of R added,
    and x1 != x2.  Let Ti = Ai with x1 and x2 added.  Remove the other
    members of R from Si one at a time: each removed b lies outside both
    choices and every set on the way keeps at least q+2 members, so
    heritage and filling keep C(., q) = Ai and C(., q+1) = Ai with xi.  So
    T1 and T2, of q+2 alternatives each, both reject {x1, x2} at q and
    newly accept x1 != x2 at q+1.  A set of q+1 alternatives rejects one
    alternative and newly accepts exactly that one, so it never violates;
    at q = n-1 no set has q+2 alternatives.

    So when a check has already derived those facts, capacity q is decided
    on its C(n, q+2) sets of q+2 alternatives, one run of the masks sorted
    by size (``_kernels._by_size``; 65,399 sets over all capacities at
    n = 16, against 15 x 65,535), and only the first capacity that fails
    there is scanned again over every set, which gives the same first
    violation as the full scan.  Otherwise every capacity scans every set.
    """
    n = c.n
    masks = _kernels._masks(n)[1:]
    slot = np.empty(1 << n, dtype=np.uint16)
    if c.witness_sets_apply(revealed=True):
        by_size, _, larger = _kernels._by_size(n)

        def fails(q: int) -> bool:  # on the sets of q+2 alternatives
            sets = by_size[larger[q + 1] : larger[q + 2]]
            return _iaa_first(sets, c.cols[q].take(sets), c.cols[q + 1].take(sets), slot) is not None

        capacities = (q for q in range(1, n - 1) if fails(q))
    else:
        capacities = range(1, n)
    for q in capacities:
        violation = _iaa_first(masks, c.cols[q, 1:], c.cols[q + 1, 1:], slot)
        if violation is not None:
            break
    else:
        return AxiomReport("iaa")
    f, i, rej, new = violation
    return AxiomReport(
        "iaa",
        {
            "S": _labels(c, int(masks[f])),
            "S_prime": _labels(c, int(masks[i])),
            "q": q,
            "rejected": _labels(c, int(rej[i])),
            "new_accepted_S": _labels(c, int(new[f])),
            "new_accepted_S_prime": _labels(c, int(new[i])),
        },
    )


# --- revealed preference axioms ----------------------------------------------


def _first_set(c: ChoiceTable, q: int, a: int, b: int, revealed: bool = False) -> int:
    """The first S with a chosen over b at (S, q), or revealed preferred to
    b with ``revealed``, on the run of capacity q over every set
    (``_kernels.relation_runs``), whose positions are the masks; 0 if none."""
    chosen, rejected, _ = _kernels.relation_runs(c.n, c.cols, range(q, q + 1), revealed=revealed)
    return int(np.argmax(((chosen >> a) & (rejected >> b) & 1) != 0))


def _first_two_way(edges: np.ndarray) -> tuple[int, ...] | None:
    """First index (..., a, b) with a < b and both edges[..., a, b] and
    edges[..., b, a], in C order: by the leading axes of a stack of
    relations, then a-major."""
    both = np.triu(edges & edges.swapaxes(-1, -2), 1)
    if not both.any():
        return None
    return tuple(int(v) for v in np.argwhere(both)[0])


def _asymmetry(axiom: str, c: ChoiceTable, capacities, edges, revealed: bool) -> AxiomReport:
    """Fail at the first of ``capacities`` whose relation, its matrix in the
    stack ``edges``, has a two-way pair."""
    found = _first_two_way(edges)
    if found is None:
        return AxiomReport(axiom)
    i, a, b = found
    q = capacities[i]
    return AxiomReport(
        axiom,
        {
            "q": q,
            "a": c.universe.labels[a],
            "b": c.universe.labels[b],
            "S_ab": _labels(c, _first_set(c, q, a, b, revealed)),
            "S_ba": _labels(c, _first_set(c, q, b, a, revealed)),
        },
    )


def check_cwarp(c: ChoiceTable) -> AxiomReport:
    """The revealed preference relation must be asymmetric at every capacity.

    When the table is known to be capacity-filling, heritage-keeping and
    monotone (``ChoiceTable.witness_sets_apply``), the edges of every
    capacity q come at once from its sets of q+1 alternatives
    (``_kernels.relation_runs`` with ``witness``).  Otherwise they are
    computed over every set one block of capacities at a time
    (``_kernels.capacity_block``), and the scan stops at the first block
    with a two-way pair.
    """
    n = c.n
    witness = c.witness_sets_apply(revealed=True)
    block = n if witness else _kernels.capacity_block(n)
    for lo in range(2, n + 1, block):
        capacities = range(lo, min(lo + block, n + 1))
        runs = _kernels.relation_runs(n, c.cols, capacities, witness, revealed=True)
        edges = _kernels.chosen_over_edges(n, *runs)
        report = _asymmetry("cwarp", c, capacities, edges, revealed=True)
        if not report.ok:
            return report
    return AxiomReport("cwarp")


def check_wrarp(c: ChoiceTable) -> AxiomReport:
    """Per-capacity asymmetry of the chosen-over relation.

    A violation of the pairwise formulation (a chosen over b at one problem,
    b chosen over a at another problem of the same capacity) is exactly a
    symmetric chosen-over pair at that capacity.
    """
    return _asymmetry("wrarp", c, range(1, c.n + 1), c.chosen_over, revealed=False)


def check_cwrarp(c: ChoiceTable) -> AxiomReport:
    """Cross-capacity asymmetry of the chosen-over relation.

    The verdict reads the union of the per-capacity edges; on fail, each
    direction of the first two-way pair reports its least (S, q) over the
    capacities that hold that edge.
    """
    n = c.n
    edges = c.chosen_over
    pair = _first_two_way(edges.any(axis=0))
    if pair is None:
        return AxiomReport("cwrarp")
    a, b = pair

    def least(a: int, b: int) -> tuple[int, int]:
        return min(
            (_first_set(c, q, a, b), q)
            for q in range(1, n + 1)
            if edges[q - 1, a, b]
        )

    (s_ab, q_ab), (s_ba, q_ba) = least(a, b), least(b, a)
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
    out = _kernels.path_independence_first(c.n, c.rows, c.heritage, c.unfilled is None)
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
            a != b
            and bool((c.choose(Problem(s, q)) >> a) & 1)
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
        # row 0 holds C(empty set, q) = empty set, which choose() refuses
        return c.choose(Problem(s | t, q)) != int(c.cols[q, merged])
    raise ValueError(f"unknown axiom {axiom!r}")


def _chosen_over_at(c: ChoiceTable, q: int, a: int, b: int, s: int) -> bool:
    ch = c.choose(Problem(s, q))
    return bool((ch >> a) & 1) and bool(((s & ~ch) >> b) & 1)


def _revealed_at(c: ChoiceTable, q: int, a: int, b: int, s: int) -> bool:
    prev = c.choose(Problem(s, q - 1))
    if (prev >> a) & 1 or (prev >> b) & 1:
        return False
    return _chosen_over_at(c, q, a, b, s)

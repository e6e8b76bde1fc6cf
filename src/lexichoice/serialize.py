"""JSON rule specifications and canonical report serialization.

A rule spec is a JSON object with a ``universe`` (ordered label list) and a
``rule`` object whose ``kind`` selects the constructor:

- ``lexicographic``: ``profile`` = n orderings, each a best-first label list
- ``responsive``: ``ordering`` = one best-first label list
- ``capacity_wise``: ``lists`` = for q = 1..n, a list of q orderings
- ``boston``: ``variant`` in {walk_open, open_walk, rotating, compromise},
  with ``walk`` and ``open`` orderings
- ``table``: ``entries`` = raw (2^n) x (n+1) matrix of chosen bitmasks
- ``flex``: ``profile`` as above plus ``maximal_feasible_sets`` (label lists)

An allocation spec (the ``da`` command) lists ``agents``, ``objects``, one
rule object per object over the agents (``rules``), one ranking of object
labels and ``"null"`` per agent (``preferences``) and one capacity per
object (``capacities``).

Canonical JSON (sorted keys, fixed separators, trailing newline) makes every
report byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .core import ChoiceTable, Universe, make_universe
from .feasibility import (
    FChoiceTable,
    FeasibilityFamily,
    flex_materialize,
    make_family,
)
from .mechanism import AllocationProblem, ChoiceStructure
from .rules import (
    BOSTON_BUILDERS,
    CapacityWise,
    CapacityWiseLists,
    ChoiceRule,
    Lexicographic,
    PriorityOrdering,
    PriorityProfile,
    Responsive,
    TableRule,
    materialize,
    ordering_from_labels,
)


class SpecError(ValueError):
    """A malformed rule specification."""


@dataclass(frozen=True)
class RuleSpec:
    """A parsed specification: a universe plus either a plain rule or a
    feasibility-constrained profile."""

    universe: Universe
    rule: ChoiceRule | None
    flex_profile: PriorityProfile | None
    family: FeasibilityFamily | None
    digest: str

    @property
    def is_flex(self) -> bool:
        return self.flex_profile is not None

    def table(self) -> ChoiceTable | FChoiceTable:
        if self.is_flex:
            return flex_materialize(self.flex_profile, self.family, self.universe)
        return materialize(self.rule, self.universe)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def spec_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecError(f"{where}: missing required field {key!r}")
    return obj[key]


def _ordering(u: Universe, labels, where: str) -> PriorityOrdering:
    if not isinstance(labels, list):
        raise SpecError(f"{where}: ordering must be a list of labels")
    try:
        return ordering_from_labels(u, labels)
    except (KeyError, ValueError) as e:
        raise SpecError(f"{where}: {e}") from None


def _profile(u: Universe, rows, where: str) -> PriorityProfile:
    if not isinstance(rows, list) or len(rows) != u.n:
        raise SpecError(f"{where}: profile must list exactly {u.n} orderings")
    return PriorityProfile(
        tuple(_ordering(u, row, f"{where}[{i}]") for i, row in enumerate(rows))
    )


def _is_int64(x) -> bool:
    """A JSON integer (not a bool or a float) that fits an int64 entry."""
    return isinstance(x, int) and not isinstance(x, bool) and -(1 << 63) <= x < 1 << 63


def parse_spec(obj: dict) -> RuleSpec:
    """Parse and validate a rule-spec dict; raises :class:`SpecError`."""
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    labels = _require(obj, "universe", "spec")
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) for x in labels)
    ):
        raise SpecError("spec: universe must be a nonempty list of strings")
    try:
        u = make_universe(labels)
    except ValueError as e:
        raise SpecError(f"spec: {e}") from None
    rule_obj = _require(obj, "rule", "spec")
    if not isinstance(rule_obj, dict):
        raise SpecError("spec: rule must be an object")
    kind = _require(rule_obj, "kind", "rule")
    digest = spec_digest(obj)

    if kind == "lexicographic":
        profile = _profile(u, _require(rule_obj, "profile", "rule"), "profile")
        return RuleSpec(u, Lexicographic(profile), None, None, digest)
    if kind == "responsive":
        ordering = _ordering(u, _require(rule_obj, "ordering", "rule"), "ordering")
        return RuleSpec(u, Responsive(ordering), None, None, digest)
    if kind == "capacity_wise":
        rows = _require(rule_obj, "lists", "rule")
        if not isinstance(rows, list) or len(rows) != u.n:
            raise SpecError(f"rule: lists must have exactly {u.n} entries")
        try:
            lists = CapacityWiseLists(
                tuple(
                    tuple(
                        _ordering(u, o, f"lists[{q}][{t}]")
                        for t, o in enumerate(row)
                    )
                    for q, row in enumerate(rows)
                )
            )
        except (TypeError, ValueError) as e:
            raise SpecError(f"rule: {e}") from None
        return RuleSpec(u, CapacityWise(lists), None, None, digest)
    if kind == "boston":
        variant = _require(rule_obj, "variant", "rule")
        if not isinstance(variant, str) or variant not in BOSTON_BUILDERS:
            raise SpecError(
                f"rule: unknown boston variant {variant!r}; expected one of "
                f"{sorted(BOSTON_BUILDERS)}"
            )
        w = _ordering(u, _require(rule_obj, "walk", "rule"), "walk")
        o = _ordering(u, _require(rule_obj, "open", "rule"), "open")
        lists = BOSTON_BUILDERS[variant](w, o, u.n)
        return RuleSpec(u, CapacityWise(lists), None, None, digest)
    if kind == "table":
        rows = _require(rule_obj, "entries", "rule")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(_is_int64(x) for x in row) for row in rows
        ):
            raise SpecError("rule: entries must be rows of 64-bit integers")
        try:
            entries = np.array(rows, dtype=np.int64)
        except (TypeError, ValueError) as e:
            raise SpecError(f"rule: bad entries matrix: {e}") from None
        try:
            table = ChoiceTable(u, entries)
            table.validate()
        except ValueError as e:
            raise SpecError(f"rule: {e}") from None
        return RuleSpec(u, TableRule(table), None, None, digest)
    if kind == "flex":
        profile = _profile(u, _require(rule_obj, "profile", "rule"), "profile")
        sets = _require(rule_obj, "maximal_feasible_sets", "rule")
        if not isinstance(sets, list) or not all(
            isinstance(x, list) and all(isinstance(lab, str) for lab in x)
            for x in sets
        ):
            raise SpecError("rule: maximal_feasible_sets must be a list of label lists")
        try:
            family = make_family(u, sets)
        except (KeyError, ValueError) as e:
            raise SpecError(f"rule: {e}") from None
        return RuleSpec(u, None, profile, family, digest)
    raise SpecError(f"rule: unknown kind {kind!r}")


def load_json(path: str):
    """The JSON value in the file at ``path``; raises :class:`SpecError`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SpecError(f"{path}: invalid JSON: {e}") from None


def load_spec(path: str) -> RuleSpec:
    return parse_spec(load_json(path))


def parse_da_spec(obj) -> tuple[ChoiceStructure, AllocationProblem]:
    """Parse and validate an allocation-spec dict; raises :class:`SpecError`."""
    if not isinstance(obj, dict):
        raise SpecError("allocation spec must be a JSON object")
    for key in ("agents", "objects", "rules", "preferences", "capacities"):
        if key not in obj:
            raise SpecError(f"allocation spec: missing field {key!r}")
    for key in ("agents", "objects"):
        labels = obj[key]
        if (
            not isinstance(labels, list)
            or not all(isinstance(x, str) for x in labels)
            or len(set(labels)) != len(labels)
        ):
            raise SpecError(
                f"allocation spec: {key} must be a list of distinct strings"
            )
    if "null" in obj["objects"]:
        raise SpecError('allocation spec: "null" names the null object')
    agents = make_universe(obj["agents"])
    objects = tuple(obj["objects"])
    if not isinstance(obj["rules"], dict):
        raise SpecError("allocation spec: rules must be an object")
    rules = {}
    for x in objects:
        if x not in obj["rules"]:
            raise SpecError(f"allocation spec: no rule for object {x!r}")
        sub = parse_spec({"universe": obj["agents"], "rule": obj["rules"][x]})
        if sub.is_flex:
            raise SpecError("allocation spec: flex rules are not supported here")
        rules[x] = sub.rule
    prefs_raw = obj["preferences"]
    if (
        not isinstance(prefs_raw, list)
        or len(prefs_raw) != agents.n
        or not all(
            isinstance(row, list) and all(isinstance(lab, str) for lab in row)
            for row in prefs_raw
        )
    ):
        raise SpecError(
            f"allocation spec: preferences must list exactly {agents.n} "
            "rankings of labels"
        )
    prefs = tuple(
        tuple(None if lab == "null" else lab for lab in row) for row in prefs_raw
    )
    caps = obj["capacities"]
    if (
        not isinstance(caps, list)
        or len(caps) != len(objects)
        or not all(
            isinstance(q, int) and not isinstance(q, bool) and 0 <= q <= agents.n
            for q in caps
        )
    ):
        raise SpecError(
            "allocation spec: capacities must list one integer in "
            f"0..{agents.n} per object"
        )
    return ChoiceStructure(agents, objects, rules), AllocationProblem(
        prefs, tuple(caps)
    )


def ordering_labels(u: Universe, ordering: PriorityOrdering) -> list[str]:
    return [u.labels[i] for i in ordering.rank]


def profile_labels(u: Universe, profile: PriorityProfile) -> list[list[str]]:
    return [ordering_labels(u, o) for o in profile.orderings]


def report_dict(report) -> dict:
    """AxiomReport -> plain JSON-able dict."""
    return {
        "axiom": report.axiom,
        "verdict": report.verdict,
        "witness": report.witness,
    }


def table_entries(table: ChoiceTable) -> list[list[int]]:
    """Raw entries matrix, the ``table`` spec-kind wire format."""
    return table.entries.tolist()

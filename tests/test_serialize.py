import json

import pytest

from lexichoice import (
    Responsive,
    materialize,
    make_universe,
    ordering_from_labels,
)
from lexichoice.serialize import (
    SpecError,
    canonical_json,
    load_spec,
    parse_spec,
    profile_labels,
    spec_digest,
    table_entries,
)


LEX_SPEC = {
    "universe": ["a", "b", "c"],
    "rule": {
        "kind": "lexicographic",
        "profile": [["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"]],
    },
}


def test_canonical_json_is_stable():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert spec_digest({"b": 1, "a": [2, 3]}) == spec_digest({"a": [2, 3], "b": 1})


def test_parse_lexicographic_round_trip():
    spec = parse_spec(LEX_SPEC)
    assert not spec.is_flex
    u = spec.universe
    assert profile_labels(u, spec.rule.profile) == LEX_SPEC["rule"]["profile"]
    t = spec.table()
    rebuilt = parse_spec(
        {"universe": ["a", "b", "c"], "rule": {"kind": "table", "entries": table_entries(t)}}
    )
    assert rebuilt.table() == t


def test_parse_responsive_and_boston():
    spec = parse_spec(
        {"universe": ["a", "b"], "rule": {"kind": "responsive", "ordering": ["b", "a"]}}
    )
    u = make_universe(["a", "b"])
    assert spec.table() == materialize(
        Responsive(ordering_from_labels(u, ["b", "a"])), u
    )
    spec = parse_spec(
        {
            "universe": ["a", "b", "c"],
            "rule": {
                "kind": "boston",
                "variant": "rotating",
                "walk": ["a", "b", "c"],
                "open": ["c", "b", "a"],
            },
        }
    )
    assert spec.table().validate() is None


def test_parse_capacity_wise():
    spec = parse_spec(
        {
            "universe": ["a", "b"],
            "rule": {
                "kind": "capacity_wise",
                "lists": [[["a", "b"]], [["b", "a"], ["a", "b"]]],
            },
        }
    )
    assert spec.table().validate() is None


def test_parse_flex():
    spec = parse_spec(
        {
            "universe": ["a", "b", "c"],
            "rule": {
                "kind": "flex",
                "profile": [["a", "b", "c"]] * 3,
                "maximal_feasible_sets": [["a", "b"], ["c"]],
            },
        }
    )
    assert spec.is_flex
    t = spec.table()
    t.validate()


@pytest.mark.parametrize(
    "bad",
    [
        [],  # not an object
        {},  # no universe
        {"universe": [], "rule": {"kind": "responsive", "ordering": []}},
        {"universe": ["a", "a"], "rule": {"kind": "responsive", "ordering": ["a", "a"]}},
        {"universe": ["a"]},  # no rule
        {"universe": ["a"], "rule": {"kind": "nope"}},
        {"universe": ["a"], "rule": {"kind": "responsive"}},  # no ordering
        {"universe": ["a", "b"], "rule": {"kind": "responsive", "ordering": ["a"]}},
        {"universe": ["a", "b"], "rule": {"kind": "responsive", "ordering": ["a", "z"]}},
        {"universe": ["a", "b"], "rule": {"kind": "lexicographic", "profile": [["a", "b"]]}},
        {"universe": ["a", "b"], "rule": {"kind": "capacity_wise", "lists": [[["a", "b"]]]}},
        {"universe": ["a"], "rule": {"kind": "boston", "variant": "sideways", "walk": ["a"], "open": ["a"]}},
        {"universe": ["a"], "rule": {"kind": "table", "entries": "nope"}},
        {"universe": ["a"], "rule": {"kind": "table", "entries": [[0, 0], [0, 3]]}},
        {"universe": ["a"], "rule": {"kind": "table", "entries": [[0, 0], [0, 2**64]]}},
        {"universe": ["a"], "rule": {"kind": "table", "entries": [[0, 0], [0, 1.7]]}},
        {"universe": ["a"], "rule": {"kind": "table", "entries": [[0, 0], [0, True]]}},
        {"universe": ["a", "b"], "rule": {"kind": "flex", "profile": [["a", "b"]] * 2, "maximal_feasible_sets": "nope"}},
        {"universe": ["a", "b"], "rule": {"kind": "flex", "profile": [["a", "b"]] * 2, "maximal_feasible_sets": [1.5]}},
        {"universe": ["a", "b"], "rule": {"kind": "flex", "profile": [["a", "b"]] * 2, "maximal_feasible_sets": ["ab"]}},
        {"universe": ["a", "b"], "rule": {"kind": "flex", "profile": [["a", "b"]] * 2, "maximal_feasible_sets": [3]}},
        {"universe": ["a", "b"], "rule": {"kind": "flex", "profile": [["a", "b"]] * 2, "maximal_feasible_sets": [True]}},
        {"universe": ["a"], "rule": {"kind": "boston", "variant": ["x"], "walk": ["a"], "open": ["a"]}},
    ],
)
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_load_spec_errors(tmp_path):
    with pytest.raises(SpecError):
        load_spec(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        load_spec(str(bad))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(LEX_SPEC))
    spec = load_spec(str(good))
    assert spec.digest == spec_digest(LEX_SPEC)

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from lexichoice.cli import main

LEX_SPEC = {
    "universe": ["a", "b", "c"],
    "rule": {
        "kind": "lexicographic",
        "profile": [["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"]],
    },
}

# capacity-one choices that cycle over pairs: fails the pairwise asymmetry
# axioms while still capacity-filling
ROTATING_SPEC = {
    "universe": ["a", "b", "c", "d", "e"],
    "rule": {
        "kind": "boston",
        "variant": "rotating",
        "walk": ["a", "b", "c", "d", "e"],
        "open": ["e", "b", "d", "c", "a"],
    },
}

WALK_OPEN_SPEC = dict(ROTATING_SPEC, rule=dict(ROTATING_SPEC["rule"], variant="walk_open"))

DA_SPEC = {
    "agents": ["i", "j", "k"],
    "objects": ["x", "y"],
    "rules": {
        "x": {"kind": "responsive", "ordering": ["i", "j", "k"]},
        "y": {"kind": "responsive", "ordering": ["k", "j", "i"]},
    },
    "preferences": [["x", "y", "null"], ["x", "null", "y"], ["x", "y", "null"]],
    "capacities": [1, 1],
}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RESP_SPEC = {
    "universe": ["a", "b", "c"],
    "rule": {"kind": "responsive", "ordering": ["b", "a", "c"]},
}


def test_check_pass(tmp_path, capsys):
    # a single-ordering rule satisfies every checked axiom
    path = _write(tmp_path, "resp.json", RESP_SPEC)
    code, out, err = _run(capsys, ["check", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"]
    assert set(payload["axioms"]) >= {"capacity_filling", "iaa", "cwarp"}
    for name, entry in payload["axioms"].items():
        assert set(entry) == {"axiom", "verdict", "witness"}
        assert entry["axiom"] == name and entry["witness"] is None
    assert "elapsed" in err and "elapsed" not in out


def test_check_fail_with_replay(tmp_path, capsys):
    path = _write(tmp_path, "wo.json", WALK_OPEN_SPEC)
    code, out, _ = _run(capsys, ["check", path, "--replay-witness"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["all_pass"]
    assert payload["axioms"]["iaa"]["verdict"] == "fail"
    assert payload["axioms"]["iaa"]["witness_replayed"] is True
    for entry in payload["axioms"].values():
        keys = {"axiom", "verdict", "witness"}
        if entry["verdict"] == "fail":
            keys.add("witness_replayed")
        assert set(entry) == keys
        assert (entry["witness"] is None) == (entry["verdict"] == "pass")


def test_check_axiom_subset_and_text_format(tmp_path, capsys):
    path = _write(tmp_path, "wo.json", WALK_OPEN_SPEC)
    code, out, _ = _run(
        capsys,
        ["check", path, "--axioms", "capacity_filling,monotonicity", "--format", "text"],
    )
    assert code == 0
    assert "capacity_filling: PASS" in out
    assert "iaa" not in out
    code, _, err = _run(capsys, ["check", path, "--axioms", "bogus"])
    assert code == 2 and "unknown axioms" in err


def test_check_flex_spec_uses_flex_axioms(tmp_path, capsys):
    spec = {
        "universe": ["a", "b", "c"],
        "rule": {
            "kind": "flex",
            "profile": [["a", "b", "c"]] * 3,
            "maximal_feasible_sets": [["a", "b"], ["c"]],
        },
    }
    path = _write(tmp_path, "flex.json", spec)
    code, out, _ = _run(capsys, ["check", path])
    assert code == 0
    assert set(json.loads(out)["axioms"]) == {"f_capacity_filling", "csarp"}


def test_check_input_error(tmp_path, capsys):
    code, _, err = _run(capsys, ["check", str(tmp_path / "nope.json")])
    assert code == 2 and "error:" in err


def test_non_utf8_spec_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "bytes.json"
    p.write_bytes(b"\xff")
    for cmd in ["check", "extract", "da"]:
        code, out, err = _run(capsys, [cmd, str(p)])
        assert code == 2 and out == "", cmd
        assert f"error: {p}: invalid JSON" in err and "Traceback" not in err, cmd


def test_extract_kinds(tmp_path, capsys):
    path = _write(tmp_path, "lex.json", LEX_SPEC)
    code, out, _ = _run(capsys, ["extract", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["extracted"]
    assert payload["profile"][0] == ["a", "b", "c"]

    resp = {
        "universe": ["a", "b", "c"],
        "rule": {"kind": "responsive", "ordering": ["b", "a", "c"]},
    }
    path = _write(tmp_path, "resp.json", resp)
    code, out, _ = _run(capsys, ["extract", path, "--kind", "responsive"])
    assert code == 0
    assert json.loads(out)["ordering"] == ["b", "a", "c"]


def test_extract_failure_and_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "wo.json", WALK_OPEN_SPEC)
    code, out, _ = _run(capsys, ["extract", path])
    assert code == 1
    payload = json.loads(out)
    assert payload["extracted"] is False and payload["error"]
    code, _, err = _run(capsys, ["extract", path, "--kind", "flex"])
    assert code == 2 and "flex" in err


def test_da_command(tmp_path, capsys):
    path = _write(tmp_path, "da.json", DA_SPEC)
    code, out, _ = _run(capsys, ["da", path])
    assert code == 0
    payload = json.loads(out)
    # all three want x first; i wins x; j finds y unacceptable; k takes y
    assert payload["allocation"] == {"i": "x", "j": "null", "k": "y"}
    code, out, _ = _run(capsys, ["da", path, "--trace"])
    assert json.loads(out)["rounds"][0] == {"x": ["i", "j", "k"]}


def test_da_input_errors(tmp_path, capsys):
    bad = dict(DA_SPEC)
    del bad["capacities"]
    path = _write(tmp_path, "bad.json", bad)
    code, _, err = _run(capsys, ["da", path])
    assert code == 2 and "capacities" in err
    null_rules = {"x": DA_SPEC["rules"]["x"], "null": DA_SPEC["rules"]["y"]}
    for patch, word in [
        ({"capacities": [True, 1]}, "capacities"),
        ({"objects": "xy"}, "objects"),
        ({"objects": ["x", "x"]}, "objects"),
        ({"objects": ["x", "null"], "rules": null_rules}, "null"),
    ]:
        path = _write(tmp_path, "bad.json", dict(DA_SPEC, **patch))
        code, out, err = _run(capsys, ["da", path])
        assert code == 2 and word in err and out == ""
        assert "Traceback" not in err


def test_table_entries_must_be_integers(tmp_path, capsys):
    for entry in [2**64, 1.7]:
        spec = {"universe": ["a"], "rule": {"kind": "table", "entries": [[0, 0], [0, entry]]}}
        code, out, err = _run(capsys, ["check", _write(tmp_path, "t.json", spec)])
        assert code == 2 and out == "" and "integers" in err


def test_malformed_flex_sets_and_boston_variant(tmp_path, capsys):
    flex = {"kind": "flex", "profile": LEX_SPEC["rule"]["profile"]}
    specs = [
        dict(LEX_SPEC, rule=dict(flex, maximal_feasible_sets=[entry]))
        for entry in [1.5, "ab", 4, True]
    ]
    specs.append(dict(ROTATING_SPEC, rule=dict(ROTATING_SPEC["rule"], variant=["x"])))
    for spec in specs:
        code, out, err = _run(capsys, ["check", _write(tmp_path, "bad.json", spec)])
        assert code == 2 and out == "" and "Traceback" not in err
        assert "maximal_feasible_sets" in err or "variant" in err


def test_boston_report(capsys):
    code, out, _ = _run(
        capsys,
        [
            "boston-report",
            "--universe", "a,b,c,d,e",
            "--walk", "a,b,c,d,e",
            "--open", "e,b,d,c,a",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["variants"]) == {"compromise", "open_walk", "rotating", "walk_open"}
    # with five alternatives the compromise lists happen to coincide with a
    # sequential profile; the genuinely non-sequential variants are the two
    # block designs
    assert payload["lexicographic_variants"] == ["compromise", "rotating"]
    assert payload["variants"]["walk_open"]["axioms"]["iaa"] == "fail"
    assert payload["variants"]["walk_open"]["boston_requirement"] is True
    code, _, err = _run(
        capsys,
        ["boston-report", "--universe", "a,b", "--walk", "a,b", "--open", "a,a"],
    )
    assert code == 2


def test_repro_command(capsys):
    code, out, _ = _run(capsys, ["repro", "--case", "switching_rule"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["cases"][0]["id"] == "switching_rule"
    code, _, err = _run(capsys, ["repro", "--case", "nope"])
    assert code == 2
    code, out, _ = _run(capsys, ["repro", "--format", "text"])
    assert code == 0 and "all: PASS" in out


def test_stdout_byte_identical_across_runs(tmp_path, capsys):
    path = _write(tmp_path, "wo.json", WALK_OPEN_SPEC)
    outputs = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["check", path, "--replay-witness"])
        assert code == 1
        outputs.append(out)
    assert outputs[0] == outputs[1]
    repro = []
    for _ in range(2):
        code, out, _ = _run(capsys, ["repro"])
        assert code == 0
        repro.append(out)
    assert repro[0] == repro[1]


# --- fuzz contract: exit codes over arbitrary specs -------------------------

LABELS = ["a", "b", "c", "d"]
KINDS = ["lexicographic", "responsive", "capacity_wise", "boston", "table", "flex", "x"]
_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(-2, 17)
    | st.floats(-2, 2)
    | st.sampled_from(LABELS + ["", "z", "null", "kind"])
)
ANY_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "rule", "x"]), inner, max_size=2),
    max_leaves=6,
)


def _ordering(draw, labels, valid=18):
    # mostly a valid ordering, so that specs with several of them still parse
    how = draw(st.sampled_from(["valid"] * valid + ["labels", "json"]))
    if how == "labels":
        return draw(st.lists(st.sampled_from(labels + ["z"]), max_size=len(labels) + 1))
    if how == "json":
        return draw(ANY_JSON)
    return draw(st.permutations(labels))


def _table_entries(draw, n):
    # rows of chosen subsets of S with at most q members: often a valid
    # table; now and then its last entry is not a 64-bit integer
    rnd = draw(st.randoms(use_true_random=False))
    rows = [[0] * (n + 1)]
    for s in range(1, 1 << n):
        members = [a for a in range(n) if s >> a & 1]
        row = [0]
        for q in range(1, n + 1):
            rnd.shuffle(members)
            k = min(q, len(members)) - (rnd.random() < 0.2)
            row.append(sum(1 << a for a in members[: max(k, 0)]))
        rows.append(row)
    if draw(st.sampled_from(["keep"] * 2 + ["junk"])) == "junk":
        rows[-1][-1] = draw(st.sampled_from([2**64, 1.5, True, -1, "a", None]))
    return rows


def _rule(draw, kind, labels):
    n = len(labels)
    rule = {"kind": kind}
    if kind in ("lexicographic", "flex"):
        rule["profile"] = [_ordering(draw, labels) for _ in range(n)]
    if kind == "flex":
        rule["maximal_feasible_sets"] = draw(
            st.lists(st.lists(st.sampled_from(labels), unique=True), max_size=3)
            | ANY_JSON
        )
    if kind == "responsive":
        rule["ordering"] = _ordering(draw, labels)
    if kind == "capacity_wise":
        rule["lists"] = [[_ordering(draw, labels) for _ in range(q)] for q in range(1, n + 1)]
    if kind == "boston":
        rule["variant"] = draw(st.sampled_from(["walk_open", "rotating", "x"]) | ANY_JSON)
        rule["walk"] = _ordering(draw, labels)
        rule["open"] = _ordering(draw, labels)
    if kind == "table":
        rule["entries"] = _table_entries(draw, n)
    return rule


def _mutate(draw, spec: dict) -> object:
    """Replace or drop one top-level field, or the whole spec, now and then."""
    how = draw(st.sampled_from(["keep"] * 9 + ["replace", "drop", "whole"]))
    key = draw(st.sampled_from(sorted(spec)))
    if how == "replace":
        spec[key] = draw(ANY_JSON)
    elif how == "drop":
        del spec[key]
    elif how == "whole":
        return draw(ANY_JSON)
    return spec


@st.composite
def cli_calls(draw, kind):
    """(command, spec, flags) with every rule of the spec of the given kind."""
    command = draw(st.sampled_from(["check", "extract", "da"]))
    if command == "da":
        agents = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
        objects = draw(st.lists(st.sampled_from(["x", "y"]), min_size=1, unique=True))
        spec = {
            "agents": agents,
            "objects": objects,
            "rules": {x: _rule(draw, kind, agents) for x in objects},
            "preferences": [_ordering(draw, objects + ["null"], valid=6) for _ in agents],
            "capacities": [draw(st.integers(0, len(agents))) for _ in objects],
        }
        return command, _mutate(draw, spec), []
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    spec = _mutate(draw, {"universe": labels, "rule": _rule(draw, kind, labels)})
    if command == "check":
        return command, spec, draw(st.sampled_from([[], ["--replay-witness"]]))
    matching = ["flex"] if kind == "flex" else ["lexicographic", "responsive", "capacity_wise"]
    # the last two mismatch a flex or a plain spec now and then
    return command, spec, ["--kind", draw(st.sampled_from(matching + ["flex", "lexicographic"]))]


@pytest.mark.parametrize("kind", KINDS)
def test_cli_exit_codes_on_arbitrary_specs(tmp_path_factory, kind):
    # exit 0, 1 or 2 only; never a traceback; exit 1 only with a fail verdict
    # or a failed extraction; exit 2 prints nothing on stdout
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(call=cli_calls(kind))
    def run(call):
        command, spec, flags = call
        path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
            return
        payload = json.loads(out.getvalue())
        if command == "check":
            failed = [a for a, r in payload["axioms"].items() if r["verdict"] == "fail"]
            assert (code == 1) == bool(failed) == (not payload["all_pass"])
        elif command == "extract":
            assert (code == 1) == (payload["extracted"] is False)
        else:
            assert code == 0

    run()

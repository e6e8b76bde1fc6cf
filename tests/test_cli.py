import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lexichoice
from lexichoice import (ALL_CHECKS, Lexicographic, PriorityProfile, _kernels, make_universe,
                        materialize, ordering_from_labels)
from lexichoice.axioms import check_iaa
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


def test_path_independence_replay_with_empty_choices(tmp_path, capsys):
    # C({a}, q) and C({b}, q) are empty, so the merged set is the empty set,
    # whose choice is row 0 of the table
    spec = {
        "universe": ["a", "b"],
        "rule": {"kind": "table", "entries": [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1, 1]]},
    }
    path = _write(tmp_path, "empty.json", spec)
    code, out, err = _run(capsys, ["check", path, "--replay-witness"])
    assert code == 1 and "Traceback" not in err
    entry = json.loads(out)["axioms"]["path_independence"]
    assert entry["witness"] == {"S": ["a"], "T": ["b"], "q": 1}
    assert entry["witness_replayed"] is True


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


def test_check_runs_each_listed_axiom_once_in_canonical_order(
    tmp_path, capsys, monkeypatch, scan_calls
):
    spec = {"universe": ["a", "b"], "rule": {"kind": "responsive", "ordering": ["b", "a"]}}
    calls = []

    def counted_iaa(table):
        calls.append(table.n)
        return check_iaa(table)

    monkeypatch.setitem(ALL_CHECKS, "iaa", counted_iaa)
    code, out, _ = _run(capsys, ["check", _write(tmp_path, "r.json", spec), "--axioms", "iaa,iaa"])
    assert code == 0 and calls == [2] and list(json.loads(out)["axioms"]) == ["iaa"]
    # a list in any order, with repeats, prints the report of the canonical
    # list; on the n = 8 lexicographic rule the relation axioms run after
    # capacity filling, gross substitutes and monotonicity whatever the
    # order listed, so they read the sets of q+1 alternatives
    labels = [f"x{i}" for i in range(8)]
    rng = random.Random("order")
    lex = {"universe": labels,
           "rule": {"kind": "lexicographic", "profile": [rng.sample(labels, 8) for _ in range(8)]}}
    for name, obj in (("rot.json", ROTATING_SPEC), ("lex8.json", lex)):
        path = _write(tmp_path, name, obj)
        for fmt in ("json", "text"):
            forward = _run(capsys, ["check", path, "--replay-witness", "--format", fmt,
                                    "--axioms", ",".join(ALL_CHECKS)])[:2]
            backward = list(ALL_CHECKS)[::-1]
            for listed in (backward, backward + ["iaa", "cwarp"]):
                scan_calls["edges"].clear()
                scan_calls["witness_edges"].clear()
                assert _run(capsys, ["check", path, "--replay-witness", "--format", fmt,
                                     "--axioms", ",".join(listed)])[:2] == forward, (name, fmt)
                if name == "lex8.json":
                    assert len(scan_calls["witness_edges"]) == 2 and scan_calls["edges"] == []


@pytest.mark.parametrize("listed", [",", "", " , ,"])
def test_check_refuses_an_axiom_list_that_names_none(tmp_path, capsys, listed):
    # a pass over zero checks is no pass: exit 2, not an empty "all_pass"
    spec = {"universe": ["a", "b"], "rule": {"kind": "responsive", "ordering": ["b", "a"]}}
    code, out, err = _run(capsys, ["check", _write(tmp_path, "r.json", spec), "--axioms", listed])
    assert code == 2 and out == ""
    assert err.splitlines()[0] == (
        f"error: --axioms names no axiom; available: {sorted(ALL_CHECKS)}"
    )


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


def test_flex_commands_build_the_augmentations_once(tmp_path, capsys, augmentation_calls):
    # the family that the spec parses to builds its augmentation table; the
    # fill, both checkers and extraction read it and build no other
    spec = dict(LEX_SPEC, rule=dict(LEX_SPEC["rule"], kind="flex",
                                    maximal_feasible_sets=[["a", "b"], ["b", "c"]]))
    path = _write(tmp_path, "flex.json", spec)
    for argv in (["check", path, "--replay-witness"], ["extract", path, "--kind", "flex"]):
        augmentation_calls.clear()
        code, _, _ = _run(capsys, argv)
        assert code == 0 and augmentation_calls == [3], argv


def test_check_derives_each_scan_once(tmp_path, capsys, scan_calls):
    # a default check of an n = 8 lexicographic rule: gross substitutes and
    # path independence share one removal scan, which decides path
    # independence since the table is capacity-filling; capacity filling,
    # heritage and monotonicity are derived before the relation axioms, so
    # CWARP's revealed edges and the chosen-over edges that WRARP and CWRARP
    # share are each one call on the sets of q+1 alternatives, and no call
    # reads every set
    labels = [f"x{i}" for i in range(8)]
    rng = random.Random("scans")
    profile = [rng.sample(labels, 8) for _ in range(8)]
    lex = _write(tmp_path, "lex8.json", {"universe": labels,
                                         "rule": {"kind": "lexicographic", "profile": profile}})
    code, out, _ = _run(capsys, ["check", lex, "--replay-witness"])
    assert code in (0, 1) and len(json.loads(out)["axioms"]) == 8
    assert scan_calls["removal"] == ["heritage"] and scan_calls["unfilled"] == [8]
    u = make_universe(labels)
    table = materialize(Lexicographic(PriorityProfile(tuple(
        ordering_from_labels(u, r) for r in profile))), u)
    chosen = _kernels.witness_set_columns(8, table.cols, 1)[0]
    revealed = _kernels.witness_set_columns(8, table.cols, 2, revealed=True)[0]
    witness_calls = scan_calls["witness_edges"]
    assert len(witness_calls) == 2 and scan_calls["edges"] == []
    assert [np.array_equal(c, chosen) for c in witness_calls].count(True) == 1
    assert [np.array_equal(c, revealed) for c in witness_calls].count(True) == 1
    # the same rule with C(all, 1) moved to another alternative breaks
    # heritage, so both relations read every set: the chosen-over edges of
    # all 8 capacities once, and CWARP's revealed edges of capacities 2..8
    # in one block at n = 8
    entries = table.cols.T.tolist()
    best = entries[-1][1]
    entries[-1][1] = 1 << next(i for i in range(8) if 1 << i != best)
    moved = _write(tmp_path, "moved8.json", {"universe": labels,
                                             "rule": {"kind": "table", "entries": entries}})
    for key in scan_calls:
        scan_calls[key].clear()
    code, out, _ = _run(capsys, ["check", moved])
    assert code == 1 and json.loads(out)["axioms"]["gross_substitutes"]["verdict"] == "fail"
    cols = np.array(entries, dtype=np.uint16).T
    full = scan_calls["edges"]
    assert scan_calls["witness_edges"] == [] and len(full) == 2
    assert [np.array_equal(c, cols[1:]) for c in full].count(True) == 1
    assert [np.array_equal(c, cols[2:] & ~cols[1:-1]) for c in full].count(True) == 1
    # C(S, q) = S & {x0}: heritage holds and capacity filling fails, so
    # path independence adds the outcast condition alone to the heritage
    # flags, and capacity filling is decided once for both checkers
    entries = [[0] + [s & 1] * 8 for s in range(1 << 8)]
    only = _write(tmp_path, "only.json", {"universe": labels,
                                          "rule": {"kind": "table", "entries": entries}})
    scan_calls["removal"].clear()
    scan_calls["unfilled"].clear()
    code, out, _ = _run(capsys, ["check", only, "--axioms", "capacity_filling,path_independence"])
    verdicts = {k: v["verdict"] for k, v in json.loads(out)["axioms"].items()}
    assert code == 1 and verdicts == {"capacity_filling": "fail", "path_independence": "pass"}
    assert scan_calls["removal"] == ["heritage", "outcast"] and scan_calls["unfilled"] == [8]


def test_iaa_reads_the_sets_of_q_plus_2_alternatives_after_the_facts(tmp_path, capsys, scan_calls):
    # a default check derives capacity filling, heritage and monotonicity
    # before IAA, which then decides capacity q on its C(8, q+2) sets of q+2
    # alternatives and scans every set only at the first capacity that
    # fails there; --axioms iaa alone derives no fact and scans every set
    # of every capacity it reaches.  Both print the same IAA report.
    labels = [f"x{i}" for i in range(8)]
    rng = random.Random("iaa-runs")
    lex = {"universe": labels,
           "rule": {"kind": "lexicographic", "profile": [rng.sample(labels, 8) for _ in range(8)]}}
    lists, orderings = [], []  # each capacity inserts one ordering into the last list
    for q in range(1, 9):
        orderings.insert(rng.randrange(q), rng.sample(labels, 8))
        lists.append(list(orderings))
    inserted = {"universe": labels, "rule": {"kind": "capacity_wise", "lists": lists}}
    runs = [math.comb(8, q + 2) for q in range(1, 7)]
    for name, spec, failing in (("lex8.json", lex, None), ("inserted8.json", inserted, 2)):
        path = _write(tmp_path, name, spec)
        scan_calls["iaa"].clear()
        code, out, _ = _run(capsys, ["check", path, "--replay-witness"])
        report = json.loads(out)["axioms"]["iaa"]
        assert code in (0, 1)
        if failing is None:
            assert report["verdict"] == "pass" and scan_calls["iaa"] == runs
        else:
            assert report["witness"]["q"] == failing and report["witness_replayed"] is True
            assert scan_calls["iaa"] == runs[:failing] + [255]
        scan_calls["iaa"].clear()
        code, out, _ = _run(capsys, ["check", path, "--replay-witness", "--axioms", "iaa"])
        assert json.loads(out)["axioms"]["iaa"] == report
        assert scan_calls["iaa"] == [255] * (failing or 7)


def test_a_table_built_from_a_matrix_is_scanned_once(tmp_path, capsys, table_reads, scan_calls):
    # one validity scan per table built from a matrix, whichever way the
    # spec is read: a table spec that the byte read takes, one that it
    # declines (an alternative labelled "entries" listed before the rule),
    # and a da spec with one table rule
    u = make_universe(LEX_SPEC["universe"])
    profile = PriorityProfile(tuple(ordering_from_labels(u, r) for r in LEX_SPEC["rule"]["profile"]))
    entries = materialize(Lexicographic(profile), u).cols.T.tolist()
    table = {"kind": "table", "entries": entries}
    fast = _write(tmp_path, "fast.json", {"universe": ["a", "b", "c"], "rule": table})
    slow = _write(tmp_path, "slow.json", {"universe": ["entries", "b", "c"], "rule": table})
    da = _write(tmp_path, "da.json", dict(DA_SPEC, rules=dict(DA_SPEC["rules"], y=table)))
    for argv, read in ((["check", fast], ["bytes"]), (["check", slow], ["json"]), (["da", da], ["json"])):
        table_reads.clear()
        scan_calls["invalid"].clear()
        code, _, _ = _run(capsys, argv)
        assert code in (0, 1) and table_reads == read, argv
        assert scan_calls["invalid"] == [3], argv


def test_a_usage_error_leaves_the_parser_as_it_was(tmp_path):
    # main builds its parser once per process: usage errors (exit 2) and then
    # a valid command, all in one process, print what each prints in a
    # process of its own, the elapsed lines on stderr aside
    path = _write(tmp_path, "lex.json", LEX_SPEC)
    runs = [["check"], ["extract", path, "--kind", "bogus"], ["extract", path, "--format", "text"]]
    script = (
        "import json, sys\n"
        "from lexichoice.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        code = main(argv)\n"
        "    except SystemExit as e:\n"
        "        code = e.code\n"
        "    sys.stdout.flush()\n"
        "    print('exit', code, file=sys.stderr, flush=True)\n"
    )
    src = os.path.dirname(os.path.dirname(lexichoice.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def printed(batch):
        run = subprocess.run([sys.executable, "-c", script, json.dumps(batch)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        err = [line for line in run.stderr.splitlines() if not line.startswith("elapsed: ")]
        return run.stdout, err

    fresh = [printed([argv]) for argv in runs]
    one = printed(runs)
    assert one == ("".join(out for out, _ in fresh), sum((err for _, err in fresh), []))
    assert [line for line in one[1] if line.startswith("exit ")] == ["exit 2", "exit 2", "exit 0"]
    assert "lexichoice check: error: the following arguments are required: spec" in one[1]


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
    # the reader checks JSON types; the structure and the problem refuse the
    # rest with their own messages
    missing = dict(DA_SPEC)
    del missing["capacities"]
    null_rules = {"x": DA_SPEC["rules"]["x"], "null": DA_SPEC["rules"]["y"]}
    cases = [
        (["x", "y"], "allocation spec must be a JSON object"),
        (missing, "allocation spec: missing field 'capacities'"),
    ]
    for patch, message in [
        ({"agents": ["i", "i", "k"]}, "allocation spec: agents: universe labels must be distinct"),
        ({"agents": []}, "allocation spec: agents: universe must be a nonempty list of strings"),
        ({"objects": "xy"}, "allocation spec: objects must be a list of strings"),
        ({"objects": ["x", "x"]}, "objects ('x', 'x') must be distinct names other than None and \"null\""),
        (
            {"objects": ["x", "null"], "rules": null_rules},
            "objects ('x', 'null') must be distinct names other than None and \"null\"",
        ),
        ({"rules": [1]}, "allocation spec: rules must be an object"),
        ({"rules": {"x": DA_SPEC["rules"]["x"]}}, "allocation spec: no rule for object 'y'"),
        # an error in one object's rule names that object
        ({"rules": dict(DA_SPEC["rules"], y=5)}, "allocation spec: rules['y'] must be an object"),
        (
            {"rules": dict(DA_SPEC["rules"], y={"kind": "responsive", "ordering": ["k", "q", "i"]})},
            "allocation spec: rules['y']: ordering: unknown alternative 'q'",
        ),
        ({"preferences": [["x", "y", 1]]}, "allocation spec: preferences must be a list of label lists"),
        ({"preferences": DA_SPEC["preferences"][:2]}, "problem lists 2 preferences for 3 agents"),
        ({"capacities": {"x": 1}}, "allocation spec: capacities must be a list"),
        ({"capacities": [1]}, "problem lists 1 capacities for 2 objects"),
        ({"capacities": [True, 1]}, "capacity True of object 'x' is not in 0..3"),
        ({"capacities": [1, 4]}, "capacity 4 of object 'y' is not in 0..3"),
        ({"capacities": [1.0, 1]}, "capacity 1.0 of object 'x' is not in 0..3"),
    ]:
        cases.append((dict(DA_SPEC, **patch), message))
    for spec, message in cases:
        code, out, err = _run(capsys, ["da", _write(tmp_path, "bad.json", spec)])
        assert (code, out) == (2, ""), spec
        assert err.splitlines()[0] == f"error: {message}", spec
        assert "Traceback" not in err


def test_table_entries_must_be_integers(tmp_path, capsys):
    not_int64 = "rule: entries must be rows of 64-bit integers"
    ragged = [[0, 0], [0]]
    try:
        np.array(ragged, dtype=np.int64)
    except ValueError as e:
        bad_matrix = f"rule: bad entries matrix: {e}"
    cases = [
        (["a"], [[0, 0], [0, entry]], not_int64)
        for entry in [1.7, True, 2**63, -(2**63) - 1, 2**64, "1", None, [1]]
    ]
    cases += [
        (["a"], [[0, 0], 5], not_int64),  # a row that is not a list
        (["a"], {"0": [0, 0]}, not_int64),  # entries that is not a list
        (["a"], ragged, bad_matrix),
        (["a"], [[0, 0], [0, 0, 2**63]], not_int64),  # ragged, with an int64 overflow
        (["a"], [[0, 0], [0, 2**63 - 1]], "rule: entry at (S=0x1, q=1) is not a subset of S"),
        # C({a}, 0) = {a}: every entry is a subset of its set, within its capacity
        # at q >= 1, but row 0 holds the choices at capacity 0
        (
            ["a", "b"],
            [[0, 0, 0], [1, 1, 1], [0, 2, 2], [0, 1, 3]],
            "rule: row 0 / column 0 must be empty",
        ),
    ]
    for labels, entries, message in cases:
        spec = {"universe": labels, "rule": {"kind": "table", "entries": entries}}
        code, out, err = _run(capsys, ["check", _write(tmp_path, "t.json", spec)])
        assert (code, out) == (2, ""), entries
        assert err.splitlines()[0] == f"error: {message}", entries
        assert "Traceback" not in err


def test_unreadable_json_values_exit_2(tmp_path, capsys):
    # an int past the interpreter's 4300-digit limit, and nesting past the
    # decoder's recursion limit: json.load raises ValueError / RecursionError
    rule = '{"kind": "table", "entries": [[0, 0], [0, %s]]}' % ("9" * 5000)
    deep = "[" * 100_000 + "]" * 100_000
    for name, text, word in [
        ("digits.json", '{"universe": ["a"], "rule": %s}' % rule, "integer string"),
        ("deep.json", '{"universe": ["a"], "x": %s}' % deep, "recursion"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        for argv in (["check", str(path)], ["extract", str(path)], ["da", str(path)]):
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: {path}: invalid JSON: ") and word in err
            assert "Traceback" not in err


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


def test_rule_spec_input_errors(tmp_path, capsys):
    profile = LEX_SPEC["rule"]["profile"]
    for spec, message in [
        ([LEX_SPEC], "spec must be a JSON object"),
        (dict(LEX_SPEC, universe=["a", "b", "a"]), "spec: universe labels must be distinct"),
        (
            dict(LEX_SPEC, universe=[f"x{i}" for i in range(17)]),
            "spec: universe of 17 alternatives exceeds the engine bound of 16",
        ),
        (
            dict(LEX_SPEC, rule={"kind": "lexicographic", "profile": profile[:2]}),
            "profile: profile must list exactly 3 orderings",
        ),
        (
            dict(LEX_SPEC, rule={"kind": "capacity_wise", "lists": [[profile[0]]]}),
            "rule: lists must have exactly 3 entries",
        ),
        (
            dict(LEX_SPEC, rule={"kind": "capacity_wise", "lists": [[profile[0]], 5, "ab"]}),
            "rule: lists[1] must be a list of orderings",
        ),
        (
            dict(LEX_SPEC, rule={"kind": "flex", "profile": profile, "maximal_feasible_sets": [["a", "z"]]}),
            "rule: unknown alternative 'z'",
        ),
    ]:
        code, out, err = _run(capsys, ["check", _write(tmp_path, "bad.json", spec)])
        assert (code, out) == (2, ""), spec
        assert err.splitlines()[0] == f"error: {message}", spec


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
    code, out, err = _run(
        capsys,
        ["boston-report", "--universe", "a,b", "--walk", "a,z", "--open", "a,b"],
    )
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error: unknown alternative 'z'"


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


# a spec file as written compact, indented, or with tabs and CRLF line ends
SPEC_LAYOUTS = {
    "compact": lambda spec: json.dumps(spec).encode(),
    "indent": lambda spec: json.dumps(spec, indent=2).encode(),
    "tab_crlf": lambda spec: json.dumps(spec, indent="\t").replace("\n", "\r\n").encode(),
}


@pytest.mark.parametrize("kind", KINDS)
def test_cli_exit_codes_on_arbitrary_specs(tmp_path_factory, kind):
    # exit 0, 1 or 2 only; never a traceback; exit 1 only with a fail verdict
    # or a failed extraction; exit 2 prints nothing on stdout
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(call=cli_calls(kind), layout=st.sampled_from(sorted(SPEC_LAYOUTS)))
    def run(call, layout):
        command, spec, flags = call
        path.write_bytes(SPEC_LAYOUTS[layout](spec))
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

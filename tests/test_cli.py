import json



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
    assert "elapsed" in err and "elapsed" not in out


def test_check_fail_with_replay(tmp_path, capsys):
    path = _write(tmp_path, "wo.json", WALK_OPEN_SPEC)
    code, out, _ = _run(capsys, ["check", path, "--replay-witness"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["all_pass"]
    assert payload["axioms"]["iaa"]["verdict"] == "fail"
    assert payload["axioms"]["iaa"]["witness_replayed"] is True


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

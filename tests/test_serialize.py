import contextlib
import enum
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_profile, table_entries, universe
from lexichoice import (
    ChoiceTable,
    FChoiceTable,
    Lexicographic,
    Responsive,
    casebook,
    cli,
    materialize,
    make_universe,
    ordering_from_labels,
    serialize,
)
from lexichoice.serialize import (
    SpecError,
    canonical_json,
    da_spec_digest,
    load_spec,
    parse_da_spec,
    parse_spec,
    profile_labels,
    spec_digest,
)


LEX_SPEC = {
    "universe": ["a", "b", "c"],
    "rule": {
        "kind": "lexicographic",
        "profile": [["a", "b", "c"], ["c", "b", "a"], ["b", "a", "c"]],
    },
}


# the table of LEX_SPEC, as a ``table`` spec
TABLE_SPEC = {
    "universe": ["a", "b", "c"],
    "rule": {
        "kind": "table",
        "entries": [
            [0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 2, 2], [0, 1, 3, 3],
            [0, 4, 4, 4], [0, 1, 5, 5], [0, 2, 6, 6], [0, 1, 5, 7],
        ],
    },
}

DA_SPEC = {
    "agents": ["i", "j", "k"],
    "objects": ["x", "y"],
    "rules": {
        "x": {"kind": "responsive", "ordering": ["i", "j", "k"]},
        "y": {"kind": "table", "entries": TABLE_SPEC["rule"]["entries"]},
    },
    "preferences": [["x", "y", "null"], ["x", "null", "y"], ["y", "x", "null"]],
    "capacities": [1, 1],
}


def oracle_json(obj) -> str:
    """The stdlib form that ``canonical_json`` reproduces byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


_INTS = (
    st.integers(-3, 300)
    | st.integers(min_value=2**63)
    | st.integers(max_value=-(2**63))
    | st.integers()
)
_TEXT = st.text(st.characters() | st.sampled_from('\n\r\t\x00\x1f\x7f"\\/\u00e9\u2028\U0001f600'))


def _matrices(cells):
    """Rectangular matrices (the one-format path) of any width, zero included."""
    return st.integers(0, 4).flatmap(
        lambda width: st.lists(
            st.lists(cells, min_size=width, max_size=width), min_size=1, max_size=5
        )
    )


_SCALARS = (
    st.none()
    | st.booleans()
    | _INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | _TEXT
    | st.sampled_from(list(Level))
)
JSON_VALUES = st.recursive(
    _SCALARS
    | _matrices(_INTS)
    | _matrices(_INTS | st.booleans())
    | st.lists(st.lists(_INTS, max_size=3), max_size=5)  # ragged, empty rows too
    | st.lists(_INTS | st.booleans() | st.floats())
    | st.lists(_TEXT),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3), inner, max_size=3),  # keys json.dumps writes
    max_leaves=12,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(value=JSON_VALUES)
def test_canonical_json_matches_stdlib_oracle(value):
    assert canonical_json(value) == oracle_json(value)


def test_canonical_json_matches_oracle_on_tuples_and_matrices():
    for value in [
        ((1, 2), (3, 4)),
        [(1, 2), [3, 4]],
        {"m": ((0,), (1,)), "s": ("a", "b"), "e": (), "d": {}},
        [[1, 2], [3]],
        [[1, True], [2, 3]],
        [[1, 2.0], [3, 4]],
        [[], []],
        [[2**64, -(2**63) - 1], [0, 1]],
        [[Level.LOW, 2], [3, 4]],
        {"a\nb": ["x\ny", "\u00e9"], "": [None, float("nan")]},
        {"nested": {1: "int key", 2: [1, 2]}, "floats": [[0.5, 1.5]]},
    ]:
        assert canonical_json(value) == oracle_json(value)


def test_canonical_json_matches_oracle_on_command_payloads(tmp_path, monkeypatch):
    # every payload that the CLI writes, as the command built it (tuples and
    # all), through a recording canonical_json
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", recording)
    perturbed = json.loads(json.dumps(TABLE_SPEC))
    perturbed["rule"]["entries"][7][1] = 2  # C({a, b, c}, 1) = {b}
    calls = []
    for name, spec in [("lex", LEX_SPEC), ("table", TABLE_SPEC), ("perturbed", perturbed)]:
        path = str(tmp_path / f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        calls += [["check", path, "--replay-witness"], ["extract", path]]
        calls += [["extract", path, "--kind", "capacity_wise"]]
    da_path = str(tmp_path / "da.json")
    with open(da_path, "w") as fh:
        json.dump(DA_SPEC, fh)
    calls += [["da", da_path], ["da", da_path, "--trace"], ["repro"]]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1)
    assert len(payloads) == len(calls)
    assert any(not p.get("all_pass", True) for p in payloads)
    for payload in payloads + [casebook.run_all()]:
        assert canonical_json(payload) == oracle_json(payload)


def test_canonical_json_nesting():
    # one frame per level: as deep as the stdlib encoder writes; deeper
    # values are a SpecError for the digest, not a RecursionError
    value = 0
    for depth in range(300):
        value = [value, "x"] if depth % 2 else {"k": value}
    assert canonical_json(value) == oracle_json(value)
    for _ in range(5000):
        value = [value]
    with pytest.raises(SpecError, match="nested too deeply"):
        spec_digest({"universe": ["a"], "x": value})


def test_spec_digests_are_pinned():
    # SHA-256 of the canonical form; a changed writer changes these
    assert spec_digest(LEX_SPEC) == (
        "d48d3db8c6c1df2d72daeda2d0bf5b91583e1c1c6ecd0228b5ace87ef73772dc"
    )
    assert spec_digest(TABLE_SPEC) == (
        "589179be3d0e36e4e279dded5e0da2a75d73e4b13eaa38ffbd8f0f15ec3706da"
    )
    assert parse_spec(TABLE_SPEC).table() == parse_spec(LEX_SPEC).table()


def test_table_entries_accept_int_subclasses():
    entries = [list(row) for row in TABLE_SPEC["rule"]["entries"]]
    entries[1][1] = Level.LOW
    spec = parse_spec(dict(TABLE_SPEC, rule={"kind": "table", "entries": entries}))
    assert spec.table() == parse_spec(TABLE_SPEC).table()
    assert spec.digest == spec_digest(TABLE_SPEC)


def oracle_digest(obj) -> str:
    return hashlib.sha256(oracle_json(obj).encode()).hexdigest()


def perturbed_table_spec(rng, n):
    """A random lexicographic table as a ``table`` spec; from n = 2 on,
    C(S0, 1) of a random set S0 of two or more members is moved to its
    second-best member, as in the benchmark's perturbed spec."""
    u = universe(n)
    profile = random_profile(rng, n)
    entries = table_entries(materialize(Lexicographic(profile), u))
    if n >= 2:
        s0 = rng.choice([s for s in range(1 << n) if s.bit_count() >= 2])
        members = [a for a in profile.orderings[0].rank if s0 >> a & 1]
        entries[s0][1] = 1 << members[1]
    return {"universe": list(u.labels), "rule": {"kind": "table", "entries": entries}}


def _counting_matrix_writer(monkeypatch):
    """Record the line lead of every matrix the digest writes from a table."""
    calls, writer = [], serialize._matrix_blocks

    def counting(matrix, nl):
        calls.append(nl)
        return writer(matrix, nl)

    monkeypatch.setattr(serialize, "_matrix_blocks", counting)
    return calls


def test_table_digests_are_written_from_the_validated_table(monkeypatch):
    calls = _counting_matrix_writer(monkeypatch)
    rng = random.Random(21)
    for n in range(1, 13):
        spec = perturbed_table_spec(rng, n)
        assert parse_spec(spec).digest == oracle_digest(spec), n
    assert calls == ["\n    "] * 12


def test_table_digest_with_five_digit_entries():
    u = universe(16)
    spec = {
        "universe": list(u.labels),
        "rule": {
            "kind": "table",
            "entries": table_entries(
                materialize(Lexicographic(random_profile(random.Random(16), 16)), u)
            ),
        },
    }
    assert spec["rule"]["entries"][-1][16] == 65535
    assert parse_spec(spec).digest == oracle_digest(spec)


@pytest.mark.parametrize("block_bytes", [1, 300, 1 << 18])
def test_matrix_writer_matches_oracle_in_any_row_blocks(monkeypatch, block_bytes):
    # one row per block, blocks that do not divide the rows, one block
    monkeypatch.setattr(serialize, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(block_bytes)
    for shape in [(1, 1), (1, 5), (7, 1), (9, 4), (33, 17)]:
        for top in (0, 9, 10, 99, 100, 65535, 99999):
            dtype = np.uint16 if top <= 65535 else np.int64  # a table's, a byte read's
            matrix = rng.integers(0, top + 1, size=shape, dtype=dtype)
            matrix.flat[-1] = top
            for nl in ("\n", "\n    ", "\n" + " " * 12):
                text = b"".join(serialize._matrix_blocks(matrix, nl))
                assert text == oracle_json(matrix.tolist())[:-1].replace("\n", nl).encode()
            compact = b"".join(serialize._matrix_blocks(matrix, "", ""))
            assert compact == json.dumps(matrix.tolist(), separators=(",", ":")).encode()


def test_da_table_rules_are_digested_from_their_tables(tmp_path, monkeypatch, capsys):
    calls = _counting_matrix_writer(monkeypatch)
    spec = json.loads(json.dumps(DA_SPEC))
    rng = random.Random(4)
    spec["rules"]["x"] = perturbed_table_spec(rng, 3)["rule"]
    cs, _ = parse_da_spec(spec)
    assert da_spec_digest(spec, cs) == oracle_digest(spec)
    assert calls == ["\n      "] * 2  # the entries of rules.x and rules.y
    path = tmp_path / "da.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["da", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["input_digest"] == oracle_digest(spec)


def test_da_sub_specs_are_not_digested(monkeypatch):
    def refuse(obj):
        raise AssertionError("a da sub-spec was digested")

    monkeypatch.setattr(serialize, "spec_digest", refuse)
    cs, prob = parse_da_spec(DA_SPEC)
    assert cs.objects == ("x", "y") and prob.capacities == (1, 1)


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
    t = spec.table()
    assert ChoiceTable(t.universe, table_entries(t)) == t  # a valid table


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
    t = spec.table()
    assert ChoiceTable(t.universe, table_entries(t)) == t  # a valid table


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
    assert FChoiceTable(t.universe, t.family, table_entries(t)) == t  # a valid table


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


def test_spec_files_are_read_as_unicode_whatever_the_locale(tmp_path):
    # an ASCII locale with neither UTF-8 mode nor locale coercion: a UTF-8
    # spec is still decoded as UTF-8, as JSON requires
    spec = {
        "universe": ["\u00e9", "b"],
        "rule": {"kind": "responsive", "ordering": ["b", "\u00e9"]},
    }
    path = tmp_path / "spec.json"
    path.write_bytes(json.dumps(spec, ensure_ascii=False).encode())
    src = os.path.dirname(os.path.dirname(serialize.__file__))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    main = "import sys; from lexichoice.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run(
        [sys.executable, "-c", main, "check", str(path)],
        env=env, capture_output=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["input_digest"] == oracle_digest(spec)


def test_spec_files_may_start_with_a_utf8_bom(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(LEX_SPEC).encode())
    assert load_spec(str(path)).digest == spec_digest(LEX_SPEC)


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
    assert spec.digest == (
        "d48d3db8c6c1df2d72daeda2d0bf5b91583e1c1c6ecd0228b5ace87ef73772dc"
    )


# --- the byte read of a table spec ---------------------------------------------

# the layouts a table spec file may come in, each read by one numpy parse
LAYOUTS = {
    "compact": lambda spec: json.dumps(spec).encode(),
    "indent": lambda spec: json.dumps(spec, indent=2).encode(),
    "sorted_indent": lambda spec: json.dumps(spec, indent=2, sort_keys=True).encode(),
    "separators": lambda spec: json.dumps(spec, separators=(",", ":")).encode(),
    "tab_crlf": lambda spec: json.dumps(spec, indent="\t").replace("\n", "\r\n").encode(),
    "utf8_bom": lambda spec: b"\xef\xbb\xbf" + json.dumps(spec).encode(),
    "utf16": lambda spec: json.dumps(spec).encode("utf-16"),
    "utf16_le": lambda spec: json.dumps(spec).encode("utf-16-le"),
    "utf32": lambda spec: json.dumps(spec).encode("utf-32"),
}


def _outcome(read):
    """A spec read as (digest, table bytes), or a refusal as its message."""
    try:
        spec = read()
    except SpecError as e:
        return "error", str(e)
    return spec.digest, spec.table().cols.tobytes()


def _both_paths(path, table_reads):
    """The outcomes of ``load_spec`` and of the json path on one file, with
    the reads each made."""
    generic = _outcome(lambda: parse_spec(serialize.load_json(path)))
    generic_reads = table_reads[:]
    table_reads.clear()
    fast = _outcome(lambda: load_spec(path))
    fast_reads = table_reads[:]
    table_reads.clear()
    return (generic, generic_reads), (fast, fast_reads)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_table_specs_are_read_from_their_bytes(tmp_path, table_reads, layout):
    rng = random.Random(layout)
    path = tmp_path / "table.json"
    for n in range(1, 13):
        spec = perturbed_table_spec(rng, n)
        path.write_bytes(LAYOUTS[layout](spec))
        (generic, generic_reads), (fast, fast_reads) = _both_paths(str(path), table_reads)
        assert fast == generic and generic[0] == oracle_digest(spec), n
        assert generic_reads == ["json"] and fast_reads == ["bytes"], n


ROWS = "[[0, 0, 0], [0, 1, 1], [0, 2, 2], [0, 1, 3]]"
ESCAPED_KEY = '"entr\\u0069es"'  # decodes to "entries"
DECOY = '"x\\"entries": ' + ROWS + ", "  # a key whose text holds "entries"


def _table_doc(entries=ROWS, universe='["a", "b"]', key='"entries"', top="", kind="table"):
    return f'{{{top}"universe": {universe}, "rule": {{"kind": "{kind}", {key}: {entries}}}}}'


ADVERSARIAL = {
    "duplicate_key_null_first": _table_doc(entries='null, "entries": ' + ROWS),
    "duplicate_key_matrix_first": _table_doc(entries=ROWS + ', "entries": null'),
    "decoy_key": _table_doc(top=DECOY),
    "decoy_key_escaped_null": _table_doc(top=DECOY, key=ESCAPED_KEY, entries="null"),
    "decoy_key_escaped_matrix": _table_doc(top=DECOY, key=ESCAPED_KEY),
    "label_entries": _table_doc(universe='["entries", "b"]'),
    "label_entries_escaped_key": _table_doc(universe='["b", "entries"]', key=ESCAPED_KEY),
    "top_level_entries": _table_doc(top='"entries": ' + ROWS + ", "),
    "top_level_entries_escaped_key": _table_doc(top='"entries": ' + ROWS + ", ", key=ESCAPED_KEY),
    "top_level_entries_only": _table_doc(top='"entries": ' + ROWS + ", ", key='"rows"'),
    "nested_entries": _table_doc(key='"x": {"entries": ' + ROWS + "}, " + ESCAPED_KEY),
    "not_a_table": _table_doc(kind="responsive", entries=ROWS + ', "ordering": ["a", "b"]'),
    "null_entries": _table_doc(entries="null"),
    "negative_zero": _table_doc(entries=ROWS.replace("[0, 0, 0]", "[-0, 0, 0]")),
    "leading_zero": _table_doc(entries=ROWS.replace("[0, 1, 1]", "[0, 01, 1]")),
    "empty_cell": _table_doc(entries=ROWS.replace("[0, 0, 0]", "[, 0, 0]")),
    "empty_inner_cell": _table_doc(entries=ROWS.replace("[0, 1, 1]", "[0, , 1]")),
    # the same bytes as ROWS in another order: one cell short of a digit,
    # one a zero too long
    "empty_cell_and_leading_zero": _table_doc(
        entries=ROWS.replace("[0, 0, 0]", "[, 0, 0]").replace("[0, 1, 1]", "[0, 01, 1]")),
    "empty_last_cell_and_leading_zero": _table_doc(
        entries=ROWS.replace("[0, 0, 0]", "[0, 0, ]").replace("[0, 1, 1]", "[0, 01, 1]")),
    "two_numbers_in_a_cell": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1 1, 3]")),
    "two_numbers_over_a_newline": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, 1\n3]")),
    "trailing_comma_in_a_row": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, 3,]")),
    "trailing_comma_in_the_matrix": _table_doc(entries=ROWS[:-1] + ",]"),
    "six_digit_entry": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, 100000]")),
    "entry_of_2_63": _table_doc(entries=ROWS.replace("[0, 1, 3]", f"[0, 1, {2**63}]")),
    "entry_of_2_64_plus_1": _table_doc(entries=ROWS.replace("[0, 1, 3]", f"[0, 1, {2**64 + 1}]")),
    "entry_1e400": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, 1e400]")),
    "entry_nan": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, NaN]")),
    "entry_true": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, true]")),
    "entry_plus_one": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, +1, 3]")),
    "ragged_rows": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1]")),
    "depth_3_matrix": _table_doc(entries="[" + ROWS + "]"),
    "another_n": _table_doc(entries="[[0, 0], [0, 1]]"),
    "junk_after_the_matrix": _table_doc(entries=ROWS + " ]"),
    "non_ascii_digit": _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, \uff13]")),
    "utf16_lone_surrogate": _table_doc(
        entries=ROWS.replace("[0, 1, 3]", "[0, 1, \udc80]")).encode("utf-16", "surrogatepass"),
    "two_boms": b"\xef\xbb\xbf" * 2 + _table_doc().encode(),
    "utf16_two_boms": ("\ufeff" + _table_doc()).encode("utf-16"),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_table_specs_end_as_on_the_json_path(tmp_path, table_reads, name):
    path = tmp_path / "spec.json"
    doc = ADVERSARIAL[name]
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    (generic, generic_reads), (fast, fast_reads) = _both_paths(str(path), table_reads)
    assert fast == generic
    # the byte read never applies; where json gets as far as the entries,
    # the json path reads them, as it does with no byte read at all
    assert fast_reads == generic_reads and "bytes" not in fast_reads


@pytest.mark.parametrize("doc", [
    _table_doc(universe='["a", "a"]'),
    _table_doc(universe='["a", 1]'),
    _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, 4]")),
    _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 1, 99999]")),
    _table_doc(entries=ROWS.replace("[0, 1, 3]", "[0, 3, 3]")),
])
def test_byte_read_refuses_a_bad_spec_as_the_json_path_does(tmp_path, table_reads, doc):
    # valid JSON with a bad universe or table: the byte read raises the
    # error that parse_spec raises on json's value
    path = tmp_path / "spec.json"
    path.write_bytes(doc.encode())
    (generic, _), (fast, fast_reads) = _both_paths(str(path), table_reads)
    assert fast == generic and fast[0] == "error" and fast_reads == []


def test_byte_read_agrees_with_json_on_edited_matrices(tmp_path_factory):
    # random edits inside and around the matrix of one n = 2 spec, in bytes
    # the byte read either accepts or must refuse
    path = tmp_path_factory.mktemp("edits") / "spec.json"
    base = _table_doc().encode()
    lo, hi = base.index(b"[["), base.index(b"]]") + 3

    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(edits=st.lists(
        st.tuples(st.integers(lo, hi), st.integers(0, 2), st.sampled_from(b"0123456789,[] \n\t-+.e}\"")),
        min_size=1, max_size=3,
    ))
    def run(edits):
        text = bytearray(base)
        for at, how, byte in edits:
            at = min(at, len(text) - 1)
            if how == 0:
                text[at] = byte
            elif how == 1:
                text.insert(at, byte)
            else:
                del text[at]
        path.write_bytes(bytes(text))
        assert _outcome(lambda: load_spec(str(path))) == _outcome(
            lambda: parse_spec(serialize.load_json(str(path))))

    run()

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

A spec file is read once, as bytes.  :func:`load_spec` reads a ``table``
spec's matrix from them in one numpy parse when the text's one ``entries``
key is the rule's, in key position, and its value is a matrix of 2^n rows of
n + 1 integers in 0..99999 without leading zeros, with JSON whitespace only
between tokens (:func:`_byte_read`).  Every other file goes through ``json``
and :func:`parse_spec`, with the same results and errors.  Read so, an
n = 12 table spec loads in about 6 ms instead of 11, and an n = 16 one
(7.2 MB) in about 115 ms instead of 270 (2-core host, numpy 2.4).
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import ChoiceTable, Universe, make_universe
from .feasibility import (
    FChoiceTable,
    FeasibilityFamily,
    flex_materialize,
    make_family,
)
from .mechanism import AllocationProblem, ChoiceStructure, require_problem
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
    """Deterministic JSON: sorted keys, fixed separators, trailing newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\\n"``.  With an indent that call runs the
    pure-Python encoder, so dicts with str keys and lists are walked here,
    and a list of str or of int leaves is one join.  Any other value goes to
    ``json.dumps`` and is re-indented, which is exact because the encoder
    escapes every newline inside a string.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def _write(obj, nl: str, out: list) -> None:
    """Append ``obj`` in canonical form to ``out``, each line after the first
    led by ``nl``; one frame per nesting level, as in the stdlib encoder.  A
    numpy matrix is appended as ``(matrix, nl)``, for :func:`spec_digest`."""
    kind = type(obj)
    if kind in _LEAVES:
        out.append(_LEAVES[kind](obj))
        return
    if kind is np.ndarray:
        out.append((obj, nl))
        return
    inner = nl + "  "
    if kind is dict and obj and all(type(k) is str for k in obj):
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
        return
    if (kind is list or kind is tuple) and obj:
        types = set(map(type, obj))
        if len(types) == 1 and (leaf := _LEAVES.get(*types)):
            out.append("[" + inner + ("," + inner).join(map(leaf, obj)) + nl + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
        return
    text = json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))
    out.append(text.replace("\n", nl))


_BLOCK_BYTES = 1 << 18  # a row block of the matrix writer stays in L2


def _matrix_blocks(matrix: np.ndarray, nl: str, step: str = "  "):
    """Yield the canonical form of ``matrix.tolist()``, a matrix of entries
    in 0..99999 with rows and columns, at line lead ``nl`` and indent
    ``step`` (with both empty, the compact form): ASCII bytes in blocks of
    rows.

    Each value up to the largest gets its cell once per call: the comma,
    newline and indent that lead it, then its digits right-aligned in five
    slots, the unused ones NUL.  A block gathers its rows' cells between a
    fixed row head and tail, the comma of each row's first cell is made NUL,
    and ``bytes.translate`` deletes the NULs.  The last row's trailing comma
    is cut.
    """
    cols = matrix.T  # for a table's ``cols.T``, its contiguous array
    width, height = cols.shape
    inner = nl + step
    lead = ("," + inner + step).encode()
    values = np.arange(int(cols.max()) + 1, dtype=np.uint32)
    cells = np.empty((values.size, len(lead) + 5), np.uint8)
    cells[:, : len(lead)] = np.frombuffer(lead, np.uint8)
    for slot, power in enumerate((10000, 1000, 100, 10), start=len(lead)):
        high = values // power
        cells[:, slot] = np.where(high > 0, 48 + high % 10, 0)
    cells[:, -1] = 48 + values % 10
    cell = np.dtype((np.void, cells.shape[1]))
    cells = cells.view(cell).ravel()

    head = (inner + "[").encode()
    tail = (inner + "],").encode()
    row_bytes = len(head) + width * cell.itemsize + len(tail)
    rows = min(height, max(1, _BLOCK_BYTES // row_bytes))
    block = np.empty((rows, row_bytes), np.uint8)
    block[:, : len(head)] = np.frombuffer(head, np.uint8)
    block[:, -len(tail) :] = np.frombuffer(tail, np.uint8)
    body = block[:, len(head) : -len(tail)].view(cell)
    yield b"["
    for start in range(0, height, rows):
        stop = min(start + rows, height)
        np.take(cells, cols[:, start:stop].T, out=body[: stop - start])
        block[:, len(head)] = 0
        data = block[: stop - start].tobytes().translate(None, b"\0")
        yield data[:-1] if stop == height else data
    yield (nl + "]").encode()


def spec_digest(obj) -> str:
    """SHA-256 (hex) of the canonical form of a spec's JSON value.

    A ``table`` rule's entries may be given as the validated set-major
    matrix (``ChoiceTable.cols.T``): its rows are digested as the list they
    were read from, in blocks, and no text of them is built.
    """
    out = []
    try:
        _write(obj, "\n", out)
    except RecursionError:
        # json.load, called higher in the stack, reads a few levels deeper
        raise SpecError("spec: nested too deeply to digest") from None
    out.append("\n")
    sha = hashlib.sha256()
    text = []
    for piece in out:
        if type(piece) is str:
            text.append(piece)
        else:
            sha.update("".join(text).encode())
            text = []
            for data in _matrix_blocks(*piece):
                sha.update(data)
    sha.update("".join(text).encode())
    return sha.hexdigest()


def _with_table(rule_obj: dict, rule) -> dict:
    """``rule_obj`` with a ``table`` rule's entries replaced by the matrix of
    its validated table, for :func:`spec_digest`."""
    if isinstance(rule, TableRule):
        return {**rule_obj, "entries": rule.table.cols.T}
    return rule_obj


def da_spec_digest(obj: dict, structure: ChoiceStructure) -> str:
    """:func:`spec_digest` of an allocation spec that :func:`parse_da_spec`
    read as ``structure``, each ``table`` rule digested from its table."""
    rules = dict(obj["rules"])
    for x in structure.objects:
        rules[x] = _with_table(rules[x], structure.rules[x])
    return spec_digest({**obj, "rules": rules})


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecError(f"{where}: missing required field {key!r}")
    return obj[key]


def _is_labels(x) -> bool:
    return isinstance(x, list) and all(isinstance(lab, str) for lab in x)


def _ordering(u: Universe, labels, where: str) -> PriorityOrdering:
    if not isinstance(labels, list):
        raise SpecError(f"{where}: ordering must be a list of labels")
    try:
        return ordering_from_labels(u, labels)
    except ValueError as e:
        raise SpecError(f"{where}: {e}") from None


def _orderings(u: Universe, row, where: str) -> tuple[PriorityOrdering, ...]:
    if not isinstance(row, list):
        raise SpecError(f"{where} must be a list of orderings")
    return tuple(_ordering(u, o, f"{where}[{t}]") for t, o in enumerate(row))


def _profile(u: Universe, rows, where: str) -> PriorityProfile:
    if not isinstance(rows, list) or len(rows) != u.n:
        raise SpecError(f"{where}: profile must list exactly {u.n} orderings")
    return PriorityProfile(
        tuple(_ordering(u, row, f"{where}[{i}]") for i, row in enumerate(rows))
    )


_NOT_INT64 = "rule: entries must be rows of 64-bit integers"


def _table(u: Universe, rows) -> TableRule:
    """The rule of a ``table`` rule's ``entries``, whose table it validates.

    Types are tested on the few distinct types of the rows and of their
    entries (int subclasses pass, bool does not); ``np.array`` decides the
    int64 range.
    """
    if (
        not isinstance(rows, list)
        or not all(issubclass(t, list) for t in set(map(type, rows)))
        or not all(
            issubclass(t, int) and not issubclass(t, bool)
            for t in set(map(type, chain.from_iterable(rows)))
        )
    ):
        raise SpecError(_NOT_INT64)
    try:
        entries = np.array(rows, dtype=np.int64)
    except OverflowError:
        raise SpecError(_NOT_INT64) from None
    except (TypeError, ValueError) as e:
        # a ragged matrix: an out-of-range entry is named first
        if any(not -(1 << 63) <= x < 1 << 63 for x in chain.from_iterable(rows)):
            raise SpecError(_NOT_INT64) from None
        raise SpecError(f"rule: bad entries matrix: {e}") from None
    return _table_rule(u, entries)


def _table_rule(u: Universe, entries: np.ndarray) -> TableRule:
    try:
        return TableRule(ChoiceTable(u, entries))
    except ValueError as e:
        raise SpecError(f"rule: {e}") from None


def parse_spec(obj: dict) -> RuleSpec:
    """Parse and validate a rule-spec dict; raises :class:`SpecError`."""
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    u = _universe(_require(obj, "universe", "spec"), "spec")
    return _rule_spec(obj, u, *_rule(u, _require(obj, "rule", "spec")))


def _rule_spec(obj: dict, u: Universe, rule, flex_profile=None, family=None) -> RuleSpec:
    digest = spec_digest({**obj, "rule": _with_table(obj["rule"], rule)})
    return RuleSpec(u, rule, flex_profile, family, digest)


def _universe(labels, where: str) -> Universe:
    """The universe of ``labels``, a nonempty list of distinct strings."""
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) for x in labels)
    ):
        raise SpecError(f"{where}: universe must be a nonempty list of strings")
    try:
        return make_universe(labels)
    except ValueError as e:
        raise SpecError(f"{where}: {e}") from None


def _rule(u: Universe, rule_obj):
    """(rule, flex profile, feasibility family) of a rule object over ``u``."""
    if not isinstance(rule_obj, dict):
        raise SpecError("spec: rule must be an object")
    kind = _require(rule_obj, "kind", "rule")

    if kind == "lexicographic":
        profile = _profile(u, _require(rule_obj, "profile", "rule"), "profile")
        return Lexicographic(profile), None, None
    if kind == "responsive":
        ordering = _ordering(u, _require(rule_obj, "ordering", "rule"), "ordering")
        return Responsive(ordering), None, None
    if kind == "capacity_wise":
        rows = _require(rule_obj, "lists", "rule")
        if not isinstance(rows, list) or len(rows) != u.n:
            raise SpecError(f"rule: lists must have exactly {u.n} entries")
        try:
            lists = CapacityWiseLists(
                tuple(_orderings(u, row, f"lists[{q}]") for q, row in enumerate(rows))
            )
        except (TypeError, ValueError) as e:
            raise SpecError(f"rule: {e}") from None
        return CapacityWise(lists), None, None
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
        return CapacityWise(lists), None, None
    if kind == "table":
        return _table(u, _require(rule_obj, "entries", "rule")), None, None
    if kind == "flex":
        profile = _profile(u, _require(rule_obj, "profile", "rule"), "profile")
        sets = _require(rule_obj, "maximal_feasible_sets", "rule")
        if not isinstance(sets, list) or not all(map(_is_labels, sets)):
            raise SpecError("rule: maximal_feasible_sets must be a list of label lists")
        try:
            family = make_family(u, sets)
        except ValueError as e:
            raise SpecError(f"rule: {e}") from None
        return None, profile, family
    raise SpecError(f"rule: unknown kind {kind!r}")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None


def _loads(data: bytes, path: str):
    try:
        return json.loads(data)  # detects UTF-8, -16 or -32
    except (ValueError, RecursionError) as e:
        # decode errors, ints past the interpreter's digit limit, deep nesting
        raise SpecError(f"{path}: invalid JSON: {e}") from None


def load_json(path: str):
    """The JSON value in the file at ``path``; raises :class:`SpecError`."""
    return _loads(_read(path), path)


def load_spec(path: str) -> RuleSpec:
    """The spec in the file at ``path``: by :func:`_byte_read` when it
    applies, else ``parse_spec(load_json(path))``; raises :class:`SpecError`."""
    data = _read(path)
    spec = _byte_read(data)
    return parse_spec(_loads(data, path)) if spec is None else spec


_WS = " \t\n\r"  # JSON whitespace
_KEY = re.compile(f'"entries"[{_WS}]*:[{_WS}]*')
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")


def _byte_read(data: bytes) -> RuleSpec | None:
    """The spec in ``data`` when it is a ``table`` spec whose matrix one
    numpy parse reads, else None.

    The first ``"entries"`` of the text must be a key: after whitespace,
    ``{`` or ``,`` comes before it.  Its value, up to the last ``]`` before
    the next ``"`` or ``}``, must be a matrix that :func:`_region_matrix`
    reads, and the text with that value replaced by ``null`` must be a spec
    whose ``rule`` is a ``table`` rule that holds this ``null`` as the one
    ``entries`` key of the whole text.  The text is then valid JSON, and
    what this returns or raises is what ``parse_spec(json.loads(data))``
    would.
    """
    try:
        text = data.decode(json.detect_encoding(data), "surrogatepass")
    except UnicodeDecodeError:
        return None
    key = text.find('"entries"')
    if key < 0 or text[:key].rstrip(_WS)[-1:] not in ("{", ","):
        return None  # no key, an escaped quote or not a key position
    match = _KEY.match(text, key)
    if match is None:
        return None
    start = match.end()
    stop = len(text)
    for close in '"}':
        found = text.find(close, start, stop)
        stop = stop if found < 0 else found
    end = text.rfind("]", start, stop) + 1
    if end == 0:
        return None
    keys = []

    def record(pairs):
        keys.extend(v for k, v in pairs if k == "entries")
        return dict(pairs)

    try:
        obj = json.loads(text[:start] + "null" + text[end:], object_pairs_hook=record)
    except (ValueError, RecursionError):
        return None
    if keys != [None] or type(obj) is not dict:
        return None
    rule, labels = obj.get("rule"), obj.get("universe")
    if type(rule) is not dict or rule.get("kind") != "table" or "entries" not in rule:
        return None
    region = text[start:end]
    if type(labels) is not list or not region.isascii():
        return None
    entries = _region_matrix(region.encode(), len(labels))
    if entries is None:
        return None
    u = _universe(labels, "spec")
    return _rule_spec(obj, u, _table_rule(u, entries))


def _region_matrix(region: bytes, n: int) -> np.ndarray | None:
    """The ``(2**n, n+1)`` int64 matrix that ``region`` is the JSON text of,
    or None if it is not such a text of entries of at most five digits.

    ``np.fromstring`` reads the region with its brackets as spaces; it stops
    with an error at two numbers in one cell, but reads an empty cell or
    one of leading zeros.  So the region, its whitespace deleted, must be
    the compact JSON text of the values read.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(region.translate(_BRACKETS_TO_SPACES), np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != (n + 1) << n or not 0 <= values.min() <= values.max() <= 99999:
        return None
    entries = values.reshape(1 << n, n + 1)
    compact, at = region.translate(None, _WS.encode()), 0
    for block in _matrix_blocks(entries, "", ""):
        if not compact.startswith(block, at):
            return None
        at += len(block)
    return entries if at == len(compact) else None


def parse_da_spec(obj) -> tuple[ChoiceStructure, AllocationProblem]:
    """Parse and validate an allocation-spec dict; raises :class:`SpecError`.

    Only JSON types are checked here.  The structure refuses repeated
    objects or one named "null", and :func:`~lexichoice.mechanism.require_problem`
    a problem without one ranking per agent and one capacity in 0..n per
    object; their errors are raised as :class:`SpecError`.
    """
    if not isinstance(obj, dict):
        raise SpecError("allocation spec must be a JSON object")
    for key in ("agents", "objects", "rules", "preferences", "capacities"):
        if key not in obj:
            raise SpecError(f"allocation spec: missing field {key!r}")
    agents = _universe(obj["agents"], "allocation spec: agents")
    objects, rule_objs = obj["objects"], obj["rules"]
    if not _is_labels(objects):
        raise SpecError("allocation spec: objects must be a list of strings")
    if not isinstance(rule_objs, dict):
        raise SpecError("allocation spec: rules must be an object")
    rules = {}
    for x in objects:
        if x not in rule_objs:
            raise SpecError(f"allocation spec: no rule for object {x!r}")
        if not isinstance(rule_objs[x], dict):
            raise SpecError(f"allocation spec: rules[{x!r}] must be an object")
        try:
            rules[x], flex_profile, _ = _rule(agents, rule_objs[x])
        except SpecError as e:
            raise SpecError(f"allocation spec: rules[{x!r}]: {e}") from None
        if flex_profile is not None:
            raise SpecError("allocation spec: flex rules are not supported here")
    prefs, caps = obj["preferences"], obj["capacities"]
    if not isinstance(prefs, list) or not all(map(_is_labels, prefs)):
        raise SpecError("allocation spec: preferences must be a list of label lists")
    if not isinstance(caps, list):
        raise SpecError("allocation spec: capacities must be a list")
    prob = AllocationProblem(
        tuple(tuple(None if lab == "null" else lab for lab in row) for row in prefs),
        tuple(caps),
    )
    try:
        cs = ChoiceStructure(agents, objects, rules)
        require_problem(prob, agents.n, cs.objects)
    except ValueError as e:
        raise SpecError(str(e)) from None
    return cs, prob


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

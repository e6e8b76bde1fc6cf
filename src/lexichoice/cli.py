"""Command-line interface.

Subcommands:

- ``check``: run axiom checkers on a rule spec
- ``extract``: recover the generating priority structure from a rule spec
- ``da``: run deferred acceptance on an allocation spec
- ``boston-report``: compare the four school-choice builders
- ``repro``: replay the embedded regression casebook

Exit codes: 0 = all checks pass, 1 = a check failed or extraction is
impossible, 2 = malformed input.  Reports on stdout are canonical JSON (or
plain text with ``--format text``); timing goes to stderr only, so stdout is
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import casebook
from .axioms import ALL_CHECKS, check_insertion, replay_witness
from .core import make_universe
from .feasibility import FLEX_CHECKS, extract_flex_profile, replay_f_witness
from .identify import (
    ExtractionError,
    extract_capacity_wise_responsive,
    extract_lex_profile,
    extract_responsive,
)
from .mechanism import da_allocate
from .rules import (
    BOSTON_BUILDERS,
    CapacityWise,
    boston_requirement_holds,
    materialize,
    ordering_from_labels,
)
from .serialize import (
    SpecError,
    canonical_json,
    load_json,
    load_spec,
    ordering_labels,
    parse_da_spec,
    profile_labels,
    report_dict,
    spec_digest,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report format on stdout (default: json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexichoice",
        description="capacity-constrained lexicographic choice: axiom "
        "checking, priority extraction, deferred acceptance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom checkers on a rule spec")
    p.add_argument("spec", help="path to a JSON rule spec")
    p.add_argument(
        "--axioms",
        metavar="LIST",
        help="comma-separated axiom names (default: all applicable)",
    )
    p.add_argument(
        "--replay-witness",
        action="store_true",
        help="re-verify every fail witness against the raw table",
    )
    _add_common(p)

    p = sub.add_parser(
        "extract", help="recover the generating priority structure"
    )
    p.add_argument("spec", help="path to a JSON rule spec")
    p.add_argument(
        "--kind",
        choices=("lexicographic", "responsive", "capacity_wise", "flex"),
        default="lexicographic",
        help="structure to recover (default: lexicographic)",
    )
    _add_common(p)

    p = sub.add_parser("da", help="run deferred acceptance on an allocation spec")
    p.add_argument("spec", help="path to a JSON allocation spec")
    p.add_argument(
        "--trace", action="store_true", help="include per-round applications"
    )
    _add_common(p)

    p = sub.add_parser(
        "boston-report", help="compare the four school-choice builders"
    )
    p.add_argument(
        "--universe", required=True, metavar="LABELS", help="comma-separated labels"
    )
    p.add_argument(
        "--walk", required=True, metavar="LABELS", help="walk-zone ordering"
    )
    p.add_argument("--open", required=True, metavar="LABELS", help="open ordering")
    _add_common(p)

    p = sub.add_parser("repro", help="replay the embedded regression casebook")
    p.add_argument("--case", metavar="ID", help="replay a single case")
    _add_common(p)

    return parser


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        sys.stdout.write("\n".join(text_lines) + "\n")


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_check(args) -> int:
    try:
        spec = load_spec(args.spec)
    except SpecError as e:
        return _fail_input(str(e))
    available = FLEX_CHECKS if spec.is_flex else ALL_CHECKS
    if args.axioms:
        names = [x.strip() for x in args.axioms.split(",") if x.strip()]
        unknown = [x for x in names if x not in available]
        if unknown:
            return _fail_input(
                f"unknown axioms {unknown}; available: {sorted(available)}"
            )
    else:
        names = list(available)
    table = spec.table()
    replayer = replay_f_witness if spec.is_flex else replay_witness
    reports = {}
    all_pass = True
    for name in names:
        rep = available[name](table)
        d = report_dict(rep)
        if rep.verdict == "fail":
            all_pass = False
            if args.replay_witness:
                d["witness_replayed"] = replayer(table, name, rep.witness)
        reports[name] = d
    payload = {
        "input_digest": spec.digest,
        "axioms": reports,
        "all_pass": all_pass,
    }
    lines = []
    for name in sorted(reports):
        d = reports[name]
        if d["verdict"] == "pass":
            lines.append(f"{name}: PASS")
        else:
            suffix = ""
            if "witness_replayed" in d:
                suffix = f" replayed={str(d['witness_replayed']).lower()}"
            lines.append(
                f"{name}: FAIL witness={json.dumps(d['witness'], sort_keys=True)}"
                f"{suffix}"
            )
    lines.append(f"all_pass: {str(all_pass).lower()}")
    _emit(args, payload, lines)
    return 0 if all_pass else 1


def cmd_extract(args) -> int:
    try:
        spec = load_spec(args.spec)
    except SpecError as e:
        return _fail_input(str(e))
    if (args.kind == "flex") != spec.is_flex:
        return _fail_input(
            "flex extraction needs a flex spec and vice versa"
        )
    table = spec.table()
    u = spec.universe
    try:
        if args.kind == "lexicographic":
            profile = extract_lex_profile(table)
            result = {"kind": "lexicographic", "profile": profile_labels(u, profile)}
        elif args.kind == "responsive":
            ordering = extract_responsive(table)
            result = {"kind": "responsive", "ordering": ordering_labels(u, ordering)}
        elif args.kind == "capacity_wise":
            orderings = extract_capacity_wise_responsive(table)
            result = {
                "kind": "capacity_wise",
                "orderings": [ordering_labels(u, o) for o in orderings],
            }
        else:
            profile = extract_flex_profile(table)
            result = {"kind": "flex", "profile": profile_labels(u, profile)}
    except ExtractionError as e:
        payload = {
            "input_digest": spec.digest,
            "extracted": False,
            "error": str(e),
        }
        _emit(args, payload, [f"extraction failed: {e}"])
        return 1
    payload = {"input_digest": spec.digest, "extracted": True, **result}
    lines = [f"kind: {result['kind']}"]
    for key in ("profile", "orderings"):
        if key in result:
            for i, row in enumerate(result[key], start=1):
                lines.append(f"{key}[{i}]: {' '.join(row)}")
    if "ordering" in result:
        lines.append(f"ordering: {' '.join(result['ordering'])}")
    _emit(args, payload, lines)
    return 0


def cmd_da(args) -> int:
    try:
        obj = load_json(args.spec)
        cs, prob = parse_da_spec(obj)
        if args.trace:
            alloc, rounds = da_allocate(cs, prob, trace=True)
        else:
            alloc = da_allocate(cs, prob)
            rounds = None
    except (SpecError, ValueError) as e:
        return _fail_input(str(e))
    assignment = {
        agent: ("null" if x is None else x)
        for agent, x in zip(cs.agents.labels, alloc)
    }
    payload = {"input_digest": spec_digest(obj), "allocation": assignment}
    if rounds is not None:
        payload["rounds"] = rounds
    lines = [f"{agent}: {x}" for agent, x in assignment.items()]
    if rounds is not None:
        for r, apps in enumerate(rounds, start=1):
            parts = [f"{x}<-{{{','.join(v)}}}" for x, v in sorted(apps.items())]
            lines.append(f"round {r}: {' '.join(parts)}")
    _emit(args, payload, lines)
    return 0


def cmd_boston_report(args) -> int:
    labels = [x.strip() for x in args.universe.split(",") if x.strip()]
    walk = [x.strip() for x in args.walk.split(",") if x.strip()]
    open_ = [x.strip() for x in getattr(args, "open").split(",") if x.strip()]
    try:
        u = make_universe(labels)
        w = ordering_from_labels(u, walk)
        o = ordering_from_labels(u, open_)
    except (KeyError, ValueError) as e:
        return _fail_input(str(e))
    variants = {}
    for name in sorted(BOSTON_BUILDERS):
        lists = BOSTON_BUILDERS[name](w, o, u.n)
        table = materialize(CapacityWise(lists), u)
        variants[name] = {
            **casebook.run_axioms(table, casebook.FOUR_CWARP),
            "insertion": check_insertion(lists).verdict,
            "boston_requirement": boston_requirement_holds(lists, w, o),
            "lexicographic": casebook.is_lexicographic(table),
        }
    lexicographic = [name for name, v in variants.items() if v["lexicographic"]]
    payload = {"variants": variants, "lexicographic_variants": lexicographic}
    lines = []
    for name, v in variants.items():
        fails = sorted(a for a, verdict in v["axioms"].items() if verdict == "fail")
        lines.append(
            f"{name}: lexicographic={str(v['lexicographic']).lower()} "
            f"fails={','.join(fails) if fails else '-'}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_repro(args) -> int:
    if args.case is not None:
        if args.case not in casebook.CASES:
            return _fail_input(
                f"unknown case {args.case!r}; available: {list(casebook.CASES)}"
            )
        case = casebook.case_record(args.case)
        payload = {"ok": case["ok"], "cases": [case]}
    else:
        payload = casebook.run_all()
    lines = [
        f"{case['id']}: {'PASS' if case['ok'] else 'FAIL'}"
        for case in payload["cases"]
    ]
    lines.append(f"all: {'PASS' if payload['ok'] else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if payload["ok"] else 1


COMMANDS = {
    "check": cmd_check,
    "extract": cmd_extract,
    "da": cmd_da,
    "boston-report": cmd_boston_report,
    "repro": cmd_repro,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    code = COMMANDS[args.command](args)
    elapsed = time.perf_counter() - start
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands mirror the library one to one: ``number`` (exact value with
witness), ``check`` (test a given blue set against every leak placement),
``closure`` (trace a chronology), ``forces`` (realizable forces), ``forts``
(minimal fort family), ``hitting`` (fort hitting number cross-checked
against the solver), ``scan-edges`` (edge-deletion differences over a
graph6 stream), ``families`` (value tables with closed-form expectations),
and ``audit`` (monotonicity and dominance checks on one graph).

Exit codes: 0 all checks held, 1 usage or input error, 2 a claimed identity
or bound failed (a finding is printed to stderr).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Iterator, TextIO

from . import __version__
from ._core import BACKEND
from .errors import AuditFailure, ForcepsError
from .families import FamilySpec, generate
from .forcing import ColoringState, Rule, closure, is_ell_leaky_forcing_set, possible_forces
from .forts import ENUMERATION_GUARD, fort_family_json_lines, hitting_number, is_connected_fort_standard, minimal_forts
from .graph6 import Graph6Error, from_graph6
from .graphs import Graph, VertexSet
from .solve import (
    ScanSummary,
    default_suite,
    edge_deletion_scan,
    family_table,
    leaky_number,
    monotonicity_audit,
)

log = logging.getLogger("forceps")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _vs(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _fmt_vertices(vertices) -> str:
    return "[" + ",".join(map(str, vertices)) + "]"


def _add_source(p: _Parser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph6", metavar="G6", help="graph as a graph6 string")
    grp.add_argument("--graph6-file", metavar="PATH", help="file holding one graph6 line")
    grp.add_argument("--family", metavar="SPEC", help="family spec, e.g. path:5 or grid:4:4")


def _add_common(p: _Parser, rule: bool = True, workers: bool = False) -> None:
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    if workers:
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: FORCEPS_WORKERS or 1)")
    if rule:
        p.add_argument("--rule", choices=("psd", "standard"), default="psd")


def _resolve_graph(args) -> Graph:
    if args.graph6 is not None:
        return from_graph6(args.graph6)
    if args.graph6_file is not None:
        with open(args.graph6_file) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    return from_graph6(line)
        raise ForcepsError(f"no graph6 line found in {args.graph6_file}")
    return generate(FamilySpec.parse(args.family))


def _workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("FORCEPS_WORKERS", "")
    return max(1, int(env)) if env.isdigit() else 1


def _rule(args) -> Rule:
    return Rule.standard if getattr(args, "rule", "psd") == "standard" else Rule.psd


def build_parser() -> _Parser:
    top = _Parser(prog="forceps", description=__doc__)
    top.add_argument("--version", action="version", version=f"forceps {__version__} ({BACKEND} kernel)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("number", parents=[], help="exact leak-robust forcing number")
    _add_source(p)
    p.add_argument("--ell", type=int, required=True)
    _add_common(p, workers=True)

    p = sub.add_parser("check", help="test a blue set against every leak placement")
    _add_source(p)
    p.add_argument("--blue", type=_vs, required=True, metavar="V,V,...")
    p.add_argument("--ell", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("closure", help="trace one closure chronology")
    _add_source(p)
    p.add_argument("--blue", type=_vs, required=True, metavar="V,V,...")
    p.add_argument("--leaks", type=_vs, default=[], metavar="V,V,...")
    _add_common(p)

    p = sub.add_parser("forces", help="all realizable psd forces from a blue set")
    _add_source(p)
    p.add_argument("--blue", type=_vs, required=True, metavar="V,V,...")
    _add_common(p, rule=False)

    p = sub.add_parser("forts", help="minimal fort family")
    _add_source(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-n", type=int, default=ENUMERATION_GUARD,
                   help="override the fort enumeration guard")
    _add_common(p, rule=False)

    p = sub.add_parser("hitting", help="fort hitting number, cross-checked against the solver")
    _add_source(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-n", type=int, default=ENUMERATION_GUARD)
    _add_common(p, rule=False, workers=True)

    p = sub.add_parser("scan-edges", help="edge-deletion differences over a graph6 stream")
    p.add_argument("file", nargs="?", help="graph6 lines (default: standard input)")
    p.add_argument("--ell", type=int, default=1)
    _add_common(p, rule=False, workers=True)

    p = sub.add_parser("families", help="family value tables with closed-form expectations")
    p.add_argument("--paper-suite", action="store_true",
                   help="run the built-in desk-scale verification ranges")
    p.add_argument("--extended", action="store_true",
                   help="include the dimension-4 hypercube rows (a few seconds)")
    p.add_argument("--family", action="append", default=[], metavar="SPEC")
    p.add_argument("--ells", type=_vs, default=[0, 1, 2], metavar="L,L,...")
    _add_common(p, rule=False, workers=True)

    p = sub.add_parser("audit", help="monotonicity, dominance and degree checks on one graph")
    _add_source(p)
    p.add_argument("--max-ell", type=int, default=None)
    _add_common(p, rule=False)

    return top


def _emit(out: TextIO, line: str) -> None:
    out.write(line + "\n")


def _cmd_number(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    res = leaky_number(g, args.ell, _rule(args), workers=_workers(args))
    if args.format == "jsonl":
        _emit(out, json.dumps({
            "value": res.value,
            "witness": list(res.witness),
            "forced_core": list(res.forced_core),
            "ell": res.ell,
            "rule": res.rule.value,
        }, separators=(",", ":")))
    else:
        _emit(out, f"{res.value} witness={_fmt_vertices(res.witness)}")
    return 0


def _cmd_check(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    verdict = is_ell_leaky_forcing_set(g, VertexSet(g.n, args.blue), args.ell, _rule(args))
    if args.format == "jsonl":
        _emit(out, json.dumps({
            "ok": verdict.ok,
            "witness_leaks": None if verdict.ok else list(verdict.witness_leaks),
        }, separators=(",", ":")))
    elif verdict.ok:
        _emit(out, "true")
    else:
        _emit(out, f"false witness_leaks={_fmt_vertices(verdict.witness_leaks)}")
    return 0


def _cmd_closure(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    state = ColoringState(VertexSet(g.n, args.blue), VertexSet(g.n, args.leaks))
    final, chron = closure(g, state, _rule(args))
    forced = len(final) == g.n
    if args.format == "jsonl":
        _emit(out, json.dumps({
            "chronology": [[rnd, f.source, f.target] for rnd, f in chron],
            "blue": list(final),
            "forced": forced,
        }, separators=(",", ":")))
    else:
        for line in chron.to_lines():
            _emit(out, line)
        _emit(out, f"blue={_fmt_vertices(final)} forced={str(forced).lower()}")
    return 0


def _cmd_forces(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    forces = sorted(possible_forces(g, VertexSet(g.n, args.blue)),
                    key=lambda f: (f.source, f.target))
    if args.format == "jsonl":
        _emit(out, json.dumps({"forces": [[f.source, f.target] for f in forces]},
                              separators=(",", ":")))
    else:
        for f in forces:
            _emit(out, str(f))
    return 0


def _cmd_forts(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    family = minimal_forts(g, args.ell, max_vertices=args.max_n)
    if args.format == "jsonl":
        for line in fort_family_json_lines(g, family):
            _emit(out, line)
    else:
        for f in family:
            conn = is_connected_fort_standard(g, f)
            _emit(out, f"{_fmt_vertices(f.vertices)} ell={f.ell} connected={str(conn).lower()}")
    return 0


def _cmd_hitting(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    value, witness = hitting_number(g, args.ell, max_vertices=args.max_n)
    solver = leaky_number(g, args.ell, Rule.psd, workers=_workers(args))
    match = value == solver.value
    if args.format == "jsonl":
        _emit(out, json.dumps({
            "hitting": value, "witness": list(witness),
            "number": solver.value, "match": match,
        }, separators=(",", ":")))
    else:
        _emit(out, f"{value} witness={_fmt_vertices(witness)} number={solver.value} match={str(match).lower()}")
    if not match:
        finding = {"kind": "fort-hitting-mismatch", "ell": args.ell,
                   "hitting": value, "number": solver.value}
        print(f"finding: {json.dumps(finding)}", file=sys.stderr)
        return 2
    return 0


def _read_graph6_stream(fh: TextIO) -> Iterator[Graph]:
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield from_graph6(line)
        except Graph6Error as exc:
            log.warning("skipping malformed graph6 at line %d: %s", lineno, exc)


def _cmd_scan_edges(args, out: TextIO) -> int:
    fh = open(args.file) if args.file else sys.stdin
    summary = ScanSummary()
    try:
        for rec in edge_deletion_scan(_read_graph6_stream(fh), args.ell, _workers(args)):
            summary.add(rec)
            if args.format == "jsonl":
                _emit(out, json.dumps({
                    "graph6": rec.graph6, "edge": list(rec.edge),
                    "value_g": rec.value_g, "value_g_minus_e": rec.value_g_minus_e,
                    "diff": rec.diff,
                }, separators=(",", ":")))
            else:
                _emit(out, f"{rec.graph6} edge=({rec.edge[0]},{rec.edge[1]}) "
                           f"value={rec.value_g} deleted={rec.value_g_minus_e} diff={rec.diff}")
    finally:
        if args.file:
            fh.close()
    for line in summary.to_lines():
        print(line, file=sys.stderr)
    if summary.window_violations():
        finding = {"kind": "edge-deletion-window", "min_diff": summary.min_diff,
                   "max_diff": summary.max_diff}
        print(f"finding: {json.dumps(finding)}", file=sys.stderr)
        return 2
    return 0


def _cmd_families(args, out: TextIO) -> int:
    if args.family:
        jobs = [(FamilySpec.parse(s), tuple(args.ells)) for s in args.family]
    else:
        jobs = default_suite(extended=args.extended)
    failures = 0
    rows = 0
    workers = _workers(args)
    for spec, ells in jobs:
        for row in family_table([spec], ells, workers=workers):
            rows += 1
            if args.format == "jsonl":
                _emit(out, json.dumps({
                    "family": row.family, "ell": row.ell, "computed": row.computed,
                    "expected": row.expected, "match": row.match,
                }, separators=(",", ":")))
            else:
                exp = "-" if row.expected is None else str(row.expected)
                _emit(out, f"{row.family:<28} ell={row.ell:<3} computed={row.computed:<4} "
                           f"expected={exp:<4} match={str(row.match).lower()}")
            if not row.match:
                failures += 1
                print(f"finding: {json.dumps({'kind': 'family-value-mismatch', 'family': row.family, 'ell': row.ell, 'computed': row.computed, 'expected': row.expected})}",
                      file=sys.stderr)
    print(f"rows={rows} mismatches={failures}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_audit(args, out: TextIO) -> int:
    g = _resolve_graph(args)
    max_ell = g.n if args.max_ell is None else args.max_ell
    values = monotonicity_audit(g, max_ell)
    if args.format == "jsonl":
        _emit(out, json.dumps({"values": values, "max_ell": max_ell}, separators=(",", ":")))
    else:
        _emit(out, f"values={values} (budgets 0..{max_ell}) checks=ok")
    return 0


_COMMANDS = {
    "number": _cmd_number,
    "check": _cmd_check,
    "closure": _cmd_closure,
    "forces": _cmd_forces,
    "forts": _cmd_forts,
    "hitting": _cmd_hitting,
    "scan-edges": _cmd_scan_edges,
    "families": _cmd_families,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except AuditFailure as exc:
        print(f"finding: {json.dumps(exc.finding)}", file=sys.stderr)
        return 2
    except (ForcepsError, Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

#!/usr/bin/env python3
"""Write ``reference.json``: the fixed samples and cross-checked answers
that the scan, solve and forts workloads check against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Every stored value is confirmed through two routes before it is written:
solver values against minimum fort hitting sets (the psd value equals the
hitting number; a standard-rule value is at least it), hitting numbers
against the solver, solver and hitting witnesses against the leaky forcing
test, and the scan's per-graph histograms against the known total
histogram.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workloads import ANCHORS, REFERENCE, SCAN_HISTOGRAM  # noqa: E402

import forceps as fp  # noqa: E402

MASTER_SEED = 20231215
SOLVE_CELLS = [(n, ell) for n in range(12, 16) for ell in (1, 2)]
FORTS_CELLS = [(n, ell) for n in range(12, 15) for ell in (0, 1, 2)]


def _require(ok: bool, *what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def solve_entry(line: str, ell: int, rule: str) -> list:
    g = fp.from_graph6(line)
    res = fp.leaky_number(g, ell, fp.Rule(rule))
    hit, _ = fp.hitting_number(g, ell)
    _require(fp.is_ell_leaky_forcing_set(g, res.witness, ell, fp.Rule(rule)).ok, line, ell, rule)
    _require(hit == res.value if rule == "psd" else hit <= res.value, line, ell, rule)
    return [line, ell, rule, res.value]


def forts_entry(line: str, ell: int) -> list:
    g = fp.from_graph6(line)
    value, witness = fp.hitting_number(g, ell)
    _require(value == fp.leaky_number(g, ell).value, line, ell)
    _require(fp.is_ell_leaky_forcing_set(g, witness, ell).ok, line, ell)
    return [line, ell, value]


def sample(rng: random.Random, cells, count: int) -> list[tuple[str, int]]:
    out = []
    for i in range(count):
        n, ell = cells[i % len(cells)]
        out.append((gen.encode_graph6(n, gen.random_connected(rng, n, rng.uniform(0.2, 0.4))), ell))
    return out


def scan_reference() -> list[list[int]]:
    import networkx as nx

    rows = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == 0 or not nx.is_connected(g):
            continue
        n = g.number_of_nodes()
        graph = fp.Graph.from_edges(n, g.edges())
        records = list(fp.edge_deletion_scan([graph], ell=1))
        base = fp.leaky_number(graph, 1).value
        hist = [sum(1 for r in records if r.diff == d) for d in (-2, -1, 0, 1)]
        rows.append([len(records), base, *hist])
    totals = dict(zip((-2, -1, 0, 1), map(sum, zip(*(r[2:] for r in rows)))))
    _require(totals == SCAN_HISTOGRAM, totals)
    return rows


def main() -> None:
    rng = random.Random(MASTER_SEED)
    out = {"strata": {"solve": len(SOLVE_CELLS), "forts": len(FORTS_CELLS)}}
    for spec, ell, make in ANCHORS:
        adj = make()
        g = fp.from_graph6(gen.encode_graph6(len(adj), adj))
        _require(fp.hitting_number(g, ell)[0] == fp.expected_value(fp.FamilySpec.parse(spec), ell), spec, ell)
    out["scan"] = scan_reference()
    print("scan done", file=sys.stderr)
    for name, cells, count in (("solve", SOLVE_CELLS, 1000),
                               ("solve_smoke", [(n, ell) for n in (8, 9) for ell in (1, 2)], 16)):
        rows = []
        for i, (line, ell) in enumerate(sample(rng, cells, count)):
            rows.append(solve_entry(line, ell, "standard" if i % 5 == 4 else "psd"))
        out[name] = rows
        print(name, "done", file=sys.stderr)
    for name, cells, count in (("forts", FORTS_CELLS, 1200),
                               ("forts_smoke", [(n, ell) for n in (8, 9) for ell in (0, 1, 2)], 12)):
        out[name] = [forts_entry(line, ell) for line, ell in sample(rng, cells, count)]
        print(name, "done", file=sys.stderr)
    with REFERENCE.open("w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()

"""The four workloads: their inputs, one op each, and how answers are checked.

A workload hands the runner a pool of op inputs per pass.  Pass 0 is decoded
during set-up; a run that outlasts it moves on to pass 1, 2, ... whose inputs
are the same graphs under fresh seeded relabelings (scan, solve, forts) or a
repeat of the same queries (queries).  Every op's answer is reduced to a
hashable digest outside the timed span and checked against a reference after
the timed window, once per distinct (input, digest) pair.

Reference values for scan, solve and forts come from ``reference.json``,
written by ``make_reference.py``, which cross-checked every value through an
independent route (fort hitting sets against the solver).  Query answers are
checked against ``oracle.py``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import gen
import oracle

REFERENCE = Path(__file__).with_name("reference.json")

# the scan diff histogram over every connected graph on at most 7 vertices
SCAN_HISTOGRAM = {-2: 46, -1: 1683, 0: 6564, 1: 2371}

# solve anchors: (family spec, leak budget, generator)
ANCHORS = (
    ("hypercube:4", 2, lambda: gen.hypercube(4)),
    ("hypercube:4", 3, lambda: gen.hypercube(4)),
    ("grid:4:4", 1, lambda: gen.grid(4, 4)),
)


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def _relabeled(rng: random.Random, line: str) -> str:
    n, adj = gen.decode_graph6(line)
    perm = list(range(n))
    rng.shuffle(perm)
    return gen.encode_graph6(n, gen.relabel(adj, perm))


def _block_shuffle(rng: random.Random, items: list, block: int) -> list:
    """Shuffle within consecutive blocks, so a run that covers a prefix of
    the pool covers the same strata at every seed."""
    out = []
    for i in range(0, len(items), block):
        chunk = items[i:i + block]
        rng.shuffle(chunk)
        out.extend(chunk)
    return out


class Workload:
    """Base: subclasses set ``name`` and implement the hooks below."""

    name = ""
    trace_ops = 0  # fixed op count of a traced run

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self._passes: dict[int, list] = {}

    # -- inputs --------------------------------------------------------
    def items(self, p: int) -> list:
        """Benchmark-side inputs of pass ``p`` as (key, payload) pairs."""
        if p not in self._passes:
            self._passes[p] = self.make_pass(p)
        return self._passes[p]

    def make_pass(self, p: int) -> list:
        raise NotImplementedError

    def pass_key(self, p: int) -> int:
        """The pass whose inputs pass ``p`` uses (a repeat reuses them)."""
        return p

    def prepare(self, fp, items: list) -> list:
        """Program-side inputs: decoded during set-up, passed to ``op``."""
        return [fp.from_graph6(payload[0]) for _key, payload in items]

    # -- ops -----------------------------------------------------------
    def op(self, fp, item, prepared):
        raise NotImplementedError

    def digest(self, raw):
        raise NotImplementedError

    def check(self, fp, item, prepared, digest) -> bool:
        raise NotImplementedError

    def begin(self, fp) -> None:
        """Run-level state, created once set-up is done."""

    def finish(self, fp) -> list[str]:
        """Run-level checks; returns failure messages."""
        return []

    def header(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# scan


class Scan(Workload):
    """Edge-deletion scan over every connected graph on at most 7 vertices."""

    name = "scan"
    trace_ops = 996

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        import networkx as nx

        max_n = 5 if smoke else 7
        self.atlas = []  # (atlas position, graph6 in atlas labelling)
        pos = 0
        for g in nx.graph_atlas_g():
            if g.number_of_nodes() == 0 or not nx.is_connected(g):
                continue
            if g.number_of_nodes() <= max_n:
                n = g.number_of_nodes()
                self.atlas.append((pos, gen.encode_graph6(n, gen.adjacency(n, g.edges()))))
            pos += 1
        self.ref = load_reference()["scan"]
        if smoke:
            self.trace_ops = len(self.atlas)

    def make_pass(self, p):
        rng = random.Random(f"scan:{self.seed}:{p}")
        items = [(pos, (_relabeled(rng, line),)) for pos, line in self.atlas]
        rng.shuffle(items)
        return items

    def prepare(self, fp, items):
        return [payload[0] for _key, payload in items]

    def begin(self, fp):
        self.summary = fp.ScanSummary()
        self.records = 0

    def op(self, fp, item, line):
        records = list(fp.edge_deletion_scan([fp.from_graph6(line)], ell=1))
        for rec in records:
            self.summary.add(rec)
        return records

    def digest(self, records):
        self.records += len(records)
        hist = Counter(rec.diff for rec in records)
        return frozenset(rec.value_g for rec in records), tuple(hist.get(d, 0) for d in (-2, -1, 0, 1)), len(records)

    def check(self, fp, item, line, digest):
        edges, base, *hist = self.ref[item[0]]
        values, got_hist, count = digest
        return count == edges and values == ({base} if edges else set()) and list(got_hist) == hist

    def finish(self, fp):
        problems = []
        if self.summary.window_violations(-2, 1):
            problems.append(f"scan window [-2, 1] violated: {self.summary.to_lines()[0]}")
        if self.summary.records != self.records:
            problems.append(f"summary counted {self.summary.records} records, ops returned {self.records}")
        return problems

    def header(self):
        return {"graphs_per_pass": len(self.atlas), "max_order": 5 if self.smoke else 7,
                "records_per_pass": sum(self.ref[pos][0] for pos, _ in self.atlas), "ell": 1}


# ---------------------------------------------------------------------------
# solve and forts: fixed stratified samples, relabelled per seed and pass


class _Sample(Workload):
    section = ""

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        ref = load_reference()
        self.pool = ref[self.section + ("_smoke" if smoke else "")]
        self.block = ref["strata"][self.section]

    def make_pass(self, p):
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        items = [(k, (_relabeled(rng, entry[0]), *entry[1:])) for k, entry in enumerate(self.pool)]
        return _block_shuffle(rng, items, self.block)

    def header(self):
        orders = sorted({ord(e[0][0]) - 63 for e in self.pool})
        return {"pool": len(self.pool), "orders": f"{orders[0]}-{orders[-1]}",
                "ells": sorted({e[1] for e in self.pool})}


class Solve(_Sample):
    """Exact ell-leaky numbers of mid-size random graphs plus anchors."""

    name = "solve"
    section = "solve"
    trace_ops = 150

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.trace_ops = 12
        else:
            # anchors lead the sample, (graph6, ell, rule, family spec), so
            # every pass meets them in its first stratum block
            self.pool = [
                [gen.encode_graph6(len(adj), adj), ell, "psd", spec]
                for spec, ell, make in ANCHORS for adj in [make()]
            ] + self.pool

    def op(self, fp, item, g):
        _line, ell, rule, _value = item[1]
        return fp.leaky_number(g, ell, fp.Rule(rule))

    def digest(self, res):
        return res.value, res.witness.mask

    def check(self, fp, item, g, digest):
        _line, ell, rule, expected = item[1]
        if isinstance(expected, str):
            expected = fp.expected_value(fp.FamilySpec.parse(expected), ell)
        value, witness = digest
        if value != expected or witness.bit_count() != value:
            return False
        return fp.is_ell_leaky_forcing_set(g, fp.VertexSet.from_mask(g.n, witness), ell, fp.Rule(rule)).ok

    def header(self):
        head = super().header()
        head["rules"] = dict(Counter(e[2] for e in self.pool))
        head["anchors"] = 0 if self.smoke else len(ANCHORS)
        return head


class Forts(_Sample):
    """Fort hitting numbers: minimal fort enumeration plus branch and bound."""

    name = "forts"
    section = "forts"
    trace_ops = 150

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        if smoke:
            self.trace_ops = 12

    def op(self, fp, item, g):
        return fp.hitting_number(g, item[1][1])

    def digest(self, res):
        return res[0], res[1].mask

    def check(self, fp, item, g, digest):
        _line, ell, expected = item[1]
        value, witness = digest
        if value != expected or witness.bit_count() != value:
            return False
        # a set meeting every fort is a leaky psd forcing set
        return fp.is_ell_leaky_forcing_set(g, fp.VertexSet.from_mask(g.n, witness), ell).ok


# ---------------------------------------------------------------------------
# queries: seeded random graphs and blue sets, answers checked by the oracle

QUERY_KINDS = ("leaky1", "leaky2", "closure", "forces", "one_leaky")
# blue-set size range as a share of the order, per kind, around the kind's
# threshold so that about half the sets pass (for closure and forces: the
# set forces the graph without leaks)
QUERY_BLUE = {"leaky1": (0.48, 0.73), "leaky2": (0.62, 0.87), "closure": (0.3, 0.55),
              "forces": (0.3, 0.55), "one_leaky": (0.48, 0.73)}


class Queries(Workload):
    """Direct forcing queries on given blue sets: the read path."""

    name = "queries"
    trace_ops = 20000

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        rng = random.Random(f"queries:{self.seed}")
        self.orders = range(6, 10) if smoke else range(10, 25)
        # strata: every order at evenly spaced densities, every graph asked
        # every kind at evenly spaced blue-set sizes; the seed draws the
        # edges and the blue vertices
        per_order = 1 if smoke else 8
        self.graphs = [(n, gen.random_connected(rng, n, 0.2 + 0.2 * (j + 0.5) / per_order))
                       for n in self.orders for j in range(per_order)]
        if smoke:
            self.trace_ops = 120
        kinds, levels = len(QUERY_KINDS), 5
        self.queries = []  # (kind, graph index, blue mask)
        for i in range(len(self.graphs) * kinds * levels):
            kind = QUERY_KINDS[i % kinds]
            gi = i // kinds % len(self.graphs)
            level = i // (kinds * len(self.graphs))
            n = self.graphs[gi][0]
            lo, hi = QUERY_BLUE[kind]
            size = max(1, round((lo + (hi - lo) * (level + 0.5) / levels) * n))
            self.queries.append((kind, gi, sum(1 << v for v in rng.sample(range(n), size))))
        self._ref: dict[int, object] = {}
        self.passed = Counter()

    def make_pass(self, p):
        return list(enumerate(self.queries))

    def pass_key(self, p):
        return 0

    def prepare(self, fp, items):
        decoded = [fp.from_graph6(gen.encode_graph6(n, adj)) for n, adj in self.graphs]
        out = []
        for _key, (_kind, gi, blue) in items:
            g = decoded[gi]
            vs = fp.VertexSet.from_mask(g.n, blue)
            out.append((g, vs, fp.ColoringState(vs, fp.VertexSet(g.n))))
        return out

    def op(self, fp, item, prepared):
        kind = item[1][0]
        g, blue, state = prepared
        if kind == "leaky1":
            return fp.is_ell_leaky_forcing_set(g, blue, 1)
        if kind == "leaky2":
            return fp.is_ell_leaky_forcing_set(g, blue, 2)
        if kind == "closure":
            return fp.closure(g, state, fp.Rule.psd)
        if kind == "forces":
            return fp.possible_forces(g, blue)
        return fp.one_leaky_criterion(g, blue)

    def digest(self, raw):
        if isinstance(raw, bool):
            return raw
        if isinstance(raw, frozenset):
            return tuple(sorted((f.source, f.target) for f in raw))
        if isinstance(raw, tuple):
            final, chron = raw
            return final.mask, tuple((rnd, f.source, f.target) for rnd, f in chron)
        return raw.ok, raw.witness_leaks.mask if raw.witness_leaks is not None else -1

    def reference(self, key):
        if key not in self._ref:
            kind, gi, blue = self.queries[key]
            n, adj = self.graphs[gi]
            if kind in ("leaky1", "leaky2"):
                fail = oracle.first_failing(adj, blue, 1 if kind == "leaky1" else 2)
                ref = (fail < 0, fail)
            elif kind == "closure":
                ref = oracle.chronology(adj, blue)
            elif kind == "forces":
                ref = oracle.possible_forces(adj, blue)
            else:
                ref = oracle.first_failing(adj, blue, 1) < 0
            self._ref[key] = ref
            if kind in ("closure", "forces"):
                self.passed[kind] += oracle.chronology(adj, blue)[0] == (1 << n) - 1
            else:
                self.passed[kind] += ref if kind == "one_leaky" else ref[0]
        return self._ref[key]

    def check(self, fp, item, prepared, digest):
        return digest == self.reference(item[0])

    def pass_shares(self) -> dict:
        seen = Counter(self.queries[k][0] for k in self._ref)
        return {kind: round(self.passed[kind] / seen[kind], 3) for kind in seen}

    def header(self):
        return {"distinct_queries": len(self.queries), "graphs": len(self.graphs),
                "orders": f"{self.orders[0]}-{self.orders[-1]}", "kinds": list(QUERY_KINDS)}


WORKLOADS = {cls.name: cls for cls in (Scan, Solve, Forts, Queries)}

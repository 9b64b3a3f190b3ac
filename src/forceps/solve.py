"""Exact leak-robust forcing numbers and the audits built on them.

The solver is exhaustive and certified: per connected component it seeds
the candidate core with every vertex of degree at most ell (any of those
can be stranded by leaking its whole neighborhood, so they belong to every
valid set), then scans k-supersets of the core in lexicographic order,
from the core size up, until one survives every leak placement.  The
degree core is the only bound that skips size classes; it is sound by
construction, and no caller can pass another.  Within one size class the
kernel keeps the forts its failed candidates stalled on and runs no
closure for a candidate that misses one (see
``_pykernel.search_min_superset``); ``SolveStats.nodes`` still counts every
enumerated candidate, skipped or not.  Disconnected graphs are solved per
component at the full leak budget (the adversary may concentrate all leaks
in one component) and the answers are summed.
"""

from __future__ import annotations

import concurrent.futures
import logging
from dataclasses import dataclass, field
from itertools import islice, product as iter_product
from math import comb
from typing import Iterable, Iterator

from . import _core
from .errors import AuditFailure
from .families import FamilySpec, generate
from .forcing import Rule
from .graph6 import to_graph6
from .graphs import Graph, VertexSet, cartesian_product, connected_components, delete_edge, induced_subgraph

log = logging.getLogger("forceps")

_PARALLEL_MIN_CANDIDATES = 1 << 14


@dataclass(frozen=True)
class SolveStats:
    """Work counters.  ``nodes`` counts the candidate sets enumerated,
    including those a fort cut skipped without a closure; ``leak_checks``
    counts the closures computed."""

    nodes: int = 0
    leak_checks: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(self.nodes + other.nodes, self.leak_checks + other.leak_checks)


@dataclass(frozen=True)
class SolveResult:
    value: int
    witness: VertexSet
    forced_core: VertexSet
    rule: Rule
    ell: int
    stats: SolveStats


@dataclass(frozen=True)
class ScanRecord:
    graph6: str
    edge: tuple[int, int]
    value_g: int
    value_g_minus_e: int

    @property
    def diff(self) -> int:
        return self.value_g - self.value_g_minus_e


@dataclass(frozen=True)
class FamilyRow:
    family: str
    ell: int
    computed: int
    expected: int | None

    @property
    def match(self) -> bool:
        return self.expected is None or self.expected == self.computed


def _degree_core(g: Graph, ell: int) -> int:
    core = 0
    for v in range(g.n):
        if g.adj[v].bit_count() <= ell:
            core |= 1 << v
    return core


def _pieces(core: int, free: int, j: int, size: int) -> Iterator[tuple[int, int]]:
    """Split the candidates ``core`` plus ``j`` vertices of ``free`` into
    pieces ``(core', free')`` of at most ``size`` candidates each (``size``
    at least 1), in lexicographic order.  A piece too large is split on its
    lowest free vertex v: the sets holding v come first, so the pieces stay
    consecutive and the first one with a hit holds the first witness."""
    if comb(free.bit_count(), j) <= size:
        yield core, free
        return
    v = free & -free
    yield from _pieces(core | v, free ^ v, j - 1, size)
    yield from _pieces(core, free ^ v, j, size)


def _search_pieces(
    pool: concurrent.futures.Executor, g: Graph, core: int, free: int, k: int, ell: int,
    standard: bool, size: int,
) -> tuple[int, int, int]:
    """Search one size class as consecutive pieces of at most ``size``
    candidates in ``pool``; the first piece with a hit holds its witness."""
    futures = [
        pool.submit(_core.search_min_superset, g.n, g.adj, c, f, k, ell, standard)
        for c, f in _pieces(core, free, k - core.bit_count(), size)
    ]
    nodes = 0
    closures = 0
    for future in futures:
        found, cand, clos = future.result()
        nodes += cand
        closures += clos
        if found >= 0:
            return found, nodes, closures
    return -1, nodes, closures


def _solve_connected(g: Graph, ell: int, rule: Rule, workers: int) -> tuple[int, int, SolveStats]:
    """Exact value and witness mask for a connected (or any) graph treated
    as a single search domain.  With ``workers > 1`` the first size class
    of at least ``_PARALLEL_MIN_CANDIDATES`` candidates opens one process
    pool, which every later sharded class reuses."""
    n = g.n
    if g.max_degree() <= ell:
        return n, (1 << n) - 1, SolveStats()
    core = _degree_core(g, ell)
    free = (1 << n) - 1 & ~core
    standard = rule is Rule.standard
    stats = SolveStats()
    pool = None
    try:
        for k in range(max(core.bit_count(), 1), n + 1):
            total = comb(free.bit_count(), k - core.bit_count())
            if workers > 1 and total >= _PARALLEL_MIN_CANDIDATES:
                if pool is None:
                    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
                found, nodes, closures = _search_pieces(
                    pool, g, core, free, k, ell, standard, -(-total // (4 * workers))
                )
            else:
                found, nodes, closures = _core.search_min_superset(n, g.adj, core, free, k, ell, standard)
            stats += SolveStats(nodes, closures)
            if found >= 0:
                return k, found, stats
    finally:
        if pool is not None:
            # drop the hit class's queued pieces; the running ones finish first
            pool.shutdown(cancel_futures=True)
    raise AssertionError("the full vertex set always forces")  # pragma: no cover


def leaky_number(
    g: Graph,
    ell: int,
    rule: Rule = Rule.psd,
    *,
    workers: int = 1,
) -> SolveResult:
    """Minimum size of a set that forces ``g`` under every placement of
    ``ell`` leaks, with the lexicographically first optimal witness.

    The value comes from the exact search alone: the search starts at the
    degree core and takes no bound from the caller, so a value at one
    budget can check the value at another.  ``ell`` beyond the vertex
    count is clamped.  A disconnected graph is solved per component and
    the values are summed.  With ``workers > 1`` a size class of at least
    ``2**14`` candidates is split into consecutive pieces searched in a
    process pool; the value, witness and ``stats.nodes`` are the serial
    search's, while ``stats.leak_checks`` can differ, since each piece
    starts with no fort cuts.
    """
    if ell < 0:
        raise ValueError("leak budget must be non-negative")
    ell = min(ell, g.n)
    comps = connected_components(g)
    forced_core = VertexSet.from_mask(g.n, _degree_core(g, ell))
    if len(comps) <= 1:
        value, witness, stats = _solve_connected(g, ell, rule, workers)
        return SolveResult(value, VertexSet.from_mask(g.n, witness), forced_core, rule, ell, stats)
    value = 0
    witness = 0
    stats = SolveStats()
    for comp in comps:
        sub, back = induced_subgraph(g, comp)
        v, w, s = _solve_connected(sub, ell, rule, workers)
        value += v
        stats += s
        for i in range(sub.n):
            if w >> i & 1:
                witness |= 1 << back[i]
    return SolveResult(value, VertexSet.from_mask(g.n, witness), forced_core, rule, ell, stats)


def product_bound_check(g: Graph, h: Graph, ell: int) -> tuple[int, int, bool]:
    """Compare the product's value against the smaller of the two factor
    bounds |V(h)| * value(g) and |V(g)| * value(h)."""
    p = cartesian_product(g, h)
    lhs = leaky_number(p, ell).value
    rhs = min(h.n * leaky_number(g, ell).value, g.n * leaky_number(h, ell).value)
    return lhs, rhs, lhs <= rhs


def monotonicity_audit(g: Graph, max_ell: int) -> list[int]:
    """Values at leak budgets 0..max_ell, checked non-decreasing, never
    above the standard-rule value at the same budget, and equal to the
    order exactly when no vertex has degree above the budget.  Every value
    is solved on its own, so a wrong one raises AuditFailure instead of
    being masked by its neighbor's."""
    if not 0 <= max_ell <= g.n:
        raise ValueError(f"max_ell must lie in [0, {g.n}]")
    psd_vals: list[int] = []
    std_vals: list[int] = []
    for ell in range(max_ell + 1):
        psd_vals.append(leaky_number(g, ell, Rule.psd).value)
        std_vals.append(leaky_number(g, ell, Rule.standard).value)
    g6 = to_graph6(g)
    for ell in range(1, max_ell + 1):
        if psd_vals[ell] < psd_vals[ell - 1]:
            raise AuditFailure(
                "value decreased when the leak budget grew",
                {"kind": "leak-monotonicity", "graph6": g6, "values": psd_vals},
            )
    for ell in range(max_ell + 1):
        if psd_vals[ell] > std_vals[ell]:
            raise AuditFailure(
                "psd value exceeded the standard-rule value",
                {"kind": "rule-dominance", "graph6": g6, "ell": ell,
                 "psd": psd_vals[ell], "standard": std_vals[ell]},
            )
    for ell in range(max_ell + 1):
        if (psd_vals[ell] == g.n) != (g.max_degree() <= ell):
            raise AuditFailure(
                "value-equals-order characterization failed",
                {"kind": "degree-characterization", "graph6": g6, "ell": ell,
                 "value": psd_vals[ell], "max_degree": g.max_degree()},
            )
    return psd_vals


# ---------------------------------------------------------------------------
# edge-deletion scanning


def _scan_one(args) -> list[ScanRecord]:
    g, ell = args
    g6 = to_graph6(g)
    if len(connected_components(g)) > 1:
        log.warning("scan input %s is disconnected; solved per component", g6)
    base = leaky_number(g, ell).value
    records = []
    for u, v in g.edges():
        reduced = leaky_number(delete_edge(g, u, v), ell).value
        records.append(ScanRecord(g6, (u, v), base, reduced))
    return records


def edge_deletion_scan(
    graphs: Iterable[Graph], ell: int = 1, workers: int = 1
) -> Iterator[ScanRecord]:
    """One record per (graph, edge): the value before and after deleting
    that edge.  Output order follows the input stream at any worker count.
    With ``workers > 1`` the stream is read in batches of ``8 * workers``
    graphs, so at most one batch is held at a time (``Executor.map`` would
    read the whole stream before yielding anything).
    """
    tasks = ((g, ell) for g in graphs)
    if workers <= 1:
        for task in tasks:
            yield from _scan_one(task)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        while batch := list(islice(tasks, 8 * workers)):
            for records in pool.map(_scan_one, batch):
                yield from records


@dataclass
class ScanSummary:
    """Running aggregation of scan records."""

    records: int = 0
    min_diff: int | None = None
    max_diff: int | None = None
    increases: list[tuple[str, tuple[int, int]]] = field(default_factory=list)

    def add(self, rec: ScanRecord) -> None:
        self.records += 1
        d = rec.diff
        self.min_diff = d if self.min_diff is None else min(self.min_diff, d)
        self.max_diff = d if self.max_diff is None else max(self.max_diff, d)
        if d == 1:
            self.increases.append((rec.graph6, rec.edge))

    def window_violations(self, lower: int = -2, upper: int = 1) -> bool:
        if self.records == 0:
            return False
        return self.min_diff < lower or self.max_diff > upper

    def to_lines(self) -> list[str]:
        lines = [
            f"records={self.records} min_diff={self.min_diff} max_diff={self.max_diff}",
            f"deletions that raised the value by 1: {len(self.increases)}",
        ]
        for g6, (u, v) in self.increases:
            lines.append(f"  {g6} edge=({u},{v})")
        return lines


# ---------------------------------------------------------------------------
# family tables


def expected_value(spec: FamilySpec, ell: int, g: Graph | None = None) -> int | None:
    """Closed-form value for a family member, or None where no closed form
    is available at this budget (never extrapolated past its known range)."""
    kind, params = spec.kind, spec.params
    if kind == "path":
        n = params[0]
        return 1 if ell == 0 else (min(n, 2) if ell == 1 else n)
    if kind == "cycle":
        n = params[0]
        return 2 if ell <= 1 else n
    if kind == "complete":
        n = params[0]
        return n - 1 if ell <= n - 2 else n
    if kind == "wheel":
        n = params[0]  # rim size; the graph has n + 1 vertices
        if ell <= 1:
            return 3
        if ell == 2:
            return -(-n // 2) + 1
        return n if ell < n else n + 1
    if kind in ("complete_bipartite", "star"):
        m, n = params if kind == "complete_bipartite" else (1, params[0])
        lo, hi = min(m, n), max(m, n)
        if ell < lo:
            return lo
        return hi if ell < hi else m + n
    if kind == "hypercube":
        d = params[0]
        return 1 << (d - 1) if ell <= d - 1 else 1 << d
    if kind == "grid":
        n, m = params
        if ell >= (g if g is not None else generate(spec)).max_degree():
            return n * m  # every vertex can be stranded, so all must start blue
        if ell == 1 and n == m and n >= 4:
            return n
        return None  # no closed form at this budget (or contested range)
    if kind == "petersen_gp":
        n = params[0]
        if ell <= 1:
            return 3 if n == 3 else 4
        if ell == 2:
            return 4 if n in (4, 5, 6) else None
        return 2 * n
    if kind in ("tree_from_pruefer", "fig3_spider"):
        tree = g if g is not None else generate(spec)
        if ell == 0:
            return 1
        return sum(1 for v in range(tree.n) if tree.degree(v) <= ell)
    return None


def family_table(
    specs: Iterable[FamilySpec], ells: Iterable[int], workers: int = 1
) -> list[FamilyRow]:
    """Solve every (family member, budget) pair and pair each value with
    its closed form when one exists.  Each value is solved on its own, so
    a row never inherits an error from another budget's row.  Budgets are
    listed in ascending order, once each."""
    rows = []
    budgets = sorted(set(ells))
    for spec in specs:
        g = generate(spec)
        for ell in budgets:
            res = leaky_number(g, ell, workers=workers)
            rows.append(FamilyRow(str(spec), ell, res.value, expected_value(spec, ell, g)))
    return rows


def default_suite(extended: bool = False) -> list[tuple[FamilySpec, tuple[int, ...]]]:
    """The desk-scale verification ranges.

    Paths, cycles, complete graphs and wheels up to 8 (rim) vertices,
    complete bipartite graphs with at most 8 vertices, every labeled tree
    on up to 7 vertices, hypercubes up to dimension 3 (dimension 4 at
    budgets <= 3 behind ``extended``), prisms over cycles up to 6, and
    grids up to 5x4.  Budgets cover every break point of the closed forms;
    grid budget 2 rows (no closed form, exploration only) are limited to
    at most 12 vertices to keep the sweep quick.
    """
    suite: list[tuple[FamilySpec, tuple[int, ...]]] = []
    for n in range(1, 9):
        suite.append((FamilySpec("path", (n,)), (0, 1, 2, 3)))
    for n in range(3, 9):
        suite.append((FamilySpec("cycle", (n,)), (0, 1, 2, 3)))
    for n in range(1, 9):
        suite.append((FamilySpec("complete", (n,)), tuple(range(n + 1))))
    for n in range(3, 9):
        suite.append((FamilySpec("wheel", (n,)), tuple(range(n + 2))))
    for m in range(1, 8):
        for n in range(m, 9 - m):
            suite.append((FamilySpec("complete_bipartite", (m, n)), tuple(range(max(m, n) + 2))))
    for n in range(2, 8):
        for seq in iter_product(range(n), repeat=n - 2):
            suite.append((FamilySpec("tree_from_pruefer", seq), (0, 1, 2, 3)))
    suite.append((FamilySpec("fig3_spider"), (0, 1, 2, 3)))
    for d in range(0, 4):
        suite.append((FamilySpec("hypercube", (d,)), tuple(range((1 << d) + 1))))
    if extended:
        suite.append((FamilySpec("hypercube", (4,)), (0, 1, 2, 3)))
    for n in range(3, 7):
        suite.append((FamilySpec("petersen_gp", (n, 1)), (0, 1, 2, 3)))
    for n in range(2, 6):
        for m in range(2, min(n, 4) + 1):
            ells = (0, 1, 2, 3, 4) if n * m <= 12 else (0, 1, 3, 4)
            suite.append((FamilySpec("grid", (n, m)), ells))
    return suite

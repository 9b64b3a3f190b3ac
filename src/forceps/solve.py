"""Exact leak-robust forcing numbers and the audits built on them.

The solver is exhaustive and certified: per connected component it scans
the supersets of a core in lexicographic order, size class by size class,
until one survives every leak placement.  Two facts, both sound by
construction, decide where the scan starts; no caller can pass another
bound.  The core is every vertex of degree at most ell: any of those can be
stranded by leaking its whole neighborhood, so it belongs to every valid
set.  And a set with at most ell vertices in a component, short of the
whole component, fails: once all of them leak, no blue vertex can force
into the component, since its own blue vertices are leaked and no other
vertex has a neighbor in it.  A component with a vertex outside the core holds a vertex of
degree above ell, so it has at least ell + 2 vertices, and its scan starts
at ell + 1 of them (or at its core, if that is larger).  Each component is
one kernel call over all of its classes, which keeps, per failed
candidate, up to two small forts among the vertices its stalled closure
left white and runs no closure for a later candidate, of any size, that
misses one
(see ``_pykernel.search_min_superset``); ``SolveStats.nodes`` still counts
every enumerated candidate, skipped or not.  A solve returns the cuts its
searches end with, and ``edge_deletion_scan`` solves every G - e in one
kernel call (``_pykernel.deletion_values``) that starts each search from
those of G's cuts that still bind there: they spare closures and change
no value.  A component is searched inside the whole graph with every
other vertex blue: those have no white neighbor, so they never force, and
the kernel places no leak on them.  So each component is solved at the
full leak budget (the adversary may concentrate all leaks in one
component), the answers and the counters are summed, and
``leaky_number`` says how one process pool serves every component of a
sharded solve.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import islice, product as iter_product
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator

from . import _core
from .errors import AuditFailure
from .families import FamilySpec, generate
from .forcing import Rule, _standard
from .graph6 import _finding_graph
from .graphs import Graph, VertexSet, _check_budget, _check_workers

if TYPE_CHECKING:
    from concurrent.futures import Executor

_PARALLEL_MIN_CANDIDATES = 1 << 14


@dataclass(frozen=True)
class SolveStats:
    """Work counters.  ``nodes`` counts the candidate sets enumerated,
    including those a fort cut skipped without a closure; ``leak_checks``
    counts the closures computed, which also depend on the cuts the
    searches keep and on ``workers`` (see ``leaky_number``)."""

    nodes: int = 0
    leak_checks: int = 0


@dataclass(frozen=True)
class SolveResult:
    """A solve's value and witness, the degree core, the rule and the
    clamped budget, its work counters, and ``cuts``: the fort cuts its
    kernel calls held at the end (see ``leaky_number``), which equality and
    repr leave out."""

    value: int
    witness: VertexSet
    forced_core: VertexSet
    rule: Rule
    ell: int
    stats: SolveStats
    cuts: tuple[int, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ScanRecord:
    graph: Graph
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


def _sharded(workers: int, free: int, j: int) -> bool:
    """Whether a pool of ``workers`` processes splits the class of the sets
    with ``j`` vertices of ``free`` into pieces."""
    return workers > 1 and comb(free.bit_count(), j) >= _PARALLEL_MIN_CANDIDATES


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
    pool: Executor, g: Graph, core: int, free: int, k: int, ell: int,
    standard: bool, size: int,
) -> tuple[int, int, int, tuple[int, ...]]:
    """Search one size class as consecutive pieces of at most ``size``
    candidates in ``pool``, each from an empty cut ring; the first piece
    with a hit holds its witness.  Returns the kernel's 4-tuple, with the
    rings of the pieces searched joined in order."""
    futures = [
        pool.submit(_core.search_min_superset, g.adj, c, f, k, k, ell, standard)
        for c, f in _pieces(core, free, k - core.bit_count(), size)
    ]
    nodes = 0
    closures = 0
    rings: tuple[int, ...] = ()
    for i, future in enumerate(futures):
        found, cand, clos, ring = future.result()
        nodes += cand
        closures += clos
        rings += ring
        if found >= 0:
            for queued in futures[i + 1:]:
                queued.cancel()  # the pool goes on to the solve's next component
            return found, nodes, closures, rings
    return -1, nodes, closures, rings


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
    degree core and at ell + 1 vertices per component (see the module
    docstring), and takes no bound from the caller, so a value at one
    budget can check the value at another.  A bool ``ell`` raises
    TypeError, and one beyond the vertex count is clamped; ``workers``
    must be an int of at least 1.  Each connected component is searched
    inside ``g`` with every other vertex blue, in one kernel call over its
    size classes, and the values are summed.  With
    ``workers > 1`` a size class of at least ``2**14`` candidates is split
    into consecutive pieces searched in a process pool, which the first
    such class opens and every later one reuses, and each run of smaller
    classes between them is one kernel call.

    Every kernel call starts with no cuts.  The result's ``cuts`` joins
    the cut rings the kernel calls end with, each of at most 256 cuts and
    newest first, in call order: one ring per component searched when
    ``workers`` is 1.
    ``edge_deletion_scan`` offers them to the solves of G - e (see
    ``_pykernel.deletion_values``).  The value, witness and
    ``stats.nodes`` are the serial search's at any ``workers``, while
    ``stats.leak_checks`` depends on it.
    """
    _check_budget(ell)
    _check_workers(workers)
    n = g.n
    ell = min(ell, n)
    full = (1 << n) - 1
    core = _degree_core(g, ell)
    standard = _standard(rule)
    value = witness = nodes = closures = 0
    rings: tuple[int, ...] = ()
    pool = None
    try:
        for comp, _ in _core.components(g.adj, full):
            free = comp & ~core
            outside = n - comp.bit_count()
            if not free:  # every vertex of the component can be stranded
                value += comp.bit_count()
                witness |= comp
                continue
            # the vertices outside comp are blue with no white neighbor: they
            # never force, and a leak placed on one is wasted
            blue = core | full & ~comp
            base = blue.bit_count()
            k = max(base, outside + ell + 1)
            found = -1
            while found < 0:
                hi = k
                if _sharded(workers, free, k - base):
                    if pool is None:
                        import concurrent.futures  # only pool paths pay its import

                        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
                    size = -(-comb(free.bit_count(), k - base) // (4 * workers))
                    found, cand, clos, ring = _search_pieces(pool, g, blue, free, k, ell, standard, size)
                else:
                    # the classes up to the next one the pool splits, or to
                    # the whole graph, which always forces: one kernel call
                    while hi < n and not _sharded(workers, free, hi + 1 - base):
                        hi += 1
                    found, cand, clos, ring = _core.search_min_superset(
                        g.adj, blue, free, k, hi, ell, standard)
                nodes += cand
                closures += clos
                rings += ring
                k = hi + 1
            value += found.bit_count() - outside
            witness |= found & comp
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return SolveResult(
        value, VertexSet.from_mask(n, witness), VertexSet.from_mask(n, core), rule, ell,
        SolveStats(nodes, closures), rings,
    )


def monotonicity_audit(g: Graph, max_ell: int) -> list[int]:
    """Values at leak budgets 0..max_ell, checked non-decreasing, never
    above the standard-rule value at the same budget, and equal to the
    order exactly when no vertex has degree above the budget.  Every value
    is solved on its own, so a wrong one raises AuditFailure instead of
    being masked by its neighbor's.  A bool ``max_ell`` raises TypeError."""
    _check_budget(max_ell)
    if not 0 <= max_ell <= g.n:
        raise ValueError(f"max_ell must lie in [0, {g.n}]")
    psd_vals: list[int] = []
    std_vals: list[int] = []
    for ell in range(max_ell + 1):
        psd_vals.append(leaky_number(g, ell, Rule.psd).value)
        std_vals.append(leaky_number(g, ell, Rule.standard).value)
    for ell in range(1, max_ell + 1):
        if psd_vals[ell] < psd_vals[ell - 1]:
            raise AuditFailure(
                "value decreased when the leak budget grew",
                {"kind": "leak-monotonicity", **_finding_graph(g), "values": psd_vals},
            )
    for ell in range(max_ell + 1):
        if psd_vals[ell] > std_vals[ell]:
            raise AuditFailure(
                "psd value exceeded the standard-rule value",
                {"kind": "rule-dominance", **_finding_graph(g), "ell": ell,
                 "psd": psd_vals[ell], "standard": std_vals[ell]},
            )
    for ell in range(max_ell + 1):
        if (psd_vals[ell] == g.n) != (g.max_degree() <= ell):
            raise AuditFailure(
                "value-equals-order characterization failed",
                {"kind": "degree-characterization", **_finding_graph(g), "ell": ell,
                 "value": psd_vals[ell], "max_degree": g.max_degree()},
            )
    return psd_vals


# ---------------------------------------------------------------------------
# edge-deletion scanning


def _scan_one(args) -> list[ScanRecord]:
    g, ell = args
    base = leaky_number(g, ell)
    # most of G's cuts still bind in G - e; the kernel keeps those that do
    values = _core.deletion_values(g.adj, ell, base.cuts)
    return [ScanRecord(g, edge, base.value, value)
            for edge, (value, _, _) in zip(g.edges(), values, strict=True)]


def edge_deletion_scan(
    graphs: Iterable[Graph], ell: int = 1, workers: int = 1
) -> Iterator[ScanRecord]:
    """One record per (graph, edge): the value before and after deleting
    that edge.  G is solved once, and every G - e in one kernel call that
    starts from G's cuts, which spares closures and changes no value.
    Output order follows the input stream at any worker count.  With
    ``workers > 1`` the stream is read in batches of ``8 * workers``
    graphs, so at most one batch is held at a time (``Executor.map`` would
    read the whole stream before yielding anything).  An ``ell`` or a
    ``workers`` that ``leaky_number`` would refuse raises when the first
    record is asked for, even for an empty stream.
    """
    _check_budget(ell)
    _check_workers(workers)
    tasks = ((g, ell) for g in graphs)
    if workers == 1:
        for task in tasks:
            yield from _scan_one(task)
        return
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        while batch := list(islice(tasks, 8 * workers)):
            for records in pool.map(_scan_one, batch):
                yield from records


@dataclass
class ScanSummary:
    """Running aggregation of scan records.  A scan holds every deletion
    that raised the value until it prints the summary, so each is kept as
    its graph and one packed edge rather than as a pair of tuples."""

    records: int = 0
    min_diff: int | None = None
    max_diff: int | None = None
    _graphs: list[Graph] = field(default_factory=list, init=False, repr=False)
    _edges: array = field(default_factory=lambda: array("H"), init=False, repr=False)  # u * 64 + v

    @property
    def increases(self) -> list[tuple[Graph, tuple[int, int]]]:
        """(graph, edge) per deletion that raised the value by 1, in record order."""
        return [(g, divmod(e, 64)) for g, e in zip(self._graphs, self._edges)]

    def add(self, rec: ScanRecord) -> None:
        self.records += 1
        d = rec.diff
        self.min_diff = d if self.min_diff is None else min(self.min_diff, d)
        self.max_diff = d if self.max_diff is None else max(self.max_diff, d)
        if d == 1:
            u, v = rec.edge
            self._graphs.append(rec.graph)
            self._edges.append(u << 6 | v)

    def window_violations(self, lower: int = -2, upper: int = 1) -> bool:
        if self.records == 0:
            return False
        return self.min_diff < lower or self.max_diff > upper

    def to_lines(self) -> list[str]:
        lines = [
            f"records={self.records} min_diff={self.min_diff} max_diff={self.max_diff}",
            f"deletions that raised the value by 1: {len(self._graphs)}",
        ]
        for g, (u, v) in self.increases:
            name = _finding_graph(g)  # graph6, or the edges of a larger graph
            text = name["graph6"] if "graph6" in name else json.dumps(name)
            lines.append(f"  {text} edge=({u},{v})")
        return lines


# ---------------------------------------------------------------------------
# family tables


def expected_value(spec: FamilySpec, ell: int) -> int | None:
    """Closed-form value for a family member, or None where no closed form
    is available at this budget (never extrapolated past its known range).
    ``ell`` is checked as ``leaky_number`` checks it."""
    _check_budget(ell)
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
        if ell >= generate(spec).max_degree():
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
        return 1 if ell == 0 else sum(1 for d in generate(spec).degrees() if d <= ell)
    return None


def family_table(
    specs: Iterable[FamilySpec], ells: Iterable[int], workers: int = 1
) -> list[FamilyRow]:
    """Solve every (family member, budget) pair and pair each value with
    its closed form when one exists.  Each value is solved on its own, so
    a row never inherits an error from another budget's row.  The worker
    count is checked where it enters, even when no row is solved, and the
    budgets one by one, then listed in ascending order, once each."""
    _check_workers(workers)
    ells = list(ells)
    for ell in ells:
        _check_budget(ell)  # before the set, which would merge True into 1
    rows = []
    budgets = sorted(set(ells))
    for spec in specs:
        g = generate(spec)
        for ell in budgets:
            res = leaky_number(g, ell, workers=workers)
            rows.append(FamilyRow(str(spec), ell, res.value, expected_value(spec, ell)))
    return rows


def default_suite() -> list[tuple[FamilySpec, tuple[int, ...]]]:
    """The desk-scale verification ranges.

    Paths, cycles, complete graphs and wheels up to 8 (rim) vertices,
    complete bipartite graphs with at most 8 vertices, every labeled tree
    on up to 7 vertices, hypercubes up to dimension 3 (dimension 4 at
    budgets <= 3), prisms over cycles up to 6, and grids up to 5x4.
    Budgets cover every break point of the closed forms; grid budget 2
    rows (no closed form, exploration only) are limited to at most 12
    vertices to keep the sweep quick.
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
    suite.append((FamilySpec("hypercube", (4,)), (0, 1, 2, 3)))
    for n in range(3, 7):
        suite.append((FamilySpec("petersen_gp", (n, 1)), (0, 1, 2, 3)))
    for n in range(2, 6):
        for m in range(2, min(n, 4) + 1):
            ells = (0, 1, 2, 3, 4) if n * m <= 12 else (0, 1, 3, 4)
            suite.append((FamilySpec("grid", (n, m)), ells))
    return suite

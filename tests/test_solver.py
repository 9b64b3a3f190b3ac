import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from forceps import (
    AuditFailure,
    Graph,
    Rule,
    ScanRecord,
    VertexSet,
    connected_components,
    delete_edge,
    edge_deletion_scan,
    expected_value,
    family_table,
    from_graph6,
    induced_subgraph,
    is_ell_leaky_forcing_set,
    leaky_number,
    monotonicity_audit,
)
from forceps import _core
from forceps.families import (
    FamilySpec,
    complete,
    complete_bipartite,
    cycle,
    fig3_spider,
    generate,
    grid,
    hypercube,
    path,
    petersen_gp,
    wheel,
)
from forceps.solve import ScanSummary, _pieces, _search_pieces

from corpus import atlas_graphs, disjoint_union, interleaved_union, random_graph
from oracles import naive_leaky_number


def _bits(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def value(g, ell, rule=Rule.psd):
    return leaky_number(g, ell, rule).value


class TestLeakyNumber:
    def test_path5(self):
        res = leaky_number(path(5), 1)
        assert (res.value, list(res.witness)) == (2, [0, 4])
        assert list(res.forced_core) == [0, 4]
        assert value(path(5), 2) == 5

    def test_wheel6_two_leaks(self):
        assert value(wheel(6), 2) == 4

    def test_complete_bipartite_cases(self):
        g = complete_bipartite(2, 3)
        assert [value(g, e) for e in (1, 2, 3)] == [2, 3, 5]

    def test_spider_two_leaks(self):
        assert value(fig3_spider(), 2) == 6

    def test_hypercube3(self):
        assert value(hypercube(3), 2) == 4

    def test_prism4(self):
        assert value(petersen_gp(4), 2) == 4

    def test_component_sum(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        res = leaky_number(g, 0)
        # the triangle tests its 3 singletons and hits at {0, 1}; the
        # isolated vertex is all core and enumerates no candidate
        assert (res.value, list(res.witness), res.stats.nodes) == (3, [0, 1, 3], 4)

    def test_budget_clamped(self):
        assert value(complete(2), 99) == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="^leak budget must be non-negative$"):
            leaky_number(path(3), -1)

    def test_witness_and_core_invariants(self):
        res = leaky_number(wheel(5), 2)
        assert len(res.witness) == res.value
        assert res.forced_core <= res.witness
        assert is_ell_leaky_forcing_set(wheel(5), res.witness, 2).ok

    def test_stats_populated(self):
        res = leaky_number(cycle(5), 1)
        assert res.stats.nodes >= 1 and res.stats.leak_checks >= 1

    def test_empty_graph(self):
        res = leaky_number(Graph.from_edges(0, []), 0)
        assert res.value == 0 and len(res.witness) == 0

    def test_a_solve_returns_its_cuts(self):
        # the final cut ring of each component's search: forts of the rule
        # with at most ell threats, connected under the psd rule
        g, ell = disjoint_union(grid(3, 3), hypercube(3)), 1
        for rule in Rule:
            res = leaky_number(g, ell, rule)
            assert len(res.cuts) <= 2 * 64
            assert {cut & 0x1FF != 0 for cut in res.cuts} == {True, False}  # both components
            for cut in res.cuts:
                vertices = set(_bits(cut))
                threats = sum(1 for v in range(g.n) if v not in vertices and len(set(_bits(g.adj[v])) & vertices) == 1)
                assert threats <= ell
                sub, _ = induced_subgraph(g, VertexSet(g.n, vertices))
                assert rule is Rule.standard or len(connected_components(sub)) == 1
            # the cuts are left out of equality and repr
            assert replace(res, cuts=()) == res and "cuts" not in repr(res)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_match_oracle(self, seed):
        rng = random.Random(300 + seed)
        g = random_graph(rng, rng.randint(1, 5), 0.5)
        ell = rng.randint(0, 2)
        for rule in (Rule.psd, Rule.standard):
            res = leaky_number(g, ell, rule)
            # the witness is the lexicographically first optimal set
            assert (res.value, tuple(res.witness)) == naive_leaky_number(g, ell, rule)

    @pytest.mark.parametrize("seed", range(8))
    def test_component_additivity(self, seed):
        rng = random.Random(900 + seed)
        a = random_graph(rng, rng.randint(1, 4), 0.6)
        b = random_graph(rng, rng.randint(1, 4), 0.6)
        both, a_to, b_to = interleaved_union(a, b)

        def moved(vs, to):
            return sum(1 << to[v] for v in vs)

        for ell in (0, 1, 2):
            for rule in (Rule.psd, Rule.standard):
                whole, ra, rb = (leaky_number(h, ell, rule) for h in (both, a, b))
                assert whole.value == ra.value + rb.value
                assert whole.witness.mask == moved(ra.witness, a_to) | moved(rb.witness, b_to)
                assert whole.forced_core.mask == moved(ra.forced_core, a_to) | moved(rb.forced_core, b_to)
                assert whole.stats.nodes == ra.stats.nodes + rb.stats.nodes
                assert whole.stats.leak_checks == ra.stats.leak_checks + rb.stats.leak_checks

    def test_leak_checks_add_over_components(self):
        # K1 interleaved with Db[ at two leaks: the scans of the 5-vertex
        # component place no leak on the isolated vertex, so the union runs
        # the 10 closures the component runs alone
        both, _, _ = interleaved_union(from_graph6("@"), from_graph6("Db["))
        for rule in (Rule.psd, Rule.standard):
            res = leaky_number(both, 2, rule)
            assert (res.value, res.stats.leak_checks) == (5, 10)


class TestClassStart:
    """Each component's scan starts at ell + 1 of its vertices."""

    def test_sets_of_at_most_ell_vertices_fail(self):
        # once every vertex of such a set leaks, no vertex can force, so a
        # set short of the whole graph stalls
        for g in atlas_graphs(6):
            for ell in (1, 2, 3):
                for size in range(min(ell, g.n - 1) + 1):
                    for combo in combinations(range(g.n), size):
                        for rule in (Rule.psd, Rule.standard):
                            assert not is_ell_leaky_forcing_set(g, VertexSet(g.n, combo), ell, rule).ok

    @pytest.mark.parametrize("rule, nodes", [(Rule.psd, 50), (Rule.standard, 71)])
    def test_nodes_count_the_classes_from_ell_plus_one(self, rule, nodes):
        # wheel(6) at two leaks has an empty degree core: the search counts
        # every set of 3 to value - 1 vertices, then the sets of its value's
        # class up to the witness, and no set of 1 or 2 vertices
        g = wheel(6)
        res = leaky_number(g, 2, rule)
        assert not res.forced_core
        below = sum(comb(g.n, k) for k in range(3, res.value))
        in_class = list(combinations(range(g.n), res.value)).index(tuple(res.witness)) + 1
        assert res.stats.nodes == below + in_class == nodes


class TestParallelSearch:
    def test_sharded_candidate_scan_matches_serial(self, monkeypatch):
        import concurrent.futures
        import multiprocessing

        import forceps.solve as solve_mod

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            opened = 0
            frees = []
            cancels = []

            def __init__(self, *args, **kwargs):
                RecordingPool.opened += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                RecordingPool.frees.append(args[2])  # the piece's free mask
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                RecordingPool.cancels.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        union, *_ = interleaved_union(wheel(7), wheel(8))
        graphs = (wheel(7), wheel(8), union)
        serial = [leaky_number(g, 2) for g in graphs]
        for g, res in zip(graphs[:2], serial):
            # the degree core is empty, and the witness lies past the first
            # piece of its size class at two workers
            k = res.value
            c, f = next(_pieces(0, (1 << g.n) - 1, k, -(-comb(g.n, k) // 8)))
            w = res.witness.mask
            assert not (w & c == c and w & ~(c | f) == 0)
        monkeypatch.setattr(solve_mod, "_PARALLEL_MIN_CANDIDATES", 16)
        # solve looks the pool class up on concurrent.futures at each use
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for g, res in zip(graphs, serial):
            RecordingPool.opened = 0
            RecordingPool.frees = []
            RecordingPool.cancels = []
            sharded = leaky_number(g, 2, workers=2)
            # every sharded size class of the solve, in every component,
            # shares one pool
            assert RecordingPool.opened == 1
            for comp in connected_components(g):
                assert any(f and f & ~comp.mask == 0 for f in RecordingPool.frees)
            assert (sharded.value, list(sharded.witness)) == (res.value, list(res.witness))
            # a cut-skipped candidate still counts, so the pieces up to the
            # hit enumerate what the serial scan does
            assert sharded.stats.nodes == res.stats.nodes
            # the hit drops the queued pieces, and no worker outlives the call
            assert RecordingPool.cancels.count(True) == 1
            assert not multiprocessing.active_children()

    def test_a_hit_cancels_the_queued_pieces(self):
        import concurrent.futures

        class ManualPool:
            """Runs the first piece at once and leaves the rest queued."""

            def __init__(self):
                self.futures = []

            def submit(self, fn, /, *args):
                future = concurrent.futures.Future()
                if not self.futures:
                    future.set_result(fn(*args))
                self.futures.append(future)
                return future

        # {0, 1}, the first pair of cycle(6), forces it with no leaks; the
        # pool goes on to the solve's next component, so the queued pieces
        # must not run
        pool = ManualPool()
        assert _search_pieces(pool, cycle(6), 0, (1 << 6) - 1, 2, 0, False, 1) == (0b11, 1, 1, ())
        assert len(pool.futures) == comb(6, 2)
        assert all(f.cancelled() for f in pool.futures[1:])

    @given(
        core=st.integers(0, (1 << 12) - 1),
        free=st.integers(0, (1 << 12) - 1),
        j=st.integers(0, 12),
        size=st.integers(1, 40),
    )
    @example(core=0, free=0, j=0, size=1)
    @example(core=1, free=0b1110, j=0, size=1)
    @example(core=0, free=0b1011, j=3, size=1)
    def test_pieces_concatenate_to_the_combinations(self, core, free, j, size):
        core &= ~free
        j = min(j, free.bit_count())
        got = []
        for c, f in _pieces(core, free, j, size):
            assert c & core == core and not c & f
            piece = [c | sum(1 << v for v in combo) for combo in combinations(_bits(f), j - (c ^ core).bit_count())]
            assert 0 < len(piece) <= size
            got += piece
        assert got == [core | sum(1 << v for v in combo) for combo in combinations(_bits(free), j)]

    def test_import_leaves_the_pool_modules_unloaded(self):
        # only the two pool paths import concurrent.futures, which loads logging
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, forceps; print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_vertexset_survives_pickling(self):
        import pickle

        vs = VertexSet(6, [1, 4])
        assert pickle.loads(pickle.dumps(vs)) == vs


class TestMonotonicityAudit:
    def test_cycle5(self):
        assert monotonicity_audit(cycle(5), 2) == [2, 2, 5]

    def test_path4(self):
        assert monotonicity_audit(path(4), 2) == [1, 2, 4]

    def test_complete4(self):
        assert monotonicity_audit(complete(4), 3) == [3, 3, 3, 4]

    def test_range_validation(self):
        with pytest.raises(ValueError, match=r"^max_ell must lie in \[0, 3\]$"):
            monotonicity_audit(path(3), 4)

    # path(4) has psd values 1, 2, 4 and standard values 1, 2, 4 at budgets
    # 0..2; lowering one value by 2 breaks exactly one identity
    @pytest.mark.parametrize(
        "rule, ell, kind",
        [
            (Rule.psd, 1, "leak-monotonicity"),  # psd 1, 0, 4
            (Rule.standard, 0, "rule-dominance"),  # psd 1 above standard -1
            (Rule.psd, 2, "degree-characterization"),  # psd 2 < 4 at max degree 2
        ],
    )
    def test_wrong_value_is_reported(self, monkeypatch, rule, ell, kind):
        import forceps.solve as solve_mod

        def broken(g, budget, r):
            res = leaky_number(g, budget, r)
            return replace(res, value=res.value - 2) if (r, budget) == (rule, ell) else res

        monkeypatch.setattr(solve_mod, "leaky_number", broken)
        with pytest.raises(AuditFailure) as info:
            monotonicity_audit(path(4), 2)
        assert info.value.finding["kind"] == kind


class TestEdgeDeletionScan:
    def test_path3_deleting_inner_edge_raises_cost(self):
        recs = {r.edge: r for r in edge_deletion_scan([path(3)], 1)}
        assert recs[(1, 2)].value_g == 2
        assert recs[(1, 2)].value_g_minus_e == 3  # K2 + isolated vertex
        assert recs[(1, 2)].diff == -1

    def test_triangle_keeps_value(self):
        recs = list(edge_deletion_scan([cycle(3)], 1))
        assert all(r.value_g == 2 and r.diff == 0 for r in recs)

    def test_parallel_scan_reads_the_stream_in_batches(self):
        read = 0

        def stream():
            nonlocal read
            for _ in range(200):
                read += 1
                yield path(3)

        records = edge_deletion_scan(stream(), 1, workers=2)
        first = next(records)
        assert read <= 16  # one batch of 8 * workers graphs
        assert first == next(iter(edge_deletion_scan([path(3)], 1)))
        records.close()

    def test_scans_graphs_past_the_graph6_short_form(self):
        # 63 and 64 vertices have no short-form graph6; a record holds its graph
        values = {}  # every deletion leaves paths: their sorted orders name it
        for g in (path(63), path(64), cycle(64)):
            base = leaky_number(g, 1).value
            records = list(edge_deletion_scan([g], 1))
            assert [r.edge for r in records] == list(g.edges())
            for r in records:
                assert r.graph == g and r.value_g == base
                h = delete_edge(g, *r.edge)
                key = tuple(sorted(len(c) for c in connected_components(h)))
                if key not in values:
                    values[key] = leaky_number(h, 1).value
                assert r.value_g_minus_e == values[key]

    def test_records_match_plain_solves(self):
        # the scan solves every G - e in one kernel call from G's cuts: each
        # edge's value and candidate count are a plain solve's, with fewer
        # closures over the corpus
        carried = plain_checks = 0
        for g in atlas_graphs(6):
            for ell in (0, 1, 2):
                base = leaky_number(g, ell)
                records = list(edge_deletion_scan([g], ell))
                solves = _core.deletion_values(g.adj, ell, base.cuts)
                assert [r.edge for r in records] == g.edges() and len(solves) == g.num_edges()
                for rec, (value, candidates, closures) in zip(records, solves):
                    plain = leaky_number(delete_edge(g, *rec.edge), ell)
                    assert (rec.value_g, rec.value_g_minus_e) == (base.value, plain.value)
                    assert (value, candidates) == (plain.value, plain.stats.nodes)
                    carried += closures
                    plain_checks += plain.stats.leak_checks
        assert carried < plain_checks

    def test_the_scan_offers_every_cut_of_a_disconnected_graph(self, monkeypatch):
        # G's solve keeps one full ring per component, 512 cuts here; the
        # kernel alone caps the ring each search of G - e starts from
        offered = []
        deletion_values = _core.deletion_values

        def spy(adj, ell, cuts):
            offered.append(cuts)
            return deletion_values(adj, ell, cuts)

        monkeypatch.setattr(_core, "deletion_values", spy)
        g = disjoint_union(petersen_gp(8), petersen_gp(8))
        records = list(edge_deletion_scan([g], 2))
        assert len(records) == g.num_edges() and len(offered) == 1
        assert len(offered[0]) == 512 and offered[0] == leaky_number(g, 2).cuts

    def test_parallel_scan_gives_the_serial_records(self):
        sample = atlas_graphs(6)[::7]
        for ell in (0, 1, 2):
            assert list(edge_deletion_scan(sample, ell, workers=2)) == list(edge_deletion_scan(sample, ell))

    def test_summary_collects_increases(self):
        summary = ScanSummary()
        assert not summary.window_violations()  # no record, no violation
        summary.add(ScanRecord(complete(3), (0, 1), 3, 2))
        summary.add(ScanRecord(complete(2), (0, 1), 2, 4))
        assert summary.min_diff == -2 and summary.max_diff == 1
        assert summary.increases == [(complete(3), (0, 1))]
        assert not summary.window_violations()
        # past 62 vertices a graph is named the way findings name it; an
        # edge at the top vertex comes back whole
        summary.add(ScanRecord(path(64), (62, 63), 3, 2))
        assert summary.increases[1] == (path(64), (62, 63))
        edges = ", ".join(f"[{v}, {v + 1}]" for v in range(63))
        assert summary.to_lines()[2:] == [
            "  Bw edge=(0,1)", f'  {{"n": 64, "edges": [{edges}]}} edge=(62,63)',
        ]
        summary.add(ScanRecord(complete(2), (0, 1), 5, 2))
        assert summary.window_violations()


class TestFamilyTable:
    def test_closed_forms(self):
        assert expected_value(FamilySpec("complete", (5,)), 3) == 4
        assert expected_value(FamilySpec("wheel", (6,)), 4) == 6
        assert expected_value(FamilySpec("grid", (4, 4)), 1) == 4
        assert expected_value(FamilySpec("grid", (5, 4)), 1) is None  # contested range
        assert expected_value(FamilySpec("petersen_gp", (7, 1)), 2) is None
        assert expected_value(FamilySpec("hypercube", (3,)), 3) == 8
        assert expected_value(FamilySpec("path", (1,)), 1) == 1

    def test_grid_all_blue_threshold_follows_max_degree(self):
        # interior vertices have degree 4, so budget 3 does not force n*m
        assert expected_value(FamilySpec("grid", (4, 4)), 3) is None
        assert expected_value(FamilySpec("grid", (4, 4)), 4) == 16
        assert expected_value(FamilySpec("grid", (4, 2)), 3) == 8  # no interior
        assert value(grid(3, 3), 3) == 8  # boundary suffices against 3 leaks
        assert value(grid(3, 3), 4) == 9

    def test_rows_match(self):
        rows = family_table([FamilySpec("wheel", (6,))], [0, 1, 2, 4])
        assert [(r.ell, r.computed, r.expected) for r in rows] == [
            (0, 3, 3),
            (1, 3, 3),
            (2, 4, 4),
            (4, 6, 6),
        ]
        assert all(r.match for r in rows)

    def test_tree_rows_use_degree_count(self):
        rows = family_table([FamilySpec("tree_from_pruefer", (3, 3))], [0, 1, 2])
        # star-ish tree on 4 vertices: center 3 has degree 3
        assert [(r.computed, r.expected) for r in rows] == [(1, 1), (3, 3), (3, 3)]

    def test_a_closed_form_is_the_spec_s_own(self):
        # the value comes from the graph the spec names, so no caller can
        # pair a spec with another graph: this spec is the star on 4 vertices
        spec = FamilySpec("tree_from_pruefer", (0, 0))
        assert expected_value(spec, 1) == value(generate(spec), 1) == 3
        with pytest.raises(TypeError):
            expected_value(spec, 1, path(4))

    def test_contested_grid_row_is_computed_only(self):
        rows = family_table([FamilySpec("grid", (5, 4))], [1])
        assert rows[0].expected is None and rows[0].match
        assert rows[0].computed == 4  # brute force settles the contested value


@pytest.mark.parametrize("call", [
    lambda workers: leaky_number(path(3), 1, workers=workers),
    lambda workers: list(edge_deletion_scan([path(3)], 1, workers)),
    lambda workers: family_table([FamilySpec("path", (3,))], [1], workers=workers),
    # checked where it enters, though no row reaches leaky_number
    lambda workers: family_table([], [1], workers=workers),
    lambda workers: family_table([FamilySpec("path", (3,))], [], workers=workers),
], ids=["leaky-number", "edge-deletion-scan", "family-table", "family-table-no-specs", "family-table-no-budgets"])
def test_workers_must_be_a_positive_int(call):
    # a bool, a float or a string is not read as a count, and no count
    # below 1 falls back to a serial run
    for workers in (True, False, 2.5, "2"):
        with pytest.raises(TypeError, match=f"^{re.escape(f'workers must be an int, got {workers!r}')}$"):
            call(workers)
    for workers in (0, -2):
        with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
            call(workers)
    call(1)

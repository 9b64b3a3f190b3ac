import random
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, strategies as st

from forceps import (
    AuditFailure,
    Graph,
    Rule,
    ScanRecord,
    VertexSet,
    edge_deletion_scan,
    expected_value,
    family_table,
    is_ell_leaky_forcing_set,
    leaky_number,
    monotonicity_audit,
    product_bound_check,
)
from forceps.families import (
    FamilySpec,
    complete,
    complete_bipartite,
    cycle,
    fig3_spider,
    grid,
    hypercube,
    path,
    petersen_gp,
    wheel,
)
from forceps.solve import ScanSummary, _pieces

from corpus import disjoint_union, random_graph
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
        assert value(g, 0) == 3  # triangle needs 2, isolated vertex 1

    def test_budget_clamped(self):
        assert value(complete(2), 99) == 2

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


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_match_oracle(self, seed):
        rng = random.Random(300 + seed)
        g = random_graph(rng, rng.randint(1, 5), 0.5)
        ell = rng.randint(0, 2)
        for rule in (Rule.psd, Rule.standard):
            assert value(g, ell, rule) == naive_leaky_number(g, ell, rule)[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_component_additivity(self, seed):
        rng = random.Random(900 + seed)
        a = random_graph(rng, rng.randint(1, 4), 0.6)
        b = random_graph(rng, rng.randint(1, 4), 0.6)
        both = disjoint_union(a, b)
        for ell in (0, 1, 2):
            assert value(both, ell) == value(a, ell) + value(b, ell)


class TestParallelSearch:
    def test_sharded_candidate_scan_matches_serial(self, monkeypatch):
        import concurrent.futures
        import multiprocessing

        import forceps.solve as solve_mod

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            opened = 0
            pieces = 0
            cancels = []

            def __init__(self, *args, **kwargs):
                RecordingPool.opened += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                RecordingPool.pieces += 1
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                RecordingPool.cancels.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        wheels = (wheel(7), wheel(8))
        serial = [leaky_number(g, 2) for g in wheels]
        for g, res in zip(wheels, serial):
            # the degree core is empty, and the witness lies past the first
            # piece of its size class at two workers
            k = res.value
            c, f = next(_pieces(0, (1 << g.n) - 1, k, -(-comb(g.n, k) // 8)))
            w = res.witness.mask
            assert not (w & c == c and w & ~(c | f) == 0)
        monkeypatch.setattr(solve_mod, "_PARALLEL_MIN_CANDIDATES", 16)
        # solve looks the pool class up on concurrent.futures at each use
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for g, res in zip(wheels, serial):
            RecordingPool.opened = 0
            RecordingPool.pieces = 0
            RecordingPool.cancels = []
            sharded = leaky_number(g, 2, workers=2)
            assert RecordingPool.pieces > 0
            # every sharded size class of the solve shares one pool
            assert RecordingPool.opened == 1
            assert (sharded.value, list(sharded.witness)) == (res.value, list(res.witness))
            # a cut-skipped candidate still counts, so the pieces up to the
            # hit enumerate what the serial scan does
            assert sharded.stats.nodes == res.stats.nodes
            # the hit drops the queued pieces, and no worker outlives the call
            assert RecordingPool.cancels.count(True) == 1
            assert not multiprocessing.active_children()

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
        with pytest.raises(ValueError):
            monotonicity_audit(path(3), 5)

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


class TestProductBound:
    def test_k2_square(self):
        assert product_bound_check(complete(2), complete(2), 1) == (2, 4, True)

    def test_p3_k2_leak_free(self):
        lhs, rhs, holds = product_bound_check(path(3), complete(2), 0)
        assert holds and lhs == 2 and rhs == 2

    def test_triangle_prism(self):
        lhs, rhs, holds = product_bound_check(cycle(3), complete(2), 1)
        assert (lhs, holds) == (3, True)
        assert rhs == min(2 * value(cycle(3), 1), 3 * value(complete(2), 1)) == 4


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

    def test_summary_collects_increases(self):
        summary = ScanSummary()
        summary.add(ScanRecord("Bw", (0, 1), 3, 2))
        summary.add(ScanRecord("A_", (0, 1), 2, 4))
        assert summary.min_diff == -2 and summary.max_diff == 1
        assert summary.increases == [("Bw", (0, 1))]
        assert not summary.window_violations()
        summary.add(ScanRecord("A_", (0, 1), 5, 2))
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

    def test_contested_grid_row_is_computed_only(self):
        rows = family_table([FamilySpec("grid", (5, 4))], [1])
        assert rows[0].expected is None and rows[0].match
        assert rows[0].computed == 4  # brute force settles the contested value

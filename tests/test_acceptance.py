"""Acceptance suite.

Each test implements one release criterion and prints a PASS line when it
holds.  All comparisons are exact integer equality; all sweeps are
exhaustive at their stated orders (the small-graph corpus is the
Read-Wilson atlas, one representative per isomorphism class, which decides
these isomorphism-invariant properties for every graph of that order).
"""

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from forceps import (
    FamilySpec,
    Rule,
    VertexSet,
    distinct_forcers,
    family_table,
    fort_from_failure,
    from_graph6,
    hitting_number,
    is_ell_leaky_forcing_set,
    leaky_number,
    minimal_forts,
    monotonicity_audit,
    one_leaky_criterion,
    possible_forces,
    to_graph6,
)
from forceps import _core
from forceps.families import generate, petersen_gp
from forceps.forcing import ColoringState, force_candidates
from forceps.solve import ScanSummary, default_suite, edge_deletion_scan

from corpus import atlas_graphs, random_connected_graph, random_graph
from oracles import (
    async_closure_mask,
    naive_is_ell_leaky,
    naive_leaky_number,
    naive_possible_forces,
)


def _pass(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


@lru_cache(maxsize=None)
def _suite_rows():
    rows = []
    for spec, ells in default_suite():
        rows.extend(family_table([spec], ells))
    return rows


def _rows_for(kinds):
    return [r for r in _suite_rows() if r.family.split(":")[0] in kinds]


# -------------------------------------------------------------------- 1


def test_c1_family_tables_reproduce_closed_forms():
    rows = _rows_for({
        "path", "cycle", "complete", "wheel", "complete_bipartite", "star",
        "tree_from_pruefer", "fig3_spider",
    })
    checked = [r for r in rows if r.expected is not None]
    mismatches = [r for r in checked if not r.match]
    assert not mismatches, f"closed-form mismatches: {mismatches[:10]}"
    # sanity on coverage: every labeled tree on 2..7 vertices at 4 budgets,
    # plus the paper-range path/cycle/complete/wheel/bipartite rows
    trees = sum(n ** (n - 2) for n in range(2, 8))
    assert len([r for r in rows if r.family.startswith("tree")]) == 4 * trees
    assert len(checked) >= 4 * trees + 200
    _pass(f"C1 family tables ({len(checked)} closed-form rows, exact match)")


# -------------------------------------------------------------------- 2


def test_c2_product_families_reproduce_values():
    rows = {(r.family, r.ell): r.computed for r in _suite_rows()}
    # hypercubes: dimension 3 for every budget, dimension 4 up to budget 3
    for ell in range(9):
        assert rows[("hypercube:3", ell)] == (4 if ell <= 2 else 8)
    for ell in range(4):
        assert rows[("hypercube:4", ell)] == 8
    # prisms: known values for n <= 6, budgets <= 3
    for n in range(3, 7):
        for ell in (0, 1):
            assert rows[(f"petersen_gp:{n}:1", ell)] == (3 if n == 3 else 4)
        if n >= 4:
            assert rows[(f"petersen_gp:{n}:1", 2)] == 4
        assert rows[(f"petersen_gp:{n}:1", 3)] == 2 * n
    # grid: diagonal construction value at one leak
    assert rows[("grid:4:4", 1)] == 4
    # explicit size-6 construction on the 7-prism survives two leaks
    gp7 = petersen_gp(7)
    construction = VertexSet(14, [0, 2, 4, 7, 9, 11])
    assert len(construction) == 6
    assert is_ell_leaky_forcing_set(gp7, construction, 2).ok
    _pass("C2 product families (hypercubes, prisms, grids, 7-prism construction)")


# -------------------------------------------------------------------- 3


def test_c3_edge_deletion_window_order_seven():
    # externally supplied stream: the atlas encoded by networkx's codec
    lines = []
    for g in atlas_graphs(7):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        lines.append(nx.to_graph6_bytes(nxg, header=False).decode().strip())
    assert len(lines) == 996
    graphs = [from_graph6(line) for line in lines]
    summary = ScanSummary()
    for rec in edge_deletion_scan(graphs, ell=1):
        summary.add(rec)
        assert -2 <= rec.diff <= 1, f"window violated: {rec}"
    assert not summary.window_violations()
    _pass(
        f"C3 edge-deletion window ({summary.records} deletions over 996 graphs, "
        f"diffs in [{summary.min_diff}, {summary.max_diff}], "
        f"{len(summary.increases)} attained +1)"
    )


# -------------------------------------------------------------------- 4


def test_c4_two_forcer_criterion_equals_brute_force():
    cases = 0
    for g in atlas_graphs(6):
        for mask in range(1 << g.n):
            blue = VertexSet.from_mask(g.n, mask)
            fast = one_leaky_criterion(g, blue)
            brute, _ = naive_is_ell_leaky(g, frozenset(blue), 1, Rule.psd)
            assert fast == brute, (to_graph6(g), list(blue))
            cases += 1
    _pass(f"C4 one-leak criterion equivalence ({cases} blue sets, zero mismatches)")


# -------------------------------------------------------------------- 5


def test_c5_fort_hitting_equals_solver():
    findings = []
    cases = 0
    for g in atlas_graphs(6):
        for ell in (0, 1, 2):
            hit, _ = hitting_number(g, ell)
            val = leaky_number(g, ell).value
            cases += 1
            if hit != val:
                findings.append({
                    "kind": "fort-hitting-mismatch", "graph6": to_graph6(g),
                    "ell": ell, "hitting": hit, "number": val,
                })
    assert not findings, f"reportable findings: {findings}"
    _pass(f"C5 fort-hitting equivalence ({cases} graph/budget pairs)")


# -------------------------------------------------------------------- 6
# structural property suites, exhaustive at the stated orders


def test_c6a_closure_uniqueness_under_reordering():
    cases = 0
    for g in atlas_graphs(6, connected=False):
        for blue in range(1 << g.n):
            for leaks in range(1 << g.n):
                for std in (False, True):
                    want = _core.closure_mask(g.adj, blue, leaks, std)
                    got = async_closure_mask(g, blue, leaks, std, cases * 2 + std)
                    assert got == want, (to_graph6(g), blue, leaks, std)
                cases += 1
    _pass(f"C6a closure uniqueness ({cases} states, random application order)")


def test_c6b_blue_monotone_and_leak_antitone():
    for g in atlas_graphs(5, connected=False):
        full = (1 << g.n) - 1
        for blue in range(1 << g.n):
            for leaks in range(1 << g.n):
                for std in (False, True):
                    base = _core.closure_mask(g.adj, blue, leaks, std)
                    # single additions/removals generate the full orders
                    for v in range(g.n):
                        bit = 1 << v
                        if not blue & bit:
                            grown = _core.closure_mask(g.adj, blue | bit, leaks, std)
                            assert base & ~grown == 0
                        if leaks & bit:
                            eased = _core.closure_mask(g.adj, blue, leaks & ~bit, std)
                            assert base & ~eased == 0
                    assert base & ~full == 0
    _pass("C6b closure monotone in blue, antitone in leaks (order <= 5)")


def test_c6c_standard_closure_within_psd_closure():
    for g in atlas_graphs(5, connected=False):
        for blue in range(1 << g.n):
            for leaks in range(1 << g.n):
                std = _core.closure_mask(g.adj, blue, leaks, True)
                psd = _core.closure_mask(g.adj, blue, leaks, False)
                assert std & ~psd == 0
    _pass("C6c rule dominance (order <= 5)")


def test_c6d_single_component_rules_agree():
    cases = 0
    for g in atlas_graphs(5):
        for mask in range(1 << g.n):
            blue = VertexSet.from_mask(g.n, mask)
            white = blue.complement()
            if not white:
                continue
            sub = [v for v in white]
            reach = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                x = frontier.pop()
                for y in g.neighbors(x):
                    if y in white and y not in reach:
                        reach.add(y)
                        frontier.append(y)
            if reach != set(sub):
                continue
            state = ColoringState(blue, VertexSet(g.n))
            assert force_candidates(g, state, Rule.psd) == \
                force_candidates(g, state, Rule.standard)
            cases += 1
    _pass(f"C6d single-component rule agreement ({cases} states)")


def test_c6e_leak_budget_chain_and_degree_characterizations():
    for g in atlas_graphs(6):
        values = monotonicity_audit(g, g.n)  # raises AuditFailure on violation
        assert len(values) == g.n + 1
        assert values[-1] == g.n  # with every vertex leaked, only V forces
    _pass("C6e budget monotonicity, rule dominance, degree characterization (order <= 6)")


def test_c6f_low_degree_vertices_forced_into_every_set():
    for g in atlas_graphs(5):
        for ell in (0, 1, 2):
            core = {v for v in range(g.n) if g.degree(v) <= ell}
            for mask in range(1 << g.n):
                blue = VertexSet.from_mask(g.n, mask)
                if is_ell_leaky_forcing_set(g, blue, ell).ok:
                    assert core <= set(blue)
    _pass("C6f degree-ell vertices belong to every verified set (order <= 5)")


def test_c6g_verified_sets_have_enough_distinct_forcers():
    for g in atlas_graphs(6):
        for ell in (0, 1, 2):
            for mask in range(1 << g.n):
                blue = VertexSet.from_mask(g.n, mask)
                if not is_ell_leaky_forcing_set(g, blue, ell).ok:
                    continue
                for v in range(g.n):
                    if v not in blue:
                        assert distinct_forcers(g, blue, v) >= ell + 1
    _pass("C6g forcer-count necessity at budgets <= 2 (order <= 6)")


def test_c6h_every_stalled_closure_leaves_a_fort():
    cases = 0
    full_checked = 0
    for g in atlas_graphs(5):
        everything = (1 << g.n) - 1
        for mask in range(1 << g.n):
            blue = VertexSet.from_mask(g.n, mask)
            for size in (0, 1, 2):
                for combo in combinations(range(g.n), size):
                    leaks = VertexSet(g.n, combo)
                    final = _core.closure_mask(g.adj, blue.mask, leaks.mask, False)
                    cases += 1
                    if final == everything:
                        continue
                    fort_from_failure(g, blue, leaks)  # raises on certification failure
                    full_checked += 1
    _pass(f"C6h stalled-closure fort extraction ({full_checked} stalls certified over {cases} states)")


def test_c6i_possible_forces_match_exhaustive_chronologies():
    for g in atlas_graphs(5):
        for mask in range(1 << g.n):
            blue = VertexSet.from_mask(g.n, mask)
            fast = {(f.source, f.target) for f in possible_forces(g, blue)}
            assert fast == naive_possible_forces(g, frozenset(blue))
    rng = random.Random(0xACCE)
    for _ in range(200):
        g = random_connected_graph(rng, 6)
        blue = VertexSet.from_mask(6, rng.getrandbits(6))
        fast = {(f.source, f.target) for f in possible_forces(g, blue)}
        assert fast == naive_possible_forces(g, frozenset(blue))
    _pass("C6i realizable forces vs exhaustive chronology oracle")


def test_c6j_minimal_fort_families_are_sound_and_hit_by_all_sets():
    for g in atlas_graphs(6):
        for ell in (0, 1, 2):
            family = [f.mask for f in minimal_forts(g, ell)]
            for mask in range(1, 1 << g.n):
                if _core.is_fort_mask(g.adj, mask, ell):
                    assert any(m & mask == m for m in family), "fort missing a minimal core"
            for mask in range(1 << g.n):
                blue = VertexSet.from_mask(g.n, mask)
                if is_ell_leaky_forcing_set(g, blue, ell).ok:
                    assert all(m & mask for m in family), "verified set missed a fort"
    _pass("C6j minimal fort soundness and fort-intersection necessity (order <= 6)")


def test_c6k_fort_predicate_relaxes_with_budget():
    for g in atlas_graphs(5, connected=False):
        for mask in range(1, 1 << g.n):
            for ell in (0, 1):
                if _core.is_fort_mask(g.adj, mask, ell):
                    assert _core.is_fort_mask(g.adj, mask, ell + 1)
    _pass("C6k fort predicate monotone in the leak budget (order <= 5)")


def test_c6l_solver_values_are_optimal_by_exhaustion():
    for g in atlas_graphs(5):
        for ell in (0, 1, 2):
            for rule in (Rule.psd, Rule.standard):
                got = leaky_number(g, ell, rule)
                want, _ = naive_leaky_number(g, ell, rule)
                assert got.value == want
    # order six: both rules, exhaustively certified one size below
    for g in atlas_graphs(6, min_n=6):
        for ell in (0, 1, 2):
            for rule in (Rule.psd, Rule.standard):
                res = leaky_number(g, ell, rule)
                assert is_ell_leaky_forcing_set(g, res.witness, ell, rule).ok
                for combo in combinations(range(g.n), res.value - 1):
                    assert not is_ell_leaky_forcing_set(g, VertexSet(g.n, combo), ell, rule).ok
    _pass("C6l solver optimality vs exhaustive oracle (orders <= 6)")


# -------------------------------------------------------------------- 7


def test_c7_graph6_round_trip():
    for text, n, edges in (("A_", 2, 1), ("Bw", 3, 3), ("D??", 5, 0)):
        g = from_graph6(text)
        assert (g.n, g.num_edges()) == (n, edges)
        assert to_graph6(g) == text
    rng = random.Random(0x67)
    for i in range(10_000):
        g = random_graph(rng, rng.randint(0, 16), rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert from_graph6(to_graph6(g)) == g
        if i < 1_000:  # independent codec agreement
            nxg = nx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            assert nx.to_graph6_bytes(nxg, header=False).decode().strip() == to_graph6(g)
    _pass("C7 graph6 round trip (10000 random graphs + fixed vectors)")

"""Differential tests: the compiled kernel must agree with the pure Python
twin bit for bit, including work counters.

The extension is compiled here from the in-tree ``_ckernel.c`` into a
temporary directory, so a stale in-place build never stands in for the
source under test."""

import importlib.util
import inspect
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from collections import deque
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from forceps import Graph, Rule, VertexSet, _core, from_graph6, is_ell_leaky_forcing_set, leaky_number
from forceps._core import _pykernel
from forceps.families import complete, cycle, grid, hypercube, path, petersen_gp, tree_from_pruefer, wheel
from forceps.graphs import delete_edge
from forceps.solve import _pieces

from corpus import atlas_graphs, disjoint_union, interleaved_union, random_graph
from oracles import (
    async_closure_mask, naive_hitting_number, naive_is_connected, naive_is_ell_leaky, naive_is_fort,
    naive_is_standard_fort, naive_minimal_forts, naive_possible_forces, reference_leak_scan,
)

SOURCE = Path(__file__).resolve().parents[1] / "src" / "forceps" / "_core" / "_ckernel.c"


@pytest.fixture(scope="module")
def ck(tmp_path_factory):
    ld = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    include = sysconfig.get_paths()["include"]
    if not ld or shutil.which(ld[0]) is None:
        pytest.skip("no C compiler")
    if not (Path(include) / "Python.h").is_file():
        pytest.skip("no Python.h")
    out = tmp_path_factory.mktemp("ckernel") / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = ld + shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    cmd += ["-O2", "-Wall", "-I", include, str(SOURCE), "-o", str(out)]
    build = subprocess.run(cmd, capture_output=True, text=True)
    log = build.stdout + build.stderr
    assert build.returncode == 0, log
    assert "warning" not in log.lower(), log
    spec = importlib.util.spec_from_file_location("_ckernel", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "c"
    assert module.KERNEL_VERSION == _pykernel.KERNEL_VERSION
    return module


def _instances(count, max_n=8):
    rng = random.Random(0xF0)
    for _ in range(count):
        n = rng.randint(0, max_n)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        full = (1 << n) - 1
        blue = rng.randint(0, full) if n else 0
        leaks = rng.randint(0, full) if n else 0
        yield g, blue, leaks, rng


def _top_forcer_instances(count):
    """64-vertex graphs and blue sets whose leak-free closure has vertex 63
    as a forcer under both rules: 63 sees one white vertex, the target, and
    every other blue neighbor of the target loses that edge or gains a
    second white neighbor.  The white vertices form a path, so they stay in
    one component under the psd rule."""
    rng = random.Random(0x3F)
    for _ in range(count):
        g = random_graph(rng, 64, rng.choice([0.05, 0.1, 0.2, 0.4]))
        white = rng.sample(range(63), rng.randint(2, 8))
        target = white[0]
        blue = (1 << 64) - 1 & ~sum(1 << v for v in white)
        edges = {(u, v) for u, v in g.edges() if not (v == 63 and u in white)}
        edges |= {(min(a, b), max(a, b)) for a, b in zip(white, white[1:])}
        edges.add((target, 63))
        for u in range(63):
            edge = (min(u, target), max(u, target))
            if blue >> u & 1 and edge in edges:
                if rng.random() < 0.3:
                    edges.discard(edge)
                else:
                    w = rng.choice(white[1:])
                    edges.add((min(u, w), max(u, w)))
        g = Graph.from_edges(64, sorted(edges))
        for std in (False, True):
            assert _pykernel._closure(64, g.adj, blue, 0, std)[1] >> 63 & 1
        yield g, blue, rng


def test_async_closures_agree_and_match_canonical():
    for g, blue, leaks, rng in _instances(300):
        seed = rng.getrandbits(64)
        for std in (False, True):
            assert async_closure_mask(g, blue, leaks, std, seed) == \
                _pykernel.closure_mask(g.adj, blue, leaks, std)


def _naive_round(g, blue, leaks, standard, barred):
    """(targets, forcers) of one round, source by source: a non-leaked blue
    vertex forces a white vertex that is its only white neighbor (standard)
    or its only one in that vertex's white component (psd); each target
    outside ``barred`` keeps its smallest forcer."""
    white = {v for v in range(g.n) if not blue >> v & 1}

    def part(v):
        if standard:
            return white
        seen, stack = {v}, [v]
        while stack:
            for w in set(g.neighbors(stack.pop())) & white - seen:
                seen.add(w)
                stack.append(w)
        return seen

    first = {}
    for u in range(g.n):
        if blue >> u & 1 and not leaks >> u & 1:
            for v in set(g.neighbors(u)) & white:
                if not barred >> v & 1 and part(v) & set(g.neighbors(u)) == {v}:
                    first.setdefault(v, u)
    return sum(1 << v for v in first), sum(1 << u for u in set(first.values()))


def test_round_matches_a_per_source_check():
    rng = random.Random(0x20D)
    for g in atlas_graphs(6, connected=False):
        full = (1 << g.n) - 1
        for _ in range(6):
            blue, leaks = rng.getrandbits(g.n), rng.getrandbits(g.n)
            barred = full & ~blue & rng.getrandbits(g.n) & rng.getrandbits(g.n)
            for std in (False, True):
                assert _pykernel._round(g.adj, blue, leaks, std, full & ~blue, barred) == \
                    _naive_round(g, blue, leaks, std, barred)


def test_realizable_forcers_agree(ck):
    # every graph on at most 7 vertices, disconnected ones included, with
    # seeded blue sets and target sets
    rng = random.Random(0xF0C)
    for g in atlas_graphs(7, connected=False):
        full = (1 << g.n) - 1
        for _ in range(4):
            blue = rng.getrandbits(g.n)
            for targets in (full, rng.getrandbits(g.n)):
                assert _pykernel.realizable_forcers(g.adj, blue, targets) == \
                    ck.realizable_forcers(g.adj, blue, targets)
    # the word boundary: vertex 63 forces in the leak-free closure, so it is
    # a realizable forcer
    for g, blue, rng in _top_forcer_instances(12):
        masks = _pykernel.realizable_forcers(g.adj, blue, (1 << 64) - 1)
        assert masks == ck.realizable_forcers(g.adj, blue, (1 << 64) - 1)
        assert any(m >> 63 & 1 for m in masks)
        targets = rng.getrandbits(64)
        assert _pykernel.realizable_forcers(g.adj, blue, targets) == \
            ck.realizable_forcers(g.adj, blue, targets)
    # and vertex 63 white, as a target
    rng = random.Random(0x63)
    for _ in range(40):
        g = random_graph(rng, 64, rng.choice([0.05, 0.1, 0.2]))
        blue = rng.getrandbits(64) & rng.getrandbits(64) & ~(1 << 63)
        for targets in ((1 << 64) - 1, 1 << 63, rng.getrandbits(64) | 1 << 63):
            assert _pykernel.realizable_forcers(g.adj, blue, targets) == \
                ck.realizable_forcers(g.adj, blue, targets)


def test_realizable_forcers_match_the_oracle(ck):
    # the oracle searches every chronology from the blue set; every graph on
    # at most 6 vertices, disconnected ones included, with a sample of blue
    # sets, asked for every white vertex at once and for one at a time
    rng = random.Random(0xF0)
    for g in atlas_graphs(6, connected=False):
        full = (1 << g.n) - 1
        for blue in rng.sample(range(full + 1), min(full + 1, 12)):
            want = [0] * g.n
            for u, v in naive_possible_forces(g, frozenset(v for v in range(g.n) if blue >> v & 1)):
                want[v] |= 1 << u
            for k in (_pykernel, ck):
                assert k.realizable_forcers(g.adj, blue, full) == tuple(want)
                for v in range(g.n):
                    masks = k.realizable_forcers(g.adj, blue, 1 << v)
                    assert masks == tuple(want[v] if u == v else 0 for u in range(g.n))


def test_leak_scans_agree(ck):
    for g, blue, _, rng in _instances(250, max_n=7):
        ell = rng.randint(0, 3)
        for std in (False, True):
            assert _pykernel.first_failing_leaks(g.adj, blue, ell, std) == \
                ck.first_failing_leaks(g.adj, blue, ell, std)
    # the word boundary: vertex 63 forces, so chains and placements use bit 63
    for g, blue, _ in _top_forcer_instances(12):
        for ell in range(4):
            for std in (False, True):
                assert _pykernel.first_failing_leaks(g.adj, blue, ell, std) == \
                    ck.first_failing_leaks(g.adj, blue, ell, std)


def test_leak_scans_match_the_oracle(ck):
    # the certified scan names the placement an exhaustive scan fails first:
    # every graph on at most 6 vertices, disconnected ones included, with a
    # sample of blue sets
    rng = random.Random(0x1EA)
    for g in atlas_graphs(6, connected=False):
        full = (1 << g.n) - 1
        for blue in rng.sample(range(full + 1), min(full + 1, 12)):
            blue_set = frozenset(v for v in range(g.n) if blue >> v & 1)
            for ell in range(4):
                for rule in (Rule.psd, Rule.standard):
                    ok, combo = naive_is_ell_leaky(g, blue_set, ell, rule)
                    want = -1 if ok else sum(1 << v for v in combo)
                    for k in (_pykernel, ck):
                        assert k.first_failing_leaks(g.adj, blue, ell, rule is Rule.standard)[0] == want


def test_resumed_closures_change_no_scan(ck):
    # each chain node's closure resumes from the rounds it shares with the
    # node before; leaks and closures run stay those of closures run from
    # the start, on both twins.  Half the blue sets are a solve's witness,
    # which every placement certifies, the others random
    rng = random.Random(0x5CA)
    certified = closures = 0
    for i in range(120):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.5]))
        for ell in (1, 2, 3):
            for rule in (Rule.psd, Rule.standard):
                std = rule is Rule.standard
                if i % 2:
                    blue = rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n)
                else:
                    blue = leaky_number(g, ell, rule).witness.mask
                want = reference_leak_scan(g.adj, blue, ell, std)
                assert _pykernel.first_failing_leaks(g.adj, blue, ell, std) == want
                assert ck.first_failing_leaks(g.adj, blue, ell, std) == want
                certified += want[0] == -1
                closures += want[1]
    assert certified > 300 and closures > 3000


def test_certified_scan_skips_closures(ck):
    # Q3's even set survives every placement of two leaks under the psd rule,
    # and most placements are certified without a closure of their own
    q3 = hypercube(3)
    even = sum(1 << v for v in range(8) if bin(v).count("1") % 2 == 0)
    for k in (_pykernel, ck):
        leaks, closures = k.first_failing_leaks(q3.adj, even, 2, False)
        assert leaks == -1
        assert closures < 1 + comb(q3.n, 2)


def test_searches_agree(ck, monkeypatch):
    for g, blue, _, rng in _instances(150, max_n=7):
        if g.n == 0:
            continue
        core = blue & rng.getrandbits(g.n)
        # free may hold core vertices, which the search ignores
        free = rng.choice([(1 << g.n) - 1 & ~core, rng.getrandbits(g.n)])
        # a range may start below |core|, end past |core| + |free|, even
        # past the range of a C int, or be empty
        lo = rng.choice([-1 << 70, rng.randint(-1, g.n)])
        hi = rng.choice([lo - 1, rng.randint(max(lo, -1), g.n + 2), 1 << 70])
        ell = rng.randint(0, 2)
        for std in (False, True):
            assert _pykernel.search_min_superset(g.adj, core, free, lo, hi, ell, std) == \
                ck.search_min_superset(g.adj, core, free, lo, hi, ell, std)
    # empty ranges past the range of a C int, with a nonempty core: no
    # bound arithmetic overflows into a range that runs
    huge = 1 << 70
    for lo, hi in ((-huge, -huge - 1), (huge, huge - 1), (-huge, -2), (3, -huge)):
        for kern in (_pykernel, ck):
            assert kern.search_min_superset(cycle(5).adj, 0b101, 0b11010, lo, hi, 1, False) == (-1, 0, 0, ())
    # 64 vertices with vertex 63 forcing; the core drops a few blue vertices
    for g, blue, rng in _top_forcer_instances(8):
        core = blue & ~sum(1 << v for v in rng.sample(range(63), 3))
        hi = core.bit_count() + 2
        for ell in range(4):
            lo = hi - rng.randint(0, 2)
            free = rng.choice([(1 << 64) - 1, rng.getrandbits(64) | 1 << 63])
            for std in (False, True):
                assert _pykernel.search_min_superset(g.adj, core, free, lo, hi, ell, std) == \
                    ck.search_min_superset(g.adj, core, free, lo, hi, ell, std)
    # disjoint unions whose core covers one part: leaks go only on the
    # components with a vertex outside the core, at every budget, and the
    # budget may exceed them
    rng = random.Random(0xDEAD)
    for _ in range(60):
        a = random_graph(rng, rng.randint(1, 5), 0.5)
        b = random_graph(rng, rng.randint(1, 5), 0.5)
        g, a_to, b_to = interleaved_union(a, b)
        part = sum(1 << v for v in a_to)
        core = part | rng.getrandbits(g.n) & ~part & rng.getrandbits(g.n)
        free = rng.choice([(1 << g.n) - 1, rng.getrandbits(g.n)])
        lo = rng.randint(core.bit_count(), g.n)
        hi = rng.randint(lo, g.n)
        for ell in (0, 1, 2, 3, 6):
            for std in (False, True):
                assert _pykernel.search_min_superset(g.adj, core, free, lo, hi, ell, std) == \
                    ck.search_min_superset(g.adj, core, free, lo, hi, ell, std)
    # 64 vertices in two groups with no edge between them, the dead one
    # inside the core; vertex 63 lies in the dead group, then in the live one
    for top_live in (False, True):
        rng = random.Random(0x640 + top_live)
        for _ in range(6):
            live = sum(1 << v for v in rng.sample(range(63), 9)) | top_live << 63
            live |= 0 if top_live else 1 << rng.choice([v for v in range(63) if not live >> v & 1])
            inside = [live >> u & 1 for u in range(64)]
            g = Graph.from_edges(64, [(u, v) for u in range(64) for v in range(u + 1, 64)
                                      if inside[u] == inside[v] and rng.random() < 0.4])
            core = (1 << 64) - 1 & ~live | rng.getrandbits(64) & live & rng.getrandbits(64)
            for ell in range(4):
                lo = core.bit_count() + rng.randint(0, 2)
                hi = core.bit_count() + 2
                for std in (False, True):
                    found = _pykernel.search_min_superset(g.adj, core, live, lo, hi, ell, std)
                    assert found == ck.search_min_superset(g.adj, core, live, lo, hi, ell, std)
                    # a hit forces the graph under placements over every vertex
                    if found[0] >= 0:
                        assert ck.first_failing_leaks(g.adj, found[0], ell, std)[0] == -1
    # graphs of 10 to 16 vertices, searched in one call from the degree
    # core, or from ell + 1 vertices, up, as a solve does; most failed
    # candidates' cuts shrink to a smaller fort there
    small_fort = _pykernel._small_fort
    shrunk = []

    def recording(adj, cut, ell, standard):
        fort = small_fort(adj, cut, ell, standard)
        shrunk.append(fort != cut)
        return fort

    monkeypatch.setattr(_pykernel, "_small_fort", recording)
    rng = random.Random(0x1016)
    for _ in range(10):
        n = rng.randint(10, 16)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.4]))
        for ell in (1, 2, 3):
            core = sum(1 << v for v in range(n) if g.adj[v].bit_count() <= ell)
            lo = max(core.bit_count(), ell + 1)
            for std in (False, True):
                found = _pykernel.search_min_superset(g.adj, core, (1 << n) - 1, lo, n, ell, std)
                assert found[0] >= 0
                assert found == ck.search_min_superset(g.adj, core, (1 << n) - 1, lo, n, ell, std)
    assert 2 * sum(shrunk) > len(shrunk)


def test_sharded_search_agrees_with_full_scan(ck):
    # each piece starts with no cuts, yet skipped candidates still count, so
    # the pieces' candidate counts up to the first hit add up to the full
    # scan's, and the first piece with a hit holds the full scan's witness
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 8, 0.4)
        core = 1 << rng.randrange(8)
        free = 0xFF & ~core
        for kern in (_pykernel, ck):
            for ell in (0, 1, 2):
                for std in (False, True):
                    full = kern.search_min_superset(g.adj, core, free, 4, 4, ell, std)
                    for size in (1, 5, 20):
                        found, candidates = -1, 0
                        for c, f in _pieces(core, free, 3, size):
                            piece, cand, _, _ = kern.search_min_superset(g.adj, c, f, 4, 4, ell, std)
                            candidates += cand
                            if piece >= 0:
                                found = piece
                                break
                        assert (found, candidates) == full[:2]


def test_a_range_call_chains_its_classes(ck):
    # one call over the classes lo..hi finds what single-class calls find,
    # class by class up to the first hit: the same set after the same
    # candidates, since only the closures depend on the cuts a call keeps.
    # The call keeps its cuts across its classes, so it runs fewer closures
    rng = random.Random(0xC1A55)
    chained_closures = whole_closures = 0
    for _ in range(40):
        n = rng.randint(6, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.5]))
        ell = rng.randint(0, 3)
        core = sum(1 << v for v in range(n) if g.adj[v].bit_count() <= ell)
        free = rng.choice([(1 << n) - 1, rng.getrandbits(n)])
        lo = rng.randint(0, n)
        hi = rng.randint(lo, n)
        for std in (False, True):
            for kern in (_pykernel, ck):
                found, candidates = -1, 0
                for k in range(lo, hi + 1):
                    found, cand, clos, _ = kern.search_min_superset(g.adj, core, free, k, k, ell, std)
                    candidates += cand
                    chained_closures += clos
                    if found >= 0:
                        break
                whole = kern.search_min_superset(g.adj, core, free, lo, hi, ell, std)
                assert whole[:2] == (found, candidates)
                whole_closures += whole[2]
    assert whole_closures < chained_closures


def test_small_forts_lie_in_their_cuts_and_are_forts_of_the_rule():
    # a closure stalled under at most ell leaks leaves a white remainder
    # whose threats are among the leaks; the search keeps a smaller fort of
    # the rule inside it: a connected psd fort, or a standard fort judged on
    # the whole set
    rng = random.Random(0x5F0)
    shrunk = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.5]))
        full = (1 << n) - 1
        for ell in range(4):
            blue = rng.getrandbits(n)
            leaks = sum(1 << v for v in rng.sample(range(n), min(ell, n)))
            for std in (False, True):
                cut = full & ~_pykernel.closure_mask(g.adj, blue, leaks, std)
                if not cut:
                    continue
                fort = _pykernel._small_fort(g.adj, cut, ell, std)
                assert fort and fort & ~cut == 0
                shrunk += fort != cut
                if std:
                    assert naive_is_standard_fort(g, {v for v in range(n) if fort >> v & 1}, ell)
                else:
                    assert _pykernel.is_fort_mask(g.adj, fort, ell)
                    assert len(_pykernel.components(g.adj, fort)) == 1
    assert shrunk > 0


def test_sets_missing_a_kept_cut_fail():
    # the cut the search keeps for a failing candidate: the small fort inside
    # the white remainder of its leak scan.  A set missing it lies inside the
    # largest one, and a smaller blue set never forces more, so that set
    # failing shows that every set missing the cut fails
    rng = random.Random(0xA71)
    for g in atlas_graphs(7):
        full = (1 << g.n) - 1
        for ell in range(4):
            budget = min(ell, g.n)
            for rule in (Rule.psd, Rule.standard):
                std = rule is Rule.standard
                for blue in rng.sample(range(full + 1), min(full + 1, 4)):
                    _, reach, _ = _pykernel._scan(g.n, g.adj, blue, full, budget, std)
                    if reach == full:
                        continue
                    fort = _pykernel._small_fort(g.adj, full & ~reach, budget, std)
                    rest = VertexSet.from_mask(g.n, full & ~fort)
                    assert not is_ell_leaky_forcing_set(g, rest, ell, rule).ok


def test_every_ring_cut_is_a_fort_of_the_rule(ck):
    # a failed candidate leaves up to two cuts, the shrink's and its
    # mirror's: every cut a search returns is a fort of its rule with at
    # most ell threats, connected under the psd rule, and none repeats
    rng = random.Random(0xF02)
    cuts = 0
    for _ in range(24):
        n = rng.randint(8, 14)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.4]))
        for ell in range(4):
            core = _degree_core(g, ell)
            lo = max(core.bit_count(), ell + 1)
            for std in (False, True):
                found = _pykernel.search_min_superset(g.adj, core, (1 << n) - 1, lo, n, ell, std)
                assert found == ck.search_min_superset(g.adj, core, (1 << n) - 1, lo, n, ell, std)
                ring = found[3]
                assert len(set(ring)) == len(ring)
                for cut in ring:
                    fort = {v for v in range(n) if cut >> v & 1}
                    if std:
                        assert naive_is_standard_fort(g, fort, ell)
                    else:
                        assert naive_is_fort(g, fort, ell) and naive_is_connected(g, fort)
                cuts += len(ring)
    assert cuts > 1000


# searches whose ring passes 64 cuts, from the degree core up as a solve
# searches: (graph, ell, rule)
FILLED_RINGS = (
    (grid(5, 5), 2, Rule.psd),
    (hypercube(4), 2, Rule.standard),
    (petersen_gp(8), 2, Rule.psd),
)


def test_twins_agree_once_the_ring_passes_64_cuts(ck):
    for g, ell, rule in FILLED_RINGS:
        core = _degree_core(g, ell)
        args = (g.adj, core, (1 << g.n) - 1, max(core.bit_count(), ell + 1), g.n, ell, rule is Rule.standard)
        found = _pykernel.search_min_superset(*args)
        assert found == ck.search_min_superset(*args) and len(found[3]) > 64


# perfbench's solve anchors: weaker cuts would run more closures
ANCHOR_LEAK_CHECKS = {
    (hypercube(4), 2): {Rule.psd: 1373, Rule.standard: 102},
    (grid(4, 4), 1): {Rule.psd: 69, Rule.standard: 35},
}

# psd searches from the degree core up that keep more than 256 cuts, so the
# ring drops cuts: (graph, ell) -> (witness, candidates, closures).  A search
# that still prunes with a cut the ring has dropped runs 540 closures on the
# second graph
EVICTING_SEARCHES = {
    (hypercube(4), 2): (255, 26197, 1373),
    (from_graph6("PB??xXPN@S@dp?oLE?UA_GcO"), 2): (9132, 35256, 543),
}


def _search_from_the_degree_core(kern, g, ell):
    core = sum(1 << v for v in range(g.n) if g.adj[v].bit_count() <= ell)
    lo = max(core.bit_count(), ell + 1)
    return kern.search_min_superset(g.adj, core, (1 << g.n) - 1, lo, g.n, ell, False)


def _check_pins(kern, monkeypatch):
    monkeypatch.setattr(_core, "search_min_superset", kern.search_min_superset)
    for (g, ell), counts in ANCHOR_LEAK_CHECKS.items():
        for rule, leak_checks in counts.items():
            assert leaky_number(g, ell, rule).stats.leak_checks == leak_checks
    for (g, ell), pinned in EVICTING_SEARCHES.items():
        found = _search_from_the_degree_core(kern, g, ell)
        assert found[:3] == pinned and len(found[3]) == _pykernel._CUTS


def test_anchor_leak_checks_are_pinned(monkeypatch):
    # the Python twin's pins need no compiler
    _check_pins(_pykernel, monkeypatch)
    kept = 0
    small_fort = _pykernel._small_fort

    def counting(adj, cut, ell, standard):
        nonlocal kept
        kept += 1
        return small_fort(adj, cut, ell, standard)

    monkeypatch.setattr(_pykernel, "_small_fort", counting)
    for g, ell in EVICTING_SEARCHES:
        kept = 0
        _search_from_the_degree_core(_pykernel, g, ell)
        assert kept > _pykernel._CUTS


def test_compiled_anchor_leak_checks_are_pinned(ck, monkeypatch):
    _check_pins(ck, monkeypatch)


def _twin(name, request):
    return _pykernel if name == "python" else request.getfixturevalue("ck")


def _threats(g, mask):
    """How many vertices outside ``mask`` have exactly one neighbor in it."""
    return sum(1 for v in range(g.n) if not mask >> v & 1 and (g.adj[v] & mask).bit_count() == 1)


def _connected(g, mask):
    return len(_pykernel.components(g.adj, mask)) == 1


def _degree_core(g, ell):
    return sum(1 << v for v in range(g.n) if g.adj[v].bit_count() <= ell)


def _solve_less_edge(g, ell, edge, ring):
    """(value, candidates, closures) of G - ``edge`` solved as deletion_values
    solves it, where the search of the component with free vertices ``free``
    starts from the cuts ``ring(h, free)``, newest first."""
    n = g.n
    full = (1 << n) - 1
    h = delete_edge(g, *edge)
    core = _degree_core(h, ell)
    value = candidates = closures = 0
    for comp, _ in _pykernel.components(h.adj, full):
        free = comp & ~core
        if not free:
            value += comp.bit_count()
            continue
        outside = n - comp.bit_count()
        found, cand, clos = _pykernel._search(
            n, h.adj, core | full & ~comp, free, outside + ell + 1, n, ell, False, comp,
            deque(ring(h, free), maxlen=_pykernel._CUTS))
        value += found.bit_count() - outside
        candidates += cand
        closures += clos
    return value, candidates, closures


def _kept(h, ell, offers, free):
    """The first 256 distinct offers that meet ``free`` and bind in ``h``,
    counted there vertex by vertex: connected, with at most ``ell`` threats."""
    return [m for m in dict.fromkeys(offers)
            if m & free and _threats(h, m) <= ell and _connected(h, m)][:_pykernel._CUTS]


def _reference_values(g, ell, offers):
    """deletion_values with every offer judged in every G - e on its own."""
    ell = min(ell, g.n)
    return tuple(_solve_less_edge(g, ell, e, lambda h, free: _kept(h, ell, offers, free)) for e in g.edges())


# One row per branch of deletion_values's rule, judged for the row's last
# offer F and the deleted edge e: (branch, graph6, ell, e, offers).  At e,
# every row's decision shows in the triple (see the next test but one)
DELETION_CASES = (
    ("no endpoint in F", "D{w", 1, (0, 4), [6]),
    ("no endpoint in F, ell + 1 threats", "DkW", 1, (0, 1), [16]),
    ("both endpoints in F, F - e connected", "D{w", 1, (1, 2), [7]),
    ("both endpoints in F, F - e split", "D{w", 1, (0, 4), [17]),
    ("one endpoint in F, the other with 1 neighbor in F", "DjW", 1, (1, 3), [18]),
    ("one endpoint in F, the other with 2 neighbors in F", "D{w", 1, (0, 1), [17]),
    ("one endpoint in F, the other with 3 neighbors in F", "D{w", 1, (0, 1), [22]),
    ("a bridge", "D{w", 1, (0, 3), [3]),
    ("a repeated offer", "D{w", 1, (0, 1), [6] * 256 + [18]),
    ("more than 256 offers", "HEhhzZP", 2, None, list(range(511, 0, -1))),
)


@pytest.mark.parametrize("twin", ["python", "c"])
def test_deletion_values_follow_the_rule_in_every_branch(twin, request):
    kern = _twin(twin, request)
    for branch, line, ell, _, offers in DELETION_CASES:
        g = from_graph6(line)
        assert kern.deletion_values(g.adj, ell, offers) == _reference_values(g, ell, offers), branch


def test_deletion_cases_reach_every_branch():
    # each row is the branch it names, and a wrong decision on its offer at
    # its edge changes the triple there
    for branch, line, ell, edge, offers in DELETION_CASES:
        g = from_graph6(line)
        if edge is None:  # more than 256 offers bind: the first 256 fill the ring, the first as the newest
            h_kept = [len(_kept(delete_edge(g, *e), ell, offers, (1 << g.n) - 1)) for e in g.edges()]
            assert max(h_kept) == 256 and len([m for m in offers if _threats(g, m) <= ell]) > 256
            plain = _reference_values(g, ell, offers)
            for wrong in (lambda k: k[-256:], lambda k: k[:256][::-1]):  # the last 256; oldest first
                assert plain != tuple(
                    _solve_less_edge(g, ell, e, lambda h, free: wrong(
                        [m for m in offers if m & free and _threats(h, m) <= ell and _connected(h, m)]))
                    for e in g.edges()), branch
            continue
        u, v = edge
        h = delete_edge(g, u, v)
        f = offers[-1]
        keeps = _threats(h, f) <= ell and _connected(h, f)
        plain = _solve_less_edge(g, ell, edge, lambda h, free: _kept(h, ell, offers, free))
        if branch == "a repeated offer":
            # kept only once, so the offer after the repeats still fits
            assert keeps and offers.count(f) == 1 and _kept(h, ell, offers, f)[-1] == f
            wrong = _solve_less_edge(g, ell, edge, lambda h, free: [m for m in offers if m & free][:256])
            assert plain != wrong, branch
            continue
        assert _connected(g, f)
        ends = (f >> u & 1) + (f >> v & 1)
        threats = _threats(g, f)
        if branch == "a bridge":
            assert len(_pykernel.components(h.adj, (1 << g.n) - 1)) == 2 and keeps
        elif ends == 0:
            assert branch == "no endpoint in F" + ("" if keeps else ", ell + 1 threats")
            assert threats == _threats(h, f) and (threats <= ell if keeps else threats == ell + 1)
        elif ends == 2:
            assert branch == "both endpoints in F, F - e " + ("connected" if keeps else "split")
            assert threats == _threats(h, f) <= ell
        else:
            count = (g.adj[v if f >> u & 1 else u] & f).bit_count()
            assert branch == f"one endpoint in F, the other with {count} neighbor{'s' * (count > 1)} in F"
            # with one, a threat of G is none in G - e, so F binds only
            # there; with two, G - e has a threat more; with three, neither
            assert (threats, _threats(h, f), keeps) == {1: (ell + 1, ell, True), 2: (ell, ell + 1, False),
                                                        3: (threats, threats, threats <= ell)}[count]
        wrong = _solve_less_edge(g, ell, edge, lambda h, free: [] if keeps else [f] if f & free else [])
        assert plain != wrong, branch


def _refusal(g, ell, mask):
    """Why deletion_values keeps ``mask`` in no G - e, judged from the graph
    alone, or None if some G - e keeps it."""
    if not mask:
        return "zero"
    if not _connected(g, mask):
        return "disconnected"  # deleting an edge never joins it
    if _threats(g, mask) > ell + 1:
        return "ell + 2 threats"  # deleting an edge takes at most one away
    free_somewhere = binds_somewhere = False
    for e in g.edges():
        h = delete_edge(g, *e)
        binds = _threats(h, mask) <= ell and _connected(h, mask)
        free_somewhere |= bool(mask & ~_degree_core(h, ell))
        binds_somewhere |= binds
        if binds and mask & ~_degree_core(h, ell):
            return None
    if not free_somewhere:
        return "inside the core"
    return "bound only where it misses free" if binds_somewhere else "bound in no G - e"


@pytest.mark.parametrize("twin", ["python", "c"])
def test_refused_offers_change_nothing(twin, request):
    # offers that no G - e keeps, each twice, cost nothing and change
    # nothing: every edge's triple is an empty offer's
    kern = _twin(twin, request)
    rng = random.Random(0x0FF)
    seen = set()
    for _ in range(30):
        n = rng.randint(5, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.45, 0.6]))
        for ell in range(3):
            refused = []
            for mask in range(1 << n):
                kind = _refusal(g, ell, mask)
                if kind is not None:
                    refused.append(mask)
                    seen.add(kind)
            offers = rng.sample(refused, min(len(refused), 40)) + [0]
            offers += offers[::-1]
            assert kern.deletion_values(g.adj, ell, offers) == kern.deletion_values(g.adj, ell, ())
    assert seen == {"zero", "disconnected", "ell + 2 threats", "inside the core", "bound in no G - e",
                    "bound only where it misses free"}


@pytest.mark.parametrize("twin", ["python", "c"])
def test_kept_offers_fill_the_ring_in_the_offered_order(twin, request):
    # every mask of a graph of 9 vertices offered, shuffled and some twice:
    # each search starts from the first 256 distinct ones that bind and meet
    # its free vertices, the first as the newest
    kern = _twin(twin, request)
    rng = random.Random(0x10)
    full_rings = 0
    for _ in range(9):
        g = random_graph(rng, 9, rng.choice([0.4, 0.5, 0.6]))
        for ell in (1, 2):
            offers = list(range(1 << g.n))
            offers += rng.sample(offers, 30)
            rng.shuffle(offers)
            assert kern.deletion_values(g.adj, ell, offers) == _reference_values(g, ell, offers)
            full_rings += any(len(_kept(delete_edge(g, *e), ell, offers, (1 << g.n) - 1)) == 256
                              for e in g.edges())
    assert full_rings > 2


def test_twins_agree_on_offered_cuts(ck):
    # the scan offers G's ring to deletion_values: the twins keep the same
    # offers, test the same candidates and run the same closures, on trees,
    # where every edge is a bridge, and on graphs of up to 16 vertices
    rng = random.Random(0xE0E)
    for i in range(24):
        n = rng.randint(2, 16)
        if i % 4 == 0:
            g = tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)))
        else:
            g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.5]))
        for ell in range(4):
            ring = leaky_number(g, ell).cuts
            offers = ring + tuple(rng.getrandbits(n) for _ in range(10)) + ring[:5]
            found = _pykernel.deletion_values(g.adj, ell, offers)
            assert len(found) == g.num_edges()
            assert found == ck.deletion_values(g.adj, ell, offers)
    # the same errors, arguments checked in order: graph, budget, offers
    p3 = path(3)
    calls = (
        (lambda k: k.deletion_values((0,) * 65, 0, ()), ValueError),
        (lambda k: k.deletion_values(5, 0, ()), TypeError),
        (lambda k: k.deletion_values(p3.adj, -1, [-1]), ValueError),
        (lambda k: k.deletion_values(p3.adj, 1, [3, 1 << 3]), ValueError),
        (lambda k: k.deletion_values(p3.adj, 1, [3, -1]), OverflowError),
        (lambda k: k.deletion_values(p3.adj, 1, [1 << 64]), OverflowError),
        (lambda k: k.deletion_values(p3.adj, 1, 5), TypeError),
    )
    for call, exc in calls:
        messages = []
        for k in (_pykernel, ck):
            with pytest.raises(exc) as info:
                call(k)
            messages.append(str(info.value))
        assert exc is TypeError or messages[0] == messages[1]


# ell = 1 over the connected atlas graphs of at most 6 vertices: G's solve
# and every G - e, as leaky_number counts them and deletion_values
@pytest.mark.parametrize("twin", ["python", "c"])
def test_scan_work_is_pinned(twin, request, monkeypatch):
    kern = _twin(twin, request)
    monkeypatch.setattr(_core, "search_min_superset", kern.search_min_superset)
    candidates = closures = 0
    for g in atlas_graphs(6):
        base = leaky_number(g, 1)
        candidates += base.stats.nodes
        closures += base.stats.leak_checks
        for _, cand, clos in kern.deletion_values(g.adj, 1, base.cuts):
            candidates += cand
            closures += clos
    assert (candidates, closures) == (16701, 8295)


# disconnected graphs whose solve keeps more than 256 cuts, one ring per
# component: (graph, ell) -> (closures of every G - e from the first 256
# of G's cuts, from all of them)
DISCONNECTED_SCANS = {
    (disjoint_union(petersen_gp(8), petersen_gp(8)), 2): (34824, 5638),
    (disjoint_union(grid(4, 5), petersen_gp(8)), 1): (10646, 8037),
    (disjoint_union(petersen_gp(8), wheel(9)), 2): (6976, 3378),
}


@pytest.mark.parametrize("twin", ["python", "c"])
def test_every_component_starts_from_g_s_cuts(twin, request):
    # G's cuts come one ring per component, in component order, so the
    # first 256 hold few or none of a later component's: all of them spare
    # closures, and change no value or candidate count
    kern = _twin(twin, request)
    for (g, ell), pinned in DISCONNECTED_SCANS.items():
        cuts = leaky_number(g, ell).cuts
        assert len(cuts) > 256
        first, every = (kern.deletion_values(g.adj, ell, offers) for offers in (cuts[:256], cuts))
        assert (sum(k for _, _, k in first), sum(k for _, _, k in every)) == pinned
        plain = [leaky_number(delete_edge(g, *e), ell) for e in g.edges()]
        for triples in (first, every):
            assert [t[:2] for t in triples] == [(p.value, p.stats.nodes) for p in plain]


def test_search_returns_the_first_superset_the_oracle_accepts(ck):
    # the oracle closes sets one force at a time over Python sets and knows
    # nothing of fort cuts
    rng = random.Random(0x5EED)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        core = rng.getrandbits(n) & rng.getrandbits(n)
        core_set = frozenset(v for v in range(n) if core >> v & 1)
        free_mask = rng.choice([(1 << n) - 1, rng.getrandbits(n)])
        free = [v for v in range(n) if free_mask >> v & 1 and v not in core_set]
        ell = rng.randint(0, 2)
        for rule in (Rule.psd, Rule.standard):
            k = rng.randint(len(core_set), n)
            # a miss counts every candidate, a hit its 1-based position
            expected, count = -1, comb(len(free), k - len(core_set))
            for i, combo in enumerate(combinations(free, k - len(core_set)), 1):
                if naive_is_ell_leaky(g, core_set | set(combo), ell, rule)[0]:
                    expected, count = core | sum(1 << v for v in combo), i
                    break
            for kern in (_pykernel, ck):
                found = kern.search_min_superset(g.adj, core, free_mask, k, k, ell, rule is Rule.standard)
                assert found[:2] == (expected, count)


def test_fort_kernels_agree(ck):
    for g, _, _, rng in _instances(250, max_n=8):
        ell = rng.randint(0, 2)
        assert _pykernel.minimal_fort_masks(g.adj, ell) == \
            ck.minimal_fort_masks(g.adj, ell)
    # every graph on at most 7 vertices, disconnected ones included, and
    # random graphs past the instances' 8 vertices
    rng = random.Random(0xF0F)
    larger = [random_graph(rng, rng.randint(9, 12), rng.choice([0.2, 0.3, 0.5])) for _ in range(60)]
    for g in atlas_graphs(7, connected=False) + tuple(larger):
        for ell in range(4):
            assert _pykernel.minimal_fort_masks(g.adj, ell) == \
                ck.minimal_fort_masks(g.adj, ell)
    # prisms at two leaks (tests/test_forts.py counts their 4n forts)
    for n in range(8, 17):
        adj = petersen_gp(n).adj
        assert _pykernel.minimal_fort_masks(adj, 2) == ck.minimal_fort_masks(adj, 2)


def _masks(forts):
    return sorted(sum(1 << v for v in f) for f in forts)


def test_fort_search_with_many_forts_per_vertex(ck):
    # a wheel's hub is the last vertex and lies in most of its minimal
    # forts, so its packed lanes in _pykernel span many words
    for rim, count, at_hub in ((12, 123, 111), (16, 568, 552)):
        g = wheel(rim)
        masks = _pykernel.minimal_fort_masks(g.adj, 1)
        assert (len(masks), sum(m >> rim & 1 for m in masks)) == (count, at_hub)
        assert at_hub > 64
        assert ck.minimal_fort_masks(g.adj, 1) == masks
        if rim == 12:
            assert sorted(masks) == _masks(naive_minimal_forts(g, 1))


def test_fort_search_on_sparse_graphs(ck):
    # trees and paths are where a branch can lose its route back to the
    # seed, which the connectivity prune cuts off
    rng = random.Random(0x7EE)
    for _ in range(24):
        n = rng.randint(10, 16)
        t = tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)))
        for ell in range(4):
            masks = _pykernel.minimal_fort_masks(t.adj, ell)
            assert ck.minimal_fort_masks(t.adj, ell) == masks
            if n <= 12:
                assert sorted(masks) == _masks(naive_minimal_forts(t, ell))
    for n in range(2, 65):
        p = path(n)
        for k in (_pykernel, ck):
            assert k.minimal_fort_masks(p.adj, 1) == [1, 1 << n - 1]


def test_python_fort_search_matches_the_oracle():
    # needs no compiler: random graphs of order 8 to 11, the sparse ones
    # mostly disconnected, and trees, where the component branch and the
    # prunes decide most nodes
    rng = random.Random(0xF02)
    graphs = [random_graph(rng, rng.randint(8, 11), rng.choice([0.15, 0.25, 0.4])) for _ in range(24)]
    for _ in range(10):
        n = rng.randint(8, 12)
        graphs.append(tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2))))
    assert sum(len(_pykernel.components(g.adj, (1 << g.n) - 1)) > 1 for g in graphs) >= 8
    for g in graphs:
        for ell in range(4):
            assert sorted(_pykernel.minimal_fort_masks(g.adj, ell)) == _masks(naive_minimal_forts(g, ell))


def _random_family(rng, n, count, width):
    """``count`` nonempty masks over [0, n), each of at most ``width`` vertices."""
    return [sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(width, n)))) for _ in range(count)]


def test_hitting_sets_agree_with_the_oracle(ck):
    rng = random.Random(0x417)
    families = [(0, [])]
    families += [(n, _random_family(rng, n, rng.randint(1, 9), 4)) for n in [rng.randint(1, 9) for _ in range(150)]]
    # 64-vertex masks, few enough that the oracle's scan stays short
    families += [(64, _random_family(rng, 64, rng.randint(1, 3), 6) + [1 << 63]) for _ in range(8)]
    for n, masks in families:
        size, combo = naive_hitting_number([frozenset(v for v in range(n) if m >> v & 1) for m in masks], n)
        want = (size, sum(1 << v for v in combo))
        assert _pykernel.min_hitting_set(masks) == want
        assert ck.min_hitting_set(masks) == want


def test_twins_check_graph_and_budget_arguments_alike(ck):
    # every entry checks the vertex count (the adjacency's length) and a
    # negative leak budget with the same error and message in both twins,
    # and clamps a budget of any size to the count
    p3 = path(3)
    # (entry, takes a leak budget)
    entries = (
        (lambda k, adj, ell: k.components(adj, 0), False),
        (lambda k, adj, ell: k.search_min_superset(adj, 1, 6, 2, 2, ell, True), True),
        (lambda k, adj, ell: k.realizable_forcers(adj, 0, 0), False),
        (lambda k, adj, ell: k.first_failing_leaks(adj, 0, ell, False), True),
        (lambda k, adj, ell: k.search_min_superset(adj, 0, 1, 1, 1, ell, False), True),
        (lambda k, adj, ell: k.first_failing_leaks(adj, 1, ell, True), True),
        (lambda k, adj, ell: k.minimal_fort_masks(adj, ell), True),
        (lambda k, adj, ell: k.deletion_values(adj, ell, [3, 6]), True),
    )
    for call, takes_ell in entries:
        messages = []
        for k in (_pykernel, ck):
            with pytest.raises(ValueError) as info:
                call(k, (0,) * 65, 0)
            messages.append(str(info.value))
        assert messages == ["vertex count outside [0, 64]"] * 2
        if takes_ell:
            for ell in (-1, -2**70):
                messages = []
                for k in (_pykernel, ck):
                    with pytest.raises(ValueError) as info:
                        call(k, p3.adj, ell)
                    messages.append(str(info.value))
                assert messages == ["leak budget must be non-negative"] * 2
            # budgets past a C int or a C long read as the order
            for ell in (2**31, 2**63, 2**70):
                assert call(_pykernel, p3.adj, ell) == call(ck, p3.adj, ell) == call(ck, p3.adj, 3)
        assert call(_pykernel, p3.adj, 1) == call(ck, p3.adj, 1)


def test_full_word_capacity(ck):
    # 64 vertices exercises the all-ones universe mask in both twins
    q6 = hypercube(6)
    even = sum(1 << v for v in range(64) if bin(v).count("1") % 2 == 0)
    full = (1 << 64) - 1
    for k in (_pykernel, ck):
        assert k.components(q6.adj, full) == [(full, 0)]
        assert k.first_failing_leaks(q6.adj, even, 0, False) == (-1, 1)
        assert k.first_failing_leaks(q6.adj, 0, 0, False) == (0, 1)
        # standard rule stalls: every blue vertex has six white neighbors
        assert k.first_failing_leaks(q6.adj, even, 0, True) == (0, 1)
        assert k.search_min_superset(q6.adj, even, 0, 32, 32, 0, False) == (even, 1, 1, ())
        with pytest.raises(ValueError):
            k.first_failing_leaks(q6.adj, even, -1, False)
        with pytest.raises(ValueError):
            k.search_min_superset(q6.adj, even, full, 40, 40, -1, False)
        # the ends of a path are its one-leak forts; on a cycle every vertex
        # is a two-leak fort, and vertex 63 fills its lane up to the guard bit
        p64 = path(64)
        assert k.minimal_fort_masks(p64.adj, 1) == [1, 1 << 63]
        c64 = cycle(64)
        assert k.minimal_fort_masks(c64.adj, 2) == [1 << v for v in range(64)]


def test_compiled_kernel_rejects_out_of_range_arguments(ck):
    q6 = hypercube(6)
    with pytest.raises(ValueError):
        ck.first_failing_leaks(tuple([0] * 65), 0, 0, False)
    for mask in (-1, 1 << 64):
        with pytest.raises(OverflowError):
            ck.first_failing_leaks(q6.adj, mask, 0, False)
        with pytest.raises(OverflowError):
            ck.components(q6.adj, mask)
    with pytest.raises(TypeError, match=r"^components\(\) takes 2 positional arguments \(1 given\)$"):
        ck.components(q6.adj)


def test_twins_reject_out_of_range_masks_alike(ck):
    p3 = path(3)
    calls = (
        lambda k, mask: k.components(p3.adj, mask),
        lambda k, mask: k.first_failing_leaks(p3.adj, mask, 1, True),
        lambda k, mask: k.search_min_superset(p3.adj, mask, 7, 3, 3, 0, True),
        lambda k, mask: k.realizable_forcers(p3.adj, mask, 7),
        lambda k, mask: k.realizable_forcers(p3.adj, 1, mask),
        lambda k, mask: k.first_failing_leaks(p3.adj, mask, 1, False),
        lambda k, mask: k.search_min_superset(p3.adj, mask, 7, 3, 3, 0, False),
        lambda k, mask: k.search_min_superset(p3.adj, 0, mask, 1, 1, 0, False),
        # every offered cut is checked, on a graph with no edge too
        lambda k, mask: k.deletion_values(p3.adj, 1, (3, mask, 6)),
        lambda k, mask: k.deletion_values((0, 0, 0), 0, [mask]),
    )
    cases = ((0b1001, ValueError), (1 << 63, ValueError), (-1, OverflowError), (1 << 64, OverflowError))
    for call in calls:
        for mask, exc in cases:
            messages = []
            for k in (_pykernel, ck):
                with pytest.raises(exc) as info:
                    call(k, mask)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
        assert call(_pykernel, 0b101) == call(ck, 0b101)
    # hitting-set masks are their own universe: any vertex below 64 is one
    for k in (_pykernel, ck):
        assert k.min_hitting_set([]) == (0, 0)
        assert k.min_hitting_set([0b1001, 1 << 63]) == (2, 1 | 1 << 63)
    for masks in ([-1], [1, 1 << 64]):
        messages = []
        for k in (_pykernel, ck):
            with pytest.raises(OverflowError) as info:
                k.min_hitting_set(masks)
            messages.append(str(info.value))
        assert messages == ["mask outside [0, 2**64)"] * 2
    # an empty set cannot be hit
    messages = []
    for k in (_pykernel, ck):
        with pytest.raises(ValueError) as info:
            k.min_hitting_set([1, 0])
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_fort_enumeration_beyond_initial_buffer(ck):
    # complete graph on 12 vertices has 66 minimal pair forts, which crosses
    # the C kernel's first buffer growth
    g = complete(12)
    masks = ck.minimal_fort_masks(g.adj, 0)
    assert len(masks) == 66
    assert masks == _pykernel.minimal_fort_masks(g.adj, 0)
    assert all(m.bit_count() == 2 for m in masks)


def _public_routines(module):
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isroutine(obj)}


def test_twins_expose_the_same_functions(ck):
    # the C twin has the timed primitives; the two untimed ones are Python's
    # on both backends
    python_only = {"closure_mask", "is_fort_mask"}
    assert _public_routines(ck) == _public_routines(_pykernel) - python_only
    assert _public_routines(_core) == _public_routines(_pykernel)
    for name in python_only:
        assert getattr(_core, name) is getattr(_pykernel, name)


def test_components_agree(ck):
    for g, inside, _, _ in _instances(400):
        for mask in (inside, (1 << g.n) - 1):
            assert _pykernel.components(g.adj, mask) == ck.components(g.adj, mask)


def test_components_partition_inside(ck):
    for g, inside, _, _ in _instances(400):
        for k in (_pykernel, ck):
            comps = k.components(g.adj, inside)
            union = 0
            for comp, boundary in comps:
                assert comp and comp & union == 0
                union |= comp
                reach = 0
                for v in range(g.n):
                    if comp >> v & 1:
                        reach |= g.adj[v]
                assert boundary == reach & ~inside
            assert union == inside
            lows = [comp & -comp for comp, _ in comps]
            assert lows == sorted(lows)


def test_grow_matches_a_naive_count():
    # the part by a search over vertex lists, and each vertex's neighbours
    # in it counted one by one, with a seed of one vertex, a mask and all
    # of a disconnected inside
    rng = random.Random(0x6A0)
    disconnected = 0
    for _ in range(300):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        inside = rng.getrandbits(n) | 1 << rng.randrange(n)
        disconnected += len(_pykernel.components(g.adj, inside)) > 1
        members = [v for v in range(n) if inside >> v & 1]
        some = sum(1 << v for v in rng.sample(members, rng.randint(1, len(members))))
        for seed in (1 << rng.choice(members), some, inside):
            part, stack = seed, [v for v in members if seed >> v & 1]
            while stack:
                for w in g.neighbors(stack.pop()):
                    if inside >> w & 1 and not part >> w & 1:
                        part |= 1 << w
                        stack.append(w)
            counts = [(g.adj[w] & part).bit_count() for w in range(n)]
            want = tuple(sum(1 << w for w in range(n) if counts[w] >= k) for k in (1, 2, 3))
            assert _pykernel._grow(g.adj, inside, seed) == (part, *want)
    assert disconnected > 100


def _backend_with(value):
    env = {k: v for k, v in os.environ.items() if k != "FORCEPS_PURE_PYTHON"}
    if value is not None:
        env["FORCEPS_PURE_PYTHON"] = value
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "from forceps import _core; print(_core.BACKEND)"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def _import_with_fake_extension(tmp_path, version_line):
    """Import a copy of the package whose compiled kernel is a stand-in with
    the twin's functions and the given KERNEL_VERSION line."""
    package = Path(__file__).resolve().parents[1] / "src" / "forceps"
    copy = tmp_path / "forceps"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    (copy / "_core" / "_ckernel.py").write_text(
        f'from ._pykernel import *  # noqa: F403\nBACKEND = "c"\n{version_line}\n'
    )
    env = {k: v for k, v in os.environ.items() if k != "FORCEPS_PURE_PYTHON"}
    env["PYTHONPATH"] = str(tmp_path)
    return subprocess.run(
        [sys.executable, "-c", "from forceps import _core; print(_core.BACKEND)"],
        env=env, capture_output=True, text=True,
    )


def test_c_source_declares_the_python_twins_version():
    # the ck fixture compares the built module's version, but skips without a
    # compiler; the source's #define is checked on every machine
    found = re.findall(r"^#define KERNEL_VERSION (\d+)$", SOURCE.read_text(), re.MULTILINE)
    assert found == [str(_pykernel.KERNEL_VERSION)]


def test_stale_extension_is_refused(tmp_path):
    current = _import_with_fake_extension(tmp_path / "a", f"KERNEL_VERSION = {_pykernel.KERNEL_VERSION}")
    assert current.returncode == 0 and current.stdout.strip() == "c", current.stderr
    for line in (f"KERNEL_VERSION = {_pykernel.KERNEL_VERSION - 1}", "del KERNEL_VERSION"):
        stale = _import_with_fake_extension(tmp_path / line.split()[0], line)
        assert stale.returncode != 0
        assert "ImportError" in stale.stderr
        assert "python setup.py build_ext --inplace" in stale.stderr


def test_pure_python_switch():
    assert _backend_with("1") == "python"
    unset = _backend_with(None)
    assert _backend_with("0") == unset
    assert _backend_with("") == unset

"""Differential tests: the compiled kernel must agree with the pure Python
twin bit for bit, including work counters.

The extension is compiled here from the in-tree ``_ckernel.c`` into a
temporary directory, so a stale in-place build never stands in for the
source under test."""

import importlib.util
import inspect
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from forceps import Graph, Rule, _core
from forceps._core import _pykernel
from forceps.families import complete, hypercube, path
from forceps.solve import _pieces

from corpus import atlas_graphs, random_graph
from oracles import async_closure_mask, naive_hitting_number, naive_is_ell_leaky

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


def test_closure_masks_agree(ck):
    for g, blue, leaks, rng in _instances(600):
        barred = (rng.getrandbits(g.n) & ~blue) if g.n else 0
        for std in (False, True):
            assert _pykernel.closure_mask(g.n, g.adj, blue, leaks, std, barred) == \
                ck.closure_mask(g.n, g.adj, blue, leaks, std, barred)


def test_async_closures_agree_and_match_canonical(ck):
    for g, blue, leaks, rng in _instances(300):
        seed = rng.getrandbits(64)
        for std in (False, True):
            assert async_closure_mask(g, blue, leaks, std, seed) == \
                ck.closure_mask(g.n, g.adj, blue, leaks, std) == \
                _pykernel.closure_mask(g.n, g.adj, blue, leaks, std)


def test_leak_scans_agree(ck):
    for g, blue, _, rng in _instances(250, max_n=7):
        ell = rng.randint(0, 3)
        for std in (False, True):
            assert _pykernel.first_failing_leaks(g.n, g.adj, blue, ell, std) == \
                ck.first_failing_leaks(g.n, g.adj, blue, ell, std)
    # the word boundary: vertex 63 forces, so chains and placements use bit 63
    for g, blue, _ in _top_forcer_instances(12):
        for ell in range(4):
            for std in (False, True):
                assert _pykernel.first_failing_leaks(64, g.adj, blue, ell, std) == \
                    ck.first_failing_leaks(64, g.adj, blue, ell, std)


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
                        assert k.first_failing_leaks(g.n, g.adj, blue, ell, rule is Rule.standard)[0] == want


def test_certified_scan_skips_closures(ck):
    # Q3's even set survives every placement of two leaks under the psd rule,
    # and most placements are certified without a closure of their own
    q3 = hypercube(3)
    even = sum(1 << v for v in range(8) if bin(v).count("1") % 2 == 0)
    for k in (_pykernel, ck):
        leaks, closures = k.first_failing_leaks(q3.n, q3.adj, even, 2, False)
        assert leaks == -1
        assert closures < 1 + comb(q3.n, 2)


def test_searches_agree(ck):
    for g, blue, _, rng in _instances(150, max_n=7):
        if g.n == 0:
            continue
        core = blue & rng.getrandbits(g.n)
        # free may hold core vertices, which the search ignores
        free = rng.choice([(1 << g.n) - 1 & ~core, rng.getrandbits(g.n)])
        k = rng.randint(core.bit_count(), g.n)
        ell = rng.randint(0, 2)
        for std in (False, True):
            assert _pykernel.search_min_superset(g.n, g.adj, core, free, k, ell, std) == \
                ck.search_min_superset(g.n, g.adj, core, free, k, ell, std)
    # 64 vertices with vertex 63 forcing; the core drops a few blue vertices
    for g, blue, rng in _top_forcer_instances(8):
        core = blue & ~sum(1 << v for v in rng.sample(range(63), 3))
        for ell in range(4):
            k = core.bit_count() + rng.randint(0, 2)
            free = rng.choice([(1 << 64) - 1, rng.getrandbits(64) | 1 << 63])
            for std in (False, True):
                assert _pykernel.search_min_superset(64, g.adj, core, free, k, ell, std) == \
                    ck.search_min_superset(64, g.adj, core, free, k, ell, std)


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
                    full = kern.search_min_superset(8, g.adj, core, free, 4, ell, std)
                    for size in (1, 5, 20):
                        found, candidates = -1, 0
                        for c, f in _pieces(core, free, 3, size):
                            piece, cand, _ = kern.search_min_superset(8, g.adj, c, f, 4, ell, std)
                            candidates += cand
                            if piece >= 0:
                                found = piece
                                break
                        assert (found, candidates) == full[:2]


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
                found = kern.search_min_superset(n, g.adj, core, free_mask, k, ell, rule is Rule.standard)
                assert found[:2] == (expected, count)


def test_fort_kernels_agree(ck):
    for g, blue, _, rng in _instances(250, max_n=8):
        ell = rng.randint(0, 2)
        if blue:
            assert _pykernel.is_fort_mask(g.n, g.adj, blue, ell) == \
                ck.is_fort_mask(g.n, g.adj, blue, ell)
        assert _pykernel.minimal_fort_masks(g.n, g.adj, ell) == \
            ck.minimal_fort_masks(g.n, g.adj, ell)
    # every graph on at most 7 vertices, disconnected ones included, and
    # random graphs past the instances' 8 vertices
    rng = random.Random(0xF0F)
    larger = [random_graph(rng, rng.randint(9, 12), rng.choice([0.2, 0.3, 0.5])) for _ in range(60)]
    for g in atlas_graphs(7, connected=False) + tuple(larger):
        for ell in range(4):
            assert _pykernel.minimal_fort_masks(g.n, g.adj, ell) == \
                ck.minimal_fort_masks(g.n, g.adj, ell)


def _random_family(rng, n, count, width):
    """``count`` nonempty masks over [0, n), each of at most ``width`` vertices."""
    return [sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(width, n)))) for _ in range(count)]


def test_hitting_sets_agree_with_the_oracle(ck):
    rng = random.Random(0x417)
    families = [(n, []) for n in (0, 5, 64)]
    families += [(n, _random_family(rng, n, rng.randint(1, 9), 4)) for n in [rng.randint(1, 9) for _ in range(150)]]
    # 64-vertex masks, few enough that the oracle's scan stays short
    families += [(64, _random_family(rng, 64, rng.randint(1, 3), 6) + [1 << 63]) for _ in range(8)]
    for n, masks in families:
        size, combo = naive_hitting_number([frozenset(v for v in range(n) if m >> v & 1) for m in masks], n)
        want = (size, sum(1 << v for v in combo))
        assert _pykernel.min_hitting_set(n, masks) == want
        assert ck.min_hitting_set(n, masks) == want


def test_twins_check_graph_and_budget_arguments_alike(ck):
    # every entry checks the vertex count, the adjacency length and a
    # negative leak budget with the same error and message in both twins
    p3 = path(3)
    # (entry, takes an adjacency, takes a leak budget)
    entries = (
        (lambda k, n, adj, ell: k.components(n, adj, 0), True, False),
        (lambda k, n, adj, ell: k.closure_mask(n, adj, 0, 0, False), True, False),
        (lambda k, n, adj, ell: k.first_failing_leaks(n, adj, 0, ell, False), True, True),
        (lambda k, n, adj, ell: k.search_min_superset(n, adj, 0, 1, 1, ell, False), True, True),
        (lambda k, n, adj, ell: k.is_fort_mask(n, adj, 1, ell), True, True),
        (lambda k, n, adj, ell: k.minimal_fort_masks(n, adj, ell), True, True),
        (lambda k, n, adj, ell: k.min_hitting_set(n, [1]), False, False),
    )
    cases = (((65, (0,) * 65), ValueError), ((-1, ()), ValueError), ((5, p3.adj), IndexError))
    for call, takes_adj, takes_ell in entries:
        for (n, adj), exc in cases:
            if exc is IndexError and not takes_adj:
                continue
            messages = []
            for k in (_pykernel, ck):
                with pytest.raises(exc) as info:
                    call(k, n, adj, 0)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
        if takes_ell:
            messages = []
            for k in (_pykernel, ck):
                with pytest.raises(ValueError) as info:
                    call(k, 3, p3.adj, -1)
                messages.append(str(info.value))
            assert messages == ["leak budget must be non-negative"] * 2
        assert call(_pykernel, 3, p3.adj, 1) == call(ck, 3, p3.adj, 1)


def test_full_word_capacity(ck):
    # 64 vertices exercises the all-ones universe mask in both twins
    q6 = hypercube(6)
    even = sum(1 << v for v in range(64) if bin(v).count("1") % 2 == 0)
    full = (1 << 64) - 1
    for k in (_pykernel, ck):
        assert k.closure_mask(q6.n, q6.adj, even, 0, False) == full
        assert k.closure_mask(q6.n, q6.adj, 0, 0, False) == 0
        # standard rule stalls: every blue vertex has six white neighbors
        assert k.closure_mask(q6.n, q6.adj, even, 0, True) == even
        assert k.is_fort_mask(q6.n, q6.adj, full, 0)
        with pytest.raises(ValueError):
            k.first_failing_leaks(q6.n, q6.adj, even, -1, False)
        with pytest.raises(ValueError):
            k.search_min_superset(q6.n, q6.adj, even, full, 40, -1, False)


def test_compiled_kernel_rejects_out_of_range_arguments(ck):
    q6 = hypercube(6)
    with pytest.raises(ValueError):
        ck.closure_mask(65, tuple([0] * 65), 0, 0, False)
    for mask in (-1, 1 << 64):
        with pytest.raises(OverflowError):
            ck.closure_mask(q6.n, q6.adj, mask, 0, False)
        with pytest.raises(OverflowError):
            ck.is_fort_mask(q6.n, q6.adj, mask, 0)
    with pytest.raises(IndexError):
        ck.closure_mask(3, (0, 0), 1, 0, False)


def test_twins_reject_out_of_range_masks_alike(ck):
    p3 = path(3)
    calls = (
        lambda k, mask: k.components(3, p3.adj, mask),
        lambda k, mask: k.is_fort_mask(3, p3.adj, mask, 0),
        lambda k, mask: k.closure_mask(3, p3.adj, mask, 0, False),
        lambda k, mask: k.closure_mask(3, p3.adj, 1, mask, False),
        lambda k, mask: k.closure_mask(3, p3.adj, 1, 0, False, mask),
        lambda k, mask: k.first_failing_leaks(3, p3.adj, mask, 1, False),
        lambda k, mask: k.search_min_superset(3, p3.adj, mask, 7, 3, 0, False),
        lambda k, mask: k.search_min_superset(3, p3.adj, 0, mask, 1, 0, False),
        lambda k, mask: k.min_hitting_set(3, [1, mask]),
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
    # an empty set cannot be hit
    messages = []
    for k in (_pykernel, ck):
        with pytest.raises(ValueError) as info:
            k.min_hitting_set(3, [1, 0])
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_fort_enumeration_beyond_initial_buffer(ck):
    # complete graph on 12 vertices has 66 minimal pair forts, which crosses
    # the C kernel's first buffer growth
    g = complete(12)
    masks = ck.minimal_fort_masks(g.n, g.adj, 0)
    assert len(masks) == 66
    assert masks == _pykernel.minimal_fort_masks(g.n, g.adj, 0)
    assert all(m.bit_count() == 2 for m in masks)


def _public_routines(module):
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isroutine(obj)}


def test_twins_expose_the_same_functions(ck):
    assert _public_routines(_pykernel) == _public_routines(ck)
    assert _public_routines(_core) == _public_routines(_pykernel)


def test_components_agree(ck):
    for g, inside, _, _ in _instances(400):
        for mask in (inside, (1 << g.n) - 1):
            assert _pykernel.components(g.n, g.adj, mask) == ck.components(g.n, g.adj, mask)


def test_components_partition_inside(ck):
    for g, inside, _, _ in _instances(400):
        for k in (_pykernel, ck):
            comps = k.components(g.n, g.adj, inside)
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

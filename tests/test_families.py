import re
import time

import pytest

from forceps import FamilySpec, Graph, cartesian_product, from_graph6, generate, relabel, to_graph6
import forceps.families as families
from forceps.families import (
    complete,
    complete_bipartite,
    cycle,
    fig3_spider,
    grid,
    hypercube,
    path,
    petersen_gp,
    star,
    tree_from_pruefer,
    wheel,
)


def test_spec_parse_and_str():
    s = FamilySpec.parse("grid:4:4")
    assert s == FamilySpec("grid", (4, 4)) and str(s) == "grid:4:4"
    assert FamilySpec.parse("fig3_spider") == FamilySpec("fig3_spider", ())
    assert FamilySpec.parse("tree_from_pruefer:2:3:2").params == (2, 3, 2)
    with pytest.raises(ValueError):
        FamilySpec.parse("moebius:5")
    with pytest.raises(ValueError):
        FamilySpec.parse("path:3:4")
    with pytest.raises(ValueError):
        FamilySpec.parse("grid:4:x")
    # an empty field is an error, not a field to skip, and so is any
    # spelling of a number but the plain decimal that str gives back
    for text in ("grid:4::4", "grid:4:4:", "path:3:", "path:1_0", "path: 3", "path:3 ", "path:+3",
                 "path:-0", "path:-03", "path:\u0663", "grid:4:04", "path:00", "path:3\n", "path:0x3"):
        with pytest.raises(ValueError, match="^bad family parameters"):
            FamilySpec.parse(text)
    for text in ("path:10", "path:0", "hypercube:-1", "grid:4:4", "tree_from_pruefer:0:10:9", "fig3_spider"):
        assert str(FamilySpec.parse(text)) == text


def test_spec_keeps_its_own_parameter_tuple():
    params = [3]
    spec = FamilySpec("path", params)
    assert spec == FamilySpec("path", (3,)) and hash(spec) == hash(FamilySpec("path", (3,)))
    params[0] = 5
    assert str(spec) == "path:3" and generate(spec) == path(3)


def test_spec_parameters_are_ints():
    # a bool would build path(1) and print as path:True, which parse rejects;
    # a float would fail deep inside the generator
    for kind, params in (("path", (True,)), ("path", (3.0,)), ("path", ("3",)), ("grid", (4, False))):
        with pytest.raises(TypeError, match=f"^{re.escape(f'family parameter must be an int, got {params[-1]!r}')}$"):
            FamilySpec(kind, params)


def test_path_cycle_complete():
    assert path(3).edges() == [(0, 1), (1, 2)]
    assert path(1).n == 1
    assert cycle(4).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert complete(4).num_edges() == 6
    with pytest.raises(ValueError):
        cycle(2)


def test_wheel_numbering():
    w = wheel(5)
    assert w.n == 6
    assert w.degree(5) == 5  # hub is the last vertex
    assert all(w.degree(i) == 3 for i in range(5))


def test_complete_bipartite_parts():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.num_edges() == 6
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert g.has_edge(0, 2)
    assert star(4) == complete_bipartite(1, 4)


def test_hypercube():
    q3 = hypercube(3)
    assert q3.n == 8 and q3.num_edges() == 12
    assert all(d == 3 for d in q3.degrees())
    assert hypercube(0).n == 1
    # product construction matches the coordinate labeling
    k2 = complete(2)
    q3_prod = cartesian_product(cartesian_product(k2, k2), k2)
    assert q3_prod == q3
    with pytest.raises(ValueError):
        hypercube(7)


def test_grid_is_path_product():
    assert grid(3, 4) == cartesian_product(path(3), path(4))
    assert grid(1, 5).edges() == path(5).edges()


@pytest.mark.parametrize("n", range(3, 9))
def test_prism_matches_relabeled_product(n):
    direct = petersen_gp(n)
    prod = cartesian_product(cycle(n), path(2))
    perm = {}
    for a in range(n):
        perm[2 * a] = a        # outer copy
        perm[2 * a + 1] = n + a  # inner copy
    assert relabel(prod, perm) == direct
    assert all(d == 3 for d in direct.degrees())


def test_pruefer_decode():
    t = tree_from_pruefer((3, 3))
    assert t.n == 4 and t.num_edges() == 3
    assert t.degree(3) == 3  # appears twice in the sequence
    assert tree_from_pruefer(()).edges() == [(0, 1)]
    with pytest.raises(ValueError):
        tree_from_pruefer((5,))


def test_fig3_spider_degrees():
    g = fig3_spider()
    assert g.degrees() == (1, 2, 2, 4, 1, 1, 1)


def test_generate_dispatch():
    assert generate(FamilySpec("grid", (2, 2))) == grid(2, 2)
    assert generate(FamilySpec("tree_from_pruefer", (0, 1))).n == 4


def _all_specs_up_to_order_eight():
    specs = [FamilySpec("fig3_spider", ())]
    specs += [FamilySpec("path", (n,)) for n in range(1, 9)]
    specs += [FamilySpec("cycle", (n,)) for n in range(3, 9)]
    specs += [FamilySpec("complete", (n,)) for n in range(1, 9)]
    specs += [FamilySpec("wheel", (n,)) for n in range(3, 8)]
    specs += [FamilySpec("complete_bipartite", (m, n))
              for m in range(1, 8) for n in range(m, 9 - m)]
    specs += [FamilySpec("star", (n,)) for n in range(1, 8)]
    specs += [FamilySpec("hypercube", (d,)) for d in range(0, 4)]
    specs += [FamilySpec("grid", (n, m))
              for n in range(1, 9) for m in range(1, 9) if n * m <= 8]
    specs += [FamilySpec("petersen_gp", (n, 1)) for n in (3, 4)]
    specs += [FamilySpec("tree_from_pruefer", (0, 1, 2)),
              FamilySpec("tree_from_pruefer", (4, 4, 4, 4))]
    return specs


def test_generated_families_roundtrip_graph6():
    specs = _all_specs_up_to_order_eight()
    assert len(specs) > 70
    for spec in specs:
        g = generate(spec)
        assert g.n <= 8
        assert from_graph6(to_graph6(g)) == g, str(spec)


_OVER = "vertex count 65 outside [0, 64]"


@pytest.mark.parametrize("spec, message", [
    ("path:65", _OVER),
    ("cycle:65", _OVER),
    ("complete:65", _OVER),
    ("wheel:64", _OVER),
    ("complete_bipartite:1:64", _OVER),
    ("complete_bipartite:64:1", _OVER),
    ("star:64", _OVER),
    ("grid:5:13", _OVER),
    ("grid:1:65", _OVER),
    ("petersen_gp:33:1", "vertex count 66 outside [0, 64]"),
    ("hypercube:7", "hypercube dimension 7 exceeds the 64-vertex capacity"),
    ("tree_from_pruefer" + ":0" * 63, _OVER),
])
def test_every_family_rejects_the_first_order_above_capacity(spec, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(FamilySpec.parse(spec))


@pytest.mark.parametrize("spec, message", [
    ("path:0", "path needs n >= 1"),
    ("complete:0", "complete needs n >= 1"),
    ("wheel:2", "wheel needs rim size n >= 3"),
    ("complete_bipartite:0:3", "complete_bipartite needs m, n >= 1"),
    ("hypercube:-1", "hypercube needs d >= 0"),
    ("grid:0:3", "grid needs n, m >= 1"),
    ("petersen_gp:5:2", "only petersen_gp(n, 1) (the prism) is supported"),
    ("petersen_gp:2:1", "petersen_gp needs n >= 3"),
])
def test_every_family_rejects_parameters_outside_its_range(spec, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(FamilySpec.parse(spec))


def test_huge_orders_are_rejected_before_anything_is_built(monkeypatch):
    def build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "from_edges", build)
    monkeypatch.setattr(families, "cartesian_product", build)
    specs = {
        "complete_bipartite:30000:30000": "vertex count 60000 outside [0, 64]",
        "path:1000000": "vertex count 1000000 outside [0, 64]",
        "cycle:1000000": "vertex count 1000000 outside [0, 64]",
        "complete:1000000": "vertex count 1000000 outside [0, 64]",
        "wheel:1000000": "vertex count 1000001 outside [0, 64]",
        "star:1000000": "vertex count 1000001 outside [0, 64]",
        "grid:1000000:1000000": "vertex count 1000000000000 outside [0, 64]",
        "petersen_gp:1000000:1": "vertex count 2000000 outside [0, 64]",
        "hypercube:1000000000": "hypercube dimension 1000000000 exceeds the 64-vertex capacity",
    }
    start = time.perf_counter()
    for spec, message in specs.items():
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate(FamilySpec.parse(spec))
    assert time.perf_counter() - start < 1.0  # 2**d alone took seconds at d = 10**9

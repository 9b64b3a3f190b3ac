import pickle
import re

import pytest
from hypothesis import given, strategies as st

from forceps import (
    Graph,
    VertexSet,
    cartesian_product,
    connected_components,
    delete_edge,
    induced_subgraph,
    relabel,
)
from forceps.families import complete, cycle, path

from corpus import atlas_graphs


masks = st.integers(min_value=0, max_value=(1 << 10) - 1)


@given(masks, masks)
def test_vertexset_matches_set_semantics(a, b):
    va, vb = VertexSet.from_mask(10, a), VertexSet.from_mask(10, b)
    sa, sb = set(va), set(vb)
    assert set(va | vb) == sa | sb
    assert set(va & vb) == sa & sb
    assert set(va - vb) == sa - sb
    assert set(va.complement()) == set(range(10)) - sa
    assert len(va) == len(sa)
    assert (va <= vb) == (sa <= sb)
    assert va.isdisjoint(vb) == sa.isdisjoint(sb)
    assert list(va) == sorted(sa)  # ascending iteration


def test_vertexset_validation():
    with pytest.raises(ValueError):
        VertexSet(3, [3])
    with pytest.raises(ValueError):
        VertexSet.from_mask(3, 1 << 5)
    with pytest.raises(ValueError):
        VertexSet(2, [0]).union(VertexSet(3, [0]))
    with pytest.raises(AttributeError):
        VertexSet(2, [0]).mask = 3


def test_vertexset_equality_hash_and_repr():
    a = VertexSet(3, [0, 2])
    assert a == VertexSet.from_mask(3, 0b101) and hash(a) == hash(VertexSet.from_mask(3, 0b101))
    assert a != VertexSet(4, [0, 2])
    assert a != {0, 2} and a.__eq__({0, 2}) is NotImplemented
    assert repr(a) == "{0,2}" and repr(VertexSet(3)) == "{}"


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph((0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph((0b1,))  # loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize("call, message", [
    (lambda: VertexSet(65), "vertex count 65 outside [0, 64]"),
    (lambda: VertexSet.from_mask(100, 0), "vertex count 100 outside [0, 64]"),
    (lambda: VertexSet.from_mask(-1, 0), "vertex count -1 outside [0, 64]"),
    (lambda: Graph((0,) * 65), "vertex count 65 outside [0, 64]"),
    (lambda: Graph((0b100, 0)), "neighborhood of 0 leaves [0, 2)"),
    (lambda: Graph.from_edges(2, [(1, 1)]), "loop at vertex 1"),
    (lambda: Graph.from_edges(10**12, []), "vertex count 1000000000000 outside [0, 64]"),
    (lambda: Graph.from_edges(-1, [(0, 1)]), "vertex count -1 outside [0, 64]"),
    (lambda: path(3).degree(-1), "vertex -1 outside [0, 3)"),
    (lambda: path(3).neighbors(-1), "vertex -1 outside [0, 3)"),
    (lambda: path(3).degree(3), "vertex 3 outside [0, 3)"),
    (lambda: cartesian_product(path(9), path(8)), "vertex count 72 outside [0, 64]"),
    (lambda: induced_subgraph(path(4), VertexSet(3, [0, 2])), "vertex set on 3 vertices does not match a graph on 4"),
    (lambda: induced_subgraph(path(4), VertexSet(5, [0, 4])), "vertex set on 5 vertices does not match a graph on 4"),
], ids=["vertexset-universe", "from-mask-universe", "from-mask-negative-universe",
        "graph-row-count", "graph-row-range", "from-edges-loop",
        "from-edges-huge-order", "from-edges-negative-order",
        "degree-negative", "neighbors-negative", "degree-past-end", "product-order",
        "induced-subgraph-smaller-universe", "induced-subgraph-larger-universe"])
def test_argument_checks(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_graph_keeps_its_own_adjacency_tuple():
    adj = [0b10, 0b01]
    g = Graph(adj)
    assert g == Graph((0b10, 0b01)) and hash(g) == hash(Graph((0b10, 0b01)))
    adj[0] = 0b11  # a loop at 0, had the graph kept the caller's list
    assert g.adj == (0b10, 0b01) and g.edges() == [(0, 1)]


def test_a_graph_is_its_rows():
    # the vertex count is the row count, derived and never passed
    g = Graph((0b010, 0b101, 0b010))
    want = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g == want and hash(g) == hash(want)
    assert repr(g) == "Graph(adj=(2, 5, 2))"
    assert Graph(()).n == 0 and Graph.from_edges(4, []).n == 4
    # process pools pickle graphs: a copy keeps its count
    for h in (g, path(5), Graph.from_edges(4, []), delete_edge(cycle(6), 0, 1)):
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and hash(copy) == hash(h) and copy.n == h.n


def test_a_graph_keeps_no_instance_dict():
    # Graph is a frozen slotted dataclass: no per-instance dict, yet it
    # still pickles for the process pool, hashes as its copy does, and
    # refuses assignment to a field or to a new name (Python 3.11 raises
    # TypeError for the latter, later versions an AttributeError)
    g = delete_edge(cycle(7), 2, 3)
    assert not hasattr(g, "__dict__")
    for copy in (pickle.loads(pickle.dumps(g)), Graph(g.adj)):
        assert copy == g and hash(copy) == hash(g) and copy.n == g.n and copy.adj == g.adj
    for name in ("adj", "n"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    with pytest.raises((AttributeError, TypeError)):
        g.label = "c7"
    assert g.n == 7 and g.num_edges() == 6


def test_graph_accessors():
    g = path(4)
    assert g.degrees() == (1, 2, 2, 1)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.num_edges() == 3
    assert g.min_degree() == 1 and g.max_degree() == 2
    assert list(g.neighbors(1)) == [0, 2]
    assert g.has_edge(2, 1) and not g.has_edge(0, 3)


def test_delete_edge():
    assert delete_edge(path(3), 1, 2).edges() == [(0, 1)]
    assert delete_edge(cycle(4), 0, 3).edges() == path(4).edges()
    k3_minus = delete_edge(complete(3), 0, 1)
    assert k3_minus.degrees() == (1, 1, 2)
    with pytest.raises(ValueError):
        delete_edge(path(3), 0, 2)


def test_deleting_an_edge_gives_the_graph_of_the_other_edges():
    # dropping both arcs of an edge leaves the rows of the remaining edges,
    # so the result equals and hashes like their build from an edge list
    for g in atlas_graphs(6):
        edges = g.edges()
        for u, v in edges:
            want = Graph.from_edges(g.n, [e for e in edges if e != (u, v)])
            for got in (delete_edge(g, u, v), delete_edge(g, v, u)):
                assert got == want and hash(got) == hash(want) and got.n == g.n
                assert type(got.adj) is tuple
    with pytest.raises(ValueError, match=r"^asymmetric edge \(0,1\)$"):
        Graph((0b10, 0b00))


def test_connected_components_order():
    g = Graph.from_edges(3, [(0, 1)])
    assert [list(c) for c in connected_components(g)] == [[0, 1], [2]]
    assert [list(c) for c in connected_components(cycle(5))] == [[0, 1, 2, 3, 4]]
    empty3 = Graph.from_edges(3, [])
    assert [list(c) for c in connected_components(empty3)] == [[0], [1], [2]]
    assert connected_components(Graph(())) == []


def test_cartesian_product_k2_k2_is_c4():
    p = cartesian_product(complete(2), complete(2))
    assert p.n == 4 and p.num_edges() == 4
    assert all(d == 2 for d in p.degrees())


@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_product_degree_sum(a, b, data):
    ga = Graph.from_edges(a, [(u, v) for u in range(a) for v in range(u + 1, a)
                              if data.draw(st.booleans())])
    gb = Graph.from_edges(b, [(u, v) for u in range(b) for v in range(u + 1, b)
                              if data.draw(st.booleans())])
    p = cartesian_product(ga, gb)
    for x in range(a):
        for y in range(b):
            assert p.degree(x * b + y) == ga.degree(x) + gb.degree(y)


def test_product_capacity_guard():
    with pytest.raises(ValueError):
        cartesian_product(path(9), path(9))


def test_induced_subgraph():
    g = cycle(5)
    sub, back = induced_subgraph(g, VertexSet(5, [0, 1, 3]))
    assert back == (0, 1, 3)
    assert sub.edges() == [(0, 1)]


def test_relabel_roundtrip():
    g = path(4)
    perm = [2, 0, 3, 1]
    h = relabel(g, perm)
    inverse = {p: v for v, p in enumerate(perm)}
    assert relabel(h, inverse) == g
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1, 2])

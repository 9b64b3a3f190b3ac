"""Test corpora: the exhaustive small-graph atlas and random graphs."""

from __future__ import annotations

import random
from functools import lru_cache

import networkx as nx

from forceps import Graph, relabel

# connected graphs per order 1..7, up to isomorphism
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def _to_graph(nxg) -> Graph:
    n = nxg.number_of_nodes()
    assert sorted(nxg.nodes) == list(range(n))
    return Graph.from_edges(n, list(nxg.edges))


@lru_cache(maxsize=None)
def atlas_graphs(max_n: int, connected: bool = True, min_n: int = 1) -> tuple[Graph, ...]:
    """Every graph on min_n..max_n vertices up to isomorphism (Read-Wilson
    atlas), optionally restricted to connected ones."""
    out = []
    for nxg in nx.graph_atlas_g():
        n = nxg.number_of_nodes()
        if not min_n <= n <= max_n:
            continue
        if connected and not nx.is_connected(nxg):
            continue
        out.append(_to_graph(nxg))
    if connected:
        want = sum(CONNECTED_COUNTS[n] for n in range(min_n, max_n + 1))
        assert len(out) == want, f"atlas corpus size {len(out)} != {want}"
    return tuple(out)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    from forceps import connected_components

    while True:
        g = random_graph(rng, n, p)
        if len(connected_components(g)) <= 1:
            return g


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return Graph.from_edges(g.n + h.n, edges)


def interleaved_union(g: Graph, h: Graph) -> tuple[Graph, list[int], list[int]]:
    """Disjoint union of g and h whose labels alternate between the two
    while both have vertices left.  Returns it and the new label of each
    vertex of g and of h."""
    m = min(g.n, h.n)
    g_to = [2 * v if v < m else m + v for v in range(g.n)]
    h_to = [2 * v + 1 if v < m else m + v for v in range(h.n)]
    return relabel(disjoint_union(g, h), g_to + h_to), g_to, h_to

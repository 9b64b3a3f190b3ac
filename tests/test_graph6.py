import random

import networkx as nx
import pytest

from forceps import Graph, Graph6Error, from_graph6, to_graph6
from forceps.families import complete, cycle, path

from corpus import random_graph


def test_fixed_vectors():
    k2 = from_graph6("A_")
    assert (k2.n, k2.edges()) == (2, [(0, 1)])
    assert to_graph6(complete(2)) == "A_"

    k3 = from_graph6("Bw")
    assert k3 == complete(3)
    assert to_graph6(complete(3)) == "Bw"

    empty5 = from_graph6("D??")
    assert empty5.n == 5 and empty5.num_edges() == 0
    assert to_graph6(Graph.from_edges(5, [])) == "D??"


def test_tiny_graphs():
    assert to_graph6(Graph.from_edges(0, [])) == "?"
    assert to_graph6(Graph.from_edges(1, [])) == "@"
    assert from_graph6("?").n == 0
    assert from_graph6("@").n == 1


def test_roundtrip_c4():
    c4 = cycle(4)
    assert from_graph6(to_graph6(c4)) == c4


def test_optional_prefix():
    assert from_graph6(">>graph6<<A_") == complete(2)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("~???", 0),       # long form
        (chr(20) + "?", 0),  # header below printable range
        ("D?", 2),          # truncated edge stream
        ("A_?", 2),         # trailing bytes
        ("B" + chr(190), 1),  # edge byte out of range
    ],
)
def test_decode_errors_carry_offsets(text, offset):
    with pytest.raises(Graph6Error) as exc:
        from_graph6(text)
    assert exc.value.offset == offset


def test_encode_guard():
    with pytest.raises(Graph6Error):
        to_graph6(Graph((0,) * 63))


def test_roundtrip_random_against_networkx():
    rng = random.Random(20240817)
    for _ in range(800):
        n = rng.randint(0, 16)
        g = random_graph(rng, n, rng.choice([0.15, 0.5, 0.85]))
        text = to_graph6(g)
        assert from_graph6(text) == g
        # cross-check both directions against the networkx codec
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert theirs == text
        back = nx.from_graph6_bytes(text.encode())
        assert sorted(back.edges()) == g.edges()


def test_path_graph6_matches_networkx():
    g = path(7)
    theirs = nx.to_graph6_bytes(nx.path_graph(7), header=False).decode().strip()
    assert to_graph6(g) == theirs

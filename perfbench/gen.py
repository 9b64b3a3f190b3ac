"""Seeded input generation for the benchmark.

Nothing here imports forceps: graphs are built as neighbourhood bitmasks and
handed to the program as graph6 text, so the program only ever sees the
generated inputs.
"""

from __future__ import annotations

import random


def encode_graph6(n: int, adj: list[int]) -> str:
    """Short-form graph6 of a graph on at most 62 vertices."""
    bits = []
    for col in range(1, n):
        for row in range(col):
            bits.append(adj[row] >> col & 1)
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def decode_graph6(line: str) -> tuple[int, list[int]]:
    """Short-form graph6 back to (n, adjacency)."""
    n = ord(line[0]) - 63
    bits = [(ord(ch) - 63) >> (5 - i) & 1 for ch in line[1:] for i in range(6)]
    pairs = [(row, col) for col in range(1, n) for row in range(col)]
    return n, adjacency(n, [pair for pair, bit in zip(pairs, bits) if bit])


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """New label of vertex v is perm[v]."""
    return adjacency(len(adj), [(perm[u], perm[v]) for u, v in edges_of(adj)])


def random_connected(rng: random.Random, n: int, density: float) -> list[int]:
    """A connected graph with round(density * n(n-1)/2) edges (at least a
    spanning tree): random attachment tree, then uniform extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    want = max(n - 1, round(density * n * (n - 1) / 2))
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(missing, want - len(edges)))
    return adjacency(n, sorted(edges))


def hypercube(d: int) -> list[int]:
    n = 1 << d
    return adjacency(n, [(v, v ^ 1 << b) for v in range(n) for b in range(d) if v < v ^ 1 << b])


def grid(rows: int, cols: int) -> list[int]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return adjacency(rows * cols, edges)

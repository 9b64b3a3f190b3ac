"""Immutable simple graphs on at most 64 vertices, with bitset vertex sets.

Vertices are the integers ``0 .. n-1`` and every vertex set (neighborhoods,
blue sets, leak sets, forts) is a single machine word, so set algebra is
constant time and iteration order is always ascending.  That fixed order is
what makes every witness produced by the solvers reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import _core

MAX_VERTICES = 64


def _check_order(n: int) -> None:
    """Reject a vertex count outside the capacity before anything is built."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _check_budget(ell: int) -> None:
    """Reject a leak budget that is not a non-negative int, a bool included."""
    if isinstance(ell, bool) or not isinstance(ell, int):
        raise TypeError(f"leak budget must be an int, got {ell!r}")
    if ell < 0:
        raise ValueError("leak budget must be non-negative")


def _check_workers(workers: int) -> None:
    """Reject a worker count that is not an int of at least 1, a bool included."""
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _bits_ascending(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """An immutable set of vertices drawn from a universe ``0 .. n-1``.

    Backed by an integer bitmask; iteration is ascending by vertex index.
    """

    __slots__ = ("mask", "n")

    def __init__(self, n: int, vertices: Iterable[int] = ()) -> None:
        _check_order(n)
        mask = 0
        for v in vertices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside [0, {n})")
            mask |= 1 << v
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "VertexSet":
        _check_order(n)
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} has bits outside [0, {n})")
        self = cls.__new__(cls)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    def __reduce__(self):
        return (VertexSet.from_mask, (self.n, self.mask))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits_ascending(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.mask == other.mask and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.mask, self.n))

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self)) + "}"

    def _check_universe(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets live in different universes")

    def union(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet.from_mask(self.n, self.mask | other.mask)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet.from_mask(self.n, self.mask & other.mask)

    def difference(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet.from_mask(self.n, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        """All vertices of the universe not in this set."""
        full = (1 << self.n) - 1
        return VertexSet.from_mask(self.n, full & ~self.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check_universe(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check_universe(other)
        return self.mask & other.mask == 0

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __le__ = issubset


@dataclass(frozen=True, slots=True)
class Graph:
    """A simple undirected graph: one neighborhood mask per vertex, so the
    row count is the vertex count ``n``.  Construction copies the adjacency
    into a tuple and validates symmetry and loop-freeness, so every reachable
    instance is a valid graph.
    """

    adj: tuple[int, ...]
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "adj", tuple(self.adj))
        object.__setattr__(self, "n", len(self.adj))
        _check_order(self.n)
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"neighborhood of {v} leaves [0, {self.n})")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(self.adj):
            for u in _bits_ascending(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v},{u})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ``n`` vertices, isolated ones included, with ``edges``."""
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) leaves [0, {n})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(adj)

    def vertex_set(self) -> VertexSet:
        return VertexSet.from_mask(self.n, (1 << self.n) - 1)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside [0, {self.n})")

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return VertexSet.from_mask(self.n, self.adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as (u, v) with u < v, ascending."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in _bits_ascending(rest):
                out.append((u, v))
        return out

    def num_edges(self) -> int:
        return sum(self.degrees()) // 2


def _mask(g: Graph, vs: VertexSet) -> int:
    """The mask of ``vs``, checked to be a vertex set of ``g``."""
    if vs.n != g.n:
        raise ValueError(f"vertex set on {vs.n} vertices does not match a graph on {g.n}")
    return vs.mask


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """The same graph minus one edge; the result may be disconnected."""
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) not present")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(tuple(adj))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product with vertex (a, b) labeled a*|V(h)| + b.

    (a,b) ~ (a',b') iff a = a' and b ~ b', or b = b' and a ~ a'.
    """
    n = g.n * h.n
    _check_order(n)
    adj = [0] * n
    for a in range(g.n):
        for b in range(h.n):
            x = a * h.n + b
            row = 0
            for b2 in _bits_ascending(h.adj[b]):
                row |= 1 << (a * h.n + b2)
            for a2 in _bits_ascending(g.adj[a]):
                row |= 1 << (a2 * h.n + b)
            adj[x] = row
    return Graph(adj)


def connected_components(g: Graph) -> list[VertexSet]:
    """Maximal connected vertex sets, ordered by their minimum vertex."""
    return [VertexSet.from_mask(g.n, comp) for comp, _ in _core.components(g.adj, (1 << g.n) - 1)]


def induced_subgraph(g: Graph, vs: VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vs`` relabeled to 0..k-1 in ascending order.

    Returns the subgraph and the tuple mapping new index -> original vertex.
    """
    mask = _mask(g, vs)
    keep = list(vs)
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for i, v in enumerate(keep):
        for u in _bits_ascending(g.adj[v] & mask):
            adj[i] |= 1 << index[u]
    return Graph(adj), tuple(keep)


def relabel(g: Graph, perm: dict[int, int] | list[int]) -> Graph:
    """Apply a vertex permutation: new label of v is perm[v]."""
    lookup = perm if isinstance(perm, dict) else {v: p for v, p in enumerate(perm)}
    if sorted(lookup) != list(range(g.n)) or sorted(lookup.values()) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex range")
    return Graph.from_edges(g.n, [(lookup[u], lookup[v]) for u, v in g.edges()])

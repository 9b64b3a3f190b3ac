"""Parameterized graph family generators with fixed vertex numbering.

The numbering conventions are part of the public contract (witnesses refer
to them):

* path/cycle: consecutive along the walk;
* wheel n: rim cycle 0..n-1, hub = vertex n (n + 1 vertices total);
* complete_bipartite m n: parts {0..m-1} and {m..m+n-1};
* star n: complete_bipartite 1 n (center 0);
* hypercube d: vertices are the length-d binary strings read as integers,
  adjacent iff they differ in exactly one coordinate;
* grid n m: vertex (i, j) -> i*m + j;
* petersen_gp n 1: outer cycle 0..n-1, inner cycle n..2n-1, spokes i ~ n+i
  (the prism over an n-cycle);
* tree_from_pruefer: standard Pruefer decode over vertices 0..k+1 for a
  sequence of length k;
* fig3_spider: the 7-vertex spider with path 0-1-2-3 and leaves 4, 5, 6
  attached at vertex 3.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass

from .graphs import Graph, _check_order, cartesian_product

_DECIMAL = re.compile("0|-?[1-9][0-9]*")


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus integer parameters, e.g. ('path', (5,)).  A
    parameter that is a bool or not an int raises TypeError."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family {self.kind!r}")
        for p in self.params:
            if isinstance(p, bool) or not isinstance(p, int):
                raise TypeError(f"family parameter must be an int, got {p!r}")
        arity = _FAMILIES[self.kind][1]
        if arity is not None and len(self.params) != arity:
            raise ValueError(
                f"family {self.kind} takes {arity} parameter(s), got {len(self.params)}"
            )

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse the colon-joined CLI form, e.g. 'grid:4:4'.  A parameter is
        spelled as ``str`` spells an int: ASCII digits with no leading zero,
        space, underscore or plus sign, so ``str`` of the result gives
        ``text`` back.  A negative one parses, and its generator rejects it."""
        kind, *fields = text.split(":")
        for field in fields:
            if not _DECIMAL.fullmatch(field):
                raise ValueError(f"bad family parameters in {text!r}: {field!r} is not a decimal as str spells it")
        return cls(kind, tuple(map(int, fields)))

    def __str__(self) -> str:
        return ":".join([self.kind, *map(str, self.params)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    _check_order(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_order(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete needs n >= 1")
    _check_order(n)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def wheel(n: int) -> Graph:
    if n < 3:
        raise ValueError("wheel needs rim size n >= 3")
    _check_order(n + 1)
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]
    return Graph.from_edges(n + 1, edges)


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete_bipartite needs m, n >= 1")
    _check_order(m + n)
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star(n: int) -> Graph:
    return complete_bipartite(1, n)


def hypercube(d: int) -> Graph:
    if d < 0:
        raise ValueError("hypercube needs d >= 0")
    if d > 6:
        raise ValueError(f"hypercube dimension {d} exceeds the 64-vertex capacity")
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]
    return Graph.from_edges(n, edges)


def grid(n: int, m: int) -> Graph:
    if n < 1 or m < 1:
        raise ValueError("grid needs n, m >= 1")
    _check_order(n * m)
    return cartesian_product(path(n), path(m))


def petersen_gp(n: int, k: int = 1) -> Graph:
    if k != 1:
        raise ValueError("only petersen_gp(n, 1) (the prism) is supported")
    if n < 3:
        raise ValueError("petersen_gp needs n >= 3")
    _check_order(2 * n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Graph.from_edges(2 * n, edges)


def tree_from_pruefer(seq: tuple[int, ...]) -> Graph:
    """Decode a Pruefer sequence into the labeled tree on len(seq)+2 vertices."""
    n = len(seq) + 2
    _check_order(n)
    if any(not 0 <= s < n for s in seq):
        raise ValueError(f"sequence entries must lie in [0, {n})")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def fig3_spider() -> Graph:
    return Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])


# kind -> (builder, parameter count); None marks the one variadic builder,
# which takes its parameters as one tuple
_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "wheel": (wheel, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star, 1),
    "hypercube": (hypercube, 1),
    "grid": (grid, 2),
    "petersen_gp": (petersen_gp, 2),
    "tree_from_pruefer": (tree_from_pruefer, None),
    "fig3_spider": (fig3_spider, 0),
}


def generate(spec: FamilySpec) -> Graph:
    builder, arity = _FAMILIES[spec.kind]
    return builder(spec.params) if arity is None else builder(*spec.params)

"""Leak-robust psd forts: obstructions that certify lower bounds.

A fort (at leak budget ell) is a nonempty vertex set F such that within
each connected component of the subgraph induced on F, at most ell outside
vertices have exactly one neighbor inside that component.  An adversary can
leak those few threatening vertices of one component, after which nothing
inside it can ever be forced, so every ell-leaky psd forcing set must meet
every fort.  Conversely the non-blue remainder of any stalled closure is
such a fort, which makes minimum fort hitting sets an independent route to
the forcing number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _core
from .errors import AuditFailure, GuardError
from .graph6 import to_graph6
from .graphs import Graph, VertexSet, _bits_ascending

ENUMERATION_GUARD = 20  # fort families grow exponentially with the order


@dataclass(frozen=True)
class Fort:
    """A vertex set certified against the fort predicate at budget ``ell``."""

    vertices: VertexSet
    ell: int


@dataclass(frozen=True)
class FortFamily:
    """Inclusion-minimal forts, pairwise incomparable, in lexicographic
    order of their vertex lists."""

    forts: tuple[Fort, ...]

    def __iter__(self) -> Iterator[Fort]:
        return iter(self.forts)

    def __len__(self) -> int:
        return len(self.forts)


def is_leaky_psd_fort(g: Graph, vertices: VertexSet, ell: int) -> bool:
    """Evaluate the fort predicate (see module docstring) on one set.

    The per-component count condition ("at most ell outside vertices with
    exactly one neighbor inside") absorbs the friendlier-sounding
    alternative "every outside vertex has zero or at least two neighbors
    inside": under that alternative the count is 0 <= ell, and conversely
    any vertex violating it is exactly one the count charges.  At a budget
    of zero this is the classical psd fort.  The kernel rejects a negative
    ``ell`` (ValueError).
    """
    if vertices.n != g.n:
        raise ValueError("vertex set does not match the graph")
    if not vertices:
        raise ValueError("a fort must be nonempty")
    return _core.is_fort_mask(g.n, g.adj, vertices.mask, ell)


def _check_guard(g: Graph, ell: int, max_vertices: int) -> None:
    if ell < 0:
        raise ValueError("leak budget must be non-negative")
    if g.n > max_vertices:
        raise GuardError(
            f"fort enumeration on {g.n} vertices exceeds the guard "
            f"({max_vertices}); pass max_vertices to override"
        )


def minimal_forts(g: Graph, ell: int, *, max_vertices: int = ENUMERATION_GUARD) -> FortFamily:
    """All inclusion-minimal forts at budget ``ell``, in lexicographic order
    of their vertex lists.

    Minimal forts are connected, and a connected set is a fort iff at most
    ``ell`` outside vertices have exactly one neighbor in it; the kernel
    grows connected candidates by branching on those threatening vertices
    (see ``_pykernel.minimal_fort_masks``).  Guarded, because a family can
    grow exponentially with the order.
    """
    _check_guard(g, ell, max_vertices)
    masks = sorted(_core.minimal_fort_masks(g.n, g.adj, ell), key=lambda m: list(_bits_ascending(m)))
    return FortFamily(tuple(Fort(VertexSet.from_mask(g.n, m), ell) for m in masks))


def fort_from_failure(g: Graph, blue: VertexSet, leaks: VertexSet) -> Fort:
    """Extract the fort left behind by a stalled closure.

    The non-blue remainder of the closure of (blue, leaks) under the psd
    rule must satisfy the fort predicate at budget |leaks|; if it does not,
    the identity this package relies on is broken on this instance, which
    is raised as an AuditFailure rather than ignored.
    """
    if blue.n != g.n or leaks.n != g.n:
        raise ValueError("state does not match the graph")
    full = (1 << g.n) - 1
    final = _core.closure_mask(g.n, g.adj, blue.mask, leaks.mask, False)
    if final == full:
        raise ValueError("closure colors every vertex; there is no fort to extract")
    remainder = VertexSet.from_mask(g.n, full & ~final)
    ell = len(leaks)
    if not _core.is_fort_mask(g.n, g.adj, remainder.mask, ell):
        raise AuditFailure(
            "stalled closure remainder is not a fort",
            {
                "kind": "fort-extraction",
                "graph6": to_graph6(g),
                "blue": list(blue),
                "leaks": list(leaks),
                "remainder": list(remainder),
                "ell": ell,
            },
        )
    return Fort(remainder, ell)


def hitting_number(
    g: Graph, ell: int, *, max_vertices: int = ENUMERATION_GUARD
) -> tuple[int, VertexSet]:
    """Minimum size of a set meeting every fort, with its first witness.

    Every fort contains a minimal fort (strip vertices while the predicate
    holds; the descent is finite), so hitting the minimal family hits them
    all and the optimum over minimal forts is the optimum over all forts.
    The kernel's branch and bound (``_pykernel.min_hitting_set``) returns
    the lexicographically first optimal witness.
    """
    _check_guard(g, ell, max_vertices)
    masks = _core.minimal_fort_masks(g.n, g.adj, ell)
    size, witness = _core.min_hitting_set(g.n, masks)
    return size, VertexSet.from_mask(g.n, witness)


def is_connected_fort_standard(g: Graph, fort: Fort) -> bool:
    """Whether the fort induces a connected subgraph.

    A connected fort is at the same time a fort for the standard rule at
    the same budget, since there is only one component for outside vertices
    to threaten.
    """
    if fort.vertices.n != g.n:
        raise ValueError("fort does not match the graph")
    return len(_core.components(g.n, g.adj, fort.vertices.mask)) <= 1


def fort_family_json_lines(g: Graph, family: FortFamily) -> list[str]:
    """One JSON object per fort: vertices (ascending), ell, connected."""
    import json

    return [
        json.dumps(
            {
                "vertices": list(f.vertices),
                "ell": f.ell,
                "connected": is_connected_fort_standard(g, f),
            },
            separators=(",", ":"),
        )
        for f in family
    ]

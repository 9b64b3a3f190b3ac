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

from . import _core
from .errors import AuditFailure, GuardError
from .graph6 import _finding_graph
from .graphs import Graph, VertexSet, _bits_ascending, _check_budget, _mask

ENUMERATION_GUARD = 20  # fort families grow exponentially with the order


def is_leaky_psd_fort(g: Graph, vertices: VertexSet, ell: int) -> bool:
    """Evaluate the fort predicate (see module docstring) on one set.

    The per-component count condition ("at most ell outside vertices with
    exactly one neighbor inside") absorbs the friendlier-sounding
    alternative "every outside vertex has zero or at least two neighbors
    inside": under that alternative the count is 0 <= ell, and conversely
    any vertex violating it is exactly one the count charges.  At a budget
    of zero this is the classical psd fort.  A bool or non-int ``ell``
    raises TypeError, a negative one ValueError.
    """
    _check_budget(ell)
    mask = _mask(g, vertices)
    if not mask:
        raise ValueError("a fort must be nonempty")
    return _core.is_fort_mask(g.adj, mask, ell)


def _check_guard(g: Graph, ell: int, max_vertices: int) -> None:
    """Reject a bad budget, then a guard that is not a non-negative int (a
    bool included), then a graph above the guard."""
    _check_budget(ell)
    if isinstance(max_vertices, bool) or not isinstance(max_vertices, int):
        raise TypeError(f"max_vertices must be an int, got {max_vertices!r}")
    if max_vertices < 0:
        raise ValueError(f"max_vertices must be non-negative, got {max_vertices}")
    if g.n > max_vertices:
        raise GuardError(
            f"fort enumeration on {g.n} vertices exceeds the guard "
            f"({max_vertices}); pass max_vertices to override"
        )


def minimal_forts(
    g: Graph, ell: int, *, max_vertices: int = ENUMERATION_GUARD
) -> tuple[VertexSet, ...]:
    """All inclusion-minimal forts at budget ``ell``, pairwise incomparable,
    in lexicographic order of their vertex lists.

    Minimal forts are connected, and a connected set is a fort iff at most
    ``ell`` outside vertices have exactly one neighbor in it; the kernel
    grows candidates by branching on those threatening vertices, or on the
    neighbors of a candidate's component that has the fewest (see
    ``_pykernel.minimal_fort_masks``).  Guarded, because a family can grow
    exponentially with the order.
    """
    _check_guard(g, ell, max_vertices)
    masks = sorted(_core.minimal_fort_masks(g.adj, ell), key=lambda m: list(_bits_ascending(m)))
    return tuple(VertexSet.from_mask(g.n, m) for m in masks)


def fort_from_failure(g: Graph, blue: VertexSet, leaks: VertexSet) -> VertexSet:
    """Extract the fort left behind by a stalled closure.

    Returns the non-blue remainder of the closure of (blue, leaks) under the
    psd rule, a fort at budget |leaks|.  If it fails the fort predicate,
    the identity this package relies on is broken on this instance, which
    is raised as an AuditFailure rather than ignored.
    """
    full = (1 << g.n) - 1
    final = _core.closure_mask(g.adj, _mask(g, blue), _mask(g, leaks), False)
    if final == full:
        raise ValueError("closure colors every vertex; there is no fort to extract")
    remainder = VertexSet.from_mask(g.n, full & ~final)
    ell = len(leaks)
    if not _core.is_fort_mask(g.adj, remainder.mask, ell):
        raise AuditFailure(
            "stalled closure remainder is not a fort",
            {
                "kind": "fort-extraction",
                **_finding_graph(g),
                "blue": list(blue),
                "leaks": list(leaks),
                "remainder": list(remainder),
                "ell": ell,
            },
        )
    return remainder


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
    masks = _core.minimal_fort_masks(g.adj, ell)
    size, witness = _core.min_hitting_set(masks)
    return size, VertexSet.from_mask(g.n, witness)


def is_connected_fort_standard(g: Graph, fort: VertexSet) -> bool:
    """Whether the fort induces a connected subgraph.

    A connected fort is at the same time a fort for the standard rule at
    the same budget, since there is only one component for outside vertices
    to threaten.
    """
    return len(_core.components(g.adj, _mask(g, fort))) <= 1

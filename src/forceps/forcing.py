"""Forcing processes on graphs, with and without leaks.

Two color change rules are supported.  Under the standard rule a blue
vertex forces its unique non-blue neighbor.  Under the positive
semidefinite (psd) rule the non-blue vertices are first split into the
connected components of the graph minus the blue set, and a blue vertex may
force within each component separately: it forces the unique non-blue
neighbor it has in that component, if there is exactly one.

A leak is a vertex that can never perform a force; it can still be forced
blue.  A set is an ell-leaky forcing set when it colors the whole graph for
every placement of ell leaks, leaks on initially blue vertices included.
Closures are applied round-simultaneously, which fixes a canonical
chronology; the final blue set itself is order independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from . import _core
from .graphs import Graph, VertexSet, _bits_ascending, _check_budget, _mask


class Rule(Enum):
    standard = "standard"
    psd = "psd"


def _standard(rule: Rule) -> bool:
    """The kernel's ``standard`` flag for ``rule``, which must be a Rule member."""
    if not isinstance(rule, Rule):
        raise TypeError(f"rule must be a Rule member, got {rule!r}")
    return rule is Rule.standard


@dataclass(frozen=True)
class Force:
    """A single force along the edge source -> target."""

    source: int
    target: int

    def __str__(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass(frozen=True)
class ColoringState:
    """A blue vertex set plus a leak vertex set over one graph.

    The two sets may intersect: a blue leak is colored but never forces.
    """

    blue: VertexSet
    leaks: VertexSet

    def __post_init__(self):
        self.blue._check_universe(self.leaks)


@dataclass(frozen=True)
class LeakyVerdict:
    """Outcome of an adversarial leak-placement test.

    ``witness_leaks`` is the lexicographically first failing placement when
    ``ok`` is false, and None when ``ok`` is true.
    """

    ok: bool
    witness_leaks: VertexSet | None = None

    def __bool__(self) -> bool:
        return self.ok


def _valid_forces(g: Graph, blue: int, leaks: int, standard: bool) -> Iterator[tuple[int, int]]:
    """Every (source, target) pair valid in the state of masks ``blue`` and
    ``leaks``; within each part the sources come in ascending order."""
    sources = blue & ~leaks
    white = (1 << g.n) - 1 & ~blue
    # the standard rule is the psd rule with the white vertices as one part
    # whose boundary holds every source
    parts = [(white, -1)] if standard else _core.components(g.adj, white)
    for comp, boundary in parts:
        for u in _bits_ascending(sources & boundary):
            nb = g.adj[u] & comp
            if nb and nb & (nb - 1) == 0:
                yield u, nb.bit_length() - 1


def force_candidates(g: Graph, state: ColoringState, rule: Rule) -> frozenset[Force]:
    """Every force valid in the given state (before any is applied)."""
    blue = _mask(g, state.blue)
    return frozenset(Force(u, v) for u, v in _valid_forces(g, blue, state.leaks.mask, _standard(rule)))


def closure(
    g: Graph, state: ColoringState, rule: Rule
) -> tuple[VertexSet, tuple[tuple[int, Force], ...]]:
    """Run the forcing process to its fixed point.

    Each round gathers all currently valid forces, keeps the smallest
    (source, target) pair per target, and applies them simultaneously.
    Returns the final blue set and the chronology of applied forces: the
    ordered (round, force) steps, with rounds numbered from 1 and every
    target appearing exactly once.
    """
    blue = _mask(g, state.blue)
    standard = _standard(rule)
    steps: list[tuple[int, Force]] = []
    rnd = 0
    while True:
        # a target lies in one part, whose sources come in ascending order,
        # so the first pair per target has its smallest source
        per_target: dict[int, int] = {}
        for u, v in _valid_forces(g, blue, state.leaks.mask, standard):
            per_target.setdefault(v, u)
        if not per_target:
            return VertexSet.from_mask(g.n, blue), tuple(steps)
        rnd += 1
        for t in sorted(per_target):
            steps.append((rnd, Force(per_target[t], t)))
            blue |= 1 << t


def is_forcing_set(g: Graph, state: ColoringState, rule: Rule) -> bool:
    """Does the closure of this state color every vertex?"""
    blue = _mask(g, state.blue)
    final = _core.closure_mask(g.adj, blue, state.leaks.mask, _standard(rule))
    return final == (1 << g.n) - 1


def is_ell_leaky_forcing_set(
    g: Graph,
    blue: VertexSet,
    ell: int,
    rule: Rule = Rule.psd,
) -> LeakyVerdict:
    """Test ``blue`` against every placement of ``ell`` leaks.

    Placements range over all vertices, blue ones included, and are scanned
    in lexicographic order; on failure the first failing placement is
    returned as the witness.  A leak matters only on a vertex that forces:
    if the closure under a leak set S colors the graph and a placement L
    containing S adds no vertex that forced in that closure (per target the
    smallest source, as in ``closure``), the same forces replay under L, so
    L forces the graph too.  The kernel certifies most placements this way,
    running a closure only for the chain of sets S it walks up to each
    placement, and gives the same verdict and witness as running one
    closure per placement.  A bool or non-int ``ell`` raises TypeError, a
    negative one ValueError; one beyond the vertex count is clamped.
    """
    _check_budget(ell)
    fail, _ = _core.first_failing_leaks(g.adj, _mask(g, blue), ell, _standard(rule))
    if fail < 0:
        return LeakyVerdict(True, None)
    return LeakyVerdict(False, VertexSet.from_mask(g.n, fail))


def possible_forces(g: Graph, blue: VertexSet) -> frozenset[Force]:
    """All psd forces realizable in some sequence of valid forces from
    ``blue`` (leak free).

    The kernel primitive ``_core.realizable_forcers`` gives the forcers of
    every white vertex in one call: per target, it reads off who can force
    the target in the closure with the target barred from ever being
    colored, the unique maximal state reachable without coloring it, and it
    takes every barred closure from one chronological closure.
    """
    mask = _mask(g, blue)
    masks = _core.realizable_forcers(g.adj, mask, (1 << g.n) - 1 & ~mask)
    return frozenset(Force(u, v) for v, row in enumerate(masks) for u in _bits_ascending(row))


def distinct_forcers(g: Graph, blue: VertexSet, v: int) -> int:
    """Number of distinct vertices that can realizably force ``v``."""
    mask = _mask(g, blue)
    g._check_vertex(v)
    if v in blue:
        raise ValueError(f"vertex {v} is already blue; it has no forcers")
    return _core.realizable_forcers(g.adj, mask, 1 << v)[v].bit_count()


def one_leaky_criterion(g: Graph, blue: VertexSet) -> bool:
    """Robustness against a single leak, decided without leak enumeration.

    True iff ``blue`` forces the graph leak-free and every non-blue vertex
    can be forced by two distinct vertices.  Two independent forcers mean
    no single leak can cut off a target, and the condition is also
    necessary, so this agrees with the exhaustive one-leak test.  The
    forcers come from the kernel primitive ``_core.realizable_forcers``,
    which gives a vertex the closure never colors no forcer, so a set that
    does not force the graph fails the count too.
    """
    mask = _mask(g, blue)
    white = (1 << g.n) - 1 & ~mask
    masks = _core.realizable_forcers(g.adj, mask, white)
    return all(masks[v].bit_count() >= 2 for v in _bits_ascending(white))

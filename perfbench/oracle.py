"""Reference answers for the queries workload.

Written from the definitions in the forcing module's docstrings and sharing
no code with forceps: the psd rule lets a non-leaked blue vertex force the
unique neighbour it has in a component of the non-blue vertices.  Rounds are
simultaneous and each target keeps its smallest source, which is the
chronology ``forceps.closure`` documents.  Graphs are lists of neighbourhood
bitmasks.
"""

from __future__ import annotations

from itertools import combinations


def _components(adj: list[int], inside: int) -> list[int]:
    comps = []
    rest = inside
    while rest:
        comp = todo = rest & -rest
        while todo:
            low = todo & -todo
            todo ^= low
            new = adj[low.bit_length() - 1] & inside & ~comp
            comp |= new
            todo |= new
        comps.append(comp)
        rest &= ~comp
    return comps


def _round(adj: list[int], blue: int, leaks: int, barred: int) -> dict[int, int]:
    """Forces valid in this state, as target -> smallest source."""
    out: dict[int, int] = {}
    n = len(adj)
    sources = [u for u in range(n) if blue >> u & 1 and not leaks >> u & 1]
    for comp in _components(adj, ((1 << n) - 1) & ~blue):
        for u in sources:
            hit = adj[u] & comp
            if hit and hit & (hit - 1) == 0 and not hit & barred:
                out.setdefault(hit.bit_length() - 1, u)
    return out


def chronology(adj: list[int], blue: int, leaks: int = 0, barred: int = 0):
    """Final blue mask and the (round, source, target) steps that reach it."""
    steps = []
    rnd = 0
    while True:
        forces = _round(adj, blue, leaks, barred)
        if not forces:
            return blue, tuple(steps)
        rnd += 1
        for t in sorted(forces):
            steps.append((rnd, forces[t], t))
            blue |= 1 << t


def first_failing(adj: list[int], blue: int, ell: int) -> int:
    """Mask of the lexicographically first ell-leak placement whose closure
    misses a vertex, or -1 when every placement forces the graph."""
    n = len(adj)
    full = (1 << n) - 1
    for combo in combinations(range(n), min(ell, n)):
        leaks = sum(1 << v for v in combo)
        if chronology(adj, blue, leaks)[0] != full:
            return leaks
    return -1


def possible_forces(adj: list[int], blue: int) -> tuple[tuple[int, int], ...]:
    """Every force (source, target) realizable from ``blue`` without leaks.

    Colouring never hurts a force into a vertex that stays white, so the
    forces into v are read off the largest state that keeps v white.
    """
    n = len(adj)
    out = []
    for v in range(n):
        if blue >> v & 1:
            continue
        final, _ = chronology(adj, blue, 0, 1 << v)
        comp = next(c for c in _components(adj, ((1 << n) - 1) & ~final) if c >> v & 1)
        out.extend((u, v) for u in range(n) if final >> u & 1 and adj[u] & comp == 1 << v)
    return tuple(sorted(out))

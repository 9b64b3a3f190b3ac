"""Brute-force reference implementations used as independent oracles.

Everything here applies one force at a time and enumerates rather than
prunes.  No code is shared with the package kernels; agreement between the
two routes is what the property suites check.  The oracles work on plain
Python sets and dict adjacency, except async_closure_mask, which takes masks
like the kernel closure it is compared with over every state of the small
atlas graphs, and reference_leak_scan, the kernel's certified leak scan as it
was before its closures resumed from shared rounds: it runs every chain
node's closure from the start with the kernel's own closure, so that the two
scans can be compared in leaks and in closures run.
"""

from __future__ import annotations

from itertools import combinations

from forceps import Graph, Rule
from forceps._core import _pykernel


def _adj_sets(g: Graph) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _components_of(adj, inside: set[int]) -> list[set[int]]:
    comps = []
    todo = set(inside)
    while todo:
        start = min(todo)
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x] & inside:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        comps.append(comp)
        todo -= comp
    return comps


def valid_forces(g: Graph, blue: frozenset, leaks: frozenset, rule: Rule) -> list[tuple[int, int]]:
    adj = _adj_sets(g)
    white = set(range(g.n)) - blue
    out = []
    sources = sorted(blue - leaks)
    if rule is Rule.standard:
        for u in sources:
            non_blue = adj[u] & white
            if len(non_blue) == 1:
                out.append((u, next(iter(non_blue))))
    else:
        for comp in _components_of(adj, white):
            for u in sources:
                hits = adj[u] & comp
                if len(hits) == 1:
                    out.append((u, next(iter(hits))))
    return out


def naive_closure(g: Graph, blue: frozenset, leaks: frozenset, rule: Rule) -> frozenset:
    """Apply the first valid force repeatedly until none remain."""
    blue = frozenset(blue)
    while True:
        forces = valid_forces(g, blue, leaks, rule)
        if not forces:
            return blue
        blue |= {forces[0][1]}


_MASK64 = (1 << 64) - 1


def _bits(mask: int) -> list[int]:
    """Single-vertex masks of ``mask``, ascending."""
    out = []
    while mask:
        out.append(mask & -mask)
        mask &= mask - 1
    return out


def _forceable(n: int, adj, blue: int, leaks: int, standard: bool) -> list[int]:
    """Single-vertex masks of the vertices some valid force would color next,
    ascending."""
    white = ((1 << n) - 1) & ~blue
    parts = [white]  # where a forcer must see exactly one white vertex
    if not standard:  # psd: each component of the white vertices
        parts, rest = [], white
        while rest:
            part, frontier = 0, rest & -rest
            while frontier:
                part |= frontier
                for low in _bits(frontier):
                    frontier |= adj[low.bit_length() - 1] & white
                frontier &= ~part
            parts.append(part)
            rest &= ~part
    targets = 0
    for low in _bits(blue & ~leaks):
        for part in parts:
            hits = adj[low.bit_length() - 1] & part
            if hits and hits & (hits - 1) == 0:
                targets |= hits
    return _bits(targets)


def async_closure_mask(g: Graph, blue: int, leaks: int, standard: bool, seed: int) -> int:
    """Closure by applying one pseudo-randomly chosen valid force at a time.

    The draw is xorshift64* seeded from ``seed``; the result must equal the
    kernel's round-simultaneous closure whatever the order.
    """
    state = (seed ^ 0x9E3779B97F4A7C15) & _MASK64 or 1
    while True:
        targets = _forceable(g.n, g.adj, blue, leaks, standard)
        if not targets:
            return blue
        state ^= state >> 12
        state = (state ^ (state << 25)) & _MASK64
        state ^= state >> 27
        draw = (state * 0x2545F4914F6CDD1D) & _MASK64
        blue |= targets[draw % len(targets)]


def naive_is_ell_leaky(g: Graph, blue: frozenset, ell: int, rule: Rule) -> tuple[bool, tuple | None]:
    """Exhaust every leak placement; returns (ok, first failing placement)."""
    ell = min(ell, g.n)
    everything = frozenset(range(g.n))
    for combo in combinations(range(g.n), ell):
        if naive_closure(g, blue, frozenset(combo), rule) != everything:
            return False, combo
    return True, None


def naive_leaky_number(g: Graph, ell: int, rule: Rule) -> tuple[int, tuple]:
    """Smallest working set by scanning every subset, smallest first."""
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            ok, _ = naive_is_ell_leaky(g, frozenset(combo), ell, rule)
            if ok:
                return k, combo
    raise AssertionError("the full vertex set always forces")


def naive_possible_forces(g: Graph, blue: frozenset) -> set[tuple[int, int]]:
    """Every force appearing in some sequence of valid psd forces from
    ``blue``, by depth-first search over reachable colorings."""
    memo: dict[frozenset, set] = {}

    def explore(state: frozenset) -> set:
        if state in memo:
            return memo[state]
        memo[state] = set()
        out: set[tuple[int, int]] = set()
        for u, v in valid_forces(g, state, frozenset(), Rule.psd):
            out.add((u, v))
            out |= explore(state | {v})
        memo[state] = out
        return out

    return explore(frozenset(blue))


def naive_is_fort(g: Graph, vertices: set[int], ell: int) -> bool:
    adj = _adj_sets(g)
    outside = set(range(g.n)) - set(vertices)
    for comp in _components_of(adj, set(vertices)):
        threats = sum(1 for v in outside if len(adj[v] & comp) == 1)
        if threats > ell:
            return False
    return True


def naive_is_connected(g: Graph, vertices: set[int]) -> bool:
    """Whether ``vertices`` induce a connected subgraph (the empty set does not)."""
    return len(_components_of(_adj_sets(g), set(vertices))) == 1


def naive_is_standard_fort(g: Graph, vertices: set[int], ell: int) -> bool:
    """Whole-set fort test of the standard rule: at most ``ell`` outside
    vertices have exactly one neighbor in the set, whatever its components."""
    adj = _adj_sets(g)
    inside = set(vertices)
    threats = sum(1 for v in range(g.n) if v not in inside and len(adj[v] & inside) == 1)
    return threats <= ell


def naive_minimal_forts(g: Graph, ell: int) -> list[frozenset]:
    forts = []
    for k in range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if naive_is_fort(g, set(combo), ell):
                forts.append(frozenset(combo))
    return sorted(
        (f for f in forts if not any(o < f for o in forts)),
        key=lambda f: tuple(sorted(f)),
    )


def naive_hitting_number(fort_sets: list[frozenset], n: int) -> tuple[int, tuple]:
    if not fort_sets:
        return 0, ()
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            chosen = set(combo)
            if all(chosen & f for f in fort_sets):
                return k, combo
    raise AssertionError("the full vertex set hits everything")


def reference_leak_scan(adj, blue: int, ell: int, standard: bool) -> tuple[int, int]:
    """first_failing_leaks's (leaks or -1, closures run), each chain node's
    closure run from ``blue`` (see _pykernel._scan)."""
    n = len(adj)
    ell = min(ell, n)
    full = (1 << n) - 1
    reach, root = _pykernel._closure(n, adj, blue, 0, standard)
    if reach != full:
        return (1 << ell) - 1, 1
    if ell == 0:
        return -1, 1
    closures = 1
    known: dict[int, int] = {}  # chain node -> its forcers, nodes below size ell

    def walk(lmask, s, forcers):
        nonlocal closures
        while x := lmask & ~s & forcers:
            s |= x & -x
            forcers = known.get(s, -1)
            if forcers < 0:
                closures += 1
                reach, forcers = _pykernel._closure(n, adj, blue, s, standard)
                if reach != full:
                    return s, forcers, False
                if s.bit_count() < ell:
                    known[s] = forcers
        return s, forcers, True

    for pmask, rest in _pykernel._prefixes(full, ell - 1, 0):
        s, forcers, ok = walk(pmask, 0, root)
        if not ok:
            return pmask | rest & -rest, closures
        rest &= forcers
        while rest:
            low = rest & -rest
            rest ^= low
            if not walk(pmask | low, s, forcers)[2]:
                return pmask | low, closures
    return -1, closures

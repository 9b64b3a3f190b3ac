"""Pure Python forcing kernels over bitmask graphs.

This module is the reference twin of the C kernel: same public functions,
same argument conventions, same results and error types, bit for bit.
Graphs arrive as a vertex count ``n`` plus a sequence of at least ``n``
neighborhood masks; vertex sets are plain ints over ``0 .. n-1``.  A mask
argument outside ``[0, 2**64)`` raises OverflowError, and one naming a
vertex at or above ``n`` raises ValueError.

Rules: ``standard=True`` lets a non-leaked blue vertex force its unique
non-blue neighbor; ``standard=False`` (positive semidefinite) lets it force
within each connected component of the non-blue vertices separately, i.e.
whenever exactly one of its non-blue neighbors lies in that component.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

BACKEND = "python"
# Bumped whenever results or work counters change; _core refuses a compiled
# twin whose version differs.
KERNEL_VERSION = 2

_CUTS = 64  # fort cuts one search_min_superset call keeps


def _check_mask(n, mask) -> None:
    if not 0 <= mask < 1 << 64:
        raise OverflowError("mask outside [0, 2**64)")
    if mask >> n:
        raise ValueError(f"mask has a vertex outside [0, {n})")


def components(n, adj, inside) -> list[tuple[int, int]]:
    """Connected components of the subgraph induced on ``inside``.

    Returns (component_mask, boundary_mask) pairs in ascending order of
    minimum vertex.  The boundary of a component is the set of its
    neighbors outside ``inside``.  ``n`` is the vertex count: ``inside``
    must lie in ``[0, n)``.
    """
    _check_mask(n, inside)
    return _components(adj, inside)


def _components(adj, inside) -> list[tuple[int, int]]:
    comps = []
    rest = inside
    while rest:
        seed = rest & -rest
        comp = 0
        reach = 0
        frontier = seed
        while frontier:
            comp |= frontier
            grow = 0
            f = frontier
            while f:
                low = f & -f
                grow |= adj[low.bit_length() - 1]
                f ^= low
            reach |= grow
            frontier = grow & inside & ~comp
        comps.append((comp, reach & ~inside))
        rest &= ~comp
    return comps


def _round_targets(adj, blue, leaks, standard, white) -> int:
    """Mask of all vertices forceable in one simultaneous round."""
    newly = 0
    sources = blue & ~leaks
    if standard:
        s = sources
        while s:
            low = s & -s
            s ^= low
            nb = adj[low.bit_length() - 1] & white
            if nb and nb & (nb - 1) == 0:
                newly |= nb
    else:
        for comp, boundary in _components(adj, white):
            s = sources & boundary
            while s:
                low = s & -s
                s ^= low
                nb = adj[low.bit_length() - 1] & comp
                if nb and nb & (nb - 1) == 0:
                    newly |= nb
    return newly


def closure_mask(n, adj, blue, leaks, standard, barred=0) -> int:
    """Fixed point of round-simultaneous forcing; ``barred`` vertices are
    never colored (used to enumerate realizable forces)."""
    for mask in (blue, leaks, barred):
        _check_mask(n, mask)
    return _closure(n, adj, blue, leaks, standard, barred)


def _closure(n, adj, blue, leaks, standard, barred=0) -> int:
    full = (1 << n) - 1
    while True:
        white = full & ~blue
        if not white:
            return blue
        newly = _round_targets(adj, blue, leaks, standard, white) & ~barred
        if not newly:
            return blue
        blue |= newly


def _failing_leaks(n, adj, blue, ell, standard) -> tuple[int, int, int]:
    """First size-``ell`` leak placement in lexicographic order whose
    closure of ``blue`` misses a vertex: (leaks, that closure, closures run).
    When every placement forces the graph, leaks is -1 and the closure is
    the full mask."""
    full = (1 << n) - 1
    closures = 0
    for combo in combinations(range(n), ell):
        lmask = 0
        for v in combo:
            lmask |= 1 << v
        closures += 1
        reach = _closure(n, adj, blue, lmask, standard)
        if reach != full:
            return lmask, reach, closures
    return -1, full, closures


def first_failing_leaks(n, adj, blue, ell, standard) -> tuple[int, int]:
    """Lexicographically first size-``ell`` leak placement whose closure
    misses a vertex, or -1 if none exists.  Second item counts closures run.

    If the leak-free closure already fails, every placement fails and the
    first one in order is {0, ..., ell-1}.
    """
    if ell < 0:
        raise ValueError("leak budget must be non-negative")
    _check_mask(n, blue)
    ell = min(ell, n)
    if _closure(n, adj, blue, 0, standard) != (1 << n) - 1:
        return (1 << ell) - 1, 1
    if ell == 0:
        return -1, 1
    leaks, _, closures = _failing_leaks(n, adj, blue, ell, standard)
    return leaks, 1 + closures


def _cut(n, adj, cand, ell, standard) -> tuple[int, int]:
    """(cut, closures run): the vertices outside the first failing closure
    of ``cand``, leak-free and then under each leak placement in order, or
    0 when ``cand`` forces the graph under every placement."""
    full = (1 << n) - 1
    reach = _closure(n, adj, cand, 0, standard)
    if reach != full or ell == 0:
        return full & ~reach, 1
    _, reach, closures = _failing_leaks(n, adj, cand, ell, standard)
    return full & ~reach, 1 + closures


def search_min_superset(
    n, adj, core, k, ell, standard, first_free=None, max_candidates=-1
) -> tuple[int, int, int]:
    """Scan size-``k`` supersets of ``core`` in lexicographic order and
    return the first that forces the graph under every ``ell``-leak
    placement, or -1.  Returns (mask, candidates_tested, closures_run).

    ``first_free`` (a tuple of non-core vertices) positions the scan for
    range sharding; it raises ValueError unless it names ``k - |core|``
    vertices in ``[0, n)`` outside the core.  A positive
    ``max_candidates`` caps how many sets are tested.

    Fort cuts.  When a candidate fails, its failing closure ``reach``
    (leak-free, or under the first failing leak placement L) is a fixed
    point under L.  Coloring more vertices blue never shrinks a closure, so
    every set inside ``reach`` stalls inside ``reach`` under L and fails
    too: ``full & ~reach`` is a cut that every surviving candidate hits.
    One call keeps its last 64 cuts (a fixed number), newest first, and
    starts with none, so a shard's counts depend only on its range.  Per
    prefix (every position but the last) the cuts the prefix misses are
    ANDed into ``need``; a closure runs only for a last vertex in ``need``,
    and each new cut is ANDed in.  A skipped candidate still counts as
    tested, and against ``max_candidates``.
    """
    if ell < 0:
        raise ValueError("leak budget must be non-negative")
    _check_mask(n, core)
    ell = min(ell, n)
    full = (1 << n) - 1
    free = [v for v in range(n) if not core >> v & 1]
    j = k - core.bit_count()
    if j < 0 or j > len(free):
        return -1, 0, 0
    pos = {v: i for i, v in enumerate(free)}
    if first_free is None:
        idx = list(range(j))
    else:
        if len(first_free) != j:
            raise ValueError(f"first_free must name {j} vertices")
        for v in first_free:
            if v not in pos:
                raise ValueError(f"vertex {v} is not outside the core")
        idx = [pos[v] for v in first_free]
    if j == 0:
        cut, closures = _cut(n, adj, core, ell, standard)
        return (-1 if cut else core), 1, closures
    m = len(free)
    free_mask = full & ~core
    cuts: deque[int] = deque(maxlen=_CUTS)
    candidates = 0
    closures = 0
    while True:
        prefix = core
        for i in idx[:-1]:
            prefix |= 1 << free[i]
        need = full
        for cut in cuts:
            if not prefix & cut:
                need &= cut
        p = idx[-1]
        while p < m:
            # the first last vertex at or after position p inside need
            hits = need & free_mask & -(1 << free[p])
            q = pos[(hits & -hits).bit_length() - 1] if hits else m
            candidates += q - p
            if 0 < max_candidates <= candidates:
                return -1, max_candidates, closures
            if q == m:
                break
            candidates += 1
            cand = prefix | 1 << free[q]
            cut, c = _cut(n, adj, cand, ell, standard)
            closures += c
            if not cut:
                return cand, candidates, closures
            if candidates == max_candidates:
                return -1, candidates, closures
            need &= cut
            cuts.appendleft(cut)
            p = q + 1
        # next prefix: advance the combination with its last position spent
        idx[-1] = m - 1
        i = j - 1
        while i >= 0 and idx[i] == m - j + i:
            i -= 1
        if i < 0:
            return -1, candidates, closures
        idx[i] += 1
        for t in range(i + 1, j):
            idx[t] = idx[t - 1] + 1


def is_fort_mask(n, adj, fort, ell) -> bool:
    """Fort test: within each component of the induced subgraph on ``fort``,
    at most ``ell`` outside vertices may have exactly one neighbor inside."""
    _check_mask(n, fort)
    return _is_fort(adj, fort, ell)


def _is_fort(adj, fort, ell) -> bool:
    for comp, boundary in _components(adj, fort):
        cnt = 0
        b = boundary
        while b:
            low = b & -b
            b ^= low
            nb = adj[low.bit_length() - 1] & comp
            if nb and nb & (nb - 1) == 0:
                cnt += 1
                if cnt > ell:
                    return False
    return True


def minimal_fort_masks(n, adj, ell) -> list[int]:
    """All inclusion-minimal fort masks, found by scanning subsets in
    ascending cardinality then lexicographic order and skipping supersets
    of anything already found."""
    found: list[int] = []
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if any(f & mask == f for f in found):
                continue
            if _is_fort(adj, mask, ell):
                found.append(mask)
    return found

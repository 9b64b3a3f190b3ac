"""Pure Python forcing kernels over bitmask graphs.

This module is the reference twin of the C kernel: same public functions,
same argument conventions, same results and error types, bit for bit.
Graphs arrive as a vertex count ``n`` plus a sequence of at least ``n``
neighborhood masks; vertex sets are plain ints over ``0 .. n-1``.

Rules: ``standard=True`` lets a non-leaked blue vertex force its unique
non-blue neighbor; ``standard=False`` (positive semidefinite) lets it force
within each connected component of the non-blue vertices separately, i.e.
whenever exactly one of its non-blue neighbors lies in that component.
"""

from __future__ import annotations

from itertools import combinations

BACKEND = "python"


def components(n, adj, inside) -> list[tuple[int, int]]:
    """Connected components of the subgraph induced on ``inside``.

    Returns (component_mask, boundary_mask) pairs in ascending order of
    minimum vertex.  The boundary of a component is the set of its
    neighbors outside ``inside``.  ``n`` is the vertex count: the C twin
    copies the first ``n`` rows of ``adj`` and needs it; here it only keeps
    the signatures equal.
    """
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


def _round_targets(n, adj, blue, leaks, standard, white) -> int:
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
        for comp, boundary in components(n, adj, white):
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
    full = (1 << n) - 1
    while True:
        white = full & ~blue
        if not white:
            return blue
        newly = _round_targets(n, adj, blue, leaks, standard, white) & ~barred
        if not newly:
            return blue
        blue |= newly


def first_failing_leaks(n, adj, blue, ell, standard) -> tuple[int, int]:
    """Lexicographically first size-``ell`` leak placement whose closure
    misses a vertex, or -1 if none exists.  Second item counts closures run.

    If the leak-free closure already fails, every placement fails and the
    first one in order is {0, ..., ell-1}.
    """
    if ell < 0:
        raise ValueError("leak budget must be non-negative")
    ell = min(ell, n)
    full = (1 << n) - 1
    closures = 1
    if closure_mask(n, adj, blue, 0, standard) != full:
        return (1 << ell) - 1, closures
    if ell == 0:
        return -1, closures
    for combo in combinations(range(n), ell):
        lmask = 0
        for v in combo:
            lmask |= 1 << v
        closures += 1
        if closure_mask(n, adj, blue, lmask, standard) != full:
            return lmask, closures
    return -1, closures


def search_min_superset(
    n, adj, core, k, ell, standard, first_free=None, max_candidates=-1
) -> tuple[int, int, int]:
    """Scan size-``k`` supersets of ``core`` in lexicographic order and
    return the first that forces the graph under every ``ell``-leak
    placement, or -1.  Returns (mask, candidates_tested, closures_run).

    ``first_free`` (a tuple of non-core vertices) positions the scan for
    range sharding; it raises ValueError unless it names ``k - |core|``
    vertices in ``[0, n)`` outside the core.  ``max_candidates`` caps how
    many sets are tested.
    """
    if ell < 0:
        raise ValueError("leak budget must be non-negative")
    ell = min(ell, n)
    full = (1 << n) - 1
    free = [v for v in range(n) if not core >> v & 1]
    j = k - core.bit_count()
    if j < 0 or j > len(free):
        return -1, 0, 0
    if first_free is None:
        idx = list(range(j))
    else:
        if len(first_free) != j:
            raise ValueError(f"first_free must name {j} vertices")
        pos = {v: i for i, v in enumerate(free)}
        for v in first_free:
            if v not in pos:
                raise ValueError(f"vertex {v} is not outside the core")
        idx = [pos[v] for v in first_free]
    m = len(free)
    candidates = 0
    closures = 0
    while True:
        cand = core
        for i in idx:
            cand |= 1 << free[i]
        candidates += 1
        closures += 1
        if closure_mask(n, adj, cand, 0, standard) == full:
            ok = True
            if ell > 0:
                for combo in combinations(range(n), ell):
                    lmask = 0
                    for v in combo:
                        lmask |= 1 << v
                    closures += 1
                    if closure_mask(n, adj, cand, lmask, standard) != full:
                        ok = False
                        break
            if ok:
                return cand, candidates, closures
        if candidates == max_candidates:
            return -1, candidates, closures
        # next combination of positions
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
    for comp, boundary in components(n, adj, fort):
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
            if is_fort_mask(n, adj, mask, ell):
                found.append(mask)
    return found

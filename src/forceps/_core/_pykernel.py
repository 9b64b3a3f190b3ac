"""Pure Python forcing kernels over bitmask graphs.

This module is the reference twin of the C kernel: same public functions,
same argument conventions, same results and error types, bit for bit.
Graphs arrive as a vertex count ``n`` in ``[0, 64]`` (else ValueError)
plus a sequence of at least ``n`` neighborhood masks (else IndexError);
vertex sets are plain ints over ``0 .. n-1``.  A mask argument outside
``[0, 2**64)`` raises OverflowError, one naming a vertex at or above ``n``
raises ValueError, and so does a negative leak budget.  Arguments are
checked in order: graph, masks, leak budget.

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
KERNEL_VERSION = 6

_CUTS = 64  # fort cuts one search_min_superset call keeps


def _check_graph(n, adj) -> None:
    if not 0 <= n <= 64:
        raise ValueError("vertex count outside [0, 64]")
    if len(adj) < n:
        raise IndexError("adjacency shorter than the vertex count")


def _check_ell(ell) -> None:
    if ell < 0:
        raise ValueError("leak budget must be non-negative")


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
    _check_graph(n, adj)
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


def _round(adj, blue, leaks, standard, white, barred) -> tuple[int, int]:
    """One simultaneous round: (targets, forcers).  The targets are the
    vertices outside ``barred`` that some non-leaked blue vertex forces; the
    forcers hold, per target, the smallest source forcing it, the source
    forcing.closure keeps in its chronology."""
    hit = barred
    forcers = 0
    sources = blue & ~leaks
    # the standard rule is the psd rule with the white vertices as one part
    # whose boundary holds every source
    parts = [(white, -1)] if standard else _components(adj, white)
    for comp, boundary in parts:
        s = sources & boundary
        while s:
            low = s & -s
            s ^= low
            nb = adj[low.bit_length() - 1] & comp
            if nb and nb & (nb - 1) == 0 and not nb & hit:
                hit |= nb
                forcers |= low
    return hit & ~barred, forcers


def closure_mask(n, adj, blue, leaks, standard, barred=0) -> int:
    """Fixed point of round-simultaneous forcing; ``barred`` vertices are
    never colored (used to enumerate realizable forces)."""
    _check_graph(n, adj)
    for mask in (blue, leaks, barred):
        _check_mask(n, mask)
    return _closure(n, adj, blue, leaks, standard, barred)[0]


def _closure(n, adj, blue, leaks, standard, barred=0) -> tuple[int, int]:
    """(fixed point, forcers of every round)."""
    full = (1 << n) - 1
    forcers = 0
    while True:
        white = full & ~blue
        if not white:
            return blue, forcers
        newly, f = _round(adj, blue, leaks, standard, white, barred)
        if not newly:
            return blue, forcers
        blue |= newly
        forcers |= f


def _scan(n, adj, blue, ell, standard) -> tuple[int, int, int]:
    """(leaks, reach, closures run): the lexicographically first size-``ell``
    leak placement whose closure of ``blue`` misses a vertex, or -1, and
    the closure of a failing S inside it, or the full mask.  If the
    leak-free closure already fails, every placement fails and the first
    one is {0, ..., ell-1}.

    Certification.  Let S be a set of leaks whose closure is the full
    graph, with forcers F(S) (per target the smallest source that forced it
    in its round).  A placement L containing S with (L - S) & F(S) empty
    has the same closure: round by round the blue set is the same, every
    force valid under L is valid under S (L has fewer sources), and every
    recorded force stays valid because its source is not in L.  So each
    placement, in lexicographic order, walks a chain from S = {}: while
    (L - S) & F(S) is nonempty, S gains its lowest vertex and closure(S) is
    looked up or run.  L is certified once (L - S) & F(S) is empty; L
    fails as soon as some S inside it fails, since a closure never grows
    when more vertices leak.  Chain nodes smaller than ``ell`` are memoized
    for the whole call; a node of size ``ell`` is L itself and is met once.
    Only closures run count, so the count is at most 1 + C(n, ell).

    Placements sharing their first ``ell - 1`` vertices P share the start
    of their chains: P's vertices are the lowest of each, so the chain
    takes them first, until (P - S) & F(S) is empty.  From there a last
    vertex outside F(S) certifies its placement at once, and only the last
    vertices inside F(S) walk on."""
    full = (1 << n) - 1
    reach, root = _closure(n, adj, blue, 0, standard)
    if reach != full:
        return (1 << ell) - 1, reach, 1
    if ell == 0:
        return -1, full, 1
    closures = 1
    known: dict[int, int] = {}  # chain node -> its forcers, nodes below size ell
    for prefix in combinations(range(n - 1), ell - 1):
        pmask = 0
        for v in prefix:
            pmask |= 1 << v
        first = 1 << prefix[-1] + 1 if prefix else 1  # the lowest last vertex
        s, forcers, reach, c = _walk(n, adj, blue, ell, standard, pmask, 0, root, known)
        closures += c
        if reach != full:
            return pmask | first, reach, closures
        rest = forcers & -first
        while rest:
            low = rest & -rest
            rest ^= low
            _, _, reach, c = _walk(n, adj, blue, ell, standard, pmask | low, s, forcers, known)
            closures += c
            if reach != full:
                return pmask | low, reach, closures
    return -1, full, closures


def _walk(n, adj, blue, ell, standard, lmask, s, forcers, known) -> tuple[int, int, int, int]:
    """Walk the chain of ``lmask`` on from node ``s``, whose forcers are
    ``forcers``: (last node, its forcers, its closure, closures run).  The
    walk stops when ``lmask - s`` meets no forcer or a node's closure
    misses a vertex; each step adds a vertex of ``lmask`` to ``s``."""
    full = (1 << n) - 1
    closures = 0
    while x := lmask & ~s & forcers:
        s |= x & -x
        forcers = known.get(s, -1)
        if forcers < 0:
            closures += 1
            reach, forcers = _closure(n, adj, blue, s, standard)
            if reach != full:
                return s, forcers, reach, closures
            if s.bit_count() < ell:
                known[s] = forcers
    return s, forcers, full, closures


def first_failing_leaks(n, adj, blue, ell, standard) -> tuple[int, int]:
    """Lexicographically first size-``ell`` leak placement whose closure
    misses a vertex, or -1 if none exists.  Second item counts closures run.

    If the leak-free closure already fails, every placement fails and the
    first one in order is {0, ..., ell-1}.  Otherwise most placements are
    certified from the forcers of smaller leak sets inside them, without a
    closure of their own (see _scan); the answer is the one an exhaustive
    scan of all C(n, ell) placements gives.
    """
    _check_graph(n, adj)
    _check_mask(n, blue)
    _check_ell(ell)
    leaks, _, closures = _scan(n, adj, blue, min(ell, n), standard)
    return leaks, closures


def _cut(n, adj, cand, ell, standard) -> tuple[int, int]:
    """(cut, closures run): the vertices outside closure(S) for the failing
    chain node S inside the first failing placement L of ``cand`` (S is
    empty when the leak-free closure fails), or 0 when ``cand`` forces the
    graph under every placement.  closure(S) is a fixed point under S, and
    so under L, which has fewer sources; every set inside it therefore
    stalls inside it under L, and no further closure runs on L."""
    _, reach, closures = _scan(n, adj, cand, ell, standard)
    return (1 << n) - 1 & ~reach, closures


def search_min_superset(n, adj, core, free, k, ell, standard) -> tuple[int, int, int]:
    """Scan the sets of ``core`` plus ``k - |core|`` vertices of ``free`` in
    lexicographic order and return the first that forces the graph under
    every ``ell``-leak placement, or -1.  Returns (mask, candidates_tested,
    closures_run).  Core vertices inside ``free`` are ignored, so
    ``full & ~core`` scans every size-``k`` superset of ``core``; a smaller
    ``free`` scans one piece of that range (see ``solve._pieces``).

    Fort cuts.  When a candidate fails, the leak scan stops at a failing
    chain node S inside the first failing placement L (S is empty when the
    leak-free closure fails) and returns reach = closure(S).  It is a fixed
    point under S, and so under L, whose sources are fewer.  Coloring more
    vertices blue never shrinks a closure, so every set inside ``reach``
    stalls inside ``reach`` under L and fails too: ``full & ~reach`` is a
    cut that every surviving candidate hits.  Since S lies inside L,
    closure(S) contains closure(L), and this cut is never larger than the
    one closure(L) would give.  One call keeps its last 64 cuts (a fixed
    number), newest first, and starts with none, so a piece's counts
    depend only on its own candidates.  As in the leak scan (see _scan),
    the prefixes P are the (j-1)-combinations of the free vertices but the
    last, and the last vertices are the mask ``rest`` of free vertices
    above P.  The cuts P misses are ANDed into ``need``; a closure runs
    only for a last vertex in ``rest & need``, taken by lowest bit, and
    each new cut is ANDed in.  A skipped candidate still counts as tested.
    """
    _check_graph(n, adj)
    _check_mask(n, core)
    _check_mask(n, free)
    _check_ell(ell)
    ell = min(ell, n)
    full = (1 << n) - 1
    free_mask = free & ~core
    free = [v for v in range(n) if free_mask >> v & 1]
    j = k - core.bit_count()
    if j < 0 or j > len(free):
        return -1, 0, 0
    if j == 0:
        cut, closures = _cut(n, adj, core, ell, standard)
        return (-1 if cut else core), 1, closures
    cuts: deque[int] = deque(maxlen=_CUTS)
    candidates = 0
    closures = 0
    for prefix in combinations(free[:-1], j - 1):
        pmask = core
        for v in prefix:
            pmask |= 1 << v
        need = full
        for cut in cuts:
            if not pmask & cut:
                need &= cut
        first = 1 << prefix[-1] + 1 if prefix else 1
        rest = free_mask & -first  # the free vertices above P
        while hits := rest & need:
            low = hits & -hits
            candidates += (rest & low - 1).bit_count() + 1
            rest &= -(low << 1)
            cand = pmask | low
            cut, c = _cut(n, adj, cand, ell, standard)
            closures += c
            if not cut:
                return cand, candidates, closures
            need &= cut
            cuts.appendleft(cut)
        candidates += rest.bit_count()
    return -1, candidates, closures


def is_fort_mask(n, adj, fort, ell) -> bool:
    """Fort test: within each component of the induced subgraph on ``fort``,
    at most ``ell`` outside vertices may have exactly one neighbor inside."""
    _check_graph(n, adj)
    _check_mask(n, fort)
    _check_ell(ell)
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


def _set_order(mask) -> tuple[int, int]:
    """Sort key: size, then ascending vertex list (a set whose lowest vertex
    outside the other set is smaller comes first)."""
    return mask.bit_count(), -int(f"{mask:064b}"[::-1], 2)


def minimal_fort_masks(n, adj, ell) -> list[int]:
    """All inclusion-minimal fort masks, by size and then by ascending
    vertex list.

    Soundness.  Every component of a fort is a fort on its own (the
    predicate is judged per component), so a minimal fort is connected, and
    a connected set F is a fort iff its threat set T(F), the outside
    vertices with exactly one neighbor in F, has at most ``ell`` members.

    Search.  Each vertex v, in descending order, seeds a branching search
    over (IN, OUT) with IN = {v} and OUT = {0, ..., v-1}; it finds the
    minimal forts whose lowest vertex is v.  ``once`` and ``twice`` (the
    vertices with at least one, and at least two, neighbors in IN) are kept
    incrementally, so T(IN) = once & ~twice & ~IN.

    - |T(IN)| <= ell and IN connected: IN is a fort; it is recorded and
      nothing larger is searched.
    - |T(IN)| <= ell and IN disconnected: branch on each neighbor of v's
      component outside IN and OUT, adding it to OUT after its branch.
      IN is never a fort here.  Its other components lie above v, and each
      component of a fort is a fort, which holds a minimal fort of a higher
      seed; the pruning rule below stopped the branch when that fort's last
      vertex joined IN.
    - |T(IN)| > ell: a threat u stays a threat of any superset that
      contains neither u nor another neighbor of u, so its fixes are
      ({u} | N(u)) minus IN and OUT.  A threat without fixes is permanent;
      more than ``ell`` of those end the branch.  Otherwise some one of any
      ell + 1 - (permanent) live threats must be fixed; those threats,
      fewest fixes first, are branched in turn over their fixes (each fix
      joins OUT after its branch), and each threat is then made permanent
      (OUT gains u and its neighbors outside IN) before the next.

    Completeness.  For a minimal fort M with lowest vertex v, some branch
    path keeps IN within M and OUT disjoint from M while each step adds a
    vertex of M: a connected M reaches v's component through a neighbor of
    it; a live threat set of size ell + 1 - (permanent) holds one that M
    fixes, and the first such threat's first fix inside M is taken after
    only vertices outside M joined OUT.  No stop rule fires on a proper
    subset of M, so the path reaches IN = M and records it.

    Pruning.  A branch stops as soon as IN contains a fort recorded from a
    higher seed (checked for the forts holding the vertex just added): a
    minimal fort holding IN would properly contain that fort.  A fort
    recorded earlier from the same seed holds a vertex that has since
    joined OUT, so it is never inside IN.  Recorded sets are connected
    forts; once a seed is done, those containing another fort of the same
    seed (found later) are dropped, and the rest are minimal.
    """
    _check_graph(n, adj)
    _check_ell(ell)
    found: list[int] = []
    holding: list[list[int]] = [[] for _ in range(n)]  # per vertex, forts of higher seeds
    for v in range(n - 1, -1, -1):
        bit = 1 << v
        seeded: list[int] = []
        _grow_fort(adj, ell, v, bit, bit - 1, adj[v], 0, seeded, holding)
        seeded.sort(key=int.bit_count)
        for i, f in enumerate(seeded):
            if any(m & f == m for m in seeded[:i]):
                continue
            found.append(f)
            rest = f
            while rest:
                low = rest & -rest
                holding[low.bit_length() - 1].append(f)
                rest ^= low
    found.sort(key=_set_order)
    return found


def _grow_fort(adj, ell, x, inside, out, once, twice, found, holding) -> None:
    """Record the minimal forts M with ``inside`` <= M and M & ``out`` empty,
    where ``x`` is the vertex that joined ``inside`` last (see
    minimal_fort_masks for the rules)."""
    for f in holding[x]:
        if not f & ~inside:
            return
    threats = once & ~twice & ~inside
    if threats.bit_count() <= ell:
        comps = _components(adj, inside)
        if len(comps) == 1:
            found.append(inside)
            return
        grow = comps[0][1] & ~out
        while grow:
            low = grow & -grow
            y = low.bit_length() - 1
            nb = adj[y]
            _grow_fort(adj, ell, y, inside | low, out, once | nb, twice | once & nb, found, holding)
            out |= low
            grow ^= low
        return
    permanent = 0
    live = []
    while threats:
        low = threats & -threats
        threats ^= low
        u = low.bit_length() - 1
        fixes = (low | adj[u]) & ~inside & ~out
        if fixes:
            live.append((fixes.bit_count(), u))
        else:
            permanent += 1
    if permanent > ell:
        return
    live.sort()
    for _, u in live[:ell + 1 - permanent]:
        near = (1 << u | adj[u]) & ~inside
        fixes = near & ~out
        while fixes:
            low = fixes & -fixes
            y = low.bit_length() - 1
            nb = adj[y]
            _grow_fort(adj, ell, y, inside | low, out, once | nb, twice | once & nb, found, holding)
            out |= low
            fixes ^= low
        out |= near


def min_hitting_set(n, masks) -> tuple[int, int]:
    """(size, mask) of a smallest vertex set meeting every nonempty mask in
    ``masks``; among the smallest, the one whose ascending vertex list is
    lexicographically first.  An empty family gives (0, 0).

    Branch and bound: branch on the first unhit mask in the given order
    (callers pass the smallest first), one branch per vertex of it, and ban
    the vertices of the earlier branches in the later ones.  Every hitting
    set H is reached through the branch of the first vertex of H in each
    branch mask, so the branches partition the search and no set is
    visited twice.  A branch is pruned when a mask has only banned
    vertices left, or when its size plus a greedy packing of pairwise
    disjoint unhit masks (banned vertices removed) exceeds the best size
    found; equal sizes are kept, so every optimum is seen and the
    lexicographically first one is returned.
    """
    if not 0 <= n <= 64:
        raise ValueError("vertex count outside [0, 64]")
    for m in masks:
        _check_mask(n, m)
        if not m:
            raise ValueError("a set to hit must be nonempty")
    best = [n + 1, 0]
    _hit(list(masks), 0, 0, best)
    return best[0], best[1]


def _hit(unhit, chosen, size, best) -> None:
    if not unhit:
        d = chosen ^ best[1]
        if size < best[0] or size == best[0] and d & -d & chosen:
            best[0], best[1] = size, chosen
        return
    used = 0
    bound = size
    for m in unhit:
        if not m:
            return
        if not m & used:
            used |= m
            bound += 1
    if bound > best[0]:
        return
    branch = unhit[0]
    banned = 0
    while branch:
        low = branch & -branch
        _hit([m & ~banned for m in unhit if not m & low], chosen | low, size + 1, best)
        banned |= low
        branch ^= low

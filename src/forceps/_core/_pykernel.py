"""Pure Python forcing kernels over bitmask graphs.

This module is the reference twin of the C kernel: its functions have the
same argument conventions, results and error types, bit for bit.  It holds
every kernel function; the C twin has all but ``closure_mask`` and
``is_fort_mask``, which no timed caller uses.
A graph arrives as a sequence of at most 64 neighborhood masks, one per
vertex (else ValueError); its length is the vertex count ``n``, and vertex
sets are plain ints over ``0 .. n-1``.  A mask argument outside
``[0, 2**64)`` raises OverflowError, one naming a vertex at or above ``n``
raises ValueError, and so does a negative leak budget; a budget above ``n``,
of any size, is clamped to ``n``.  Arguments are checked in order: graph,
masks, leak budget, then the cuts ``deletion_values`` is offered.
``min_hitting_set`` takes masks alone, with no graph: they are their own
universe, any vertex below 64.

Rules: ``standard=True`` lets a non-leaked blue vertex force its unique
non-blue neighbor; ``standard=False`` (positive semidefinite) lets it force
within each connected component of the non-blue vertices separately, i.e.
whenever exactly one of its non-blue neighbors lies in that component.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice

BACKEND = "python"
# Bumped whenever results, work counters or signatures change; _core refuses
# a compiled twin whose version differs.
KERNEL_VERSION = 15

_CUTS = 256  # fort cuts one search keeps


def _check_count(n) -> int:
    if not 0 <= n <= 64:
        raise ValueError("vertex count outside [0, 64]")
    return n


def _check_ell(ell) -> None:
    if ell < 0:
        raise ValueError("leak budget must be non-negative")


def _check_mask(n, mask) -> None:
    if not 0 <= mask < 1 << 64:
        raise OverflowError("mask outside [0, 2**64)")
    if mask >> n:
        raise ValueError(f"mask has a vertex outside [0, {n})")


def components(adj, inside) -> list[tuple[int, int]]:
    """Connected components of the subgraph induced on ``inside``.

    Returns (component_mask, boundary_mask) pairs in ascending order of
    minimum vertex.  The boundary of a component is the set of its
    neighbors outside ``inside``, which must lie in ``[0, len(adj))``.
    """
    _check_mask(_check_count(len(adj)), inside)
    return _components(adj, inside)


def _components(adj, inside) -> list[tuple[int, int]]:
    comps = []
    rest = inside
    while rest:
        comp, reach, _, _ = _grow(adj, inside, rest & -rest)
        comps.append((comp, reach & ~inside))
        rest &= ~comp
    return comps


def _grow(adj, inside, seed) -> tuple[int, int, int, int]:
    """(part, one, two, three): the part of ``inside`` that ``seed``, a
    vertex bit or a mask, reaches (all of ``seed`` when it is ``inside``),
    and the vertices with at least one, two and three neighbors in it,
    counted in bit-slices.  ``one`` is the part's reach, the union of its
    neighborhoods.  Outside the part, ``one & ~two`` has exactly one
    neighbor in it: the sources that force into it, a fort's threats."""
    part = one = two = three = 0
    frontier = seed
    while frontier:
        part |= frontier
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nb = adj[bit.bit_length() - 1]
            three |= two & nb
            two |= one & nb
            one |= nb
        frontier = one & inside & ~part
    return part, one, two, three


def _round(adj, blue, leaks, standard, white, barred) -> tuple[int, int]:
    """One simultaneous round: (targets, forcers).  The targets are the
    vertices outside ``barred`` that some non-leaked blue vertex forces; the
    forcers hold, per target, the smallest source forcing it, the source
    forcing.closure keeps in its chronology.

    A source forces within a white part exactly when it has one neighbor
    there, so only the sources in _grow's ``one & ~two`` are visited, in
    ascending order; a target already hit keeps its first, so smallest,
    forcer.  The standard rule is the psd rule with all of ``white`` as one
    part; a psd part is the white component of the lowest vertex left."""
    hit = barred
    forcers = 0
    sources = blue & ~leaks
    rest = white
    while rest:
        comp, one, two, _ = _grow(adj, rest, rest if standard else rest & -rest)
        rest &= ~comp
        s = sources & one & ~two
        while s:
            low = s & -s
            s ^= low
            nb = adj[low.bit_length() - 1] & comp
            if not nb & hit:
                hit |= nb
                forcers |= low
    return hit & ~barred, forcers


def closure_mask(adj, blue, leaks, standard) -> int:
    """Fixed point of round-simultaneous forcing."""
    n = _check_count(len(adj))
    for mask in (blue, leaks):
        _check_mask(n, mask)
    return _closure(n, adj, blue, leaks, standard)[0]


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


def realizable_forcers(adj, blue, targets) -> tuple[int, ...]:
    """Per vertex v, the vertices that force v in some valid leak-free psd
    sequence of forces from ``blue``, as a mask: a tuple of ``n`` masks,
    where entry v is 0 unless v is in ``targets`` and outside ``blue``.

    Barred closures.  A force u -> v valid in a state S stays valid in every
    state S' containing S with v outside it: u is still blue, and v's white
    component in S' lies inside the one in S, so v is still u's only white
    neighbor there.  So the closure with v barred (never colored) colors
    every vertex that some sequence avoiding v colors, and is itself
    reached by one: it is the unique maximal state reached without coloring
    v.  u forces v in some sequence iff that force is valid in some state
    reached without coloring v, iff it is valid in this barred closure.

    One closure for all targets.  Run the plain closure round by round from
    B_0 = ``blue``; B_r is the state after round r.  A round's targets do
    not depend on the bar, which only keeps barred vertices uncolored.
    - If v is never colored, no round targets v, so every round runs the
      same with v barred and the barred closure is the plain one.  It is a
      fixed point, where no force is valid: v has no forcer and gets 0.
    - If round r colors v, rounds 1 .. r-1 run the same with v barred, and
      round r colors the same targets but v.  So the barred closure is the
      closure of B_r - {v} with v barred, and v's white component in it
      comes from one search from v.
    The rounds stop once every target is colored or the closure stalls.
    """
    n = _check_count(len(adj))
    _check_mask(n, blue)
    _check_mask(n, targets)
    full = (1 << n) - 1
    out = [0] * n
    want = targets & ~blue
    while want:
        newly, _ = _round(adj, blue, 0, False, full & ~blue, 0)
        if not newly:
            break
        blue |= newly
        hit = newly & want
        want ^= hit
        while hit:
            bit = hit & -hit
            hit ^= bit
            final, _ = _closure(n, adj, blue ^ bit, 0, False, bit)
            _, one, two, _ = _grow(adj, full & ~final, bit)
            v = bit.bit_length() - 1
            out[v] = adj[v] & final & one & ~two  # v is their one white neighbor in v's part
    return tuple(out)


def _prefixes(vs, k, base):
    """For each ``k``-subset P of the vertices of ``vs`` but its highest, in
    lexicographic order: (``base | P``, the vertices of ``vs`` above P).
    The leak scan and the search walk placements and candidates this way:
    a prefix, then a last vertex from the mask above it."""
    if k == 0:
        yield base, vs
        return
    below = [1 << v for v in range(vs.bit_length() - 1) if vs >> v & 1]
    for p in map(sum, combinations(below, k)):  # a sum of distinct bits is their union
        yield base | p, vs & -(1 << p.bit_length())


def _rounds(n, adj, state, forcers, leaks, standard, rounds) -> tuple[int, int]:
    """Run the closure on from ``state``, whose earlier rounds' forcers are
    ``forcers``: (fixed point, forcers of every round).  ``rounds`` gains
    one (state before, forcers before, own forcers) per round run."""
    full = (1 << n) - 1
    while True:
        white = full & ~state
        if not white:
            return state, forcers
        newly, own = _round(adj, state, leaks, standard, white, 0)
        if not newly:
            return state, forcers
        rounds.append((state, forcers, own))
        state |= newly
        forcers |= own


def _scan(n, adj, blue, vs, ell, standard) -> tuple[int, int, int]:
    """(leaks, reach, closures run): the lexicographically first size-``ell``
    leak placement inside ``vs`` whose closure of ``blue`` misses a vertex,
    or -1, and the closure of a failing S inside it, or the full mask.
    ``ell`` is at most the size of ``vs``.  If the leak-free closure already
    fails, every placement fails and the first one is the lowest ``ell``
    vertices of ``vs``.

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
    Only closures run count, so the count is at most 1 + C(|vs|, ell).

    Placements sharing their first ``ell - 1`` vertices P (see _prefixes)
    share the start of their chains: P's vertices are the lowest of each,
    so the chain takes them first, until (P - S) & F(S) is empty.  From
    there a last vertex outside F(S) certifies its placement at once, and
    only the last vertices inside F(S) walk on.

    Resumed closures.  Each chain node keeps its rounds (see _rounds).
    A step from S to S + x, x a forcer of S, runs the same rounds as S's
    up to the first round in which x forced: in an earlier round x forced
    no target, so every target there keeps its smallest forcer, which is
    not x and not in S, and the round's targets and forcers are S's.  So
    the closure of S + x starts from that round's state and forcers, and
    still counts as one closure.  The C twin runs each closure from
    ``blue``: its rounds are cheap, and the memo would need a round
    history per node."""
    full = (1 << n) - 1
    rounds: list[tuple[int, int, int]] = []
    reach, forcers = _rounds(n, adj, blue, 0, 0, standard, rounds)
    if reach != full:
        leaks = 0
        for _ in range(ell):
            leaks |= vs & ~leaks & -(vs & ~leaks)
        return leaks, reach, 1
    if ell == 0:
        return -1, full, 1
    closures = 1
    root = forcers, rounds
    known: dict[int, tuple] = {}  # chain node -> its forcers and rounds, nodes below size ell
    for pmask, rest in _prefixes(vs, ell - 1, 0):
        s, node, reach, c = _walk(n, adj, ell, standard, pmask, 0, root, known)
        closures += c
        if reach != full:
            return pmask | rest & -rest, reach, closures
        rest &= node[0]
        while rest:
            low = rest & -rest
            rest ^= low
            _, _, reach, c = _walk(n, adj, ell, standard, pmask | low, s, node, known)
            closures += c
            if reach != full:
                return pmask | low, reach, closures
    return -1, full, closures


def _walk(n, adj, ell, standard, lmask, s, node, known) -> tuple[int, tuple | None, int, int]:
    """Walk the chain of ``lmask`` on from node ``s``, whose forcers and
    rounds are ``node``: (last node, its forcers and rounds, its closure,
    closures run).  The walk stops when ``lmask - s`` meets no forcer or a
    node's closure misses a vertex; each step adds a vertex of ``lmask`` to
    ``s`` and resumes from the rounds of the node before (see _scan).  A
    node of size ``ell`` is the placement itself, where the walk ends: only
    its closure is read, so it keeps no rounds and its node is None."""
    full = (1 << n) - 1
    closures = 0
    forcers, rounds = node
    while x := lmask & ~s & forcers:
        x &= -x
        s |= x
        node = known.get(s)
        if node is not None:
            forcers, rounds = node
            continue
        closures += 1
        r = 0
        while not rounds[r][2] & x:  # the first round x forced in
            r += 1
        state, before, _ = rounds[r]
        if s.bit_count() == ell:
            return s, None, _closure(n, adj, state, s, standard)[0], closures
        rounds = rounds[:r]
        reach, forcers = _rounds(n, adj, state, before, s, standard, rounds)
        if reach != full:
            return s, (forcers, rounds), reach, closures
        known[s] = forcers, rounds
    return s, (forcers, rounds), full, closures


def _small_fort(adj, cut, ell, standard) -> int:
    """A small fort of the rule inside ``cut``, a stalled closure's white
    remainder (see search_min_superset): a set F that some vertex of every
    surviving candidate must hit.  Its threats, the vertices outside F with
    exactly one neighbor in F, number at most ``ell``, and under the psd
    rule F is connected.

    One vertex of the cut is kept, its lowest (the mirror shrink keeps its
    highest; see _shrink).  A psd cut is first narrowed to the component of
    the kept vertex, and a standard cut is taken whole.  A set of at most
    two vertices is kept as it is.  Otherwise each other
    vertex v, from the highest down (from the lowest up in the mirror), is
    dropped when F - v is still such a set.  ``one``, ``two`` and ``three``
    hold the vertices with at least one, two and three neighbors in F, so
    the threats of F - v are the vertices outside it with one neighbor in F
    and none in v, or two in F and one in v: each drop is tested without a
    search.  Under the psd rule a drop that passes must also leave F - v
    connected.  F is connected, so a path inside F from any vertex of F - v
    to v enters v from a neighbor of v in F - v, and every component of
    F - v holds such a neighbor: F - v is connected exactly when v's
    neighbors in F - v are joined inside it.  So the test grows from one of
    them and stops as soon as all are reached, and it is skipped when v has
    a single neighbor in F - v."""
    return _shrink(adj, cut, ell, standard, False)


def _shrink(adj, cut, ell, standard, top) -> int:
    """_small_fort's drops, or with ``top`` the mirror shrink's: keep the
    highest vertex of ``cut`` and try drops from the lowest up."""
    keep = 1 << cut.bit_length() - 1 if top else cut & -cut
    fort, one, two, three = _grow(adj, cut, cut if standard else keep)
    if fort.bit_count() <= 2:
        return fort
    rest = fort ^ keep
    while rest:
        bit = rest & -rest if top else 1 << rest.bit_length() - 1
        rest ^= bit
        nb = adj[bit.bit_length() - 1]
        smaller = fort ^ bit
        if ((one & ~two & ~nb | two & ~three & nb) & ~smaller).bit_count() > ell:
            continue
        if not standard:
            x = nb & smaller
            if x & (x - 1):
                # grow inside F - v from one neighbor of v until all are met
                reached = frontier = x & -x
                while frontier and x & ~reached:
                    grow = 0
                    while frontier:
                        b = frontier & -frontier
                        frontier ^= b
                        grow |= adj[b.bit_length() - 1]
                    frontier = grow & smaller & ~reached
                    reached |= frontier
                if x & ~reached:
                    continue
        fort = smaller
        one &= two | ~nb
        two &= three | ~nb
        x = three & nb  # at least three before the drop: recount
        while x:
            bit = x & -x
            x ^= bit
            if (adj[bit.bit_length() - 1] & fort).bit_count() < 3:
                three ^= bit
    return fort


def _small_forts(adj, cut, ell, standard) -> tuple[int, ...]:
    """The cuts a failed candidate leaves, oldest first: _small_fort's, and
    the mirror shrink's when the first is not ``cut`` itself and the mirror
    differs from it."""
    first = _small_fort(adj, cut, ell, standard)
    if first == cut:
        return (first,)
    mirror = _shrink(adj, cut, ell, standard, True)
    return (first,) if mirror == first else (first, mirror)


def first_failing_leaks(adj, blue, ell, standard) -> tuple[int, int]:
    """Lexicographically first size-``ell`` leak placement whose closure
    misses a vertex, or -1 if none exists.  Second item counts closures run.

    If the leak-free closure already fails, every placement fails and the
    first one in order is {0, ..., ell-1}.  Otherwise most placements are
    certified from the forcers of smaller leak sets inside them, without a
    closure of their own (see _scan); the answer is the one an exhaustive
    scan of all C(n, ell) placements gives.
    """
    n = _check_count(len(adj))
    _check_mask(n, blue)
    _check_ell(ell)
    leaks, _, closures = _scan(n, adj, blue, (1 << n) - 1, min(ell, n), standard)
    return leaks, closures


def search_min_superset(adj, core, free, lo, hi, ell, standard) -> tuple[int, int, int, tuple[int, ...]]:
    """Scan the size classes ``lo`` .. ``hi`` in order, each class k being
    the sets of ``core`` plus ``k - |core|`` vertices of ``free`` in
    lexicographic order, and return the first set that forces the graph
    under every ``ell``-leak placement, or -1.  Returns (mask,
    candidates_tested, closures_run, ring), the ring being the fort cuts
    held at the end, newest first (see below).  Core vertices inside
    ``free`` are ignored, so ``full & ~core`` scans every size-k superset
    of ``core``; a smaller ``free`` scans one piece of that range (see
    ``solve._pieces``).  The range is clipped to |core| .. |core| + |free|,
    and an empty one returns (-1, 0, 0, ()).

    Live vertices.  A component wholly inside ``core`` is blue with only
    blue neighbors in every candidate, so it never forces and a leak on it
    is wasted.  Leaks go only on ``live``, the other components, with the
    budget clamped to its size: some ``ell``-placement fails iff some
    min(``ell``, |live|)-placement inside ``live`` does, since more leaks
    never grow a closure, and a candidate's scan runs at most
    1 + C(|live|, ``ell``) closures.

    Fort cuts.  When a candidate fails, the leak scan stops at a failing
    chain node S inside the first failing placement L (S is empty when the
    leak-free closure fails) and returns reach = closure(S).  It is a fixed
    point under S, so W = ``full & ~reach`` is a fort whose threats, the
    vertices outside W with exactly one neighbor in a white component of W
    (psd) or in W (standard), all lie in S.  Since S lies inside L,
    closure(S) contains closure(L), and W is never larger than the white
    set of closure(L).  The cuts kept are smaller forts F inside W: the one
    _small_fort keeps and, when that is not W and the mirror shrink's
    differs from it, the mirror's too, as the newer (see _small_forts).  At
    most ``ell`` vertices outside each F (``ell`` as clamped to ``live``)
    have exactly one neighbor in F, and F is connected under the psd rule.
    Every set that misses F fails once F's threats are leaked:
    F starts white, and while it is, a non-leaked blue vertex has no
    neighbor in F or at least two, all white.  Under the standard rule such
    a vertex forces nothing inside F; under the psd rule its neighbors in F
    lie in one white component, the one holding the connected F, so it
    forces no vertex of F either.  So F is never colored, and it is a cut
    that every surviving candidate hits; one that misses W misses F too.
    Only failing candidates are skipped, so the witness and the candidate
    count do not depend on the cuts, while the closures run do.

    Cuts across classes.  That argument never uses the size of the set
    missing F, so a cut found in one class binds every later class too.
    One call keeps its last 256 cuts (a fixed number), newest first, in one
    ring across all of its classes, and returns the ring as it ends.  The
    class of ``core`` alone is one candidate, always tested, and keeps no
    cut.  The other classes are walked as the leak scan walks placements
    (see _prefixes): ``hits`` starts as ``rest`` and the cuts a prefix P
    misses are ANDed into it; a closure runs only for a last vertex in
    ``hits``, taken by lowest bit, and each new cut is ANDed in.  A skipped
    candidate still counts as tested.  The ring scan is a loop over the
    cuts, newest first: a per-vertex index of them, which the C twin keeps,
    ran slower in Python.

    Offered cuts.  Nor does the argument use where F came from: any F that
    is a fort of the rule in this graph, with at most ``ell`` threats (as
    clamped), is missed only by failing candidates.  If F meets ``core``,
    every candidate hits it; if not, F and its threats, which are
    neighbours of F, lie in ``live``, so leaking them is a placement the
    scan tries.  So a search may start from a ring of such cuts, as
    deletion_values starts each search of G - e from those of G's cuts
    that still bind there; the ring then drops its oldest cut for each new
    one, as an empty start does.  So a search's counts depend only on its
    candidates and the ring it starts from.

    Dead prefixes.  The ring scan stops once ``hits`` is empty: more cuts
    cannot refill it.  A cut that misses both P and ``rest`` empties
    ``hits`` on its own; the last one found so is remembered as ``killer``,
    and a later prefix that misses it in P and in its ``rest`` is skipped
    without a scan.  The remembered cut is forgotten when the ring drops
    it, so it prunes only what the ring itself would.  The ring's cuts are
    distinct, since no starting cut repeats another, each new cut is missed
    by a candidate that meets every cut kept, and a failed candidate's two
    cuts differ, so the dropped cut is known by its value.  Neither shortcut
    tests a candidate the full scan skips or skips one it tests, and the
    ring's contents stay the same, so the candidates and closures are those
    of the full scan, and of the C twin.
    """
    n = _check_count(len(adj))
    _check_mask(n, core)
    _check_mask(n, free)
    _check_ell(ell)
    full = (1 << n) - 1
    live = _grow(adj, full, full & ~core)[0]
    ring: deque[int] = deque(maxlen=_CUTS)
    found, candidates, closures = _search(
        n, adj, core, free & ~core, lo, hi, min(ell, live.bit_count()), standard, live, ring)
    return found, candidates, closures, tuple(ring)


def _search(n, adj, core, free, lo, hi, ell, standard, live, ring) -> tuple[int, int, int]:
    """search_min_superset's scan from the distinct cuts in ``ring``, a
    deque with ``maxlen`` _CUTS, newest first, which it updates: (mask,
    candidates_tested, closures_run).  ``free`` misses ``core``, and
    ``live`` and the clamped ``ell`` are search_min_superset's."""
    full = (1 << n) - 1
    base = core.bit_count()
    lo = max(lo, base) - base
    hi = min(hi, base + free.bit_count()) - base
    killer = full  # none yet: full meets every prefix, as ``rest`` is never empty
    candidates = 0
    closures = 0
    for j in range(lo, hi + 1):
        if j == 0:
            candidates += 1
            _, reach, c = _scan(n, adj, core, live, ell, standard)
            closures += c
            if reach == full:
                return core, candidates, closures
            continue
        for pmask, rest in _prefixes(free, j - 1, core):
            candidates += rest.bit_count()
            if not (pmask | rest) & killer:
                continue
            hits = rest
            for cut in ring:
                if not pmask & cut:
                    hits &= cut
                    if not hits:
                        if not rest & cut:
                            killer = cut
                        break
            while hits:
                low = hits & -hits
                rest &= -(low << 1)
                cand = pmask | low
                _, reach, c = _scan(n, adj, cand, live, ell, standard)
                closures += c
                if reach == full:
                    return cand, candidates - rest.bit_count(), closures
                hits &= rest
                for cut in _small_forts(adj, full & ~reach, ell, standard):
                    hits &= cut
                    if len(ring) == _CUTS and ring[-1] == killer:
                        killer = full  # the ring drops it
                    ring.appendleft(cut)
    return -1, candidates, closures


def deletion_values(adj, ell, cuts) -> tuple[tuple[int, int, int], ...]:
    """Per edge e = (u, v) of the graph G, u < v in ascending order as
    ``Graph.edges`` lists them: (value, candidates_tested, closures_run),
    the psd ``ell``-leaky number of G - e and the work of its solve.  G - e
    is solved as a serial ``solve.leaky_number`` solves it: one search per
    connected component with a vertex outside the degree core, from the
    core and ell + 1 vertices of the component up, with every other vertex
    blue.  So the value and the candidate count are that solve's.

    ``cuts`` offers fort cuts of G, such as the ring of G's own solve.
    Every offer is checked as a mask argument is, after the leak budget,
    and repeats are dropped.  Each search starts its ring from the first 256
    offers, in the offered order, the first as the newest, that meet its
    free vertices and bind in G - e, where they are connected with at most
    ``ell`` threats: a cut the search may keep (see search_min_superset,
    "Offered cuts").  A component with a vertex w outside the core has at
    least ell + 2 vertices, w and its more than ``ell`` neighbors, so the
    search's clamped budget is ``ell``.

    Whether an offer F binds in G - e follows from facts of F in G,
    recorded once per call: its threats (the vertices outside F with one
    neighbor in F), the vertices outside F with exactly two, and whether F
    is connected.
    - If e has no endpoint in F, no vertex's count of neighbors in F
      changes, nor does the subgraph F induces.
    - If e has one endpoint in F, only the other endpoint w loses a
      neighbor in F: w stops being a threat if it had one there, becomes
      one if it had two, and is no threat before or after if it had three
      or more.  The subgraph F induces stays.
    - If e has both endpoints in F, no outside vertex's count changes, and
      F - e, F connected, is connected iff u and v are joined inside it.
    So no edge joins a disconnected F or takes more than one threat away,
    and an offer that is disconnected in G, or has more than ell + 1
    threats there, binds in no G - e and is dropped at once.
    """
    n = _check_count(len(adj))
    _check_ell(ell)
    cuts = list(cuts)
    for cut in cuts:
        _check_mask(n, cut)
    ell = min(ell, n)
    facts = []  # per offer that may bind: (F, threats, vertices outside with two neighbors in F, threat count)
    for cut in dict.fromkeys(cuts):
        part, one, two, three = _grow(adj, cut, cut & -cut)
        threats = one & ~two & ~cut
        count = threats.bit_count()
        if cut and part == cut and count <= ell + 1:
            facts.append((cut, threats, two & ~three & ~cut, count))
    full = (1 << n) - 1
    core = 0
    for v in range(n):
        if adj[v].bit_count() <= ell:
            core |= 1 << v
    out = []
    for u in range(n):
        bu = 1 << u
        above = adj[u] >> (u + 1) << (u + 1)
        while above:
            bv = above & -above
            above ^= bv
            v = bv.bit_length() - 1
            e = bu | bv
            h = list(adj)
            h[u] &= ~bv
            h[v] &= ~bu
            binding = []
            for cut, threats, twice, count in facts:
                ends = cut & e
                if ends == e:
                    if count > ell or not _grow(h, cut, bu)[0] & bv:
                        continue
                elif ends:
                    if count - bool(e & threats) + bool(e & twice) > ell:
                        continue
                elif count > ell:
                    continue
                binding.append(cut)
            ecore = core
            for w, bw in ((u, bu), (v, bv)):
                if h[w].bit_count() <= ell:
                    ecore |= bw
            value = candidates = closures = 0
            for comp, _ in _components(h, full):
                free = comp & ~ecore
                if not free:  # every vertex of the component can be stranded
                    value += comp.bit_count()
                    continue
                blue = ecore | full & ~comp
                outside = n - comp.bit_count()
                ring = deque(islice((cut for cut in binding if cut & free), _CUTS), maxlen=_CUTS)
                # from ell + 1 vertices of the component up; _search clips to the core
                found, c, k = _search(n, h, blue, free, outside + ell + 1, n, ell, False, comp, ring)
                value += found.bit_count() - outside
                candidates += c
                closures += k
            out.append((value, candidates, closures))
    return tuple(out)


def is_fort_mask(adj, fort, ell) -> bool:
    """Fort test: within each component of the induced subgraph on ``fort``,
    at most ``ell`` outside vertices may have exactly one neighbor inside."""
    _check_mask(_check_count(len(adj)), fort)
    _check_ell(ell)
    rest = fort
    while rest:
        comp, one, two, _ = _grow(adj, fort, rest & -rest)
        if (one & ~two & ~comp).bit_count() > ell:
            return False
        rest &= ~comp
    return True


def _set_order(mask) -> tuple[int, int]:
    """Sort key: size, then ascending vertex list (a set whose lowest vertex
    outside the other set is smaller comes first)."""
    return mask.bit_count(), -int(f"{mask:064b}"[::-1], 2)


def minimal_fort_masks(adj, ell) -> list[int]:
    """All inclusion-minimal fort masks, by size and then by ascending
    vertex list.

    Soundness.  Every component of a fort is a fort on its own (the
    predicate is judged per component), so a minimal fort is connected, and
    a connected set F is a fort iff its threat set T(F), the outside
    vertices with exactly one neighbor in F, has at most ``ell`` members.

    Search.  Each vertex v, in descending order, seeds a branching search
    over (IN, OUT) with IN = {v} and OUT = {0, ..., v-1}; it finds the
    minimal forts whose lowest vertex is v.  Kept incrementally: ``once``
    and ``twice``, the vertices with at least one and at least two
    neighbors in IN, so T(IN) = once & ~twice & ~IN; ``comp``, the
    component of IN holding v, and ``reach``, its vertices' neighbors, so
    IN is connected iff comp == IN.  A vertex is open if it lies outside IN
    and OUT.  A branch over a set adds its vertices to IN one at a time,
    ascending, each joining OUT after its own branch.

    - |T(IN)| <= ell and IN connected: IN is a fort; it is recorded and
      nothing larger is searched.
    - IN disconnected: a minimal fort holding IN is connected and avoids
      OUT, so it holds an open neighbor of every component of IN.  The
      component branch takes the component with the fewest open neighbors
      (on a tie the one with the lower lowest vertex, so v's first) and
      branches over them; if it has none, the branch ends.  With
      |T(IN)| <= ell this branch is taken.
    - |T(IN)| > ell: a threat u stays a threat of any superset that
      contains neither u nor another neighbor of u, so its fixes are
      ({u} | N(u)) minus IN and OUT.  A threat without fixes is permanent;
      more than ``ell`` of those end the branch.  Otherwise some one of any
      ell + 1 - (permanent) live threats must be fixed; those threats,
      fewest fixes first, are branched in turn over their fixes, and each
      threat is then made permanent (OUT gains u and its neighbors outside
      IN) before the next.  A disconnected IN takes the component branch
      instead when it has fewer vertices than those threats have fixes in
      sum.

    Completeness.  The branches of a node split its sets by the first
    branch vertex each holds, so nothing is recorded twice.  For a minimal
    fort M with lowest vertex v, follow the branch of the first branch
    vertex in M.  It exists: M holds an open neighbor of each component of
    a disconnected IN, and fixes one of any ell + 1 - (permanent) live
    threats.  Only vertices outside M joined OUT before it, so IN stays
    within M and OUT outside M.  No stop rule fires on a proper subset of M
    (M is connected and avoids OUT), so the path reaches IN = M and records
    it.

    Pruning.  A branch stops as soon as IN contains a kept fort of a higher
    seed: a minimal fort holding IN would properly contain that fort.  Only
    a fort holding the vertex x just added can be new inside IN, so each
    vertex u keeps the forts holding it in one integer ``packed[u]``, one
    fort per 65-bit lane, and ``guard[u]`` sets bit 64 of every lane in use.
    With g = guard[x], each lane of packed[x] & ~(IN * (g >> 64)) is f & ~IN
    for its fort f, below 2**64, so g minus it borrows within each lane
    only, and keeps a lane's guard bit exactly when f & ~IN is zero: one
    expression tests every fort holding x.  A fort recorded earlier from the
    same seed holds a vertex that has since joined OUT, so it is never
    inside IN.  A branch also stops when x has no neighbor in IN, IN has
    another vertex, and the vertices x reaches through vertices outside OUT
    miss part of IN: every superset of IN that avoids OUT is then
    disconnected, and a minimal fort is connected and avoids OUT.
    Recorded sets are connected forts.  Once a seed is done they are taken
    by size, and one is kept only if it holds no fort kept before from the
    seed (all of which hold v, so the same expression on packed[v] tests
    them); containment is transitive, so the kept ones are minimal.
    """
    n = _check_count(len(adj))
    _check_ell(ell)
    found: list[int] = []
    packed = [0] * n  # per vertex, the kept forts holding it, one per lane
    guard = [0] * n  # per vertex, bit 64 of each lane in use
    for v in range(n - 1, -1, -1):
        bit = 1 << v
        seeded: list[int] = []
        _grow_fort(adj, ell, v, bit, bit - 1, adj[v], 0, bit, adj[v], seeded, packed, guard)
        seeded.sort(key=int.bit_count)
        for f in seeded:
            g = guard[v]
            if g and (g - (packed[v] & ~(f * (g >> 64)))) & g:
                continue
            found.append(f)
            rest = f
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                lane = guard[u].bit_length()  # 65 bits per lane in use
                packed[u] |= f << lane
                guard[u] |= 1 << (64 + lane)
                rest ^= low
    found.sort(key=_set_order)
    return found


def _narrowest(adj, inside, out, comp, reach) -> int:
    """The open neighbors of the component of ``inside`` with the fewest,
    ``comp`` (with neighbors ``reach``) first and then by lowest vertex;
    zero once some component has none."""
    best = reach & ~inside & ~out
    size = best.bit_count()
    rest = inside & ~comp
    while rest and size:
        comp, reach, _, _ = _grow(adj, rest, rest & -rest)
        rest &= ~comp
        near = reach & ~inside & ~out
        if near.bit_count() < size:
            best = near
            size = near.bit_count()
    return best


def _grow_fort(adj, ell, x, inside, out, once, twice, comp, reach, found, packed, guard) -> None:
    """Record the minimal forts M with ``inside`` <= M and M & ``out`` empty,
    where ``x`` is the vertex that joined ``inside`` last and ``comp`` and
    ``reach`` are the parent's (see minimal_fort_masks for the rules)."""
    g = guard[x]
    if g and (g - (packed[x] & ~(inside * (g >> 64)))) & g:
        return
    nb = adj[x]
    if nb & comp:
        if nb & inside & ~comp:
            comp, reach, _, _ = _grow(adj, inside, comp | 1 << x)
        else:
            comp |= 1 << x
            reach |= nb
    elif not nb & inside and inside & (inside - 1) and inside & ~_grow(adj, ~out, 1 << x)[0]:
        return
    threats = once & ~twice & ~inside
    if threats.bit_count() <= ell:
        if comp == inside:
            found.append(inside)
            return
        branch = _narrowest(adj, inside, out, comp, reach)
    else:
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
        live = live[:ell + 1 - permanent]
        if comp == inside or \
                (branch := _narrowest(adj, inside, out, comp, reach)).bit_count() >= sum(c for c, _ in live):
            for _, u in live:
                near = (1 << u | adj[u]) & ~inside
                fixes = near & ~out
                while fixes:
                    low = fixes & -fixes
                    y = low.bit_length() - 1
                    nb = adj[y]
                    _grow_fort(adj, ell, y, inside | low, out, once | nb, twice | once & nb, comp, reach,
                               found, packed, guard)
                    out |= low
                    fixes ^= low
                out |= near
            return
    while branch:
        low = branch & -branch
        y = low.bit_length() - 1
        nb = adj[y]
        _grow_fort(adj, ell, y, inside | low, out, once | nb, twice | once & nb, comp, reach,
                   found, packed, guard)
        out |= low
        branch ^= low


def min_hitting_set(masks) -> tuple[int, int]:
    """(size, mask) of a smallest vertex set meeting every mask in
    ``masks``; among the smallest, the one whose ascending vertex list is
    lexicographically first.  An empty family gives (0, 0).  The masks are
    their own universe: each must be nonempty (else ValueError) and inside
    ``[0, 2**64)`` (else OverflowError).

    Branch and bound: branch on the first unhit mask in the given order
    (callers pass the smallest first), one branch per vertex of it, and ban
    the vertices of the earlier branches in the later ones.  Every hitting
    set H is reached through the branch of the first vertex of H in each
    branch mask, so the branches partition the search and no set is
    visited twice.  A branch is pruned when a mask has only banned
    vertices left, or when its size plus a greedy packing of pairwise
    disjoint unhit masks (banned vertices removed) exceeds the best size
    found; equal sizes are kept, so every optimum is seen and the
    lexicographically first one is returned.  The first best size, 65,
    exceeds any such bound, which is at most the size of the masks' union.
    """
    for m in masks:
        _check_mask(64, m)
        if not m:
            raise ValueError("a set to hit must be nonempty")
    best = [65, 0]
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

/* C twin of the seven primitives of _pykernel that the workloads time, with the
 * same argument conventions and bit-identical results.  See _pykernel for the
 * semantics; its closure_mask and is_fort_mask serve only untimed callers and
 * have no C twin.  setup.py compiles this file as a plain extension. */

/* Must equal _pykernel.KERNEL_VERSION; _core refuses a build that differs. */
#define KERNEL_VERSION 15
/* Fort cuts one search keeps, and the words of a bitset over their slots. */
#define CUTS 256
#define SLOT_WORDS (CUTS / 64)

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define POP(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)
#define HIGH(x) ((uint64_t)1 << (63 - __builtin_clzll(x)))  /* x nonzero */
#define ABOVE(vs, p) ((p) ? (vs) & (0 - (HIGH(p) << 1)) : (vs))  /* p below vs's top */

static uint64_t full_mask(int n) { return n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1; }

/* ---------------------------------------------------------- arguments */

static int fail(PyObject *exc, const char *msg)
{
    PyErr_SetString(exc, msg);
    return -1;
}

/* Any int, saturated to -1 .. 65: a size-class bound, since the class range is
 * clipped to 0..64 anyway, or a leak budget, which get_ell checks and clamps.
 * So no sum or difference of bounds overflows. */
static int get_bound(PyObject *o, int *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = overflow > 0 || v > 65 ? 65 : overflow < 0 || v < -1 ? -1 : (int)v;
    return 0;
}

/* ValueError for a negative leak budget; a budget above n, of any size, is
 * clamped to n. */
static int get_ell(PyObject *o, int *out, int n)
{
    if (get_bound(o, out) < 0)
        return -1;
    if (*out < 0)
        return fail(PyExc_ValueError, "leak budget must be non-negative");
    if (*out > n)
        *out = n;
    return 0;
}

/* OverflowError for negative values and values >= 2**64. */
static int get_mask(PyObject *o, uint64_t *out)
{
    *out = PyLong_AsUnsignedLongLong(o);
    return *out == (uint64_t)-1 && PyErr_Occurred() ? -1 : 0;
}

/* A vertex-set argument over [0, n) for n in 0..64: the same errors and
 * messages as _pykernel._check_mask. */
static int get_vmask(PyObject *o, int n, uint64_t *out)
{
    if (get_mask(o, out) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        return fail(PyExc_OverflowError, "mask outside [0, 2**64)");
    }
    if (*out & ~full_mask(n)) {
        PyErr_Format(PyExc_ValueError, "mask has a vertex outside [0, %d)", n);
        return -1;
    }
    return 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)", name, want, nargs);
    return -1;
}

/* The one vertex-count check: a graph's row count. */
static int check_count(Py_ssize_t n)
{
    return n < 0 || n > 64 ? fail(PyExc_ValueError, "vertex count outside [0, 64]") : 0;
}

/* Read a graph's rows, a sequence of at most 64 masks, into `out` and their
 * count into *n; rows *n..63 are zeroed, so bits at or above *n read empty. */
static int load_adj(PyObject *adj, int *n, uint64_t *out)
{
    PyObject *seq;
    int i, err;
    if ((seq = PySequence_Fast(adj, "adjacency must be a sequence")) == NULL)
        return -1;
    err = check_count(PySequence_Fast_GET_SIZE(seq));
    *n = err ? 0 : (int)PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < *n && !err; i++)
        err = get_mask(PySequence_Fast_GET_ITEM(seq, i), &out[i]);
    memset(out + *n, 0, (64 - *n) * sizeof *out);
    Py_DECREF(seq);
    return err;
}

/* ------------------------------------------------------------ kernels */

/* The part of `inside` that `seed` reaches; *one, *two and *three get the
 * vertices with at least one, two and three neighbours in it, so *one is the
 * part's reach.  See _pykernel._grow. */
static uint64_t grow(const uint64_t *adj, uint64_t inside, uint64_t seed, uint64_t *one, uint64_t *two,
                     uint64_t *three)
{
    uint64_t part = 0, o = 0, t = 0, h = 0, frontier, nb;
    for (frontier = seed; frontier; frontier = o & inside & ~part)
        for (part |= frontier; frontier; frontier &= frontier - 1) {
            nb = adj[CTZ(frontier)];
            h |= t & nb;
            t |= o & nb;
            o |= nb;
        }
    *one = o;  /* counted in locals, which adj's rows cannot alias */
    *two = t;
    *three = h;
    return part;
}

/* One simultaneous round: the vertices outside `barred` that some non-leaked
 * blue vertex forces.  *forcers gains, per target, the smallest source forcing
 * it, the source forcing.closure keeps in its chronology.  _pykernel._round's
 * steps: per white part, visit the sources with one neighbour in it. */
static uint64_t round_targets(const uint64_t *adj, uint64_t blue, uint64_t leaks, int standard,
                              uint64_t white, uint64_t barred, uint64_t *forcers)
{
    uint64_t hit = barred, sources = blue & ~leaks, s, nb, rest, comp, one, two, three;
    for (rest = white; rest; rest &= ~comp) {
        comp = grow(adj, rest, standard ? rest : rest & (0 - rest), &one, &two, &three);
        for (s = sources & one & ~two; s; s &= s - 1) {
            nb = adj[CTZ(s)] & comp;
            if (!(nb & hit)) {
                hit |= nb;
                *forcers |= s & (0 - s);
            }
        }
    }
    return hit & ~barred;
}

/* Fixed point of round-simultaneous forcing; *forcers gets the forcers of
 * every round. */
static uint64_t closure(int n, const uint64_t *adj, uint64_t blue, uint64_t leaks,
                        int standard, uint64_t barred, uint64_t *forcers)
{
    uint64_t full = full_mask(n), white, newly;
    *forcers = 0;
    for (;;) {
        white = full & ~blue;
        if (white == 0)
            return blue;
        newly = round_targets(adj, blue, leaks, standard, white, barred, forcers);
        if (newly == 0)
            return blue;
        blue |= newly;
    }
}

/* The lowest k vertices of `mask` (all of them if it has fewer). */
static uint64_t lowest(uint64_t mask, int k)
{
    uint64_t out = 0;
    for (; k > 0 && mask; k--, mask &= mask - 1)
        out |= mask & (0 - mask);
    return out;
}

/* Prefixes: the k-subsets P of u, the vertices of a mask vs but its highest,
 * in lexicographic order of their ascending vertex lists, from lowest(u, k)
 * on.  The leak scan walks placements and the search candidates this way: a
 * prefix P, then a last vertex from ABOVE(vs, P), the vertices of vs above P
 * (_pykernel._prefixes).  next_prefix gives the prefix after P, or 0 after
 * the last: it keeps P below x, the highest vertex of P with a vertex of u
 * outside P above it, and refills P's size from the vertices of u above x. */
static uint64_t next_prefix(uint64_t vs, uint64_t p)
{
    uint64_t u = vs & ~HIGH(vs), x = u & ~p ? p & (HIGH(u & ~p) - 1) : 0;
    if (x == 0)
        return 0;
    x = HIGH(x);
    return (p & (x - 1)) | lowest(u & (0 - (x << 1)), POP(p & (0 - x)));
}

/* The chain nodes of one leak scan and their forcers: open addressing over
 * nonzero keys (a zero key marks a free slot), doubled at half load. */
struct memo {
    uint64_t *keys, *vals;
    size_t cap, len;
};

static size_t memo_slot(const struct memo *t, uint64_t key)
{
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ull) >> 32) & (t->cap - 1);
    while (t->keys[i] != 0 && t->keys[i] != key)
        i = (i + 1) & (t->cap - 1);
    return i;
}

static int memo_get(const struct memo *t, uint64_t key, uint64_t *val)
{
    size_t i;
    if (t->len == 0 || t->keys[i = memo_slot(t, key)] == 0)
        return 0;
    *val = t->vals[i];
    return 1;
}

/* -1 with MemoryError when the table cannot grow. */
static int memo_put(struct memo *t, uint64_t key, uint64_t val)
{
    struct memo grown;
    size_t i;
    if (2 * (t->len + 1) > t->cap) {
        grown.cap = t->cap ? 2 * t->cap : 64;
        grown.len = 0;
        if ((grown.keys = PyMem_Calloc(2 * grown.cap, sizeof *grown.keys)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        grown.vals = grown.keys + grown.cap;
        for (i = 0; i < t->cap; i++)
            if (t->keys[i] != 0)
                memo_put(&grown, t->keys[i], t->vals[i]);
        PyMem_Free(t->keys);
        *t = grown;
    }
    i = memo_slot(t, key);
    t->keys[i] = key;
    t->vals[i] = val;
    t->len++;
    return 0;
}

/* One leak scan's fixed arguments and the memo of its chain nodes, which the
 * scan empties when it starts and its owner frees.  Placements range over
 * `vs`, and ell is at most its size. */
struct scan {
    int n, ell, standard;
    uint64_t vs;
    const uint64_t *adj;
    struct memo memo;
};

/* Walk the chain of `lmask` on from node *s with forcers *forcers: 1 when a
 * node's closure misses a vertex (that closure in *reach), 0 once lmask - *s
 * meets no forcer, -1 with MemoryError.  Each step adds a vertex of lmask to
 * *s; nodes below size ell go into the memo. */
static int walk(struct scan *sc, uint64_t blue, uint64_t lmask, uint64_t *s, uint64_t *forcers,
                uint64_t *reach, long long *closures)
{
    uint64_t x;
    while ((x = lmask & ~*s & *forcers) != 0) {
        *s |= x & (0 - x);
        if (memo_get(&sc->memo, *s, forcers))
            continue;
        ++*closures;
        if ((*reach = closure(sc->n, sc->adj, blue, *s, sc->standard, 0, forcers)) != full_mask(sc->n))
            return 1;
        if (POP(*s) < sc->ell && memo_put(&sc->memo, *s, *forcers) < 0)
            return -1;
    }
    return 0;
}

/* First size-ell leak placement inside sc->vs in lexicographic order whose
 * closure of `blue` misses a vertex: 1 with it in *leaks, 0 when every
 * placement forces the graph, -1 with MemoryError.  *reach gets the closure of
 * a failing set S inside *leaks (S is empty when the leak-free closure fails,
 * and then the placement is the lowest ell vertices of vs), or the full mask.
 *
 * Certification (see _pykernel._scan): when closure(S) is the full graph with
 * forcers F(S) (per target the smallest source that forced it), a placement
 * L containing S with (L - S) & F(S) empty replays the same chronology: every
 * force valid under L is valid under S, and every recorded force keeps its
 * source.  So each placement in order walks a chain from S = {}: while
 * (L - S) & F(S) is nonempty, S gains its lowest vertex and closure(S) is
 * looked up in the memo or run.  L fails as soon as some S inside it fails,
 * since more leaks never grow a closure.  Nodes below size ell stay in the
 * memo for the whole scan; a node of size ell is L itself, met once, so
 * ell = 1 never touches the table, and at most 1 + C(|vs|, ell) closures run.
 * Placements sharing their first ell - 1 vertices P share the chain over P,
 * and from its end only the last vertices inside F(S) walk on; the others
 * are certified at once.  _pykernel._scan also resumes each closure from the
 * rounds it shares with the node before, which changes no count; here every
 * closure runs from `blue`, since rounds are cheap and the memo would need a
 * round history per node. */
static int failing_leaks(struct scan *sc, uint64_t blue, uint64_t *leaks, uint64_t *reach,
                         long long *closures)
{
    uint64_t full = full_mask(sc->n), root, forcers, f, s, t, p, rest, low;
    int found;
    ++*closures;
    if ((*reach = closure(sc->n, sc->adj, blue, 0, sc->standard, 0, &root)) != full) {
        *leaks = lowest(sc->vs, sc->ell);
        return 1;
    }
    if (sc->ell == 0)
        return 0;
    if (sc->memo.len) {
        memset(sc->memo.keys, 0, sc->memo.cap * sizeof *sc->memo.keys);
        sc->memo.len = 0;
    }
    p = lowest(sc->vs & ~HIGH(sc->vs), sc->ell - 1);
    do {
        s = 0;
        forcers = root;
        rest = ABOVE(sc->vs, p);
        if ((found = walk(sc, blue, p, &s, &forcers, reach, closures)) != 0) {
            *leaks = p | (rest & (0 - rest));
            return found;
        }
        for (rest &= forcers; rest; rest &= rest - 1) {
            low = rest & (0 - rest);
            t = s;
            f = forcers;
            if ((found = walk(sc, blue, p | low, &t, &f, reach, closures)) != 0) {
                *leaks = p | low;
                return found;
            }
        }
    } while ((p = next_prefix(sc->vs, p)) != 0);
    return 0;
}

/* A small fort of the rule inside `cut`, a stalled closure's white remainder:
 * at most ell threats (outside vertices with exactly one neighbour in it),
 * and connected under the psd rule.  It keeps the cut's lowest vertex and
 * tries drops from the highest down, or with `top` (the mirror shrink) keeps
 * the highest and tries drops from the lowest up.  one, two and three are
 * bit-sliced counts of neighbours in the fort.  Same drops as
 * _pykernel._small_fort, which explains them; its connectivity test stops
 * early with the same verdict. */
static uint64_t small_fort(const uint64_t *adj, uint64_t cut, int ell, int standard, int top)
{
    uint64_t keep = top ? HIGH(cut) : cut & (0 - cut), one, two, three, rest, bit, nb, smaller, x, unused;
    uint64_t fort = grow(adj, cut, standard ? cut : keep, &one, &two, &three);
    if (POP(fort) <= 2)
        return fort;
    for (rest = fort ^ keep; rest; rest ^= bit) {
        bit = top ? rest & (0 - rest) : HIGH(rest);
        nb = adj[CTZ(bit)];
        smaller = fort ^ bit;
        if (POP(((one & ~two & ~nb) | (two & ~three & nb)) & ~smaller) > ell)
            continue;
        x = nb & smaller;
        if (!standard && (x & (x - 1)) != 0 && grow(adj, smaller, keep, &unused, &unused, &unused) != smaller)
            continue;
        fort = smaller;
        one &= two | ~nb;
        two &= three | ~nb;
        for (x = three & nb; x; x &= x - 1)  /* at least three before the drop: recount */
            if (POP(adj[CTZ(x)] & fort) < 3)
                three ^= x & (0 - x);
    }
    return fort;
}

/* The fort cuts of one search: `ncuts` distinct ones in slots 0 .. ncuts - 1,
 * the newest just below `head`, and an index over the slots.  holds[v] has
 * the slots whose cut holds vertex v, and meets the slots whose cut meets the
 * search's core, so the cuts a prefix p misses are the slots in use outside
 * meets and outside holds[v] for every v in p. */
struct ring {
    uint64_t cuts[CUTS], holds[64][SLOT_WORDS], meets[SLOT_WORDS];
    int ncuts, head;
};

/* Index the ring's cuts, masks over [0, n), for a search from `core`. */
static void ring_index(struct ring *r, uint64_t core, int n)
{
    int i;
    uint64_t x;
    memset(r->holds, 0, n * sizeof r->holds[0]);
    memset(r->meets, 0, sizeof r->meets);
    for (i = 0; i < r->ncuts; i++) {
        for (x = r->cuts[i]; x; x &= x - 1)
            r->holds[CTZ(x)][i / 64] |= (uint64_t)1 << (i % 64);
        r->meets[i / 64] |= (uint64_t)((r->cuts[i] & core) != 0) << (i % 64);
    }
}

/* Add a cut as the newest, in place of the oldest once the ring is full. */
static void ring_put(struct ring *r, uint64_t cut, uint64_t core)
{
    int i = r->head, w = i / 64;
    uint64_t bit = (uint64_t)1 << (i % 64), x;
    if (i < r->ncuts)
        for (x = r->cuts[i]; x; x &= x - 1)
            r->holds[CTZ(x)][w] &= ~bit;
    for (x = cut; x; x &= x - 1)
        r->holds[CTZ(x)][w] |= bit;
    r->meets[w] = (r->meets[w] & ~bit) | ((cut & core) != 0 ? bit : 0);
    r->cuts[i] = cut;
    r->head = (i + 1) % CUTS;
    r->ncuts += r->ncuts < CUTS;
}

/* The AND of the ring's cuts that miss core and `p`. */
static uint64_t ring_need(const struct ring *r, uint64_t p)
{
    uint64_t met[SLOT_WORDS], need = ~(uint64_t)0, miss, x;
    int w, words = (r->ncuts + 63) / 64;
    memcpy(met, r->meets, sizeof met);
    for (x = p; x; x &= x - 1)
        for (w = 0; w < words; w++)
            met[w] |= r->holds[CTZ(x)][w];
    for (w = 0; w < words; w++) {
        miss = ~met[w];
        if (r->ncuts < 64 * (w + 1))
            miss &= ((uint64_t)1 << (r->ncuts % 64)) - 1;
        for (; miss; miss &= miss - 1)
            need &= r->cuts[64 * w + CTZ(miss)];
    }
    return need;
}

/* (mask or -1, candidates, closures, ring): the ring's cuts as a tuple,
 * newest first. */
static PyObject *search_out(int found, uint64_t mask, long long candidates, long long closures,
                            const struct ring *r)
{
    PyObject *ring, *item;
    int i;
    if ((ring = PyTuple_New(r->ncuts)) == NULL)
        return NULL;
    for (i = 0; i < r->ncuts; i++) {
        if ((item = PyLong_FromUnsignedLongLong(r->cuts[(r->head + CUTS - 1 - i) % CUTS])) == NULL) {
            Py_DECREF(ring);
            return NULL;
        }
        PyTuple_SET_ITEM(ring, i, item);
    }
    if (found)
        return Py_BuildValue("(KLLN)", (unsigned long long)mask, candidates, closures, ring);
    return Py_BuildValue("(iLLN)", -1, candidates, closures, ring);
}

/* Scan the size classes lo..hi in order, clipped to |core|..|core| + |free|;
 * class k is the sets of core plus k - |core| vertices of `free` (which
 * misses core) in lexicographic order, and solve._pieces splits a class into
 * such pieces.  1 with the first set that forces the graph under every
 * placement of sc->ell leaks in *found, 0 when the classes hold none (an
 * empty range holds none and tests nothing), -1 with MemoryError.  Leaks go
 * only on sc->vs, the components with a vertex outside core, with ell clamped
 * to its size: a component inside core is blue with only blue neighbours in
 * every candidate, so a leak on it is wasted, and a candidate's scan runs at
 * most 1 + C(|vs|, ell) closures.  A failing candidate's scan gives the
 * closure of a failing chain node S inside the failing placement L, a fixed
 * point under S, so the vertices W outside it are a fort whose threats lie
 * in S.  The cuts kept are small_fort's F inside W and, when F is not W and
 * differs from it, the mirror shrink's F' (kept as the newer): at most ell
 * (as clamped) outside vertices with exactly one neighbour in each, and each
 * connected under the psd rule.  A set missing F fails once F's threats
 * leak: while F is white, a non-leaked blue vertex has no neighbour in F or
 * at least two, so under the standard rule it forces nothing in F, and under
 * the psd rule its neighbours in F share one white component, the one
 * holding F, so it forces no vertex of F either.  Only failing candidates are skipped, so the witness and the
 * candidate count do not depend on the cuts.  That argument never uses the
 * size of the set, so the last CUTS (256, fixed) cuts stay in one ring for
 * every class: `r` holds distinct ones, which the search updates.  Both cuts
 * of a failed candidate miss it, and it met every cut kept, so the ring's
 * cuts stay distinct.  Nor does it use where F came from, so the ring may
 * start from any such cuts, as deletion_values starts it from G's cuts that
 * bind in G - e.  The class of core alone is one candidate, always
 * tested, and keeps no cut.  The other classes are walked prefix by prefix,
 * as failing_leaks walks placements; the cuts a prefix misses, read from the
 * ring's slot index (see struct ring), are ANDed into `need`, and a closure
 * runs only for a last vertex in rest & need, taken by lowest bit.  A skipped
 * candidate still counts as tested.
 * _pykernel._search keeps the same ring and tests the same candidates, so
 * the twins share candidates, closures and rings; it also ends a prefix's
 * ring scan once nothing is left and skips a prefix a remembered cut
 * empties, which changes neither.  _pykernel.search_min_superset's docstring
 * gives the proofs. */
static int search(struct scan *sc, uint64_t core, uint64_t free_mask, int lo, int hi, struct ring *r,
                  uint64_t *found, long long *candidates, long long *closures)
{
    int base = POP(core), j;
    uint64_t full = full_mask(sc->n), leaks, reach, p, need, rest, hits, low, cand, white, fort, mirror;
    ring_index(r, core, sc->n);
    if (lo < base)
        lo = base;
    if (hi > base + POP(free_mask))
        hi = base + POP(free_mask);
    for (j = lo - base; j <= hi - base; j++) {
        if (j == 0) {
            ++*candidates;
            if (failing_leaks(sc, core, &leaks, &reach, closures) < 0)
                return -1;
            if (reach == full) {
                *found = core;
                return 1;
            }
            continue;
        }
        p = lowest(free_mask & ~HIGH(free_mask), j - 1);
        do {
            need = ring_need(r, p);
            for (rest = ABOVE(free_mask, p); (hits = rest & need) != 0;) {
                low = hits & (0 - hits);
                *candidates += POP(rest & (low - 1)) + 1;
                rest &= 0 - (low << 1);  /* 0 once low is vertex 63 */
                cand = core | p | low;
                if (failing_leaks(sc, cand, &leaks, &reach, closures) < 0)
                    return -1;
                if (reach == full) {
                    *found = cand;
                    return 1;
                }
                white = full & ~reach;
                fort = small_fort(sc->adj, white, sc->ell, sc->standard, 0);
                ring_put(r, fort, core);
                need &= fort;
                if (fort != white && (mirror = small_fort(sc->adj, white, sc->ell, sc->standard, 1)) != fort) {
                    ring_put(r, mirror, core);
                    need &= mirror;
                }
            }
            *candidates += POP(rest);
        } while ((p = next_prefix(free_mask, p)) != 0);
    }
    return 0;
}

/* An offer to deletion_values that may bind in some G - e, with its facts in
 * G: the vertices outside it with one neighbour in it (its threats) and with
 * exactly two, and the threats' count. */
struct offer {
    uint64_t cut, threats, twice;
    int count;
};

/* Whether the offer binds in G - uv, whose rows are `h`: it is connected with
 * at most ell threats there.  The rule of _pykernel.deletion_values: an edge
 * with no endpoint in the offer changes nothing; with one, only the other
 * endpoint's count drops by one; with both, no threat changes and the offer
 * less the edge is connected iff u and v are joined inside it. */
static int still_binds(const struct offer *f, const uint64_t *h, int u, int v, int ell)
{
    uint64_t bu = (uint64_t)1 << u, bv = (uint64_t)1 << v, e = bu | bv, ends = f->cut & e, unused;
    if (ends == e)
        return f->count <= ell && (grow(h, f->cut, bu, &unused, &unused, &unused) & bv) != 0;
    if (ends)
        return f->count - ((e & f->threats) != 0) + ((e & f->twice) != 0) <= ell;
    return f->count <= ell;
}

/* ------------------------------------------------------ Python entries */

static PyObject *py_components(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    uint64_t adj[64], inside, rest, comp, boundary, unused;
    PyObject *found, *item;
    if (check_nargs("components", nargs, 2) < 0 || load_adj(args[0], &n, adj) < 0
        || get_vmask(args[1], n, &inside) < 0 || (found = PyList_New(0)) == NULL)
        return NULL;
    for (rest = inside; rest; rest &= ~comp) {
        comp = grow(adj, rest, rest & (0 - rest), &boundary, &unused, &unused);
        item = Py_BuildValue("(KK)", (unsigned long long)comp, (unsigned long long)(boundary & ~inside));
        if (item == NULL || PyList_Append(found, item) < 0) {
            Py_XDECREF(item);
            Py_DECREF(found);
            return NULL;
        }
        Py_DECREF(item);
    }
    return found;
}

/* Per vertex v, the mask of vertices that force v in some valid leak-free psd
 * sequence from `blue`, for v in `targets` outside `blue`; 0 for every other v.
 *
 * A force u -> v valid in a state S stays valid in every state containing S
 * with v outside it (v's white component only shrinks), so the closure with
 * v barred is the unique maximal state reached without coloring v, and u
 * forces v in some sequence iff u -> v is valid there.  A round's targets do
 * not depend on the bar, which only keeps v uncolored.  So one plain closure,
 * round by round from B_0 = blue, gives every barred closure:
 *   - v never colored: no round targets v, the barred closure is the plain
 *     one, a fixed point where no force is valid; v gets 0;
 *   - v colored in round r: rounds 1 .. r-1 run the same under the bar and
 *     round r colors its targets but v, so the barred closure is the closure
 *     of B_r - {v} with v barred; v's white component there is one search
 *     from v.
 * The rounds stop once every target is colored or the closure stalls.  Same
 * steps as _pykernel.realizable_forcers. */
static PyObject *py_realizable_forcers(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, v;
    uint64_t adj[64], blue, targets, full, want, newly, hit, bit, final, one, two, unused = 0;
    uint64_t forcers[64] = {0};
    PyObject *out, *item;
    if (check_nargs("realizable_forcers", nargs, 3) < 0 || load_adj(args[0], &n, adj) < 0
        || get_vmask(args[1], n, &blue) < 0 || get_vmask(args[2], n, &targets) < 0)
        return NULL;
    full = full_mask(n);
    for (want = targets & ~blue; want; want &= ~newly) {
        if ((newly = round_targets(adj, blue, 0, 0, full & ~blue, 0, &unused)) == 0)
            break;
        blue |= newly;
        for (hit = newly & want; hit; hit &= hit - 1) {
            bit = hit & (0 - hit);
            v = CTZ(hit);
            final = closure(n, adj, blue & ~bit, 0, 0, bit, &unused);
            grow(adj, full & ~final, bit, &one, &two, &unused);
            forcers[v] = adj[v] & final & one & ~two;  /* v is their one white neighbour in v's part */
        }
    }
    if ((out = PyTuple_New(n)) == NULL)
        return NULL;
    for (v = 0; v < n; v++) {
        if ((item = PyLong_FromUnsignedLongLong(forcers[v])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, v, item);
    }
    return out;
}

static PyObject *py_first_failing_leaks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int found;
    uint64_t adj[64], blue, leaks, reach;
    long long closures = 0;
    struct scan sc = {0, 0, 0, 0, adj, {NULL, NULL, 0, 0}};
    if (check_nargs("first_failing_leaks", nargs, 4) < 0 || load_adj(args[0], &sc.n, adj) < 0
        || get_vmask(args[1], sc.n, &blue) < 0 || get_ell(args[2], &sc.ell, sc.n) < 0
        || (sc.standard = PyObject_IsTrue(args[3])) < 0)
        return NULL;
    sc.vs = full_mask(sc.n);
    found = failing_leaks(&sc, blue, &leaks, &reach, &closures);
    PyMem_Free(sc.memo.keys);
    if (found < 0)
        return NULL;
    if (found == 0)
        return Py_BuildValue("(iL)", -1, closures);
    return Py_BuildValue("(KL)", (unsigned long long)leaks, closures);
}

/* See search; the ring comes back newest first. */
static PyObject *py_search_min_superset(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int lo, hi, found;
    uint64_t adj[64], core, free_mask, full, mask = 0, unused;
    struct ring ring;
    long long candidates = 0, closures = 0;
    struct scan sc = {0, 0, 0, 0, adj, {NULL, NULL, 0, 0}};
    if (check_nargs("search_min_superset", nargs, 7) < 0 || load_adj(args[0], &sc.n, adj) < 0
        || get_vmask(args[1], sc.n, &core) < 0 || get_vmask(args[2], sc.n, &free_mask) < 0
        || get_bound(args[3], &lo) < 0 || get_bound(args[4], &hi) < 0
        || get_ell(args[5], &sc.ell, sc.n) < 0 || (sc.standard = PyObject_IsTrue(args[6])) < 0)
        return NULL;
    full = full_mask(sc.n);
    sc.vs = grow(adj, full, full & ~core, &unused, &unused, &unused);
    if (sc.ell > POP(sc.vs))
        sc.ell = POP(sc.vs);
    ring.ncuts = ring.head = 0;
    found = search(&sc, core, free_mask & ~core, lo, hi, &ring, &mask, &candidates, &closures);
    PyMem_Free(sc.memo.keys);
    return found < 0 ? NULL : search_out(found, mask, candidates, closures, &ring);
}

/* Per edge u < v in ascending order, (value, candidates, closures) of the
 * psd ell-leaky number of G - uv, solved as a serial solve.leaky_number
 * solves it: one search per component with a vertex outside the degree core,
 * from the core and ell + 1 of the component's vertices up, the other
 * vertices blue.  The offered cuts are range-checked after the leak budget
 * and deduplicated; an offer that is disconnected in G, or has more than
 * ell + 1 threats there, binds in no G - e.  Each search starts its ring from
 * the first CUTS offers, in the offered order, the first as the newest, that
 * meet its free vertices and still_binds keeps.  A searched component has at
 * least ell + 2 vertices, so its clamped budget is ell.  Same steps as
 * _pykernel.deletion_values, whose docstring gives the proofs. */
static PyObject *py_deletion_values(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, ell, u, v, i, m = 0, nbind, outside;
    uint64_t adj[64], h[64], full, core, ecore, cut, one, two, three, above, comp, rest;
    uint64_t free_mask, blue, mask, unused, *binding = NULL;
    long long value, candidates, closures;
    Py_ssize_t t, len, nedges = 0;
    PyObject *seq, *out = NULL, *item;
    struct offer *offers = NULL;
    struct scan sc = {0, 0, 0, 0, h, {NULL, NULL, 0, 0}};
    struct ring ring;
    if (check_nargs("deletion_values", nargs, 3) < 0 || load_adj(args[0], &n, adj) < 0
        || get_ell(args[1], &ell, n) < 0 || (seq = PySequence_Fast(args[2], "cuts must be iterable")) == NULL)
        return NULL;
    len = PySequence_Fast_GET_SIZE(seq);
    offers = PyMem_Malloc((len ? len : 1) * sizeof *offers);
    binding = PyMem_Malloc((len ? len : 1) * sizeof *binding);
    if (offers == NULL || binding == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (t = 0; t < len; t++) {
        if (get_vmask(PySequence_Fast_GET_ITEM(seq, t), n, &cut) < 0)
            goto done;
        for (i = 0; i < m && offers[i].cut != cut; i++)
            ;
        if (i < m || cut == 0 || grow(adj, cut, cut & (0 - cut), &one, &two, &three) != cut)
            continue;
        offers[m] = (struct offer){cut, one & ~two & ~cut, two & ~three & ~cut, POP(one & ~two & ~cut)};
        m += offers[m].count <= ell + 1;
    }
    full = full_mask(n);
    core = 0;
    for (u = 0; u < n; u++) {
        core |= (uint64_t)(POP(adj[u]) <= ell) << u;
        nedges += POP(adj[u] & ~full_mask(u + 1));
    }
    if ((out = PyTuple_New(nedges)) == NULL)
        goto done;
    sc.n = n;
    sc.ell = ell;
    nedges = 0;
    for (u = 0; u < n; u++) {
        for (above = adj[u] & ~full_mask(u + 1); above; above &= above - 1) {
            v = CTZ(above);
            memcpy(h, adj, sizeof h);
            h[u] &= ~((uint64_t)1 << v);
            h[v] &= ~((uint64_t)1 << u);
            for (nbind = i = 0; i < m; i++)
                if (still_binds(&offers[i], h, u, v, ell))
                    binding[nbind++] = offers[i].cut;
            ecore = core | (uint64_t)(POP(h[u]) <= ell) << u | (uint64_t)(POP(h[v]) <= ell) << v;
            value = candidates = closures = 0;
            for (rest = full; rest; rest &= ~comp) {
                comp = grow(h, rest, rest & (0 - rest), &unused, &unused, &unused);
                free_mask = comp & ~ecore;
                outside = n - POP(comp);
                if (free_mask == 0) {  /* every vertex of the component can be stranded */
                    value += POP(comp);
                    continue;
                }
                blue = ecore | (full & ~comp);
                for (ring.ncuts = i = 0; i < nbind && ring.ncuts < CUTS; i++)
                    if (binding[i] & free_mask)
                        ring.cuts[ring.ncuts++] = binding[i];
                for (i = 0; i < ring.ncuts / 2; i++) {  /* the first offer kept is the newest */
                    cut = ring.cuts[i];
                    ring.cuts[i] = ring.cuts[ring.ncuts - 1 - i];
                    ring.cuts[ring.ncuts - 1 - i] = cut;
                }
                ring.head = ring.ncuts % CUTS;
                sc.vs = comp;
                mask = 0;
                if (search(&sc, blue, free_mask, outside + ell + 1, n, &ring, &mask, &candidates,
                           &closures) < 0) {
                    Py_CLEAR(out);
                    goto done;
                }
                value += POP(mask) - outside;
            }
            if ((item = Py_BuildValue("(LLL)", value, candidates, closures)) == NULL) {
                Py_CLEAR(out);
                goto done;
            }
            PyTuple_SET_ITEM(out, nedges++, item);
        }
    }
done:
    Py_DECREF(seq);
    PyMem_Free(offers);
    PyMem_Free(binding);
    PyMem_Free(sc.memo.keys);
    return out;
}

/* A growable array of masks. */
struct masks {
    uint64_t *m;
    Py_ssize_t len, cap;
};

static int reserve(struct masks *a, Py_ssize_t need)
{
    uint64_t *grown;
    Py_ssize_t cap = a->cap ? a->cap : 64;
    if (need <= a->cap)
        return 0;
    while (cap < need)
        cap *= 2;
    if ((grown = PyMem_Realloc(a->m, cap * sizeof *grown)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    a->m = grown;
    a->cap = cap;
    return 0;
}

static int push(struct masks *a, uint64_t mask)
{
    if (reserve(a, a->len + 1) < 0)
        return -1;
    a->m[a->len++] = mask;
    return 0;
}

/* Size, then ascending vertex list: of two sets of one size, the one holding
 * the lowest vertex of their difference comes first. */
static int by_set_order(const void *pa, const void *pb)
{
    uint64_t a = *(const uint64_t *)pa, b = *(const uint64_t *)pb, d = a ^ b;
    if (POP(a) != POP(b))
        return POP(a) < POP(b) ? -1 : 1;
    return d == 0 ? 0 : (a & d & (0 - d)) ? -1 : 1;
}

struct fort_search {
    const uint64_t *adj;
    int ell;
    struct masks found;        /* minimal forts of the seeds done so far */
    struct masks holding[64];  /* per vertex, the forts of found that hold it */
    struct masks seeded;       /* connected forts recorded from the current seed */
};

/* The open neighbours (outside inside and out) of the component of inside
 * with the fewest, comp (with neighbours reach) first and then by lowest
 * vertex; 0 once some component has none. */
static uint64_t narrowest(const uint64_t *adj, uint64_t inside, uint64_t out, uint64_t comp, uint64_t reach)
{
    uint64_t best = reach & ~inside & ~out, rest, near, unused;
    for (rest = inside & ~comp; rest && best; rest &= ~comp) {
        comp = grow(adj, rest, rest & (0 - rest), &reach, &unused, &unused);
        near = reach & ~inside & ~out;
        if (POP(near) < POP(best))
            best = near;
    }
    return best;
}

/* Record the minimal forts M with inside <= M and M & out empty; x joined
 * inside last, once and twice hold the vertices with at least one and at
 * least two neighbours inside.  The rules and the completeness argument are
 * _pykernel.minimal_fort_masks's:
 *   - a minimal fort is connected, and a connected set is a fort iff its
 *     threats (outside vertices with exactly one neighbour in it) number at
 *     most ell;
 *   - stop when inside holds a fort of a higher seed (only forts holding x
 *     can be new inside it); a minimal fort would properly contain it;
 *   - stop when x has no neighbour inside, inside has another vertex, and the
 *     vertices outside out that x reaches miss some of inside: a minimal fort
 *     is connected and avoids out, so none holds inside;
 *   - few threats: record a connected inside; a disconnected one takes the
 *     component branch, over the open neighbours of the component with the
 *     fewest (see narrowest), since a minimal fort holds an open neighbour
 *     of every component; none ends the branch;
 *   - many threats: a threat with no fix ({u} | N(u) minus inside and out)
 *     is permanent; more than ell of them end the branch; else branch on
 *     ell + 1 - permanent live threats, fewest fixes first, over each one's
 *     fixes (each fix joins out after its branch), making each threat
 *     permanent (out gains u and its neighbours outside inside) before the
 *     next.  A disconnected inside takes the component branch instead when
 *     it is smaller than those threats' fix counts summed.
 * A minimal fort M keeps inside within M and out outside M along the
 * branches that add its first branch vertex, so it is reached. */
static int grow_fort(struct fort_search *s, int x, uint64_t inside, uint64_t out,
                     uint64_t once, uint64_t twice)
{
    const uint64_t *adj = s->adj;
    uint64_t threats = once & ~twice & ~inside, reach, comp, rest, near, fixes, low, branch, unused;
    int live[64], nfix[64], nlive = 0, permanent = 0, i, j, u, y, count, sum = 0;
    Py_ssize_t t;
    for (t = 0; t < s->holding[x].len; t++)
        if ((s->holding[x].m[t] & ~inside) == 0)
            return 0;
    if ((adj[x] & inside) == 0 && (inside & (inside - 1)) != 0
        && (inside & ~grow(adj, ~out, (uint64_t)1 << x, &reach, &unused, &unused)) != 0)
        return 0;
    comp = grow(adj, inside, inside & (0 - inside), &reach, &unused, &unused);
    if (POP(threats) <= s->ell) {
        if (comp == inside)
            return push(&s->seeded, inside);
        branch = narrowest(adj, inside, out, comp, reach);
    } else {
        for (rest = threats; rest; rest &= rest - 1) {
            u = CTZ(rest);
            fixes = (((uint64_t)1 << u) | adj[u]) & ~inside & ~out;
            if (fixes == 0) {
                permanent++;
                continue;
            }
            /* insertion by fix count; equal counts keep ascending u */
            count = POP(fixes);
            for (j = nlive++; j > 0 && nfix[j - 1] > count; j--) {
                live[j] = live[j - 1];
                nfix[j] = nfix[j - 1];
            }
            live[j] = u;
            nfix[j] = count;
        }
        if (permanent > s->ell)
            return 0;
        if (nlive > s->ell + 1 - permanent)
            nlive = s->ell + 1 - permanent;
        for (i = 0; i < nlive; i++)
            sum += nfix[i];
        if (comp == inside || POP(branch = narrowest(adj, inside, out, comp, reach)) >= sum) {
            for (i = 0; i < nlive; i++) {
                u = live[i];
                near = (((uint64_t)1 << u) | adj[u]) & ~inside;
                for (fixes = near & ~out; fixes; fixes &= fixes - 1) {
                    y = CTZ(fixes);
                    low = (uint64_t)1 << y;
                    if (grow_fort(s, y, inside | low, out, once | adj[y], twice | (once & adj[y])) < 0)
                        return -1;
                    out |= low;
                }
                out |= near;
            }
            return 0;
        }
    }
    for (; branch; branch &= branch - 1) {
        y = CTZ(branch);
        low = (uint64_t)1 << y;
        if (grow_fort(s, y, inside | low, out, once | adj[y], twice | (once & adj[y])) < 0)
            return -1;
        out |= low;
    }
    return 0;
}

static PyObject *py_minimal_fort_masks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, v;
    uint64_t adj[64], f, rest;
    Py_ssize_t t, k, start;
    struct fort_search s;
    PyObject *found = NULL, *item;
    memset(&s, 0, sizeof s);
    s.adj = adj;
    if (check_nargs("minimal_fort_masks", nargs, 2) < 0 || load_adj(args[0], &n, adj) < 0
        || get_ell(args[1], &s.ell, n) < 0)
        return NULL;
    for (v = n - 1; v >= 0; v--) {
        s.seeded.len = 0;
        if (grow_fort(&s, v, (uint64_t)1 << v, ((uint64_t)1 << v) - 1, adj[v], 0) < 0)
            goto done;
        /* keep the seed's forts that contain no smaller one of the seed */
        if (s.seeded.len > 1)
            qsort(s.seeded.m, s.seeded.len, sizeof *s.seeded.m, by_set_order);
        start = s.found.len;
        for (t = 0; t < s.seeded.len; t++) {
            f = s.seeded.m[t];
            for (k = start; k < s.found.len && (s.found.m[k] & f) != s.found.m[k]; k++)
                ;
            if (k < s.found.len)
                continue;
            if (push(&s.found, f) < 0)
                goto done;
            for (rest = f; rest; rest &= rest - 1)
                if (push(&s.holding[CTZ(rest)], f) < 0)
                    goto done;
        }
    }
    if (s.found.len > 1)
        qsort(s.found.m, s.found.len, sizeof *s.found.m, by_set_order);
    found = PyList_New(s.found.len);
    for (t = 0; found != NULL && t < s.found.len; t++) {
        if ((item = PyLong_FromUnsignedLongLong(s.found.m[t])) == NULL)
            Py_CLEAR(found);
        else
            PyList_SET_ITEM(found, t, item);
    }
done:
    PyMem_Free(s.found.m);
    PyMem_Free(s.seeded.m);
    for (v = 0; v < 64; v++)
        PyMem_Free(s.holding[v].m);
    return found;
}

struct hitting {
    struct masks unhit;  /* a stack of lists: each node's list above its parent's */
    int best_size;
    uint64_t best;
};

/* Branch and bound of _pykernel.min_hitting_set over the unhit list
 * unhit.m[lo..hi), whose banned vertices are already removed: branch on the
 * first mask, one branch per vertex, banning earlier branch vertices in later
 * branches (this partitions the search); prune on an emptied mask or when
 * size plus a greedy disjoint packing exceeds the best size (ties go on, so
 * the lexicographically first optimum wins). */
static int hit(struct hitting *h, Py_ssize_t lo, Py_ssize_t hi, uint64_t chosen, int size)
{
    uint64_t used = 0, banned = 0, branch, low, m, d = chosen ^ h->best;
    int bound = size;
    Py_ssize_t t, top;
    if (lo == hi) {
        if (size < h->best_size || (size == h->best_size && (d & (0 - d) & chosen))) {
            h->best_size = size;
            h->best = chosen;
        }
        return 0;
    }
    for (t = lo; t < hi; t++) {
        if ((m = h->unhit.m[t]) == 0)
            return 0;
        if ((m & used) == 0) {
            used |= m;
            bound++;
        }
    }
    if (bound > h->best_size)
        return 0;
    for (branch = h->unhit.m[lo]; branch; branch &= branch - 1) {
        low = branch & (0 - branch);
        if (reserve(&h->unhit, 2 * hi - lo) < 0)
            return -1;
        top = hi;
        for (t = lo; t < hi; t++)
            if ((h->unhit.m[t] & low) == 0)
                h->unhit.m[top++] = h->unhit.m[t] & ~banned;
        if (hit(h, hi, top, chosen | low, size + 1) < 0)
            return -1;
        banned |= low;
    }
    return 0;
}

static PyObject *py_min_hitting_set(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t t, len;
    PyObject *seq, *out = NULL;
    struct hitting h = {{NULL, 0, 0}, 0, 0};
    if (check_nargs("min_hitting_set", nargs, 1) < 0
        || (seq = PySequence_Fast(args[0], "masks must be a sequence")) == NULL)
        return NULL;
    len = PySequence_Fast_GET_SIZE(seq);
    if (reserve(&h.unhit, len) < 0)
        goto done;
    for (t = 0; t < len; t++) {
        if (get_vmask(PySequence_Fast_GET_ITEM(seq, t), 64, &h.unhit.m[t]) < 0)
            goto done;
        if (h.unhit.m[t] == 0) {
            fail(PyExc_ValueError, "a set to hit must be nonempty");
            goto done;
        }
    }
    h.best_size = 65;  /* above any bound: size plus packing stays within the union */
    if (hit(&h, 0, len, 0, 0) == 0)
        out = Py_BuildValue("(iK)", h.best_size, (unsigned long long)h.best);
done:
    Py_DECREF(seq);
    PyMem_Free(h.unhit.m);
    return out;
}

#define METHOD(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, "See _pykernel." #name "."}

static PyMethodDef methods[] = {
    METHOD(components), METHOD(realizable_forcers), METHOD(first_failing_leaks),
    METHOD(search_min_superset), METHOD(deletion_values), METHOD(minimal_fort_masks),
    METHOD(min_hitting_set),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_ckernel", .m_size = -1, .m_methods = methods,
    .m_doc = "C twin of the timed pure Python forcing kernels; see _pykernel for the semantics.",
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
                      || PyModule_AddIntConstant(m, "KERNEL_VERSION", KERNEL_VERSION) < 0))
        Py_CLEAR(m);
    return m;
}

/* C twin of the pure Python forcing kernels: same functions, same argument
 * conventions, bit-identical results.  See _pykernel for the semantics.
 * setup.py compiles this file as a plain extension. */

/* Must equal _pykernel.KERNEL_VERSION; _core refuses a build that differs. */
#define KERNEL_VERSION 6
/* Fort cuts one search_min_superset call keeps. */
#define CUTS 64

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define POP(x) __builtin_popcountll(x)
#define CTZ(x) __builtin_ctzll(x)
#define SINGLE(x) ((x) != 0 && ((x) & ((x) - 1)) == 0)

static uint64_t full_mask(int n) { return n >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1; }

/* ---------------------------------------------------------- arguments */

static int fail(PyObject *exc, const char *msg)
{
    PyErr_SetString(exc, msg);
    return -1;
}

static int get_int(PyObject *o, int *out)
{
    long v = PyLong_AsLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < INT_MIN || v > INT_MAX)
        return fail(PyExc_OverflowError, "value too large to convert to int");
    *out = (int)v;
    return 0;
}

/* ValueError for a negative leak budget; a budget above n is clamped to n. */
static int get_ell(PyObject *o, int *out, int n)
{
    if (get_int(o, out) < 0)
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

/* A vertex-set argument over [0, n), after load_adj has checked n: the same
 * errors and messages as _pykernel._check_mask. */
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

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (nargs < lo || nargs > hi)
        PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd positional arguments (%zd given)",
                     name, lo, hi, nargs);
    return nargs < lo || nargs > hi ? -1 : 0;
}

/* Copy the first n neighbourhood masks of `adj` (a tuple for every Graph) into
 * `out`; the rest are zeroed, so mask bits at or above n read empty rows. */
static int load_adj(PyObject *adj, int n, uint64_t *out)
{
    PyObject *seq;
    int i, err = 0;
    if (n < 0 || n > 64)
        return fail(PyExc_ValueError, "vertex count outside [0, 64]");
    if ((seq = PySequence_Fast(adj, "adjacency must be a sequence")) == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n)
        err = fail(PyExc_IndexError, "adjacency shorter than the vertex count");
    for (i = 0; i < n && !err; i++)
        err = get_mask(PySequence_Fast_GET_ITEM(seq, i), &out[i]);
    memset(out + n, 0, (64 - n) * sizeof *out);
    Py_DECREF(seq);
    return err;
}

/* Advance c[0..k) to the next k-combination of [0, m); 0 when exhausted. */
static int next_combination(int *c, int k, int m)
{
    int i = k - 1, j;
    while (i >= 0 && c[i] == m - k + i)
        i--;
    if (i < 0)
        return 0;
    c[i]++;
    for (j = i + 1; j < k; j++)
        c[j] = c[j - 1] + 1;
    return 1;
}

/* ------------------------------------------------------------ kernels */

/* Component of `inside` containing its lowest vertex.  *boundary gets the
 * component's full reach, the union of its neighbourhoods, which includes
 * vertices of `inside`; the components() entry subtracts `inside`. */
static uint64_t component(const uint64_t *adj, uint64_t inside, uint64_t *boundary)
{
    uint64_t comp = 0, reach = 0, frontier = inside & (0 - inside), grow, f;
    while (frontier) {
        comp |= frontier;
        grow = 0;
        for (f = frontier; f; f &= f - 1)
            grow |= adj[CTZ(f)];
        reach |= grow;
        frontier = grow & inside & ~comp;
    }
    *boundary = reach;
    return comp;
}

/* One simultaneous round: the vertices outside `barred` that some non-leaked
 * blue vertex forces.  *forcers gains, per target, the smallest source forcing
 * it, the source forcing.closure keeps in its chronology. */
static uint64_t round_targets(const uint64_t *adj, uint64_t blue, uint64_t leaks, int standard,
                              uint64_t white, uint64_t barred, uint64_t *forcers)
{
    uint64_t hit = barred, sources = blue & ~leaks, s, nb, rest, comp, boundary = ~(uint64_t)0;
    /* the standard rule is the psd rule with the white vertices as one part
     * whose boundary holds every source */
    for (rest = white; rest; rest &= ~comp) {
        comp = standard ? rest : component(adj, rest, &boundary);
        for (s = sources & boundary; s; s &= s - 1) {
            nb = adj[CTZ(s)] & comp;
            if (SINGLE(nb) && !(nb & hit)) {
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
 * scan empties when it starts and its owner frees. */
struct scan {
    int n, ell, standard;
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

/* First size-ell leak placement in lexicographic order whose closure of
 * `blue` misses a vertex: 1 with it in *leaks, 0 when every placement forces
 * the graph, -1 with MemoryError.  *reach gets the closure of a failing set S
 * inside *leaks (S is empty when the leak-free closure fails, and then the
 * placement is {0, ..., ell-1}), or the full mask.
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
 * ell = 1 never touches the table.  Placements sharing their first ell - 1
 * vertices P share the chain over P, and from its end only the last vertices
 * inside F(S) walk on; the others are certified at once. */
static int failing_leaks(struct scan *sc, uint64_t blue, uint64_t *leaks, uint64_t *reach,
                         long long *closures)
{
    uint64_t full = full_mask(sc->n), root, forcers, f, s, t, pmask, first, rest, low;
    int c[64], i, k = sc->ell - 1, found;
    ++*closures;
    if ((*reach = closure(sc->n, sc->adj, blue, 0, sc->standard, 0, &root)) != full) {
        *leaks = full_mask(sc->ell);
        return 1;
    }
    if (sc->ell == 0)
        return 0;
    if (sc->memo.len) {
        memset(sc->memo.keys, 0, sc->memo.cap * sizeof *sc->memo.keys);
        sc->memo.len = 0;
    }
    for (i = 0; i < k; i++)
        c[i] = i;
    do {
        pmask = 0;
        for (i = 0; i < k; i++)
            pmask |= (uint64_t)1 << c[i];
        first = (uint64_t)1 << (k ? c[k - 1] + 1 : 0);  /* the lowest last vertex */
        s = 0;
        forcers = root;
        if ((found = walk(sc, blue, pmask, &s, &forcers, reach, closures)) != 0) {
            *leaks = pmask | first;
            return found;
        }
        for (rest = forcers & (0 - first); rest; rest &= rest - 1) {
            low = rest & (0 - rest);
            t = s;
            f = forcers;
            if ((found = walk(sc, blue, pmask | low, &t, &f, reach, closures)) != 0) {
                *leaks = pmask | low;
                return found;
            }
        }
    } while (next_combination(c, k, sc->n - 1));
    return 0;
}

/* Fort cut of `cand`: *cut gets the vertices outside the closure of the
 * failing set S that failing_leaks stopped at, or 0 when `cand` forces the
 * graph under every placement; -1 with MemoryError.  closure(S) is a fixed
 * point under S, and so under the failing placement L, whose sources are
 * fewer; every set inside it stalls inside it under L, and no further
 * closure runs on L. */
static int cut_of(struct scan *sc, uint64_t cand, uint64_t *cut, long long *closures)
{
    uint64_t leaks, reach;
    if (failing_leaks(sc, cand, &leaks, &reach, closures) < 0)
        return -1;
    *cut = full_mask(sc->n) & ~reach;
    return 0;
}

static int is_fort(const uint64_t *adj, uint64_t fort, int ell)
{
    uint64_t rest, comp, boundary, b, nb;
    int cnt;
    for (rest = fort; rest; rest &= ~comp) {
        comp = component(adj, rest, &boundary);
        cnt = 0;
        for (b = boundary & ~fort; b; b &= b - 1) {
            nb = adj[CTZ(b)] & comp;
            if (SINGLE(nb) && ++cnt > ell)
                return 0;
        }
    }
    return 1;
}

/* ------------------------------------------------------ Python entries */

static PyObject *py_components(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    uint64_t adj[64], inside, rest, comp, boundary;
    PyObject *found, *item;
    if (check_nargs("components", nargs, 3, 3) < 0 || get_int(args[0], &n) < 0
        || load_adj(args[1], n, adj) < 0 || get_vmask(args[2], n, &inside) < 0
        || (found = PyList_New(0)) == NULL)
        return NULL;
    for (rest = inside; rest; rest &= ~comp) {
        comp = component(adj, rest, &boundary);
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

static PyObject *py_closure_mask(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, standard;
    uint64_t adj[64], blue, leaks, barred = 0, forcers;
    if (check_nargs("closure_mask", nargs, 5, 6) < 0 || get_int(args[0], &n) < 0
        || load_adj(args[1], n, adj) < 0 || get_vmask(args[2], n, &blue) < 0
        || get_vmask(args[3], n, &leaks) < 0 || (standard = PyObject_IsTrue(args[4])) < 0
        || (nargs > 5 && get_vmask(args[5], n, &barred) < 0))
        return NULL;
    return PyLong_FromUnsignedLongLong(closure(n, adj, blue, leaks, standard, barred, &forcers));
}

static PyObject *py_first_failing_leaks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int found;
    uint64_t adj[64], blue, leaks, reach;
    long long closures = 0;
    struct scan sc = {0, 0, 0, adj, {NULL, NULL, 0, 0}};
    if (check_nargs("first_failing_leaks", nargs, 5, 5) < 0 || get_int(args[0], &sc.n) < 0
        || load_adj(args[1], sc.n, adj) < 0 || get_vmask(args[2], sc.n, &blue) < 0
        || get_ell(args[3], &sc.ell, sc.n) < 0 || (sc.standard = PyObject_IsTrue(args[4])) < 0)
        return NULL;
    found = failing_leaks(&sc, blue, &leaks, &reach, &closures);
    PyMem_Free(sc.memo.keys);
    if (found < 0)
        return NULL;
    if (found == 0)
        return Py_BuildValue("(iL)", -1, closures);
    return Py_BuildValue("(KL)", (unsigned long long)leaks, closures);
}

/* Scan the sets of core plus k - |core| vertices of `free` (core vertices
 * inside it are ignored) in lexicographic order; solve._pieces splits a size
 * class into such pieces.  Fort cuts: cut_of gives a cut that every set
 * forcing the graph under every placement hits (see above), and a cut never
 * exceeds the one the failing placement's own closure would give.  The scan
 * keeps the cuts of its last CUTS (64, fixed) failures in a ring, starting
 * with none.  As in failing_leaks, the prefixes P are the (j-1)-combinations
 * of the free vertices but the last, and the last vertices are the mask
 * `rest` of free vertices above P.  The cuts P misses are ANDed into `need`;
 * a closure runs only for a last vertex in rest & need, taken by lowest bit.
 * A skipped candidate still counts as tested.  Same steps and counts as
 * _pykernel.search_min_superset. */
static PyObject *py_search_min_superset(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, k, ell, standard, m = 0, j, i, free_v[64], idx[64], ncuts = 0, head = 0;
    uint64_t adj[64], core, free_mask, cand, prefix, need, rest, hits, low, cut, cuts[CUTS];
    long long candidates = 0, closures = 0;
    PyObject *out = NULL;
    struct scan sc = {0, 0, 0, adj, {NULL, NULL, 0, 0}};
    if (check_nargs("search_min_superset", nargs, 7, 7) < 0 || get_int(args[0], &n) < 0
        || load_adj(args[1], n, adj) < 0 || get_vmask(args[2], n, &core) < 0
        || get_vmask(args[3], n, &free_mask) < 0 || get_int(args[4], &k) < 0
        || get_ell(args[5], &ell, n) < 0 || (standard = PyObject_IsTrue(args[6])) < 0)
        return NULL;
    sc.n = n;
    sc.ell = ell;
    sc.standard = standard;
    free_mask &= ~core;
    for (i = 0; i < n; i++)
        if ((free_mask >> i) & 1)
            free_v[m++] = i;
    j = k - POP(core);
    if (j < 0 || j > m)
        return Py_BuildValue("(iii)", -1, 0, 0);
    if (j == 0) {
        if (cut_of(&sc, core, &cut, &closures) == 0)
            out = cut ? Py_BuildValue("(iiL)", -1, 1, closures)
                      : Py_BuildValue("(KiL)", (unsigned long long)core, 1, closures);
        goto done;
    }
    for (i = 0; i < j - 1; i++)
        idx[i] = i;
    do {
        prefix = core;
        for (i = 0; i < j - 1; i++)
            prefix |= (uint64_t)1 << free_v[idx[i]];
        need = ~(uint64_t)0;
        for (i = 0; i < ncuts; i++)
            if ((prefix & cuts[i]) == 0)
                need &= cuts[i];
        /* the free vertices above P; P misses the last one, so the shift is below 64 */
        rest = free_mask & (0 - ((uint64_t)1 << (j > 1 ? free_v[idx[j - 2]] + 1 : 0)));
        while ((hits = rest & need) != 0) {
            low = hits & (0 - hits);
            candidates += POP(rest & (low - 1)) + 1;
            rest &= 0 - (low << 1);  /* 0 once low is vertex 63 */
            cand = prefix | low;
            if (cut_of(&sc, cand, &cut, &closures) < 0)
                goto done;
            if (cut == 0) {
                out = Py_BuildValue("(KLL)", (unsigned long long)cand, candidates, closures);
                goto done;
            }
            need &= cut;
            cuts[head] = cut;  /* the ring drops its oldest cut once full */
            head = (head + 1) % CUTS;
            ncuts += ncuts < CUTS;
        }
        candidates += POP(rest);
    } while (next_combination(idx, j - 1, m - 1));
    out = Py_BuildValue("(iLL)", -1, candidates, closures);
done:
    PyMem_Free(sc.memo.keys);
    return out;
}

static PyObject *py_is_fort_mask(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, ell;
    uint64_t adj[64], fort;
    if (check_nargs("is_fort_mask", nargs, 4, 4) < 0 || get_int(args[0], &n) < 0
        || load_adj(args[1], n, adj) < 0 || get_vmask(args[2], n, &fort) < 0
        || get_ell(args[3], &ell, n) < 0)
        return NULL;
    return PyBool_FromLong(is_fort(adj, fort, ell));
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

/* Record the minimal forts M with inside <= M and M & out empty; x joined
 * inside last, once and twice hold the vertices with at least one and at
 * least two neighbours inside.  The rules and the completeness argument are
 * _pykernel.minimal_fort_masks's:
 *   - a minimal fort is connected, and a connected set is a fort iff its
 *     threats (outside vertices with exactly one neighbour in it) number at
 *     most ell;
 *   - stop when inside holds a fort of a higher seed (only forts holding x
 *     can be new inside it); a minimal fort would properly contain it;
 *   - few threats: record a connected inside; a disconnected one branches
 *     on the neighbours of the seed's component.  It is never a fort: its
 *     other components lie above the seed, and a component of a fort is a
 *     fort holding a minimal fort of a higher seed, which the rule above
 *     caught when its last vertex joined inside;
 *   - many threats: a threat with no fix ({u} | N(u) minus inside and out)
 *     is permanent; more than ell of them end the branch; else branch on
 *     ell + 1 - permanent live threats, fewest fixes first, over each one's
 *     fixes (each fix joins out after its branch), making each threat
 *     permanent (out gains u and its neighbours outside inside) before the
 *     next.  A minimal fort M keeps inside within M and out outside M along
 *     the branches that add its first fixing vertex, so it is reached. */
static int grow_fort(struct fort_search *s, int x, uint64_t inside, uint64_t out,
                     uint64_t once, uint64_t twice)
{
    const uint64_t *adj = s->adj;
    uint64_t threats = once & ~twice & ~inside, boundary, comp, rest, near, fixes, low;
    int live[64], nfix[64], nlive = 0, permanent = 0, i, j, u, y, count;
    Py_ssize_t t;
    for (t = 0; t < s->holding[x].len; t++)
        if ((s->holding[x].m[t] & ~inside) == 0)
            return 0;
    if (POP(threats) <= s->ell) {
        comp = component(adj, inside, &boundary);
        if (comp == inside)
            return push(&s->seeded, inside);
        for (rest = boundary & ~inside & ~out; rest; rest &= rest - 1) {
            y = CTZ(rest);
            low = (uint64_t)1 << y;
            if (grow_fort(s, y, inside | low, out, once | adj[y], twice | (once & adj[y])) < 0)
                return -1;
            out |= low;
        }
        return 0;
    }
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
    for (i = 0; i < nlive && i < s->ell + 1 - permanent; i++) {
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

static PyObject *py_minimal_fort_masks(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, v;
    uint64_t adj[64], f, rest;
    Py_ssize_t t, k, start;
    struct fort_search s;
    PyObject *found = NULL, *item;
    memset(&s, 0, sizeof s);
    s.adj = adj;
    if (check_nargs("minimal_fort_masks", nargs, 3, 3) < 0 || get_int(args[0], &n) < 0
        || load_adj(args[1], n, adj) < 0 || get_ell(args[2], &s.ell, n) < 0)
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
    int n;
    Py_ssize_t t, len;
    PyObject *seq, *out = NULL;
    struct hitting h = {{NULL, 0, 0}, 0, 0};
    if (check_nargs("min_hitting_set", nargs, 2, 2) < 0 || get_int(args[0], &n) < 0)
        return NULL;
    if (n < 0 || n > 64) {
        fail(PyExc_ValueError, "vertex count outside [0, 64]");
        return NULL;
    }
    if ((seq = PySequence_Fast(args[1], "masks must be a sequence")) == NULL)
        return NULL;
    len = PySequence_Fast_GET_SIZE(seq);
    if (reserve(&h.unhit, len) < 0)
        goto done;
    for (t = 0; t < len; t++) {
        if (get_vmask(PySequence_Fast_GET_ITEM(seq, t), n, &h.unhit.m[t]) < 0)
            goto done;
        if (h.unhit.m[t] == 0) {
            fail(PyExc_ValueError, "a set to hit must be nonempty");
            goto done;
        }
    }
    h.best_size = n + 1;
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
    METHOD(components), METHOD(closure_mask), METHOD(first_failing_leaks),
    METHOD(search_min_superset), METHOD(is_fort_mask), METHOD(minimal_fort_masks),
    METHOD(min_hitting_set), {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_ckernel", .m_size = -1, .m_methods = methods,
    .m_doc = "C twin of the pure Python forcing kernels; see _pykernel for the semantics.",
};

PyMODINIT_FUNC PyInit__ckernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
                      || PyModule_AddIntConstant(m, "KERNEL_VERSION", KERNEL_VERSION) < 0))
        Py_CLEAR(m);
    return m;
}

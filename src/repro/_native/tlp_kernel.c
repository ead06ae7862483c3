/* Compiled hot loops of the package, in two independent parts:
 *
 *   - the TLP grow-episode kernel (tlp_grow_episode, first below);
 *   - the out-of-core streaming passes (oo_*, at the end of the file).
 *
 * TLP grow-episode kernel: the whole inner loop of one local-partitioning
 * episode (seed -> select -> allocate -> repeat) over the CSR residual
 * arrays, with zero Python transitions per selection.
 *
 * Semantics are bit-for-bit identical to the reference backend
 * (repro/core/state.py, repro/core/frontier.py):
 *
 *   - selection tie-breaks: max primary, then max secondary, then min
 *     vertex (dense indices order like original ids by construction);
 *   - Stage-II score (internal+c)/(external+r-2c) computed in IEEE double
 *     with the same operand order as the numpy expression, +inf when the
 *     denominator is non-positive;
 *   - Stage-I similarity |N(u) ∩ N(j)| / |N(j)| via a two-pointer merge
 *     over sorted CSR rows, lazily flushed exactly when Stage I selects
 *     (early flushes on buffer pressure are score-neutral: a non-member's
 *     live row is constant within a round, and updates to vertices that
 *     later join are discarded with their frontier slot);
 *   - capacity truncation cuts the sorted member-neighbour batch, leaving
 *     frontier/membership untouched, ending the episode.
 *
 * All state lives in caller-owned buffers described by GrowState; the
 * kernel never allocates.  Every scalar field is 8 bytes so the struct
 * layout is unambiguous across the ctypes boundary.
 */

#include <stdint.h>
#include <math.h>

/* Non-negative doubles (all our scores) order like their int64 bit
 * patterns, so every argmax below is a branch-free masked integer
 * reduction the compiler can vectorise without fast-math. */

typedef struct {
    /* static CSR graph (dense index space), shared with CSRResidual */
    int64_t n;
    const int64_t *indptr;
    const int64_t *indices;
    const int64_t *twin;
    uint8_t *alive;          /* per directed slot; both twins flip together */
    int64_t *live_deg;
    int64_t num_live;        /* residual undirected edge count */

    /* frontier: compact parallel arrays + dense position index */
    int64_t *f_ids;
    double  *f_c;            /* exact small integers, stored as doubles so
                              * the Stage-II scan vectorises without
                              * int64->double converts */
    double  *f_r;
    double  *f_mu1;
    double  *f_score;        /* Stage-II scratch, recomputed per selection */
    int64_t *f_pos;          /* size n; -1 = not in frontier */
    int64_t f_size;

    uint8_t *member;         /* size n */

    /* pending Stage-I batches: (member, snapshot range in pend_snap) */
    int64_t *pend_v;
    int64_t *pend_s;
    int64_t *pend_e;
    int64_t pend_count;
    int64_t pend_cap;
    int64_t *pend_snap;      /* flat round-start live-row snapshots */
    int64_t pend_len;
    int64_t pend_buf_cap;

    /* outputs, reset per round by the caller */
    int64_t *edge_u;         /* canonical (min, max) pairs, index space */
    int64_t *edge_v;
    int64_t edge_count;
    int64_t *sel_idx;        /* per-selection telemetry */
    int64_t *sel_stage;
    int64_t *sel_alloc;
    int64_t *sel_ldeg;       /* live degree after the add */
    int64_t *sel_state;      /* internal + frontier size after the add */
    int64_t sel_count;

    /* config */
    int64_t capacity;
    int64_t strict;
    int64_t policy;          /* 0=modularity, 1=edge-count ratio, 2=fixed I, 3=fixed II */
    double ratio;
    int64_t scope_original;

    /* round totals */
    int64_t internal_;
    int64_t external_;
} GrowState;

enum { REASON_CAPACITY = 0, REASON_EMPTY = 1, REASON_TRUNCATED = 2 };

/* -- Stage-I similarity ---------------------------------------------------- */

static void flush_stage1(GrowState *st)
{
    for (int64_t pi = 0; pi < st->pend_count; pi++) {
        int64_t j = st->pend_v[pi];
        int64_t snap_s = st->pend_s[pi], snap_e = st->pend_e[pi];
        const int64_t *nbrs_j;
        int64_t deg_j;
        if (st->scope_original) {
            nbrs_j = st->indices + st->indptr[j];
            deg_j = st->indptr[j + 1] - st->indptr[j];
        } else {
            nbrs_j = st->pend_snap + snap_s;
            deg_j = snap_e - snap_s;
        }
        if (deg_j == 0)
            continue;
        for (int64_t t = snap_s; t < snap_e; t++) {
            int64_t u = st->pend_snap[t];
            if (st->member[u])
                continue;
            int64_t p = st->f_pos[u];
            if (p < 0)
                continue;
            /* |N(u) ∩ N(j)|: merge u's (live) row with j's snapshot row */
            int64_t count = 0;
            int64_t a = st->indptr[u], ue = st->indptr[u + 1], b = 0;
            if (st->scope_original) {
                while (a < ue && b < deg_j) {
                    int64_t x = st->indices[a], y = nbrs_j[b];
                    if (x < y) a++;
                    else if (x > y) b++;
                    else { count++; a++; b++; }
                }
            } else {
                while (a < ue && b < deg_j) {
                    if (!st->alive[a]) { a++; continue; }
                    int64_t x = st->indices[a], y = nbrs_j[b];
                    if (x < y) a++;
                    else if (x > y) b++;
                    else { count++; a++; b++; }
                }
            }
            double val = (double)count / (double)deg_j;
            if (val > st->f_mu1[p])
                st->f_mu1[p] = val;
        }
    }
    st->pend_count = 0;
    st->pend_len = 0;
}

/* -- frontier primitives --------------------------------------------------- */

static inline void touch_inc(GrowState *st, int64_t u)
{
    int64_t p = st->f_pos[u];
    if (p >= 0) {
        st->f_c[p] += 1.0;
        return;
    }
    p = st->f_size++;
    st->f_ids[p] = u;
    st->f_c[p] = 1.0;
    st->f_r[p] = (double)st->live_deg[u];
    st->f_mu1[p] = 0.0;
    st->f_pos[u] = p;
}

static inline void frontier_remove(GrowState *st, int64_t u)
{
    int64_t p = st->f_pos[u];
    if (p < 0)
        return;
    int64_t last = st->f_size - 1;
    if (p != last) {
        st->f_ids[p] = st->f_ids[last];
        st->f_c[p] = st->f_c[last];
        st->f_r[p] = st->f_r[last];
        st->f_mu1[p] = st->f_mu1[last];
        st->f_pos[st->f_ids[p]] = p;
    }
    st->f_pos[u] = -1;
    st->f_size = last;
}

/* -- selection ------------------------------------------------------------- */

static int64_t select_stage1(GrowState *st)
{
    flush_stage1(st);
    int64_t n = st->f_size;
    const int64_t *mu = (const int64_t *)st->f_mu1;
    const int64_t *r = (const int64_t *)st->f_r;
    const int64_t *ids = st->f_ids;
    /* max mu1; among ties max r; among those min vertex — three masked
     * reductions, identical tie-breaks to Frontier.select_stage1. */
    int64_t bmu = mu[0];
    for (int64_t i = 1; i < n; i++)
        if (mu[i] > bmu)
            bmu = mu[i];
    /* Masked reductions use all-ones/zero masks (AND for max over
     * non-negative values, OR for min) — the select form defeats the
     * vectoriser, this form does not. */
    uint64_t br = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t mask = (uint64_t)0 - (uint64_t)(mu[i] == bmu);
        uint64_t rv = (uint64_t)r[i] & mask;
        br = rv > br ? rv : br;
    }
    uint64_t bid = UINT64_MAX;
    for (int64_t i = 0; i < n; i++) {
        uint64_t mask =
            (uint64_t)0 - (uint64_t)((mu[i] == bmu) & ((uint64_t)r[i] == br));
        uint64_t idv = (uint64_t)ids[i] | ~mask;
        bid = idv < bid ? idv : bid;
    }
    return (int64_t)bid;
}

static int64_t select_stage2(GrowState *st)
{
    int64_t n = st->f_size;
    const double *fc = st->f_c, *fr = st->f_r;
    double *score = st->f_score;
    double internal = (double)st->internal_;
    double external = (double)st->external_;
    /* Pass 1: branch-free score fill — pure double arithmetic so the
     * divisions vectorise, which is where the selection's time goes. */
    for (int64_t i = 0; i < n; i++) {
        double num = internal + fc[i];
        double den = external + (fr[i] - 2.0 * fc[i]);
        double s = num / den;
        score[i] = den > 0.0 ? s : INFINITY;
    }
    /* Pass 2: max score.  Every score is positive (or +inf), so its bit
     * pattern orders like the double and an integer max-reduction
     * vectorises without fast-math. */
    const int64_t *bits = (const int64_t *)score;
    int64_t bmax = bits[0];
    for (int64_t i = 1; i < n; i++)
        if (bits[i] > bmax)
            bmax = bits[i];
    /* Passes 3-4: among exact-max scores, max c then min vertex (same
     * masked-reduction shape as Stage I; c bits are positive doubles). */
    const int64_t *cb = (const int64_t *)fc;
    const int64_t *ids = st->f_ids;
    uint64_t bc = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t mask = (uint64_t)0 - (uint64_t)(bits[i] == bmax);
        uint64_t cv = (uint64_t)cb[i] & mask;
        bc = cv > bc ? cv : bc;
    }
    uint64_t bid = UINT64_MAX;
    for (int64_t i = 0; i < n; i++) {
        uint64_t mask =
            (uint64_t)0 - (uint64_t)((bits[i] == bmax) & ((uint64_t)cb[i] == bc));
        uint64_t idv = (uint64_t)ids[i] | ~mask;
        bid = idv < bid ? idv : bid;
    }
    return (int64_t)bid;
}

static inline int64_t pick_stage(GrowState *st)
{
    switch (st->policy) {
    case 0:
        return st->internal_ <= st->external_ ? 1 : 2;
    case 1:
        return (double)st->internal_ < st->ratio * (double)st->capacity ? 1 : 2;
    case 2:
        return 1;
    default:
        return 2;
    }
}

/* -- growth ---------------------------------------------------------------- */

static inline void ensure_pending_room(GrowState *st, int64_t rowlen)
{
    if (st->pend_count >= st->pend_cap ||
        st->pend_len + rowlen > st->pend_buf_cap)
        flush_stage1(st);
}

static void seed_vertex(GrowState *st, int64_t i)
{
    ensure_pending_room(st, st->indptr[i + 1] - st->indptr[i]);
    int64_t snap_start = st->pend_len;
    st->member[i] = 1;
    for (int64_t x = st->indptr[i]; x < st->indptr[i + 1]; x++) {
        if (!st->alive[x])
            continue;
        int64_t u = st->indices[x];
        st->pend_snap[st->pend_len++] = u;
        touch_inc(st, u);
    }
    st->external_ += st->pend_len - snap_start;
    int64_t pc = st->pend_count++;
    st->pend_v[pc] = i;
    st->pend_s[pc] = snap_start;
    st->pend_e[pc] = st->pend_len;
}

/* Returns 1 if the batch was capacity-truncated (ends the episode). */
static int add_vertex(GrowState *st, int64_t i, int64_t max_edges,
                      int64_t *allocated_out)
{
    ensure_pending_room(st, st->indptr[i + 1] - st->indptr[i]);
    int64_t snap_start = st->pend_len;
    int64_t alloc = 0, outside = 0;
    int truncated = 0;
    /* Single sorted scan: the snapshot records the full pre-kill live row
     * (member neighbours included — flush classifies members at *flush*
     * time), member edges are allocated in ascending-id order (canonical
     * truncation), outside neighbours enter the frontier. */
    for (int64_t x = st->indptr[i]; x < st->indptr[i + 1]; x++) {
        if (!st->alive[x])
            continue;
        int64_t u = st->indices[x];
        if (st->member[u]) {
            if (max_edges >= 0 && alloc >= max_edges) {
                truncated = 1;
                break;
            }
            /* allocate edge {i, u}: kill both directed slots */
            st->alive[x] = 0;
            st->alive[st->twin[x]] = 0;
            st->live_deg[i]--;
            st->live_deg[u]--;
            st->num_live--;
            int64_t e = st->edge_count++;
            st->edge_u[e] = u < i ? u : i;
            st->edge_v[e] = u < i ? i : u;
            alloc++;
        } else {
            outside++;
        }
        st->pend_snap[st->pend_len++] = u;
    }
    st->internal_ += alloc;
    st->external_ -= alloc;
    *allocated_out = alloc;
    if (truncated) {
        st->pend_len = snap_start;   /* roll back: no membership, no snapshot */
        return 1;
    }
    st->member[i] = 1;
    frontier_remove(st, i);
    for (int64_t t = snap_start; t < st->pend_len; t++) {
        int64_t u = st->pend_snap[t];
        if (!st->member[u])
            touch_inc(st, u);
    }
    st->external_ += outside;
    int64_t pc = st->pend_count++;
    st->pend_v[pc] = i;
    st->pend_s[pc] = snap_start;
    st->pend_e[pc] = st->pend_len;
    return 0;
}

int64_t tlp_grow_episode(GrowState *st, int64_t seed_idx)
{
    seed_vertex(st, seed_idx);
    for (;;) {
        if (st->internal_ >= st->capacity)
            return REASON_CAPACITY;
        if (st->f_size == 0)
            return REASON_EMPTY;
        int64_t stage = pick_stage(st);
        int64_t vi = stage == 1 ? select_stage1(st) : select_stage2(st);
        int64_t max_edges = st->strict ? st->capacity - st->internal_ : -1;
        int64_t alloc = 0;
        int truncated = add_vertex(st, vi, max_edges, &alloc);
        int64_t s = st->sel_count++;
        st->sel_idx[s] = vi;
        st->sel_stage[s] = stage;
        st->sel_alloc[s] = alloc;
        st->sel_ldeg[s] = st->live_deg[vi];
        st->sel_state[s] = st->internal_ + st->f_size;
        if (truncated)
            return REASON_TRUNCATED;
    }
}

/* ==========================================================================
 * Out-of-core streaming passes (repro/partitioning/oocore): pass 1's
 * degree sketch and volume-capped label propagation, and pass 2's pruned
 * HDRF / greedy placement, over one dense vertex index.
 *
 * Semantics are bit-for-bit those of the Python classes (sketch.py,
 * cluster.py, place.py), which stay as the fallback and the oracle:
 *
 *   - ids get dense indices 0, 1, ... in first-seen order, which is the
 *     insertion order of the exact degree dict, so the count-min degrade
 *     replays counts in the dict's order;
 *   - a vertex's singleton cluster id is its dense index (the Python pass
 *     numbers fresh clusters in the same first-seen order);
 *   - the least-loaded partition is the lowest (effective size, id), as
 *     the Python placer's lazy heap answers, here from a winner tree;
 *   - scores use the Python expression's operand order; the build turns
 *     off FMA contraction (-ffp-contract=off), which would round
 *     hits + lam * balance differently.
 *
 * Every array is caller-owned (numpy).  A pass call stops before an edge
 * that could overflow the per-vertex arrays and returns that edge's
 * position; the caller grows the arrays, calls oo_rehash and resumes.
 */

typedef struct {
    /* vertex index: open addressing over int64 ids, load <= 1/2 */
    int64_t *slots;          /* 2 * vcap entries: -1 = empty, else an index */
    int64_t *keys;           /* dense index -> id */
    int64_t n;               /* vertices indexed */
    int64_t vcap;            /* rows of every per-vertex array (power of two) */

    /* degree sketch: exact per-vertex counts until n passes max_exact,
     * then a conservative-update count-min table */
    int64_t exact;
    int64_t max_exact;
    int64_t *deg;
    int64_t *cm;             /* cm_depth rows of cm_width counters */
    int64_t cm_width;
    int64_t cm_depth;

    /* pass 1: label propagation (cluster_of == NULL: off) */
    int64_t *cluster_of;
    int64_t *volume;         /* per cluster id */
    uint8_t *present;        /* cluster holds volume (the dict has the key) */
    int64_t total_volume;
    int64_t target_clusters;
    double volume_slack;

    /* pass 2: placement */
    int64_t p;
    int64_t words;           /* uint64 mask words per vertex: ceil(p / 64) */
    int64_t greedy;
    double lam;
    double epsilon;
    double gamma;
    uint64_t *masks;         /* vcap * words replica bits */
    int64_t *affinity;       /* per vertex, -1 = none (NULL: no affinity) */
    int64_t *sizes;
    int64_t *eff;            /* sizes + offsets (HDRF) or sizes (greedy) */
    int64_t *tree;           /* winner tree over (eff, id); tree[1] = least */
    int64_t leaves;          /* power of two >= p */
    int64_t hi;              /* max eff */
    int64_t replicas;
} StreamState;

/* splitmix64 finaliser, as sketch._mix */
static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
}

static inline int64_t index_of(StreamState *st, int64_t id, int *fresh)
{
    uint64_t mask = (uint64_t)(2 * st->vcap - 1);
    uint64_t h = mix64((uint64_t)id) & mask;
    for (;;) {
        int64_t i = st->slots[h];
        if (i < 0) {
            i = st->n++;
            st->slots[h] = i;
            st->keys[i] = id;
            *fresh = 1;
            return i;
        }
        if (st->keys[i] == id) {
            *fresh = 0;
            return i;
        }
        h = (h + 1) & mask;
    }
}

void oo_rehash(StreamState *st)
{
    uint64_t mask = (uint64_t)(2 * st->vcap - 1);
    for (int64_t i = 0; i < st->n; i++) {
        uint64_t h = mix64((uint64_t)st->keys[i]) & mask;
        while (st->slots[h] >= 0)
            h = (h + 1) & mask;
        st->slots[h] = i;
    }
}

/* -- count-min (CountMinDegrees) ------------------------------------------- */

static inline int64_t cm_cell(const StreamState *st, int64_t row, int64_t id)
{
    uint64_t salt = mix64((uint64_t)row + 1);
    uint64_t col = mix64((uint64_t)id ^ salt) % (uint64_t)st->cm_width;
    return row * st->cm_width + (int64_t)col;
}

static int64_t cm_get(const StreamState *st, int64_t id)
{
    int64_t low = st->cm[cm_cell(st, 0, id)];
    for (int64_t r = 1; r < st->cm_depth; r++) {
        int64_t c = st->cm[cm_cell(st, r, id)];
        if (c < low)
            low = c;
    }
    return low;
}

static int64_t cm_add(StreamState *st, int64_t id, int64_t count)
{
    int64_t fresh = cm_get(st, id) + count;
    for (int64_t r = 0; r < st->cm_depth; r++) {
        int64_t at = cm_cell(st, r, id);
        if (st->cm[at] < fresh)
            st->cm[at] = fresh;
    }
    return fresh;
}

/* DegreeSketch.add: one incident edge at vertex i; the new degree */
static int64_t count_endpoint(StreamState *st, int64_t i, int fresh)
{
    if (!st->exact)
        return cm_add(st, st->keys[i], 1);
    int64_t d = ++st->deg[i];
    if (!fresh || st->n <= st->max_exact)
        return d;
    for (int64_t j = 0; j < st->n; j++)  /* degrade: replay, dict order */
        cm_add(st, st->keys[j], st->deg[j]);
    st->exact = 0;
    return cm_get(st, st->keys[i]);
}

/* -- label propagation (StreamingClustering.observe_many) ----------------- */

static inline int64_t join_cluster(StreamState *st, int64_t i, int64_t d, int fresh)
{
    if (fresh) {
        st->cluster_of[i] = i;
        st->volume[i] = d;
        st->present[i] = 1;
        return i;
    }
    int64_t c = st->cluster_of[i];
    st->present[c] = 1;  /* a drained cluster lives on with its members' growth */
    st->volume[c] += 1;
    return c;
}

static void cluster_edge(StreamState *st, int64_t iu, int64_t du, int fu,
                         int64_t iv, int64_t dv, int fv)
{
    st->total_volume += 2;
    int64_t cu = join_cluster(st, iu, du, fu);
    int64_t cv = join_cluster(st, iv, dv, fv);
    if (cu == cv)
        return;
    int64_t mover, md, source, target;
    if (du <= dv) {
        mover = iu; md = du; source = cu; target = cv;
    } else {
        mover = iv; md = dv; source = cv; target = cu;
    }
    double cap = st->volume_slack * (double)st->total_volume
                 / (double)st->target_clusters;
    if (!(cap > 2.0))
        cap = 2.0;
    if ((double)(st->volume[target] + md) <= cap) {
        st->cluster_of[mover] = target;
        st->volume[source] -= md;
        st->volume[target] += md;
        if (st->volume[source] <= 0) {
            st->volume[source] = 0;
            st->present[source] = 0;
        }
    }
}

/* Pass 1 over edges[start, m) (m rows of (u, v), no self loops). */
int64_t oo_count(StreamState *st, const int64_t *edges, int64_t start, int64_t m)
{
    for (int64_t e = start; e < m; e++) {
        if (st->n + 2 > st->vcap)
            return e;
        int fu, fv;
        int64_t iu = index_of(st, edges[2 * e], &fu);
        int64_t du = count_endpoint(st, iu, fu);
        int64_t iv = index_of(st, edges[2 * e + 1], &fv);
        int64_t dv = count_endpoint(st, iv, fv);
        if (st->cluster_of)
            cluster_edge(st, iu, du, fu, iv, dv, fv);
    }
    return m;
}

/* -- placement (StreamingPlacer.place_batch) ------------------------------ */

static inline int64_t lighter(const StreamState *st, int64_t a, int64_t b)
{
    /* a's subtree holds the lower ids, so ties go to a; -1 = padding */
    if (b < 0)
        return a;
    if (a < 0)
        return b;
    return st->eff[b] < st->eff[a] ? b : a;
}

static inline void tree_update(StreamState *st, int64_t k)
{
    for (int64_t i = (st->leaves + k) >> 1; i >= 1; i >>= 1)
        st->tree[i] = lighter(st, st->tree[2 * i], st->tree[2 * i + 1]);
}

void oo_place_init(StreamState *st)
{
    int64_t leaves = st->leaves;
    st->hi = st->eff[0];
    for (int64_t k = 0; k < leaves; k++) {
        st->tree[leaves + k] = k < st->p ? k : -1;
        if (k < st->p && st->eff[k] > st->hi)
            st->hi = st->eff[k];
    }
    for (int64_t i = leaves - 1; i >= 1; i--)
        st->tree[i] = lighter(st, st->tree[2 * i], st->tree[2 * i + 1]);
}

static inline int64_t degree_of(const StreamState *st, int64_t i)
{
    return st->exact ? st->deg[i] : cm_get(st, st->keys[i]);
}

static inline uint64_t bit_in(int64_t k, int64_t w)
{
    return k >= 0 && k >> 6 == w ? 1ULL << (k & 63) : 0;
}

static int64_t place_hdrf(const StreamState *st, int64_t iu, int64_t iv)
{
    const int64_t words = st->words;
    const uint64_t *mu = st->masks + iu * words;
    const uint64_t *mv = st->masks + iv * words;
    int64_t tu = st->affinity ? st->affinity[iu] : -1;
    int64_t tv = st->affinity ? st->affinity[iv] : -1;
    int64_t least = st->tree[1];
    int64_t lo = st->eff[least], hi = st->hi;
    /* The one partition beyond the hosts that can win: the least loaded,
     * or with lam == 0 (all such score 0) the lowest id among them. */
    int64_t extra = least;
    if (st->lam == 0.0) {
        extra = -1;
        for (int64_t w = 0; w < words; w++) {
            uint64_t hosts = mu[w] | mv[w] | bit_in(tu, w) | bit_in(tv, w);
            if (~hosts) {
                int64_t k = w * 64 + __builtin_ctzll(~hosts);
                extra = k < st->p ? k : -1;
                break;
            }
        }
    }
    int64_t du = degree_of(st, iu), dv = degree_of(st, iv);
    du = du > 1 ? du : 1;
    dv = dv > 1 ? dv : 1;
    double theta_u = (double)du / (double)(du + dv);
    double theta_v = 1.0 - theta_u;
    double hit_u = 1.0 + (1.0 - theta_u);
    double hit_v = 1.0 + (1.0 - theta_v);
    double spread = st->epsilon + (double)hi - (double)lo;
    double best = -INFINITY;
    int64_t chosen = 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t targets = bit_in(tu, w) | bit_in(tv, w);
        uint64_t cands = mu[w] | mv[w] | targets | bit_in(extra, w);
        while (cands) {
            int b = __builtin_ctzll(cands);
            uint64_t bit = cands & -cands;
            cands ^= bit;
            int64_t k = w * 64 + b;
            double score = ((mu[w] & bit) ? hit_u : 0.0)
                           + ((mv[w] & bit) ? hit_v : 0.0)
                           + st->lam * ((double)(hi - st->eff[k]) / spread);
            if (targets & bit)
                score += st->gamma;
            if (score > best) {
                best = score;
                chosen = k;
            }
        }
    }
    return chosen;
}

static int64_t place_greedy(const StreamState *st, int64_t iu, int64_t iv)
{
    const int64_t words = st->words;
    const uint64_t *mu = st->masks + iu * words;
    const uint64_t *mv = st->masks + iv * words;
    int common = 0;
    for (int64_t w = 0; w < words && !common; w++)
        common = (mu[w] & mv[w]) != 0;
    int64_t chosen = -1;
    for (int64_t w = 0; w < words; w++) {
        uint64_t pool = common ? mu[w] & mv[w] : mu[w] | mv[w];
        while (pool) {
            int64_t k = w * 64 + __builtin_ctzll(pool);
            pool &= pool - 1;
            if (chosen < 0 || st->sizes[k] < st->sizes[chosen])
                chosen = k;
        }
    }
    return chosen < 0 ? st->tree[1] : chosen;
}

static inline void add_replica(StreamState *st, int64_t i, int64_t k)
{
    uint64_t *word = st->masks + i * st->words + (k >> 6);
    uint64_t bit = 1ULL << (k & 63);
    if (!(*word & bit)) {
        *word |= bit;
        st->replicas++;
    }
}

/* Pass 2 over edges[start, m) (rows oriented (min, max)); parts[e] gets
 * edge e's partition. */
int64_t oo_place(StreamState *st, const int64_t *edges, int64_t start,
                 int64_t m, int64_t *parts)
{
    for (int64_t e = start; e < m; e++) {
        if (st->n + 2 > st->vcap)
            return e;
        int fresh;
        int64_t iu = index_of(st, edges[2 * e], &fresh);
        int64_t iv = index_of(st, edges[2 * e + 1], &fresh);
        int64_t k = st->greedy ? place_greedy(st, iu, iv) : place_hdrf(st, iu, iv);
        st->sizes[k]++;
        st->eff[k]++;
        if (st->eff[k] > st->hi)
            st->hi = st->eff[k];
        tree_update(st, k);
        add_replica(st, iu, k);
        add_replica(st, iv, k);
        parts[e] = k;
    }
    return m;
}

/* Compiled batch kernels for the co-scheduling hot path.
 *
 * Fused single-pass versions of the three measured hot spots:
 *
 *   - pairwise_node_weights : MatrixDegradationModel's gather + block-sum
 *     (the NumPy path materializes an (N, u, u) gather then reduces it;
 *     here each node is one register-resident accumulation);
 *   - pressure_node_weights : the shared miss-rate / asymmetric kernel
 *     sum_i s_i * kappa * phi(A_T - a_i) (NumPy needs three (N, u)
 *     temporaries plus an einsum; here one pass, no temporaries);
 *   - pressure_monotone_topk: the first L subsets of a graph level in the
 *     lazy best-first order of iter_subsets_monotone, scored with the same
 *     row function -- one call per level instead of one per heap pop;
 *   - sdc_merge_ways        : Chandra et al.'s SDC position-by-position
 *     merge walk (a pure-Python double loop in the fallback);
 *   - select_smallest       : bounded selection of the k lowest weights
 *     with (weight, index) ordering — the MER top-n/u rule — so eager
 *     level expansion never materializes Python tuples to re-partition.
 *
 * Every function is numerically identical to the NumPy fallback in
 * repro/perf/kernels/numpy_backend.py: same IEEE double operations in the
 * same association order, bit-for-bit reproducible tie-breaks.
 *
 * ABI: plain C, loaded via ctypes.  Indices are int64 (matching a 64-bit
 * numpy intp); weights are float64.
 */

#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* Node weights from a pairwise degradation table.
 * P is row-major (n_procs x n_procs); nodes is row-major (N x u). */
void pairwise_node_weights(const double *P, int64_t n_procs,
                           const int64_t *nodes, int64_t N, int64_t u,
                           double *out)
{
    for (int64_t r = 0; r < N; r++) {
        const int64_t *row = nodes + r * u;
        double total = 0.0;
        for (int64_t i = 0; i < u; i++) {
            const double *Pi = P + row[i] * n_procs;
            for (int64_t j = 0; j < u; j++)
                if (j != i)
                    total += Pi[row[j]];
        }
        out[r] = total;
    }
}

/* sum_i sens[i] * kappa * phi(sum_{j != i} aggr[j]) for one node row.
 * saturation <= 0 selects the linear response phi(x) = x;
 * MissRatePressureModel passes sens == aggr (the miss-rate vector).
 * The one definition of a pressure node weight: both kernels below call
 * it, so a level scored by either is bit-identical.  Forced inline: as a
 * call per row it costs the batch kernel about a fifth of its speed on
 * large linear batches. */
static inline __attribute__((always_inline)) double
pressure_row(const double *sens, const double *aggr, const int64_t *row,
             int64_t u, double kappa, double saturation)
{
    double asum = 0.0;
    for (int64_t i = 0; i < u; i++)
        asum += aggr[row[i]];
    double total = 0.0;
    if (saturation > 0.0) {
        for (int64_t i = 0; i < u; i++) {
            double others = asum - aggr[row[i]];
            total += sens[row[i]] *
                     (saturation * (1.0 - exp(-others / saturation)));
        }
    } else {
        for (int64_t i = 0; i < u; i++)
            total += sens[row[i]] * (asum - aggr[row[i]]);
    }
    return kappa * total;
}

void pressure_node_weights(const double *sens, const double *aggr,
                           const int64_t *nodes, int64_t N, int64_t u,
                           double kappa, double saturation, double *out)
{
    for (int64_t r = 0; r < N; r++)
        out[r] = pressure_row(sens, aggr, nodes + r * u, u, kappa,
                              saturation);
}

/* Scratch of the top-L enumeration: index tuples, weights, the heap and
 * the seen-set, all sized for its 1 + (L - 1) * k entry bound. */
typedef struct {
    int64_t k;
    int64_t *idx;   /* entry e's index tuple is idx[e*k .. e*k+k) */
    double *w;      /* entry e's weight */
    int64_t *heap;  /* binary min-heap of entry ids */
    int64_t *table; /* open-addressing seen-set of entry ids, -1 = empty */
    uint64_t mask;  /* table size - 1 (a power of two) */
    int64_t used, size;
} topk_state;

static int topk_less(const topk_state *S, int64_t a, int64_t b)
{
    if (S->w[a] != S->w[b])
        return S->w[a] < S->w[b];
    const int64_t *ia = S->idx + a * S->k, *ib = S->idx + b * S->k;
    for (int64_t j = 0; j < S->k; j++)
        if (ia[j] != ib[j])
            return ia[j] < ib[j];
    return 0;
}

static void topk_swap(int64_t *heap, int64_t a, int64_t b)
{
    int64_t t = heap[a];
    heap[a] = heap[b];
    heap[b] = t;
}

/* The tuple in slot `used` is a candidate: if unseen, register it, score
 * the row [level_pid, ordered[idx...]] and push it; else leave the slot
 * free for the next candidate. */
static void topk_admit(topk_state *S, const double *sens,
                       const double *aggr, const int64_t *ordered,
                       int64_t *row, double kappa, double saturation)
{
    int64_t k = S->k, e = S->used;
    const int64_t *t = S->idx + e * k;
    uint64_t h = 1469598103934665603ULL; /* FNV-1a over the indices */
    for (int64_t j = 0; j < k; j++) {
        h ^= (uint64_t)t[j];
        h *= 1099511628211ULL;
    }
    uint64_t s = (h ^ (h >> 29)) & S->mask;
    while (S->table[s] >= 0) {
        const int64_t *o = S->idx + S->table[s] * k;
        int64_t j = 0;
        while (j < k && o[j] == t[j])
            j++;
        if (j == k)
            return;
        s = (s + 1) & S->mask;
    }
    S->table[s] = e;
    for (int64_t j = 0; j < k; j++)
        row[j + 1] = ordered[t[j]];
    S->w[e] = pressure_row(sens, aggr, row, k + 1, kappa, saturation);
    S->used++;
    int64_t c = S->size++;
    S->heap[c] = e;
    while (c > 0 && topk_less(S, S->heap[c], S->heap[(c - 1) / 2])) {
        topk_swap(S->heap, c, (c - 1) / 2);
        c = (c - 1) / 2;
    }
}

static int64_t topk_pop(topk_state *S)
{
    int64_t *heap = S->heap;
    int64_t top = heap[0];
    heap[0] = heap[--S->size];
    int64_t p = 0;
    for (;;) {
        int64_t l = 2 * p + 1, r = 2 * p + 2, best = p;
        if (l < S->size && topk_less(S, heap[l], heap[best]))
            best = l;
        if (r < S->size && topk_less(S, heap[r], heap[best]))
            best = r;
        if (best == p)
            return top;
        topk_swap(heap, p, best);
        p = best;
    }
}

/* Best-first top-L enumeration of k-subsets for one graph level.
 *
 * ordered[0..m) are the candidate pids in rank (pressure) order; a subset
 * is an ascending index tuple into it, scored as the node row
 * [level_pid, ordered[idx0], ..., ordered[idx_{k-1}]].  Starting from
 * (0, 1, ..., k-1), each pop yields its subset and pushes its children:
 * advance one index, keeping strict ascent, unless the child was seen
 * before.  Entries pop in (weight, index tuple) lexicographic order --
 * the key heapq compares in iter_subsets_monotone -- so the yield order,
 * the discovered set and therefore the order under non-monotone (proxy)
 * weights all equal the Python enumerator's.
 *
 * Writes up to L subsets (pids, rank order, row-major L x k) and their
 * weights; returns how many, or -1 when scratch allocation fails.  At most
 * 1 + (L - 1) * k entries are ever scored. */
int64_t pressure_monotone_topk(const double *sens, const double *aggr,
                               const int64_t *ordered, int64_t m,
                               int64_t level_pid, int64_t k,
                               double kappa, double saturation, int64_t L,
                               int64_t *out_subsets, double *out_w)
{
    if (L <= 0 || k > m)
        return 0;
    if (k == 0) { /* the empty subset, weight 0 as in the Python enumerator */
        out_w[0] = 0.0;
        return 1;
    }
    int64_t cap = 1 + (L - 1) * k;
    uint64_t tsize = 1;
    while (tsize < 2 * (uint64_t)cap)
        tsize <<= 1;
    topk_state S = {k, NULL, NULL, NULL, NULL, tsize - 1, 0, 0};
    S.idx = malloc((size_t)(cap * k) * sizeof(int64_t));
    S.w = malloc((size_t)cap * sizeof(double));
    S.heap = malloc((size_t)cap * sizeof(int64_t));
    S.table = malloc((size_t)tsize * sizeof(int64_t));
    int64_t *row = malloc((size_t)(k + 1) * sizeof(int64_t));
    int64_t produced = -1;
    if (!S.idx || !S.w || !S.heap || !S.table || !row)
        goto done;
    for (uint64_t s = 0; s < tsize; s++)
        S.table[s] = -1;
    row[0] = level_pid;
    for (int64_t j = 0; j < k; j++)
        S.idx[j] = j;
    topk_admit(&S, sens, aggr, ordered, row, kappa, saturation);
    produced = 0;
    while (S.size > 0) {
        int64_t e = topk_pop(&S);
        const int64_t *cur = S.idx + e * k;
        for (int64_t j = 0; j < k; j++)
            out_subsets[produced * k + j] = ordered[cur[j]];
        out_w[produced] = S.w[e];
        if (++produced == L)
            break;
        /* Children: advance one index, keeping strict ascent. */
        for (int64_t j = 0; j < k; j++) {
            int64_t nxt = cur[j] + 1;
            if ((j + 1 < k && nxt >= cur[j + 1]) || nxt >= m)
                continue;
            int64_t *child = S.idx + S.used * k;
            for (int64_t q = 0; q < k; q++)
                child[q] = cur[q];
            child[j] = nxt;
            topk_admit(&S, sens, aggr, ordered, row, kappa, saturation);
        }
    }
done:
    free(S.idx);
    free(S.w);
    free(S.heap);
    free(S.table);
    free(row);
    return produced;
}

/* SDC merge: partition `assoc` cache ways among k co-running processes.
 * counters is a flattened ragged array: process i's hit counters are
 * counters[offsets[i] .. offsets[i] + lengths[i]).  weights are the
 * access-rate normalizers.  Writes each process's won-way count to `won`.
 * Semantics mirror repro.cache.sdc.sdc_effective_ways exactly: highest
 * current rate-weighted counter wins the position (ties to the lower
 * process index), the walk stops when every live counter is <= 0, and
 * leftover positions are dealt round-robin from process 0. */
void sdc_merge_ways(const double *counters, const int64_t *offsets,
                    const int64_t *lengths, const double *weights,
                    int64_t k, int64_t assoc, int64_t *won)
{
    int64_t ptr_buf[64];
    int64_t *ptr = ptr_buf; /* k is the core count of one machine: tiny */
    for (int64_t i = 0; i < k; i++) {
        ptr[i] = 0;
        won[i] = 0;
    }
    int64_t claimed = 0;
    for (int64_t pos = 0; pos < assoc; pos++) {
        int64_t best = -1;
        double best_val = -1.0;
        for (int64_t i = 0; i < k; i++) {
            if (ptr[i] >= lengths[i])
                continue;
            double val = counters[offsets[i] + ptr[i]] * weights[i];
            if (val > best_val) {
                best_val = val;
                best = i;
            }
        }
        if (best < 0 || best_val <= 0.0)
            break;
        won[best] += 1;
        ptr[best] += 1;
        claimed += 1;
    }
    int64_t remaining = assoc - claimed;
    int64_t i = 0;
    while (remaining > 0) {
        won[i % k] += 1;
        remaining -= 1;
        i += 1;
    }
}

/* Indices of the k smallest weights, ordered by (weight, index) ascending —
 * exactly the MER trim's (weight, node) tie-break, since level nodes are
 * enumerated in ascending node order.  Bounded max-heap of k entries:
 * O(N log k), no full sort, no Python objects. */
static inline int heap_less(const double *w, const int64_t *idx,
                            int64_t a, int64_t b)
{
    /* "less" in max-heap priority: (w, idx) of a precedes b. */
    if (w[idx[a]] != w[idx[b]])
        return w[idx[a]] < w[idx[b]];
    return idx[a] < idx[b];
}

void select_smallest(const double *w, int64_t N, int64_t k, int64_t *out_idx)
{
    if (k > N)
        k = N;
    if (k <= 0)
        return;
    /* Build a max-heap (worst of the kept k at the root) in out_idx. */
    int64_t size = 0;
    for (int64_t i = 0; i < N; i++) {
        if (size < k) {
            out_idx[size++] = i;
            int64_t c = size - 1;
            while (c > 0) {
                int64_t p = (c - 1) / 2;
                if (heap_less(w, out_idx, p, c)) {
                    int64_t t = out_idx[p];
                    out_idx[p] = out_idx[c];
                    out_idx[c] = t;
                    c = p;
                } else
                    break;
            }
            continue;
        }
        /* Replace the root if i beats the current worst. */
        if (w[i] > w[out_idx[0]] ||
            (w[i] == w[out_idx[0]] && i > out_idx[0]))
            continue;
        out_idx[0] = i;
        int64_t p = 0;
        for (;;) {
            int64_t l = 2 * p + 1, r = 2 * p + 2, m = p;
            if (l < k && heap_less(w, out_idx, m, l))
                m = l;
            if (r < k && heap_less(w, out_idx, m, r))
                m = r;
            if (m == p)
                break;
            int64_t t = out_idx[p];
            out_idx[p] = out_idx[m];
            out_idx[m] = t;
            p = m;
        }
    }
    /* Heap-sort the kept entries into ascending (weight, index) order:
     * repeatedly move the max to the tail. */
    for (int64_t end = k - 1; end > 0; end--) {
        int64_t t = out_idx[0];
        out_idx[0] = out_idx[end];
        out_idx[end] = t;
        int64_t p = 0;
        for (;;) {
            int64_t l = 2 * p + 1, r = 2 * p + 2, m = p;
            if (l < end && heap_less(w, out_idx, m, l))
                m = l;
            if (r < end && heap_less(w, out_idx, m, r))
                m = r;
            if (m == p)
                break;
            int64_t tt = out_idx[p];
            out_idx[p] = out_idx[m];
            out_idx[m] = tt;
            p = m;
        }
    }
}

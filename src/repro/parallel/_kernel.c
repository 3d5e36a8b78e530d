/* Native tier: stage one's expansion kernels and stage two.
 *
 * Both expansion entry points share one byte-lane (SWAR) representation: a
 * node's per-instance boolean conditions live in 64-bit lane words
 * (byte lane c of word w = BFS instance 8w + c), the per-edge hit ballot
 * is a word AND, and every matrix write is an idempotent byte store of
 * level + 1 into a previously-infinite cell.  Byte-granular stores are
 * what keep Theorem V.2's lock-free argument intact when chunks of one
 * frontier run concurrently: racing writers store the same constant, and
 * a torn word *read* can only misclassify single bytes as
 * already-written, which skips a duplicate claim, never a required one
 * (the racing chunk claimed it).
 *
 * A query of q <= 64 keywords has W = ceil(q / 8) lane words per row:
 * word w of a row -- a neighbour's for the ballot, the source's own for
 * its eligibility words -- is read 8 bytes wide at matrix + v*q + 8w
 * (see load_word).  Lanes past q in the last word are the first bytes of
 * the following row; they are dead by construction, because the
 * eligibility words only ever have bits in lanes < q and every use of a
 * row word is masked by them.  M itself stays n x q bytes, and stores
 * stay byte stores over c < q, so a row never clobbers its neighbour.
 * q <= 8 (W = 1) is the common case and is compiled as its own body.
 *
 *   fused_expand      — one frontier chunk, one query; the ThreadPool
 *                       per-chunk kernel.  Emits the cells it claimed and
 *                       leaves finite_count to the caller's merge.
 *   whole_level_step  — one complete bottom-up level (Algorithm 1's
 *                       enqueue + identify + Algorithm 2 expansion +
 *                       incremental finite-count update) in a single
 *                       call, eliminating the per-level Python round
 *                       trips.
 *
 * Both run every source through expand_source.  Both also report a
 * live-lane mask (bit i: BFS instance i may still be written at a later
 * level): every lane a ballot wrote, and the eligible lanes of every
 * source that re-flags itself -- waiting for activation (Algorithm 2
 * lines 5-7) or retrying a blocked neighbour (lines 18-20).  A lane
 * outside it is closed for good; core/bottom_up.py stops the search on
 * it.
 *
 * Because the matrix is read live (not from a pre-level snapshot), a
 * cell is claimed exactly once per call, so the emitted keys are the
 * deduplicated hit set by construction.  Cells already stamped with
 * level + 1 by an earlier edge are tallied as `duplicates_elided`
 * (values <= level, 0, and 255 are the only other possible byte states,
 * so the equality test is unambiguous).
 *
 * Stage two is the third and fourth export:
 *
 *   extract_graphs    — every Central Node of a chunk in one call:
 *                       extraction, level-cover and Eq. 6's weight
 *                       mass; kept nodes ascending, each graph's edge
 *                       keys as the raw run the walk produced (described
 *                       at the function).
 *   rank_graphs       — once per query on the concatenated batch:
 *                       containment dedup, Eq. 6 scores, the top-k cut,
 *                       and only then the ranked graphs' final edge sets
 *                       and keyword contributions.
 *
 * Both sort with sort_i64, an introsort.
 *
 * Compiled on demand by _native.py with the system C compiler, which
 * every search route requires.
 */

#include <stdint.h>
#include <string.h>

#define LO7 0x7F7F7F7F7F7F7F7FULL
#define LSB 0x0101010101010101ULL
#define MSB 0x8080808080808080ULL

/* Lane words of a q <= 64 row. */
#define MAX_WORDS 8

/* The helpers a per-source body calls with a literal word count. */
#define ALWAYS_INLINE inline __attribute__((always_inline))

/* 0x01 in every lane whose byte equals 0xFF (infinity): low 7 bits all
 * set (carry into bit 7) AND bit 7 set. */
static inline uint64_t inf_lanes(uint64_t m)
{
    return ((((m & LO7) + LSB) & m) & MSB) >> 7;
}

/* 0x01 in every lane whose byte equals `value`.  Borrow-free zero-byte
 * detection on m ^ value (the naive (t - LSB) & ~t & MSB trick can
 * false-positive on 0x01 bytes after a cross-byte borrow, and
 * `level == next_level ^ 1` is a reachable matrix value). */
static inline uint64_t eq_lanes(uint64_t m, uint8_t value)
{
    const uint64_t t = m ^ (LSB * value);
    return (~(((t & LO7) + LO7) | t | LO7)) >> 7;
}

/* Horizontal sum of a word of 0x00/0x01 byte lanes. */
static inline int64_t lane_sum(uint64_t lanes)
{
    return (int64_t)((lanes * LSB) >> 56);
}

/* Index of the lowest nonzero lane of a nonzero word of 0x00/0x01 byte
 * lanes; `b &= b - 1` then clears it, so a ballot's hit lanes are
 * visited in ascending order, one byte store each. */
static inline int64_t lowest_lane(uint64_t lanes)
{
    return (int64_t)(__builtin_ctzll(lanes) >> 3);
}

/* A word of 0x00/0x01 byte lanes as a bit mask (bit c = lane c): the
 * multiplier lands lane c's bit on bit 56 + c, and no two partial
 * products share a bit, so nothing carries. */
static inline uint64_t lane_bits(uint64_t lanes)
{
    return (lanes * 0x0102040810204080ULL) >> 56;
}

/* Rows [0, safe_rows) can be read `words` lane words wide without
 * leaving the n*q-byte matrix: v*q + 8*words <= n*q.  Only the last row
 * or two (every row when n*q < 8*words) fall outside. */
static inline int64_t safe_rows(int64_t n, int64_t q, int64_t words)
{
    return n * q >= 8 * words ? (n * q - 8 * words) / q + 1 : 0;
}

/* Word w of node v's M row.  Only the last word can run past the row;
 * on a tail row its q - 8w bytes are copied into an all-ones word
 * instead of over-reading the buffer.  Callers mask the lanes past q. */
static ALWAYS_INLINE uint64_t load_word(const uint8_t* matrix, int64_t v,
    int64_t q, int64_t w, int64_t words, int64_t n_safe)
{
    uint64_t m = ~0ULL;
    if (v < n_safe || w < words - 1)
        memcpy(&m, matrix + v * q + 8 * w, 8);
    else
        memcpy(&m, matrix + v * q + 8 * w, (size_t)(q - 8 * w));
    return m;
}

/* 0x01 in every lane whose byte is <= `value`, unsigned.  The low seven
 * bits compare by one subtraction per lane from (value | 0x80), which
 * cannot borrow across lanes; bit 7 then decides where the two high
 * bits differ. */
static inline uint64_t le_lanes(uint64_t m, uint8_t value)
{
    const uint64_t v = LSB * value;
    const uint64_t low_le = ((v & LO7) | MSB) - (m & LO7);
    return (((~(m ^ v) & low_le) | (~m & v)) & MSB) >> 7;
}

/* Node u's eligibility lane words: lane c of se[w] is 0x01 iff
 * M[u][8w + c] <= level (Algorithm 2 lines 9-11).  Returns their OR.
 * One row-word load and one lane compare per word, no branch per lane;
 * the lanes past q are masked off. */
static ALWAYS_INLINE uint64_t eligible_words(const uint8_t* matrix, int64_t u,
    int64_t q, uint8_t level, int64_t words, int64_t n_safe, uint64_t* se)
{
    uint64_t any = 0;
    for (int64_t w = 0; w < words; ++w) {
        const uint64_t lanes = w < words - 1 ? LSB
            : LSB >> (8 * (8 * words - q));
        se[w] = le_lanes(load_word(matrix, u, q, w, words, n_safe), level)
            & lanes;
        any |= se[w];
    }
    return any;
}

/* The bit mask of `words` lane words (bit 8w + c = lane c of word w). */
static ALWAYS_INLINE uint64_t words_bits(const uint64_t* lanes, int64_t words)
{
    uint64_t bits = 0;
    for (int64_t w = 0; w < words; ++w)
        bits |= lane_bits(lanes[w]) << (8 * w);
    return bits;
}

/* Algorithm 2 for frontier node u at `level` (writing level + 1) over
 * `words` lane words, with the CSR, M and the state arrays as the
 * exports take them.  Always inlined with `words` and `emit_keys` known
 * at compile time: `emit_keys` writes each claimed cell key
 * (node * q + lane) to out_keys[tally[1]] and leaves finite_count alone
 * (fused_expand); otherwise finite_count is advanced in place
 * (whole_level_step).  `tally` adds up edges_gathered, pairs_hit,
 * sources_pruned and duplicates_elided, `live` the live-lane mask
 * (bit 8w + c = lane c of word w). */
static ALWAYS_INLINE void expand_source(int64_t u, const int64_t words,
    const int emit_keys, const int64_t* indptr, const int32_t* indices,
    uint8_t* matrix, int64_t q, int64_t n_safe, uint8_t* fid,
    const uint8_t* cid, const uint8_t* keyword_node,
    const int32_t* activation, int32_t* finite_count, int64_t* out_keys,
    uint8_t level, int64_t may_block, int64_t* tally, uint64_t* live)
{
    const uint8_t next_level = (uint8_t)(level + 1);
    const int32_t next_level_i = (int32_t)level + 1;
    uint64_t se[MAX_WORDS];
    /* Line 2-3: identified Central Nodes never expand. */
    if (cid[u])
        return;
    /* Line 5-7: inactive frontiers re-flag and wait, and keep the lanes
     * they are hit in live.  The row is a cache miss the expansion does
     * not need, so it is read only while some lane is not live yet. */
    if (activation[u] > (int32_t)level) {
        fid[u] = 1;
        if (*live != (q < 64 ? (1ULL << q) - 1 : ~0ULL)) {
            eligible_words(matrix, u, q, level, words, n_safe, se);
            *live |= words_bits(se, words);
        }
        return;
    }
    /* Line 9-11 hoisted: the eligibility lane words. */
    if (!eligible_words(matrix, u, q, level, words, n_safe, se)) {
        ++tally[2];
        return;
    }
    const int64_t end = indptr[u + 1];
    tally[0] += end - indptr[u];
    uint64_t ballots[MAX_WORDS] = {0};
    int retry = 0;
    for (int64_t e = indptr[u]; e < end; ++e) {
        const int64_t v = (int64_t)indices[e];
        /* Line 18-20 before the row load: a blocked node was blocked at
         * every earlier level too and is no source, so its row is all
         * infinity -- no duplicate, a ballot equal to se != 0, a retry.
         * Activation first: most neighbours are active, and then the
         * keyword mask is never read. */
        if (may_block && activation[v] > next_level_i && !keyword_node[v]) {
            retry = 1;
            continue;
        }
        for (int64_t w = 0; w < words; ++w) {
            const uint64_t m = load_word(matrix, v, q, w, words, n_safe);
            tally[3] += lane_sum(se[w] & eq_lanes(m, next_level));
            const uint64_t ballot = se[w] & inf_lanes(m);
            if (!ballot)
                continue;
            for (uint64_t b = ballot; b; b &= b - 1) {
                const int64_t key = v * q + 8 * w + lowest_lane(b);
                matrix[key] = next_level;
                if (emit_keys)
                    out_keys[tally[1]++] = key;
            }
            if (!emit_keys) {
                const int32_t written = (int32_t)lane_sum(ballot);
                finite_count[v] += written;
                tally[1] += written;
            }
            ballots[w] |= ballot;
            fid[v] = 1;
        }
    }
    if (retry) {
        fid[u] = 1;
        for (int64_t w = 0; w < words; ++w)
            ballots[w] |= se[w];
    }
    *live |= words_bits(ballots, words);
}

/* expand_source over `sources`, the body specialised for one lane word
 * (q <= 8) and compiled once more for any other count. */
static ALWAYS_INLINE void expand_sources(const int64_t* sources,
    int64_t n_sources, const int emit_keys, int64_t n,
    const int64_t* indptr, const int32_t* indices, uint8_t* matrix,
    int64_t q, uint8_t* fid, const uint8_t* cid,
    const uint8_t* keyword_node, const int32_t* activation,
    int32_t* finite_count, int64_t* out_keys, uint8_t level,
    int64_t may_block, int64_t* tally, uint64_t* live)
{
    const int64_t words = (q + 7) / 8;
    const int64_t n_safe = safe_rows(n, q, words);
    if (words == 1) {
        for (int64_t i = 0; i < n_sources; ++i)
            expand_source(sources[i], 1, emit_keys, indptr, indices, matrix,
                q, n_safe, fid, cid, keyword_node, activation, finite_count,
                out_keys, level, may_block, tally, live);
    } else {
        for (int64_t i = 0; i < n_sources; ++i)
            expand_source(sources[i], words, emit_keys, indptr, indices,
                matrix, q, n_safe, fid, cid, keyword_node, activation,
                finite_count, out_keys, level, may_block, tally, live);
    }
}

/* Expand one frontier chunk at `level` (writing level + 1).
 *
 *   n           node count (rows of `matrix`)
 *   n_chunk     entries of `chunk`
 *   chunk       frontier node ids, as enqueued (Central Nodes, waiting
 *               and ineligible sources included)
 *   indptr      CSR row pointers (int64, n + 1)
 *   indices     CSR neighbor ids (int32)
 *   matrix      the (n x q) uint8 hitting-level matrix M, row-major
 *   q           BFS instances (1..64)
 *   fid         FIdentifier flags (uint8, n)
 *   cid         CIdentifier flags (read only)
 *   keyword_node uint8 mask: node contains a query keyword
 *   activation  per-node minimum activation levels (int32)
 *   level       the current BFS level
 *   may_block   0 when no node can still await activation at level + 1
 *   out_keys    capacity for every possible hit (n * q is always enough)
 *   stats_out   [0] edges_gathered  [1] pairs_hit  [2] sources_pruned
 *               [3] duplicates_elided  [4] live-lane mask
 *
 * Returns the number of unique cell keys (node * q + lane) written to
 * out_keys; finite_count is the caller's to advance.
 */
int64_t fused_expand(
    int64_t n,
    int64_t n_chunk,
    const int64_t* chunk,
    const int64_t* indptr,
    const int32_t* indices,
    uint8_t* matrix,
    int64_t q,
    uint8_t* fid,
    const uint8_t* cid,
    const uint8_t* keyword_node,
    const int32_t* activation,
    uint8_t level,
    int64_t may_block,
    int64_t* out_keys,
    int64_t* stats_out)
{
    int64_t tally[4] = {0, 0, 0, 0};
    uint64_t live = 0;
    expand_sources(chunk, n_chunk, 1, n, indptr, indices, matrix, q, fid,
        cid, keyword_node, activation, NULL, out_keys, level, may_block,
        tally, &live);
    memcpy(stats_out, tally, sizeof(tally));
    stats_out[4] = (int64_t)live;
    return tally[1];
}

/* One complete bottom-up level in a single call (Algorithm 1's joined
 * steps): drain FIdentifier into a compacted, ascending frontier (a
 * branch-free drain, eight flags per word), identify Central Nodes
 * among it (finite_count == q, Lemma V.1), and — unless the top-k
 * target is met or the level cap reached — run Algorithm 2 over the
 * frontier (expand_source) with the incremental finite-count update
 * applied in place.
 *
 *   n             node count
 *   indptr/indices CSR adjacency
 *   matrix        (n x q) uint8 hitting-level matrix, row-major
 *   q             BFS instances (1..64)
 *   fid           FIdentifier flags (drained, then re-written)
 *   cid           CIdentifier flags (newly central nodes are stamped)
 *   keyword_node  uint8 mask: node contains a query keyword
 *   activation    per-node minimum activation levels (int32)
 *   central_level per-node identification level (int16, -1 = none)
 *   finite_count  per-node finite-cell counts (int32, kept exact)
 *   level         the current BFS level (expansion writes level + 1)
 *   central_have  Central Nodes found before this level
 *   k             the top-k target (expansion is skipped once
 *                 central_have + newly found >= k, exactly like the
 *                 Python loop's break between identify and expand)
 *   may_expand    0 when this is the lmax terminal level
 *   may_block     0 when no node can still await activation at
 *                 level + 1 (skips the blocked/retry protocol)
 *   frontier_out  capacity n: the compacted frontier (ascending)
 *   central_out   capacity n: newly identified Central Nodes (ascending)
 *   stats_out     [0] n_frontier  [1] n_new_central  [2] expanded(0/1)
 *                 [3] edges_gathered  [4] pairs_hit  [5] sources_pruned
 *                 [6] duplicates_elided  [7] live-lane mask (bit i:
 *                 lane i may still be written after this level; 0
 *                 when the level did not expand)
 *
 * Returns the number of frontier nodes.
 */
int64_t whole_level_step(
    int64_t n,
    const int64_t* indptr,
    const int32_t* indices,
    uint8_t* matrix,
    int64_t q,
    uint8_t* fid,
    uint8_t* cid,
    const uint8_t* keyword_node,
    const int32_t* activation,
    int16_t* central_level,
    int32_t* finite_count,
    uint8_t level,
    int64_t central_have,
    int64_t k,
    int64_t may_expand,
    int64_t may_block,
    int64_t* frontier_out,
    int64_t* central_out,
    int64_t* stats_out)
{
    int64_t tally[4] = {0, 0, 0, 0};
    uint64_t live = 0;
    int64_t n_frontier = 0;
    int64_t n_central = 0;
    int64_t expanded = 0;

    /* Enqueue: drain FIdentifier into the joint frontier (ascending,
     * exactly like np.flatnonzero), branch-free.  Eight flags are read
     * as one word and an all-zero word is skipped; inside a non-zero
     * word every id is stored and the count advances only past flagged
     * ones, so a dense frontier costs no mispredicted branch per node.
     * The store lands at n_frontier <= u, never past n - 1.  The word
     * is then cleared with one store, and the n % 8 tail bytewise. */
    int64_t u = 0;
    for (; u + 8 <= n; u += 8) {
        uint64_t flags;
        memcpy(&flags, fid + u, 8);
        if (!flags)
            continue;
        for (int64_t j = 0; j < 8; ++j) {
            frontier_out[n_frontier] = u + j;
            n_frontier += fid[u + j] != 0;
        }
        memset(fid + u, 0, 8);
    }
    for (; u < n; ++u) {
        frontier_out[n_frontier] = u;
        n_frontier += fid[u] != 0;
        fid[u] = 0;
    }

    if (n_frontier > 0) {
        /* Identify: frontiers whose M row is fully finite become
         * Central Nodes at depth = level (Lemma V.1). */
        for (int64_t i = 0; i < n_frontier; ++i) {
            const int64_t u = frontier_out[i];
            if (!cid[u] && finite_count[u] == (int32_t)q) {
                cid[u] = 1;
                central_level[u] = (int16_t)level;
                central_out[n_central++] = u;
            }
        }

        if (may_expand && central_have + n_central < k) {
            expanded = 1;
            expand_sources(frontier_out, n_frontier, 0, n, indptr, indices,
                matrix, q, fid, cid, keyword_node, activation, finite_count,
                NULL, level, may_block, tally, &live);
        }
    }

    stats_out[0] = n_frontier;
    stats_out[1] = n_central;
    stats_out[2] = expanded;
    memcpy(stats_out + 3, tally, sizeof(tally));
    stats_out[7] = (int64_t)live;
    return n_frontier;
}

static inline void swap_i64(int64_t* a, int64_t i, int64_t j)
{
    const int64_t x = a[i];
    a[i] = a[j];
    a[j] = x;
}

/* Heap sort of a[0..n): the introsort's fallback, O(n log n) whatever
 * the input. */
static void heap_sort_i64(int64_t* a, int64_t n)
{
    for (int64_t start = n / 2, end = n; end > 1;) {
        if (start > 0) {
            --start;
        } else {
            --end;
            swap_i64(a, 0, end);
        }
        const int64_t x = a[start];
        int64_t root = start;
        for (int64_t child; (child = 2 * root + 1) < end; root = child) {
            if (child + 1 < end && a[child + 1] > a[child])
                ++child;
            if (a[child] <= x)
                break;
            a[root] = a[child];
        }
        a[root] = x;
    }
}

/* Ascending in-place sort of node ids, edge keys and (size, index) keys:
 * an introsort.  Runs below 24 entries are insertion-sorted -- most of
 * stage two's runs are a few dozen entries.  Longer ones are
 * partitioned around the median of their first, middle and last entry
 * (Hoare's scheme, which splits runs of equal keys evenly -- raw edge
 * runs repeat keys); the smaller side recurses and the larger one loops,
 * so the stack stays O(log n), and once 2 log2 n partitions have not
 * finished a run it is heap-sorted. */
static void sort_i64_depth(int64_t* a, int64_t n, int depth)
{
    while (n >= 24) {
        if (depth-- == 0) {
            heap_sort_i64(a, n);
            return;
        }
        const int64_t mid = n / 2;
        if (a[mid] < a[0])
            swap_i64(a, mid, 0);
        if (a[n - 1] < a[mid]) {
            swap_i64(a, n - 1, mid);
            if (a[mid] < a[0])
                swap_i64(a, mid, 0);
        }
        const int64_t pivot = a[mid];
        /* a[0] <= pivot <= a[n - 1] bound both scans; the split j ends
         * in [0, n - 2], so both sides are non-empty. */
        int64_t i = -1;
        int64_t j = n;
        for (;;) {
            do
                ++i;
            while (a[i] < pivot);
            do
                --j;
            while (a[j] > pivot);
            if (i >= j)
                break;
            swap_i64(a, i, j);
        }
        const int64_t left = j + 1;
        if (left < n - left) {
            sort_i64_depth(a, left, depth);
            a += left;
            n -= left;
        } else {
            sort_i64_depth(a + left, n - left, depth);
            n = left;
        }
    }
    for (int64_t i = 1; i < n; ++i) {
        const int64_t x = a[i];
        int64_t j = i;
        for (; j > 0 && a[j - 1] > x; --j)
            a[j] = a[j - 1];
        a[j] = x;
    }
}

static void sort_i64(int64_t* a, int64_t n)
{
    sort_i64_depth(a, n, 2 * (63 - __builtin_clzll((uint64_t)n | 1)));
}

/* Drop repeats from an ascending run in place; returns the new length. */
static int64_t unique_i64(int64_t* a, int64_t n)
{
    int64_t w = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (w == 0 || a[i] != a[w - 1])
            a[w++] = a[i];
    }
    return w;
}

/* Node v's keyword contribution: bit c set iff M[v][c] == 0. */
static inline uint64_t contribution_mask(
    const uint8_t* matrix, int64_t v, int64_t q)
{
    uint64_t mask = 0;
    for (int64_t c = 0; c < q; ++c)
        mask |= (uint64_t)(matrix[v * q + c] == 0) << c;
    return mask;
}

/* marks[] stamp of a node level-cover keeps (column stamps are 1..q). */
#define KEPT (-1)

/* Stage two for every Central Node of one query in a single call
 * (Algorithm 3: extraction, level-cover, Eq. 6's weight mass), straight
 * off the graph CSR. Per Central Node, in `centrals` order:
 *
 * Extraction. For every keyword column the Central Node was hit in at a
 * nonzero level, a DFS walks backwards from it, and Theorem V.4 is
 * evaluated on exactly the adjacency slices the walk scans -- no
 * (edge, keyword) relation is materialised beforehand. A neighbor p of a
 * popped target t qualifies as its keyword-c predecessor iff (with
 * h = M[.][c], a = activation):
 *   h_t and h_p finite,  h_t == 1 + max(a_p, h_p, floor_t)  where
 *   floor_t = 0 for keyword nodes else a_t - 1,
 * and, because an identified Central Node stops expanding, p's
 * identification level bounds the hits it can have caused:
 *   central_level[p] < 0  or  h_t <= central_level[p].
 * Every walked t has a finite h_t (the Central Node is hit in every
 * column; anything else was pushed as a qualified p), and h_t == 0 has
 * no predecessor (the right-hand side is >= 1), so keyword sources are
 * popped without a scan. One `marks` cell per node carries both
 * memberships: 0 = not reached yet for this Central Node, c + 1 = last
 * visited while walking column c. Edges are kept as keys pred * n +
 * target, in the order the walk finds them; a pair repeats across
 * columns. The run is written as it is -- sorting and deduplicating it
 * is left to rank_graphs, for the graphs it returns -- except where
 * level-cover prunes (below).
 *
 * Level-cover (Fig. 5), when `apply_level_cover`. A member's
 * contribution is the set of columns it is a source of (M == 0). The
 * Central Node is always preserved; unless it covers every column
 * alone, the other contributors are taken level by level -- a level is
 * a contribution count, highest first -- until the columns preserved so
 * far cover all q, and a level is taken whole. If that preserves every
 * contributor the graph is left as it is. Otherwise the graph is cut to
 * the forward closure of the preserved nodes over its own (pred ->
 * target) edges: everything on a hitting path from a preserved node to
 * the Central Node. The closure looks edges up by pred, so such a
 * graph's run is sorted and deduplicated first, and emitted that way;
 * its keys to or from cut nodes stay in it (rank_graphs drops them).
 *
 * Eq. 6. The weight mass is a plain left-to-right double addition over
 * the kept nodes in ascending id order: rankings carry runs of equal
 * scores, so the summation order is part of the answer.
 *
 *   indptr/indices CSR adjacency
 *   matrix       (n x q) uint8 hitting-level matrix, q <= 64
 *   activation   per-node activation levels (int32)
 *   keyword_node uint8 mask
 *   central_level per-node identification levels (int16, -1 = none)
 *   weights      per-node Eq. 6 weights (double, n)
 *   centrals     the n_centrals Central Node ids
 *   marks        n zeroed int32 (scratch; rezeroed before returning)
 *   stack        capacity n (DFS scratch)
 *   members      capacity n (one graph's pre-prune nodes)
 *   pairs        capacity pair_capacity (one graph's edge keys)
 *   out_nodes    capacity node_capacity: kept node ids, ascending per
 *                graph, graphs concatenated
 *   out_edges    capacity edge_capacity: each graph's edge run (raw,
 *                or sorted and deduplicated where pruned), likewise
 *   node_counts / edge_counts  n_centrals: how many entries of
 *                out_nodes / out_edges each graph owns, in order
 *   raw_counts   n_centrals: node count before level-cover
 *   mass         n_centrals: Eq. 6 weight mass of the kept nodes
 *   needed       [0] nodes, [1] edge run keys, [2] largest per-graph
 *                pair count
 *
 * Returns 0 when everything fitted. Otherwise nothing was written past
 * a capacity, every walk still ran to its end, and `needed` holds
 * capacities with which one more call fits: exact where a graph could
 * be finished, its pre-prune counts (an upper bound) where its pairs
 * did not fit. The counts keep counting past the capacities, so only
 * a call that returned 0 has usable outputs. `marks` is zero on return
 * either way.
 */
int64_t extract_graphs(
    int64_t n,
    const int64_t* indptr,
    const int32_t* indices,
    const uint8_t* matrix,
    int64_t q,
    const int32_t* activation,
    const uint8_t* keyword_node,
    const int16_t* central_level,
    const double* weights,
    int64_t n_centrals,
    const int64_t* centrals,
    int64_t apply_level_cover,
    int32_t* marks,
    int64_t* stack,
    int64_t* members,
    int64_t* pairs,
    int64_t pair_capacity,
    int64_t* out_nodes,
    int64_t node_capacity,
    int64_t* out_edges,
    int64_t edge_capacity,
    int64_t* node_counts,
    int64_t* edge_counts,
    int64_t* raw_counts,
    double* mass,
    int64_t* needed)
{
    const uint64_t all_columns = q < 64 ? (1ULL << q) - 1 : ~0ULL;
    int64_t node_total = 0;
    int64_t edge_total = 0;
    int64_t most_pairs = 0;

    for (int64_t g = 0; g < n_centrals; ++g) {
        const int64_t central = centrals[g];
        int64_t n_members = 0;
        int64_t n_pairs = 0;
        members[n_members++] = central;
        for (int64_t c = 0; c < q; ++c) {
            if (matrix[central * q + c] == 0)
                continue;
            const int32_t column_mark = (int32_t)(c + 1);
            int64_t top = 0;
            marks[central] = column_mark;
            stack[top++] = central;
            while (top) {
                const int64_t t = stack[--top];
                const int32_t mt = (int32_t)matrix[t * q + c];
                if (mt == 0)
                    continue;
                const int32_t floor_t =
                    keyword_node[t] ? 0 : activation[t] - 1;
                const int64_t end = indptr[t + 1];
                for (int64_t e = indptr[t]; e < end; ++e) {
                    const int64_t p = (int64_t)indices[e];
                    const uint8_t mp = matrix[p * q + c];
                    if (mp == 0xFF)
                        continue;
                    int32_t expander = activation[p];
                    if ((int32_t)mp > expander)
                        expander = (int32_t)mp;
                    if (floor_t > expander)
                        expander = floor_t;
                    if (mt != expander + 1)
                        continue;
                    const int16_t pc = central_level[p];
                    if (pc >= 0 && mt > (int32_t)pc)
                        continue;
                    if (n_pairs < pair_capacity)
                        pairs[n_pairs] = p * n + t;
                    ++n_pairs;
                    if (marks[p] != column_mark) {
                        if (marks[p] == 0)
                            members[n_members++] = p;
                        marks[p] = column_mark;
                        stack[top++] = p;
                    }
                }
            }
        }
        if (n_pairs > most_pairs)
            most_pairs = n_pairs;
        raw_counts[g] = n_members;

        int64_t n_kept = n_members;
        int64_t n_edges = n_pairs;
        double weight_mass = 0.0;
        if (n_pairs <= pair_capacity) {
            sort_i64(members, n_members);

            int prune = 0;
            if (apply_level_cover) {
                uint64_t level_columns[65] = {0};
                int64_t level_size[65] = {0};
                int64_t contributors = 0;
                for (int64_t i = 0; i < n_members; ++i) {
                    if (members[i] == central)
                        continue;
                    const uint64_t mask =
                        contribution_mask(matrix, members[i], q);
                    if (!mask)
                        continue;
                    const int count = __builtin_popcountll(mask);
                    level_columns[count] |= mask;
                    ++level_size[count];
                    ++contributors;
                }
                uint64_t covered = contribution_mask(matrix, central, q);
                /* Lowest preserved level; q + 1 preserves no one. */
                int lowest = (int)q + 1;
                int64_t preserved = 0;
                while (covered != all_columns && lowest > 1) {
                    --lowest;
                    covered |= level_columns[lowest];
                    preserved += level_size[lowest];
                }
                if (preserved < contributors) {
                    prune = 1;
                    sort_i64(pairs, n_pairs);
                    n_edges = unique_i64(pairs, n_pairs);
                    int64_t top = 0;
                    marks[central] = KEPT;
                    stack[top++] = central;
                    for (int64_t i = 0; i < n_members; ++i) {
                        const int64_t v = members[i];
                        if (v != central
                            && __builtin_popcountll(
                                   contribution_mask(matrix, v, q))
                                >= lowest) {
                            marks[v] = KEPT;
                            stack[top++] = v;
                        }
                    }
                    while (top) {
                        const int64_t u = stack[--top];
                        int64_t lo = 0;
                        int64_t hi = n_edges;
                        while (lo < hi) {
                            const int64_t mid = lo + (hi - lo) / 2;
                            if (pairs[mid] < u * n)
                                lo = mid + 1;
                            else
                                hi = mid;
                        }
                        for (; lo < n_edges && pairs[lo] < (u + 1) * n; ++lo) {
                            const int64_t t = pairs[lo] - u * n;
                            if (marks[t] != KEPT) {
                                marks[t] = KEPT;
                                stack[top++] = t;
                            }
                        }
                    }
                }
            }

            /* Emit (or, past a capacity, only count) what is kept. */
            n_kept = 0;
            for (int64_t i = 0; i < n_members; ++i) {
                const int64_t v = members[i];
                if (prune && marks[v] != KEPT)
                    continue;
                weight_mass += weights[v];
                if (node_total + n_kept < node_capacity)
                    out_nodes[node_total + n_kept] = v;
                ++n_kept;
            }
            /* The edge run as it is: raw, or sorted and deduplicated
             * where the closure needed that.  rank_graphs finalises the
             * runs of the graphs it returns. */
            for (int64_t i = 0; i < n_edges && edge_total + i < edge_capacity;
                 ++i)
                out_edges[edge_total + i] = pairs[i];
        }
        for (int64_t i = 0; i < n_members; ++i)
            marks[members[i]] = 0;
        node_counts[g] = n_kept;
        edge_counts[g] = n_edges;
        mass[g] = weight_mass;
        node_total += n_kept;
        edge_total += n_edges;
    }
    needed[0] = node_total;
    needed[1] = edge_total;
    needed[2] = most_pairs;
    return node_total > node_capacity || edge_total > edge_capacity
        || most_pairs > pair_capacity;
}

/* One bit of a graph's 64-bit membership sketch: a multiplicative hash
 * of the member id.  H ⊆ G implies sketch(H) & ~sketch(G) == 0. */
static inline uint64_t sketch_bit(int64_t v)
{
    return 1ULL << (((uint64_t)v * 0x9E3779B97F4A7C15ULL) >> 58);
}

/* Whether the ascending run a[0..na) is contained in the ascending run
 * b[0..nb): one merge of the two. */
static int run_within(
    const int64_t* a, int64_t na, const int64_t* b, int64_t nb)
{
    int64_t j = 0;
    for (int64_t i = 0; i < na; ++i) {
        while (j < nb && b[j] < a[i])
            ++j;
        if (j == nb || b[j] != a[i])
            return 0;
        ++j;
    }
    return 1;
}

/* The answer order (TopKHeap's): graph x before graph y iff (score,
 * n_nodes, central node) of x is the smaller triple. */
static inline int ranks_before(
    const double* scores,
    const int64_t* sizes,
    const int64_t* centrals,
    int64_t x,
    int64_t y)
{
    if (scores[x] != scores[y])
        return scores[x] < scores[y];
    if (sizes[x] != sizes[y])
        return sizes[x] < sizes[y];
    return centrals[x] < centrals[y];
}

/* Sift heap[root] down a heap of graph indices whose root is the graph
 * ranked last. */
static void sift_last_down(
    int64_t* heap,
    int64_t size,
    int64_t root,
    const double* scores,
    const int64_t* sizes,
    const int64_t* centrals)
{
    const int64_t x = heap[root];
    for (int64_t child; (child = 2 * root + 1) < size; root = child) {
        if (child + 1 < size
            && ranks_before(scores, sizes, centrals, heap[child],
                            heap[child + 1]))
            ++child;
        if (!ranks_before(scores, sizes, centrals, x, heap[child]))
            break;
        heap[root] = heap[child];
    }
    heap[root] = x;
}

/* The rest of Algorithm 3 on a batch extract_graphs wrote (chunks
 * concatenated): containment dedup, Eq. 6 scores and the top-k cut, and
 * then, for the ranked graphs only, their final edge sets and keyword
 * contributions.
 *
 * Dedup (Section VI-B, Golenberg-Sagiv non-redundancy): a graph G is
 * dropped iff some kept graph H has H ⊊ G.  H ⊊ G implies that H's
 * Central Node is a member of G, so G's only possible witnesses are the
 * members stamped marks[central] = index + 1.  Graphs are visited by
 * ascending size (a sort of (size, index) keys), so a witness, being
 * strictly smaller, has had its own fate settled: a dropped graph's
 * stamp is cleared.  A witness whose sketch is not within G's is
 * skipped; the rest are compared by merging the two ascending runs.
 *
 * Eq. 6: score = mass * factors[depth], one IEEE multiplication, the
 * product Python's depth_factor table gives.  The k best survivors by
 * (score, n_nodes, central node) are selected with a heap whose root is
 * the worst kept so far, then put in answer order.
 *
 * Finalising a ranked graph: its edge run (raw keys, or sorted and
 * deduplicated where level-cover pruned) is sorted, deduplicated and
 * cut to the keys whose two endpoints are kept nodes, in place, and
 * each kept node gets its contribution mask.
 *
 *   n / matrix / q  as for extract_graphs (the masks read M)
 *   n_graphs     graphs in the batch
 *   centrals     their Central Nodes (distinct)
 *   depths       their depths, indices into `factors`
 *   factors      depth_factor(depth, lam) per depth
 *   nodes / node_counts  kept node runs, ascending, concatenated
 *   edges / edge_counts  edge runs, concatenated; a ranked graph's run
 *                is finalised in place and its count rewritten
 *   mass         Eq. 6 weight mass per graph
 *   deduplicate  0 keeps every graph (the ablation)
 *   k            answers wanted (>= 1)
 *   marks        n zeroed int32 (scratch; zero again on return)
 *   order        n_graphs: scratch; on return its first min(k,
 *                survivors) entries are the ranked graph indices, best
 *                first
 *   sketch       n_graphs (scratch)
 *   node_offsets / edge_offsets  n_graphs + 1: where each run starts
 *   scores       n_graphs: Eq. 6 score per graph
 *   masks        one cell per entry of `nodes`: a ranked graph's node
 *                gets its contribution mask (bit c iff M[v][c] == 0);
 *                the other cells are not written
 *
 * Returns the number of graphs that survive the dedup.
 */
int64_t rank_graphs(
    int64_t n,
    const uint8_t* matrix,
    int64_t q,
    int64_t n_graphs,
    const int64_t* centrals,
    const int64_t* depths,
    const double* factors,
    const int64_t* nodes,
    const int64_t* node_counts,
    int64_t* edges,
    int64_t* edge_counts,
    const double* mass,
    int64_t deduplicate,
    int64_t k,
    int32_t* marks,
    int64_t* order,
    uint64_t* sketch,
    int64_t* node_offsets,
    int64_t* edge_offsets,
    double* scores,
    uint64_t* masks)
{
    node_offsets[0] = 0;
    edge_offsets[0] = 0;
    for (int64_t g = 0; g < n_graphs; ++g) {
        node_offsets[g + 1] = node_offsets[g] + node_counts[g];
        edge_offsets[g + 1] = edge_offsets[g] + edge_counts[g];
        scores[g] = mass[g] * factors[depths[g]];
        marks[centrals[g]] = (int32_t)(g + 1);
    }

    if (deduplicate) {
        for (int64_t g = 0; g < n_graphs; ++g) {
            const int64_t* run = nodes + node_offsets[g];
            uint64_t bits = 0;
            for (int64_t i = 0; i < node_counts[g]; ++i)
                bits |= sketch_bit(run[i]);
            sketch[g] = bits;
            order[g] = (node_counts[g] << 32) | g;
        }
        sort_i64(order, n_graphs);
        for (int64_t i = 0; i < n_graphs; ++i) {
            const int64_t g = order[i] & 0xFFFFFFFF;
            const int64_t size = node_counts[g];
            const int64_t* run = nodes + node_offsets[g];
            for (int64_t j = 0; j < size; ++j) {
                const int64_t h = (int64_t)marks[run[j]] - 1;
                if (h < 0 || node_counts[h] >= size
                    || (sketch[h] & ~sketch[g]))
                    continue;
                if (run_within(nodes + node_offsets[h], node_counts[h], run,
                               size)) {
                    marks[centrals[g]] = 0;
                    break;
                }
            }
        }
    }

    /* Survivors still carry their stamp. */
    int64_t survivors = 0;
    int64_t n_heap = 0;
    for (int64_t g = 0; g < n_graphs; ++g) {
        if (!marks[centrals[g]])
            continue;
        ++survivors;
        if (n_heap < k) {
            order[n_heap++] = g;
            if (n_heap == k) {
                for (int64_t root = k / 2; root-- > 0;)
                    sift_last_down(order, k, root, scores, node_counts,
                                   centrals);
            }
        } else if (ranks_before(scores, node_counts, centrals, g,
                                order[0])) {
            order[0] = g;
            sift_last_down(order, k, 0, scores, node_counts, centrals);
        }
    }
    for (int64_t g = 0; g < n_graphs; ++g)
        marks[centrals[g]] = 0;
    if (n_heap < k) {
        for (int64_t root = n_heap / 2; root-- > 0;)
            sift_last_down(order, n_heap, root, scores, node_counts,
                           centrals);
    }
    /* Heap -> answer order: the worst left moves to the back each time. */
    for (int64_t end = n_heap - 1; end > 0; --end) {
        swap_i64(order, 0, end);
        sift_last_down(order, end, 0, scores, node_counts, centrals);
    }

    for (int64_t r = 0; r < n_heap; ++r) {
        const int64_t g = order[r];
        const int64_t* run = nodes + node_offsets[g];
        uint64_t* run_masks = masks + node_offsets[g];
        for (int64_t i = 0; i < node_counts[g]; ++i) {
            marks[run[i]] = KEPT;
            run_masks[i] = contribution_mask(matrix, run[i], q);
        }
        int64_t* keys = edges + edge_offsets[g];
        sort_i64(keys, edge_counts[g]);
        int64_t kept = 0;
        for (int64_t i = 0; i < edge_counts[g]; ++i) {
            const int64_t key = keys[i];
            if ((kept == 0 || key != keys[kept - 1])
                && marks[key / n] == KEPT && marks[key % n] == KEPT)
                keys[kept++] = key;
        }
        edge_counts[g] = kept;
        for (int64_t i = 0; i < node_counts[g]; ++i)
            marks[run[i]] = 0;
    }
    return survivors;
}

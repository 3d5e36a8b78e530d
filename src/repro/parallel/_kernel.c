/* Native tier of the fused expansion kernels.
 *
 * Two entry points share one byte-lane (SWAR) representation: a
 * node's per-instance boolean conditions live in 64-bit lane words
 * (byte lane i = BFS instance i), the per-edge hit ballot is a word
 * AND, and every matrix write is an idempotent byte store of level + 1
 * into a previously-infinite cell.  Byte-granular stores are what keep
 * Theorem V.2's lock-free argument intact when chunks of one frontier
 * run concurrently: racing writers store the same constant, and a torn
 * word *read* can only misclassify single bytes as already-written,
 * which skips a duplicate claim, never a required one (the racing
 * chunk claimed it).
 *
 *   fused_expand      — one frontier chunk, one query (q <= 8 lanes);
 *                       the ThreadPool/Vectorized per-chunk kernel.
 *   whole_level_step  — one complete bottom-up level (Algorithm 1's
 *                       enqueue + identify + Algorithm 2 expansion +
 *                       incremental finite-count update) in a single
 *                       call, eliminating the per-level Python round
 *                       trips.
 *
 * Because the matrix is read live (not from a pre-level snapshot), a
 * cell is claimed exactly once per call, so the emitted keys are the
 * deduplicated hit set by construction.  Cells already stamped with
 * level + 1 by an earlier edge of the same pass are exactly the
 * scatter duplicates the NumPy tier counts, so they are tallied here
 * as `duplicates_elided` (values <= level, 0, and 255 are the only
 * other possible byte states, so the equality test is unambiguous).
 *
 * Compiled on demand by _native.py with the system C compiler; absent a
 * compiler the NumPy kernels run alone with identical semantics.
 */

#include <stdint.h>
#include <string.h>

#define LO7 0x7F7F7F7F7F7F7F7FULL
#define LSB 0x0101010101010101ULL
#define MSB 0x8080808080808080ULL

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

/* Expand one frontier chunk at `level` (writing `next_level`).
 *
 *   n_chunk   rows of `chunk` / `se_words`
 *   chunk     frontier node ids (already filtered: non-central, active,
 *             eligible in at least one lane)
 *   se_words  per-row eligibility lane words (byte lane i is 1 iff
 *             M[u][i] <= level; pad lanes are always 0)
 *   indptr    CSR row pointers (int64, n + 1)
 *   indices   CSR neighbor ids (int32)
 *   matrix    the (n x q) uint8 hitting-level matrix M, row-major
 *   q         BFS instances (1..8)
 *   blocked   per-node flag: non-keyword node still awaiting
 *             activation at next_level (NULL when no node can block)
 *   fid       FIdentifier flags (uint8, n)
 *   out_keys  capacity for every possible hit (n * q is always enough)
 *   n_dups    out: scatter duplicates elided by the live-read dedup
 *             (matches the NumPy tier's scattered-minus-unique count)
 *
 * Returns the number of unique cell keys (node * q + lane) written to
 * out_keys.
 */
int64_t fused_expand(
    int64_t n_chunk,
    const int64_t* chunk,
    const uint64_t* se_words,
    const int64_t* indptr,
    const int32_t* indices,
    uint8_t* matrix,
    int64_t q,
    const uint8_t* blocked,
    uint8_t* fid,
    uint8_t next_level,
    int64_t* out_keys,
    int64_t* n_dups)
{
    int64_t n_keys = 0;
    int64_t dups = 0;

    if (q == 8) {
        /* Word path: M rows are exactly one lane word wide. */
        for (int64_t i = 0; i < n_chunk; ++i) {
            const uint64_t se = se_words[i];
            const int64_t u = chunk[i];
            int retry = 0;
            const int64_t end = indptr[u + 1];
            for (int64_t e = indptr[u]; e < end; ++e) {
                const int64_t v = (int64_t)indices[e];
                uint64_t m;
                memcpy(&m, matrix + v * 8, 8);
                dups += lane_sum(se & eq_lanes(m, next_level));
                const uint64_t ballot = se & inf_lanes(m);
                if (!ballot)
                    continue;
                if (blocked && blocked[v]) {
                    /* Line 18-20: the source retries at a later level. */
                    retry = 1;
                    continue;
                }
                for (int c = 0; c < 8; ++c) {
                    if ((ballot >> (8 * c)) & 1) {
                        matrix[v * 8 + c] = next_level;
                        out_keys[n_keys++] = v * 8 + c;
                    }
                }
                fid[v] = 1;
            }
            if (retry)
                fid[u] = 1;
        }
        if (n_dups)
            *n_dups = dups;
        return n_keys;
    }

    /* Byte path for q < 8: M rows are q bytes, narrower than the lane
     * word, so cells are tested lane by lane. */
    for (int64_t i = 0; i < n_chunk; ++i) {
        const uint64_t se = se_words[i];
        const int64_t u = chunk[i];
        int retry = 0;
        const int64_t end = indptr[u + 1];
        for (int64_t e = indptr[u]; e < end; ++e) {
            const int64_t v = (int64_t)indices[e];
            uint8_t* row = matrix + v * q;
            for (int64_t c = 0; c < q; ++c) {
                if (((se >> (8 * c)) & 1) && row[c] == next_level)
                    ++dups;
            }
            if (blocked && blocked[v]) {
                for (int64_t c = 0; c < q; ++c) {
                    if (((se >> (8 * c)) & 1) && row[c] == 0xFF) {
                        retry = 1;
                        break;
                    }
                }
                continue;
            }
            int any = 0;
            for (int64_t c = 0; c < q; ++c) {
                if (((se >> (8 * c)) & 1) && row[c] == 0xFF) {
                    row[c] = next_level;
                    out_keys[n_keys++] = v * q + c;
                    any = 1;
                }
            }
            if (any)
                fid[v] = 1;
        }
        if (retry)
            fid[u] = 1;
    }
    if (n_dups)
        *n_dups = dups;
    return n_keys;
}

/* One complete bottom-up level in a single call (Algorithm 1's joined
 * steps): drain FIdentifier into a compacted frontier, identify Central
 * Nodes among it (finite_count == q, Lemma V.1), and — unless the top-k
 * target is met or the level cap reached — run Algorithm 2 over the
 * frontier with the incremental finite-count update applied in place.
 *
 *   n             node count
 *   indptr/indices CSR adjacency
 *   matrix        (n x q) uint8 hitting-level matrix, row-major
 *   q             BFS instances (1..8)
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
 *                 [6] duplicates_elided
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
    const uint8_t next_level = (uint8_t)(level + 1);
    const int32_t level_i = (int32_t)level;
    const int32_t next_level_i = (int32_t)level + 1;
    int64_t n_frontier = 0;
    int64_t n_central = 0;
    int64_t edges = 0;
    int64_t hits = 0;
    int64_t pruned = 0;
    int64_t dups = 0;
    int64_t expanded = 0;

    /* Enqueue: drain FIdentifier into the joint frontier (ascending,
     * exactly like np.flatnonzero). */
    for (int64_t u = 0; u < n; ++u) {
        if (fid[u]) {
            frontier_out[n_frontier++] = u;
            fid[u] = 0;
        }
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
            for (int64_t i = 0; i < n_frontier; ++i) {
                const int64_t u = frontier_out[i];
                /* Line 2-3: identified Central Nodes never expand. */
                if (cid[u])
                    continue;
                /* Line 5-7: inactive frontiers re-flag and wait. */
                if (activation[u] > level_i) {
                    fid[u] = 1;
                    continue;
                }
                /* Line 9-11 hoisted: eligibility lane word. */
                uint64_t se = 0;
                const uint8_t* mrow = matrix + u * q;
                for (int64_t c = 0; c < q; ++c) {
                    if (mrow[c] <= level)
                        se |= 1ULL << (8 * c);
                }
                if (!se) {
                    ++pruned;
                    continue;
                }
                const int64_t end = indptr[u + 1];
                edges += end - indptr[u];
                int retry = 0;
                if (q == 8) {
                    for (int64_t e = indptr[u]; e < end; ++e) {
                        const int64_t v = (int64_t)indices[e];
                        uint64_t m;
                        memcpy(&m, matrix + v * 8, 8);
                        dups += lane_sum(se & eq_lanes(m, next_level));
                        const uint64_t ballot = se & inf_lanes(m);
                        if (!ballot)
                            continue;
                        if (may_block && !keyword_node[v]
                            && activation[v] > next_level_i) {
                            retry = 1;
                            continue;
                        }
                        int32_t written = 0;
                        for (int c = 0; c < 8; ++c) {
                            if ((ballot >> (8 * c)) & 1) {
                                matrix[v * 8 + c] = next_level;
                                ++written;
                            }
                        }
                        finite_count[v] += written;
                        hits += written;
                        fid[v] = 1;
                    }
                } else {
                    for (int64_t e = indptr[u]; e < end; ++e) {
                        const int64_t v = (int64_t)indices[e];
                        uint8_t* row = matrix + v * q;
                        for (int64_t c = 0; c < q; ++c) {
                            if (((se >> (8 * c)) & 1)
                                && row[c] == next_level)
                                ++dups;
                        }
                        if (may_block && !keyword_node[v]
                            && activation[v] > next_level_i) {
                            for (int64_t c = 0; c < q; ++c) {
                                if (((se >> (8 * c)) & 1)
                                    && row[c] == 0xFF) {
                                    retry = 1;
                                    break;
                                }
                            }
                            continue;
                        }
                        int32_t written = 0;
                        for (int64_t c = 0; c < q; ++c) {
                            if (((se >> (8 * c)) & 1) && row[c] == 0xFF) {
                                row[c] = next_level;
                                ++written;
                            }
                        }
                        if (written) {
                            finite_count[v] += written;
                            hits += written;
                            fid[v] = 1;
                        }
                    }
                }
                if (retry)
                    fid[u] = 1;
            }
        }
    }

    stats_out[0] = n_frontier;
    stats_out[1] = n_central;
    stats_out[2] = expanded;
    stats_out[3] = edges;
    stats_out[4] = hits;
    stats_out[5] = pruned;
    stats_out[6] = dups;
    return n_frontier;
}

/* Build the Theorem V.4 qualified-predecessor relation (the hitting
 * DAG) for every keyword column in one pass over the (edge, column)
 * grid.  Replaces q whole-array NumPy passes (two E-element gathers
 * plus comparisons per column) with a single scalar sweep; the output
 * layout matches the per-column CSR the extraction walks.
 *
 * A neighbor p of target t qualifies as a keyword-c predecessor iff
 * (with h = M[.][c], a = activation):
 *   h_t and h_p finite,  h_t == 1 + max(a_p, h_p, floor_t)  where
 *   floor_t = 0 for keyword nodes else a_t - 1,
 * and, because an identified Central Node stops expanding, p's
 * identification level bounds the hits it can have caused:
 *   central_level[p] < 0  or  h_t <= central_level[p].
 *
 *   n            node count
 *   indptr/indices CSR adjacency (E = indptr[n] entries)
 *   matrix       (n x q) uint8 hitting-level matrix
 *   q            keyword columns
 *   activation   per-node activation levels (int32)
 *   keyword_node uint8 mask
 *   central_level per-node identification levels (int16, -1 = none)
 *   out_indptr   q x (n + 1) per-column CSR row pointers
 *   out_preds    q x E capacity, column c's predecessors at c * E
 *   out_counts   q: per-column predecessor totals
 */
void build_hitting_dag(
    int64_t n,
    const int64_t* indptr,
    const int32_t* indices,
    const uint8_t* matrix,
    int64_t q,
    const int32_t* activation,
    const uint8_t* keyword_node,
    const int16_t* central_level,
    int64_t* out_indptr,
    int64_t* out_preds,
    int64_t* out_counts)
{
    const int64_t n_edges = indptr[n];
    for (int64_t c = 0; c < q; ++c) {
        out_counts[c] = 0;
        out_indptr[c * (n + 1)] = 0;
    }
    for (int64_t t = 0; t < n; ++t) {
        const int32_t floor_t =
            keyword_node[t] ? 0 : activation[t] - 1;
        const uint8_t* mt_row = matrix + t * q;
        const int64_t end = indptr[t + 1];
        for (int64_t e = indptr[t]; e < end; ++e) {
            const int64_t p = (int64_t)indices[e];
            const uint8_t* mp_row = matrix + p * q;
            const int32_t act_p = activation[p];
            const int16_t pc = central_level[p];
            for (int64_t c = 0; c < q; ++c) {
                const uint8_t mt = mt_row[c];
                const uint8_t mp = mp_row[c];
                if (mt == 0xFF || mp == 0xFF)
                    continue;
                int32_t expander = act_p;
                if ((int32_t)mp > expander)
                    expander = (int32_t)mp;
                if (floor_t > expander)
                    expander = floor_t;
                if ((int32_t)mt != expander + 1)
                    continue;
                if (pc >= 0 && (int32_t)mt > (int32_t)pc)
                    continue;
                out_preds[c * n_edges + out_counts[c]++] = p;
            }
        }
        for (int64_t c = 0; c < q; ++c)
            out_indptr[c * (n + 1) + t + 1] = out_counts[c];
    }
}

/* Backward closure of one Central Node over one keyword column's
 * hitting DAG (the extraction step of Algorithm 3): a DFS from
 * `central` over the per-column predecessor CSR, emitting every
 * (pred, target) hitting-path edge once and every reached node once.
 *
 *   indptr/preds column CSR from build_hitting_dag
 *   central      the Central Node
 *   visited      n zeroed bytes (scratch; left dirty)
 *   stack        capacity n (scratch)
 *   out_nodes    capacity n: closure nodes, central first
 *   out_pairs    capacity 2 * column predecessor total, interleaved
 *                (pred, target) pairs
 *   n_out        [0] = node count, [1] = pair count
 */
void extract_closure(
    const int64_t* indptr,
    const int64_t* preds,
    int64_t central,
    uint8_t* visited,
    int64_t* stack,
    int64_t* out_nodes,
    int64_t* out_pairs,
    int64_t* n_out)
{
    int64_t top = 0;
    int64_t n_nodes = 0;
    int64_t n_pairs = 0;
    visited[central] = 1;
    stack[top++] = central;
    out_nodes[n_nodes++] = central;
    while (top) {
        const int64_t t = stack[--top];
        const int64_t end = indptr[t + 1];
        for (int64_t e = indptr[t]; e < end; ++e) {
            const int64_t p = preds[e];
            out_pairs[2 * n_pairs] = p;
            out_pairs[2 * n_pairs + 1] = t;
            ++n_pairs;
            if (!visited[p]) {
                visited[p] = 1;
                out_nodes[n_nodes++] = p;
                stack[top++] = p;
            }
        }
    }
    n_out[0] = n_nodes;
    n_out[1] = n_pairs;
}

/* Whole Central Graph in one call: the backward closures of `central`
 * over every contributing keyword column's hitting DAG (the columns
 * where the Central Node's hitting level is nonzero). Equivalent to
 * one extract_closure call per column, but a single crossing of the
 * ctypes boundary per Central Node and no per-column output
 * allocations — when hundreds of Central Nodes arrive at one depth the
 * per-call marshalling dominated the per-column variant.
 *
 * Node dedup happens here (`seen` persists across columns, so
 * out_nodes lists each node once). Pairs are emitted at most once per
 * column but can repeat across columns; the caller dedups the
 * interleaved (pred, target) pairs.
 *
 *   indptr_all   q rows of (n+1): per-column CSR offsets, each 0-based
 *                into its own column's predecessor slice
 *   preds_all    concatenated per-column predecessor arrays
 *   col_offsets  q+1: column c's slice is preds_all[col_offsets[c] ..]
 *   matrix       n x q hitting levels (0 = keyword source: skip column)
 *   visited      n zeroed bytes (per-column membership; rezeroed here)
 *   seen         n zeroed bytes (cross-column membership; rezeroed)
 *   stack        capacity n (DFS scratch)
 *   col_nodes    capacity n (per-column visited list scratch)
 *   out_nodes    capacity n: deduplicated closure nodes
 *   out_pairs    capacity 2 * col_offsets[q], interleaved (pred,
 *                target) pairs
 *   n_out        [0] = node count, [1] = pair count
 */
void extract_graph(
    const int64_t* indptr_all,
    const int64_t* preds_all,
    const int64_t* col_offsets,
    const uint8_t* matrix,
    int64_t n,
    int64_t q,
    int64_t central,
    uint8_t* visited,
    uint8_t* seen,
    int64_t* stack,
    int64_t* col_nodes,
    int64_t* out_nodes,
    int64_t* out_pairs,
    int64_t* n_out)
{
    int64_t n_nodes = 0;
    int64_t n_pairs = 0;
    for (int64_t c = 0; c < q; ++c) {
        if (matrix[central * q + c] == 0)
            continue;
        const int64_t* indptr = indptr_all + c * (n + 1);
        const int64_t* preds = preds_all + col_offsets[c];
        int64_t top = 0;
        int64_t n_col = 0;
        visited[central] = 1;
        stack[top++] = central;
        col_nodes[n_col++] = central;
        if (!seen[central]) {
            seen[central] = 1;
            out_nodes[n_nodes++] = central;
        }
        while (top) {
            const int64_t t = stack[--top];
            const int64_t end = indptr[t + 1];
            for (int64_t e = indptr[t]; e < end; ++e) {
                const int64_t p = preds[e];
                out_pairs[2 * n_pairs] = p;
                out_pairs[2 * n_pairs + 1] = t;
                ++n_pairs;
                if (!visited[p]) {
                    visited[p] = 1;
                    stack[top++] = p;
                    col_nodes[n_col++] = p;
                    if (!seen[p]) {
                        seen[p] = 1;
                        out_nodes[n_nodes++] = p;
                    }
                }
            }
        }
        for (int64_t i = 0; i < n_col; ++i)
            visited[col_nodes[i]] = 0;
    }
    for (int64_t i = 0; i < n_nodes; ++i)
        seen[out_nodes[i]] = 0;
    n_out[0] = n_nodes;
    n_out[1] = n_pairs;
}

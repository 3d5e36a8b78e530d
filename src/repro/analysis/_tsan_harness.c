/* ThreadSanitizer race-tier harness (repro.analysis.sanitize).
 *
 * TSan cannot be preloaded into an uninstrumented Python interpreter —
 * its runtime must own the process from the first allocation, so the
 * LD_PRELOAD trick that works for ASan segfaults for TSan. The race
 * tier therefore runs here: a fully instrumented executable, linked
 * directly against the real _kernel.c, that replays the
 * ThreadPoolBackend chunk-per-thread level protocol with genuine
 * pthreads racing on the shared M / FIdentifier arrays. The parent
 * Python process generates the fixture, runs an independent sequential
 * oracle, and compares this binary's output bitwise — Theorem V.2's
 * claim ("racing writes are benign because idempotent") executed under
 * a happens-before race detector AND checked for answer parity.
 *
 * Modes:
 *   parity <in> <out> <n_threads> <repeats>
 *       Replay the level loop <repeats> times from the fixture file,
 *       racing <n_threads> chunk threads per level; write the final
 *       matrix/FIdentifier to <out>. Under a suppression list naming
 *       the Theorem V.2 idempotent write sites, a clean run reports
 *       zero races.
 *   inject <n_threads>
 *       Two threads perform a genuinely non-idempotent unsynchronized
 *       write in a function NOT on the suppression list. TSan must
 *       report it — this is how `repro check --inject race` proves the
 *       race tier is armed rather than silently uninstrumented.
 *
 * Fixture file layout (all little-endian, written by sanitize.py):
 *   int64  n, q, nnz, level_cap
 *   int64  indptr[n + 1]
 *   int32  indices[nnz]
 *   uint8  matrix[n * q]      (0xFF = INFINITE)
 *   uint8  fid[n]
 * Output file layout:
 *   int64  levels_run
 *   uint8  matrix[n * q]
 *   uint8  fid[n]
 */
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* The kernel entry point under test, fused_expand (linked from
 * _kernel.c), is declared by the header generated from the kernel's
 * export table, which the build passes with -include to both sources. */

typedef struct {
    pthread_barrier_t* barrier;
    int64_t n;
    int64_t n_chunk;
    const int64_t* chunk;
    const int64_t* indptr;
    const int32_t* indices;
    uint8_t* matrix;
    int64_t q;
    uint8_t* fid;
    const uint8_t* zeros; /* cid and keyword_node: none set */
    const int32_t* activation; /* all 0: every node active */
    uint8_t level;
    int64_t* out_keys;
    int64_t stats[5];
} ChunkTask;

static void* run_chunk(void* arg)
{
    ChunkTask* task = (ChunkTask*)arg;
    /* All chunk threads release together so their kernel calls overlap
     * maximally — the racing window Theorem V.2 must survive. */
    pthread_barrier_wait(task->barrier);
    fused_expand(
        task->n,
        task->n_chunk,
        task->chunk,
        task->indptr,
        task->indices,
        task->matrix,
        task->q,
        task->fid,
        task->zeros,
        task->zeros,
        task->activation,
        task->level,
        0,
        task->out_keys,
        task->stats);
    return NULL;
}

static int read_exact(FILE* fp, void* buf, size_t bytes)
{
    return fread(buf, 1, bytes, fp) == bytes ? 0 : -1;
}

static int64_t run_levels(
    int64_t n,
    int64_t q,
    int64_t level_cap,
    const int64_t* indptr,
    const int32_t* indices,
    uint8_t* matrix,
    uint8_t* fid,
    int n_threads,
    int64_t* frontier,
    const uint8_t* zeros,
    const int32_t* activation,
    int64_t* key_bufs,
    pthread_t* threads,
    ChunkTask* tasks)
{
    int64_t level = 0;
    for (; level < level_cap; ++level) {
        int64_t n_frontier = 0;
        for (int64_t u = 0; u < n; ++u) {
            if (fid[u]) {
                frontier[n_frontier++] = u;
                fid[u] = 0;
            }
        }
        if (n_frontier == 0)
            break;
        int64_t n_chunks =
            n_frontier < (int64_t)n_threads ? n_frontier : (int64_t)n_threads;
        pthread_barrier_t barrier;
        pthread_barrier_init(&barrier, NULL, (unsigned)n_chunks);
        const int64_t base = n_frontier / n_chunks;
        const int64_t extra = n_frontier % n_chunks;
        int64_t start = 0;
        for (int64_t t = 0; t < n_chunks; ++t) {
            const int64_t size = base + (t < extra ? 1 : 0);
            tasks[t].barrier = &barrier;
            tasks[t].n = n;
            tasks[t].n_chunk = size;
            tasks[t].chunk = frontier + start;
            tasks[t].indptr = indptr;
            tasks[t].indices = indices;
            tasks[t].matrix = matrix;
            tasks[t].q = q;
            tasks[t].fid = fid;
            tasks[t].zeros = zeros;
            tasks[t].activation = activation;
            tasks[t].level = (uint8_t)level;
            tasks[t].out_keys = key_bufs + t * n * q;
            start += size;
            if (pthread_create(&threads[t], NULL, run_chunk, &tasks[t])) {
                fprintf(stderr, "harness: pthread_create failed\n");
                exit(3);
            }
        }
        for (int64_t t = 0; t < n_chunks; ++t)
            pthread_join(threads[t], NULL);
        pthread_barrier_destroy(&barrier);
    }
    return level;
}

static int mode_parity(const char* in_path, const char* out_path,
                       int n_threads, int repeats)
{
    FILE* fp = fopen(in_path, "rb");
    if (!fp) {
        fprintf(stderr, "harness: cannot open %s\n", in_path);
        return 3;
    }
    int64_t header[4];
    if (read_exact(fp, header, sizeof(header))) {
        fclose(fp);
        return 3;
    }
    const int64_t n = header[0], q = header[1];
    const int64_t nnz = header[2], level_cap = header[3];
    int64_t* indptr = malloc((size_t)(n + 1) * sizeof(int64_t));
    int32_t* indices = malloc((size_t)nnz * sizeof(int32_t));
    uint8_t* matrix0 = malloc((size_t)(n * q));
    uint8_t* fid0 = malloc((size_t)n);
    uint8_t* matrix = malloc((size_t)(n * q));
    uint8_t* fid = malloc((size_t)n);
    int64_t* frontier = malloc((size_t)n * sizeof(int64_t));
    uint8_t* zeros = calloc((size_t)n, 1);
    int32_t* activation = calloc((size_t)n, sizeof(int32_t));
    int64_t* key_bufs =
        malloc((size_t)(n_threads * n * q) * sizeof(int64_t));
    pthread_t* threads = malloc((size_t)n_threads * sizeof(pthread_t));
    ChunkTask* tasks = malloc((size_t)n_threads * sizeof(ChunkTask));
    if (!indptr || !indices || !matrix0 || !fid0 || !matrix || !fid ||
        !frontier || !zeros || !activation || !key_bufs || !threads ||
        !tasks) {
        fprintf(stderr, "harness: out of memory\n");
        return 3;
    }
    if (read_exact(fp, indptr, (size_t)(n + 1) * sizeof(int64_t)) ||
        read_exact(fp, indices, (size_t)nnz * sizeof(int32_t)) ||
        read_exact(fp, matrix0, (size_t)(n * q)) ||
        read_exact(fp, fid0, (size_t)n)) {
        fprintf(stderr, "harness: truncated fixture %s\n", in_path);
        fclose(fp);
        return 3;
    }
    fclose(fp);

    int64_t levels_run = 0;
    for (int r = 0; r < repeats; ++r) {
        memcpy(matrix, matrix0, (size_t)(n * q));
        memcpy(fid, fid0, (size_t)n);
        levels_run = run_levels(n, q, level_cap, indptr, indices, matrix,
                                fid, n_threads, frontier, zeros,
                                activation, key_bufs, threads, tasks);
    }

    FILE* out = fopen(out_path, "wb");
    if (!out) {
        fprintf(stderr, "harness: cannot write %s\n", out_path);
        return 3;
    }
    fwrite(&levels_run, sizeof(int64_t), 1, out);
    fwrite(matrix, 1, (size_t)(n * q), out);
    fwrite(fid, 1, (size_t)n, out);
    fclose(out);
    printf("harness: parity replay done (%lld levels, %d repeats, "
           "%d threads)\n",
           (long long)levels_run, repeats, n_threads);
    return 0;
}

/* -- seeded non-suppressed race ------------------------------------- */

static int64_t g_injected_cell; /* racing target; deliberately unsynced */

static void* injected_non_idempotent_write(void* arg)
{
    /* Each thread stores a DIFFERENT value: the opposite of the
     * Theorem V.2 discipline, in a function no suppression names. */
    const int64_t mine = (int64_t)(intptr_t)arg;
    for (int i = 0; i < 100000; ++i)
        g_injected_cell = mine * 100000 + i;
    return NULL;
}

static int mode_inject(int n_threads)
{
    if (n_threads < 2)
        n_threads = 2;
    pthread_t threads[2];
    for (int t = 0; t < 2; ++t) {
        if (pthread_create(&threads[t], NULL, injected_non_idempotent_write,
                           (void*)(intptr_t)(t + 1))) {
            fprintf(stderr, "harness: pthread_create failed\n");
            return 3;
        }
    }
    for (int t = 0; t < 2; ++t)
        pthread_join(threads[t], NULL);
    printf("harness: injected race ran to completion (cell=%lld)\n",
           (long long)g_injected_cell);
    return 0;
}

int main(int argc, char** argv)
{
    if (argc >= 2 && strcmp(argv[1], "parity") == 0 && argc == 6)
        return mode_parity(argv[2], argv[3], atoi(argv[4]), atoi(argv[5]));
    if (argc >= 2 && strcmp(argv[1], "inject") == 0 && argc == 3)
        return mode_inject(atoi(argv[2]));
    fprintf(stderr,
            "usage: %s parity <in> <out> <n_threads> <repeats>\n"
            "       %s inject <n_threads>\n",
            argv[0], argv[0]);
    return 2;
}

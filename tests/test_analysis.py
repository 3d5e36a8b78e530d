"""Tests for the ``repro.analysis`` package and the ``repro check`` gate.

Covers the per-level invariant checker (CheckedBackend), its
self-validation against deliberately faulty backends, the
repo-specific AST lint rules (including the store-write rule RPR010
and exact-id noqa matching), the
ASan/UBSan and TSan sanitizer wiring with its suppression policy, and
the CLI exit codes the CI ``check`` job relies on. The kernel's ABI
declaration has a dedicated file (``test_abi.py``); its ``--inject``
CLI contract is pinned here alongside the other injection classes.
"""

import textwrap
import numpy as np
import pytest

from repro.analysis import (
    FAULT_MODES,
    CheckedBackend,
    FaultyBackend,
    InvariantViolationError,
    lint_source,
    run_lint,
)
from repro.analysis.check import run_check, run_faulty_validation
from repro.core.bottom_up import BottomUpSearch
from repro.core.state import INFINITE_LEVEL
from repro.graph.generators import WikiKBConfig, wiki_like_kb
from repro.parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend


def _kb(seed=3):
    config = WikiKBConfig(
        name=f"analysis-{seed}",
        seed=seed,
        n_papers=60,
        n_people=30,
        n_misc=30,
        n_venues=8,
        n_orgs=8,
    )
    graph, _ = wiki_like_kb(config)
    return graph


def _problem(graph, seed, q):
    from repro.core.activation import activation_levels
    from repro.core.weights import node_weights

    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    sets = [
        np.unique(rng.integers(0, n, size=int(rng.integers(1, 6))))
        for _ in range(q)
    ]
    if seed % 2:
        activation = activation_levels(node_weights(graph), 3.0, 0.1)
    else:
        activation = np.zeros(n, dtype=np.int32)
    return sets, activation, int(rng.integers(1, 12))


def _run(backend, graph, sets, activation, k):
    with backend:
        return BottomUpSearch(graph, backend=backend).run(sets, activation, k)


# ---------------------------------------------------------------------------
# CheckedBackend: clean backends pass, bitwise identical to sequential
# ---------------------------------------------------------------------------
def _contenders():
    return {
        "threads": ThreadPoolBackend(n_threads=3),
        "vectorized": VectorizedBackend(),
    }


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_checked_backends_clean_and_bitwise_identical(seed):
    graph = _kb(seed)
    q = 2 + seed % 7
    sets, activation, k = _problem(graph, seed * 31 + 7, q)
    reference = _run(
        CheckedBackend(SequentialBackend()), graph, sets, activation, k
    )
    for name, backend in _contenders().items():
        checked = CheckedBackend(backend)
        result = _run(checked, graph, sets, activation, k)
        assert checked.levels_checked > 0, name
        assert not checked.violations, name
        assert np.array_equal(
            result.state.matrix, reference.state.matrix
        ), name
        assert sorted(result.central_nodes) == sorted(
            reference.central_nodes
        ), name
        assert result.depth == reference.depth, name


def test_adversarial_chunk_size_one_high_thread_count():
    """The satellite stress case: chunk size 1 maximizes racing chunks."""
    graph = _kb(7)
    sets, activation, k = _problem(graph, 71, q=5)
    reference = _run(SequentialBackend(), graph, sets, activation, k)
    # chunks_per_thread=64 with 8 threads splits every frontier down to
    # single-node chunks (frontiers here are far below 512 nodes).
    checked = CheckedBackend(
        ThreadPoolBackend(n_threads=8, chunks_per_thread=64)
    )
    result = _run(checked, graph, sets, activation, k)
    assert not checked.violations
    assert np.array_equal(result.state.matrix, reference.state.matrix)
    assert sorted(result.central_nodes) == sorted(reference.central_nodes)
    assert result.depth == reference.depth


def test_checked_backend_delegates_name_and_close():
    inner = ThreadPoolBackend(n_threads=2)
    checked = CheckedBackend(inner)
    assert checked.name == f"checked:{inner.name}"
    checked.close()
    with pytest.raises(RuntimeError):  # the inner pool is shut down
        inner._pool.submit(int)


# ---------------------------------------------------------------------------
# FaultyBackend: the checker must catch every injected fault class
# ---------------------------------------------------------------------------
#: The invariant each fault mode breaks. ``missed-central`` is an
#: identification fault on a route that inherits the composed level.
_BROKEN_INVARIANT = {
    "non-idempotent": "level-stamp",
    "overwrite": "write-once",
    "count-drift": "finite-count",
    "missed-central": "central-node",
}


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_faulty_backend_detected(mode):
    graph = _kb(2)
    sets, activation, k = _problem(graph, 2 * 31 + 7, q=4)
    faulty = FaultyBackend(mode=mode)
    checked = CheckedBackend(faulty, raise_on_violation=False)
    _run(checked, graph, sets, activation, k)
    assert faulty.faults_injected > 0
    assert checked.violations, f"fault {mode!r} went undetected"
    kinds = {violation.invariant for violation in checked.violations}
    assert _BROKEN_INVARIANT[mode] in kinds


def test_faulty_backend_raises_by_default():
    graph = _kb(2)
    sets, activation, k = _problem(graph, 2 * 31 + 7, q=4)
    with pytest.raises(InvariantViolationError) as exc_info:
        _run(
            CheckedBackend(FaultyBackend(mode="non-idempotent")),
            graph, sets, activation, k,
        )
    assert exc_info.value.violations


def test_faulty_validation_helper_all_modes():
    assert run_faulty_validation() == 0


def test_faulty_backend_rejects_unknown_mode():
    with pytest.raises(ValueError):
        FaultyBackend(mode="slow")


# ---------------------------------------------------------------------------
# CheckedBackend over run_level
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory",
    [SequentialBackend, lambda: ThreadPoolBackend(n_threads=2), VectorizedBackend],
    ids=["sequential", "threads", "vectorized"],
)
def test_checked_backend_checks_every_level_of_every_route(factory):
    """Composed routes and the whole-level route get the same check,
    once per level, around run_level."""
    graph = _kb(1)
    sets, activation, k = _problem(graph, 38, q=4)
    checked = CheckedBackend(factory())
    result = _run(checked, graph, sets, activation, k)
    assert checked.levels_checked == len(result.level_profile) > 1
    assert not checked.violations
    reference = _run(SequentialBackend(), graph, sets, activation, k)
    assert np.array_equal(result.state.matrix, reference.state.matrix)


class _UnflaggedHit(SequentialBackend):
    """Writes one extra hit, counted, but never flags its node."""

    def __init__(self):
        self.injected = False

    def expand(self, graph, state, level):
        super().expand(graph, state, level)
        cells = np.flatnonzero(state.matrix.ravel() == INFINITE_LEVEL)
        if not self.injected and len(cells):
            state.matrix.ravel()[cells[0]] = level + 1
            state.finite_count[cells[0] // state.n_keywords] += 1
            self.injected = True


def test_checked_backend_detects_unflagged_hit():
    graph = _kb(1)
    sets, activation, k = _problem(graph, 38, q=4)
    inner = _UnflaggedHit()
    checked = CheckedBackend(inner, raise_on_violation=False)
    _run(checked, graph, sets, activation, k)
    assert inner.injected
    assert "hit-flag" in {v.invariant for v in checked.violations}


class _EvilWholeLevel(VectorizedBackend):
    """Corrupts one matrix cell from inside the whole-level call."""

    def __init__(self):
        super().__init__()
        self.injected = False

    def run_level(self, graph, state, level, k, may_expand, timer):
        outcome = super().run_level(
            graph, state, level, k, may_expand, timer
        )
        if not self.injected:
            cells = np.flatnonzero(state.matrix.ravel() == level + 1)
            if len(cells):
                # A write of level + 3 violates the level-stamp invariant
                # (every write at level L stores exactly L + 1).
                state.matrix.ravel()[cells[0]] = level + 3
                self.injected = True
        return outcome


def test_checked_backend_detects_corrupted_whole_level():
    graph = _kb(1)
    sets, activation, k = _problem(graph, 38, q=4)
    evil = _EvilWholeLevel()
    with pytest.raises(InvariantViolationError) as exc_info:
        _run(CheckedBackend(evil), graph, sets, activation, k)
    assert evil.injected
    assert exc_info.value.violations


# ---------------------------------------------------------------------------
# Lint rules
# ---------------------------------------------------------------------------
def _rules_of(source):
    violations, _ = lint_source(textwrap.dedent(source))
    return {violation.rule for violation in violations}


def test_lint_clean_on_real_codebase():
    report = run_lint()
    assert report.ok, "\n".join(str(v) for v in report.violations)
    assert report.files_checked > 50


def test_rpr001_lock_in_hot_path():
    assert "RPR001" in _rules_of(
        """
        import threading
        from repro.instrumentation import hot_path

        @hot_path
        def kernel(chunk):
            lock = threading.Lock()
            with lock:
                return chunk
        """
    )


def test_rpr002_per_edge_loop_in_hot_path_but_column_range_allowed():
    flagged = _rules_of(
        """
        from repro.instrumentation import hot_path

        @hot_path
        def kernel(chunk, q):
            for node in chunk:
                pass
        """
    )
    assert "RPR002" in flagged
    clean = _rules_of(
        """
        from repro.instrumentation import hot_path

        @hot_path
        def kernel(chunk, q):
            for column in range(q):
                pass
        """
    )
    assert "RPR002" not in clean


def test_rpr003_dtype_conversions_in_hot_path():
    flagged = _rules_of(
        """
        import numpy as np
        from repro.instrumentation import hot_path

        @hot_path
        def kernel(graph):
            idx = graph.adj.indices.astype(np.int64)
            extra = np.zeros(4, dtype=np.int32)
            return idx, extra
        """
    )
    assert "RPR003" in flagged


def test_rpr004_unregistered_env_var():
    violations, _ = lint_source(
        'import os\nflag = os.environ.get("REPRO_TOTALLY_NEW_FLAG")\n'
    )
    assert {"RPR004"} == {v.rule for v in violations}
    # Registered ones pass.
    clean, _ = lint_source('import os\nflag = os.environ.get("REPRO_TRACE")\n')
    assert not clean


def test_rpr005_span_without_parent_in_nested_function():
    flagged = _rules_of(
        """
        def expand(self, level):
            def run_chunk(chunk):
                with self.tracer.span("chunk"):
                    return chunk
            return run_chunk
        """
    )
    assert "RPR005" in flagged
    clean = _rules_of(
        """
        def expand(self, level):
            parent = self.tracer.current_span()
            def run_chunk(chunk):
                with self.tracer.span("chunk", parent=parent):
                    return chunk
            return run_chunk
        """
    )
    assert "RPR005" not in clean


def test_rpr006_bare_except():
    assert "RPR006" in _rules_of(
        """
        def f():
            try:
                return 1
            except:
                return 2
        """
    )


def test_rpr007_mutable_default():
    assert "RPR007" in _rules_of("def f(x, acc=[]):\n    return acc\n")
    assert "RPR007" not in _rules_of("def f(x, acc=None):\n    return acc\n")


def test_rpr008_wall_clock_time():
    assert "RPR008" in _rules_of(
        "import time\n\ndef f():\n    return time.time()\n"
    )
    assert "RPR008" not in _rules_of(
        "import time\n\ndef f():\n    return time.perf_counter()\n"
    )


def test_rpr009_csr_copy_in_hot_path():
    flagged = _rules_of(
        """
        import numpy as np

        @hot_path
        def kernel(graph):
            a = np.asarray(graph.adj.indices)
            b = graph.adj.indptr.copy()
            c = np.ascontiguousarray(graph.out.labels)
            return a, b, c
        """
    )
    assert "RPR009" in flagged


def test_rpr009_allows_non_csr_copies_and_cold_code():
    clean = _rules_of(
        """
        import numpy as np

        @hot_path
        def kernel(graph, chunk):
            chunk = np.ascontiguousarray(chunk)
            return graph.adj.degree_array

        def cold_path(graph):
            return np.asarray(graph.adj.indices)
        """
    )
    assert "RPR009" not in clean


def test_noqa_suppresses_specific_rule():
    source = "import time\n\ndef f():\n    return time.time()  # noqa: RPR008\n"
    violations, suppressed = lint_source(source)
    assert not violations
    assert [s.rule for s in suppressed] == ["RPR008"]
    # A noqa for a different rule does not suppress.
    other = "import time\n\ndef f():\n    return time.time()  # noqa: RPR001\n"
    violations, suppressed = lint_source(other)
    assert [v.rule for v in violations] == ["RPR008"]
    assert not suppressed


def test_noqa_exact_id_matching_regression():
    """A short id must never suppress a longer id it prefixes, and vice
    versa (regression for substring-style matching)."""
    from repro.analysis.lint import LintViolation, _split_suppressed

    long_id = [LintViolation("p", 1, 0, "RPR0010", "m")]
    active, suppressed = _split_suppressed(long_id, "x = 1  # noqa: RPR001\n")
    assert [v.rule for v in active] == ["RPR0010"]
    assert not suppressed

    short_id = [LintViolation("p", 1, 0, "RPR001", "m")]
    active, suppressed = _split_suppressed(short_id, "x = 1  # noqa: RPR0010\n")
    assert [v.rule for v in active] == ["RPR001"]
    assert not suppressed

    # Exact ids still suppress, in comma- and space-separated lists.
    active, suppressed = _split_suppressed(
        long_id, "x = 1  # noqa: RPR001, RPR0010\n"
    )
    assert not active and [v.rule for v in suppressed] == ["RPR0010"]


def test_rpr010_store_backed_writes_flagged():
    source = """
        import numpy as np

        arr = np.memmap("x.bin", dtype="int64", mode="r")
        indices = np.memmap("g.bin", dtype="int32", mode="r")

        def corrupt():
            arr[0] = 5
            indices[3] += 1
            arr.setflags(write=True)
            return np.memmap("y.bin", dtype="int64", mode="r+")
        """
    violations, _ = lint_source(
        textwrap.dedent(source), relative_to_package="parallel/foo.py"
    )
    assert [v.rule for v in violations] == ["RPR010"] * 4


def test_rpr010_silent_in_store_writer_scope_and_for_reads():
    source = """
        import numpy as np

        mapped = np.memmap("x.bin", dtype="int64", mode="r+")
        mapped[0] = 1
        mapped.setflags(write=True)
        """
    violations, _ = lint_source(
        textwrap.dedent(source), relative_to_package="graph/store.py"
    )
    assert not violations
    reads = """
        import numpy as np

        arr = np.memmap("x.bin", dtype="int64", mode="r")
        total = arr.sum() + arr[0]
        other = np.zeros(4)
        other[0] = 1
        """
    violations, _ = lint_source(
        textwrap.dedent(reads), relative_to_package="parallel/foo.py"
    )
    assert not violations


def test_rpr012_inline_metric_names_flagged():
    # f-string metric name on a registry receiver.
    assert "RPR012" in _rules_of(
        """
        def emit(registry, field):
            registry.counter(f"repro_{field}_total", "help").inc()
        """
    )
    # Inline string literal on a service's registry, name= keyword.
    assert "RPR012" in _rules_of(
        """
        def emit(service):
            service.registry.counter("repro_inflight_queries_total").inc()
        """
    )
    assert "RPR012" in _rules_of(
        """
        def emit(self):
            self.registry.histogram(name="repro_http_request_seconds")
        """
    )


def test_rpr012_constant_names_and_unrelated_receivers_pass():
    clean = _rules_of(
        """
        METRIC_REQUESTS = "repro_http_requests_total"

        def emit(registry, endpoint):
            registry.counter(METRIC_REQUESTS, "GETs", endpoint=endpoint).inc()
        """
    )
    assert "RPR012" not in clean
    # A non-registry receiver with a same-named method is out of scope.
    unrelated = _rules_of(
        """
        def tally(bank):
            return bank.counter("slot-7")
        """
    )
    assert "RPR012" not in unrelated


def test_flight_env_vars_registered_for_rpr004():
    import inspect

    from repro.analysis.lint import registered_env_vars
    from repro.obs import config

    registered = registered_env_vars(inspect.getsource(config))
    assert {"REPRO_SLOW_MS", "REPRO_FLIGHT_N"} <= registered


def test_run_lint_allowlist_waives_rules_into_allowed(tmp_path):
    module = tmp_path / "helper.py"
    module.write_text("def f(acc=[]):\n    return acc\n", encoding="utf-8")
    strict = run_lint(tmp_path)
    assert [v.rule for v in strict.violations] == ["RPR007"]
    waived = run_lint(tmp_path, allow=("RPR007",))
    assert not waived.violations
    assert [v.rule for v in waived.allowed] == ["RPR007"]


def test_repo_test_and_benchmark_trees_lint_clean():
    from pathlib import Path

    from repro.analysis.check import LINT_TREES, _repo_root

    for tree, allow in LINT_TREES:
        tree_path = _repo_root() / tree
        assert tree_path.is_dir(), tree
        report = run_lint(Path(tree_path), allow=allow)
        assert report.ok, "\n".join(str(v) for v in report.violations)


def test_hot_path_marker_is_inert():
    from repro.instrumentation import hot_path
    from repro.parallel.vectorized import fused_expand_chunk, lane_bfs_levels

    @hot_path
    def f(x):
        return x + 1

    assert f(1) == 2
    assert f.__hot_path__ is True
    # The real kernels are marked; the sequential oracle is not.
    assert getattr(fused_expand_chunk, "__hot_path__", False)
    assert getattr(lane_bfs_levels, "__hot_path__", False)
    from repro.parallel.sequential import expand_frontier_chunk

    assert not getattr(expand_frontier_chunk, "__hot_path__", False)


# ---------------------------------------------------------------------------
# Env-var registry: owners read the one spelling in repro.obs.config
# ---------------------------------------------------------------------------
def test_sanitize_env_var_registered_and_pinned(monkeypatch):
    from repro.obs import config
    from repro.parallel import _native

    monkeypatch.setenv(config.ENV_SANITIZE, "undefined, address")
    assert _native.sanitize_selection() == ("address", "undefined")
    monkeypatch.delenv(config.ENV_SANITIZE)
    assert _native.sanitize_selection() == ()


def test_dataset_cache_env_var_registered_and_pinned(monkeypatch, tmp_path):
    from repro.bench import datasets
    from repro.obs import config

    monkeypatch.setenv(config.ENV_DATASET_CACHE, str(tmp_path / "cache"))
    assert datasets._disk_cache_prefix("kb") == str(tmp_path / "cache" / "kb")
    monkeypatch.delenv(config.ENV_DATASET_CACHE)
    assert datasets._disk_cache_prefix("kb") is None


# ---------------------------------------------------------------------------
# Sanitizer wiring (gated on the toolchain; heavy paths live in CI)
# ---------------------------------------------------------------------------
def test_sanitize_selection_parsing():
    from repro.parallel._native import sanitize_cflags, sanitize_selection

    assert sanitize_selection("") == ()
    assert sanitize_selection("address") == ("address",)
    assert sanitize_selection("undefined,address") == ("address", "undefined")
    assert sanitize_cflags(()) == ()
    assert "-fsanitize=address,undefined" in sanitize_cflags(
        ("address", "undefined")
    )
    with pytest.raises(ValueError):
        sanitize_selection("adress")


def test_sanitize_env_typo_raises(monkeypatch):
    """A typo must not load an unsanitized kernel, nor quietly fall back
    to anything: loading raises, and so does an engine that loads."""
    from repro.core.engine import KeywordSearchEngine
    from repro.graph.generators import chain_graph
    from repro.obs.config import ENV_SANITIZE
    from repro.parallel import _native, vectorized

    monkeypatch.setenv(ENV_SANITIZE, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        _native.load_kernel()
    monkeypatch.setattr(vectorized, "_NATIVE_KERNEL", None)
    with pytest.raises(ValueError, match="bogus"):
        KeywordSearchEngine(chain_graph(3), average_distance=2.0)


# ---------------------------------------------------------------------------
# TSan race tier (suppression policy is checked untoolchained; the
# harness runs are gated — the dedicated CI job exercises them)
# ---------------------------------------------------------------------------
def test_thread_sanitizer_selection_and_flags():
    from repro.parallel._native import sanitize_cflags, sanitize_selection

    assert sanitize_selection("thread") == ("thread",)
    flags = sanitize_cflags(("thread",))
    assert "-fsanitize=thread" in flags
    assert "-pthread" in flags
    with pytest.raises(ValueError):
        sanitize_selection("address,thread")


def test_tsan_suppression_audit_clean_and_policy_enforced(monkeypatch):
    from repro.analysis import sanitize

    assert sanitize.audit_suppressions() == []
    # Every entry maps to a declared idempotent write site by name.
    sites = sanitize.declared_idempotent_sites()
    assert "fused_expand" in sites

    # A blanket suppression violates the policy.
    monkeypatch.setattr(
        sanitize,
        "THEOREM_V2_SUPPRESSIONS",
        (("race:*", "Theorem V.2 idempotent blanket"),),
    )
    assert any(
        "banned" in problem for problem in sanitize.audit_suppressions()
    )
    # A suppression naming a non-exported symbol violates the policy
    # (how an entry left behind by a deleted kernel is caught).
    monkeypatch.setattr(
        sanitize,
        "THEOREM_V2_SUPPRESSIONS",
        (("race:not_a_kernel_symbol", "Theorem V.2 idempotent store"),),
    )
    assert any(
        "not an" in problem for problem in sanitize.audit_suppressions()
    )
    # A suppression without the Theorem V.2 citation violates the policy.
    monkeypatch.setattr(
        sanitize,
        "THEOREM_V2_SUPPRESSIONS",
        (("race:fused_expand", "just trust me"),),
    )
    assert any(
        "cite" in problem for problem in sanitize.audit_suppressions()
    )


def test_tsan_suppression_file_written_from_declaration(tmp_path):
    from repro.analysis import sanitize

    path = sanitize.write_suppressions(tmp_path / "supp.txt")
    text = path.read_text(encoding="utf-8")
    for entry, citation in sanitize.THEOREM_V2_SUPPRESSIONS:
        assert entry in text
        assert citation.splitlines()[0] in text


def test_tsan_parity_fuzz_clean():
    from repro.analysis import sanitize

    if not sanitize.toolchain_available(sanitize.THREAD_SELECTION):
        pytest.skip("TSan toolchain unavailable")
    result = sanitize.run_tsan_parity(seeds=(0,), n_threads=4, repeats=2)
    assert result.ok, result.detail
    assert not result.skipped
    assert "0 unsuppressed races" in result.detail
    # The default fixtures include lane counts whose last 8-byte lane
    # word straddles rows other chunks are storing into, and two lane
    # words per row (q = 10, 16).
    assert "q in (3, 6, 8, 10, 16)" in result.detail


def test_tsan_inject_reported():
    from repro.analysis import sanitize

    if not sanitize.toolchain_available(sanitize.THREAD_SELECTION):
        pytest.skip("TSan toolchain unavailable")
    result = sanitize.run_tsan_inject()
    assert result.ok, result.detail
    assert result.sanitizer_report


def test_a_missing_cc_falls_back_like_the_kernel_build(monkeypatch, tmp_path):
    """``CC`` naming no program leaves the sanitizer tiers on the next
    compiler the kernel build would use: the toolchain is found and the
    TSan harness builds and runs, instead of a SKIP."""
    from repro.analysis import sanitize

    monkeypatch.delenv("CC", raising=False)
    if not sanitize.toolchain_available(sanitize.THREAD_SELECTION):
        pytest.skip("TSan toolchain unavailable")
    monkeypatch.setenv("CC", "no-such-cc")
    monkeypatch.setattr(sanitize, "_BUILD_DIR", tmp_path)
    assert sanitize.toolchain_available()
    assert sanitize.toolchain_available(sanitize.THREAD_SELECTION)
    result = sanitize.run_tsan_inject()
    assert result.ok and not result.skipped, result.detail


def test_a_harness_that_does_not_compile_reports_the_diagnostic(
    monkeypatch, tmp_path
):
    """A TSan harness the compiler rejects fails the tier with the
    compiler's error, located at the file and line."""
    from repro.analysis import sanitize

    if not sanitize.toolchain_available(sanitize.THREAD_SELECTION):
        pytest.skip("TSan toolchain unavailable")
    source = sanitize._HARNESS_SOURCE.read_text(encoding="utf-8")
    broken = tmp_path / "_tsan_harness.c"
    broken.write_text(source + "int broken = ;\n", encoding="utf-8")
    line = source.count("\n") + 1
    monkeypatch.setattr(sanitize, "_HARNESS_SOURCE", broken)
    monkeypatch.setattr(sanitize, "_BUILD_DIR", tmp_path / "build")
    for run in (sanitize.run_tsan_inject, sanitize.run_tsan_parity):
        result = run()
        assert not result.ok and not result.skipped
        assert "failed to compile the TSan harness" in result.detail
        assert f"{broken}:{line}:" in result.detail, result.detail


# ---------------------------------------------------------------------------
# `repro check` exit codes (the acceptance contract)
# ---------------------------------------------------------------------------
def test_run_check_clean_codebase_exits_zero():
    # Sanitizer stage exercised separately; two fuzz seeds keep this fast.
    code = run_check(skip_sanitize=True, fuzz_seeds=(0,), print_fn=lambda m: None)
    assert code == 0


def test_cli_check_inject_lint_exits_one(capsys):
    from repro.cli import main

    assert main(["check", "--inject", "lint"]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_cli_check_inject_race_exits_one(capsys):
    from repro.cli import main

    assert main(["check", "--inject", "race"]) == 1
    out = capsys.readouterr().out
    assert "caught" in out


def test_cli_check_inject_abi_exits_one(capsys):
    from repro.cli import main

    assert main(["check", "--inject", "abi"]) == 1
    out = capsys.readouterr().out
    assert "conflicting types" in out and "fused_expand" in out
    assert "caught" in out


def test_cli_check_inject_sanitizer_exits_one(capsys):
    """ASan is armed on the shipped kernel: the seeded overflow aborts
    inside ``fused_expand``."""
    from repro.analysis import sanitize
    from repro.cli import main

    if not sanitize.toolchain_available():
        pytest.skip("sanitizer toolchain unavailable")
    assert main(["check", "--inject", "sanitizer"]) == 1
    out = capsys.readouterr().out
    assert "AddressSanitizer" in out and "fused_expand" in out
    assert "caught" in out


def test_cli_check_list_rules(capsys):
    from repro.cli import main

    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("RPR001", "RPR008", "RPR010", "RPR012"):
        assert rule in out
    assert len(out.splitlines()) <= 12

"""The kernel's ABI from one declaration (``_native.KERNEL_EXPORTS``).

The ctypes declarations derive from the table, and ``_kernel.c`` is
compiled against the header rendered from it, so drift between the two
is a compile error that names its symbol. These tests pin the table's
shape, the derivation, the compiler catching each kind of drift on a
kernel copy, the build saying why it failed, and the cache key.
"""

import ctypes

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.parallel import _native
from repro.parallel._native import KERNEL_EXPORTS


def _params(symbol):
    return KERNEL_EXPORTS[symbol][1]


def _drift(tmp_path, old, new):
    """``_kernel.c`` with ``old`` replaced once by ``new``, compiled
    against the real header: what the compiler says."""
    source = _native._SOURCE_PATH.read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    copy = tmp_path / "_kernel.c"
    copy.write_text(source.replace(old, new), encoding="utf-8")
    header = _native.write_header(KERNEL_EXPORTS, tmp_path, "kernel")
    return _native.syntax_errors(copy, header)


def test_kernel_table_declares_all_bound_symbols():
    # Exactly four: stage two is two kernels, extract_graphs once per
    # chunk of Central Nodes and rank_graphs once per query.
    assert set(KERNEL_EXPORTS) == {
        "fused_expand", "whole_level_step", "extract_graphs", "rank_graphs",
    }
    assert {restype for restype, _ in KERNEL_EXPORTS.values()} == {"int64_t"}
    # extract_graphs' overflow contract: an explicit int64 capacity beside
    # each of the three buffers a query can outgrow, an int64 status out
    # (0 = fitted; the sizes a retry needs go to `needed`), and Eq. 6's
    # weights and mass as double*.
    extract = _params("extract_graphs")
    names = [name for name, _ in extract]
    params = dict(extract)
    for buffer, capacity in (
        ("pairs", "pair_capacity"),
        ("out_nodes", "node_capacity"),
        ("out_edges", "edge_capacity"),
    ):
        assert params[buffer] == "int64_t*" and params[capacity] == "int64_t"
        assert names.index(capacity) == names.index(buffer) + 1
    assert params["weights"] == "const double*" and params["mass"] == "double*"
    assert params["needed"] == "int64_t*"
    assert params["indptr"] == "const int64_t*"
    assert params["indices"] == "const int32_t*"
    assert len(extract) == 26
    # rank_graphs: Eq. 6's factors, mass and scores as double*, the
    # sketch and contribution masks as uint64*, marks as the same int32
    # scratch extract_graphs zeroes.
    params = dict(_params("rank_graphs"))
    assert params["factors"] == params["mass"] == "const double*"
    assert params["scores"] == "double*"
    assert params["sketch"] == params["masks"] == "uint64_t*"
    assert params["marks"] == "int32_t*" and params["matrix"] == "const uint8_t*"
    assert params["edges"] == params["edge_counts"] == "int64_t*"
    assert len(_params("rank_graphs")) == 21
    # Both expansion kernels lead with the row count of M: the lane-word
    # row reads need it to find the last rows, whose last word is read
    # short. fused_expand reads the raw chunk with the state arrays
    # whole_level_step reads, and reports its counters in stats_out.
    for name in ("fused_expand", "whole_level_step"):
        assert _params(name)[0] == ("n", "int64_t"), name
    expand = _params("fused_expand")
    assert [name for name, _ in expand[:3]] == ["n", "n_chunk", "chunk"]
    assert len(expand) == 15 and len(_params("whole_level_step")) == 19
    params = dict(expand)
    assert params["cid"] == params["keyword_node"] == "const uint8_t*"
    assert params["activation"] == "const int32_t*" and params["level"] == "uint8_t"
    assert expand[-1] == ("stats_out", "int64_t*")


def test_whole_level_declaration_keeps_typed_ndpointer_argtypes():
    """The per-query bound call goes through a second function object for
    ``whole_level_step`` whose array arguments are plain addresses. Its
    argtypes derive from the typed declaration, whose pointer parameters
    are ``ndpointer``s of the declared element type."""
    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    declared, bound = kernel._step.argtypes, kernel._bound_step.argtypes
    assert len(declared) == len(bound) == 19
    assert sum(hasattr(t, "_dtype_") for t in declared) == 12
    for (name, ctype), checked, plain in zip(
        _params("whole_level_step"), declared, bound
    ):
        if ctype.endswith("*"):
            assert plain is ctypes.c_void_p, name
            assert checked._dtype_ == np.dtype(
                {"int64_t*": np.int64, "int32_t*": np.int32,
                 "int16_t*": np.int16, "uint8_t*": np.uint8}[
                    ctype.removeprefix("const ")
                ]
            ), name
        else:
            assert plain is checked, name


def test_stage_two_bound_calls_derive_from_typed_declarations():
    """``extract_graphs`` and ``rank_graphs`` are bound by address too:
    each through a second function object whose argtypes are derived
    from the typed declaration."""
    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    for typed, plain in (
        (kernel._extract, kernel._bound_extract),
        (kernel._rank, kernel._bound_rank),
    ):
        assert plain.__name__ == typed.__name__
        assert plain.restype is typed.restype
        assert len(plain.argtypes) == len(typed.argtypes)
        for checked, address in zip(typed.argtypes, plain.argtypes):
            if hasattr(checked, "_dtype_"):
                assert address is ctypes.c_void_p
            else:
                assert address is checked


def test_arrays_are_checked_against_the_parameter_they_are_named_for():
    """Every pointer parameter resolves by name to its own position: an
    array of its declared element type passes, any other dtype raises
    the ``TypeError`` a direct call would."""
    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    dtypes = (np.int64, np.int32, np.int16, np.uint64, np.uint8, np.float64)
    for symbol, (_, params) in KERNEL_EXPORTS.items():
        for name, ctype in params:
            if not ctype.endswith("*"):
                continue
            want = _native._ctype(ctype)._dtype_
            for dtype in dtypes:
                array = np.zeros(2, dtype=dtype)
                if np.dtype(dtype) == want:
                    assert kernel._address(symbol, name, array) == (
                        array.ctypes.data
                    )
                else:
                    with pytest.raises(TypeError):
                        kernel._address(symbol, name, array)


# ---------------------------------------------------------------------------
# The compiler catches drift: kernel copies against the real header
# ---------------------------------------------------------------------------
def test_abi_check_clean_on_real_sources(tmp_path):
    header = _native.write_header(KERNEL_EXPORTS, tmp_path, "kernel")
    assert _native.syntax_errors(_native._SOURCE_PATH, header) == ""
    assert header.read_text().count(");\n") == 4


def test_abi_check_injected_swap_caught_as_type_mismatch(tmp_path):
    diagnostic = _drift(
        tmp_path,
        "    const int64_t* indptr,\n    const int32_t* indices,\n"
        "    uint8_t* matrix,\n    int64_t q,\n    uint8_t* fid,\n"
        "    const uint8_t* cid,",
        "    const int32_t* indptr,\n    const int64_t* indices,\n"
        "    uint8_t* matrix,\n    int64_t q,\n    uint8_t* fid,\n"
        "    const uint8_t* cid,",
    )
    assert "conflicting types" in diagnostic and "fused_expand" in diagnostic


def test_abi_check_arity_mismatch_found(tmp_path):
    diagnostic = _drift(
        tmp_path,
        "int64_t* out_keys,\n    int64_t* stats_out)",
        "int64_t* out_keys,\n    int64_t* stats_out,\n    int64_t extra)",
    )
    assert "conflicting types" in diagnostic and "fused_expand" in diagnostic


def test_abi_check_missing_row_count_found(tmp_path):
    """The pre-tail-guard prototype (no leading ``n``): every later
    argument would shift by one slot."""
    diagnostic = _drift(
        tmp_path,
        "int64_t fused_expand(\n    int64_t n,\n",
        "int64_t fused_expand(\n",
    )
    assert "fused_expand" in diagnostic


def test_abi_check_restype_mismatch_found(tmp_path):
    diagnostic = _drift(
        tmp_path, "int64_t rank_graphs(", "int32_t rank_graphs("
    )
    assert "conflicting types" in diagnostic and "rank_graphs" in diagnostic


def test_a_dropped_const_is_a_conflicting_type(tmp_path):
    diagnostic = _drift(
        tmp_path,
        "int64_t extract_graphs(\n    int64_t n,\n    const int64_t* indptr,",
        "int64_t extract_graphs(\n    int64_t n,\n    int64_t* indptr,",
    )
    assert "conflicting types" in diagnostic and "extract_graphs" in diagnostic


def test_abi_check_missing_binding_found(tmp_path):
    """An export the table does not declare has no prototype."""
    diagnostic = _drift(
        tmp_path,
        "int64_t rank_graphs(",
        "int64_t stray_export(int64_t x) { return x; }\n\n"
        "int64_t rank_graphs(",
    )
    assert "no previous prototype" in diagnostic
    assert "stray_export" in diagnostic


def test_abi_check_binding_without_export_found(tmp_path, monkeypatch):
    """A renamed export is undeclared under its new name; under its old
    one the table declares a symbol the object lacks, which the load
    reports by name."""
    diagnostic = _drift(
        tmp_path, "int64_t fused_expand(", "int64_t fused_expand_v2("
    )
    assert "fused_expand_v2" in diagnostic
    monkeypatch.setattr(_native, "_BUILD_DIR", tmp_path / "build")
    monkeypatch.setattr(
        _native,
        "KERNEL_EXPORTS",
        {**KERNEL_EXPORTS, "no_such_export": ("int64_t", (("n", "int64_t"),))},
    )
    with pytest.raises(_native.NativeKernelUnavailable) as raised:
        _native.load_kernel()
    message = str(raised.value)
    assert "AttributeError" in message and "no_such_export" in message


# ---------------------------------------------------------------------------
# The build says why, and its cache key covers the declaration
# ---------------------------------------------------------------------------
def test_a_drifted_table_names_its_symbol_in_the_unavailable_error(
    tmp_path, monkeypatch
):
    """Each drift costs one compiler run: a diagnostic located in the
    source or its header is not retried with other flags or compilers,
    and the raised error carries that first diagnostic."""
    real_run = _native.subprocess.run
    runs = []

    def counting_run(cmd, *args, **kwargs):
        runs.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(_native.subprocess, "run", counting_run)
    monkeypatch.setattr(_native, "_BUILD_DIR", tmp_path)
    monkeypatch.delenv("CC", raising=False)
    restype, params = KERNEL_EXPORTS["whole_level_step"]
    for drift in ("indices", "matrix"):
        drifted = tuple(
            (name, "const int64_t*" if name == drift else ctype)
            for name, ctype in params
        )
        monkeypatch.setattr(
            _native,
            "KERNEL_EXPORTS",
            {**KERNEL_EXPORTS, "whole_level_step": (restype, drifted)},
        )
        runs.clear()
        with pytest.raises(_native.NativeKernelUnavailable) as raised:
            _native.load_kernel()
        assert len(runs) == 1, runs
        message = str(raised.value)
        assert "conflicting types" in message
        assert "whole_level_step" in message
    assert not list(tmp_path.glob("*.so"))


def test_a_declared_type_is_part_of_the_cache_key():
    restype, params = KERNEL_EXPORTS["fused_expand"]
    changed = tuple(
        (name, "int64_t*" if name == "matrix" else ctype)
        for name, ctype in params
    )
    drifted = {**KERNEL_EXPORTS, "fused_expand": (restype, changed)}
    assert _native.shared_object_path(drifted) != _native.shared_object_path(
        KERNEL_EXPORTS
    )
    assert _native.shared_object_path(
        drifted, ("address",)
    ) != _native.shared_object_path(KERNEL_EXPORTS, ("address",))
    assert sanitize.tsan_harness_path(drifted) != sanitize.tsan_harness_path(
        KERNEL_EXPORTS
    )


def test_a_changed_build_recipe_is_part_of_the_cache_key(monkeypatch):
    """A build made with other flags is never reused: the flag sets, the
    sanitizer flags and the output kind are all in the cache key."""
    kernel = _native.shared_object_path(KERNEL_EXPORTS)
    sanitized = _native.shared_object_path(KERNEL_EXPORTS, ("address",))
    harness = sanitize.tsan_harness_path(KERNEL_EXPORTS)
    monkeypatch.setattr(_native, "_FLAG_SETS", (("-O1",),))
    assert _native.shared_object_path(KERNEL_EXPORTS) != kernel
    assert _native.shared_object_path(KERNEL_EXPORTS, ("address",)) != sanitized
    assert sanitize.tsan_harness_path(KERNEL_EXPORTS) != harness
    monkeypatch.undo()
    monkeypatch.setattr(
        _native,
        "sanitize_cflags",
        lambda selection: ("-fsanitize=thread",) if selection else (),
    )
    assert _native.shared_object_path(KERNEL_EXPORTS) == kernel
    assert sanitize.tsan_harness_path(KERNEL_EXPORTS) != harness
    sources = (_native._SOURCE_PATH,)
    assert _native.build_digest(
        sources, KERNEL_EXPORTS, shared=True
    ) != _native.build_digest(sources, KERNEL_EXPORTS, shared=False)

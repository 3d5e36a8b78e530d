"""Tests for the kernel ABI contract verifier (``repro.analysis.abi``).

The verifier's job is to make C ↔ ctypes ↔ store drift impossible to
land silently, so the tests cover all three legs: the C prototype/struct
parser, the ctypes declaration extractor, the cross-check (clean on the
real repo, loud on seeded drift), and the ``.csrstore`` header contract.
"""

import textwrap

import pytest

from repro.analysis import abi


# ---------------------------------------------------------------------------
# C prototype parsing
# ---------------------------------------------------------------------------
def test_parse_c_exports_basic_prototype():
    functions = abi.parse_c_exports(
        textwrap.dedent(
            """
            int64_t add_all(int64_t n, const int64_t* values) {
                return 0;
            }
            """
        )
    )
    assert len(functions) == 1
    fn = functions[0]
    assert fn.name == "add_all"
    assert str(fn.restype) == "int64"
    assert [(p.name, str(p.ctype)) for p in fn.params] == [
        ("n", "int64"),
        ("values", "int64*"),
    ]


def test_parse_c_exports_skips_static_and_control_flow():
    functions = abi.parse_c_exports(
        textwrap.dedent(
            """
            static void helper(int64_t x) { }

            int64_t exported(int64_t x) {
                if (x) {
                    return x;
                }
                while (x) { }
                return 0;
            }
            """
        )
    )
    assert [fn.name for fn in functions] == ["exported"]


def test_parse_c_exports_pointer_and_unsigned_params():
    (fn,) = abi.parse_c_exports(
        "void scatter(uint8_t* matrix, const uint64_t* words, uint8_t v) {\n}"
    )
    assert str(fn.restype) == "void"
    assert [str(p.ctype) for p in fn.params] == ["uint8*", "uint64*", "uint8"]


def test_parse_c_exports_rejects_unknown_types():
    with pytest.raises(abi.AbiParseError):
        abi.parse_c_exports("wchar_t weird(wchar_t x) {\n}")


def test_parse_c_structs_natural_alignment():
    (struct,) = abi.parse_c_structs(
        textwrap.dedent(
            """
            typedef struct {
                int32_t a;
                int64_t b;
                uint8_t c;
            } Packed;
            """
        )
    )
    assert struct.name == "Packed"
    offsets = {f.name: f.offset for f in struct.fields}
    # b is 8-aligned, so 4 bytes of padding follow a.
    assert offsets == {"a": 0, "b": 8, "c": 16}
    assert struct.size == 24  # trailing pad to 8-byte struct alignment


def test_parse_real_kernel_exports_all_bound_symbols():
    source = abi.KERNEL_SOURCE_PATH.read_text(encoding="utf-8")
    exports = {fn.name: fn for fn in abi.parse_c_exports(source)}
    # Exactly four: stage two is two kernels, extract_graphs once per
    # chunk of Central Nodes and rank_graphs once per query.
    assert set(exports) == {
        "fused_expand", "whole_level_step", "extract_graphs", "rank_graphs",
    }
    # extract_graphs' overflow contract: an explicit int64 capacity beside
    # each of the three buffers a query can outgrow, an int64 status out
    # (0 = fitted; the sizes a retry needs go to `needed`), and Eq. 6's
    # weights and mass as double*.
    extract = exports["extract_graphs"]
    assert str(extract.restype) == "int64"
    names = [p.name for p in extract.params]
    params = {p.name: str(p.ctype) for p in extract.params}
    for buffer, capacity in (
        ("pairs", "pair_capacity"),
        ("out_nodes", "node_capacity"),
        ("out_edges", "edge_capacity"),
    ):
        assert params[buffer] == "int64*" and params[capacity] == "int64"
        assert names.index(capacity) == names.index(buffer) + 1
    assert params["weights"] == params["mass"] == "float64*"
    assert params["needed"] == "int64*"
    assert params["indptr"] == "int64*" and params["indices"] == "int32*"
    assert len(extract.params) == 26
    # rank_graphs: survivors out as the int64 return; Eq. 6's factors,
    # mass and scores as double*, the sketch and contribution masks as
    # uint64*, marks as the same int32 scratch extract_graphs zeroes.
    rank = exports["rank_graphs"]
    assert str(rank.restype) == "int64"
    params = {p.name: str(p.ctype) for p in rank.params}
    assert params["factors"] == params["mass"] == params["scores"] == "float64*"
    assert params["sketch"] == params["masks"] == "uint64*"
    assert params["marks"] == "int32*" and params["matrix"] == "uint8*"
    assert params["edges"] == params["edge_counts"] == "int64*"
    assert len(rank.params) == 21
    # Both expansion kernels lead with the row count of M: the lane-word
    # row reads need it to find the last rows, whose last word is read
    # short. fused_expand reads the raw chunk with the state arrays
    # whole_level_step reads, and reports its counters in stats_out.
    for name in ("fused_expand", "whole_level_step"):
        first = exports[name].params[0]
        assert (first.name, str(first.ctype)) == ("n", "int64"), name
    expand = exports["fused_expand"]
    assert [p.name for p in expand.params[:3]] == ["n", "n_chunk", "chunk"]
    assert len(expand.params) == 15
    params = {p.name: str(p.ctype) for p in expand.params}
    assert params["cid"] == params["keyword_node"] == "uint8*"
    assert params["activation"] == "int32*" and params["level"] == "uint8"
    stats_out = expand.params[-1]
    assert (stats_out.name, str(stats_out.ctype)) == ("stats_out", "int64*")


def test_whole_level_declaration_keeps_typed_ndpointer_argtypes():
    """The per-query bound call goes through a second function object for
    ``whole_level_step`` whose array arguments are plain addresses. Its
    argtypes are derived from the one declaration the verifier reads,
    which keeps its typed ``ndpointer`` arguments."""
    import ctypes

    native = abi.NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    bindings, _, errors = abi.extract_ctypes_declarations(native)
    assert not errors
    assert set(bindings) == {
        "fused_expand", "whole_level_step", "extract_graphs", "rank_graphs",
    }
    step = bindings["whole_level_step"]
    pointers = [t for t in step.argtypes if t.pointer]
    assert len(step.argtypes) == 19 and len(pointers) == 12
    assert all(t.kind != "void" for t in pointers)

    from repro.parallel.vectorized import _native_kernel

    kernel = _native_kernel()
    declared, bound = kernel._step.argtypes, kernel._bound_step.argtypes
    assert len(declared) == len(bound) == 19
    for checked, plain in zip(declared, bound):
        if hasattr(checked, "_dtype_"):  # an ndpointer
            assert plain is ctypes.c_void_p
        else:
            assert plain is checked


def test_stage_two_bound_calls_derive_from_typed_declarations():
    """``extract_graphs`` and ``rank_graphs`` are bound by address too:
    each through a second function object whose argtypes are derived
    from the typed declaration the verifier reads."""
    import ctypes

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


def test_tsan_harness_declares_the_kernel_prototype():
    """The race harness links against ``_kernel.c`` through its own
    declaration of ``fused_expand``; C does not type-check that at link
    time, so the two parameter lists are compared here."""
    import re

    def prototype(path):
        text = path.read_text(encoding="utf-8")
        match = re.search(r"int64_t fused_expand\(([^)]*)\)", text)
        assert match, path
        return " ".join(match.group(1).split())

    harness = abi.SMOKE_SOURCE_PATH.with_name("_tsan_harness.c")
    assert prototype(harness) == prototype(abi.KERNEL_SOURCE_PATH)


# ---------------------------------------------------------------------------
# The cross-check: clean on the real repo, loud on drift
# ---------------------------------------------------------------------------
def test_abi_check_clean_on_real_sources():
    report = abi.run_abi_check()
    assert report.ok, "\n".join(str(f) for f in report.findings)
    # 4 kernel exports + the 2 sanitizer smoke fixtures.
    assert report.functions_checked == 6
    assert report.sections_checked >= 4


def test_abi_check_injected_swap_caught_as_type_mismatch():
    report = abi.run_abi_check(inject="swap")
    assert not report.ok
    assert "RPRABI04" in report.codes()
    assert any("fused_expand" in f.message for f in report.findings)


def test_abi_check_rejects_unknown_injection():
    with pytest.raises(ValueError):
        abi.run_abi_check(inject="bogus")


def test_abi_check_missing_binding_found():
    kernel = "int64_t brand_new_symbol(int64_t x) {\n    return x;\n}\n"
    native = abi.NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    report = abi.run_abi_check(kernel_source=kernel, native_source=native)
    assert "RPRABI01" in report.codes()


def test_abi_check_binding_without_export_found():
    """The other direction of binding-set drift: ``_native.py`` binds a
    symbol the C source no longer exports (it would fail at load time,
    and only on machines with a compiler)."""
    kernel = abi.KERNEL_SOURCE_PATH.read_text(encoding="utf-8")
    head = "int64_t fused_expand("
    assert head in kernel
    renamed = kernel.replace(head, "int64_t fused_expand_v2(", 1)
    native = abi.NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    report = abi.run_abi_check(kernel_source=renamed, native_source=native)
    stale = [f for f in report.findings if f.code == "RPRABI02"]
    assert len(stale) == 1 and "fused_expand" in stale[0].message
    # ... and the renamed export is the unbound one.
    assert any(
        f.code == "RPRABI01" and "fused_expand_v2" in f.message
        for f in report.findings
    )


def test_abi_check_arity_mismatch_found():
    kernel = abi.KERNEL_SOURCE_PATH.read_text(encoding="utf-8")
    # Add one parameter to fused_expand's C prototype (the first
    # export that ends in stats_out).
    assert "int64_t* stats_out)" in kernel
    drifted = kernel.replace(
        "int64_t* stats_out)", "int64_t* stats_out, int64_t extra)", 1
    )
    native = abi.NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    report = abi.run_abi_check(kernel_source=drifted, native_source=native)
    assert "RPRABI03" in report.codes()


def test_abi_check_missing_row_count_found():
    """The pre-tail-guard prototype (no leading ``n``) against today's
    binding: every later argument would shift by one slot."""
    kernel = abi.KERNEL_SOURCE_PATH.read_text(encoding="utf-8")
    head = "int64_t fused_expand(\n    int64_t n,\n"
    assert head in kernel
    drifted = kernel.replace(head, "int64_t fused_expand(\n", 1)
    native = abi.NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    report = abi.run_abi_check(kernel_source=drifted, native_source=native)
    assert "RPRABI03" in report.codes()
    assert any("fused_expand" in f.message for f in report.findings)


def test_abi_check_restype_mismatch_found():
    kernel = abi.KERNEL_SOURCE_PATH.read_text(encoding="utf-8")
    drifted = kernel.replace(
        "int64_t fused_expand(", "int32_t fused_expand(", 1
    )
    native = abi.NATIVE_SOURCE_PATH.read_text(encoding="utf-8")
    report = abi.run_abi_check(kernel_source=drifted, native_source=native)
    assert "RPRABI05" in report.codes()


# ---------------------------------------------------------------------------
# Store header contract
# ---------------------------------------------------------------------------
def test_store_contract_sections_match_kernel_views():
    from repro.graph import store

    dtypes = dict(store.SECTION_DTYPES)
    for section, (kind, bits) in abi.KERNEL_VIEW_CONTRACT.items():
        assert section in dtypes, section
        import numpy as np

        dtype = np.dtype(dtypes[section])
        assert dtype.kind == {"int": "i", "uint": "u"}[kind], section
        assert dtype.itemsize * 8 == bits, section


def test_store_contract_violation_detected(monkeypatch):
    from repro.graph import store

    drifted = tuple(
        (name, "<i4" if name == "adj_indptr" else dtype)
        for name, dtype in store.SECTION_DTYPES
    )
    monkeypatch.setattr(store, "SECTION_DTYPES", drifted)
    findings = []
    abi._check_store_contract(findings)
    assert any(f.code == "RPRABI07" for f in findings)


# ---------------------------------------------------------------------------
# Smoke fixture bindings ride the same contract
# ---------------------------------------------------------------------------
def test_smoke_bindings_covered_by_abi_check():
    from repro.analysis import sanitize

    source = abi.SMOKE_SOURCE_PATH.read_text(encoding="utf-8")
    names = {fn.name for fn in abi.parse_c_exports(source)}
    assert names == set(sanitize.SMOKE_BINDINGS)


def test_ctypes_object_conversion_handles_platform_aliases():
    import ctypes

    assert str(abi._ctypes_object_to_ctype(ctypes.c_int64)) == "int64"
    assert str(abi._ctypes_object_to_ctype(ctypes.c_uint8)) == "uint8"
    assert str(abi._ctypes_object_to_ctype(ctypes.c_void_p)) == "void*"
    assert str(abi._ctypes_object_to_ctype(None)) == "void"

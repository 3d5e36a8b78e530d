"""Serialization and text-format loaders for knowledge graphs.

One on-disk format is written: :func:`save_graph` writes a version-2
:mod:`repro.graph.store` file (``.csrstore``) — the CSR arrays and node
text, plus the inverted index, the Eq. 2 weights and the sampled A — and
:func:`load_graph` opens it memory-mapped, so the engine reads those
three from the file instead of computing them. Every CLI path that takes
``--graph`` goes through :func:`load_graph`.

:func:`load_graph` still reads the NPZ bundle (``<path>.npz`` plus a
``<path>.meta.json`` sidecar) that earlier versions wrote. Nothing writes
it any more; such a graph loads into RAM, and the engine computes the
index, weights and A from it as before.

A line-oriented TSV triple format (``subject<TAB>predicate<TAB>object``)
covers the "knowledge graphs can all be represented in an RDF graph"
loading path of the paper.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

import numpy as np

from .builder import GraphBuilder
from .csr import CSRAdjacency, KnowledgeGraph
from .labels import Vocabulary

#: Sidecar version of the read-only legacy NPZ bundle.
_NPZ_FORMAT_VERSION = 1


def _base(path: str) -> str:
    """``path`` without a ``.npz`` suffix."""
    return path[:-4] if path.endswith(".npz") else path


def save_graph(graph: KnowledgeGraph, path: str) -> str:
    """Write ``graph`` as a version-2 store and return the file's path.

    The file is ``path`` itself when it ends in ``.csrstore``, else
    ``path + '.csrstore'`` (a ``.npz`` suffix is dropped first). It holds
    the derived sections too (:func:`~repro.graph.store.save_store`), so
    a graph reopened with :func:`load_graph` needs no tokenizing, no
    weight pass and no distance sampling.

    The store is written beside the target and renamed over it, so a
    graph mapped from an earlier file there (``graph`` itself, say)
    keeps reading that file.
    """
    # Imported here, as load_graph imports open_store.
    from .store import STORE_SUFFIX, save_store

    target = path if path.endswith(STORE_SUFFIX) else _base(path) + STORE_SUFFIX
    partial = f"{target}.partial-{os.getpid()}"
    try:
        save_store(graph, partial)
        os.replace(partial, target)
    except BaseException:
        if os.path.exists(partial):
            os.unlink(partial)
        raise
    return target


def _is_store_file(path: str) -> bool:
    """True when ``path`` exists and starts with the CSRStore magic."""
    from .store import MAGIC

    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def load_graph(path: str, mmap: bool = True) -> KnowledgeGraph:
    """Load the graph at ``path``, looking in this order:

    1. ``path`` itself, when it is a store file (by its magic bytes);
    2. ``path + '.csrstore'`` (what :func:`save_graph` writes; a ``.npz``
       suffix on ``path`` is dropped first);
    3. a legacy NPZ bundle, ``path + '.npz'`` plus ``path + '.meta.json'``.

    So a prefix holding both a store and an NPZ bundle opens the store.
    A store opens memory-mapped by default (``mmap=False`` materializes
    it into RAM); an NPZ bundle always loads into RAM.

    Raises:
        FileNotFoundError: if none of the three exists, or the NPZ
            bundle lacks its JSON sidecar.
        ValueError: if the sidecar format version is unsupported (or, via
            :class:`~repro.graph.store.CSRStoreError`, the store is corrupt).
    """
    from .store import STORE_SUFFIX, open_store

    if _is_store_file(path):
        return open_store(path, mmap=mmap)
    base = _base(path)
    if _is_store_file(base + STORE_SUFFIX):
        return open_store(base + STORE_SUFFIX, mmap=mmap)
    if not os.path.exists(base + ".npz"):
        raise FileNotFoundError(
            f"no graph at {path!r}: neither {base + STORE_SUFFIX!r} nor "
            f"{base + '.npz'!r} exists"
        )
    return _load_npz(base)


def _load_npz(base: str) -> KnowledgeGraph:
    """The read-only legacy reader: ``base.npz`` + ``base.meta.json``."""
    with open(base + ".meta.json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("version") != _NPZ_FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version: {meta.get('version')}")
    with np.load(base + ".npz") as data:
        out, inc, adj = (
            CSRAdjacency(
                indptr=data[f"{name}_indptr"],
                indices=data[f"{name}_indices"],
                labels=data[f"{name}_labels"],
            )
            for name in ("out", "inc", "adj")
        )
    return KnowledgeGraph(
        out=out,
        inc=inc,
        adj=adj,
        node_text=meta["node_text"],
        predicates=Vocabulary.from_list(meta["predicates"]),
    )


def load_tsv_triples(
    path: str,
    node_text: Optional[Dict[str, str]] = None,
    comment_prefix: str = "#",
) -> KnowledgeGraph:
    """Load ``subject<TAB>predicate<TAB>object`` triples from a TSV file.

    Blank lines and lines starting with ``comment_prefix`` are skipped.
    Subjects/objects are node keys; display text defaults to the key unless
    overridden through ``node_text``.

    Raises:
        ValueError: on malformed lines (not exactly three tab-separated
            fields), reporting the offending line number.
    """
    node_text = node_text or {}
    builder = GraphBuilder()
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith(comment_prefix):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 3 tab-separated fields, got {len(parts)}"
                )
            subject, predicate, obj = (part.strip() for part in parts)
            s = builder.add_node(node_text.get(subject, subject), key=subject)
            o = builder.add_node(node_text.get(obj, obj), key=obj)
            if s != o:
                builder.add_edge(s, o, predicate)
    return builder.build()


def dump_tsv_triples(graph: KnowledgeGraph, path: str) -> int:
    """Write the graph's directed edges as TSV triples; returns edge count.

    Node keys are ``n<id>`` and a header comment records node text mapping
    hints, keeping round-trips lossless for structure (the node text is
    carried by the store :func:`save_graph` writes, when needed).
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# subject\tpredicate\tobject\n")
        for source, target, label in graph.edge_list():
            handle.write(
                f"n{source}\t{graph.predicate_name(label)}\tn{target}\n"
            )
            count += 1
    return count

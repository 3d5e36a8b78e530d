"""Persistence for the inverted keyword index.

Rebuilding the index from node text is linear but not free; production
deployments (the paper's always-on WikiSearch service) keep it on disk
beside the graph. One codec serves both places it is kept: an index is
its posting lengths (int64, one per term), the flat concatenation of its
postings (int64) and a ``{terms, tokenizer, n_nodes}`` meta record, so a
reload reproduces the exact same lookup behaviour. :func:`save_index`
writes those parts as an NPZ with a JSON sidecar; a version-2
``.csrstore`` holds them as its ``index_*`` sections.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import List, Optional, Tuple

import numpy as np

from ..graph.csr import KnowledgeGraph
from ..graph.store import stored_json, stored_section
from .inverted_index import InvertedIndex
from .tokenizer import Tokenizer, TokenizerConfig

_FORMAT_VERSION = 1


def encode_index(index: InvertedIndex) -> Tuple[np.ndarray, List[np.ndarray], dict]:
    """``(lengths, postings, meta)``: the flat postings are the
    concatenation of ``postings``, left to the writer so a store can
    stream them."""
    postings = [index.nodes_for_normalized_term(term) for term in index.terms]
    lengths = np.array([len(p) for p in postings], dtype=np.int64)
    meta = {
        "terms": list(index.terms),
        "n_nodes": index.n_nodes,
        "tokenizer": asdict(index.tokenizer.config),
    }
    return lengths, postings, meta


def decode_index(
    lengths: np.ndarray,
    flat: np.ndarray,
    meta: dict,
    tokenizer: Optional[Tokenizer] = None,
) -> InvertedIndex:
    """The index :func:`encode_index` took apart. Postings are views of
    ``flat``. ``tokenizer`` (default: one built from ``meta``) must
    normalize like the recorded config."""
    if tokenizer is None:
        tokenizer = Tokenizer(TokenizerConfig(**meta["tokenizer"]))
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    flat = np.asarray(flat, dtype=np.int64)
    postings = [
        flat[start:stop] for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    return InvertedIndex.from_parts(tokenizer, meta["terms"], postings, int(meta["n_nodes"]))


def stored_index(graph: KnowledgeGraph, tokenizer: Tokenizer) -> Optional[InvertedIndex]:
    """The index of a version-2 store behind ``graph``, when it was built
    with ``tokenizer``'s config (and ``tokenizer`` is a plain
    :class:`Tokenizer`); otherwise ``None``."""
    if type(tokenizer) is not Tokenizer:
        return None
    meta = stored_json(graph, "index_meta")
    if meta is None or TokenizerConfig(**meta["tokenizer"]) != tokenizer.config:
        return None
    return decode_index(
        stored_section(graph, "index_lengths"),
        stored_section(graph, "index_postings"),
        meta,
        tokenizer,
    )


def save_index(index: InvertedIndex, path: str) -> None:
    """Write ``index`` to ``path`` (``.npz``) + ``path + '.meta.json'``."""
    lengths, postings, meta = encode_index(index)
    flat = np.concatenate(postings) if postings else np.empty(0, dtype=np.int64)
    np.savez_compressed(path, lengths=lengths, flat=flat)
    with open(_meta_path(path), "w", encoding="utf-8") as handle:
        json.dump({"version": _FORMAT_VERSION, **meta}, handle)


def load_index(path: str) -> InvertedIndex:
    """Reload an index written by :func:`save_index`.

    Raises:
        FileNotFoundError: if either file is missing.
        ValueError: on an unsupported format version.
    """
    npz_path = path if path.endswith(".npz") else path + ".npz"
    with open(_meta_path(path), "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported index format version: {meta.get('version')}")
    with np.load(npz_path) as data:
        lengths = data["lengths"]
        flat = data["flat"]
    return decode_index(lengths, flat, meta)


def _meta_path(path: str) -> str:
    base = path[:-4] if path.endswith(".npz") else path
    return base + ".meta.json"

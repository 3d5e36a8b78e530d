"""Degree-of-summary node weights (Section IV-A, Eq. 2).

A node pointed to by many identically-labeled in-edges (Wikidata's
``human``, conference nodes, broad topics) is a *summary node*: it only
records trivial commonality and tends to act as a meaningless shortcut
during search. Eq. 2 quantifies this:

    w_i = ( Σ_{r ∈ R_i}  r · log2(1 + r) ) / ( Σ_{r ∈ R_i} r )

where ``R_i`` is the set of in-edge labels of ``v_i`` and ``r`` doubles as
the count of in-edges with that label. Averaging over labels rewards
in-edge-label diversity. Weights are then min-max normalized to [0, 1].
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import KnowledgeGraph, row_windows
from ..graph.store import stored_section

#: In-edges per window of :func:`raw_degree_of_summary`. Its temporaries
#: are a few int64 arrays of this length, whatever the graph's size.
_WINDOW_EDGES = 1 << 18


def raw_degree_of_summary(graph: KnowledgeGraph) -> np.ndarray:
    """Unnormalized Eq. 2 weights, one float64 per node.

    Nodes with no in-edges have no summary evidence and get weight 0
    (a single in-edge yields log2(2) = 1, the minimum for non-isolated
    nodes, so 0 keeps them strictly below every summarizing node).

    Nodes are taken in windows of about ``_WINDOW_EDGES`` in-edges, and
    a store-backed graph releases each window's pages after it. A node's
    sums see its labels in the same order either way, so the weights are
    bitwise those of one whole-graph pass.
    """
    indptr = graph.inc.indptr
    n_labels = max(1, len(graph.predicates))
    weights = np.zeros(graph.n_nodes, dtype=np.float64)
    for lo, hi in row_windows(indptr, _WINDOW_EDGES):
        first, last = int(indptr[lo]), int(indptr[hi])
        if first == last:
            continue
        # inc.labels is already grouped by target node; build (node, label)
        # composite keys to count in-edges per label without a Python loop.
        owner = np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(indptr[lo:hi + 1]))
        keys = owner * n_labels + graph.inc.labels[first:last].astype(np.int64)
        unique_keys, counts = np.unique(keys, return_counts=True)
        key_owner = unique_keys // n_labels
        contribution = counts.astype(np.float64) * np.log2(1.0 + counts)
        numerator = np.zeros(hi - lo, dtype=np.float64)
        denominator = np.zeros(hi - lo, dtype=np.float64)
        np.add.at(numerator, key_owner, contribution)
        np.add.at(denominator, key_owner, counts.astype(np.float64))
        has_in_edges = denominator > 0
        weights[lo:hi][has_in_edges] = numerator[has_in_edges] / denominator[has_in_edges]
        graph.release_pages()
    return weights


def normalize_weights(raw: np.ndarray) -> np.ndarray:
    """Min-max normalize raw weights into [0, 1] (paper's w'_i).

    A constant weight vector normalizes to all zeros (no node is more of a
    summary than any other).
    """
    if len(raw) == 0:
        return raw.astype(np.float64)
    low = float(raw.min())
    high = float(raw.max())
    if high <= low:
        return np.zeros_like(raw, dtype=np.float64)
    return (raw - low) / (high - low)


def node_weights(graph: KnowledgeGraph) -> np.ndarray:
    """Normalized degree-of-summary weights: the w_i used everywhere else.

    A graph opened from a version-2 ``.csrstore`` returns its stored
    ``node_weights`` section (read-only, memory-mapped): the same bits.
    """
    stored = stored_section(graph, "node_weights")
    if stored is not None:
        return stored
    return normalize_weights(raw_degree_of_summary(graph))

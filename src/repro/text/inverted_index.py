"""Inverted keyword index: term → the node set T_i containing it.

Section III of the paper starts each keyword's BFS instance from the node
set ``T_i`` of nodes containing term ``t_i``. This index materializes those
sets as sorted ``int64`` arrays over the graph's entity text.

BLINKS-style precomputed keyword-node *distance* lists are exactly what the
paper avoids ("infeasible on Wikidata KB ... over 5 million keywords"), so
this index stores membership only — Θ(total tokens) — never distances.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import KnowledgeGraph
from ..graph.labels import Vocabulary
from .tokenizer import Tokenizer


class InvertedIndex:
    """Maps normalized keyword terms to the nodes whose text contains them.

    Attributes:
        terms: vocabulary of indexed terms (ids are postings positions).
        tokenizer: the normalizer shared with query parsing.
    """

    def __init__(self, tokenizer: Optional[Tokenizer] = None) -> None:
        self.tokenizer = tokenizer or Tokenizer()
        self.terms = Vocabulary()
        self._postings: List[np.ndarray] = []
        self._n_nodes = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: KnowledgeGraph, tokenizer: Optional[Tokenizer] = None
    ) -> "InvertedIndex":
        """Index every node's entity text.

        A graph opened from a version-2 ``.csrstore`` whose index was built
        with the same tokenizer config returns the stored index (postings
        memory-mapped) instead of tokenizing every node again.
        """
        # Imported here: index_io imports this module.
        from .index_io import stored_index

        tokenizer = tokenizer or Tokenizer()
        index = stored_index(graph, tokenizer)
        if index is None:
            index = cls(tokenizer)
            index.build(graph.node_text)
        return index

    @classmethod
    def from_parts(
        cls,
        tokenizer: Tokenizer,
        terms: Sequence[str],
        postings: Sequence[np.ndarray],
        n_nodes: int,
    ) -> "InvertedIndex":
        """Reassemble an index from serialized parts (see index_io).

        Raises:
            ValueError: if terms and postings are misaligned.
        """
        if len(terms) != len(postings):
            raise ValueError("terms and postings must be parallel")
        index = cls(tokenizer)
        index._n_nodes = n_nodes
        for term, posting in zip(terms, postings):
            index.terms.add(term)
            index._postings.append(np.asarray(posting, dtype=np.int64))
        return index

    def _sorted_postings(
        self, node_texts: Iterable[str], first_id: int
    ) -> Tuple[List[str], List[np.ndarray]]:
        """The sorted terms of ``node_texts`` and, per term, the ascending
        ids of the nodes (numbered from ``first_id``) whose text contains it.

        Entity text repeats a small vocabulary over and over, so each
        distinct raw token is normalized (stemmed) once per call. A term's
        nodes accumulate in a C-int array (4 bytes per posting), not a
        list of boxed ints, and each array is released as soon as its
        int64 posting exists.
        """
        unique_terms = self.tokenizer.unique_terms
        memo: Dict[str, Optional[str]] = {}
        nodes_of: Dict[str, array] = defaultdict(lambda: array("i"))
        for node, text in enumerate(node_texts, first_id):
            for term in unique_terms(text, memo):
                nodes_of[term].append(node)
        terms = sorted(nodes_of)
        postings = [
            np.frombuffer(nodes_of.pop(term), dtype=np.intc).astype(np.int64)
            for term in terms
        ]
        return terms, postings

    def build(self, node_texts: Sequence[str]) -> None:
        """(Re)build postings from one text per node."""
        self._n_nodes = len(node_texts)
        terms, postings = self._sorted_postings(node_texts, 0)
        self.terms = Vocabulary(terms)
        self._postings = postings

    def extend(self, new_node_texts: Sequence[str]) -> int:
        """Index additional nodes appended after the existing ones.

        New nodes receive ids ``n_nodes, n_nodes + 1, ...`` (matching
        :meth:`GraphBuilder.from_graph` growth), so postings stay sorted
        without a rebuild.

        Returns:
            The node id assigned to the first new text.
        """
        first_id = self._n_nodes
        for term, new_ids in zip(*self._sorted_postings(new_node_texts, first_id)):
            term_id = self.terms.get(term)
            if term_id is None:
                self.terms.add(term)
                self._postings.append(new_ids)
            else:
                self._postings[term_id] = np.concatenate(
                    [self._postings[term_id], new_ids]
                )
        self._n_nodes += len(new_node_texts)
        return first_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def nodes_for_term(self, term: str) -> np.ndarray:
        """Sorted node ids containing (the normalization of) ``term``.

        The term is passed through the same tokenizer as the indexed text;
        unknown terms return an empty array.
        """
        normalized = self.tokenizer.tokenize(term)
        if len(normalized) != 1:
            # A "term" that normalizes to several tokens is a phrase; the
            # caller should split it first.
            if not normalized:
                return np.empty(0, dtype=np.int64)
            raise ValueError(
                f"{term!r} normalizes to {len(normalized)} tokens; "
                "split phrases into terms before lookup"
            )
        return self.nodes_for_normalized_term(normalized[0])

    def nodes_for_normalized_term(self, term: str) -> np.ndarray:
        """Postings for an already-normalized term (empty when unknown)."""
        term_id = self.terms.get(term)
        if term_id is None:
            return np.empty(0, dtype=np.int64)
        return self._postings[term_id]

    def term_frequency(self, term: str) -> int:
        """Number of nodes containing ``term`` (Table V's keyword frequency)."""
        return int(len(self.nodes_for_term(term)))

    def query_node_sets(self, query: str) -> "List[tuple[str, np.ndarray]]":
        """Split a raw query string into (normalized term, T_i) pairs.

        Duplicate terms within a query are collapsed, matching the set
        semantics of the paper's query definition Q = {t_0, ..., t_q-1}.
        """
        pairs: List[tuple] = []
        seen = set()
        for term in self.tokenizer.tokenize(query):
            if term in seen:
                continue
            seen.add(term)
            pairs.append((term, self.nodes_for_normalized_term(term)))
        return pairs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    def nbytes(self) -> int:
        """Postings memory footprint in bytes."""
        return int(sum(posting.nbytes for posting in self._postings))

    def most_frequent_terms(self, k: int = 10) -> "List[tuple[str, int]]":
        """The ``k`` terms with the largest node sets (debugging/reporting)."""
        sized = [
            (self.terms[term_id], len(posting))
            for term_id, posting in enumerate(self._postings)
        ]
        sized.sort(key=lambda pair: (-pair[1], pair[0]))
        return sized[:k]

    def node_terms(self, node_texts: Iterable[str]) -> Iterable[List[str]]:
        """Normalize a stream of node texts (helper for judges/tests)."""
        for text in node_texts:
            yield self.tokenizer.unique_terms(text)

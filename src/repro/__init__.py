"""repro — parallel keyword search on knowledge graphs via Central Graphs.

A from-scratch Python reproduction of Yang et al., *An Efficient Parallel
Keyword Search Engine on Knowledge Graphs* (ICDE 2019): the Central Graph
answer model, minimum-activation-level weighting, the two-stage lock-free
parallel algorithm, the BANKS baselines, and the full experiment harness.

Quickstart::

    from repro import KeywordSearchEngine
    from repro.graph.generators import wiki_like_kb

    graph, _ = wiki_like_kb()
    engine = KeywordSearchEngine(graph)
    result = engine.search("knowledge base rdf sparql", k=10)
    print(result.answers[0].graph.describe(graph.node_text))
"""

from .core.batch import BatchReport, BatchSearcher
from .core.central_graph import CentralGraph, SearchAnswer
from .core.engine import (
    EmptyQueryError,
    EngineConfig,
    KeywordSearchEngine,
    SearchResult,
)
from .core.state import TooManyKeywordsError
from .graph.builder import GraphBuilder, graph_from_triples
from .graph.csr import KnowledgeGraph
from .obs import MetricsRegistry
from .parallel import (
    LockedDictEngine,
    NativeKernelUnavailable,
    SequentialBackend,
    ThreadPoolBackend,
    VectorizedBackend,
)
from .text.inverted_index import InvertedIndex

__version__ = "1.0.0"

__all__ = [
    "BatchReport",
    "BatchSearcher",
    "CentralGraph",
    "EmptyQueryError",
    "EngineConfig",
    "GraphBuilder",
    "InvertedIndex",
    "KeywordSearchEngine",
    "KnowledgeGraph",
    "LockedDictEngine",
    "MetricsRegistry",
    "NativeKernelUnavailable",
    "SearchAnswer",
    "SearchResult",
    "SequentialBackend",
    "ThreadPoolBackend",
    "TooManyKeywordsError",
    "VectorizedBackend",
    "graph_from_triples",
    "__version__",
]

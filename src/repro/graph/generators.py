"""Synthetic knowledge-graph generators.

The paper evaluates on two Wikidata dumps (Table II). Those dumps are not
available offline, so this module builds Wikidata-*shaped* graphs that
exercise the same code paths:

* **summary hubs** — class nodes such as ``human`` and ``scholarly article``
  receive huge numbers of identically-labeled ``instance of`` in-edges,
  giving them a large degree of summary (Eq. 2) exactly as the paper
  describes for Wikidata's ``human`` node;
* **topic nodes** — research topics with moderate in-degree and few
  distinct in-edge labels (the paper's ``data mining`` example: ~1000
  in-edges, 11 labels);
* **entity text** — paper titles composed of co-occurring topic phrases,
  person names, venue names — the source of the keyword index;
* **planted effectiveness structure** — for each canned evaluation query
  (Table V analogues) the generator plants papers whose titles contain all
  query phrases together (gold co-occurrence answers) and decoy papers
  carrying isolated keywords near summary hubs (the trap that hurts
  sum-of-path-length Steiner scoring, Section VI-B).

Also provided: small deterministic graphs for tests (chain, star, grid,
Erdős–Rényi, preferential attachment) and the paper's Fig. 1/Fig. 4
worked example.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .builder import GraphBuilder, StreamingGraphBuilder
from .csr import KnowledgeGraph
from .store import StoreInfo

# ---------------------------------------------------------------------------
# Node roles (recorded in metadata; used by tests and the relevance judge)
# ---------------------------------------------------------------------------
ROLE_CLASS = 0
ROLE_TOPIC = 1
ROLE_PAPER = 2
ROLE_PERSON = 3
ROLE_VENUE = 4
ROLE_ORG = 5
ROLE_COUNTRY = 6
ROLE_MISC = 7

ROLE_NAMES = {
    ROLE_CLASS: "class",
    ROLE_TOPIC: "topic",
    ROLE_PAPER: "paper",
    ROLE_PERSON: "person",
    ROLE_VENUE: "venue",
    ROLE_ORG: "organization",
    ROLE_COUNTRY: "country",
    ROLE_MISC: "misc",
}

# Topic phrases; the canned Table V queries draw from these, so every
# query keyword is guaranteed to exist in the generated KB.
TOPIC_PHRASES: Tuple[str, ...] = (
    "XML", "relational database", "search engine", "database indexing",
    "ranking", "Bayesian inference", "Markov network",
    "statistical relational learning", "supervised learning",
    "gradient descent", "machine translation", "transfer learning",
    "text classification", "information retrieval", "network mining",
    "medicine", "knowledge base", "RDF", "SQL", "SPARQL",
    "natural language processing", "machine learning", "data mining",
    "Wikidata", "Freebase", "Neo4j", "graph database", "query language",
    "keyword search", "deep learning", "neural network",
    "reinforcement learning", "computer vision", "image segmentation",
    "object detection", "speech recognition", "topic model", "clustering",
    "classification", "regression", "feature selection",
    "dimensionality reduction", "semantic web", "ontology",
    "entity resolution", "question answering", "recommender system",
    "social network", "time series", "anomaly detection",
    "stream processing", "distributed computing", "parallel algorithm",
    "query optimization", "transaction processing", "concurrency control",
    "data integration", "schema matching", "web search", "link prediction",
    "graph embedding", "knowledge graph", "inference", "auxiliary data",
    "retrieval technique", "data sharing",
)

# Filler vocabulary is disjoint from every TOPIC_PHRASES word so that a
# filler can never accidentally complete a topic phrase inside a title.
_TITLE_FILLERS = (
    "efficient", "scalable", "novel", "robust", "adaptive", "unified",
    "incremental", "approximate", "optimal", "framework", "approach",
    "study", "analysis", "survey", "method", "evaluation", "benchmark",
    "practical", "principled", "revisited", "foundations", "perspective",
)

_FIRST_NAMES = (
    "Jeffrey", "Alice", "Wei", "Maria", "Rahul", "Yuki", "Elena", "Omar",
    "Chen", "Fatima", "Lars", "Priya", "Diego", "Hana", "Ivan", "Amara",
    "Tomas", "Mei", "Noah", "Zara",
)

_LAST_NAMES = (
    "Ullman", "Garcia", "Zhang", "Kumar", "Tanaka", "Petrov", "Hassan",
    "Mueller", "Silva", "Okafor", "Larsen", "Rossi", "Nguyen", "Kim",
    "Novak", "Adeyemi", "Svensson", "Moreau", "Castro", "Yamamoto",
)

_VENUE_STEMS = (
    "Conference on Data Engineering", "Conference on Management of Data",
    "Conference on Very Large Data Bases", "Conference on Machine Learning",
    "Conference on Artificial Intelligence", "Symposium on Theory of Computing",
    "Conference on Knowledge Discovery", "Conference on Information Retrieval",
    "Conference on Computational Linguistics", "Conference on Computer Vision",
)

_ORG_STEMS = (
    "Stanford University", "National University of Singapore",
    "University of Michigan", "University of California",
    "Tsinghua University", "University of Tokyo", "ETH Zurich",
    "Carnegie Mellon University", "University of Oxford",
    "Max Planck Institute", "Indian Institute of Technology",
    "Seoul National University",
)

_COUNTRIES = (
    "United States", "Singapore", "Germany", "Japan", "China", "India",
    "United Kingdom", "Switzerland", "South Korea", "Brazil", "France",
    "Canada",
)


@dataclass(frozen=True)
class WikiKBConfig:
    """Size knobs for the wiki-like generator.

    The defaults produce the ``wiki2017-sim`` scale; :func:`wiki2018_config`
    roughly doubles it, mirroring the relative growth between the paper's
    two dumps.
    """

    name: str = "wiki2017-sim"
    seed: int = 2017
    n_papers: int = 2500
    n_people: int = 1200
    n_misc: int = 1200
    n_venues: int = 40
    n_orgs: int = 48
    topics_per_paper: float = 2.2
    authors_per_paper: float = 1.8
    citations_per_paper: float = 0.8
    gold_papers_per_query: int = 8
    decoy_papers_per_phrase: int = 3
    #: Probability that a regular paper title quotes a topic phrase whole
    #: (otherwise it mentions a single word of it — split-word ambiguity).
    phrase_coherence: float = 0.35


def wiki2017_config(seed: int = 2017) -> WikiKBConfig:
    """Preset matching the smaller dump's relative size."""
    return WikiKBConfig(name="wiki2017-sim", seed=seed)


def wiki2018_config(seed: int = 2018) -> WikiKBConfig:
    """Preset roughly doubling wiki2017-sim (paper: 15.1M → 30.6M nodes)."""
    return WikiKBConfig(
        name="wiki2018-sim",
        seed=seed,
        n_papers=5000,
        n_people=2400,
        n_misc=2400,
        n_venues=60,
        n_orgs=60,
    )


def wiki2018_xl_config(seed: int = 2018) -> WikiKBConfig:
    """Out-of-core bench scale: ≥2M nodes, built only via the streaming tier.

    At this size the CSR arrays alone are several hundred MB, so the graph
    is generated straight to a :mod:`repro.graph.store` file with
    :func:`build_wiki_kb_store` — ``wiki_like_kb`` (which materializes
    Python edge lists) would need multiple GB of RAM.
    """
    return WikiKBConfig(
        name="wiki2018-xl",
        seed=seed,
        n_papers=1_200_000,
        n_people=480_000,
        n_misc=400_000,
        n_venues=2_000,
        n_orgs=1_200,
        citations_per_paper=0.6,
    )


def ooc_smoke_config(seed: int = 2018) -> WikiKBConfig:
    """~100k-node but edge-dense scale for the CI out-of-core smoke job.

    Sized so the CSR array bytes comfortably exceed a small RSS cap while
    the build itself stays under a minute on a CI runner.
    """
    return WikiKBConfig(
        name="wiki-ooc-smoke",
        seed=seed,
        n_papers=100_000,
        n_people=40_000,
        n_misc=20_000,
        n_venues=400,
        n_orgs=240,
        topics_per_paper=6.0,
        authors_per_paper=4.0,
        citations_per_paper=2.0,
    )


@dataclass
class KBMetadata:
    """Provenance and planted structure of a generated KB."""

    name: str
    seed: int
    roles: np.ndarray
    topic_nodes: Dict[str, int] = field(default_factory=dict)
    class_nodes: Dict[str, int] = field(default_factory=dict)
    gold_papers: Dict[str, List[int]] = field(default_factory=dict)
    decoy_papers: List[int] = field(default_factory=list)

    def role_name(self, node: int) -> str:
        return ROLE_NAMES[int(self.roles[node])]


def _draw_count(rng: np.random.Generator, mean: float, minimum: int = 0) -> int:
    """Poisson count with a floor; keeps per-entity fan-out realistic."""
    return max(minimum, int(rng.poisson(mean)))


def wiki_like_kb(
    config: Optional[WikiKBConfig] = None,
    canned_phrase_queries: Optional[Dict[str, Sequence[str]]] = None,
) -> Tuple[KnowledgeGraph, KBMetadata]:
    """Generate a Wikidata-shaped KB plus metadata.

    Args:
        config: size knobs; defaults to :func:`wiki2017_config`.
        canned_phrase_queries: mapping from query id to its phrase list
            (e.g. ``{"Q1": ["XML", "relational database", "search engine"]}``).
            For each query the generator plants gold papers whose titles
            contain *all* phrases and decoy papers containing exactly one.
            When omitted, the default canned set from
            :mod:`repro.eval.queries` is used.

    Returns:
        ``(graph, metadata)``; the metadata records node roles and planted
        gold/decoy paper ids keyed by query id.
    """
    if config is None:
        config = wiki2017_config()
    builder = GraphBuilder()
    metadata = _populate_wiki_kb(builder, config, canned_phrase_queries)
    return builder.build(), metadata


def build_wiki_kb_store(
    path: Union[str, os.PathLike],
    config: Optional[WikiKBConfig] = None,
    canned_phrase_queries: Optional[Dict[str, Sequence[str]]] = None,
    spill_dir: Optional[str] = None,
    chunk_edges: int = StreamingGraphBuilder.DEFAULT_CHUNK_EDGES,
    window_rows: int = StreamingGraphBuilder.DEFAULT_WINDOW_ROWS,
) -> Tuple[StoreInfo, KBMetadata]:
    """Generate the same wiki-like KB straight to an on-disk CSR store.

    The exact same population code drives a
    :class:`~repro.graph.builder.StreamingGraphBuilder`, so for any config
    the resulting store opens to a graph bitwise identical to
    ``wiki_like_kb(config)`` — but intermediates spill to disk, which is what
    makes the multi-million-node scales (:func:`wiki2018_xl_config`)
    buildable in bounded RAM.
    """
    if config is None:
        config = wiki2017_config()
    builder = StreamingGraphBuilder(
        spill_dir=spill_dir, chunk_edges=chunk_edges, window_rows=window_rows
    )
    metadata = _populate_wiki_kb(builder, config, canned_phrase_queries)
    info = builder.finalize(path, name=config.name, seed=config.seed)
    return info, metadata


def _populate_wiki_kb(
    builder: Union[GraphBuilder, StreamingGraphBuilder],
    config: WikiKBConfig,
    canned_phrase_queries: Optional[Dict[str, Sequence[str]]] = None,
) -> KBMetadata:
    """Drive ``builder`` through the full wiki-like population sequence.

    Shared by the in-RAM and streaming build paths; every container here is
    compact (``array`` typecodes, not Python int lists) so the generation
    loop itself stays within the streaming tier's memory budget at
    multi-million-node scale.
    """
    if canned_phrase_queries is None:
        # Imported lazily to avoid a package cycle at import time.
        from ..eval.queries import canned_query_phrases

        canned_phrase_queries = canned_query_phrases()

    rng = np.random.default_rng(config.seed)
    roles = array("b")

    def new_node(text: str, role: int) -> int:
        node = builder.add_node(text)
        roles.append(role)
        return node

    # -- Class (summary) nodes ------------------------------------------
    class_names = (
        "human", "scholarly article", "research topic", "academic conference",
        "university", "country", "software", "database management system",
    )
    class_nodes = {name: new_node(name, ROLE_CLASS) for name in class_names}

    # -- Topic nodes -----------------------------------------------------
    topic_nodes: Dict[str, int] = {}
    for phrase in TOPIC_PHRASES:
        topic_nodes[phrase] = new_node(phrase, ROLE_TOPIC)
    topic_ids = np.array(list(topic_nodes.values()), dtype=np.int64)
    for phrase, node in topic_nodes.items():
        builder.add_edge(node, class_nodes["research topic"], "instance of")
    # Shallow topic hierarchy: every topic points at a coarse parent.
    coarse = [topic_nodes[p] for p in ("machine learning", "data mining",
                                       "information retrieval", "semantic web")]
    for phrase, node in topic_nodes.items():
        if node in coarse:
            continue
        parent = coarse[int(rng.integers(len(coarse)))]
        builder.add_edge(node, parent, "subclass of")

    # -- Countries, organizations, venues --------------------------------
    country_nodes = [new_node(name, ROLE_COUNTRY) for name in _COUNTRIES]
    for node in country_nodes:
        builder.add_edge(node, class_nodes["country"], "instance of")
    org_nodes = []
    for idx in range(config.n_orgs):
        stem = _ORG_STEMS[idx % len(_ORG_STEMS)]
        suffix = "" if idx < len(_ORG_STEMS) else f" campus {idx}"
        node = new_node(stem + suffix, ROLE_ORG)
        builder.add_edge(node, class_nodes["university"], "instance of")
        builder.add_edge(node, country_nodes[idx % len(country_nodes)], "country")
        org_nodes.append(node)
    venue_nodes = []
    for idx in range(config.n_venues):
        stem = _VENUE_STEMS[idx % len(_VENUE_STEMS)]
        year = 2000 + idx % 19
        node = new_node(f"International {stem} {year}", ROLE_VENUE)
        builder.add_edge(node, class_nodes["academic conference"], "instance of")
        venue_nodes.append(node)

    # -- People -----------------------------------------------------------
    person_nodes = array("q")
    for idx in range(config.n_people):
        first = _FIRST_NAMES[int(rng.integers(len(_FIRST_NAMES)))]
        last = _LAST_NAMES[int(rng.integers(len(_LAST_NAMES)))]
        node = new_node(f"{first} {last}", ROLE_PERSON)
        builder.add_edge(node, class_nodes["human"], "instance of")
        builder.add_edge(node, org_nodes[int(rng.integers(len(org_nodes)))],
                         "employer")
        field_topic = int(topic_ids[int(rng.integers(len(topic_ids)))])
        builder.add_edge(node, field_topic, "field of work")
        person_nodes.append(node)
    # The worked example of Fig. 5: Jeffrey Ullman at Stanford University.
    ullman = new_node("Jeffrey Ullman", ROLE_PERSON)
    builder.add_edge(ullman, class_nodes["human"], "instance of")
    builder.add_edge(ullman, org_nodes[0], "employer")  # Stanford University
    builder.add_edge(ullman, topic_nodes["query optimization"], "field of work")
    person_nodes.append(ullman)

    # -- Papers ------------------------------------------------------------
    def add_paper(title: str, subject_phrases: Sequence[str]) -> int:
        node = new_node(title, ROLE_PAPER)
        builder.add_edge(node, class_nodes["scholarly article"], "instance of")
        for phrase in subject_phrases:
            builder.add_edge(node, topic_nodes[phrase], "main subject")
        for _ in range(_draw_count(rng, config.authors_per_paper, minimum=1)):
            author = person_nodes[int(rng.integers(len(person_nodes)))]
            builder.add_edge(node, author, "author")
        venue = venue_nodes[int(rng.integers(len(venue_nodes)))]
        builder.add_edge(node, venue, "published in")
        return node

    def title_for(phrases: Sequence[str]) -> str:
        fillers = rng.choice(_TITLE_FILLERS, size=2, replace=False)
        return f"{fillers[0]} {' '.join(phrases)} {fillers[1]}"

    def scrambled_title_for(phrases: Sequence[str]) -> str:
        # Real titles remix topic words ("statistical translation model")
        # rather than quoting whole phrases; per topic, keep the full
        # phrase only sometimes, otherwise mention a single word of it.
        # This seeds the split-word ambiguity the effectiveness study
        # measures (a node with "supervised" but not "learning").
        parts: List[str] = []
        for phrase in phrases:
            words = phrase.split()
            if len(words) == 1 or rng.random() < config.phrase_coherence:
                parts.append(phrase)
            else:
                parts.append(words[int(rng.integers(len(words)))])
        fillers = rng.choice(_TITLE_FILLERS, size=2, replace=False)
        return f"{fillers[0]} {' '.join(parts)} {fillers[1]}"

    paper_nodes = array("q")
    phrase_list = list(TOPIC_PHRASES)
    for _ in range(config.n_papers):
        k = min(len(phrase_list), _draw_count(rng, config.topics_per_paper, 1))
        chosen = [phrase_list[i] for i in rng.choice(len(phrase_list), size=k,
                                                     replace=False)]
        paper_nodes.append(add_paper(scrambled_title_for(chosen), chosen))

    # -- Planted effectiveness structure -----------------------------------
    # Gold: a *community* per query — one phrase-coherent paper per phrase
    # (each title contains one full query phrase), cross-linked by
    # citations plus a two-phrase survey. A relevant answer must stitch
    # several such nodes together while keeping each phrase inside one
    # node, which is what the level-cover strategy rewards.
    #
    # Decoys: papers whose titles carry a *single word* of a multi-word
    # phrase (e.g. "gradient" without "descent"), wired close to the
    # scholarly-article summary hub. Sum-of-path-length Steiner scoring
    # happily covers keywords from these split-word carriers through the
    # hub — the paper's Q4/Q6/Q7 failure mode for BANKS-II.
    gold_papers: Dict[str, List[int]] = {}
    decoy_papers: List[int] = []
    for query_id, phrases in canned_phrase_queries.items():
        usable = [p for p in phrases if p in topic_nodes]
        if not usable:
            continue
        gold: List[int] = []
        for round_idx in range(config.gold_papers_per_query):
            members = []
            for phrase in usable:
                node = add_paper(title_for([phrase]), [phrase])
                members.append(node)
                paper_nodes.append(node)
            for left, right in zip(members, members[1:]):
                builder.add_edge(left, right, "cites")
            survey_phrases = usable[: min(2, len(usable))]
            survey = add_paper(title_for(survey_phrases), survey_phrases)
            paper_nodes.append(survey)
            for member in members:
                builder.add_edge(survey, member, "cites")
            gold.extend(members)
            gold.append(survey)
        gold_papers[query_id] = gold
        for phrase in usable:
            words = phrase.split()
            if len(words) < 2:
                continue
            for word in words:
                for _ in range(config.decoy_papers_per_phrase):
                    fillers = rng.choice(_TITLE_FILLERS, size=3, replace=False)
                    title = f"{fillers[0]} {word} {fillers[1]} {fillers[2]}"
                    decoy_topic = phrase_list[int(rng.integers(len(phrase_list)))]
                    node = add_paper(title, [decoy_topic])
                    builder.add_edge(node, class_nodes["scholarly article"],
                                     "described by source")
                    decoy_papers.append(node)
                    paper_nodes.append(node)

    # Citation edges among papers for connectivity richness.
    n_citations = int(config.citations_per_paper * len(paper_nodes))
    for _ in range(n_citations):
        a = paper_nodes[int(rng.integers(len(paper_nodes)))]
        b = paper_nodes[int(rng.integers(len(paper_nodes)))]
        if a != b:
            builder.add_edge(a, b, "cites")

    # -- Miscellaneous entities --------------------------------------------
    misc_classes = ("software", "database management system")
    for idx in range(config.n_misc):
        phrase = phrase_list[int(rng.integers(len(phrase_list)))]
        words = phrase.split()
        word = words[int(rng.integers(len(words)))]
        node = new_node(f"{word} tool {idx}", ROLE_MISC)
        builder.add_edge(node, class_nodes[misc_classes[idx % 2]], "instance of")
        target_topic = int(topic_ids[int(rng.integers(len(topic_ids)))])
        builder.add_edge(node, target_topic, "main subject")

    return KBMetadata(
        name=config.name,
        seed=config.seed,
        roles=np.frombuffer(roles, dtype=np.int8) if len(roles) else np.zeros(0, np.int8),
        topic_nodes=topic_nodes,
        class_nodes=class_nodes,
        gold_papers=gold_papers,
        decoy_papers=decoy_papers,
    )


# ---------------------------------------------------------------------------
# The paper's worked example (Fig. 1 / Fig. 4)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig1Example:
    """The Fig. 1 query-language subgraph with the Fig. 4 activation trace.

    Attributes:
        graph: ten-node bi-directed graph around the ``Query language`` hub.
        activation: per-node minimum activation levels reproducing the
            Example 4 trace (v2 becomes the Central Node at depth 4).
        keywords: the query terms ``["xml", "rdf", "sql"]``.
        keyword_nodes: source node sets per keyword, in query order.
        central_node: the expected Central Node (v2).
        expected_depth: the expected Central Graph depth (4).
    """

    graph: KnowledgeGraph
    activation: np.ndarray
    keywords: Tuple[str, ...]
    keyword_nodes: Tuple[Tuple[int, ...], ...]
    central_node: int
    expected_depth: int


def fig1_example() -> Fig1Example:
    """Build the running example used throughout the paper.

    Node ids follow Fig. 1: v2 is the ``Query language`` hub; v9 carries
    ``XML`` with four hitting paths to v2 (through v3/v6/v7/v8); v4 and v5
    both carry ``RDF``; v1 carries ``SQL`` and closes a cycle through v0.
    """
    builder = GraphBuilder()
    texts = [
        "Facebook Query Language",              # v0
        "SQL structured query standard",        # v1  (keyword: sql)
        "Query language",                       # v2  (central node)
        "XPath 2.0 specification",              # v3
        "SPARQL query for RDF graphs",          # v4  (keyword: rdf)
        "RDF query processor",                  # v5  (keyword: rdf)
        "XPath 3.0 specification",              # v6
        "XQuery engine",                        # v7
        "XSLT transform",                       # v8
        "XPath XML path language",              # v9  (keyword: xml)
    ]
    for text in texts:
        builder.add_node(text)
    edges = [
        (0, 1, "dialect of"),
        (0, 2, "instance of"),
        (1, 2, "instance of"),
        (3, 2, "instance of"),
        (6, 2, "instance of"),
        (7, 2, "instance of"),
        (8, 2, "instance of"),
        (4, 2, "instance of"),
        (5, 2, "instance of"),
        (9, 3, "version of"),
        (9, 6, "version of"),
        (9, 7, "related to"),
        (9, 8, "related to"),
    ]
    for source, target, predicate in edges:
        builder.add_edge(source, target, predicate)
    graph = builder.build()
    #           v0 v1 v2 v3 v4 v5 v6 v7 v8 v9
    activation = np.array([0, 3, 4, 2, 0, 1, 1, 1, 1, 1], dtype=np.int32)
    return Fig1Example(
        graph=graph,
        activation=activation,
        keywords=("xml", "rdf", "sql"),
        keyword_nodes=((9,), (4, 5), (1,)),
        central_node=2,
        expected_depth=4,
    )


# ---------------------------------------------------------------------------
# Small deterministic graphs for tests
# ---------------------------------------------------------------------------
def chain_graph(n: int, predicate: str = "next") -> KnowledgeGraph:
    """A path v0 - v1 - ... - v(n-1)."""
    builder = GraphBuilder()
    for idx in range(n):
        builder.add_node(f"chain node {idx}")
    for idx in range(n - 1):
        builder.add_edge(idx, idx + 1, predicate)
    return builder.build()


def star_graph(n_leaves: int, predicate: str = "instance of") -> KnowledgeGraph:
    """A hub (node 0) with ``n_leaves`` same-labeled in-edges — a summary node."""
    builder = GraphBuilder()
    builder.add_node("hub")
    for idx in range(n_leaves):
        leaf = builder.add_node(f"leaf {idx}")
        builder.add_edge(leaf, 0, predicate)
    return builder.build()


def grid_graph(rows: int, cols: int) -> KnowledgeGraph:
    """A rows × cols lattice; node id = row * cols + col."""
    builder = GraphBuilder()
    for row in range(rows):
        for col in range(cols):
            builder.add_node(f"cell {row} {col}")
    for row in range(rows):
        for col in range(cols):
            node = row * cols + col
            if col + 1 < cols:
                builder.add_edge(node, node + 1, "east")
            if row + 1 < rows:
                builder.add_edge(node, node + cols, "south")
    return builder.build()


def random_graph(
    n_nodes: int,
    n_edges: int,
    seed: int = 0,
    n_predicates: int = 4,
    vocabulary: Sequence[str] = ("alpha", "beta", "gamma", "delta", "epsilon"),
    words_per_node: int = 2,
) -> KnowledgeGraph:
    """Erdős–Rényi-style random graph with random node text.

    Used by property-based tests; duplicate and self-loop candidate edges
    are skipped, so the result may hold slightly fewer than ``n_edges``.
    """
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for idx in range(n_nodes):
        words = rng.choice(vocabulary, size=min(words_per_node, len(vocabulary)),
                           replace=False)
        builder.add_node(" ".join(words))
    predicates = [f"predicate {i}" for i in range(n_predicates)]
    seen = set()
    for _ in range(n_edges):
        source = int(rng.integers(n_nodes))
        target = int(rng.integers(n_nodes))
        if source == target or (source, target) in seen:
            continue
        seen.add((source, target))
        builder.add_edge(source, target,
                         predicates[int(rng.integers(n_predicates))])
    return builder.build()


def preferential_attachment_graph(
    n_nodes: int, edges_per_node: int = 2, seed: int = 0
) -> KnowledgeGraph:
    """Barabási–Albert-style graph: a power-law degree tail like real KBs."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for idx in range(n_nodes):
        builder.add_node(f"entity {idx}")
    targets: List[int] = [0]
    builder.add_edge(1, 0, "related to")
    targets.append(1)
    for node in range(2, n_nodes):
        chosen = set()
        for _ in range(min(edges_per_node, node)):
            chosen.add(targets[int(rng.integers(len(targets)))])
        for target in chosen:
            if target != node:
                builder.add_edge(node, target, "related to")
                targets.append(target)
        targets.append(node)
    return builder.build()

"""Benchmark datasets: the wiki2017-sim / wiki2018-sim pair (Table II).

Datasets are built once per process and cached — every benchmark in
``benchmarks/`` shares the same two graphs, their inverted indexes,
Eq. 2 weights and sampled average distances, exactly like the paper keeps
two loaded dumps around for all experiments.

Set the ``REPRO_DATASET_CACHE`` environment variable to a directory to
additionally persist built datasets on disk, so repeated benchmark
sessions skip regeneration: each is one ``<name>.csrstore`` (the graph
with its inverted index and Eq. 2 weights, memory-mapped on reload)
plus a ``<name>.dataset.json`` holding the generator's ground truth and
the dataset's own sampled distance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.weights import node_weights
from ..graph.csr import KnowledgeGraph
from ..graph.generators import (
    KBMetadata,
    WikiKBConfig,
    wiki2017_config,
    wiki2018_config,
    wiki_like_kb,
)
from ..graph.io import load_graph, save_graph
from ..graph.sampling import DistanceEstimate, estimate_average_distance
from ..obs.config import dataset_cache_dir
from ..text.inverted_index import InvertedIndex


@dataclass
class BenchDataset:
    """One fully prepared benchmark dataset.

    Bundles the expensive offline artifacts so engines can be constructed
    per benchmark without recomputation.
    """

    name: str
    graph: KnowledgeGraph
    metadata: KBMetadata
    index: InvertedIndex
    weights: np.ndarray
    distance: DistanceEstimate

    def table2_row(self) -> Dict[str, object]:
        """One row of Table II: nodes, edges, sampled A, deviation."""
        return {
            "dataset": self.name,
            "n_nodes": self.graph.n_nodes,
            "n_edges": self.graph.n_edges,
            "A": round(self.distance.average, 2),
            "deviation": round(self.distance.deviation, 2),
        }


_CACHE: Dict[str, BenchDataset] = {}


def build_dataset(
    config: WikiKBConfig, distance_pairs: int = 2000
) -> BenchDataset:
    """Generate + prepare one dataset (uncached; prefer the helpers below)."""
    graph, metadata = wiki_like_kb(config)
    index = InvertedIndex.from_graph(graph)
    weights = node_weights(graph)
    distance = estimate_average_distance(
        graph, n_pairs=distance_pairs, seed=config.seed
    )
    return BenchDataset(
        name=config.name,
        graph=graph,
        metadata=metadata,
        index=index,
        weights=weights,
        distance=distance,
    )


def dataset_from_graph(
    graph: KnowledgeGraph,
    name: str,
    index: Optional[InvertedIndex] = None,
    average_distance: Optional[float] = None,
    distance_pairs: int = 2000,
    seed: int = 0,
) -> BenchDataset:
    """Wrap an already-loaded graph (e.g. an opened CSR store) as a dataset.

    The out-of-core benchmarks open multi-million-node stores where BFS
    distance sampling is the slowest step by far; passing a fixed
    ``average_distance`` skips it (the engine only uses A as the Eq. 1
    depth bound). The metadata block is empty — store-opened graphs carry
    no generator ground truth.
    """
    if index is None:
        index = InvertedIndex.from_graph(graph)
    if average_distance is not None:
        distance = DistanceEstimate(
            average=average_distance, deviation=0.0,
            n_sampled=0, n_requested=0,
        )
    else:
        distance = estimate_average_distance(
            graph, n_pairs=distance_pairs, seed=seed
        )
    metadata = KBMetadata(
        name=name, seed=seed, roles=np.zeros(0, dtype=np.int8),
        topic_nodes={}, class_nodes={}, gold_papers={}, decoy_papers=[],
    )
    return BenchDataset(
        name=name,
        graph=graph,
        metadata=metadata,
        index=index,
        weights=node_weights(graph),
        distance=distance,
    )


# ---------------------------------------------------------------------------
# Disk persistence (opt-in via REPRO_DATASET_CACHE)
# ---------------------------------------------------------------------------
def save_dataset(dataset: BenchDataset, path_prefix: str) -> None:
    """Persist a prepared dataset under ``path_prefix``: the store
    ``path_prefix + '.csrstore'`` and ``path_prefix + '.dataset.json'``.

    The store derives its own index and weights (the ones
    :func:`build_dataset` made, bit for bit); the distance is kept in
    the JSON, since it was sampled at the dataset's seed, not the
    store's.
    """
    save_graph(dataset.graph, path_prefix)
    metadata = dataset.metadata
    payload = {
        "name": dataset.name,
        "seed": metadata.seed,
        "roles": metadata.roles.tolist(),
        "topic_nodes": metadata.topic_nodes,
        "class_nodes": metadata.class_nodes,
        "gold_papers": metadata.gold_papers,
        "decoy_papers": metadata.decoy_papers,
        "distance": {
            "average": dataset.distance.average,
            "deviation": dataset.distance.deviation,
            "n_sampled": dataset.distance.n_sampled,
            "n_requested": dataset.distance.n_requested,
        },
    }
    with open(path_prefix + ".dataset.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_dataset(path_prefix: str) -> BenchDataset:
    """Reload a dataset written by :func:`save_dataset`.

    The graph opens memory-mapped, and its index and Eq. 2 weights are
    read from the store's sections: a reload tokenizes nothing.

    Raises:
        FileNotFoundError: if either file is missing.
    """
    graph = load_graph(path_prefix)
    with open(path_prefix + ".dataset.json", "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    metadata = KBMetadata(
        name=payload["name"],
        seed=payload["seed"],
        roles=np.asarray(payload["roles"], dtype=np.int8),
        topic_nodes={k: int(v) for k, v in payload["topic_nodes"].items()},
        class_nodes={k: int(v) for k, v in payload["class_nodes"].items()},
        gold_papers={
            k: [int(n) for n in v] for k, v in payload["gold_papers"].items()
        },
        decoy_papers=[int(n) for n in payload["decoy_papers"]],
    )
    distance = DistanceEstimate(**payload["distance"])
    return BenchDataset(
        name=payload["name"],
        graph=graph,
        metadata=metadata,
        index=InvertedIndex.from_graph(graph),
        weights=node_weights(graph),
        distance=distance,
    )


def _disk_cache_prefix(name: str) -> Optional[str]:
    cache_dir = dataset_cache_dir()
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    return os.path.join(cache_dir, name)


def _cached(config: WikiKBConfig) -> BenchDataset:
    dataset = _CACHE.get(config.name)
    if dataset is not None:
        return dataset
    prefix = _disk_cache_prefix(config.name)
    if prefix is not None:
        try:
            dataset = load_dataset(prefix)
        except FileNotFoundError:
            dataset = None
    if dataset is None:
        dataset = build_dataset(config)
        if prefix is not None:
            save_dataset(dataset, prefix)
    _CACHE[config.name] = dataset
    return dataset


def wiki2017_dataset() -> BenchDataset:
    """The smaller benchmark dataset (paper: wiki2017)."""
    return _cached(wiki2017_config())


def wiki2018_dataset() -> BenchDataset:
    """The larger benchmark dataset (paper: wiki2018)."""
    return _cached(wiki2018_config())


def both_datasets() -> "list[BenchDataset]":
    """Both benchmark datasets, smaller first."""
    return [wiki2017_dataset(), wiki2018_dataset()]


def clear_cache() -> None:
    """Drop cached datasets (tests that need isolation call this)."""
    _CACHE.clear()

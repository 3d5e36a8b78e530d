"""Benchmark dataset disk caching."""

import numpy as np
import pytest

from repro.bench.datasets import (
    _cached,
    build_dataset,
    clear_cache,
    load_dataset,
    save_dataset,
)
from repro.graph.generators import WikiKBConfig
from repro.obs.config import ENV_DATASET_CACHE


@pytest.fixture()
def small_config():
    return WikiKBConfig(
        name="persist-test", seed=9, n_papers=60, n_people=25, n_misc=20,
        n_venues=3, n_orgs=3, gold_papers_per_query=1,
        decoy_papers_per_phrase=1,
    )


def test_save_load_roundtrip(tmp_path, small_config):
    dataset = build_dataset(small_config, distance_pairs=200)
    prefix = str(tmp_path / "ds")
    save_dataset(dataset, prefix)
    reloaded = load_dataset(prefix)
    assert reloaded.name == dataset.name
    assert reloaded.graph.n_nodes == dataset.graph.n_nodes
    assert reloaded.graph.n_edges == dataset.graph.n_edges
    assert np.array_equal(reloaded.metadata.roles, dataset.metadata.roles)
    assert reloaded.metadata.gold_papers == dataset.metadata.gold_papers
    assert reloaded.metadata.topic_nodes == dataset.metadata.topic_nodes
    assert reloaded.distance == dataset.distance
    assert np.allclose(reloaded.weights, dataset.weights)
    assert reloaded.index.n_terms == dataset.index.n_terms


def test_load_missing_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(str(tmp_path / "nope"))


def test_disk_cache_used_when_env_set(tmp_path, small_config, monkeypatch):
    monkeypatch.setenv(ENV_DATASET_CACHE, str(tmp_path))
    clear_cache()
    first = _cached(small_config)
    # The dataset files must now exist on disk.
    assert (tmp_path / "persist-test.npz").exists()
    assert (tmp_path / "persist-test.dataset.json").exists()
    # A fresh in-process cache loads from disk instead of rebuilding.
    clear_cache()
    second = _cached(small_config)
    assert second is not first
    assert second.graph.n_nodes == first.graph.n_nodes
    assert second.metadata.gold_papers == first.metadata.gold_papers
    clear_cache()


def test_no_disk_cache_without_env(tmp_path, small_config, monkeypatch):
    monkeypatch.delenv(ENV_DATASET_CACHE, raising=False)
    clear_cache()
    _cached(small_config)
    assert not list(tmp_path.iterdir())
    clear_cache()


def test_loaded_dataset_searches_identically(tmp_path, small_config):
    from repro.bench.harness import METHOD_GPU_SIM, make_engine

    dataset = build_dataset(small_config, distance_pairs=200)
    prefix = str(tmp_path / "ds")
    save_dataset(dataset, prefix)
    reloaded = load_dataset(prefix)
    a = make_engine(dataset, METHOD_GPU_SIM).search("machine learning", k=3)
    b = make_engine(reloaded, METHOD_GPU_SIM).search("machine learning", k=3)
    assert [x.graph.central_node for x in a.answers] == [
        x.graph.central_node for x in b.answers
    ]

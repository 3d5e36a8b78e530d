"""Benchmark fixtures: graphs, class pools and reference answers.

Everything here is built once per checkout into ``perf/.cache`` (ignored
by git) and is *not* part of ``setup_s``. Graphs come from fixed
generator configs and are pinned by ``perf/fixtures.lock.json`` (node and
edge counts plus a SHA-256 over the CSR arrays and node text): a
generator change must fail loudly instead of silently changing what the
benchmark measures. Re-pin deliberately with
``python3 perf/fixtures.py --relock``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import paths

paths.add_src()

from repro.core.bottom_up import BottomUpSearch  # noqa: E402
from repro.core.engine import EngineConfig, KeywordSearchEngine  # noqa: E402
from repro.eval.queries import KeywordWorkload  # noqa: E402
from repro.graph.generators import WikiKBConfig, wiki_like_kb  # noqa: E402
from repro.graph.io import load_graph, save_graph  # noqa: E402
from repro.graph.store import save_store  # noqa: E402
from repro.parallel.sequential import SequentialBackend  # noqa: E402
from repro.parallel.vectorized import VectorizedBackend  # noqa: E402
from repro.text.index_io import load_index, save_index  # noqa: E402
from repro.text.inverted_index import InvertedIndex  # noqa: E402
from repro.text.query_parser import (  # noqa: E402
    parse_query,
    resolve_keyword_groups,
)

import workloads as wl  # noqa: E402

LOCK_PATH = os.path.join(paths.PERF, "fixtures.lock.json")
MAX_CANDIDATES = 20000


def log(message: str) -> None:
    print(f"[fixtures] {message}", file=sys.stderr, flush=True)


def cache_dir(smoke: bool) -> str:
    return os.path.join(paths.PERF, ".cache", "smoke" if smoke else "full")


def fixture_path(fixture: wl.Fixture, smoke: bool) -> str:
    """What ``--graph`` / ``load_graph`` takes for this fixture."""
    suffix = ".csrstore" if fixture.layout == "store" else ""
    return os.path.join(cache_dir(smoke), fixture.name + suffix)


def pool_path(workload: wl.Workload, smoke: bool) -> str:
    return os.path.join(cache_dir(smoke), f"pool-{workload.name}.json")


def profile(smoke: bool) -> Tuple[Dict[str, wl.Fixture], Dict[str, wl.Workload]]:
    return wl.smoke_profile() if smoke else (wl.FIXTURES, wl.WORKLOADS)


def graph_digest(graph) -> Dict[str, object]:
    digest = hashlib.sha256()
    for csr in (graph.out, graph.inc, graph.adj):
        for array in (csr.indptr, csr.indices, csr.labels):
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
    digest.update("\n".join(graph.node_text).encode("utf-8"))
    return {
        "n_nodes": int(graph.n_nodes),
        "n_edges": int(graph.n_edges),
        "sha256": digest.hexdigest(),
    }


def load_lock() -> Dict[str, dict]:
    try:
        with open(LOCK_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def build_graph(fixture: wl.Fixture, smoke: bool, lock: Optional[Dict[str, dict]]):
    """Generate one fixture, check it against the lock, write it to disk.

    ``lock=None`` skips the check (``--relock``).
    """
    started = time.perf_counter()
    graph, _ = wiki_like_kb(WikiKBConfig(**fixture.config))
    digest = graph_digest(graph)
    if lock is not None and lock.get(fixture.name) != digest:
        raise SystemExit(
            f"perf fixture {fixture.name!r} does not match {LOCK_PATH}:\n"
            f"  locked: {lock.get(fixture.name)}\n  built:  {digest}\n"
            "The graph generator changed, so numbers would not be comparable "
            "with earlier runs. If that is intended, re-pin with "
            "`python3 perf/fixtures.py --relock` in a PR of its own."
        )
    path = fixture_path(fixture, smoke)
    if fixture.layout == "store":
        save_store(graph, path, name=fixture.name, seed=fixture.config["seed"])
    else:
        index = InvertedIndex.from_graph(graph)
        save_graph(graph, path)
        save_index(index, path + ".index")
    log(
        f"{fixture.name}: {digest['n_nodes']} nodes / {digest['n_edges']} "
        f"edges built in {time.perf_counter() - started:.1f}s"
    )
    return digest


def _classify(
    searcher: BottomUpSearch, engine: KeywordSearchEngine, query: str, k: int
) -> Tuple[int, int]:
    pairs = resolve_keyword_groups(parse_query(query), engine.index)
    node_sets = [nodes for _, nodes in pairs if len(nodes) > 0]
    found = searcher.run(node_sets, engine.activation_for(wl.ALPHA), k)
    return int(found.state.n_central_nodes), int(found.depth)


def answer_key(result) -> Dict[str, object]:
    """What the reference comparison looks at in a ``SearchResult``."""
    return {
        "central_nodes": [a.graph.central_node for a in result.answers],
        "scores": [a.score for a in result.answers],
        "depth": result.depth,
        "nc": result.n_central_nodes,
    }


def build_pools(
    fixture: wl.Fixture, workloads: List[wl.Workload], smoke: bool
) -> None:
    """Classify candidates into each workload's class; add reference answers."""
    started = time.perf_counter()
    path = fixture_path(fixture, smoke)
    graph = load_graph(path)
    if fixture.layout == "store":
        index = InvertedIndex.from_graph(graph)
    else:
        index = load_index(path + ".index")
    engine = KeywordSearchEngine(graph, backend=VectorizedBackend(), index=index)
    reference = KeywordSearchEngine(
        graph,
        backend=SequentialBackend(),
        config=EngineConfig(top_down_native=False),
        index=index,
        weights=engine.weights,
        average_distance=engine.average_distance,
    )
    searcher = BottomUpSearch(graph, backend=VectorizedBackend())
    classified: Dict[Tuple[str, int], Tuple[int, int]] = {}
    for workload in workloads:
        stream = KeywordWorkload(index, seed=wl.POOL_SEED)
        pool: List[dict] = []
        seen = set()
        candidates = 0
        while len(pool) < workload.pool:
            if candidates == MAX_CANDIDATES:
                raise SystemExit(
                    f"{workload.name}: only {len(pool)} of {workload.pool} "
                    f"queries in class after {candidates} candidates"
                )
            knum = workload.knums[candidates % len(workload.knums)]
            candidates += 1
            query = stream.sample_query(knum)
            if query in seen:
                continue
            seen.add(query)
            key = (query, workload.k)
            if key not in classified:
                classified[key] = _classify(searcher, engine, query, workload.k)
            nc, depth = classified[key]
            if (
                workload.nc_range[0] < nc <= workload.nc_range[1]
                and workload.depth_range[0] <= depth <= workload.depth_range[1]
            ):
                pool.append(
                    {"query": query, "knum": knum, "nc": nc, "depth": depth}
                )
        for entry in pool[: wl.N_REFERENCE]:
            entry["reference"] = answer_key(
                reference.search(entry["query"], k=workload.k, alpha=wl.ALPHA)
            )
        with open(pool_path(workload, smoke), "w", encoding="utf-8") as handle:
            json.dump(pool, handle)
        log(
            f"{workload.name}: {len(pool)} queries in class from "
            f"{candidates} candidates"
        )
    log(f"{fixture.name}: pools built in {time.perf_counter() - started:.1f}s")


def ensure(smoke: bool = False) -> None:
    """Build whatever this checkout's cache is missing (all workloads)."""
    fixtures, workloads = profile(smoke)
    directory = cache_dir(smoke)
    stamp = os.path.join(directory, "complete.json")
    # What the cache depends on: a change here rebuilds it.
    spec = json.dumps(
        [
            [repr(f) for f in fixtures.values()],
            [repr(replace(w, why="")) for w in workloads.values()],
            wl.POOL_SEED,
            wl.N_REFERENCE,
        ]
    )
    try:
        with open(stamp, "r", encoding="utf-8") as handle:
            if json.load(handle) == spec:
                return
    except FileNotFoundError:
        pass
    started = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    # The first engine built below compiles the native kernel; keep the C
    # compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = directory
    lock = load_lock()
    for fixture in fixtures.values():
        build_graph(fixture, smoke, lock)
        build_pools(
            fixture,
            [w for w in workloads.values() if w.fixture == fixture.name],
            smoke,
        )
    with open(stamp, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    log(f"fixture time {time.perf_counter() - started:.1f}s (not setup_s)")


def load_pool(workload: wl.Workload, smoke: bool) -> List[dict]:
    with open(pool_path(workload, smoke), "r", encoding="utf-8") as handle:
        return json.load(handle)


def relock() -> None:
    lock = {}
    for smoke in (False, True):
        os.makedirs(cache_dir(smoke), exist_ok=True)
        for fixture in profile(smoke)[0].values():
            lock[fixture.name] = build_graph(fixture, smoke, None)
    with open(LOCK_PATH, "w", encoding="utf-8") as handle:
        json.dump(lock, handle, indent=2, sort_keys=True)
        handle.write("\n")
    log(f"wrote {LOCK_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--relock"]:
        relock()
    else:
        ensure(smoke="--smoke" in sys.argv[1:])

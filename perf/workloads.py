"""Workload and fixture definitions of the perf ledger.

Every workload runs the production path only (``VectorizedBackend``,
engine defaults, α = 0.1). Queries are stratified by two definition-level
properties of (graph, query, k, α) that ``BottomUpSearch.run`` yields in
~11 ms: ``nc``, the size of the top-(k,d) Central-Node set, and ``d``,
its depth. Per-query time tracks the number of Central Graphs stage two
extracts (≈ 1–2 ms each) and, at depth 6, their size; an unstratified
mix runs from 5 ms to 12 s per query and its percentiles do not repeat.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

ALPHA = 0.1

#: Seed of the candidate stream the class pools are cut from. Pools are
#: classified once per checkout (classification costs ~11 ms per
#: candidate, too much to repeat on every run); ``--seed`` then draws the
#: timed queries, their order and the zipf ranks from the pool.
POOL_SEED = 2018

#: Ops per workload compared against the reference route on every run.
N_REFERENCE = 16

#: Warm-up ops before the timed window, disjoint from the timed queries.
N_WARMUP = 8

#: Distinct queries of one traced pass; per-layer counts are taken over
#: exactly these, so they repeat bit-for-bit for a given seed.
N_TRACED = 48


@dataclass(frozen=True)
class Fixture:
    """One benchmark graph, built from a fixed generator config.

    ``layout`` is how the graph sits on disk: ``"npz"`` is what
    ``repro generate`` writes (graph NPZ + sidecar + ``.index``),
    ``"store"`` is what ``repro build-graph`` leaves (one mmap
    ``.csrstore``, no index beside it).
    """

    name: str
    layout: str
    config: Dict[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: str
    driver: str  # "engine": in-process search; "http": repro serve + clients
    knums: Tuple[int, ...]
    k: int
    nc_range: Tuple[int, int]  # lo < nc <= hi
    depth_range: Tuple[int, int]  # lo <= d <= hi
    pool: int  # classified candidates kept per checkout
    distinct: int  # queries drawn from the pool per seed


def _config(name: str, scale: int, venues: int, orgs: int) -> Dict[str, int]:
    return {
        "name": name,
        "seed": 2018,
        "n_papers": 5000 * scale,
        "n_people": 2400 * scale,
        "n_misc": 2400 * scale,
        "n_venues": venues,
        "n_orgs": orgs,
    }


FIXTURES: Dict[str, Fixture] = {
    f.name: f
    for f in (
        # == wiki2018_config(): 10,491 n / 51,217 e
        Fixture("wiki2018-sim", "npz", _config("wiki2018-sim", 1, 60, 60)),
        # == pool_sweep_config(): 49,871 n / 240,234 e
        Fixture(
            "wiki2018-sim-x5", "npz", _config("wiki2018-sim-x5", 5, 150, 150)
        ),
        # 197,371 n / 951,340 e, 59 MB store
        Fixture(
            "wiki2018-sim-x20",
            "store",
            _config("wiki2018-sim-x20", 20, 400, 400),
        ),
    )
}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="engine-deep",
            why="few Central Nodes found only at depth 4-5: state init + "
            "bottom-up is ~55% of the op, so stage-one and per-query "
            "fixed-cost changes show here",
            fixture="wiki2018-sim-x5",
            driver="engine",
            knums=(6,),
            k=20,
            nc_range=(0, 32),
            depth_range=(4, 5),
            pool=80,
            distinct=64,
        ),
        Workload(
            name="engine-fanout",
            why="hundreds of Central Graphs extracted to return 20: stage "
            "two is ~90% of the op and memory-heavy; stage-one changes "
            "must not move it",
            fixture="wiki2018-sim-x5",
            driver="engine",
            knums=(4,),
            k=20,
            nc_range=(200, 450),
            depth_range=(0, 5),
            pool=56,
            distinct=40,
        ),
        Workload(
            name="service-short",
            why="real HTTP round trips of ~2 ms queries, zipf-repeated by one "
            "closed-loop client: the serving shell is ~45% of the op, so "
            "repro.service / repro.obs changes show only here",
            fixture="wiki2018-sim",
            driver="http",
            knums=(2,),
            k=5,
            nc_range=(0, 64),
            depth_range=(3, 4),
            pool=80,
            distinct=64,
        ),
        Workload(
            name="store-restart",
            why="cold start over a 59 MB mmap store with no index beside it, "
            "then queries on a 4x larger working set: set-up (index build "
            "+ distance sampling) is the headline",
            fixture="wiki2018-sim-x20",
            driver="engine",
            knums=(4,),
            k=20,
            nc_range=(0, 64),
            depth_range=(3, 4),
            pool=72,
            distinct=56,
        ),
    )
}


def smoke_profile() -> Tuple[Dict[str, Fixture], Dict[str, Workload]]:
    """Shrunken fixtures and classes exercising the same code in < 60 s."""
    small = _config("smoke", 1, 40, 48)
    small.update(n_papers=1200, n_people=600, n_misc=600)
    fixtures = {
        "smoke-npz": Fixture("smoke-npz", "npz", small),
        "smoke-store": Fixture("smoke-store", "store", small),
    }
    workloads = {}
    for workload in WORKLOADS.values():
        fixture = "smoke-store" if workload.name == "store-restart" else "smoke-npz"
        workloads[workload.name] = replace(
            workload,
            fixture=fixture,
            nc_range=(0, 10**9),
            depth_range=(0, 99),
            pool=N_REFERENCE + 16,
            distinct=N_REFERENCE + 4,
        )
    return fixtures, workloads


def select_queries(
    workload: Workload, pool: List[dict], seed: int
) -> Tuple[List[dict], List[dict]]:
    """The (timed, warm-up) queries of one run, drawn from the class pool.

    The first ``N_REFERENCE`` pool entries carry reference-route answers
    and are in every draw, so every run compares that many ops against
    the reference. No query text repeats in the timed list, and the
    warm-up queries are disjoint from it.

    The engine drivers cycle through the timed list, so it is shuffled.
    The http driver uses list position as zipf rank, so the list keeps
    pool order: the popular queries are the same from seed to seed (the
    reference entries) and the seed draws the unpopular ones and the
    arrival sequence — otherwise ``latency_ms_p50`` is the time of
    whichever two or three queries the seed made hot.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    rest = pool[N_REFERENCE:]
    rng.shuffle(rest)
    n_rest = workload.distinct - N_REFERENCE
    timed = pool[:N_REFERENCE] + rest[:n_rest]
    if workload.driver == "engine":
        rng.shuffle(timed)
    warmup = rest[n_rest : n_rest + N_WARMUP]
    return timed, warmup


def zipf_sequence(n_distinct: int, length: int, rng: random.Random) -> List[int]:
    """``length`` ranks in ``[0, n_distinct)`` drawn zipf(s=1.1)."""
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(n_distinct)]
    return rng.choices(range(n_distinct), weights=weights, k=length)

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — build a Wikidata-style synthetic KB and save it (graph
  NPZ + inverted index) for later sessions;
* ``build-graph`` — stream-build an on-disk ``.csrstore`` (bounded-memory
  external sort; the out-of-core path for ``wiki2018-xl`` scale) that
  every ``--graph`` option then opens memory-mapped;
* ``stats``    — dataset statistics (the Table II row) for a saved or
  freshly generated graph;
* ``search``   — run a keyword query and print ranked Central Graphs,
  optionally with predicate-level explanations or GraphViz DOT output;
* ``bench``    — a quick single-machine profile (mini Fig. 6 row);
* ``profile``  — run one query and emit its Chrome trace-event JSON
  (open in Perfetto / ``chrome://tracing``), rendered from the query's
  result, or a text summary of the same result;
* ``check``    — the analysis gate: repo-specific lint, lock-free
  invariant fuzz through ``CheckedBackend``, and the ASan/UBSan-rebuilt
  kernel tier (see ``docs/ANALYSIS.md``).

Examples::

    python -m repro generate --out /tmp/kb --scale wiki2017
    python -m repro search --graph /tmp/kb "sql rdf knowledge" -k 5
    python -m repro search "machine translation" --explain
    python -m repro bench --knum 4
    python -m repro profile "sql rdf" --trace trace.json --format chrome
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .core.engine import EmptyQueryError, EngineConfig, KeywordSearchEngine
from .graph.csr import KnowledgeGraph
from .graph.generators import (
    ooc_smoke_config,
    wiki2017_config,
    wiki2018_config,
    wiki2018_xl_config,
    wiki_like_kb,
)
from .graph.io import load_graph, save_graph
from .graph.sampling import estimate_average_distance
from .graph.store import StoreInfo
from .parallel import SequentialBackend, ThreadPoolBackend, VectorizedBackend
from .text.index_io import load_index, save_index
from .text.inverted_index import InvertedIndex
from .viz import central_graph_to_dot, explain_answer

_SCALES = {"wiki2017": wiki2017_config, "wiki2018": wiki2018_config}
#: Scales the streaming ``build-graph`` command can target. The XL scale
#: only exists here: it is too large to materialize through the in-RAM
#: ``generate`` path.
_STORE_SCALES = {
    "wiki2017": wiki2017_config,
    "wiki2018": wiki2018_config,
    "wiki2018-xl": wiki2018_xl_config,
    "wiki-ooc-smoke": ooc_smoke_config,
}
_BACKENDS = {
    "sequential": SequentialBackend,
    "threads": ThreadPoolBackend,
    "vectorized": VectorizedBackend,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Central Graph keyword search on knowledge graphs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate or import a KB and save it"
    )
    generate.add_argument("--out", required=True,
                          help="output path prefix (writes <out>.npz etc.)")
    generate.add_argument("--scale", choices=sorted(_SCALES), default="wiki2017")
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument(
        "--from-wikidata", metavar="DUMP",
        help="import a Wikidata JSON dump instead of generating",
    )
    generate.add_argument(
        "--max-entities", type=int, default=None,
        help="with --from-wikidata: sample only the first N entities",
    )

    build_graph = commands.add_parser(
        "build-graph",
        help="stream-build an on-disk CSR store (.csrstore) in bounded "
             "memory — the out-of-core path for XL scales",
    )
    build_graph.add_argument(
        "--out", required=True,
        help="store file path (conventionally <name>.csrstore)",
    )
    build_graph.add_argument(
        "--scale", choices=sorted(_STORE_SCALES), default="wiki2018",
    )
    build_graph.add_argument("--seed", type=int, default=None)
    build_graph.add_argument(
        "--from-wikidata", metavar="DUMP",
        help="stream-import a Wikidata JSON dump instead of generating",
    )
    build_graph.add_argument(
        "--max-entities", type=int, default=None,
        help="with --from-wikidata: sample only the first N entities",
    )
    build_graph.add_argument(
        "--spill-dir", default=None,
        help="directory for external-sort spill runs (default: a "
             "temporary directory next to the system tmp)",
    )
    build_graph.add_argument(
        "--chunk-edges", type=int, default=None,
        help="edges buffered in RAM between spills (lower = less memory)",
    )
    build_graph.add_argument(
        "--window-rows", type=int, default=None,
        help="merge-window row budget for the finalize passes",
    )
    build_graph.add_argument(
        "--json", action="store_true",
        help="print a single machine-readable JSON stats line "
             "(n_nodes, n_edges, store_bytes, build_ms, derived_ms, "
             "peak_rss_bytes)",
    )

    stats = commands.add_parser("stats", help="print dataset statistics")
    stats.add_argument("--graph", help="saved graph path (default: generate)")
    stats.add_argument("--pairs", type=int, default=2000,
                       help="sampled pairs for the average distance")

    search = commands.add_parser("search", help="run a keyword query")
    search.add_argument("query", help='query string; quotes mark phrases')
    search.add_argument("--graph", help="saved graph path (default: generate)")
    search.add_argument("-k", "--topk", type=int, default=5)
    search.add_argument("--alpha", type=float, default=0.1)
    search.add_argument("--backend", choices=sorted(_BACKENDS),
                        default="vectorized")
    search.add_argument("--explain", action="store_true",
                        help="print predicate-level explanations")
    search.add_argument("--dot", metavar="FILE",
                        help="write the top answer as GraphViz DOT")

    bench = commands.add_parser("bench", help="quick single-machine profile")
    bench.add_argument("--graph", help="saved graph path (default: generate)")
    bench.add_argument("--knum", type=int, default=6)
    bench.add_argument("--queries", type=int, default=5)

    profile = commands.add_parser(
        "profile",
        help="trace one query (Chrome trace JSON / text summary)",
    )
    profile.add_argument("query", help='query string; quotes mark phrases')
    profile.add_argument("--graph", help="saved graph path (default: generate)")
    profile.add_argument("-k", "--topk", type=int, default=5)
    profile.add_argument("--alpha", type=float, default=0.1)
    profile.add_argument("--backend", choices=sorted(_BACKENDS),
                         default="vectorized")
    profile.add_argument("--trace", metavar="FILE",
                         help="write the Chrome trace-event JSON here")
    profile.add_argument(
        "--format", choices=("chrome", "summary"), default="chrome",
        help="what to print: the Chrome trace JSON (default) or a "
             "text summary: phase times, stage-two counts, the levels",
    )

    serve = commands.add_parser(
        "serve", help="run the WikiSearch-style HTTP service"
    )
    serve.add_argument("--graph", help="saved graph path (default: generate)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377)
    serve.add_argument(
        "--check",
        action="store_true",
        help="start, self-query /healthz and one search, then exit "
             "(smoke mode; also used by tests)",
    )

    check = commands.add_parser(
        "check",
        help="static + dynamic analysis gate: repo lint, lock-free "
             "invariant fuzz (CheckedBackend), sanitized kernel tier "
             "(ASan/UBSan + TSan race tier)",
    )
    check.add_argument(
        "--inject",
        choices=("lint", "abi", "race", "sanitizer"),
        help="seed one violation of the chosen class to prove the gate "
             "gates (exit 1 = caught, 2 = missed)",
    )
    check.add_argument(
        "--skip-sanitize", action="store_true",
        help="skip the sanitizer stage (ASan/UBSan rebuild + TSan "
             "harness; slowest stage)",
    )
    check.add_argument(
        "--skip-fuzz", action="store_true",
        help="skip the cross-backend invariant fuzz",
    )
    check.add_argument(
        "--fuzz-seeds", type=int, default=4,
        help="number of fuzz seeds for the invariant stage",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the lint rule catalogue and exit",
    )
    return parser


def _load_or_generate(path: Optional[str]) -> "tuple[KnowledgeGraph, InvertedIndex]":
    if path:
        graph = load_graph(path)
        try:
            index = load_index(path + ".index")
        except FileNotFoundError:
            index = InvertedIndex.from_graph(graph)
        return graph, index
    graph, _ = wiki_like_kb()
    return graph, InvertedIndex.from_graph(graph)


def _cmd_generate(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    if args.from_wikidata:
        from .graph.wikidata import COMMON_PROPERTY_LABELS, load_wikidata_dump

        graph, stats = load_wikidata_dump(
            args.from_wikidata,
            property_labels=COMMON_PROPERTY_LABELS,
            max_entities=args.max_entities,
        )
        source = (
            f"imported {stats.entities_kept}/{stats.entities_seen} entities "
            f"({stats.edges_added} edges) from {args.from_wikidata}"
        )
    else:
        config = (
            _SCALES[args.scale]()
            if args.seed is None
            else _SCALES[args.scale](args.seed)
        )
        graph, _ = wiki_like_kb(config)
        source = f"generated {config.name}"
    index = InvertedIndex.from_graph(graph)
    save_graph(graph, args.out)
    save_index(index, args.out + ".index")
    elapsed = time.perf_counter() - start
    print(f"{source}: {graph.n_nodes} nodes, "
          f"{graph.n_edges} edges, {index.n_terms} terms "
          f"({elapsed:.1f}s) -> {args.out}.npz")
    return 0


def _cmd_build_graph(args: argparse.Namespace) -> int:
    import json
    import resource

    info, source, build_ms = _build_store(args)
    derived_ms = info.derived_ms
    # ru_maxrss is KiB on Linux; includes every resident page the builder
    # ever touched, which is exactly the out-of-core acceptance metric.
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if args.json:
        print(json.dumps({
            "n_nodes": info.n_nodes,
            "n_edges": info.n_edges,
            "store_bytes": info.store_bytes,
            "array_bytes": info.array_bytes,
            "build_ms": build_ms,
            "derived_ms": derived_ms,
            "peak_rss_bytes": peak_rss,
            "path": str(info.path),
        }))
    else:
        ratio = peak_rss / max(info.array_bytes, 1)
        print(f"{source}: {info.n_nodes} nodes, {info.n_edges} edges, "
              f"{info.store_bytes / 1e6:.1f} MB store "
              f"({build_ms / 1000.0:.1f}s, of which index / weights / A "
              f"{derived_ms / 1000.0:.1f}s; peak RSS "
              f"{peak_rss / 1e6:.1f} MB = {ratio:.2f}x CSR bytes) "
              f"-> {info.path}")
    return 0


def _build_store(args: argparse.Namespace) -> "tuple[StoreInfo, str, float]":
    """Stream-build the store ``args`` ask for: ``(info, source, build_ms)``."""
    start = time.perf_counter()
    builder_kwargs = {}
    if args.chunk_edges is not None:
        builder_kwargs["chunk_edges"] = args.chunk_edges
    if args.window_rows is not None:
        builder_kwargs["window_rows"] = args.window_rows
    if args.from_wikidata:
        from .graph.wikidata import (
            COMMON_PROPERTY_LABELS,
            load_wikidata_dump_streaming,
        )

        info, stats = load_wikidata_dump_streaming(
            args.from_wikidata,
            args.out,
            property_labels=COMMON_PROPERTY_LABELS,
            max_entities=args.max_entities,
            spill_dir=args.spill_dir,
            **builder_kwargs,
        )
        source = (
            f"imported {stats.entities_kept}/{stats.entities_seen} entities "
            f"({stats.edges_added} edges) from {args.from_wikidata}"
        )
    else:
        from .graph.generators import build_wiki_kb_store

        config_factory = _STORE_SCALES[args.scale]
        config = (
            config_factory()
            if args.seed is None
            else config_factory(args.seed)
        )
        info, _ = build_wiki_kb_store(
            args.out, config, spill_dir=args.spill_dir, **builder_kwargs
        )
        source = f"built {config.name}"
    return info, source, (time.perf_counter() - start) * 1000.0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph, index = _load_or_generate(args.graph)
    estimate = estimate_average_distance(graph, n_pairs=args.pairs)
    degrees = graph.degree_statistics()
    print(f"nodes:            {graph.n_nodes}")
    print(f"edges:            {graph.n_edges}")
    print(f"predicates:       {len(graph.predicates)}")
    print(f"indexed terms:    {index.n_terms}")
    print(f"avg distance A:   {estimate.average:.2f} "
          f"(deviation {estimate.deviation:.2f}, "
          f"{estimate.n_sampled} sampled pairs)")
    print(f"degree max/mean:  {degrees['max']:.0f} / {degrees['mean']:.2f}")
    print("most frequent terms:")
    for term, count in index.most_frequent_terms(8):
        print(f"  {term:20} {count}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    graph, index = _load_or_generate(args.graph)
    backend = _BACKENDS[args.backend]()
    engine = KeywordSearchEngine(
        graph, backend=backend, index=index,
        config=EngineConfig(topk=args.topk, alpha=args.alpha),
    )
    try:
        result = engine.search(args.query, k=args.topk, alpha=args.alpha)
    except EmptyQueryError as error:
        from .text.suggest import suggest_for_dropped

        print(f"error: {error}", file=sys.stderr)
        suggestions = suggest_for_dropped(index, args.query.split())
        for term, candidates in suggestions.items():
            print(f"did you mean ({term}): {', '.join(candidates)}",
                  file=sys.stderr)
        return 2
    finally:
        backend.close()
    ms = result.milliseconds()
    print(f"keywords: {', '.join(result.keywords)}"
          + (f"  (dropped: {', '.join(result.dropped_terms)})"
             if result.dropped_terms else ""))
    print(f"{len(result.answers)} answers in {ms['total']:.1f} ms "
          f"(d={result.depth}, {result.n_central_nodes} central nodes)\n")
    for rank, answer in enumerate(result.answers, start=1):
        print(f"--- answer {rank} (score {answer.score:.4f}) ---")
        if args.explain:
            print(explain_answer(answer.graph, graph, result.keywords))
        else:
            print(answer.graph.describe(graph.node_text))
        print()
    if args.dot and result.answers:
        dot = central_graph_to_dot(
            result.answers[0].graph, graph, result.keywords
        )
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dot + "\n")
        print(f"wrote GraphViz DOT of the top answer to {args.dot}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .eval.queries import KeywordWorkload
    from .instrumentation import average_timers

    graph, index = _load_or_generate(args.graph)
    engine = KeywordSearchEngine(graph, index=index)
    workload = KeywordWorkload(index, seed=0)
    queries = workload.sample_queries(args.knum, args.queries)
    timers = [engine.search(query).timer for query in queries]
    print(f"{args.queries} queries x {args.knum} keywords "
          f"on {graph.n_nodes} nodes (vectorized backend):")
    for phase, mean_ms in average_timers(timers).items():
        print(f"  {phase:28} {mean_ms:8.2f} ms")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .core.bottom_up import describe_levels
    from .instrumentation import ALL_PHASES
    from .obs.tracing import render_chrome_trace, validate_chrome_trace

    graph, index = _load_or_generate(args.graph)
    backend = _BACKENDS[args.backend]()
    engine = KeywordSearchEngine(
        graph, backend=backend, index=index,
        config=EngineConfig(topk=args.topk, alpha=args.alpha),
    )
    try:
        result = engine.search(args.query, k=args.topk, alpha=args.alpha)
    except EmptyQueryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    trace = render_chrome_trace(result, k=args.topk, alpha=args.alpha)
    validate_chrome_trace(trace)
    ms = result.milliseconds()
    print(f"{len(result.answers)} answers in {ms['total']:.1f} ms "
          f"(d={result.depth}, {result.n_central_nodes} central nodes, "
          f"{len(result.level_profile)} levels)", file=sys.stderr)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1)
            handle.write("\n")
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    if args.format == "summary":
        print("phase                          ms")
        for phase in ALL_PHASES:
            print(f"{phase:28} {ms.get(phase, 0.0):8.3f}")
        print("stage two: " + ", ".join(
            f"{name}={value}" for name, value in result.stage_two.as_dict().items()
        ))
        print(describe_levels(result.level_profile))
    else:
        print(json.dumps(trace, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import threading
    import urllib.request

    from .service import create_server

    graph, index = _load_or_generate(args.graph)
    engine = KeywordSearchEngine(graph, index=index)
    port = 0 if args.check else args.port
    server = create_server(engine, host=args.host, port=port)
    host, bound_port = server.server_address
    try:
        # Inside the try: a Ctrl-C sent as soon as this line is read can
        # land before serve_forever is entered.
        print(f"serving on http://{host}:{bound_port}/  (Ctrl-C to stop)")
        if args.check:
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                base = f"http://{host}:{bound_port}"
                with urllib.request.urlopen(base + "/healthz", timeout=30) as r:
                    health = json.loads(r.read())
                print(f"healthz: {health}")
                with urllib.request.urlopen(
                    base + "/search?q=knowledge&k=1", timeout=60
                ) as r:
                    payload = json.loads(r.read())
                print(
                    f"search smoke: {len(payload.get('answers', []))} answer(s)"
                )
                return 0
            finally:
                server.shutdown()
        server.serve_forever()
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0
    finally:
        # Give back the port and the request workers on every exit.
        server.server_close()


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.check import run_check
    from .analysis.lint import RULES

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0
    return run_check(
        inject=args.inject,
        skip_sanitize=args.skip_sanitize,
        skip_fuzz=args.skip_fuzz,
        fuzz_seeds=tuple(range(args.fuzz_seeds)),
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "build-graph": _cmd_build_graph,
        "stats": _cmd_stats,
        "search": _cmd_search,
        "bench": _cmd_bench,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "check": _cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

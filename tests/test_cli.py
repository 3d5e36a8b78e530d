"""Command-line interface."""

import os

import pytest

from repro.cli import main
from repro.graph.generators import WikiKBConfig, wiki_like_kb
from repro.graph.io import save_graph
from repro.text.index_io import save_index
from repro.text.inverted_index import InvertedIndex


@pytest.fixture(scope="module")
def saved_kb(tmp_path_factory):
    """A small KB saved to disk the way `repro generate` does."""
    config = WikiKBConfig(
        name="cli-kb", seed=77, n_papers=120, n_people=50, n_misc=40,
        n_venues=4, n_orgs=4, gold_papers_per_query=1,
        decoy_papers_per_phrase=1,
    )
    graph, _ = wiki_like_kb(config)
    path = str(tmp_path_factory.mktemp("cli") / "kb")
    save_graph(graph, path)
    save_index(InvertedIndex.from_graph(graph), path + ".index")
    return path


def test_generate_writes_files(tmp_path, capsys):
    out = str(tmp_path / "generated")
    # Use the CLI with a seed so the default (large) preset is exercised
    # deterministically; wiki2017 scale takes ~1s.
    code = main(["generate", "--out", out, "--scale", "wiki2017",
                 "--seed", "3"])
    assert code == 0
    assert os.path.exists(out + ".npz")
    assert os.path.exists(out + ".meta.json")
    assert os.path.exists(out + ".index.npz")
    captured = capsys.readouterr()
    assert "generated wiki2017-sim" in captured.out


def test_stats_on_saved_graph(saved_kb, capsys):
    code = main(["stats", "--graph", saved_kb, "--pairs", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nodes:" in out
    assert "avg distance A:" in out
    assert "most frequent terms:" in out


def test_search_prints_answers(saved_kb, capsys):
    code = main(["search", "--graph", saved_kb, "machine learning",
                 "-k", "3", "--backend", "sequential"])
    assert code == 0
    out = capsys.readouterr().out
    assert "answers in" in out
    assert "--- answer 1" in out


def test_search_explain_mode(saved_kb, capsys):
    code = main(["search", "--graph", saved_kb, "machine learning",
                 "-k", "2", "--explain"])
    assert code == 0
    assert "Central Node:" in capsys.readouterr().out


def test_search_writes_dot(saved_kb, tmp_path, capsys):
    dot_path = str(tmp_path / "answer.dot")
    code = main(["search", "--graph", saved_kb, "machine learning",
                 "-k", "1", "--dot", dot_path])
    assert code == 0
    with open(dot_path) as handle:
        assert handle.read().startswith("digraph")


def test_search_unmatched_query_exit_code(saved_kb, capsys):
    code = main(["search", "--graph", saved_kb, "zzzzqqq"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_search_suggests_on_typo(saved_kb, capsys):
    code = main(["search", "--graph", saved_kb, "machne"])  # typo
    assert code == 2
    err = capsys.readouterr().err
    assert "did you mean" in err
    assert "machin" in err


def test_bench_runs(saved_kb, capsys):
    code = main(["bench", "--graph", saved_kb, "--knum", "3",
                 "--queries", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "expansion" in out
    assert "total" in out


def test_generate_from_wikidata_dump(tmp_path, capsys):
    import json

    dump = tmp_path / "dump.json"
    entities = [
        {"id": "Q1", "labels": {"en": {"value": "SQL language"}},
         "claims": {"P31": [{"mainsnak": {"snaktype": "value",
                                          "datavalue": {
                                              "type": "wikibase-entityid",
                                              "value": {"id": "Q2"}}}}]}},
        {"id": "Q2", "labels": {"en": {"value": "query language"}}},
    ]
    dump.write_text("\n".join(json.dumps(e) for e in entities))
    out = str(tmp_path / "imported")
    code = main(["generate", "--out", out, "--from-wikidata", str(dump)])
    assert code == 0
    assert "imported 2/2 entities" in capsys.readouterr().out
    code = main(["search", "--graph", out, "sql language", "-k", "1"])
    assert code == 0


def test_profile_writes_valid_chrome_trace(saved_kb, tmp_path, capsys):
    import json

    from repro.obs.tracing import validate_chrome_trace

    trace_path = str(tmp_path / "profile.trace.json")
    code = main(["profile", "--graph", saved_kb, "machine learning",
                 "-k", "3", "--trace", trace_path, "--format", "chrome"])
    assert code == 0
    captured = capsys.readouterr()
    assert "levels)" in captured.err
    # stdout carries the Chrome trace JSON itself.
    payload = json.loads(captured.out)
    validate_chrome_trace(payload)
    names = {e["name"] for e in payload["traceEvents"]}
    assert {"query", "phase:total", "level"} <= names
    (top_down,) = [
        e for e in payload["traceEvents"]
        if e["name"] == "phase:top_down_processing"
    ]
    assert {"central_graphs", "answers"} <= set(top_down["args"])
    with open(trace_path) as handle:
        written = json.load(handle)
    validate_chrome_trace(written)
    assert [e["name"] for e in written["traceEvents"]] == [
        e["name"] for e in payload["traceEvents"]
    ]


def test_profile_summary_format(saved_kb, capsys):
    code = main(["profile", "--graph", saved_kb, "machine learning",
                 "-k", "2", "--format", "summary"])
    assert code == 0
    out = capsys.readouterr().out
    # Phase milliseconds, stage two's counts, then the Fig. 4 levels.
    assert "top_down_processing" in out
    assert "stage two: central_graphs=" in out
    assert "level  frontier  new_hits  central_nodes" in out


def test_profile_unmatched_query_exit_code(saved_kb, capsys):
    code = main(["profile", "--graph", saved_kb, "zzzzqqq"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_profile_trace_flag_with_summary_format(saved_kb, tmp_path, capsys):
    """``--trace`` writes the file whatever ``--format`` prints."""
    import json

    from repro.obs.tracing import validate_chrome_trace

    trace_path = str(tmp_path / "search.trace.json")
    code = main(["profile", "--graph", saved_kb, "machine learning",
                 "-k", "2", "--trace", trace_path, "--format", "summary"])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote Chrome trace" in captured.err
    assert "stage two:" in captured.out
    with open(trace_path) as handle:
        validate_chrome_trace(json.load(handle))


def test_serve_check_mode(saved_kb, capsys):
    code = main(["serve", "--graph", saved_kb, "--check"])
    assert code == 0
    out = capsys.readouterr().out
    assert "serving on http://" in out
    assert "healthz" in out
    assert "search smoke" in out


def test_serve_exits_zero_on_sigint(saved_kb):
    """Ctrl-C, the way the perf ledger stops its server: the process
    wakes its request workers, gives back the port and exits 0 within
    5 s."""
    import signal
    import socket
    import subprocess
    import sys
    import urllib.request
    from pathlib import Path

    import repro

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--graph", saved_kb,
         "--port", str(port)],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert "serving on" in server.stdout.readline()
        url = f"http://127.0.0.1:{port}/healthz"
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.status == 200
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=5) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

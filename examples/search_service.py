"""Run the WikiSearch-style HTTP service and query it.

Starts the JSON-over-HTTP search service on an ephemeral port (the
reproduction of the paper's online WikiSearch deployment), issues a few
requests against it through plain urllib, and prints the responses.
Leave it running with ``--serve`` to poke it from a browser.

Run:  python examples/search_service.py [--serve]
"""

import json
import sys
import threading
import urllib.request

from repro import KeywordSearchEngine
from repro.graph.generators import wiki_like_kb
from repro.service import create_server


def main(serve_forever: bool = False) -> None:
    graph, _ = wiki_like_kb()
    engine = KeywordSearchEngine(graph)
    server = create_server(engine, port=8377 if serve_forever else 0)
    host, port = server.server_address
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"WikiSearch reproduction serving on http://{host}:{port}/")

    for path in (
        "/healthz",
        "/search?q=knowledge+base+rdf+sparql&k=2",
        '/search?q=%22gradient+descent%22+translation&k=2',
    ):
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=30
        ) as response:
            payload = json.loads(response.read())
        print(f"\nGET {path} -> {response.status}")
        if "answers" in payload:
            print(f"  keywords: {payload['keywords']}, "
                  f"{len(payload['answers'])} answers, "
                  f"{payload['milliseconds']['total']:.1f} ms")
            top = payload["answers"][0]
            print(f"  top answer: central={top['central_text']!r} "
                  f"depth={top['depth']} score={top['score']:.4f}")
            for node in top["nodes"][:4]:
                marks = f" carries {node['keywords']}" if node["keywords"] else ""
                print(f"    v{node['id']}: {node['text'][:50]!r}{marks}")
        else:
            print(f"  {payload}")

    # Observability endpoints: Prometheus text and the JSON stat view.
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=30
    ) as response:
        metrics_lines = response.read().decode("utf-8").splitlines()
    request_lines = [
        line for line in metrics_lines
        if line.startswith("repro_http_requests_total")
    ]
    print(f"\nGET /metrics -> {len(metrics_lines)} lines, e.g.:")
    for line in request_lines[:3]:
        print(f"  {line}")
    with urllib.request.urlopen(
        f"http://{host}:{port}/statz", timeout=30
    ) as response:
        statz = json.loads(response.read())
    print(f"GET /statz -> requests by endpoint: "
          f"{statz['service']['requests_by_endpoint']}")

    if serve_forever:
        print("\nserving until Ctrl-C ...")
        try:
            thread.join()
        except KeyboardInterrupt:
            pass
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main(serve_forever="--serve" in sys.argv[1:])

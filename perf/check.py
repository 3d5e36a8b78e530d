"""Output checks applied to every timed op.

An op is summarised (in-process from the ``SearchResult``, over HTTP
from the JSON payload) and then checked two ways: structurally against
the paper's definitions and the class recorded at fixture time, and —
for the pool entries that carry one — against the answer the reference
route (``SequentialBackend``, ``top_down_native=False``) gave at fixture
time: ranked Central-Node ids, scores to 1e-9, depth and nc.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

SCORE_TOLERANCE = 1e-9


def summarize_result(result) -> Dict[str, object]:
    n_keywords = len(result.keywords)
    return {
        "nc": result.n_central_nodes,
        "depth": result.depth,
        "central_nodes": [a.graph.central_node for a in result.answers],
        "scores": [a.score for a in result.answers],
        "covers": [a.graph.covers_all(n_keywords) for a in result.answers],
    }


def summarize_response(status: int, body: bytes) -> Dict[str, object]:
    """Summary of one ``/search`` response; raises ``ValueError`` when the
    status is not 200 or the body is not the JSON the service documents."""
    if status != 200:
        raise ValueError(f"HTTP status {status}: {body[:200]!r}")
    payload = json.loads(body)
    try:
        keywords = set(payload["keywords"])
        answers = payload["answers"]
        return {
            "nc": payload["n_central_nodes"],
            "depth": payload["depth"],
            "central_nodes": [a["central_node"] for a in answers],
            "scores": [a["score"] for a in answers],
            "covers": [
                {kw for node in a["nodes"] for kw in node["keywords"]} == keywords
                for a in answers
            ],
        }
    except (KeyError, TypeError) as error:
        raise ValueError(f"malformed search payload: {error!r}") from error


def check_op(summary: Dict[str, object], entry: dict, k: int) -> Optional[str]:
    """Why this op's output is wrong, or ``None`` when it is right."""
    scores: List[float] = summary["scores"]  # type: ignore[assignment]
    if not 1 <= len(scores) <= k:
        return f"{len(scores)} answers for k={k}"
    if any(later < earlier for earlier, later in zip(scores, scores[1:])):
        return "scores not ascending"
    if not all(summary["covers"]):  # type: ignore[arg-type]
        return "an answer does not cover every matched keyword"
    if summary["nc"] != entry["nc"] or summary["depth"] != entry["depth"]:
        return (
            f"class moved: nc {summary['nc']} depth {summary['depth']}, "
            f"fixture recorded nc {entry['nc']} depth {entry['depth']}"
        )
    reference = entry.get("reference")
    if reference is not None:
        if summary["central_nodes"] != reference["central_nodes"]:
            return "ranked Central Nodes differ from the reference route"
        if any(
            abs(got - want) > SCORE_TOLERANCE
            for got, want in zip(scores, reference["scores"])
        ):
            return "scores differ from the reference route"
        if summary["nc"] != reference["nc"] or summary["depth"] != reference["depth"]:
            return "depth or nc differs from the reference route"
    return None


def check_ops(ops, entries: List[dict], k: int) -> Dict[str, object]:
    """Check ``(entry index, summary or error string)`` pairs.

    Returns the failure count, the first few reasons, and how many ops
    passed the reference-route comparison.
    """
    failed = 0
    reasons: List[str] = []
    compared = 0
    for position, summary in ops:
        entry = entries[position]
        reason = summary if isinstance(summary, str) else check_op(summary, entry, k)
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{entry['query']!r}: {reason}")
        elif "reference" in entry:
            compared += 1
    return {"failed": failed, "reasons": reasons, "reference_compared": compared}

"""Answer visualization: GraphViz DOT export and labeled explanations.

The paper's WikiSearch service renders answer graphs for users (Fig. 1
is such a rendering). This module produces the equivalent artifacts for
the reproduction: GraphViz DOT documents for Central Graphs and BANKS
answer trees, plus a plain-text explanation that annotates every answer
edge with the knowledge-graph predicates that realize it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .baselines.common import AnswerTree
from .core.central_graph import CentralGraph
from .graph.csr import KnowledgeGraph


def edge_predicates(graph: KnowledgeGraph, source: int, target: int) -> List[str]:
    """Predicate names of every directed edge between two nodes.

    Both orientations are reported (the traversal is bi-directed); the
    reverse direction is marked with a ``^`` prefix, RDF-style inverse
    notation. One pair of :meth:`KnowledgeGraph.edge_predicates`, which
    renders every edge of an answer in one lookup.
    """
    return graph.edge_predicates([(source, target)])[0]


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_label(graph: KnowledgeGraph, node: int, max_chars: int = 40) -> str:
    text = graph.node_text[node]
    if len(text) > max_chars:
        text = text[: max_chars - 1] + "…"
    return f"v{node}\\n{_dot_escape(text)}"


def central_graph_to_dot(
    answer: CentralGraph,
    graph: KnowledgeGraph,
    keywords: Optional[Iterable[str]] = None,
    name: str = "central_graph",
) -> str:
    """Render one Central Graph as a GraphViz DOT digraph.

    The Central Node is drawn as a double circle; keyword-contributing
    nodes are filled; edges carry the realizing predicates.
    """
    keywords = list(keywords) if keywords is not None else None
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for node in sorted(answer.nodes):
        attributes = [f'label="{_node_label(graph, node)}"']
        if node == answer.central_node:
            attributes.append("peripheries=2")
            attributes.append('color="firebrick"')
        columns = answer.keyword_contributions.get(node)
        if columns:
            attributes.append('style="filled"')
            attributes.append('fillcolor="lightyellow"')
            if keywords is not None:
                carried = ",".join(
                    keywords[column]
                    for column in sorted(columns)
                    if column < len(keywords)
                )
                attributes[0] = (
                    f'label="{_node_label(graph, node)}\\n[{_dot_escape(carried)}]"'
                )
        lines.append(f"  n{node} [{', '.join(attributes)}];")
    edges = answer.sorted_edges()
    for (source, target), predicates in zip(edges, graph.edge_predicates(edges)):
        label = _dot_escape("; ".join(predicates[:2]))
        lines.append(f'  n{source} -> n{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def answer_tree_to_dot(
    tree: AnswerTree, graph: KnowledgeGraph, name: str = "answer_tree"
) -> str:
    """Render a BANKS answer tree as a GraphViz DOT digraph."""
    lines = [f"digraph {name} {{", "  rankdir=TB;", "  node [shape=box];"]
    for node in sorted(tree.nodes):
        attributes = [f'label="{_node_label(graph, node)}"']
        if node == tree.root:
            attributes.append("peripheries=2")
        lines.append(f"  n{node} [{', '.join(attributes)}];")
    edges = sorted(tree.edges)
    for (source, target), predicates in zip(edges, graph.edge_predicates(edges)):
        label = _dot_escape("; ".join(predicates[:2]))
        lines.append(f'  n{source} -> n{target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def explain_answer(
    answer: CentralGraph,
    graph: KnowledgeGraph,
    keywords: Optional[Iterable[str]] = None,
) -> str:
    """Plain-text explanation of one answer, predicates included.

    Lists the central node, each keyword's carriers, and every hitting
    DAG edge with the knowledge-graph predicates realizing it.
    """
    keywords = list(keywords) if keywords is not None else None
    lines = [
        f"Central Node: v{answer.central_node} "
        f"{graph.node_text[answer.central_node]!r} (depth {answer.depth})"
    ]
    for node in answer.keyword_nodes():
        columns = sorted(answer.keyword_contributions[node])
        if keywords is not None:
            carried = ", ".join(
                keywords[column] for column in columns if column < len(keywords)
            )
        else:
            carried = ", ".join(f"t{column}" for column in columns)
        lines.append(f"  carries [{carried}]: v{node} {graph.node_text[node]!r}")
    lines.append("  hitting paths:")
    edges = answer.sorted_edges()
    for (source, target), names in zip(edges, graph.edge_predicates(edges)):
        predicates = "; ".join(names) or "?"
        lines.append(
            f"    v{source} --{predicates}--> v{target}"
        )
    return "\n".join(lines)

"""Stage two from the paper's definitions — the oracle half of ROADMAP 1(a).

Scalar Python, one loop per sentence of Section V-C, sharing no code with
``repro.core.top_down`` or ``repro.parallel``: it takes a *finished*
``SearchState`` (M, activation levels, keyword mask, identification
levels, the Central-Node list) as given and recomputes every ranked
answer. The batch route and the reference route are both compared with
it (``tests/test_stage_two_oracle.py``).

``mutation`` plants one known fault, so the tests can show the corpus
would notice it:

* ``"no_central_clause"`` — bare Theorem V.4, without "an identified
  Central Node stops expanding";
* ``"skip_level"`` — level-cover passes over its highest keyword level;
* ``"reverse_sum"`` — Eq. 6's weight mass added in descending node order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

INFINITE = 255


class OracleAnswer(NamedTuple):
    central_node: int
    depth: int
    score: float
    nodes: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]
    keyword_contributions: Dict[int, FrozenSet[int]]
    pruned: bool


class Given(NamedTuple):
    """The finished search as plain Python lists (scalar reads of NumPy
    arrays are most of a pure-Python walk's time otherwise)."""

    neighbors: List[List[int]]
    level: List[List[int]]  # M
    activation: List[int]
    has_keyword: List[bool]
    identified: List[int]  # level of identification as Central Node, -1

    @classmethod
    def of(cls, graph, state) -> "Given":
        indptr = graph.adj.indptr.tolist()
        indices = graph.adj.indices.tolist()
        return cls(
            [indices[a:b] for a, b in zip(indptr, indptr[1:])],
            state.matrix.tolist(),
            state.activation.tolist(),
            state.keyword_node.tolist(),
            state.central_level.tolist(),
        )


def hitting_predecessors(
    given: Given, target: int, column: int, central_clause: bool = True
) -> List[int]:
    """Neighbors that expanded to ``target`` on a keyword-``column``
    hitting path (Theorem V.4 + the identified-Central-Node clause)."""
    level = given.level[target][column]
    if level == INFINITE:
        return []
    found = []
    for neighbor in given.neighbors[target]:
        neighbor_level = given.level[neighbor][column]
        if neighbor_level == INFINITE:
            continue
        activation = given.activation[neighbor]
        if given.has_keyword[target]:
            expected = 1 + max(activation, neighbor_level)
        else:
            expected = 1 + max(
                activation, neighbor_level, given.activation[target] - 1
            )
        if level != expected:
            continue
        identified = given.identified[neighbor]
        if central_clause and identified >= 0 and level > identified:
            continue  # it had stopped expanding before this hit
        found.append(neighbor)
    return found


def central_graph(
    given: Given, central: int, central_clause: bool = True
) -> Tuple[Set[int], Set[Tuple[int, int]]]:
    """Definition 3: per keyword, all hitting paths into ``central``."""
    nodes = {central}
    edges: Set[Tuple[int, int]] = set()
    for column in range(len(given.level[central])):
        reached = {central}
        todo = [central]
        while todo:
            target = todo.pop()
            for pred in hitting_predecessors(
                given, target, column, central_clause
            ):
                edges.add((pred, target))
                if pred not in reached:
                    reached.add(pred)
                    todo.append(pred)
        nodes |= reached
    return nodes, edges


def contributions_of(given: Given, nodes) -> Dict[int, FrozenSet[int]]:
    found = {}
    for node in nodes:
        columns = frozenset(
            column
            for column, level in enumerate(given.level[node])
            if level == 0
        )
        if columns:
            found[node] = columns
    return found


def level_cover(
    central: int,
    nodes: Set[int],
    edges: Set[Tuple[int, int]],
    contributions: Dict[int, FrozenSet[int]],
    n_keywords: int,
    skip_level: bool = False,
) -> Tuple[Set[int], Set[Tuple[int, int]]]:
    """Fig. 5: keyword nodes in levels by how many keywords they carry,
    the Central Node on top; take whole levels from the top until every
    keyword is covered; keep what lies on a hitting path from a taken
    node to the Central Node."""
    everything = set(range(n_keywords))
    covered = set(contributions.get(central, ()))
    taken = {central}
    levels = sorted(
        {len(columns) for node, columns in contributions.items() if node != central},
        reverse=True,
    )
    if skip_level:
        levels = levels[1:]
    for level in levels:
        if covered == everything:
            break
        for node, columns in contributions.items():
            if node != central and len(columns) == level:
                taken.add(node)
                covered |= columns
    kept = set(taken)
    todo = list(taken)
    while todo:
        node = todo.pop()
        for source, target in edges:
            if source == node and target not in kept:
                kept.add(target)
                todo.append(target)
    return kept, {(u, v) for u, v in edges if u in kept and v in kept}


def weight_mass(weights, nodes, reverse: bool = False) -> float:
    """Eq. 6's Σ w_i, one double addition per node in ascending id order."""
    total = 0.0
    for node in sorted(nodes, reverse=reverse):
        total = total + float(weights[node])
    return total


def stage_two(
    graph,
    state,
    weights,
    k: int,
    lam: float,
    apply_level_cover: bool = True,
    deduplicate: bool = True,
    mutation: Optional[str] = None,
) -> List[OracleAnswer]:
    given = Given.of(graph, state)
    n_keywords = state.matrix.shape[1]
    answers = []
    for central, depth in state.central_nodes:
        nodes, edges = central_graph(
            given, central, central_clause=mutation != "no_central_clause"
        )
        if apply_level_cover:
            nodes, edges = level_cover(
                central,
                nodes,
                edges,
                contributions_of(given, nodes),
                n_keywords,
                skip_level=mutation == "skip_level",
            )
        answers.append((central, depth, nodes, edges))

    if deduplicate:
        # "We remove the Central Graph that completely contains smaller
        # ones" (Section VI-B).
        answers = [
            answer
            for answer in answers
            if not any(other[2] < answer[2] for other in answers)
        ]

    scored = [
        OracleAnswer(
            central_node=central,
            depth=depth,
            score=float(depth) ** lam
            * weight_mass(weights, nodes, reverse=mutation == "reverse_sum"),
            nodes=frozenset(nodes),
            edges=frozenset(edges),
            keyword_contributions=contributions_of(given, nodes),
            pruned=apply_level_cover,
        )
        for central, depth, nodes, edges in answers
    ]
    scored.sort(key=lambda a: (a.score, len(a.nodes), a.central_node))
    return scored[:k]

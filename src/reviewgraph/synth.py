"""Seeded synthetic debate graphs and hash-based embeddings.

The real review corpora cannot be redistributed, so tests and offline runs
use generated graphs. The rule dataset labels each graph by the majority of
accept- vs reject-typed reviewer-author edges, which puts the entire label
signal into those edges.
"""

from __future__ import annotations

import numpy as np

from .graph import (
    AUTHOR_SPEAKER,
    DIMENSION_NODE_IDS,
    INTER_REVIEWER_RELATIONS,
    LABEL_ACCEPT,
    LABEL_REJECT,
    REVIEWER_AUTHOR_RELATIONS,
    REVIEWER_SPEAKERS,
    DebateGraph,
    Dimension,
    Edge,
    Node,
    NodeType,
    RelationType,
    assemble,
    skeleton,
    text_key,
)
from .training import GraphExample


def unit_embedding(text: str, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit vector derived from the text content hash."""
    rng = np.random.default_rng(int.from_bytes(text_key(f"{seed}\x00{text}")[:8], "little"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def embeddings_for(g: DebateGraph, dim: int, seed: int = 0) -> np.ndarray:
    """The graph's (nodes, dim) input rows in node-id order: each node's
    ``unit_embedding`` of its text."""
    return np.stack([unit_embedding(t, dim, seed) for t in g.texts])


def random_debate_graph(
    seed: int,
    graph_id: str = "synthetic",
    n_reviewer_opinions: tuple[int, int] = (2, 6),
    n_author_opinions: tuple[int, int] = (1, 4),
    label: str | None = None,
) -> DebateGraph:
    """A random schema-valid graph exercising all relation groups."""
    rng = np.random.default_rng(seed)
    nodes, edges = skeleton(f"Synthetic paper {graph_id}")
    n_rev = int(rng.integers(n_reviewer_opinions[0], n_reviewer_opinions[1] + 1))
    n_auth = int(rng.integers(n_author_opinions[0], n_author_opinions[1] + 1))
    rev_ids: list[int] = []
    for i in range(n_rev):
        speaker = REVIEWER_SPEAKERS[int(rng.integers(0, len(REVIEWER_SPEAKERS)))]
        dim = list(Dimension)[int(rng.integers(0, 4))]
        rev_ids.append(len(nodes))
        nodes.append(
            Node(
                len(nodes),
                NodeType.REVIEWER_OPINION,
                f"Reviewer remark {i} in {graph_id}",
                speaker=speaker,
                dimension=dim,
            )
        )
    auth_ids: list[int] = []
    for i in range(n_auth):
        auth_ids.append(len(nodes))
        nodes.append(
            Node(
                len(nodes),
                NodeType.AUTHOR_OPINION,
                f"Author reply {i} in {graph_id}",
                speaker=AUTHOR_SPEAKER,
            )
        )

    for rid in rev_ids:
        edges.append(Edge(rid, DIMENSION_NODE_IDS[nodes[rid].dimension], RelationType.REVIEWED_BY))
    for aid in auth_ids:
        rid = rev_ids[int(rng.integers(0, len(rev_ids)))]
        rel = REVIEWER_AUTHOR_RELATIONS[int(rng.integers(0, len(REVIEWER_AUTHOR_RELATIONS)))]
        edges.append(Edge(rid, aid, rel))
    n_irr = int(rng.integers(0, max(1, n_rev)))
    for _ in range(n_irr):
        a, b = rng.choice(len(rev_ids), size=2, replace=False) if len(rev_ids) > 1 else (0, 0)
        if rev_ids[int(a)] == rev_ids[int(b)]:
            continue
        rel = INTER_REVIEWER_RELATIONS[int(rng.integers(0, len(INTER_REVIEWER_RELATIONS)))]
        edges.append(Edge(rev_ids[int(a)], rev_ids[int(b)], rel))

    return assemble(graph_id, nodes, edges, label)


def rule_labeled_graph(
    seed: int,
    graph_id: str,
    n_opinions: tuple[int, int] = (4, 12),
) -> DebateGraph:
    """Graph whose label is the majority of accept vs reject reviewer-author edges.

    Each reviewer opinion sends exactly one accept- or reject-typed edge to its
    own author reply; inter-reviewer edges carry no label information.
    """
    rng = np.random.default_rng(seed)
    nodes, edges = skeleton(f"Rule paper {graph_id}")
    n_ops = int(rng.integers(n_opinions[0], n_opinions[1] + 1))
    if n_ops % 2 == 0:
        n_ops += 1  # avoid accept/reject ties

    n_accept = 0
    rev_ids: list[int] = []
    for i in range(n_ops):
        speaker = REVIEWER_SPEAKERS[i % len(REVIEWER_SPEAKERS)]
        dim = list(Dimension)[int(rng.integers(0, 4))]
        rid = len(nodes)
        rev_ids.append(rid)
        nodes.append(
            Node(rid, NodeType.REVIEWER_OPINION, f"Reviewer point {i} of {graph_id}",
                 speaker=speaker, dimension=dim)
        )
        edges.append(Edge(rid, DIMENSION_NODE_IDS[dim], RelationType.REVIEWED_BY))
        aid = len(nodes)
        nodes.append(
            Node(aid, NodeType.AUTHOR_OPINION, f"Author answer {i} of {graph_id}",
                 speaker=AUTHOR_SPEAKER)
        )
        if rng.random() < 0.5:
            rel = RelationType.ACCEPT
            n_accept += 1
        else:
            rel = RelationType.REJECT
        edges.append(Edge(rid, aid, rel))

    for i in range(1, len(rev_ids), 2):
        rel = INTER_REVIEWER_RELATIONS[int(rng.integers(0, len(INTER_REVIEWER_RELATIONS)))]
        edges.append(Edge(rev_ids[i - 1], rev_ids[i], rel))

    label = LABEL_ACCEPT if n_accept * 2 > n_ops else LABEL_REJECT
    return assemble(graph_id, nodes, edges, label)


def generate_rule_dataset(
    n: int,
    seed: int,
    input_dim: int,
    n_opinions: tuple[int, int] = (4, 12),
) -> list[GraphExample]:
    examples = []
    for i in range(n):
        g = rule_labeled_graph(seed * 100003 + i, f"rule-{seed}-{i}", n_opinions)
        examples.append(GraphExample(graph=g, embeddings=embeddings_for(g, input_dim, seed),
                                     label=g.label))
    return examples

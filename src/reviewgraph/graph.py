"""Heterogeneous debate-graph data model, schema validation, and ablation transforms.

The graph connects one title node, four evaluation-dimension nodes, and the
opinion nodes of three reviewers and one author through a fixed set of typed
relations. Every edge must match one of the legal meta-relations
(source node type, relation, target node type); inverse edges are stored
explicitly with an ``inverse`` flag so that every node can receive messages.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np


class GraphError(Exception):
    """Base class for debate-graph errors."""


class UnknownNodeId(GraphError):
    pass


class EmptyAblationResult(GraphError):
    pass


class CorruptGraph(GraphError):
    """A graph file that does not parse into a graph."""

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"{path}: corrupt graph file: {reason}")
        self.path = Path(path)


class NodeType(Enum):
    TITLE = "title"
    EVALUATION_DIMENSION = "evaluation_dimension"
    REVIEWER_OPINION = "reviewer_opinion"
    AUTHOR_OPINION = "author_opinion"


class Dimension(Enum):
    METHODOLOGICAL_NOVELTY = "methodological_novelty"
    EXPERIMENTAL_COMPLETENESS = "experimental_completeness"
    MOTIVATION_CLARITY = "motivation_clarity"
    WRITING_FLUENCY = "writing_fluency"


#: Human-readable dimension names, used as the text of dimension nodes.
DIMENSION_LABELS: dict[Dimension, str] = {
    Dimension.METHODOLOGICAL_NOVELTY: "Methodological Novelty",
    Dimension.EXPERIMENTAL_COMPLETENESS: "Experimental Completeness",
    Dimension.MOTIVATION_CLARITY: "Motivation Clarity",
    Dimension.WRITING_FLUENCY: "Writing Fluency",
}


class RelationType(Enum):
    # structural
    HAS_ASPECT = "has_aspect"
    REVIEWED_BY = "reviewed_by"
    # inter-reviewer
    AGREE = "agree"
    DISAGREE = "disagree"
    COMPLEMENT = "complement"
    PROGRESSIVE = "progressive"
    INDEPENDENT = "independent"
    # reviewer-author
    ACCEPT = "accept"
    REJECT = "reject"
    CLARIFY = "clarify"
    COMPROMISE = "compromise"
    EXTEND = "extend"
    NEUTRAL = "neutral"
    # homogeneous-ablation only
    CONNECTED = "connected"


STRUCTURAL_RELATIONS = (RelationType.HAS_ASPECT, RelationType.REVIEWED_BY)
INTER_REVIEWER_RELATIONS = (
    RelationType.AGREE,
    RelationType.DISAGREE,
    RelationType.COMPLEMENT,
    RelationType.PROGRESSIVE,
    RelationType.INDEPENDENT,
)
REVIEWER_AUTHOR_RELATIONS = (
    RelationType.ACCEPT,
    RelationType.REJECT,
    RelationType.CLARIFY,
    RelationType.COMPROMISE,
    RelationType.EXTEND,
    RelationType.NEUTRAL,
)

#: All forward relations of the heterogeneous schema, in a fixed order.
FORWARD_RELATIONS = STRUCTURAL_RELATIONS + INTER_REVIEWER_RELATIONS + REVIEWER_AUTHOR_RELATIONS

#: Position of each relation in ``RelationType``; orders incoming edges.
REL_ORDINAL = {r: i for i, r in enumerate(RelationType)}

#: Codes of ``DebateGraph.codes``, keyed by ``_name_`` (hashing a member runs
#: Python code). An edge's code ``REL_CODE + inverse`` orders like (ordinal, inverse).
TYPE_CODE = {t._name_: i for i, t in enumerate(NodeType)}
REL_CODE = {r._name_: 2 * i for r, i in REL_ORDINAL.items()}

REVIEWER_SPEAKERS = ("reviewer_1", "reviewer_2", "reviewer_3")
AUTHOR_SPEAKER = "author"
ALL_SPEAKERS = REVIEWER_SPEAKERS + (AUTHOR_SPEAKER,)

OPINION_NODE_TYPES = (NodeType.REVIEWER_OPINION, NodeType.AUTHOR_OPINION)

LABEL_ACCEPT = "accept"
LABEL_REJECT = "reject"
DECISION_LABELS = (LABEL_ACCEPT, LABEL_REJECT)


class AblationMode(Enum):
    FULL = "full"
    NO_TITLE = "no_title"
    NO_EVAL = "no_eval"
    NO_RAR = "no_rar"
    NO_IRR = "no_irr"
    HOMOGENEOUS = "homogeneous"


def legal_meta_relations() -> frozenset[tuple[NodeType, RelationType, NodeType]]:
    """The 13 legal forward (source type, relation, target type) triples.

    Inverse edges are legal exactly when the swapped triple is in this set.
    """
    triples = [
        (NodeType.TITLE, RelationType.HAS_ASPECT, NodeType.EVALUATION_DIMENSION),
        (NodeType.REVIEWER_OPINION, RelationType.REVIEWED_BY, NodeType.EVALUATION_DIMENSION),
    ]
    for r in INTER_REVIEWER_RELATIONS:
        triples.append((NodeType.REVIEWER_OPINION, r, NodeType.REVIEWER_OPINION))
    for r in REVIEWER_AUTHOR_RELATIONS:
        triples.append((NodeType.REVIEWER_OPINION, r, NodeType.AUTHOR_OPINION))
    return frozenset(triples)


_LEGAL_FORWARD = legal_meta_relations()


@dataclass(frozen=True)
class Node:
    id: int
    node_type: NodeType
    text: str
    speaker: str | None = None
    dimension: Dimension | None = None


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    relation: RelationType
    inverse: bool = False


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class DebateGraph:
    """Immutable typed debate graph."""

    graph_id: str
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    label: str | None = None
    #: old id -> new id mapping recorded by apply_ablation; not serialized.
    id_map: Mapping[int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise UnknownNodeId(f"no node with id {node_id}")

    def nodes_of_type(self, node_type: NodeType) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.node_type == node_type)

    @functools.cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(type_code, edge_rows)``, computed once per graph and read-only:
        each node's ``TYPE_CODE`` in node-id order, and one
        ``(dst, src, REL_CODE + inverse)`` row per edge in ``edges`` order."""
        # flat lists: NumPy converts them faster than lists of tuples
        order = np.argsort(np.array([n.id for n in self.nodes], dtype=np.intp))
        type_code = np.array([TYPE_CODE[n.node_type._name_] for n in self.nodes],
                             dtype=np.intp)[order]
        edge_rows = np.array([v for e in self.edges
                              for v in (e.dst, e.src, REL_CODE[e.relation._name_] + e.inverse)],
                             dtype=np.intp).reshape(-1, 3)
        type_code.flags.writeable = edge_rows.flags.writeable = False
        return type_code, edge_rows


def incoming(g: DebateGraph, t: int) -> tuple[tuple[int, RelationType, bool], ...]:
    """Incoming (source id, relation, inverse) entries of node ``t``.

    Deterministic order: sorted by (source id, relation ordinal, inverse flag).
    """
    g.node(t)
    entries = [(e.src, e.relation, e.inverse) for e in g.edges if e.dst == t]
    return tuple(sorted(entries, key=lambda x: (x[0], REL_ORDINAL[x[1]], x[2])))


def edge_meta(g: DebateGraph, e: Edge) -> tuple[NodeType, RelationType, NodeType, bool]:
    """The meta-relation of an edge, with source/target in forward orientation."""
    return _oriented(g.node(e.src).node_type, g.node(e.dst).node_type, e)


def _oriented(src_t: NodeType, dst_t: NodeType,
              e: Edge) -> tuple[NodeType, RelationType, NodeType, bool]:
    if e.inverse:
        return (dst_t, e.relation, src_t, True)
    return (src_t, e.relation, dst_t, False)


def validate_graph(g: DebateGraph, mode: AblationMode = AblationMode.FULL) -> ValidationReport:
    """Check all graph invariants under the given ablation mode's schema.

    Never raises; every problem is reported as a violation string.
    """
    violations: list[str] = []
    ids = [n.id for n in g.nodes]
    by_id = {n.id: n for n in g.nodes}
    if len(set(ids)) != len(ids):
        violations.append("duplicate node ids")
    if sorted(ids) != list(range(len(ids))):
        violations.append("node ids are not dense 0..N-1")

    for n in g.nodes:
        if not n.text.strip():
            violations.append(f"node {n.id}: empty text")
        is_opinion = n.node_type in OPINION_NODE_TYPES
        if is_opinion and n.speaker is None:
            violations.append(f"node {n.id}: opinion node without speaker")
        if not is_opinion and n.speaker is not None:
            violations.append(f"node {n.id}: non-opinion node with speaker")
        if n.speaker is not None and n.speaker not in ALL_SPEAKERS:
            violations.append(f"node {n.id}: unknown speaker {n.speaker!r}")
        if n.node_type == NodeType.REVIEWER_OPINION:
            if n.speaker not in REVIEWER_SPEAKERS:
                violations.append(f"node {n.id}: reviewer opinion with speaker {n.speaker!r}")
            if n.dimension is None and mode != AblationMode.NO_EVAL:
                violations.append(f"node {n.id}: reviewer opinion without dimension")
        elif n.dimension is not None:
            violations.append(f"node {n.id}: dimension set on {n.node_type.value} node")
        if n.node_type == NodeType.AUTHOR_OPINION and n.speaker != AUTHOR_SPEAKER:
            violations.append(f"node {n.id}: author opinion with speaker {n.speaker!r}")

    titles = g.nodes_of_type(NodeType.TITLE)
    if mode not in (AblationMode.NO_TITLE, AblationMode.HOMOGENEOUS) and len(titles) != 1:
        violations.append(f"expected exactly one title node, found {len(titles)}")
    if mode == AblationMode.NO_TITLE and titles:
        violations.append("title node present after no_title ablation")

    dims = g.nodes_of_type(NodeType.EVALUATION_DIMENSION)
    if mode not in (AblationMode.NO_EVAL, AblationMode.HOMOGENEOUS):
        # dimension identity of these nodes is carried by their text
        texts = sorted(n.text for n in dims)
        expected = sorted(DIMENSION_LABELS.values())
        if len(dims) != 4 or texts != expected:
            violations.append("expected exactly four dimension nodes, one per variant")
    if mode == AblationMode.NO_EVAL and dims:
        violations.append("dimension nodes present after no_eval ablation")

    seen: set[tuple[int, int, RelationType, bool]] = set()
    for e in g.edges:
        key = (e.src, e.dst, e.relation, e.inverse)
        if key in seen:
            violations.append(f"duplicate edge {key}")
        seen.add(key)
        if e.src not in by_id or e.dst not in by_id:
            violations.append(f"edge ({e.src}, {e.dst}, {e.relation.value}): unknown endpoint")
            continue
        if mode == AblationMode.HOMOGENEOUS:
            if e.relation != RelationType.CONNECTED:
                violations.append(
                    f"edge ({e.src}, {e.dst}): relation {e.relation.value} in homogenized graph"
                )
            continue
        if e.relation == RelationType.CONNECTED:
            violations.append(f"edge ({e.src}, {e.dst}): connected outside homogenized graph")
            continue
        src_t, rel, dst_t, _ = _oriented(by_id[e.src].node_type, by_id[e.dst].node_type, e)
        if (src_t, rel, dst_t) not in _LEGAL_FORWARD:
            violations.append(
                "illegal meta-relation "
                f"({src_t.value}, {rel.value}, {dst_t.value}, inverse={e.inverse})"
            )
        if mode == AblationMode.NO_RAR and rel in REVIEWER_AUTHOR_RELATIONS:
            violations.append(f"reviewer-author edge present after no_rar ablation: {key}")
        if mode == AblationMode.NO_IRR and rel in INTER_REVIEWER_RELATIONS:
            violations.append(f"inter-reviewer edge present after no_irr ablation: {key}")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def apply_ablation(g: DebateGraph, mode: AblationMode) -> DebateGraph:
    """Return the ablated graph; node ids are re-densified.

    The old id -> new id mapping is recorded on the result's ``id_map`` field.
    ``FULL`` is the identity and returns ``g`` itself.
    """
    if mode == AblationMode.FULL:
        return g

    if mode == AblationMode.HOMOGENEOUS:
        seen: set[tuple[int, int, bool]] = set()
        edges = []
        for e in g.edges:
            key = (e.src, e.dst, e.inverse)
            if key in seen:
                continue
            seen.add(key)
            edges.append(Edge(e.src, e.dst, RelationType.CONNECTED, e.inverse))
        return DebateGraph(
            graph_id=g.graph_id,
            nodes=g.nodes,
            edges=tuple(edges),
            label=g.label,
            id_map={n.id: n.id for n in g.nodes},
        )

    if mode == AblationMode.NO_RAR:
        drop_rel = set(REVIEWER_AUTHOR_RELATIONS)
    elif mode == AblationMode.NO_IRR:
        drop_rel = set(INTER_REVIEWER_RELATIONS)
    else:
        drop_rel = set()

    if mode == AblationMode.NO_TITLE:
        drop_type = {NodeType.TITLE}
    elif mode == AblationMode.NO_EVAL:
        drop_type = {NodeType.EVALUATION_DIMENSION}
    else:
        drop_type = set()

    kept_nodes = [n for n in g.nodes if n.node_type not in drop_type]
    if not kept_nodes:
        raise EmptyAblationResult(f"{mode.value} ablation removed every node of {g.graph_id}")
    id_map = {n.id: new_id for new_id, n in enumerate(kept_nodes)}
    nodes = tuple(
        Node(id_map[n.id], n.node_type, n.text, n.speaker, n.dimension) for n in kept_nodes
    )
    edges = tuple(
        Edge(id_map[e.src], id_map[e.dst], e.relation, e.inverse)
        for e in g.edges
        if e.relation not in drop_rel and e.src in id_map and e.dst in id_map
    )
    return DebateGraph(
        graph_id=g.graph_id, nodes=nodes, edges=edges, label=g.label, id_map=id_map
    )


def graph_to_dict(g: DebateGraph) -> dict:
    return {
        "graph_id": g.graph_id,
        "label": g.label,
        "nodes": [
            {
                "id": n.id,
                "type": n.node_type.value,
                "text": n.text,
                "speaker": n.speaker,
                "dimension": n.dimension.value if n.dimension else None,
            }
            for n in g.nodes
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "relation": e.relation.value, "inverse": e.inverse}
            for e in g.edges
        ],
    }


_NODE_TYPES = {t.value: t for t in NodeType}
_DIMENSIONS = {d.value: d for d in Dimension}
_RELATIONS = {r.value: r for r in RelationType}


def graph_from_dict(d: dict) -> DebateGraph:
    """Inverse of ``graph_to_dict``; an unknown enum value raises ``KeyError``."""
    nodes = tuple(
        Node(
            id=nd["id"],
            node_type=_NODE_TYPES[nd["type"]],
            text=nd["text"],
            speaker=nd.get("speaker"),
            dimension=_DIMENSIONS[nd["dimension"]] if nd.get("dimension") else None,
        )
        for nd in d["nodes"]
    )
    edges = tuple(
        Edge(ed["src"], ed["dst"], _RELATIONS[ed["relation"]], bool(ed.get("inverse", False)))
        for ed in d["edges"]
    )
    return DebateGraph(graph_id=d["graph_id"], nodes=nodes, edges=edges, label=d.get("label"))


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """Yield a fresh ``<path>.tmp`` to write; it replaces ``path`` when the
    block succeeds and is removed when it fails, so ``path`` is only ever
    absent, the old file, or the complete new one."""
    tmp = Path(f"{path}.tmp")
    tmp.unlink(missing_ok=True)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_graph(g: DebateGraph, path: str | Path) -> None:
    text = json.dumps(graph_to_dict(g), indent=2, sort_keys=True) + "\n"
    with replacing(path) as tmp, open(tmp, "w") as fh:
        fh.write(text)


def load_graph(path: str | Path) -> DebateGraph:
    """Read a graph file; a file that does not parse raises ``CorruptGraph``."""
    try:
        return graph_from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise CorruptGraph(path, f"{type(exc).__name__}: {exc}") from exc


def edge_counts_by_group(g: DebateGraph) -> dict[str, int]:
    """Forward-edge counts per relation group (inverse edges excluded)."""
    counts = {"structural": 0, "inter_reviewer": 0, "reviewer_author": 0, "connected": 0}
    for e in g.edges:
        if e.inverse:
            continue
        if e.relation in STRUCTURAL_RELATIONS:
            counts["structural"] += 1
        elif e.relation in INTER_REVIEWER_RELATIONS:
            counts["inter_reviewer"] += 1
        elif e.relation in REVIEWER_AUTHOR_RELATIONS:
            counts["reviewer_author"] += 1
        else:
            counts["connected"] += 1
    return counts


#: Node id of each dimension node; every built graph starts with the title
#: node 0 and these four.
DIMENSION_NODE_IDS: dict[Dimension, int] = {d: i for i, d in enumerate(Dimension, start=1)}


def skeleton(title: str) -> tuple[list[Node], list[Edge]]:
    """The title node, the four dimension nodes, and the title's
    ``has_aspect`` edge to each of them: what every debate graph starts with."""
    nodes = [Node(0, NodeType.TITLE, title)]
    nodes += [Node(i, NodeType.EVALUATION_DIMENSION, DIMENSION_LABELS[d])
              for d, i in DIMENSION_NODE_IDS.items()]
    edges = [Edge(0, i, RelationType.HAS_ASPECT) for i in DIMENSION_NODE_IDS.values()]
    return nodes, edges


def assemble(graph_id: str, nodes: Iterable[Node], edges: Iterable[Edge],
             label: str | None = None, add_inverse_edges: bool = True) -> DebateGraph:
    """The graph over ``nodes`` and the forward ``edges`` in order, a repeated
    edge kept once; with ``add_inverse_edges`` the inverse of every kept edge
    follows them, in the same order."""
    edges = tuple(dict.fromkeys(edges))
    if add_inverse_edges:
        edges += tuple(Edge(e.dst, e.src, e.relation, inverse=True) for e in edges)
    return DebateGraph(graph_id=graph_id, nodes=tuple(nodes), edges=edges, label=label)


def build_minimal_graph(graph_id: str, title: str, label: str | None = None,
                        add_inverse_edges: bool = True) -> DebateGraph:
    """Smallest schema-complete graph: one title, four dimensions, has-aspect edges."""
    return assemble(graph_id, *skeleton(title), label, add_inverse_edges)

"""Heterogeneous debate-graph data model, schema validation, and ablation transforms.

The graph connects one title node, four evaluation-dimension nodes, and the
opinion nodes of three reviewers and one author through a fixed set of typed
relations. Every edge must match one of the legal meta-relations
(source node type, relation, target node type); inverse edges are stored
explicitly with an ``inverse`` flag so that every node can receive messages.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import typing
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np


class GraphError(Exception):
    """Base class for debate-graph errors."""


class EmptyAblationResult(GraphError):
    pass


class OlderForm(Exception):
    """A file of an older on-disk form, which the stage that writes it rewrites;
    the message names neither the file nor the stage, which the caller knows."""


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

#: Codes of ``DebateGraph.codes``, keyed by ``_name_`` (hashing a member runs
#: Python code). An edge's code ``REL_CODE + inverse`` orders like (position of
#: the relation in ``RelationType``, inverse).
TYPE_CODE = {t._name_: i for i, t in enumerate(NodeType)}
REL_CODE = {r._name_: 2 * i for i, r in enumerate(RelationType)}

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


#: What each ablation removes: its name for the removed part in validation
#: messages, the node types it drops with their edges, and the relations it
#: drops. ``FULL`` removes nothing; ``HOMOGENEOUS`` relabels every relation.
ABLATION_DROPS: dict[AblationMode, tuple[str, tuple[NodeType, ...], tuple[RelationType, ...]]] = {
    AblationMode.NO_TITLE: ("title node", (NodeType.TITLE,), ()),
    AblationMode.NO_EVAL: ("dimension nodes", (NodeType.EVALUATION_DIMENSION,), ()),
    AblationMode.NO_RAR: ("reviewer-author edge", (), REVIEWER_AUTHOR_RELATIONS),
    AblationMode.NO_IRR: ("inter-reviewer edge", (), INTER_REVIEWER_RELATIONS),
}


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


class Node(NamedTuple):
    id: int
    node_type: NodeType
    text: str
    speaker: str | None = None
    dimension: Dimension | None = None


class Edge(NamedTuple):
    src: int
    dst: int
    relation: RelationType
    inverse: bool = False


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


class DebateGraph:
    """Immutable typed debate graph.

    A graph built from ``Node`` and ``Edge`` tuples keeps them as given. A
    graph read from a file (``load_graph``) holds the file's ``codes``,
    ``texts``, ``text_keys`` and node codes, and builds its ``nodes`` (in id
    order) and ``edges`` from those on first use: the model reads only
    ``codes``, and the embedding lookup only ``text_keys``. Either way, two
    graphs are equal when their ids, nodes, edges and labels are.
    """

    graph_id: str
    label: str | None

    def __init__(self, graph_id: str, nodes: tuple[Node, ...], edges: tuple[Edge, ...],
                 label: str | None = None) -> None:
        vars(self).update(graph_id=graph_id, nodes=nodes, edges=edges, label=label)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.graph_id, self.nodes, self.edges, self.label

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "DebateGraph(graph_id={!r}, nodes={!r}, edges={!r}, label={!r})".format(
            *self._key())

    @functools.cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The nodes in listed order; a loaded graph builds them, in id order, on first use."""
        types, speakers, dims = self.node_codes.tolist()
        return tuple(map(Node._make, zip(
            range(len(types)), [_NODE_TYPE_OF_CODE[t] for t in types], self.texts,
            [_SPEAKER_OF_CODE[s] for s in speakers], [_DIMENSION_OF_CODE[d] for d in dims])))

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in listed order; a loaded graph builds them on first use."""
        dst, src, code = self.codes[1].T.tolist()
        return tuple(map(Edge._make, zip(src, dst, [_RELATION_OF_CODE[c >> 1] for c in code],
                                         [bool(c & 1) for c in code])))

    @property
    def num_nodes(self) -> int:
        return len(self.codes[0])

    def nodes_of_type(self, node_type: NodeType) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.node_type == node_type)

    @functools.cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(type_code, edge_rows)``, read-only and computed once per graph
        (``load_graph`` fills them at load): each node's ``TYPE_CODE`` in
        node-id order, and one ``(dst, src, REL_CODE + inverse)`` row per edge
        in edge order. An edge endpoint that is not a node id raises ``ValueError``."""
        type_code = self.node_codes[0].astype(np.intp)
        src, dst, relations, inverse = list(zip(*self.edges)) or ((), (), (), ())
        edge_rows = np.array([dst, src, [REL_CODE[r._name_] + i
                                         for r, i in zip(relations, inverse)]], dtype=np.intp).T
        if len(edge_rows) and (edge_rows[:, :2].min() < 0
                               or edge_rows[:, :2].max() >= len(type_code)):
            raise ValueError("edge endpoint is not a node id")
        type_code.flags.writeable = edge_rows.flags.writeable = False
        return type_code, edge_rows

    @functools.cached_property
    def texts(self) -> tuple[str, ...]:
        """Each node's text in node-id order (``load_graph`` fills them at load)."""
        return tuple(n.text for n in sorted(self.nodes, key=lambda n: n.id))

    @functools.cached_property
    def text_keys(self) -> np.ndarray:
        """Each node's ``text_key`` in node-id order, as an ``(N,)`` ``V32``
        array: the keys of its rows in an embedding cache (``load_graph``
        takes them from the file, as a read-only view of its bytes)."""
        return np.array([text_key(t) for t in self.texts], dtype="V32")

    @functools.cached_property
    def node_codes(self) -> np.ndarray:
        """Each node's type, speaker and dimension code in node-id order, as a
        ``(3, N)`` uint8 array: ``TYPE_CODE``, then 0 for no speaker (no
        dimension) or 1 + its position in ``ALL_SPEAKERS`` (in ``Dimension``);
        ``load_graph`` fills it at load. Ids that are not 0..N-1, each once,
        raise ``ValueError``."""
        by_id = sorted(self.nodes, key=lambda n: n.id)
        if [n.id for n in by_id] != list(range(len(by_id))):
            raise ValueError("node ids are not 0..N-1, each once")
        return np.array([[TYPE_CODE[n.node_type._name_] for n in by_id],
                         [_SPEAKER_OF_CODE.index(n.speaker) for n in by_id],
                         [_DIMENSION_OF_CODE.index(n.dimension) for n in by_id]],
                        dtype=np.uint8).reshape(3, len(by_id))


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

    dims = g.nodes_of_type(NodeType.EVALUATION_DIMENSION)
    if mode not in (AblationMode.NO_EVAL, AblationMode.HOMOGENEOUS):
        # dimension identity of these nodes is carried by their text
        texts = sorted(n.text for n in dims)
        expected = sorted(DIMENSION_LABELS.values())
        if len(dims) != 4 or texts != expected:
            violations.append("expected exactly four dimension nodes, one per variant")
    dropped, drop_types, drop_relations = ABLATION_DROPS.get(mode, ("", (), ()))
    if any(n.node_type in drop_types for n in g.nodes):
        violations.append(f"{dropped} present after {mode.value} ablation")

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
        src_t, dst_t = by_id[e.src].node_type, by_id[e.dst].node_type
        if e.inverse:  # the meta-relation in forward orientation
            src_t, dst_t = dst_t, src_t
        if (src_t, e.relation, dst_t) not in _LEGAL_FORWARD:
            violations.append(
                "illegal meta-relation "
                f"({src_t.value}, {e.relation.value}, {dst_t.value}, inverse={e.inverse})"
            )
        if e.relation in drop_relations:
            violations.append(f"{dropped} present after {mode.value} ablation: {key}")

    return ValidationReport(ok=not violations, violations=tuple(violations))


def apply_ablation(g: DebateGraph, mode: AblationMode) -> DebateGraph:
    """Return the ablated graph, with node ids re-densified; ``FULL`` is the
    identity and returns ``g`` itself."""
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
        return DebateGraph(graph_id=g.graph_id, nodes=g.nodes, edges=tuple(edges), label=g.label)

    _, drop_types, drop_relations = ABLATION_DROPS[mode]
    kept_nodes = [n for n in g.nodes if n.node_type not in drop_types]
    if not kept_nodes:
        raise EmptyAblationResult(f"{mode.value} ablation removed every node of {g.graph_id}")
    id_map = {n.id: new_id for new_id, n in enumerate(kept_nodes)}
    nodes = tuple(
        Node(id_map[n.id], n.node_type, n.text, n.speaker, n.dimension) for n in kept_nodes
    )
    edges = tuple(
        Edge(id_map[e.src], id_map[e.dst], e.relation, e.inverse)
        for e in g.edges
        if e.relation not in drop_relations and e.src in id_map and e.dst in id_map
    )
    return DebateGraph(graph_id=g.graph_id, nodes=nodes, edges=edges, label=g.label)


_NODE_TYPE_OF_CODE = tuple(NodeType)
_RELATION_OF_CODE = tuple(RelationType)
_SPEAKER_OF_CODE = (None,) + ALL_SPEAKERS
_DIMENSION_OF_CODE = (None,) + tuple(Dimension)


def text_key(text: str) -> bytes:
    """The SHA-256 digest of ``text`` as UTF-8, a lone surrogate passed as its
    three bytes: the key of a text's embedding, in a cache and in a graph
    file, and the seed of every hash the program derives from a text. For
    text without lone surrogates these are its plain UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()


def require_str(what: str, *values: object) -> None:
    """Raise ``TypeError`` unless every value is a ``str``: the check a decoder
    makes of a document's text fields before anything uses them."""
    if not set(map(type, values)) <= {str}:
        raise TypeError(f"{what} must be a string")


#: What each annotated field type is called and the JSON values it takes: a
#: float field also takes an integer that a float can hold, and no number
#: field takes true or false.
_FIELD_VALUES = {bool: ("true or false", (bool,)), int: ("an integer", (int,)),
                 float: ("a float64 number", (int, float)), str: ("a string", (str,))}


#: Each config class's resolved annotations; resolving evaluates their strings.
_type_hints = functools.cache(typing.get_type_hints)


def require_field_types(section: str, cls: type, values: object) -> None:
    """Raise ``TypeError`` naming ``section`` and the first field of the JSON
    object ``values`` whose value is not of its ``cls`` field's annotated
    type: the check made of a run config's sections, and of a checkpoint's
    manifest and configs, before they are built. Unknown fields are left to
    ``cls``."""
    if not isinstance(values, dict):
        raise TypeError(f"{section} must be a JSON object")
    hints = _type_hints(cls)
    for name, value in values.items():
        kind = hints.get(name)
        if kind not in _FIELD_VALUES:
            continue
        wanted, types = _FIELD_VALUES[kind]
        if not isinstance(value, types) or kind is not bool and isinstance(value, bool) \
                or kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise TypeError(f"{section}.{name} must be {wanted}, not {json.dumps(value)}")


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


def compact_json(obj: dict | list) -> str:
    """``obj`` as one line of compact sorted-key JSON, the form of every
    pipeline artifact: CPython encodes it in C, which it does not with ``indent``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def parse_json(data: str | bytes, **options) -> object:
    """The value of the JSON document ``data``, bytes decoded as strict UTF-8
    whatever the locale (RFC 8259 §8.1); ``options`` go to ``json.loads``.
    Every failure, nesting too deep to parse included, is a ``ValueError``."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data, **options)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def pack(magic: bytes, header: bytes, *blocks) -> bytes:
    """The framing of graph files and checkpoints: ``magic``, the length of
    ``header`` (an encoded JSON object) as a little-endian uint32, ``header``,
    then each of ``blocks`` (bytes-like) in order."""
    return b"".join((magic, len(header).to_bytes(4, "little"), header, *blocks))


def unpack(data: bytes, magic: bytes) -> tuple[dict, int]:
    """The header of ``pack``'s bytes ``data`` and the offset where its blocks start. Bytes
    that do not start with ``magic`` or end inside the header raise ``ValueError``, as does a
    header that is not JSON (``parse_json``); one not a JSON object raises ``TypeError``."""
    if not data.startswith(magic):
        raise ValueError("bad magic header")
    at = len(magic) + 4  # after the magic and the header length
    start = at + int.from_bytes(data[len(magic):at], "little")
    if len(data) < start:
        raise ValueError(f"header cut short: {len(data)} bytes, the header ends at byte {start}")
    header = parse_json(data[at:start])
    if not isinstance(header, dict):
        raise TypeError("header is not a JSON object")
    return header, start


#: A graph file starts with this versioned magic, whose first byte never
#: starts UTF-8 text, so no JSON graph of an older form passes for one.
_GRAPH_MAGIC = b"\x89RGGRF2\n"
#: One past the largest legal code of each row of ``DebateGraph.node_codes``.
_NODE_CODE_LIMITS = {"type": len(NodeType), "speaker": len(_SPEAKER_OF_CODE),
                     "dimension": len(_DIMENSION_OF_CODE)}


def graph_to_bytes(g: DebateGraph) -> bytes:
    """``g`` as a graph file, ``pack``ed: the magic, a compact sorted-key JSON
    header (``graph_id``, ``label``, ``num_nodes``, ``num_edges``, and
    ``texts`` in node-id order), then the array block: ``node_codes`` by row,
    ``codes``' edge rows in listed order, and the 32-byte ``text_keys`` in
    node-id order."""
    type_code, edge_rows = g.codes
    header = compact_json({"graph_id": g.graph_id, "label": g.label, "texts": list(g.texts),
                           "num_nodes": len(type_code), "num_edges": len(edge_rows)}).encode()
    return pack(_GRAPH_MAGIC, header, g.node_codes.tobytes(), edge_rows.astype("<u4").tobytes(),
                g.text_keys.tobytes())


def save_graph(g: DebateGraph, path: str | Path) -> None:
    """Write ``g`` as a graph file (``graph_to_bytes``) through ``replacing``,
    so that ``path`` is never a partial graph."""
    data = graph_to_bytes(g)
    with replacing(path) as out, open(out, "wb") as fh:
        fh.write(data)


def _graph_from_bytes(data: bytes) -> DebateGraph:
    """The graph of a graph file's bytes, with ``codes``, ``texts``,
    ``text_keys`` and ``node_codes`` filled and no ``Node`` or ``Edge``
    built; the keys are read, not recomputed. Bytes that are not such a
    file, with its header's fields of their types, an array block of the
    size its counts give, and every code and edge endpoint in range, raise
    ``KeyError``, ``TypeError`` or ``ValueError``; a graph file of an older
    form or version raises ``OlderForm``. Whether the edges fit the schema is
    ``validate_graph``'s job."""
    # JSON never starts with the magic's first byte; another version's magic differs in byte 6
    if not data.startswith(_GRAPH_MAGIC) and (
            data[:1] not in (b"", _GRAPH_MAGIC[:1])
            or len(data) >= len(_GRAPH_MAGIC) and data[:6] == _GRAPH_MAGIC[:6]):
        raise OlderForm(
            "not a binary graph file of this version (one of an older version, or a JSON one?)")
    header, start = unpack(data, _GRAPH_MAGIC)
    n, m, texts = header["num_nodes"], header["num_edges"], header["texts"]
    if not {type(n), type(m)} <= {int} or min(n, m) < 0:
        raise TypeError("num_nodes and num_edges must be non-negative integers")
    require_str("graph_id", header["graph_id"])
    if header["label"] is not None:
        require_str("label", header["label"])
    if type(texts) is not list or len(texts) != n:
        raise ValueError(f"texts must be a list of num_nodes ({n}) strings")
    require_str("node text", *texts)
    # three uint8 codes and a 32-byte key per node, three uint32 per edge
    if len(data) - start != 35 * n + 12 * m:
        raise ValueError(f"array block of {len(data) - start} bytes, not the "
                         f"{35 * n + 12 * m} of {n} nodes and {m} edges")
    node_codes = np.frombuffer(data, np.uint8, 3 * n, start).reshape(3, n)
    codes = node_codes[0].astype(np.intp), np.frombuffer(
        data, "<u4", 3 * m, start + 3 * n).reshape(m, 3).astype(np.intp)
    if n:
        for (what, limit), top in zip(_NODE_CODE_LIMITS.items(), node_codes.max(axis=1).tolist()):
            if top >= limit:
                raise ValueError(f"{what} code {top} out of range")
    if m:
        dst_top, src_top, rel_top = codes[1].max(axis=0).tolist()
        if max(dst_top, src_top) >= n:
            raise ValueError("edge endpoint is not a node id")
        if rel_top >= 2 * len(RelationType):
            raise ValueError(f"relation code {rel_top} out of range")
    codes[0].flags.writeable = codes[1].flags.writeable = False
    g = DebateGraph.__new__(DebateGraph)
    # "V32", not "S32": a bytes item would drop a key's trailing NUL bytes
    vars(g).update(graph_id=header["graph_id"], label=header["label"], codes=codes,
                   texts=tuple(texts), node_codes=node_codes,
                   text_keys=np.frombuffer(data, "V32", n, start + 3 * n + 12 * m))
    return g


def load_graph(path: str | Path) -> DebateGraph:
    """Read a graph file that ``save_graph`` wrote, with one ``open``; a file that
    is not one raises what ``_graph_from_bytes`` raises, naming no file. A
    file that cannot be opened raises its ``OSError``."""
    with open(path, "rb") as fh:
        return _graph_from_bytes(fh.read())


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
             label: str | None = None) -> DebateGraph:
    """The graph over ``nodes`` and the forward ``edges`` in order, a repeated
    edge kept once, then the inverse of every kept edge in the same order."""
    edges = tuple(dict.fromkeys(edges))
    edges += tuple(Edge(e.dst, e.src, e.relation, inverse=True) for e in edges)
    return DebateGraph(graph_id=graph_id, nodes=tuple(nodes), edges=edges, label=label)

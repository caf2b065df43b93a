"""Parsers for LLM triple-extraction output and debate-graph instantiation.

The extractor model returns a JSON object with two string arrays,
``Reviewer_Author_Relations`` and ``Inter_Reviewer_Relations``; each element
looks like ``(Reviewer 1: 'comment', Author: 'response', Accept)``. Real
model output mixes quote characters (straight, curly, backticks) and embeds
commas and apostrophes inside the quoted sentences, so parsing anchors on the
``Speaker:`` tags rather than on quote pairing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .graph import (
    AUTHOR_SPEAKER,
    DIMENSION_LABELS,
    DIMENSION_NODE_IDS,
    INTER_REVIEWER_RELATIONS,
    REVIEWER_AUTHOR_RELATIONS,
    REVIEWER_SPEAKERS,
    DebateGraph,
    Dimension,
    Edge,
    Node,
    NodeType,
    RelationType,
    assemble,
    parse_json,
    skeleton,
    validate_graph,
)


class ExtractionError(Exception):
    """Base class for extraction parse errors."""


class MalformedTriple(ExtractionError):
    pass


class WrongGroupSpeaker(ExtractionError):
    pass


class UnknownRelationLabel(ExtractionError):
    def __init__(self, label: str, group: "RelationGroup") -> None:
        super().__init__(f"unknown {group.value} relation label: {label!r}")
        self.label = label


class NotJson(ExtractionError):
    pass


class MissingArrayKey(ExtractionError):
    pass


class TooManyMalformed(ExtractionError):
    pass


class UnknownCategory(ExtractionError):
    pass


class MissingDimensionAssignment(ExtractionError):
    def __init__(self, orphans: list[tuple[str, str]]) -> None:
        super().__init__(
            "reviewer opinions without a dimension assignment: "
            + "; ".join(f"{spk}: {txt[:60]!r}" for spk, txt in orphans)
        )
        self.orphans = orphans


class RelationGroup(Enum):
    REVIEWER_AUTHOR = "reviewer_author"
    INTER_REVIEWER = "inter_reviewer"


@dataclass(frozen=True)
class OpinionTriplet:
    speaker_a: str
    text_a: str
    speaker_b: str
    text_b: str
    relation_label: str
    group: RelationGroup


@dataclass(frozen=True)
class TripleBatch:
    graph_id: str
    reviewer_author: tuple[OpinionTriplet, ...]
    inter_reviewer: tuple[OpinionTriplet, ...]
    #: (group, array index, error message) for skipped elements.
    malformed: tuple[tuple[str, int, str], ...] = ()

    @property
    def triplets(self) -> tuple[OpinionTriplet, ...]:
        return self.reviewer_author + self.inter_reviewer


@dataclass(frozen=True)
class DimensionAssignment:
    speaker: str
    text: str
    dimension: Dimension


_QUOTE_CHARS = "'\"`‘’“”"
_SPEAKER_RE = re.compile(r"(Reviewer\s*([0-9]+)|Author)\s*:")
_LABEL_RE = re.compile(r"^[A-Za-z]+$")

_RA_LABELS = {r.value: r for r in REVIEWER_AUTHOR_RELATIONS}
_IR_LABELS = {r.value: r for r in INTER_REVIEWER_RELATIONS}

RA_ARRAY_KEY = "Reviewer_Author_Relations"
IR_ARRAY_KEY = "Inter_Reviewer_Relations"

_CATEGORY_BY_NORM = {label.lower(): dim for dim, label in DIMENSION_LABELS.items()}


def normalize_text(s: str) -> str:
    """Collapse runs of whitespace; the dedup key for opinion identity."""
    return " ".join(s.split())


def _strip_quoted(s: str) -> str:
    """``s`` without the whitespace and quote characters at either end."""
    while (stripped := s.strip().strip(_QUOTE_CHARS)) != s:
        s = stripped
    return s


def _canonical_speaker(tag: str) -> str:
    tag = tag.strip()
    if tag == "Author":
        return AUTHOR_SPEAKER
    num = tag.split()[-1] if " " in tag else tag.replace("Reviewer", "")
    return f"reviewer_{num.strip()}"


def parse_triple_string(s: str, group: RelationGroup) -> OpinionTriplet:
    """Parse one ``(Speaker: 'text', Speaker: 'text', Label)`` array element."""
    text = s.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise MalformedTriple(f"not parenthesized: {s[:80]!r}")
    inner = text[1:-1]

    anchors = list(_SPEAKER_RE.finditer(inner))
    if len(anchors) < 2:
        raise MalformedTriple(f"expected two speaker tags, found {len(anchors)}: {s[:80]!r}")
    first, second = anchors[0], anchors[1]

    text_a = _strip_quoted(inner[first.end():second.start()].rstrip().rstrip(","))
    tail = inner[second.end():]
    if "," not in tail:
        raise MalformedTriple(f"missing relation label: {s[:80]!r}")
    text_b_raw, label_raw = tail.rsplit(",", 1)
    text_b = _strip_quoted(text_b_raw)
    label = _strip_quoted(label_raw)
    if not _LABEL_RE.match(label):
        raise MalformedTriple(f"bad relation label {label!r} in: {s[:80]!r}")
    if not text_a or not text_b:
        raise MalformedTriple(f"empty opinion text in: {s[:80]!r}")

    speaker_a = _canonical_speaker(first.group(0).rstrip(":").strip())
    speaker_b = _canonical_speaker(second.group(0).rstrip(":").strip())

    if group == RelationGroup.REVIEWER_AUTHOR:
        if speaker_a not in REVIEWER_SPEAKERS or speaker_b != AUTHOR_SPEAKER:
            raise WrongGroupSpeaker(
                f"reviewer-author triple needs (reviewer, author), got "
                f"({speaker_a}, {speaker_b})"
            )
    else:
        if speaker_a not in REVIEWER_SPEAKERS or speaker_b not in REVIEWER_SPEAKERS:
            raise WrongGroupSpeaker(
                f"inter-reviewer triple needs two reviewers, got ({speaker_a}, {speaker_b})"
            )

    return OpinionTriplet(
        speaker_a=speaker_a,
        text_a=normalize_text(text_a),
        speaker_b=speaker_b,
        text_b=normalize_text(text_b),
        relation_label=label,
        group=group,
    )


def canonical_relation(label: str, group: RelationGroup) -> RelationType:
    """Map a raw relation label onto the enum, case-insensitively, per group."""
    table = _RA_LABELS if group == RelationGroup.REVIEWER_AUTHOR else _IR_LABELS
    rel = table.get(label.strip().lower())
    if rel is None:
        raise UnknownRelationLabel(label, group)
    return rel


def parse_triple_batch(data: str | bytes, graph_id: str, strict: bool = False) -> TripleBatch:
    """Parse the extractor's two-array JSON object.

    Malformed elements are skipped and reported in ``batch.malformed``; the
    batch fails hard only if more than half of all elements are malformed.
    With ``strict``, as for a triples file ``batch_to_dict`` wrote, the first
    malformed element raises ``MalformedTriple`` naming its array and index.
    """
    try:
        obj = parse_json(data)
    except ValueError as exc:
        raise NotJson(f"triple batch is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise NotJson("triple batch JSON must be an object")

    parsed: dict[str, list[OpinionTriplet]] = {}
    malformed: list[tuple[str, int, str]] = []
    total = 0
    for key, group in ((RA_ARRAY_KEY, RelationGroup.REVIEWER_AUTHOR),
                       (IR_ARRAY_KEY, RelationGroup.INTER_REVIEWER)):
        if key not in obj or not isinstance(obj[key], list):
            raise MissingArrayKey(f"missing array {key!r}")
        out: list[OpinionTriplet] = []
        for i, element in enumerate(obj[key]):
            total += 1
            try:
                if not isinstance(element, str):
                    raise MalformedTriple(f"array element is not a string: {element!r}")
                out.append(parse_triple_string(element, group))
            except ExtractionError as exc:
                if strict:
                    raise MalformedTriple(f"{key}[{i}]: {exc}") from exc
                malformed.append((group.value, i, str(exc)))
        parsed[key] = out

    if total and len(malformed) * 2 > total:
        raise TooManyMalformed(
            f"{len(malformed)}/{total} elements malformed; first: {malformed[0][2]}"
        )
    return TripleBatch(
        graph_id=graph_id,
        reviewer_author=tuple(parsed[RA_ARRAY_KEY]),
        inter_reviewer=tuple(parsed[IR_ARRAY_KEY]),
        malformed=tuple(malformed),
    )


def batch_to_dict(batch: TripleBatch) -> dict:
    """Serialize back to the extractor's array-of-strings schema."""

    def fmt(t: OpinionTriplet) -> str:
        tag_a = "Author" if t.speaker_a == AUTHOR_SPEAKER else f"Reviewer {t.speaker_a[-1]}"
        tag_b = "Author" if t.speaker_b == AUTHOR_SPEAKER else f"Reviewer {t.speaker_b[-1]}"
        return f"({tag_a}: '{t.text_a}', {tag_b}: '{t.text_b}', {t.relation_label})"

    return {
        RA_ARRAY_KEY: [fmt(t) for t in batch.reviewer_author],
        IR_ARRAY_KEY: [fmt(t) for t in batch.inter_reviewer],
    }


def parse_dimension_reply(data: str) -> Dimension:
    """Parse a ``{"category": "..."}`` classification reply."""
    try:
        obj = parse_json(data)
    except ValueError as exc:
        raise NotJson(f"classification reply is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "category" not in obj:
        raise NotJson("classification reply must be an object with a 'category' key")
    raw = str(obj["category"])
    norm = " ".join(raw.replace("_", " ").replace("-", " ").lower().split())
    dim = _CATEGORY_BY_NORM.get(norm)
    if dim is None:
        raise UnknownCategory(f"unknown category {raw!r}")
    return dim


def reviewer_opinion_keys(batch: TripleBatch) -> list[tuple[str, str]]:
    """Distinct (speaker, text) keys of reviewer opinions, in first appearance order."""
    keys: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for t in batch.triplets:
        for speaker, text in ((t.speaker_a, t.text_a), (t.speaker_b, t.text_b)):
            if speaker in REVIEWER_SPEAKERS and (speaker, text) not in seen:
                seen.add((speaker, text))
                keys.append((speaker, text))
    return keys


def build_graph(
    title: str,
    batch: TripleBatch,
    dims: list[DimensionAssignment],
    *,
    label: str | None = None,
    graph_id: str | None = None,
) -> DebateGraph:
    """Instantiate a debate graph from parsed triples and dimension assignments.

    Node identity is (speaker, whitespace-normalized text); duplicate triples
    collapse to a single edge. Raises MissingDimensionAssignment if any
    distinct reviewer opinion lacks a dimension.
    """
    dim_lookup = {(d.speaker, normalize_text(d.text)): d.dimension for d in dims}
    nodes, edges = skeleton(normalize_text(title))
    opinion_id: dict[tuple[str, str], int] = {}
    orphans: list[tuple[str, str]] = []

    def opinion_node(speaker: str, text: str) -> int:
        key = (speaker, text)
        if key in opinion_id:
            return opinion_id[key]
        node_id = len(nodes)
        if speaker == AUTHOR_SPEAKER:
            nodes.append(Node(node_id, NodeType.AUTHOR_OPINION, text, speaker=speaker))
        else:
            dim = dim_lookup.get(key)
            if dim is None:
                orphans.append(key)
            nodes.append(
                Node(node_id, NodeType.REVIEWER_OPINION, text, speaker=speaker, dimension=dim)
            )
        opinion_id[key] = node_id
        return node_id

    for t in batch.triplets:
        rel = canonical_relation(t.relation_label, t.group)
        src = opinion_node(t.speaker_a, t.text_a)
        dst = opinion_node(t.speaker_b, t.text_b)
        edges.append(Edge(src, dst, rel))

    if orphans:
        raise MissingDimensionAssignment(orphans)

    for node_id in opinion_id.values():
        node = nodes[node_id]
        if node.node_type == NodeType.REVIEWER_OPINION:
            edges.append(Edge(node_id, DIMENSION_NODE_IDS[node.dimension],
                              RelationType.REVIEWED_BY))

    g = assemble(graph_id or batch.graph_id, nodes, edges, label)
    report = validate_graph(g)
    if not report.ok:
        raise ExtractionError(f"built graph failed validation: {report.violations}")
    return g

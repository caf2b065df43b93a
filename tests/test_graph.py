import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pipeline_utils import (columnar_file, columnar_form, cut_in_edge_rows, forward_only,
                            header_edit, header_swap, row_form, set_code, set_column,
                            version_1_file)
from reviewgraph import graph as graphmod
from reviewgraph.extraction import (
    DimensionAssignment,
    build_graph,
    parse_triple_batch,
    reviewer_opinion_keys,
)
from reviewgraph.graph import (
    AblationMode,
    DebateGraph,
    Dimension,
    Edge,
    Node,
    NodeType,
    OlderForm,
    RelationType,
    apply_ablation,
    assemble,
    edge_counts_by_group,
    graph_to_bytes,
    legal_meta_relations,
    load_graph,
    save_graph,
    skeleton,
    validate_graph,
)
from reviewgraph.synth import random_debate_graph, rule_labeled_graph

DATA = Path(__file__).parent / "data"


def tiny_graph(add_inverse=True):
    """Minimal graph plus one reviewer opinion, one author opinion, one RA edge."""
    nodes = [
        Node(0, NodeType.TITLE, "A Paper"),
        Node(1, NodeType.EVALUATION_DIMENSION, "Methodological Novelty"),
        Node(2, NodeType.EVALUATION_DIMENSION, "Experimental Completeness"),
        Node(3, NodeType.EVALUATION_DIMENSION, "Motivation Clarity"),
        Node(4, NodeType.EVALUATION_DIMENSION, "Writing Fluency"),
        Node(5, NodeType.REVIEWER_OPINION, "Needs more experiments.",
             speaker="reviewer_1", dimension=Dimension.EXPERIMENTAL_COMPLETENESS),
        Node(6, NodeType.AUTHOR_OPINION, "We will add them.", speaker="author"),
    ]
    edges = [
        Edge(0, 1, RelationType.HAS_ASPECT),
        Edge(0, 2, RelationType.HAS_ASPECT),
        Edge(0, 3, RelationType.HAS_ASPECT),
        Edge(0, 4, RelationType.HAS_ASPECT),
        Edge(5, 2, RelationType.REVIEWED_BY),
        Edge(5, 6, RelationType.ACCEPT),
    ]
    if add_inverse:
        edges += [Edge(e.dst, e.src, e.relation, inverse=True) for e in list(edges)]
    return DebateGraph(graph_id="tiny", nodes=tuple(nodes), edges=tuple(edges), label="accept")


def test_legal_meta_relations_count():
    assert len(legal_meta_relations()) == 13


def test_validate_minimal_graph():
    g = assemble("m", *skeleton("Some Title"))
    assert validate_graph(g).ok


def test_validate_tiny_graph():
    report = validate_graph(tiny_graph())
    assert report.ok, report.violations


def test_validate_reports_illegal_meta_relation():
    g = tiny_graph(add_inverse=False)
    bad = g.edges + (Edge(6, 5, RelationType.ACCEPT),)  # author -> reviewer, forward
    report = validate_graph(DebateGraph("bad", g.nodes, bad))
    assert not report.ok
    assert any("illegal meta-relation" in v for v in report.violations)


def test_validate_reports_missing_dimension_node():
    g = tiny_graph(add_inverse=False)
    nodes = tuple(n for n in g.nodes if n.id != 4)
    edges = tuple(e for e in g.edges if 4 not in (e.src, e.dst))
    report = validate_graph(DebateGraph("bad", nodes, edges))
    assert not report.ok


def test_validate_reports_duplicate_edge():
    g = tiny_graph(add_inverse=False)
    report = validate_graph(DebateGraph("dup", g.nodes, g.edges + (g.edges[-1],)))
    assert any("duplicate edge" in v for v in report.violations)


def test_validate_connected_only_in_homogeneous_mode():
    g = tiny_graph(add_inverse=False)
    bad = DebateGraph("c", g.nodes, g.edges + (Edge(6, 0, RelationType.CONNECTED),))
    assert not validate_graph(bad).ok
    homog = apply_ablation(g, AblationMode.HOMOGENEOUS)
    assert validate_graph(homog, AblationMode.HOMOGENEOUS).ok


def _edit_node(node_id, **fields):
    """An edit of ``tiny_graph`` that replaces fields of one node."""
    def edit(nodes, edges):
        nodes[node_id] = nodes[node_id]._replace(**fields)
    return edit


def _add(node=None, edge=None):
    """An edit of ``tiny_graph`` that appends a node or an edge."""
    def edit(nodes, edges):
        nodes.extend([node] if node else [])
        edges.extend([edge] if edge else [])
    return edit


ACCEPT = RelationType.ACCEPT
TYPED = AblationMode.FULL

#: One edit of ``tiny_graph`` per violation: (edit, inverse edges, mode, every
#: violation it gives). A few edits cannot break one rule alone.
BROKEN_SCHEMA = {
    "duplicate-node-id": (_add(Node(6, NodeType.AUTHOR_OPINION, "Again.", "author")), True, TYPED,
                          ("duplicate node ids", "node ids are not dense 0..N-1")),
    "ids-not-dense": (_add(Node(8, NodeType.AUTHOR_OPINION, "Later.", "author")), True, TYPED,
                      ("node ids are not dense 0..N-1",)),
    "blank-text": (_edit_node(6, text=" \t"), True, TYPED, ("node 6: empty text",)),
    "opinion-without-speaker": (_edit_node(5, speaker=None), True, TYPED, (
        "node 5: opinion node without speaker", "node 5: reviewer opinion with speaker None")),
    "title-with-speaker": (_edit_node(0, speaker="author"), True, TYPED,
                           ("node 0: non-opinion node with speaker",)),
    "unknown-speaker": (_edit_node(6, speaker="editor"), True, TYPED, (
        "node 6: unknown speaker 'editor'", "node 6: author opinion with speaker 'editor'")),
    "reviewer-opinion-by-author": (_edit_node(5, speaker="author"), True, TYPED,
                                   ("node 5: reviewer opinion with speaker 'author'",)),
    "reviewer-opinion-without-dimension": (_edit_node(5, dimension=None), True, TYPED,
                                           ("node 5: reviewer opinion without dimension",)),
    "author-opinion-with-dimension": (
        _edit_node(6, dimension=Dimension.WRITING_FLUENCY), True, TYPED,
        ("node 6: dimension set on author_opinion node",)),
    "author-opinion-by-reviewer": (_edit_node(6, speaker="reviewer_2"), True, TYPED,
                                   ("node 6: author opinion with speaker 'reviewer_2'",)),
    "two-titles": (_add(Node(7, NodeType.TITLE, "Another Title")), True, TYPED,
                   ("expected exactly one title node, found 2",)),
    "title-after-no-title": (_add(), True, AblationMode.NO_TITLE,
                             ("title node present after no_title ablation",)),
    "renamed-dimension": (_edit_node(4, text="Writing Style"), True, TYPED,
                          ("expected exactly four dimension nodes, one per variant",)),
    "dimensions-after-no-eval": (_add(), True, AblationMode.NO_EVAL,
                                 ("dimension nodes present after no_eval ablation",)),
    "duplicate-edge": (_add(edge=Edge(5, 6, ACCEPT)), True, TYPED,
                       ("duplicate edge (5, 6, <RelationType.ACCEPT: 'accept'>, False)",)),
    "unknown-endpoint": (_add(edge=Edge(5, 9, ACCEPT)), True, TYPED,
                         ("edge (5, 9, accept): unknown endpoint",)),
    "connected-in-typed-graph": (_add(edge=Edge(6, 0, RelationType.CONNECTED)), True, TYPED,
                                 ("edge (6, 0): connected outside homogenized graph",)),
    "illegal-meta-relation": (_add(edge=Edge(6, 5, ACCEPT)), True, TYPED,
                              ("illegal meta-relation "
                               "(author_opinion, accept, reviewer_opinion, inverse=False)",)),
    "reviewer-author-after-no-rar": (
        _add(), False, AblationMode.NO_RAR,
        ("reviewer-author edge present after no_rar ablation: "
         "(5, 6, <RelationType.ACCEPT: 'accept'>, False)",)),
    "inter-reviewer-after-no-irr": (
        _add(edge=Edge(5, 5, RelationType.AGREE)), True, AblationMode.NO_IRR,
        ("inter-reviewer edge present after no_irr ablation: "
         "(5, 5, <RelationType.AGREE: 'agree'>, False)",)),
}


@pytest.mark.parametrize("edit, add_inverse, mode, violations", BROKEN_SCHEMA.values(),
                         ids=BROKEN_SCHEMA.keys())
def test_each_broken_rule_gives_exactly_its_violations(edit, add_inverse, mode, violations):
    g = tiny_graph(add_inverse)
    nodes, edges = list(g.nodes), list(g.edges)
    edit(nodes, edges)
    report = validate_graph(DebateGraph("broken", tuple(nodes), tuple(edges)), mode)
    assert report.violations == violations
    assert not report.ok


def test_typed_relation_in_homogenized_graph_is_its_only_violation():
    homog = apply_ablation(tiny_graph(), AblationMode.HOMOGENEOUS)
    bad = DebateGraph("h", homog.nodes, homog.edges + (Edge(5, 6, ACCEPT),))
    assert validate_graph(bad, AblationMode.HOMOGENEOUS).violations == (
        "edge (5, 6): relation accept in homogenized graph",)


@pytest.mark.parametrize("mode", [AblationMode.NO_TITLE, AblationMode.NO_EVAL])
def test_node_ablations_densify_ids(mode):
    g = tiny_graph()
    out = apply_ablation(g, mode)
    assert sorted(n.id for n in out.nodes) == list(range(len(out.nodes)))
    assert validate_graph(out, mode).ok, validate_graph(out, mode).violations
    dropped = NodeType.TITLE if mode == AblationMode.NO_TITLE else NodeType.EVALUATION_DIMENSION
    assert not out.nodes_of_type(dropped)


def test_relation_ablations_drop_edge_groups():
    g = tiny_graph()
    no_rar = apply_ablation(g, AblationMode.NO_RAR)
    assert edge_counts_by_group(no_rar)["reviewer_author"] == 0
    assert edge_counts_by_group(no_rar)["structural"] == 5
    no_irr = apply_ablation(g, AblationMode.NO_IRR)
    assert edge_counts_by_group(no_irr)["inter_reviewer"] == 0


def test_homogeneous_ablation_keeps_node_metadata():
    g = tiny_graph()
    out = apply_ablation(g, AblationMode.HOMOGENEOUS)
    assert out.nodes == g.nodes  # type info survives in storage
    assert all(e.relation == RelationType.CONNECTED for e in out.edges)
    # parallel edges with different relations collapse per (src, dst, inverse)
    assert len(out.edges) <= len(g.edges)


def test_full_ablation_is_identity():
    g = tiny_graph()
    assert apply_ablation(g, AblationMode.FULL) is g


def test_graph_file_layout():
    """Magic, header length, compact sorted-key JSON header, then the node
    codes by row, one (dst, src, relation code) row per edge, and the
    SHA-256 of each node's text in id order."""
    g = tiny_graph()
    data = graph_to_bytes(g)
    assert data[:8] == b"\x89RGGRF2\n"
    header = (b'{"graph_id":"tiny","label":"accept","num_edges":12,"num_nodes":7,'
              b'"texts":["A Paper","Methodological Novelty","Experimental Completeness",'
              b'"Motivation Clarity","Writing Fluency","Needs more experiments.",'
              b'"We will add them."]}\n')
    assert data[8:12] == len(header).to_bytes(4, "little") and data[12:12 + len(header)] == header
    block = data[12 + len(header):]
    assert block[:21] == bytes([0, 1, 1, 1, 1, 2, 3,  # type
                                0, 0, 0, 0, 0, 1, 4,  # speaker: none, reviewer_1, author
                                0, 0, 0, 0, 0, 2, 0])  # dimension: none, the second
    forward = [[1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0], [2, 5, 2], [6, 5, 14]]
    inverse = [[src, dst, code + 1] for dst, src, code in forward]
    assert block[21:21 + 144] == np.array(forward + inverse, dtype="<u4").tobytes()
    assert block[21 + 144:] == b"".join(hashlib.sha256(n.text.encode()).digest()
                                        for n in g.nodes)


def _non_ascii_graph():
    nodes, edges = skeleton("Débats évalués : un graphe typé — ∑ 𝔾 \ud800")
    nodes += [Node(5, NodeType.REVIEWER_OPINION, "Überzeugend, aber unvollständig.",
                   "reviewer_2", Dimension.WRITING_FLUENCY),
              Node(6, NodeType.AUTHOR_OPINION, "Nous ajouterons des expériences ✓", "author")]
    edges += [Edge(5, 4, RelationType.REVIEWED_BY), Edge(5, 6, RelationType.CLARIFY)]
    return assemble("débat-1", nodes, edges, label="reject")


#: Graphs that must survive a save and load, each by the name of its test.
ROUND_TRIP_GRAPHS = {
    "random": lambda: random_debate_graph(11, "rt", label="reject"),
    "rule": lambda: rule_labeled_graph(1, "r"),
    "rule-forward-only": lambda: forward_only(rule_labeled_graph(1, "r", (2, 5))),
    "skeleton": lambda: assemble("m", *skeleton("T")),
    "no-edges": lambda: DebateGraph("bare", tuple(skeleton("T")[0]), ()),
    "no-nodes": lambda: DebateGraph("empty", (), ()),
    "non-ascii": _non_ascii_graph,
    **{mode.value: lambda mode=mode: apply_ablation(random_debate_graph(5, "rt", label="accept"),
                                                    mode)
       for mode in AblationMode},
}


@pytest.mark.parametrize("name", ROUND_TRIP_GRAPHS)
def test_graph_file_round_trip(tmp_path, name):
    """A saved graph loads back equal, with equal codes and texts and no node
    or edge built until asked; the file ends in the SHA-256 of each node's
    text as UTF-8 (a lone surrogate as its three bytes), in id order, which
    the loaded graph holds as read; saving either graph again writes the
    same bytes."""
    g = ROUND_TRIP_GRAPHS[name]()
    path = tmp_path / "g.graph.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert "nodes" not in vars(loaded) and "edges" not in vars(loaded)
    assert loaded.texts == DebateGraph.texts.func(g)
    keys = [hashlib.sha256(t.encode("utf-8", "surrogatepass")).digest() for t in loaded.texts]
    assert vars(loaded)["text_keys"].tolist() == keys == g.text_keys.tolist()
    assert path.read_bytes()[len(path.read_bytes()) - 32 * len(keys):] == b"".join(keys)
    for got, expected in zip((*loaded.codes, loaded.node_codes),
                             (*DebateGraph.codes.func(g), DebateGraph.node_codes.func(g))):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert (got == expected).all() and not got.flags.writeable
    assert loaded == g and loaded.label == g.label
    save_graph(loaded, tmp_path / "again")
    save_graph(g, tmp_path / "twice")
    assert path.read_bytes() == (tmp_path / "again").read_bytes() \
        == (tmp_path / "twice").read_bytes() == graph_to_bytes(g)


@pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
def test_ablation_of_a_loaded_graph_equals_the_in_memory_one(tmp_path, mode):
    path = tmp_path / "g.graph.json"
    for g in _sample_graphs() + [random_debate_graph(s, f"g{s}") for s in range(3)]:
        save_graph(g, path)
        assert apply_ablation(load_graph(path), mode) == apply_ablation(g, mode)


def _json_form(form):
    return lambda data: json.dumps(form(columnar_form(graphmod._graph_from_bytes(data)))).encode()


#: Files that are no graph file.
CORRUPT_FILES = {
    "empty": lambda data: b"",
    "torn": lambda data: data[:40],
    "unknown-relation": set_code("edges", 0, 2, 28),
    "missing-text": header_edit(lambda h: h.pop("texts")),
    "nodes-not-list": header_edit(lambda h: h.update(texts=dict(enumerate(h["texts"])))),
    "not-object": header_swap([1, 2, 3]),
    "nested-too-deeply": header_swap(b"[" * 100_000 + b"]" * 100_000),
}


@pytest.mark.parametrize("edit", CORRUPT_FILES.values(), ids=CORRUPT_FILES.keys())
def test_load_graph_rejects_corrupt_file(tmp_path, edit):
    """The error says what is wrong; the command that reads the file names it."""
    path = tmp_path / "g.json"
    path.write_bytes(edit(graph_to_bytes(random_debate_graph(3, "corrupt"))))
    with pytest.raises((KeyError, TypeError, ValueError)) as info:
        load_graph(path)
    assert str(path) not in str(info.value)


def _set_header(key, value):
    return header_edit(lambda h: h.update({key: value}))


#: The message of a graph file of an older form or version.
OLDER = "not a binary graph file of this version (one of an older version, or a JSON one?)"

#: Files that are no graph file, each with a part of its message; those of
#: an older form or version raise ``OlderForm``.
BROKEN_GRAPH_EDITS = {
    "row-form": (_json_form(row_form), OLDER),
    "columnar-form": (_json_form(lambda doc: doc), OLDER),
    "bad-magic": (lambda data: data[:6] + b"9" + data[7:], OLDER),
    "header-past-the-end": (lambda data: data[:8] + len(data).to_bytes(4, "little")
                            + data[12:], "header cut short"),
    "header-not-utf8": (header_swap(b'{"graph_id": "\xff"}'), "UnicodeDecodeError"),
    "missing-column": (header_edit(lambda h: h.pop("num_edges")),
                       "KeyError: 'num_edges'"),
    "numeric-graph-id": (_set_header("graph_id", 5), "graph_id must be a string"),
    "numeric-label": (_set_header("label", 1), "label must be a string"),
    "bool-node-count": (_set_header("num_nodes", True), "must be non-negative integers"),
    "float-edge-count": (_set_header("num_edges", 12.0), "must be non-negative integers"),
    "negative-edge-count": (_set_header("num_edges", -1), "must be non-negative integers"),
    "huge-node-count": (_set_header("num_nodes", 2 ** 80), "texts must be a list of num_nodes"),
    "null-text": (header_edit(lambda h: h["texts"].__setitem__(0, None)),
                  "node text must be a string"),
    "ragged-node-column": (header_edit(lambda h: h["texts"].pop()),
                           "texts must be a list of num_nodes"),
    "column-not-a-list": (header_edit(lambda h: h.update(texts="x" * h["num_nodes"])),
                          "texts must be a list of num_nodes"),
    "ragged-edge-column": (header_edit(lambda h: h.update(num_edges=h["num_edges"] + 1)),
                           "array block of"),
    "block-cut-short": (lambda data: data[:-1], "array block of"),
    "edge-rows-cut-short": (cut_in_edge_rows, "array block of"),
    "version-1": (version_1_file, OLDER),
    "block-too-long": (lambda data: data + b"\0", "array block of"),
    "unknown-type": (set_code("nodes", 0, 0, 4), "type code 4 out of range"),
    "unknown-speaker": (set_code("nodes", 1, 5, 5), "speaker code 5 out of range"),
    "unknown-dimension": (set_code("nodes", 2, 0, 5), "dimension code 5 out of range"),
    "unknown-relation": (set_code("edges", 0, 2, 28), "relation code 28 out of range"),
    "edge-to-unknown-node": (set_code("edges", 0, 0, 999), "edge endpoint is not a node id"),
    "negative-edge-src": (set_code("edges", 0, 1, -1), "edge endpoint is not a node id"),
    # A damaged columnar file is refused at its first byte like an intact one.
    **{name: (columnar_file(set_column(*edit)), OLDER)
       for name, edit in {
           "string-edge-src": ("edges", "src", 0, "0"),
           "string-node-id": ("nodes", "id", 0, "0"),
           "float-node-id": ("nodes", "id", 0, 0.0),
           "bool-node-id": ("nodes", "id", 1, True),
           "huge-node-id": ("nodes", "id", -1, 2 ** 80),
           "ids-not-dense": ("nodes", "id", -1, 500),
           "negative-node-id": ("nodes", "id", 0, -1),
           "duplicate-node-id": ("nodes", "id", 1, 2),
           "string-inverse": ("edges", "inverse", 0, "no"),
           "integer-inverse": ("edges", "inverse", 0, 1),
       }.items()},
}


@pytest.mark.parametrize("name", BROKEN_GRAPH_EDITS)
def test_load_graph_rejects_structurally_broken_graph(tmp_path, name):
    edit, reason = BROKEN_GRAPH_EDITS[name]
    path = tmp_path / "g.json"
    path.write_bytes(edit(graph_to_bytes(random_debate_graph(3, "broken"))))
    if reason == OLDER:
        with pytest.raises(OlderForm) as info:
            load_graph(path)
        assert str(info.value) == OLDER
        return
    with pytest.raises((KeyError, TypeError, ValueError)) as info:
        load_graph(path)
    assert reason in f"{type(info.value).__name__}: {info.value}"


def test_node_and_edge_are_immutable_value_tuples():
    assert Node._fields == ("id", "node_type", "text", "speaker", "dimension")
    assert Node._field_defaults == {"speaker": None, "dimension": None}
    assert Edge._fields == ("src", "dst", "relation", "inverse")
    assert Edge._field_defaults == {"inverse": False}
    n = Node(id=5, node_type=NodeType.REVIEWER_OPINION, text="t", speaker="reviewer_1")
    assert n == Node(5, NodeType.REVIEWER_OPINION, "t", "reviewer_1", None)
    assert hash(n) == hash(Node(5, NodeType.REVIEWER_OPINION, "t", "reviewer_1"))
    assert n != Node(5, NodeType.REVIEWER_OPINION, "u", "reviewer_1")
    e = Edge(0, 1, RelationType.HAS_ASPECT)
    assert e.inverse is False and e == Edge(src=0, dst=1, relation=RelationType.HAS_ASPECT)
    assert len({e, Edge(0, 1, RelationType.HAS_ASPECT), e._replace(inverse=True)}) == 2
    for obj, name in ((n, "text"), (e, "dst")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)


def test_interrupted_graph_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    save_graph(random_debate_graph(1, "old"), path)
    before = path.read_bytes()

    class Crash(Exception):
        pass

    class HalfWriter:
        """A file object that writes half its data, then raises."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise Crash("interrupted mid-write")

    monkeypatch.setattr(graphmod, "open", lambda p, mode: HalfWriter(io.open(p, mode)),
                        raising=False)
    with pytest.raises(Crash):
        save_graph(random_debate_graph(2, "new"), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_random_graphs_validate():
    for seed in range(25):
        g = random_debate_graph(seed)
        report = validate_graph(g)
        assert report.ok, (seed, report.violations)


def _digest(graphs):
    docs = [columnar_form(g) for g in graphs]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def _sample_graphs():
    graphs = []
    for name in ("accepted", "rejected"):
        batch = parse_triple_batch((DATA / f"triples_{name}_sample.json").read_text(), name)
        dims = [DimensionAssignment(s, t, list(Dimension)[i % 4])
                for i, (s, t) in enumerate(reviewer_opinion_keys(batch))]
        graphs += [build_graph("  A  title ", batch, dims, label=name),
                   forward_only(build_graph("T", batch, dims))]
    return graphs


# sha256 of the columnar documents: same-seed graphs, and so graph files,
# must keep their node and edge order byte for byte.
@pytest.mark.parametrize("make, digest", [
    (lambda: [random_debate_graph(s, f"g{s}") for s in range(5)]
     + [forward_only(random_debate_graph(s, "small", (2, 3), (1, 2), label="accept"))
        for s in range(5)],
     "a5bc157fd5ac74ceaa1664229f9c64c50d1a12917fc1eea713b05222e7e77a46"),
    (lambda: [rule_labeled_graph(s, f"r{s}") for s in range(5)]
     + [forward_only(rule_labeled_graph(s, "r", (2, 5))) for s in range(5)],
     "7b17f7a50c81427a3a54671499ea2eb484d07261b94c7ef4ded7680234ec9f5e"),
    (lambda: [assemble("m", *skeleton("Title")),
              forward_only(assemble("m", *skeleton("T"), "reject"))],
     "e13f8848a4a8244c2394022b2845ce0269c1fbd5a52bded9d851bc1786d08575"),
    (_sample_graphs, "8a69e6d9db1f69c94d5bcce76a818f1271942162728204bb5c2cabb1168bedb5"),
], ids=["random_debate_graph", "rule_labeled_graph", "skeleton", "build_graph"])
def test_graph_builders_keep_node_and_edge_order(make, digest):
    assert _digest(make()) == digest


def _graphs_to_ablate():
    graphs = _sample_graphs()
    for s in range(20):
        for g in (random_debate_graph(s, f"g{s}"), rule_labeled_graph(s, f"r{s}")):
            graphs += [g, forward_only(g)]
    return graphs


@pytest.mark.parametrize("mode", list(AblationMode), ids=lambda m: m.value)
def test_ablation_of_a_valid_graph_is_valid_under_its_mode(mode):
    """build-graph validates only the full graph, and train, evaluate and
    ablate reduce it unchecked: that is sound only while this holds."""
    for g in _graphs_to_ablate():
        assert validate_graph(g).ok, (g.graph_id, validate_graph(g).violations)
        report = validate_graph(apply_ablation(g, mode), mode)
        assert report.ok, (g.graph_id, report.violations)

"""Helpers for CLI-level tests: build a mock-backed workspace and run the
pipeline commands in-process."""

import json
from pathlib import Path

import numpy as np

from reviewgraph.cli import main
from reviewgraph.graph import DebateGraph, _graph_from_bytes


def make_workspace(root: Path, splits, config_extra=None) -> Path:
    """Create papers, a JSONL manifest, and a run-config under root.

    splits: list of (paper_id, split, label) tuples.
    Returns the manifest path; the config lands next to it as run.json.
    """
    root = Path(root)
    (root / "papers").mkdir(parents=True, exist_ok=True)
    (root / "work").mkdir(exist_ok=True)
    lines = []
    for paper_id, split, label in splits:
        paper = {
            "paper_id": paper_id,
            "title": f"Paper {paper_id} on Debate Graphs",
            "body": f"Full text of {paper_id}. " * 30,
        }
        (root / "papers" / f"{paper_id}.json").write_text(json.dumps(paper))
        lines.append(json.dumps({
            "paper_id": paper_id,
            "split": split,
            "label": label,
            "paths": {
                "paper": f"papers/{paper_id}.json",
                "transcript": f"work/{paper_id}.transcript.json",
                "triples": f"work/{paper_id}.triples.json",
                "dims": f"work/{paper_id}.dims.json",
                "embeddings": f"work/{paper_id}.emb",
                "graph": f"work/{paper_id}.graph.json",
            },
        }))
    manifest = root / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n")

    config = {
        "endpoint": {"mock": True, "embedding_dim": 16},
        "model": {"input_dim": 16, "hidden_dim": 8, "num_heads": 2,
                  "num_layers": 1, "ffn_hidden": 8},
        "train": {"learning_rate": 0.001, "max_epochs": 2, "early_stop_patience": 2},
    }
    if config_extra:
        for key, val in config_extra.items():
            config.setdefault(key, {})
            if isinstance(val, dict):
                config[key].update(val)
            else:
                config[key] = val
    (root / "run.json").write_text(json.dumps(config))
    return manifest


def run(root: Path, *args, seed=7) -> int:
    argv = ["--config", str(Path(root) / "run.json"), "--seed", str(seed), *args]
    return main(argv)


def run_stage_pipeline(root: Path, manifest: Path, seed=7) -> None:
    for cmd in ("simulate", "extract", "classify", "embed", "build-graph"):
        code = run(root, cmd, str(manifest), seed=seed)
        assert code == 0, f"{cmd} exited {code}"


def graph_file_parts(data: bytes) -> tuple[object, bytes]:
    """A graph file's decoded JSON header and its array block (node codes,
    edge rows, then node keys)."""
    end = 12 + int.from_bytes(data[8:12], "little")
    return json.loads(data[12:end]), data[end:]


def graph_file(header, block: bytes) -> bytes:
    """A graph file of ``header`` (a value to encode as JSON, or the bytes to
    put there) and ``block``, with a header length that fits the header."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return b"\x89RGGRF2\n" + len(text).to_bytes(4, "little") + text + block


def header_edit(change):
    """An edit that calls ``change`` on a graph file's decoded header, which
    it edits in place; the header length follows."""
    def edit(data):
        header, block = graph_file_parts(data)
        change(header)
        return graph_file(header, block)
    return edit


def header_swap(header):
    """An edit that puts ``header`` (a value, or bytes) in place of a graph
    file's header."""
    return lambda data: graph_file(header, graph_file_parts(data)[1])


def cut_in_edge_rows(data: bytes) -> bytes:
    """A graph file cut 5 bytes before the end of its edge rows, as an
    interrupted write leaves it: the key block after them is gone too."""
    header, _block = graph_file_parts(data)
    return data[:len(data) - 32 * header["num_nodes"] - 5]


def version_1_file(data: bytes) -> bytes:
    """A graph file in the layout of version 1: the version byte of its magic
    set to 1, and no key block."""
    header, _block = graph_file_parts(data)
    return data[:6] + b"1" + data[7:len(data) - 32 * header["num_nodes"]]


def older_model_config(manifest: dict) -> dict:
    """A checkpoint manifest given the model config of the format before the
    config held the ablation: ``homogeneous`` and ``num_classes`` in its place."""
    config = manifest["model_config"]
    config["homogeneous"] = config.pop("ablation") == "homogeneous"
    config["num_classes"] = 2
    return manifest


def set_code(table, row, column, value):
    """An edit that sets one node code (``table`` "nodes": a type, speaker
    or dimension row) or one entry of an edge row (``table`` "edges") of a
    graph file's array block; the node keys after them stay as they were."""
    def edit(data):
        header, block = graph_file_parts(data)
        n, keys_at = header["num_nodes"], 3 * header["num_nodes"] + 12 * header["num_edges"]
        arrays = {"nodes": np.frombuffer(block[:3 * n], np.uint8).reshape(3, n).copy(),
                  "edges": np.frombuffer(block[3 * n:keys_at], "<u4").reshape(-1, 3)
                  .astype(np.int64)}
        arrays[table][row, column] = value
        return graph_file(header, arrays["nodes"].tobytes()
                          + arrays["edges"].astype("<i4").tobytes() + block[keys_at:])
    return edit


def forward_only(g) -> DebateGraph:
    """``g`` with its inverse edges dropped: the forward edges alone, in order,
    as a model that does not read inverse edges sees the graph."""
    return DebateGraph(g.graph_id, g.nodes, tuple(e for e in g.edges if not e.inverse), g.label)


def columnar_form(g) -> dict:
    """``g`` as the columnar JSON document of older graph files: one list per
    node field and one per edge field, in the order ``g`` lists them."""
    ids, types, texts, speakers, dims = list(zip(*g.nodes)) or ((),) * 5
    src, dst, relations, inverse = list(zip(*g.edges)) or ((),) * 4
    return {
        "graph_id": g.graph_id,
        "label": g.label,
        "nodes": {"id": list(ids), "type": [t.value for t in types], "text": list(texts),
                  "speaker": list(speakers), "dimension": [d.value if d else None for d in dims]},
        "edges": {"src": list(src), "dst": list(dst), "relation": [r.value for r in relations],
                  "inverse": list(inverse)},
    }


def stages_form(doc: dict) -> dict:
    """A transcript document in the older form of a list of debate stages,
    each a list of role-tagged messages; the paper's attachments rode on
    the first review."""
    def stage(name, roles, turns):
        return {"stage": name, "messages": [{"role": role, "content": turn, "attachments": []}
                                            for role, turn in zip(roles, turns)]}

    reviewers = ("reviewer_1", "reviewer_2", "reviewer_3")
    stages = [stage("initial_review", reviewers, doc["reviews"]),
              stage("author_rebuttal", ["author"], [doc["rebuttal"]]),
              stage("re_evaluation", reviewers, doc["re_evaluations"]),
              stage("meta_review", ["senior_reviewer"], [doc["meta_review"]])]
    stages[0]["messages"][0]["attachments"] = doc["attachments"]
    return {"paper_id": doc["paper_id"], "title": doc["title"], "stages": stages}


def row_form(doc: dict) -> dict:
    """A columnar graph document in the row form of the oldest graph files:
    one object per node and per edge."""
    return {**doc,
            "nodes": [dict(zip(doc["nodes"], row)) for row in zip(*doc["nodes"].values())],
            "edges": [dict(zip(doc["edges"], row)) for row in zip(*doc["edges"].values())]}


def columnar_file(edit=lambda doc: None):
    """An edit that rewrites a graph file as the columnar JSON document of
    older graph files, which ``edit`` changes in place first."""
    def rewrite(data):
        doc = columnar_form(_graph_from_bytes(data))
        edit(doc)
        return json.dumps(doc).encode()
    return rewrite


def set_column(table, column, index, value):
    """A ``columnar_file`` edit that sets one entry of one column."""
    return lambda doc: doc[table][column].__setitem__(index, value)

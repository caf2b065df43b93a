"""Helpers for CLI-level tests: build a mock-backed workspace and run the
pipeline commands in-process."""

import json
from pathlib import Path

from reviewgraph.cli import main
from reviewgraph.graph import EDGE_COLUMNS, NODE_COLUMNS


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


def row_form(doc: dict) -> dict:
    """A columnar graph document in the row form of older graph files: one
    object per node and per edge."""
    return {**doc,
            "nodes": [dict(zip(NODE_COLUMNS, row))
                      for row in zip(*(doc["nodes"][c] for c in NODE_COLUMNS))],
            "edges": [dict(zip(EDGE_COLUMNS, row))
                      for row in zip(*(doc["edges"][c] for c in EDGE_COLUMNS))]}

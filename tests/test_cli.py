import base64
import builtins
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipeline_utils import (columnar_file, columnar_form, cut_in_edge_rows, header_edit,
                            header_swap, make_workspace, older_model_config, row_form, run,
                            run_stage_pipeline, set_code, set_column, stages_form,
                            version_1_file)
from reviewgraph import autodiff as ad
from reviewgraph import cli, extraction
from reviewgraph import graph as graphmod
from reviewgraph import orchestration as orch
from reviewgraph import training
from reviewgraph.cli import main
from reviewgraph.graph import NodeType, load_graph

THREE_PAPERS = [("p0", "train", "accept"), ("p1", "val", "reject"), ("p2", "test", "accept")]

TRAINABLE = [
    ("t0", "train", "accept"), ("t1", "train", "reject"),
    ("t2", "train", "accept"), ("t3", "train", "reject"),
    ("v0", "val", "accept"), ("v1", "val", "reject"),
    ("s0", "test", "accept"), ("s1", "test", "reject"),
]


def test_simulate_writes_deterministic_transcripts(tmp_path):
    m1 = make_workspace(tmp_path / "a", THREE_PAPERS)
    m2 = make_workspace(tmp_path / "b", THREE_PAPERS)
    assert run(tmp_path / "a", "simulate", str(m1)) == 0
    assert run(tmp_path / "b", "simulate", str(m2)) == 0
    for rec in ("p0", "p1", "p2"):
        b1 = (tmp_path / "a" / "work" / f"{rec}.transcript.json").read_bytes()
        b2 = (tmp_path / "b" / "work" / f"{rec}.transcript.json").read_bytes()
        assert b1 == b2


def test_simulate_reads_a_utf8_paper_whatever_the_locale(tmp_path):
    """JSON documents are UTF-8 (RFC 8259 §8.1): a paper with a non-ASCII title
    simulates under the C locale with UTF-8 mode off, whose text encoding is ASCII."""
    manifest = make_workspace(tmp_path, THREE_PAPERS[:1])
    paper_path = tmp_path / "papers" / "p0.json"
    paper = json.loads(paper_path.read_bytes())
    paper["title"] = "Débats évalués : un graphe typé"
    paper_path.write_bytes(json.dumps(paper, ensure_ascii=False).encode("utf-8"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-c", "import sys; from reviewgraph.cli import main; sys.exit(main())",
            "--config", str(tmp_path / "run.json"), "--seed", "7", "simulate", str(manifest)]
    done = subprocess.run(args, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    transcript = json.loads((tmp_path / "work" / "p0.transcript.json").read_bytes())
    assert transcript["title"] == paper["title"]


def test_rerun_without_force_skips_everything(tmp_path, capsys):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run(tmp_path, "simulate", str(manifest))
    capsys.readouterr()
    assert run(tmp_path, "simulate", str(manifest)) == 0
    out = capsys.readouterr().out
    assert "0 written, 3 skipped (0 requests)" in out


def test_force_rewrites(tmp_path, capsys):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run(tmp_path, "simulate", str(manifest))
    capsys.readouterr()
    code = main(["--config", str(tmp_path / "run.json"), "--seed", "7",
                 "simulate", "--force", str(manifest)])
    assert code == 0
    assert "3 written" in capsys.readouterr().out


def test_endpoint_down_exits_2_and_keeps_progress(tmp_path):
    manifest = make_workspace(
        tmp_path, THREE_PAPERS,
        config_extra={"endpoint": {"mock": False, "base_url": "http://127.0.0.1:1",
                                   "model": "m", "retry_limit": 0,
                                   "backoff_base": 0.0, "timeout": 2.0}},
    )
    # pre-complete one paper with the mock so partial progress exists
    (tmp_path / "work" / "p0.transcript.json").write_text("{}")
    assert run(tmp_path, "simulate", str(manifest)) == 2
    assert (tmp_path / "work" / "p0.transcript.json").exists()


def test_full_stage_pipeline_and_graph_contents(tmp_path):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run_stage_pipeline(tmp_path, manifest)
    g = load_graph(tmp_path / "work" / "p0.graph.json")
    assert g.label == "accept"
    assert len(g.nodes_of_type(NodeType.TITLE)) == 1
    assert len(g.nodes_of_type(NodeType.EVALUATION_DIMENSION)) == 4
    for kind in ("transcript", "triples", "dims"):  # one line of compact sorted JSON
        text = (tmp_path / "work" / f"p0.{kind}.json").read_text()
        assert text == graphmod.compact_json(json.loads(text))
    assert (tmp_path / "work" / "p0.graph.json").read_bytes() == graphmod.graph_to_bytes(g)


def test_build_graph_with_no_title_ablation(tmp_path):
    """A graph file holds the whole debate: build-graph ignores the run
    config's model.ablation, which train applies to the graphs it reads."""
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run_stage_pipeline(tmp_path, manifest)
    files = {p: p.read_bytes() for p in (tmp_path / "work").glob("*.graph.json")}
    # the same papers and manifest, and a run config with model.ablation
    make_workspace(tmp_path, THREE_PAPERS, {"model": {"ablation": "no_title"}})
    assert run(tmp_path, "build-graph", "--force", str(manifest)) == 0
    assert files == {p: p.read_bytes() for p in files}
    assert load_graph(tmp_path / "work" / "p1.graph.json").nodes_of_type(NodeType.TITLE)


def test_malformed_triples_file_exits_3_with_paper_id(tmp_path, capsys):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run(tmp_path, "simulate", str(manifest))
    run(tmp_path, "extract", str(manifest))
    (tmp_path / "work" / "p1.triples.json").write_text("this is not json")
    capsys.readouterr()
    assert run(tmp_path, "classify", str(manifest)) == 3
    assert "p1" in capsys.readouterr().err


def test_blank_paper_body_exits_3_naming_the_paper(tmp_path, capsys):
    manifest = make_workspace(tmp_path, [("p0", "train", "accept")])
    paper = tmp_path / "papers" / "p0.json"
    paper.write_text(json.dumps({**json.loads(paper.read_text()), "body": "  "}))
    capsys.readouterr()
    assert run(tmp_path, "simulate", str(manifest)) == 3
    err = capsys.readouterr().err
    assert "p0: paper body is empty" in err
    assert not (tmp_path / "work" / "p0.transcript.json").exists()


def test_transcript_without_rebuttal_exits_3_naming_the_paper(tmp_path, capsys):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    assert run(tmp_path, "simulate", str(manifest)) == 0
    path = tmp_path / "work" / "p1.transcript.json"
    doc = json.loads(path.read_text())
    del doc["rebuttal"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "extract", str(manifest)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: p1: corrupt transcript file {path}: TypeError: ")
    assert "'rebuttal'" in err
    assert not (tmp_path / "work" / "p1.triples.json").exists()


def test_train_requires_val_split(tmp_path, capsys):
    manifest = make_workspace(tmp_path, [("a", "train", "accept"), ("b", "train", "reject")])
    run_stage_pipeline(tmp_path, manifest)
    capsys.readouterr()
    code = run(tmp_path, "train", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"),
               "--history", str(tmp_path / "h.jsonl"))
    assert code == 1
    assert "empty validation split" in capsys.readouterr().err


def test_train_accepts_patience_above_max_epochs(tmp_path):
    """The workspace's patience of 2 exceeds one epoch: early stopping never fires."""
    manifest = make_workspace(tmp_path, TRAINABLE, config_extra={"train": {"max_epochs": 1}})
    run_stage_pipeline(tmp_path, manifest)
    code = run(tmp_path, "train", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"),
               "--history", str(tmp_path / "h.jsonl"))
    assert code == 0
    assert [json.loads(line)["epoch"] for line in
            (tmp_path / "h.jsonl").read_text().splitlines()] == [1]


def test_train_twice_same_seed_identical_history(tmp_path):
    manifest = make_workspace(tmp_path, TRAINABLE)
    run_stage_pipeline(tmp_path, manifest)
    for tag in ("1", "2"):
        code = run(tmp_path, "train", str(manifest),
                   "--checkpoint", str(tmp_path / f"c{tag}.rvgc"),
                   "--history", str(tmp_path / f"h{tag}.jsonl"))
        assert code == 0
    assert (tmp_path / "h1.jsonl").read_bytes() == (tmp_path / "h2.jsonl").read_bytes()
    assert (tmp_path / "c1.rvgc").read_bytes() == (tmp_path / "c2.rvgc").read_bytes()


def test_evaluate_prints_table2_ordered_json(tmp_path, capsys):
    manifest = make_workspace(tmp_path, TRAINABLE)
    run_stage_pipeline(tmp_path, manifest)
    run(tmp_path, "train", str(manifest),
        "--checkpoint", str(tmp_path / "c.rvgc"),
        "--history", str(tmp_path / "h.jsonl"))
    capsys.readouterr()
    code = run(tmp_path, "evaluate", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"),
               "--split", "test", "--output", str(tmp_path / "ev.json"))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"accuracy", "macro_precision", "macro_recall", "macro_f1", "n"} <= set(doc)
    assert 0.0 <= doc["accuracy"] <= 100.0  # scaled x100
    assert json.loads((tmp_path / "ev.json").read_text()) == doc


def test_evaluate_compare_runs_welch(tmp_path, capsys):
    manifest = make_workspace(tmp_path, TRAINABLE)
    run_stage_pipeline(tmp_path, manifest)
    run(tmp_path, "train", str(manifest),
        "--checkpoint", str(tmp_path / "c.rvgc"),
        "--history", str(tmp_path / "h.jsonl"))
    (tmp_path / "other.json").write_text("[1.0, 0.0]")
    capsys.readouterr()
    code = run(tmp_path, "evaluate", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"),
               "--split", "test", "--output", str(tmp_path / "ev.json"),
               "--compare", str(tmp_path / "other.json"))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"t", "df", "p"} <= set(doc["welch"])


def test_evaluate_missing_graphs_exits_3(tmp_path):
    manifest = make_workspace(tmp_path, TRAINABLE)
    run_stage_pipeline(tmp_path, manifest)
    run(tmp_path, "train", str(manifest),
        "--checkpoint", str(tmp_path / "c.rvgc"),
        "--history", str(tmp_path / "h.jsonl"))
    (tmp_path / "work" / "s0.graph.json").unlink()
    code = run(tmp_path, "evaluate", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"), "--split", "test")
    assert code == 3


def test_evaluate_malformed_checkpoint_manifest_exits_3(tmp_path, capsys):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    body = json.dumps({"version": 1}).encode()
    (tmp_path / "c.rvgc").write_bytes(b"RVGC" + struct.pack("<I", len(body)) + body)
    code = run(tmp_path, "evaluate", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"), "--split", "test")
    assert code == 3
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'c.rvgc'}: KeyError: 'model_config'\n")


def _trained_workspace(root):
    manifest = make_workspace(root, THREE_PAPERS)
    run_stage_pipeline(root, manifest)
    assert run(root, "train", str(manifest), "--checkpoint", str(root / "c.rvgc"),
               "--history", str(root / "h.jsonl")) == 0
    return manifest


def _tear(path):
    """Cut a file mid-way through its last line, as an interrupted write would."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])


@pytest.mark.parametrize("command, paper, artifact", [
    ("evaluate", "p2", "emb"),
    ("train", "p0", "emb"),
    ("evaluate", "p2", "graph.json"),
    ("train", "p1", "graph.json"),
])
def test_torn_artifact_exits_3_naming_the_paper(tmp_path, capsys, command, paper, artifact):
    manifest = _trained_workspace(tmp_path)
    _tear(tmp_path / "work" / f"{paper}.{artifact}")
    capsys.readouterr()
    extra = (["--checkpoint", str(tmp_path / "c2.rvgc"), "--history", str(tmp_path / "h2.jsonl")]
             if command == "train" else ["--checkpoint", str(tmp_path / "c.rvgc")])
    code = run(tmp_path, command, str(manifest), *extra)
    err = capsys.readouterr().err
    assert code == 3
    assert f"{paper}: " in err and f"{paper}.{artifact}" in err
    assert "Traceback" not in err


def test_failed_embed_keeps_the_old_cache(tmp_path, monkeypatch):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run_stage_pipeline(tmp_path, manifest)
    before = {p.name: p.read_bytes() for p in (tmp_path / "work").glob("*.emb")}
    real_embed_texts = orch.embed_texts

    def embed_then_fail(texts, client, cache):
        real_embed_texts(texts[:2], client, cache)
        raise orch.EndpointError("endpoint went away")

    monkeypatch.setattr(orch, "embed_texts", embed_then_fail)
    code = main(["--config", str(tmp_path / "run.json"), "--seed", "7",
                 "embed", "--force", str(manifest)])
    assert code == 2
    after = {p.name: p.read_bytes() for p in (tmp_path / "work").glob("*.emb*")}
    assert after == before


def _evaluate_args(root):
    return ["--checkpoint", str(root / "c.rvgc"), "--output", str(root / "ev.json")]


def test_cache_cut_at_a_record_boundary_exits_3_naming_the_file(tmp_path, capsys):
    """A binary cache cut between two records loads, one vector short."""
    manifest = _trained_workspace(tmp_path)
    path = tmp_path / "work" / "p2.emb"
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - (32 + 8 * 16)])
    capsys.readouterr()
    assert run(tmp_path, "evaluate", str(manifest), *_evaluate_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "p2: no cached embedding for node" in err and "p2.emb" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, paper", [("train", "p0"), ("evaluate", "p2"), ("ablate", "p1")])
def test_non_finite_cached_embedding_exits_3_naming_paper_and_file(tmp_path, capsys,
                                                                   command, paper):
    manifest = _trained_workspace(tmp_path)
    path = tmp_path / "work" / f"{paper}.emb"
    data = bytearray(path.read_bytes())
    data[12 + 32:12 + 40] = struct.pack("<d", float("nan"))  # the first record's first value
    path.write_bytes(bytes(data))
    extra = {"train": ["--checkpoint", str(tmp_path / "c2.rvgc"),
                       "--history", str(tmp_path / "h2.jsonl")],
             "evaluate": _evaluate_args(tmp_path),
             "ablate": ["--output", str(tmp_path / "abl.json")]}[command]
    capsys.readouterr()
    assert run(tmp_path, command, str(manifest), *extra) == 3
    err = capsys.readouterr().err
    assert f"{paper}: non-finite cached embedding for node 0" in err
    assert f"{paper}.emb" in err and "Traceback" not in err


def test_non_finite_gradient_exits_4_naming_the_batch(tmp_path, capsys, monkeypatch):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run_stage_pipeline(tmp_path, manifest)
    real_adam_step = training.adam_step

    def poisoned(params, state, t, config):
        for _name, tensor in params.items():
            tensor.grad = np.full(tensor.shape, np.nan)
        return real_adam_step(params, state, t, config)

    monkeypatch.setattr(training, "adam_step", poisoned)
    capsys.readouterr()
    assert run(tmp_path, "train", str(manifest), "--checkpoint", str(tmp_path / "c.rvgc"),
               "--history", str(tmp_path / "h.jsonl")) == 4
    assert re.fullmatch(r"numeric failure: non-finite gradient in \S+ "
                        r"at epoch 1 in the batch of p0\n", capsys.readouterr().err)


def _rewrite_as_json_lines(path):
    """Rewrite a binary cache in the older JSON-lines form, alternating
    ``f64le`` and decimal ``vector`` lines."""
    cache = orch.EmbeddingCache(path)
    digests = list(cache._rows)
    lines = []
    for i, (d, v) in enumerate(zip(digests, cache.vectors(digests))):
        rec = {"sha256": d.hex(), "dim": int(v.size)}
        if i % 2:
            rec["vector"] = v.tolist()
        else:
            rec["f64le"] = base64.b64encode(v.astype("<f8").tobytes()).decode("ascii")
        lines.append(json.dumps(rec) + "\n")
    path.write_text("".join(lines))


def _rerun_hint(err):
    """The command that an error line says to rerun."""
    return re.search(r"; rerun `([^`]*)`$", err).group(1)


def _run_as_printed(command):
    """Run a printed ``reviewgraph`` command exactly as a shell would."""
    program, *argv = shlex.split(command)
    assert program == "reviewgraph"
    return main(argv)


def _old_form_exits_3_until_rerun(root, capsys, suffix, rewrite, stage):
    """With every ``suffix`` file rewritten by ``rewrite`` into an older form,
    train, evaluate and ablate exit 3 naming the first paper they read, its
    file and the whole command to rerun, and leave the files as they are;
    after that command, run as printed, evaluate gives the report of the
    files it wrote first."""
    manifest = _trained_workspace(root)
    paths = sorted((root / "work").glob(f"*{suffix}"))
    capsys.readouterr()
    assert run(root, "evaluate", str(manifest), *_evaluate_args(root)) == 0
    report = (capsys.readouterr().out, (root / "ev.json").read_bytes())
    for path in paths:
        rewrite(path)
    old = [path.read_bytes() for path in paths]
    hints = set()
    for command, paper, extra in (
            ("train", "p0", ["--checkpoint", str(root / "c2.rvgc"),
                             "--history", str(root / "h2.jsonl")]),
            ("evaluate", "p2", _evaluate_args(root)),
            ("ablate", "p0", ["--output", str(root / "abl.json")])):
        assert run(root, command, str(manifest), *extra) == 3
        err = capsys.readouterr().err
        assert f"{paper}: {root / 'work' / paper}{suffix}: " in err
        assert "Traceback" not in err
        hints.add(_rerun_hint(err))
    assert [path.read_bytes() for path in paths] == old  # reading rewrites nothing
    assert hints == {shlex.join(["reviewgraph", "--config", str(root / "run.json"),
                                 "--seed", "7", stage, "--force", str(manifest)])}
    assert _run_as_printed(hints.pop()) == 0
    capsys.readouterr()
    assert run(root, "evaluate", str(manifest), *_evaluate_args(root)) == 0
    assert (capsys.readouterr().out, (root / "ev.json").read_bytes()) == report


def test_json_lines_caches_exit_3_until_embed_force_rewrites_them(tmp_path, capsys):
    _old_form_exits_3_until_rerun(tmp_path, capsys, ".emb", _rewrite_as_json_lines, "embed")


def test_row_form_graphs_exit_3_until_build_graph_force_rewrites_them(tmp_path, capsys):
    def rewrite(path):
        path.write_text(json.dumps(row_form(columnar_form(load_graph(path)))))

    _old_form_exits_3_until_rerun(tmp_path, capsys, ".graph.json", rewrite, "build-graph")


def test_version_1_graphs_exit_3_until_build_graph_force_rewrites_them(tmp_path, capsys):
    def rewrite(path):
        path.write_bytes(version_1_file(path.read_bytes()))

    _old_form_exits_3_until_rerun(tmp_path, capsys, ".graph.json", rewrite, "build-graph")


def test_stages_form_transcripts_exit_3_until_simulate_force_rewrites_them(tmp_path, capsys):
    """A transcript of the older form, a list of debate stages, makes each
    stage that reads transcripts exit 3 naming the paper, the file and the
    whole simulate command to rerun; run as printed, that command rewrites
    the transcripts as they were, and the stages then run."""
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    run_stage_pipeline(tmp_path, manifest)
    paths = sorted((tmp_path / "work").glob("*.transcript.json"))
    files = {p: p.read_bytes() for p in (tmp_path / "work").iterdir()}
    for path in paths:
        path.write_text(json.dumps(stages_form(json.loads(path.read_bytes()))))
    old = {p: p.read_bytes() for p in (tmp_path / "work").iterdir()}
    hints = set()
    for command in ("extract", "embed", "build-graph"):
        capsys.readouterr()
        assert run(tmp_path, command, "--force", str(manifest)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: p0: {tmp_path / 'work' / 'p0.transcript.json'}: ")
        assert "Traceback" not in err
        hints.add(_rerun_hint(err))
    assert {p: p.read_bytes() for p in (tmp_path / "work").iterdir()} == old
    assert hints == {shlex.join(["reviewgraph", "--config", str(tmp_path / "run.json"),
                                 "--seed", "7", "simulate", "--force", str(manifest)])}
    assert _run_as_printed(hints.pop()) == 0
    for command in ("extract", "embed", "build-graph"):
        assert run(tmp_path, command, "--force", str(manifest)) == 0
    assert {p: p.read_bytes() for p in (tmp_path / "work").iterdir()} == files


def test_rerun_hint_repeats_only_the_group_options_given(tmp_path, capsys):
    """Without --config and --seed the hint has neither; a manifest path with
    a space is quoted, so the hint still runs as printed."""
    manifest = make_workspace(tmp_path / "a b", THREE_PAPERS[:1])
    assert main(["simulate", str(manifest)]) == 0
    path = tmp_path / "a b" / "work" / "p0.transcript.json"
    path.write_text(json.dumps(stages_form(json.loads(path.read_bytes()))))
    capsys.readouterr()
    assert main(["extract", str(manifest)]) == 3
    hint = _rerun_hint(capsys.readouterr().err)
    assert hint == shlex.join(["reviewgraph", "simulate", "--force", str(manifest)])
    assert f"'{manifest}'" in hint
    assert _run_as_printed(hint) == 0
    assert main(["extract", str(manifest)]) == 0


def test_build_graph_renames_each_graph_once(tmp_path, monkeypatch):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    for stage in ("simulate", "extract", "classify", "embed"):
        assert run(tmp_path, stage, str(manifest)) == 0
    renames = []
    real_replace = os.replace

    def recording(src, dst):
        renames.append((Path(src).name, Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    assert run(tmp_path, "build-graph", str(manifest)) == 0
    assert renames == [(f"{p}.graph.json.tmp", f"{p}.graph.json") for p, _, _ in THREE_PAPERS]


def test_ablate_emits_six_rows(tmp_path, capsys):
    manifest = make_workspace(tmp_path, TRAINABLE)
    run_stage_pipeline(tmp_path, manifest)
    capsys.readouterr()
    code = run(tmp_path, "ablate", str(manifest),
               "--output", str(tmp_path / "abl.json"))
    assert code == 0
    rows = json.loads((tmp_path / "abl.json").read_text())
    assert len(rows) == 6
    assert [r["mode"] for r in rows] == [
        "full", "no_title", "no_eval", "no_rar", "no_irr", "homogeneous"
    ]
    table = capsys.readouterr().out
    assert table.count("\n") >= 8  # header + separator + six rows


@pytest.fixture(scope="module")
def built_workspace(tmp_path_factory):
    """The TRAINABLE papers through build-graph, run with no --ablation."""
    root = tmp_path_factory.mktemp("built")
    manifest = make_workspace(root, TRAINABLE)
    run_stage_pipeline(root, manifest)
    return root, manifest


def _train_checkpoint(root, manifest, stem, *options):
    """Train on the workspace at ``root``; the checkpoint and the history's bytes."""
    checkpoint, history = stem.with_suffix(".rvgc"), stem.with_suffix(".jsonl")
    assert run(root, "train", str(manifest), *options, "--checkpoint", str(checkpoint),
               "--history", str(history)) == 0
    return training.load_checkpoint(checkpoint), history.read_bytes()


NON_FULL_MODES = [m for m in graphmod.AblationMode if m is not graphmod.AblationMode.FULL]


@pytest.mark.parametrize("mode", NON_FULL_MODES, ids=lambda m: m.value)
def test_train_ablation_reduces_the_graphs_it_reads(built_workspace, tmp_path, mode):
    """On full graph files, ``train --ablation M`` trains on the graphs that
    ``apply_ablation`` reduces by M and records M in the checkpoint's model config, and
    ``evaluate`` with no flag applies it as if the files held reduced graphs."""
    root, manifest = built_workspace
    full, _ = _train_checkpoint(root, manifest, tmp_path / "full")
    checkpoint, history = _train_checkpoint(root, manifest, tmp_path / "m",
                                            "--ablation", mode.value)
    assert checkpoint.model_config.ablation == mode.value
    assert full.model_config.ablation == "full"
    assert checkpoint.params.flat.tobytes() != full.params.flat.tobytes()

    cfg = cli.load_run_config(root / "run.json", seed=7)
    model_config = dataclasses.replace(cfg.model, ablation=mode.value)

    def reduced(split):
        examples = []
        for rec in cli.load_manifest(manifest):
            if rec.split == split:
                g = graphmod.apply_ablation(load_graph(rec.path("graph")), mode)
                cache = orch.EmbeddingCache(rec.path("embeddings"))
                rows = np.stack([cache.get(text) for text in g.texts])
                examples.append(training.GraphExample(g, rows, rec.label))
        return examples

    want, want_history = training.train(reduced("train"), reduced("val"), model_config,
                                        cfg.train)
    fp32 = want.params.flat.astype("<f4").astype(np.float64)
    assert checkpoint.params.flat.tobytes() == fp32.tobytes()
    assert history == "".join(json.dumps(row, sort_keys=True) + "\n"
                              for row in want_history).encode()

    shutil.copytree(root, tmp_path / "reduced")
    for path in (tmp_path / "reduced" / "work").glob("*.graph.json"):
        graphmod.save_graph(graphmod.apply_ablation(load_graph(path), mode), path)
    reports = []
    for ws in (root, tmp_path / "reduced"):
        out = tmp_path / f"ev{len(reports)}.json"
        assert run(ws, "evaluate", str(ws / "manifest.jsonl"), "--checkpoint",
                   str(tmp_path / "m.rvgc"), "--split", "train", "--output", str(out)) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_config_ablation_trains_as_the_flag_does_and_the_flag_overrides_it(built_workspace,
                                                                           tmp_path):
    """``model.ablation`` in the run config and ``--ablation`` give the same
    checkpoint and history bytes, and the flag wins over the config's key."""
    root, manifest = built_workspace
    config = json.loads((root / "run.json").read_text())
    config["model"]["ablation"] = "no_title"
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps(config))

    def outputs(name, config_path, *options):
        checkpoint, history = tmp_path / f"{name}.rvgc", tmp_path / f"{name}.jsonl"
        assert main(["--config", str(config_path), "--seed", "7", "train", *options,
                     str(manifest), "--checkpoint", str(checkpoint),
                     "--history", str(history)]) == 0
        return checkpoint.read_bytes(), history.read_bytes()

    keyed_no_title = outputs("keyed", keyed)
    assert keyed_no_title == outputs("flag", root / "run.json", "--ablation", "no_title")
    overridden = outputs("overridden", keyed, "--ablation", "no_rar")
    assert overridden == outputs("no_rar", root / "run.json", "--ablation", "no_rar")
    assert overridden != keyed_no_title
    assert training.load_checkpoint(tmp_path / "overridden.rvgc").model_config.ablation == "no_rar"


def test_ablate_ignores_how_the_graphs_were_built(built_workspace, tmp_path):
    """Every row of ``ablate`` reads the full graphs, whatever model.ablation
    the run config gave build-graph and ablate."""
    shutil.copytree(built_workspace[0], tmp_path / "ws")
    root = tmp_path / "ws"
    manifest = root / "manifest.jsonl"
    reports = []
    for mode in graphmod.AblationMode:
        # the same papers and manifest, and a run config with model.ablation
        make_workspace(root, TRAINABLE, {"model": {"ablation": mode.value}})
        assert run(root, "build-graph", "--force", str(manifest)) == 0
        assert run(root, "ablate", str(manifest), "--output", str(tmp_path / "abl.json")) == 0
        reports.append((tmp_path / "abl.json").read_bytes())
    assert reports == reports[:1] * len(reports)


def test_ablate_loads_each_paper_once(tmp_path, monkeypatch):
    six = [p for p in TRAINABLE if p[0] not in ("t2", "t3")]
    manifest = make_workspace(tmp_path, six)
    run_stage_pipeline(tmp_path, manifest)
    loads = {"graph": 0, "cache": 0}
    real_load_graph, real_cache = graphmod.load_graph, orch.EmbeddingCache

    def load_graph_counted(path):
        loads["graph"] += 1
        return real_load_graph(path)

    def cache_counted(path, **options):
        loads["cache"] += 1
        return real_cache(path, **options)

    monkeypatch.setattr(graphmod, "load_graph", load_graph_counted)
    monkeypatch.setattr(orch, "EmbeddingCache", cache_counted)
    assert run(tmp_path, "ablate", str(manifest), "--output", str(tmp_path / "abl.json")) == 0
    assert loads == {"graph": 6, "cache": 6}


@pytest.mark.parametrize("listed", ["in-id-order", "reversed"])
@pytest.mark.parametrize("mode", list(graphmod.AblationMode), ids=lambda m: m.value)
def test_ablated_examples_get_each_kept_node_text_its_cached_vector(trained_workspace, tmp_path,
                                                                    mode, listed):
    root = tmp_path / "ws"
    shutil.copytree(trained_workspace[0], root)
    if listed == "reversed":  # a cache may list its records in any order
        for path in (root / "work").glob("*.emb"):
            data = path.read_bytes()
            size = 32 + 8 * int.from_bytes(data[8:12], "little")
            records = [data[i:i + size] for i in range(12, len(data), size)]
            path.write_bytes(data[:12] + b"".join(reversed(records)))
    records = cli.load_manifest(root / "manifest.jsonl")
    papers = cli._load_papers(records, ("train", "val", "test"), 16)
    for rec in records:
        (ex,) = cli._examples(papers, rec.split, mode)
        cache = orch.EmbeddingCache(rec.path("embeddings"))
        vector_of = {n.text: cache.get(n.text) for n in load_graph(rec.path("graph")).nodes}
        want = {n.id: vector_of[n.text] for n in ex.graph.nodes}
        ablated = graphmod.apply_ablation(load_graph(rec.path("graph")), mode)
        assert ex.graph.nodes == ablated.nodes
        rows = np.stack([want[i] for i in range(len(want))])
        assert ex.embeddings.tobytes() == rows.tobytes()


def test_pipeline_graph_files_round_trip(trained_workspace):
    """Every graph file build-graph wrote loads to the graph that its own
    nodes and edges build, and that graph saves to the same bytes."""
    root, _manifest, files = trained_workspace
    paths = sorted((root / "work").glob("*.graph.json"))
    assert len(paths) == len(THREE_PAPERS)
    for path in paths:
        g = load_graph(path)
        rebuilt = graphmod.DebateGraph(g.graph_id, g.nodes, g.edges, g.label)
        assert g == rebuilt and graphmod.graph_to_bytes(rebuilt) == files[path]
        assert graphmod.validate_graph(g).ok


def test_evaluate_path_builds_no_node_or_edge_tuples(trained_workspace, tmp_path):
    """Loading papers and predicting reads only the decoded columns."""
    root = tmp_path / "ws"
    shutil.copytree(trained_workspace[0], root)
    records = cli.load_manifest(root / "manifest.jsonl")
    papers = cli._load_papers(records, ("train", "val", "test"), 16)
    examples = [ex for split in ("train", "val", "test")
                for ex in cli._examples(papers, split, graphmod.AblationMode.FULL)]
    checkpoint = training.load_checkpoint(root / "c.rvgc")
    training.predict_label_indices(examples, checkpoint.params, checkpoint.model_config)
    assert all("nodes" not in vars(g) and "edges" not in vars(g) for _rec, g, _v in papers)


def test_gradcheck_passes_by_default(tmp_path, capsys):
    assert main(["--seed", "0", "gradcheck"]) == 0
    assert "max rel error" in capsys.readouterr().out


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    """Negative control: a wrong backward rule must trip exit code 5."""
    true_relu = ad.relu

    def bad_relu(t):
        t = ad._tensor(t)
        mask = t.value > 0.0
        out = (t.value * mask).copy()

        def backward(g):
            t.accumulate(g * mask * 0.25)

        return ad._op(out, (t,), backward)

    monkeypatch.setattr(ad, "relu", bad_relu)
    code = main(["--seed", "0", "gradcheck"])
    monkeypatch.setattr(ad, "relu", true_relu)
    assert code == 5
    assert "FAIL" in capsys.readouterr().out


def test_unknown_command_is_usage_error():
    assert main(["not-a-command"]) == 1


def test_unknown_ablation_mode_is_usage_error(tmp_path):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    assert main(["train", str(manifest), "--ablation", "bogus"]) == 1


def test_missing_config_is_usage_error(tmp_path):
    assert run(tmp_path / "nowhere", "simulate",
               str(tmp_path / "nowhere" / "manifest.jsonl")) == 1


def test_missing_manifest_is_data_error(tmp_path):
    make_workspace(tmp_path, THREE_PAPERS)
    assert run(tmp_path, "simulate", str(tmp_path / "absent.jsonl")) == 3


def test_duplicate_paper_id_is_data_error(tmp_path):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [lines[0]]) + "\n")
    assert run(tmp_path, "simulate", str(manifest)) == 3


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_manifest_records_end_at_newlines_only(tmp_path, newline):
    """JSON Lines ends a record at a newline only: a paper_id that holds
    U+2028, U+2029 or U+0085 unescaped stays one record, and CRLF ends read too."""
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    ids = ["p\u2028x", "p\u2029y", "p\x85z"]
    records = [{**json.loads(line), "paper_id": pid}
               for line, pid in zip(manifest.read_text().splitlines(), ids)]
    manifest.write_bytes("".join(json.dumps(r, ensure_ascii=False) + newline
                                 for r in records).encode("utf-8"))
    assert [rec.paper_id for rec in cli.load_manifest(manifest)] == ids
    assert run(tmp_path, "simulate", str(manifest)) == 0
    assert all((tmp_path / "work" / f"{p}.transcript.json").is_file() for p, _, _ in THREE_PAPERS)


#: Compare files that exit 3, and what the message says of a bad entry.
BAD_COMPARE = {
    "missing": (None, ""),
    "torn": ("[1.0, 0.", ""),
    "object": ('{"a": 1.0}', ""),
    "string": ('"1010"', ""),
    "text-entry": ('[1.0, "x"]', 'entry 1 is "x", not a finite number'),
    "null-entry": ("[1.0, null]", "entry 1 is null, not a finite number"),
    "nan-entry": ("[1, 0, NaN, 1]", "entry 2 is NaN, not a finite number"),
    "infinity-entry": ("[1, 0, Infinity, 0]", "entry 2 is Infinity, not a finite number"),
    "nan-text-entry": ('[1, 0, "nan", 1]', 'entry 2 is "nan", not a finite number'),
    "first-of-two-bad": ("[1, -Infinity, NaN]", "entry 1 is -Infinity, not a finite number"),
    "overflowing-entry": ("[1, 1e999]", "entry 1 is Infinity, not a finite number"),
    "nested-too-deeply": ("[" * 200_000, "ValueError: JSON nested too deeply to parse"),
    "bool-entry": ("[1, true]", "entry 1 is true, not a finite number"),
}


@pytest.mark.parametrize("content, message", BAD_COMPARE.values(), ids=BAD_COMPARE)
def test_evaluate_bad_compare_file_exits_3_naming_it(tmp_path, capsys, content, message):
    manifest = _trained_workspace(tmp_path)
    compare = tmp_path / "other.json"
    if content is not None:
        compare.write_text(content)
    capsys.readouterr()
    code = run(tmp_path, "evaluate", str(manifest), "--checkpoint", str(tmp_path / "c.rvgc"),
               "--output", str(tmp_path / "ev.json"), "--compare", str(compare))
    err = capsys.readouterr().err
    assert code == 3
    assert f"--compare file {compare}: " in err and message in err and "Traceback" not in err
    assert not (tmp_path / "ev.json").exists()


STAGE_OUTPUTS = {"simulate": "transcript.json", "extract": "triples.json",
                 "classify": "dims.json", "build-graph": "graph.json"}
STAGE_ORDER = ("simulate", "extract", "classify", "embed", "build-graph")

#: Options given to a command that does not read them, or before the command
#: name, where only --config, --seed, --jobs and -v go: (the arguments before
#: the command, the command, the arguments after it).
FOREIGN_OPTIONS = {
    **{f"ablation-{command}": ([], command, ["--ablation", "no_rar"])
       for command in (*STAGE_ORDER, "evaluate", "ablate", "gradcheck")},
    **{f"force-{command}": ([], command, ["--force"])
       for command in ("train", "evaluate", "ablate", "gradcheck")},
    "ablation-before-evaluate": (["--ablation", "no_rar"], "evaluate", []),
    "ablation-before-train": (["--ablation", "no_rar"], "train", []),
    "force-before-build-graph": (["--force"], "build-graph", []),
    **{f"jobs-before-{command}": (["--jobs", "2"], command, [])
       for command in ("train", "evaluate", "ablate", "gradcheck")},
}


@pytest.mark.parametrize("before, command, after", FOREIGN_OPTIONS.values(), ids=FOREIGN_OPTIONS)
def test_option_a_command_does_not_take_exits_1_naming_it(tmp_path, capsys, before, command,
                                                          after):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    args = {"gradcheck": [],
            "evaluate": [str(manifest), "--checkpoint", str(tmp_path / "c.rvgc")]}
    capsys.readouterr()
    assert run(tmp_path, *before, command, *args.get(command, [str(manifest)]), *after) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: No such option '{(before or after)[0]}'")
    assert captured.out == "" and "Traceback" not in captured.err
    assert list((tmp_path / "work").iterdir()) == []


def test_triples_files_extract_wrote_read_back_strictly(trained_workspace):
    """``extract`` writes no malformed element: each triples file parses
    strictly, and the triples it parses to write the same bytes again."""
    _root, manifest, files = trained_workspace
    for rec in cli.load_manifest(manifest):
        data = files[rec.path("triples")]
        assert not extraction.parse_triple_batch(data, rec.paper_id).malformed
        batch = extraction.parse_triple_batch(data, rec.paper_id, strict=True)
        assert graphmod.compact_json(
            {"paper_id": rec.paper_id, **extraction.batch_to_dict(batch)}).encode() == data


#: Damaged elements of a triples file: (array, index, element, what the error says of it).
DAMAGED_TRIPLES = {
    "garbage": ("Reviewer_Author_Relations", 1, "garbage", "not parenthesized: 'garbage'"),
    "number": ("Inter_Reviewer_Relations", 0, 5, "array element is not a string: 5"),
}


@pytest.mark.parametrize("damage", DAMAGED_TRIPLES)
@pytest.mark.parametrize("stage, output", [("classify", "dims.json"), ("embed", "emb"),
                                           ("build-graph", "graph.json")])
def test_damaged_triples_element_exits_3_naming_paper_file_and_element(
        trained_workspace, tmp_path, capsys, stage, output, damage):
    """A triples file is the program's own, so a malformed element in it is
    damage, not a model's slip to skip: each stage that reads the file exits
    3 and writes nothing for the paper."""
    root = tmp_path / "ws"
    shutil.copytree(trained_workspace[0], root)
    array, index, element, message = DAMAGED_TRIPLES[damage]
    path = root / "work" / "p1.triples.json"
    doc = json.loads(path.read_text())
    doc[array][index] = element
    path.write_text(json.dumps(doc))
    out = root / "work" / f"p1.{output}"
    out.unlink()
    capsys.readouterr()
    assert run(root, stage, str(root / "manifest.jsonl")) == 3
    assert capsys.readouterr().err == (f"data error: p1: corrupt triples file {path}: "
                                       f"MalformedTriple: {array}[{index}]: {message}\n")
    assert not out.exists() and not list((root / "work").glob("*.tmp"))


@pytest.mark.parametrize("stage", list(STAGE_OUTPUTS))
def test_stage_interrupted_mid_write_leaves_no_partial_output(tmp_path, capsys, monkeypatch,
                                                              stage):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    for earlier in STAGE_ORDER[:STAGE_ORDER.index(stage)]:
        assert run(tmp_path, earlier, str(manifest)) == 0
    real_open = io.open

    class HalfWriter:
        """A file object that writes half its data, then is interrupted."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise KeyboardInterrupt

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).name.startswith("p1."):
            return HalfWriter(fh)
        return fh

    monkeypatch.setattr(io, "open", open_)
    monkeypatch.setattr(builtins, "open", open_)
    code = run(tmp_path, stage, str(manifest))
    monkeypatch.undo()
    assert code == 1  # an interrupt is click.Abort
    out = tmp_path / "work" / f"p1.{STAGE_OUTPUTS[stage]}"
    assert (tmp_path / "work" / f"p0.{STAGE_OUTPUTS[stage]}").exists()
    assert not out.exists()
    assert not list((tmp_path / "work").glob("*.tmp"))
    capsys.readouterr()
    assert run(tmp_path, stage, str(manifest)) == 0
    assert out.exists()
    assert "2 written, 1 skipped" in capsys.readouterr().out


@pytest.fixture(scope="module")
def trained_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    manifest = _trained_workspace(root)
    files = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    return root, manifest, files


# artifact -> (file, the command that reads it); evaluate reads the paper's split.
ARTIFACTS = {
    "paper": ("papers/{}.json", "simulate"),
    "transcript": ("work/{}.transcript.json", "extract"),
    "triples": ("work/{}.triples.json", "classify"),
    "dims": ("work/{}.dims.json", "build-graph"),
    "embeddings": ("work/{}.emb", "evaluate"),
    "graph": ("work/{}.graph.json", "evaluate"),
}


@settings(max_examples=100, deadline=None)
@given(artifact=st.sampled_from(sorted(ARTIFACTS)), paper=st.sampled_from(THREE_PAPERS),
       data=st.data())
def test_any_torn_artifact_exits_3_naming_the_paper(trained_workspace, artifact, paper, data):
    root, manifest, files = trained_workspace
    paper_id, split, _label = paper
    pattern, command = ARTIFACTS[artifact]
    path = root / pattern.format(paper_id)
    whole = files[path]
    # a JSON document cut before its last closing bracket never parses; a cache
    # cut anywhere loses at least one vector
    limit = len(whole) if artifact == "embeddings" else len(whole.rstrip())
    path.write_bytes(whole[: data.draw(st.integers(0, limit - 1), label="offset")])
    extra = (["--checkpoint", str(root / "c.rvgc"), "--split", split,
              "--output", str(root / "ev.json")] if command == "evaluate" else [])
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(root, command, *(["--force"] if command != "evaluate" else []),
                       str(manifest), *extra)
    finally:
        for p in root.rglob("*"):
            if p.is_file() and (p not in files or p.read_bytes() != files[p]):
                p.unlink()
        for p, content in files.items():
            if not p.exists():
                p.write_bytes(content)
    assert code == 3
    assert f"{paper_id}: " in err.getvalue()
    assert "Traceback" not in err.getvalue()


#: What the error line says of a graph file of an older form or version.
OLDER_GRAPH = "not a binary graph file of this version (one of an older version, or a JSON one?)"

#: Graph files that are no graph, each from an edit of the file's bytes;
#: evaluate reads every graph file it is given, so each must exit 3.
BROKEN_GRAPHS = {
    "bad-magic": lambda data: data[:6] + b"9" + data[7:],
    "columnar-json": lambda data: json.dumps(
        columnar_form(graphmod._graph_from_bytes(data))).encode(),
    "truncated-header": lambda data: data[:30],
    "header-not-object": header_swap([1, 2, 3]),
    "header-missing-field": header_edit(lambda h: h.pop("texts")),
    "numeric-graph-id": header_edit(lambda h: h.update(graph_id=5)),
    "ragged-column": header_edit(lambda h: h["texts"].pop()),
    "null-text": header_edit(lambda h: h["texts"].__setitem__(0, None)),
    "column-not-a-list": header_edit(lambda h: h.update(texts="x" * h["num_nodes"])),
    "short-array-block": cut_in_edge_rows,
    "short-key-block": lambda data: data[:-5],
    "version-1": version_1_file,
    "unknown-type": set_code("nodes", 0, 0, 4),
    "unknown-speaker": set_code("nodes", 1, 0, 5),
    "unknown-dimension": set_code("nodes", 2, 0, 5),
    "unknown-relation": set_code("edges", 0, 2, 28),
    "edge-to-node-999": set_code("edges", 0, 0, 999),
    "negative-edge-src": set_code("edges", 0, 1, -1),
    # Damaged columnar files, which older versions read past their first byte.
    "string-node-id": columnar_file(set_column("nodes", "id", 0, "0")),
    "float-node-id": columnar_file(set_column("nodes", "id", 0, 0.0)),
    "bool-node-id": columnar_file(set_column("nodes", "id", 1, True)),
    "ids-not-dense": columnar_file(set_column("nodes", "id", -1, 500)),
    "duplicate-node-id": columnar_file(set_column("nodes", "id", 1, 2)),
    "string-inverse": columnar_file(set_column("edges", "inverse", 0, "no")),
}


@pytest.mark.parametrize("name", BROKEN_GRAPHS)
def test_evaluate_structurally_broken_graph_exits_3_naming_the_paper(
        trained_workspace, tmp_path, capsys, name):
    root, manifest, files = trained_workspace
    path = root / "work" / "p2.graph.json"
    broken = BROKEN_GRAPHS[name](files[path])
    path.write_bytes(broken)
    capsys.readouterr()
    try:
        code = run(root, "evaluate", str(manifest), "--checkpoint", str(root / "c.rvgc"),
                   "--split", "test", "--output", str(tmp_path / "ev.json"))
    finally:
        path.write_bytes(files[path])
    err = capsys.readouterr().err
    assert code == 3
    assert "p2: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "ev.json").exists()
    if name in ("bad-magic", "version-1") or not broken.startswith(b"\x89"):
        # an older form or version
        assert f"p2.graph.json: {OLDER_GRAPH}; rerun `" in err
        assert _rerun_hint(err).endswith(f" build-graph --force {manifest}")
    else:  # the paper and the file, then what is wrong
        assert err.startswith(f"data error: p2: corrupt graph file {path}: ")


def _title_query(doc):
    return next(t for t in doc["tensors"] if t["name"] == "layer0/query/title")


#: Malformed checkpoint-manifest edits, and the error line's text after the
#: file's name: it names the entry of ``layer0/query/title``, or a config
#: field of the wrong type or outside its domain.
TITLE_QUERY = "tensor 'layer0/query/title'"
BAD_CHECKPOINTS = {
    "negative-offset": (lambda doc: _title_query(doc).update(offset=-4), TITLE_QUERY),
    "negative-shape": (lambda doc: _title_query(doc).update(shape=[-8, -8]), TITLE_QUERY),
    "string-shape": (lambda doc: _title_query(doc).update(shape="88"), TITLE_QUERY),
    "duplicate-name": (lambda doc: doc["tensors"].append(dict(_title_query(doc))), TITLE_QUERY),
    "missing-tensor": (lambda doc: doc["tensors"].remove(_title_query(doc)), TITLE_QUERY),
    "float-hidden-dim": (lambda doc: doc["model_config"].update(hidden_dim=8.0),
                         "TypeError: model_config.hidden_dim "
                         "must be an integer, not 8.0"),
    "hidden-dim-zero": (lambda doc: doc["model_config"].update(hidden_dim=0),
                        "ModelError: num_heads, hidden_dim and ffn_hidden "
                        "must be positive"),
    "negative-learning-rate": (lambda doc: doc["train_config"].update(learning_rate=-1),
                               "TrainingError: learning_rate must be "
                               "finite and above 0, not -1"),
}


@pytest.mark.parametrize("edit, message", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS.keys())
def test_evaluate_malformed_checkpoint_entry_exits_3_naming_the_tensor(
        trained_workspace, tmp_path, capsys, edit, message):
    root, manifest, files = trained_workspace
    blob = files[root / "c.rvgc"]
    (mlen,) = struct.unpack("<I", blob[4:8])
    doc = json.loads(blob[8:8 + mlen])
    edit(doc)
    mbytes = json.dumps(doc).encode()
    bad = tmp_path / "bad.rvgc"
    bad.write_bytes(blob[:4] + struct.pack("<I", len(mbytes)) + mbytes + blob[8 + mlen:])
    capsys.readouterr()
    code = run(root, "evaluate", str(manifest), "--checkpoint", str(bad), "--split", "test",
               "--output", str(tmp_path / "ev.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"data error: {bad}: {message}"), err
    assert "Traceback" not in err


#: Files that cannot be read as text: (file, exit code, start of the message).
UNREADABLE = {
    "config": ("run.json", 1, "error: bad configuration in {path}: "),
    "manifest": ("manifest.jsonl", 3, "data error: cannot read manifest {path}: "),
    "graph": ("work/p2.graph.json", 3, "data error: p2: "),
    "embeddings": ("work/p2.emb", 3, "data error: p2: "),
}


@pytest.mark.parametrize("content", ["directory", "not-utf8"])
@pytest.mark.parametrize("reader", UNREADABLE)
def test_unreadable_input_exits_with_its_code_naming_it(trained_workspace, tmp_path, capsys,
                                                         reader, content):
    root = tmp_path / "ws"
    shutil.copytree(trained_workspace[0], root)
    file, code, message = UNREADABLE[reader]
    path = root / file
    path.unlink()
    if content == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe not UTF-8 \x80\n")
    capsys.readouterr()
    got = run(root, "evaluate", str(root / "manifest.jsonl"), "--checkpoint",
              str(root / "c.rvgc"), "--output", str(root / "ev.json"))
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith(message.format(path=path)) and str(path) in err
    assert "Traceback" not in err


#: How a paper's graph or cache path fails to open: an edit of the file at
#: the manifest's path, returning the path the manifest should name instead
#: (None keeps it), and the message after "data error: p2: ".
UNOPENABLE = {
    "missing": (lambda path: path.unlink(), "{kind} file missing: {path}"),
    "directory": (lambda path: path.unlink() or path.mkdir(),
                  "corrupt {kind} file {path}: IsADirectoryError: "),
    "under-a-file": (lambda path: path / "inner", "{kind} file missing: {path}"),
}


@pytest.mark.parametrize("kind, file", [("graph", "p2.graph.json"), ("embeddings", "p2.emb")])
@pytest.mark.parametrize("case", UNOPENABLE)
def test_unopenable_graph_or_cache_exits_3_with_its_message(trained_workspace, tmp_path,
                                                            capsys, kind, file, case):
    """Each file is opened once, with no look before: a missing path, also one
    under a regular file, still says so, and a directory is a corrupt file."""
    root = tmp_path / "ws"
    shutil.copytree(trained_workspace[0], root)
    edit, message = UNOPENABLE[case]
    path = edit(root / "work" / file) or root / "work" / file
    manifest = root / "manifest.jsonl"
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    records[2]["paths"][kind] = str(path.relative_to(root))
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert run(root, "evaluate", str(manifest), "--checkpoint", str(root / "c.rvgc"),
               "--output", str(root / "ev.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: p2: " + message.format(kind=kind, path=path)), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_evaluate_hashes_no_text(trained_workspace, tmp_path, monkeypatch):
    """The embedding rows are looked up by the keys the graph files carry:
    with the key function made to raise, evaluate writes the same report."""
    root, manifest, _files = trained_workspace
    args = ["evaluate", str(manifest), "--checkpoint", str(root / "c.rvgc"), "--split", "test"]
    assert run(root, *args, "--output", str(tmp_path / "before.json")) == 0

    class Hashed(Exception):
        pass

    def refuse(text):
        raise Hashed(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("reviewgraph") and hasattr(module, "text_key"):
            monkeypatch.setattr(module, "text_key", refuse)
    with pytest.raises(Hashed):  # the patch bites where a text is hashed
        graphmod.graph_to_bytes(graphmod.assemble("x", *graphmod.skeleton("A title")))
    assert run(root, *args, "--output", str(tmp_path / "after.json")) == 0
    assert (tmp_path / "after.json").read_bytes() == (tmp_path / "before.json").read_bytes()


def test_lone_surrogate_title_goes_through_every_stage(tmp_path, capsys):
    """A title holding a lone surrogate (JSON allows the escape "\\ud800") is
    hashed by its surrogate-passing UTF-8 bytes, so the mock stages, train
    and evaluate all run, and the title node's key is that of its text."""
    manifest = make_workspace(tmp_path, TRAINABLE)
    paper_path = tmp_path / "papers" / "t0.json"
    paper = json.loads(paper_path.read_text())
    paper_path.write_text(json.dumps({**paper, "title": "Lone \ud800 title"}))
    run_stage_pipeline(tmp_path, manifest)
    g = load_graph(tmp_path / "work" / "t0.graph.json")
    assert g.texts[0] == "Lone \ud800 title"
    assert g.text_keys.tolist()[0] == hashlib.sha256(b"Lone \xed\xa0\x80 title").digest()
    assert run(tmp_path, "train", str(manifest), "--checkpoint", str(tmp_path / "c.rvgc"),
               "--history", str(tmp_path / "h.jsonl")) == 0
    assert run(tmp_path, "evaluate", str(manifest), "--checkpoint", str(tmp_path / "c.rvgc"),
               "--split", "train", "--output", str(tmp_path / "ev.json")) == 0
    assert "Traceback" not in capsys.readouterr().err


#: Documents that parse as JSON but hold a value of the wrong type: (file,
#: command, edit of the decoded document, exit code). A manifest's edit is of
#: its first line.
MALFORMED_DOCUMENTS = {
    "manifest-line-number": ("manifest.jsonl", "simulate", lambda d: 5, 3),
    "manifest-line-null": ("manifest.jsonl", "simulate", lambda d: None, 3),
    "manifest-paths-list": ("manifest.jsonl", "simulate", lambda d: {**d, "paths": [1]}, 3),
    "manifest-path-number": ("manifest.jsonl", "simulate",
                             lambda d: {**d, "paths": {"paper": 5}}, 3),
    "manifest-paper-id-list": ("manifest.jsonl", "simulate",
                               lambda d: {**d, "paper_id": [1]}, 3),
    # no file system takes a path with a NUL character, or a lone surrogate
    # that does not encode
    "manifest-path-nul": ("manifest.jsonl", "simulate",
                          lambda d: {**d, "paths": {**d["paths"], "transcript": "p0\u0000.json"}},
                          3),
    "manifest-path-surrogate": ("manifest.jsonl", "simulate",
                                lambda d: {**d, "paths": {**d["paths"],
                                                          "transcript": "p0\ud800.json"}}, 3),
    "config-list": ("run.json", "simulate", lambda d: [1], 1),
    "config-endpoint-number": ("run.json", "simulate", lambda d: {**d, "endpoint": 5}, 1),
    "config-model-list": ("run.json", "simulate", lambda d: {**d, "model": [1]}, 1),
    "paper-body-number": ("papers/p0.json", "simulate", lambda d: {**d, "body": 5}, 3),
    "paper-list": ("papers/p0.json", "simulate", lambda d: [d], 3),
    "paper-null": ("papers/p0.json", "simulate", lambda d: None, 3),
    # a string of attachments would be sent one character at a time
    "paper-attachments-string": ("papers/p0.json", "simulate",
                                 lambda d: {**d, "attachments": "fig1"}, 3),
    "paper-attachment-number": ("papers/p0.json", "simulate",
                                lambda d: {**d, "attachments": ["fig1", 5]}, 3),
    # a turn of the debate, as a review, that is a number
    "message-content-number": ("work/p0.transcript.json", "extract",
                               lambda d: {**d, "reviews": [5, *d["reviews"][1:]]}, 3),
    "message-attachments-string": ("work/p0.transcript.json", "extract",
                                   lambda d: {**d, "attachments": "fig1"}, 3),
    "transcript-rebuttal-missing": ("work/p0.transcript.json", "extract",
                                    lambda d: {k: v for k, v in d.items() if k != "rebuttal"}, 3),
    "transcript-reviews-string": ("work/p0.transcript.json", "extract",
                                  lambda d: {**d, "reviews": "\n".join(d["reviews"])}, 3),
    "transcript-two-reviews": ("work/p0.transcript.json", "extract",
                               lambda d: {**d, "reviews": d["reviews"][:2]}, 3),
    "transcript-title-number-embed": ("work/p0.transcript.json", "embed",
                                      lambda d: {**d, "title": 5}, 3),
    "transcript-title-number-build-graph": ("work/p0.transcript.json", "build-graph",
                                            lambda d: {**d, "title": 5}, 3),
    "dims-text-number": ("work/p0.dims.json", "build-graph",
                         lambda d: [{**d[0], "text": 5}, *d[1:]], 3),
}


@pytest.mark.parametrize("name", MALFORMED_DOCUMENTS)
def test_malformed_document_exits_with_its_code_naming_the_file(trained_workspace, capsys, name):
    root, manifest, files = trained_workspace
    file, command, edit, code = MALFORMED_DOCUMENTS[name]
    path = root / file
    text = files[path].decode()
    if path == manifest:
        first, rest = text.split("\n", 1)
        text = json.dumps(edit(json.loads(first))) + "\n" + rest
    else:
        text = json.dumps(edit(json.loads(text)))
    path.write_text(text)
    capsys.readouterr()
    try:
        got = run(root, command, "--force", str(manifest))
    finally:
        for p in root.rglob("*"):
            if p.is_file() and (p not in files or p.read_bytes() != files[p]):
                p.unlink()
        for p, content in files.items():
            if not p.exists():
                p.write_bytes(content)
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    if path == manifest:
        assert f"data error: {path}:1: " in err
    elif code == 1:
        assert f"error: bad configuration in {path}: " in err
    else:
        assert err.startswith("data error: p0: corrupt ") and f" file {path}: TypeError: " in err


#: Files that a command parses as JSON: (file, command, exit code, start of
#: the message). Each nested too deeply to parse used to end in a
#: RecursionError traceback.
DEEP_DOCUMENTS = {
    "config": ("run.json", "simulate", 1, "error: bad configuration in {path}: "
               "ValueError: JSON nested too deeply to parse"),
    "manifest": ("manifest.jsonl", "train", 3, "data error: {path}:1: not valid JSON: "),
    "paper": ("papers/p0.json", "simulate", 3, "data error: p0: corrupt paper file {path}: "
              "ValueError: JSON nested too deeply to parse"),
    "transcript": ("work/p0.transcript.json", "extract", 3,
                   "data error: p0: corrupt transcript file {path}: "
                   "ValueError: JSON nested too deeply to parse"),
    "triples": ("work/p0.triples.json", "classify", 3,
                "data error: p0: corrupt triples file {path}: NotJson: "),
    "dims": ("work/p0.dims.json", "build-graph", 3,
             "data error: p0: corrupt dims file {path}: "
             "ValueError: JSON nested too deeply to parse"),
}


@pytest.mark.parametrize("name", DEEP_DOCUMENTS)
def test_document_nested_too_deeply_exits_with_its_code_naming_the_file(trained_workspace,
                                                                        capsys, name):
    root, manifest, files = trained_workspace
    file, command, code, message = DEEP_DOCUMENTS[name]
    path = root / file
    path.write_text("[" * 200_000)
    capsys.readouterr()
    try:
        got = run(root, command, *(["--force"] if command != "train" else []), str(manifest))
    finally:
        path.write_bytes(files[path])
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith(message.format(path=path)) and "Traceback" not in err


def _homogeneous_workspace(root):
    """A trained typed checkpoint ``c.rvgc``, then graph files that hold the
    homogenized graphs."""
    manifest = _trained_workspace(root)
    for path in (root / "work").glob("*.graph.json"):
        homogenized = graphmod.apply_ablation(load_graph(path), graphmod.AblationMode.HOMOGENEOUS)
        graphmod.save_graph(homogenized, path)
    return manifest


def test_homogeneous_ablation_trains_and_evaluates_the_homogeneous_model(tmp_path, capsys):
    manifest = _trained_workspace(tmp_path)
    assert run(tmp_path, "train", str(manifest), "--ablation", "homogeneous",
               "--checkpoint", str(tmp_path / "h.rvgc"),
               "--history", str(tmp_path / "h.jsonl")) == 0
    checkpoint = training.load_checkpoint(tmp_path / "h.rvgc")
    assert checkpoint.model_config.ablation == "homogeneous"
    assert checkpoint.model_config.homogeneous
    assert run(tmp_path, "evaluate", str(manifest), "--checkpoint", str(tmp_path / "h.rvgc"),
               "--output", str(tmp_path / "ev.json")) == 0


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_typed_model_on_homogenized_graphs_exits_3_naming_the_paper(tmp_path, capsys, command):
    manifest = _homogeneous_workspace(tmp_path)
    extra = (["--checkpoint", str(tmp_path / "t.rvgc"), "--history", str(tmp_path / "t.jsonl")]
             if command == "train" else _evaluate_args(tmp_path))
    capsys.readouterr()
    assert run(tmp_path, command, str(manifest), *extra) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"data error: p[012]: the connected relation of a homogenized graph "
                        r"needs the homogeneous model \(the homogeneous ablation\)\n", err)
    assert command == "train" or err.startswith("data error: p2: ")


#: Config values whose JSON type is not the field's: each exits 1 naming the field.
WRONGLY_TYPED = {
    "fractional-batch-size": ("train", "batch_size", 2.5),
    "string-embedding-dim": ("endpoint", "embedding_dim", "16"),
    "string-use-inverse-edges": ("model", "use_inverse_edges", "no"),
    "string-shuffle": ("train", "shuffle", "false"),
    "string-timeout": ("endpoint", "timeout", "5"),
    "fractional-max-concurrent": ("endpoint", "max_concurrent", 2.5),
    "bool-hidden-dim": ("model", "hidden_dim", True),
    "bool-learning-rate": ("train", "learning_rate", False),
    "integer-shuffle": ("train", "shuffle", 1),
    "number-attention-scale": ("model", "attention_scale", 2),
    "list-seed": ("model", "seed", [1]),
    "integer-learning-rate-beyond-float": ("train", "learning_rate", 10**400),
}


@pytest.mark.parametrize("section, field, value", WRONGLY_TYPED.values(), ids=WRONGLY_TYPED)
def test_config_value_of_the_wrong_type_exits_1_naming_the_field(tmp_path, capsys, section,
                                                                  field, value):
    manifest = make_workspace(tmp_path, THREE_PAPERS, {section: {field: value}})
    capsys.readouterr()
    assert run(tmp_path, "simulate", str(manifest)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad configuration in {tmp_path / 'run.json'}: "
                          f"{section}.{field} must be "), err
    assert err.rstrip().endswith(f", not {json.dumps(value)}")
    assert not (tmp_path / "work" / "p0.transcript.json").exists()


#: Config sizes out of range: each exits 1 at load, before any stage runs.
BAD_SIZES = {
    "zero-heads": {"model": {"num_heads": 0}},
    "negative-heads": {"model": {"num_heads": -2}},
    "zero-hidden-dim": {"model": {"hidden_dim": 0, "num_heads": 1}},
    "zero-ffn-hidden": {"model": {"ffn_hidden": 0}},
    "zero-classes": {"model": {"num_classes": 0}},
    "one-class": {"model": {"num_classes": 1}},
    "negative-embedding-dim": {"endpoint": {"embedding_dim": -1}, "model": {"input_dim": 16}},
    "zero-embedding-dim": {"endpoint": {"embedding_dim": 0}, "model": {"input_dim": 16}},
}


@pytest.mark.parametrize("config", BAD_SIZES.values(), ids=BAD_SIZES)
@pytest.mark.parametrize("command", ["simulate", "gradcheck"])
def test_config_size_out_of_range_exits_1(tmp_path, capsys, config, command):
    manifest = make_workspace(tmp_path, THREE_PAPERS, config)
    capsys.readouterr()
    args = [str(manifest)] if command == "simulate" else []
    assert run(tmp_path, command, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad configuration in {tmp_path / 'run.json'}: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "work" / "p0.transcript.json").exists()


#: Values outside their domain, and keys that are no part of a run config,
#: with the command that reads them and the option, field or key the error
#: must name: each exits 1 before any stage runs.
OUT_OF_DOMAIN = {
    "seed-option-train": (["--seed", "-1"], {}, ["train", "{manifest}"], "'--seed'"),
    "seed-option-ablate": (["--seed", "-1"], {}, ["ablate", "{manifest}"], "'--seed'"),
    "seed-option-gradcheck": (["--seed", "-1"], {}, ["gradcheck"], "'--seed'"),
    "zero-jobs": (["--jobs", "0"], {}, ["gradcheck"], "'--jobs'"),
    "model-seed": ([], {"model": {"seed": -1}}, ["train", "{manifest}"], "model: seed"),
    "train-seed": ([], {"train": {"seed": -1}}, ["ablate", "{manifest}"], "train: seed"),
    "zero-timeout": ([], {"endpoint": {"timeout": 0}}, ["simulate", "{manifest}"],
                     "endpoint: timeout"),
    "negative-timeout": ([], {"endpoint": {"timeout": -5}}, ["simulate", "{manifest}"],
                         "endpoint: timeout"),
    "nan-timeout": ([], {"endpoint": {"timeout": math.nan}}, ["simulate", "{manifest}"],
                    "endpoint: timeout"),
    "negative-backoff": ([], {"endpoint": {"backoff_base": -1}}, ["simulate", "{manifest}"],
                         "endpoint: backoff_base"),
    "infinite-backoff": ([], {"endpoint": {"backoff_base": math.inf}},
                         ["simulate", "{manifest}"], "endpoint: backoff_base"),
    "beta1-one": ([], {"train": {"beta1": 1.0}}, ["train", "{manifest}"], "train: beta1"),
    "beta2-one": ([], {"train": {"beta2": 1.0}}, ["train", "{manifest}"], "train: beta2"),
    "negative-beta1": ([], {"train": {"beta1": -0.1}}, ["train", "{manifest}"],
                       "train: beta1"),
    "zero-epsilon": ([], {"train": {"epsilon": 0}}, ["train", "{manifest}"], "train: epsilon"),
    "infinite-learning-rate": ([], {"train": {"learning_rate": math.inf}},
                               ["train", "{manifest}"], "train: learning_rate"),
    "nan-learning-rate": ([], {"train": {"learning_rate": math.nan}}, ["train", "{manifest}"],
                          "train: learning_rate"),
    "negative-patience": ([], {"train": {"early_stop_patience": -1}}, ["train", "{manifest}"],
                          "train: early_stop_patience"),
    "zero-eps": (["--seed", "0"], {}, ["gradcheck", "--eps", "0"], "--eps"),
    "negative-eps": (["--seed", "0"], {}, ["gradcheck", "--eps", "-1e-5"], "--eps"),
    "nan-eps": (["--seed", "0"], {}, ["gradcheck", "--eps", "nan"], "--eps"),
    "infinite-eps": (["--seed", "0"], {}, ["gradcheck", "--eps", "inf"], "--eps"),
    "negative-samples": (["--seed", "0"], {}, ["gradcheck", "--samples", "-1"], "'--samples'"),
    "zero-threshold": (["--seed", "0"], {}, ["gradcheck", "--threshold", "0"], "--threshold"),
    "negative-threshold": (["--seed", "0"], {}, ["gradcheck", "--threshold", "-1e-4"],
                           "--threshold"),
    "nan-threshold": (["--seed", "0"], {}, ["gradcheck", "--threshold", "nan"], "--threshold"),
    "infinite-threshold": (["--seed", "0"], {}, ["gradcheck", "--threshold", "inf"],
                           "--threshold"),
    "unknown-model-ablation": ([], {"model": {"ablation": "no_author"}}, ["train", "{manifest}"],
                               "model: unknown ablation 'no_author'"),
    # the model's mode is its ablation: the fields it replaced are unknown ones
    "model-homogeneous": ([], {"model": {"homogeneous": True}}, ["simulate", "{manifest}"],
                          "'homogeneous'"),
    "model-num-classes": ([], {"model": {"num_classes": 2}}, ["train", "{manifest}"],
                          "'num_classes'"),
    # a run config has its three sections and no other key
    "top-level-ablation": ([], {"ablation": "no_title"}, ["train", "{manifest}"],
                           "unknown key 'ablation'"),
    "misspelled-section": ([], {"modle": {"hidden_dim": 8}}, ["train", "{manifest}"],
                           "unknown key 'modle'"),
    # an HTTP endpoint needs an http(s) URL with a host
    "mock-false-without-url": ([], {"endpoint": {"mock": False}}, ["simulate", "{manifest}"],
                               "endpoint: base_url must be an http:// or https:// URL"),
    "ftp-url": ([], {"endpoint": {"mock": False, "base_url": "ftp://example.invalid"}},
                ["simulate", "{manifest}"], "endpoint: base_url"),
    "url-without-host": ([], {"endpoint": {"mock": False, "base_url": "https:///v1"}},
                         ["simulate", "{manifest}"], "endpoint: base_url"),
    "unclosed-ipv6-url": ([], {"endpoint": {"mock": False, "base_url": "http://[::1/v1"}},
                          ["simulate", "{manifest}"], "endpoint: base_url"),
}


@pytest.mark.parametrize("options, config, command, field", OUT_OF_DOMAIN.values(),
                         ids=OUT_OF_DOMAIN)
def test_value_outside_its_domain_exits_1_naming_it(tmp_path, capsys, options, config, command,
                                                    field):
    manifest = make_workspace(tmp_path, THREE_PAPERS, config)
    capsys.readouterr()
    args = [arg.format(manifest=manifest) for arg in command]
    assert main(["--config", str(tmp_path / "run.json"), *options, *args]) == 1
    err = capsys.readouterr().err
    assert field in err, err
    assert "Traceback" not in err
    assert config == {} or err.startswith(f"error: bad configuration in {tmp_path / 'run.json'}: ")
    assert not (tmp_path / "work" / "p0.transcript.json").exists()


def test_config_float_fields_take_integers(tmp_path):
    manifest = make_workspace(tmp_path, THREE_PAPERS, {"endpoint": {"timeout": 5},
                                                      "train": {"learning_rate": 1}})
    assert run(tmp_path, "simulate", str(manifest)) == 0


def test_cache_of_another_dim_than_the_model_names_paper_and_cache(tmp_path, capsys):
    manifest = _trained_workspace(tmp_path)  # 16-dim caches and model
    capsys.readouterr()
    config = json.loads((tmp_path / "run.json").read_text())
    config["model"]["input_dim"] = 32
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert run(tmp_path, "train", str(manifest), "--checkpoint", str(tmp_path / "c2.rvgc"),
               "--history", str(tmp_path / "h2.jsonl")) == 3
    assert capsys.readouterr().err == (
        f"data error: p0: embedding cache {tmp_path / 'work' / 'p0.emb'} holds vectors "
        "of dim 16, but the model's input_dim is 32\n")

    path = tmp_path / "work" / "p2.emb"
    path.unlink()
    orch.EmbeddingCache(path).put("some text", np.zeros(8))
    assert run(tmp_path, "evaluate", str(manifest), *_evaluate_args(tmp_path)) == 3
    assert capsys.readouterr().err == (
        f"data error: p2: embedding cache {path} holds vectors of dim 8, but the model's "
        "input_dim is 16\n")


def _cut_manifest(blob, mlen):
    return blob[:8 + mlen - 10]


def _with_manifest(manifest_bytes):
    def edit(blob, mlen):
        return (blob[:4] + struct.pack("<I", len(manifest_bytes)) + manifest_bytes
                + blob[8 + mlen:])
    return edit


def _with_doc(change):
    def edit(blob, mlen):
        doc = json.loads(blob[8:8 + mlen])
        change(doc)
        return _with_manifest(json.dumps(doc).encode())(blob, mlen)
    return edit


_OLDER_MODEL_CONFIG = ("TypeError: ModelConfig.__init__() got an unexpected keyword argument "
                       "'homogeneous'")

#: Checkpoint faults that ``load_checkpoint`` reports by name: (edit of the
#: file's bytes and its manifest length, message).
BROKEN_CHECKPOINT_FILES = {
    "truncated-manifest": (_cut_manifest, "ValueError: header cut short"),
    "unreadable-manifest": (_with_manifest(b"\xff{not json"), "UnicodeDecodeError: "),
    "list-manifest": (_with_manifest(b"[1, 2]"), "TypeError: header is not a JSON object"),
    "deep-manifest": (_with_manifest(b"[" * 200_000),
                      "ValueError: JSON nested too deeply to parse"),
    "wrong-version": (_with_doc(lambda d: d.update(version=99)),
                      "unsupported checkpoint version 99"),
    "tensors-object": (_with_doc(lambda d: d.update(tensors={})),
                       "manifest 'tensors' is not a list"),
    "last-tensor-missing": (_with_doc(lambda d: d["tensors"].pop()),
                            "tensor 'head/b2' is missing from the manifest"),
    # a checkpoint written before the model config held the ablation must be
    # retrained: one written before the ablation was recorded, and one that
    # recorded it beside the model config
    "no-ablation": (_with_doc(older_model_config), _OLDER_MODEL_CONFIG),
    "top-level-ablation": (_with_doc(lambda d: older_model_config(d).update(ablation="full")),
                           _OLDER_MODEL_CONFIG),
}


@pytest.mark.parametrize("edit, message", BROKEN_CHECKPOINT_FILES.values(),
                         ids=BROKEN_CHECKPOINT_FILES.keys())
def test_evaluate_broken_checkpoint_exits_3_with_its_fault(trained_workspace, tmp_path, capsys,
                                                           edit, message):
    root, manifest, files = trained_workspace
    blob = files[root / "c.rvgc"]
    (mlen,) = struct.unpack("<I", blob[4:8])
    bad = tmp_path / "bad.rvgc"
    bad.write_bytes(edit(blob, mlen))
    capsys.readouterr()
    code = run(root, "evaluate", str(manifest), "--checkpoint", str(bad),
               "--output", str(tmp_path / "ev.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"data error: {bad}: {message}") and "Traceback" not in err
    assert not (tmp_path / "ev.json").exists()


#: Each command's report or history option and the name its error gives the file.
REPORT_OPTIONS = {"train": ("--history", "history"), "evaluate": ("--output", "report"),
                  "ablate": ("--output", "report")}


@pytest.mark.parametrize("command", REPORT_OPTIONS)
def test_directory_at_a_report_or_history_path_exits_3_naming_it(trained_workspace, tmp_path,
                                                                  capsys, command):
    root, manifest, _files = trained_workspace
    target = tmp_path / "out"
    target.mkdir()
    option, what = REPORT_OPTIONS[command]
    extra = {"train": ["--checkpoint", str(tmp_path / "c.rvgc")],
             "evaluate": ["--checkpoint", str(root / "c.rvgc")], "ablate": []}[command]
    capsys.readouterr()
    assert run(root, command, str(manifest), *extra, option, str(target)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {what} to {target}: IsADirectoryError")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert target.is_dir() and not list(tmp_path.glob("*.tmp"))


def test_train_creates_missing_output_directories(trained_workspace, tmp_path):
    root, manifest, _files = trained_workspace
    checkpoint, history = tmp_path / "runs" / "x" / "model.rvgc", tmp_path / "logs" / "h.jsonl"
    assert run(root, "train", str(manifest), "--checkpoint", str(checkpoint),
               "--history", str(history)) == 0
    assert training.load_checkpoint(checkpoint).params.n_params() > 0
    assert history.read_text().count("\n") >= 1


#: The output options of the commands that train, each with the other options they take.
TRAINED_OUTPUTS = {
    "train-checkpoint": ("train", "--checkpoint", {"--history": "h.jsonl"}),
    "train-history": ("train", "--history", {"--checkpoint": "c.rvgc"}),
    "ablate-output": ("ablate", "--output", {}),
}


@pytest.mark.parametrize("command, option, others", TRAINED_OUTPUTS.values(),
                         ids=TRAINED_OUTPUTS)
def test_output_under_a_regular_file_exits_3_before_training(trained_workspace, tmp_path, capsys,
                                                             monkeypatch, command, option, others):
    root, manifest, _files = trained_workspace
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "x" / "out"
    monkeypatch.setattr(training, "train",
                        lambda *args: pytest.fail("trained before checking the output paths"))
    capsys.readouterr()
    others = [arg for other, name in others.items() for arg in (other, str(tmp_path / name))]
    assert run(root, command, str(manifest), option, str(target), *others) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot create the directory of {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("force", [False, True], ids=["resume", "force"])
def test_directory_at_a_stage_output_path_exits_3_naming_paper_and_path(tmp_path, capsys, force):
    """Resuming trusts only a regular file, so the directory is not a finished
    transcript; replacing it fails either way."""
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    out = tmp_path / "work" / "p1.transcript.json"
    out.mkdir()
    capsys.readouterr()
    assert run(tmp_path, "simulate", *(["--force"] if force else []), str(manifest)) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"data error: p1: cannot write transcript file {out}: ")
    assert "Traceback" not in captured.err and "skipped" not in captured.out
    assert out.is_dir() and (tmp_path / "work" / "p0.transcript.json").is_file()


#: Runs the five stages on a mock endpoint, then train and evaluate, in a
#: workspace under argv[1] of the papers in argv[2]; prints the HTTP-stack
#: modules loaded by then, then the reply of one HTTP completion through a
#: fake ``requests.post``.
NO_HTTP_STACK = """
import json, sys, types
from pathlib import Path
import reviewgraph, reviewgraph.cli
from pipeline_utils import make_workspace, run, run_stage_pipeline
root = Path(sys.argv[1])
manifest = make_workspace(root, json.loads(sys.argv[2]))
run_stage_pipeline(root, manifest)
assert run(root, "train", str(manifest), "--checkpoint", str(root / "c.rvgc"),
           "--history", str(root / "h.jsonl")) == 0
assert run(root, "evaluate", str(manifest), "--checkpoint", str(root / "c.rvgc"),
           "--split", "test", "--output", str(root / "ev.json")) == 0
print(json.dumps(sorted({"requests", "urllib3", "charset_normalizer", "idna", "ssl"}
                        & set(sys.modules))))
import requests
from reviewgraph.orchestration import EndpointConfig, HttpChatClient
body = {"choices": [{"message": {"content": "pong"}}]}
requests.post = lambda url, **kwargs: types.SimpleNamespace(
    status_code=200, text=json.dumps(body), json=lambda: body)
client = HttpChatClient(EndpointConfig(base_url="https://example.invalid/v1", model="m"))
print(client.complete([{"role": "user", "content": "ping"}]))
"""


def test_commands_without_an_http_endpoint_never_load_the_http_stack(tmp_path):
    """The HTTP stack is about 10 MB of a process's resident memory; only a
    request to an HTTP endpoint imports it, and then finds a patched ``post``."""
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    args = [sys.executable, "-c", NO_HTTP_STACK, str(tmp_path), json.dumps(TRAINABLE)]
    done = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    *_, loaded, reply = done.stdout.splitlines()
    assert json.loads(loaded) == []
    assert reply == "pong"


#: Runs the stage argv[2] over the workspace under argv[1] and kills its own
#: process with SIGKILL while the argv[3]-th paper's output is being written:
#: that output goes to ``<output>.tmp`` through ``graph.replacing``, wrapped
#: here to cut the file to half its bytes before the kill.
KILLED_STAGE = """
import os, signal, sys
from contextlib import contextmanager
from pathlib import Path
from reviewgraph import graph
from pipeline_utils import run
root, stage, k = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
replacing, outputs = graph.replacing, []

@contextmanager
def killed_in_kth(path):
    with replacing(path) as tmp:
        yield tmp
        outputs.append(path)
        if len(outputs) == k:
            tmp.write_bytes(tmp.read_bytes()[:tmp.stat().st_size // 2])
            os.kill(os.getpid(), signal.SIGKILL)

graph.replacing = killed_in_kth
run(root, stage, str(root / "manifest.jsonl"))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_stage_killed_mid_write_resumes_to_the_uninterrupted_outputs(tmp_path, capsys):
    """A rerun without --force skips the papers written before the kill,
    never trusts the half-written output, and leaves no ``.tmp``."""
    whole, killed = tmp_path / "whole", tmp_path / "killed"
    for root in (whole, killed):
        make_workspace(root, THREE_PAPERS)
        for stage in ("simulate", "extract", "classify"):
            assert run(root, stage, str(root / "manifest.jsonl")) == 0
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for stage, output in (("embed", "p1.emb"), ("build-graph", "p1.graph.json")):
        assert run(whole, stage, str(whole / "manifest.jsonl")) == 0
        done = subprocess.run([sys.executable, "-c", KILLED_STAGE, str(killed), stage, "2"],
                              env=env, capture_output=True, timeout=300)
        assert done.returncode == -signal.SIGKILL, done.stderr
        out = killed / "work" / output
        assert not out.exists() and Path(f"{out}.tmp").stat().st_size > 0
        capsys.readouterr()
        assert run(killed, stage, str(killed / "manifest.jsonl")) == 0
        assert capsys.readouterr().out.startswith(f"{stage}: 2 written, 1 skipped")
    files = {p.relative_to(whole): p.read_bytes() for p in whole.rglob("*") if p.is_file()}
    assert {p.relative_to(killed): p.read_bytes() for p in killed.rglob("*")
            if p.is_file()} == files
    assert not list(killed.rglob("*.tmp"))

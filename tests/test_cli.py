import builtins
import contextlib
import io
import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pipeline_utils import make_workspace, run, run_stage_pipeline
from reviewgraph import autodiff as ad
from reviewgraph import graph as graphmod
from reviewgraph import orchestration as orch
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
    code = main(["--config", str(tmp_path / "run.json"), "--seed", "7", "--force",
                 "simulate", str(manifest)])
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


def test_build_graph_with_no_title_ablation(tmp_path):
    manifest = make_workspace(tmp_path, THREE_PAPERS)
    for cmd in ("simulate", "extract", "classify", "embed"):
        run(tmp_path, cmd, str(manifest))
    code = main(["--config", str(tmp_path / "run.json"), "--seed", "7",
                 "--ablation", "no_title", "build-graph", str(manifest)])
    assert code == 0
    g = load_graph(tmp_path / "work" / "p1.graph.json")
    assert not g.nodes_of_type(NodeType.TITLE)


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
    doc["stages"] = [s for s in doc["stages"] if s["stage"] != "author_rebuttal"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(tmp_path, "extract", str(manifest)) == 3
    err = capsys.readouterr().err
    assert "p1: transcript is missing a mandatory stage" in err
    assert not (tmp_path / "work" / "p1.triples.json").exists()


def test_train_requires_val_split(tmp_path):
    manifest = make_workspace(tmp_path, [("a", "train", "accept"), ("b", "train", "reject")])
    run_stage_pipeline(tmp_path, manifest)
    code = run(tmp_path, "train", str(manifest),
               "--checkpoint", str(tmp_path / "c.rvgc"),
               "--history", str(tmp_path / "h.jsonl"))
    assert code == 1


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
    assert "malformed manifest" in capsys.readouterr().err


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
    ("evaluate", "p2", "emb.jsonl"),
    ("train", "p0", "emb.jsonl"),
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
    before = {p.name: p.read_bytes() for p in (tmp_path / "work").glob("*.emb.jsonl")}
    real_embed_texts = orch.embed_texts

    def embed_then_fail(texts, client, cache):
        real_embed_texts(texts[:2], client, cache)
        raise orch.EndpointError("endpoint went away")

    monkeypatch.setattr(orch, "embed_texts", embed_then_fail)
    code = main(["--config", str(tmp_path / "run.json"), "--seed", "7", "--force",
                 "embed", str(manifest)])
    assert code == 2
    after = {p.name: p.read_bytes() for p in (tmp_path / "work").glob("*.emb.jsonl*")}
    assert after == before


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


def test_ablate_loads_each_paper_once(tmp_path, monkeypatch):
    six = [p for p in TRAINABLE if p[0] not in ("t2", "t3")]
    manifest = make_workspace(tmp_path, six)
    run_stage_pipeline(tmp_path, manifest)
    loads = {"graph": 0, "cache": 0}
    real_load_graph, real_cache = graphmod.load_graph, orch.EmbeddingCache

    def load_graph_counted(path):
        loads["graph"] += 1
        return real_load_graph(path)

    def cache_counted(path):
        loads["cache"] += 1
        return real_cache(path)

    monkeypatch.setattr(graphmod, "load_graph", load_graph_counted)
    monkeypatch.setattr(orch, "EmbeddingCache", cache_counted)
    assert run(tmp_path, "ablate", str(manifest), "--output", str(tmp_path / "abl.json")) == 0
    assert loads == {"graph": 6, "cache": 6}


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
    assert main(["--ablation", "bogus", "simulate", str(manifest)]) == 1


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


@pytest.mark.parametrize("content", [None, "[1.0, 0.", '{"a": 1.0}', '"1010"', '[1.0, "x"]',
                                     "[1.0, null]"],
                         ids=["missing", "torn", "object", "string", "text-entry", "null-entry"])
def test_evaluate_bad_compare_file_exits_3_naming_it(tmp_path, capsys, content):
    manifest = _trained_workspace(tmp_path)
    compare = tmp_path / "other.json"
    if content is not None:
        compare.write_text(content)
    capsys.readouterr()
    code = run(tmp_path, "evaluate", str(manifest), "--checkpoint", str(tmp_path / "c.rvgc"),
               "--output", str(tmp_path / "ev.json"), "--compare", str(compare))
    err = capsys.readouterr().err
    assert code == 3
    assert str(compare) in err and "Traceback" not in err
    assert not (tmp_path / "ev.json").exists()


STAGE_OUTPUTS = {"simulate": "transcript.json", "extract": "triples.json",
                 "classify": "dims.json", "build-graph": "graph.json"}
STAGE_ORDER = ("simulate", "extract", "classify", "embed", "build-graph")


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
    "embeddings": ("work/{}.emb.jsonl", "evaluate"),
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
            code = run(root, "--force", command, str(manifest), *extra)
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



def _edit_entry(tensors, **fields):
    next(t for t in tensors if t["name"] == "layer0/query/title").update(fields)


#: Malformed checkpoint-manifest edits, each to the entry of ``layer0/query/title``.
BAD_CHECKPOINTS = {
    "negative-offset": lambda tensors: _edit_entry(tensors, offset=-4),
    "negative-shape": lambda tensors: _edit_entry(tensors, shape=[-8, -8]),
    "string-shape": lambda tensors: _edit_entry(tensors, shape="88"),
    "duplicate-name": lambda tensors: tensors.append(
        next(dict(t) for t in tensors if t["name"] == "layer0/query/title")),
    "missing-tensor": lambda tensors: tensors.remove(
        next(t for t in tensors if t["name"] == "layer0/query/title")),
}


@pytest.mark.parametrize("edit", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS.keys())
def test_evaluate_malformed_checkpoint_entry_exits_3_naming_the_tensor(
        trained_workspace, tmp_path, capsys, edit):
    root, manifest, files = trained_workspace
    blob = files[root / "c.rvgc"]
    (mlen,) = struct.unpack("<I", blob[4:8])
    doc = json.loads(blob[8:8 + mlen])
    edit(doc["tensors"])
    mbytes = json.dumps(doc).encode()
    bad = tmp_path / "bad.rvgc"
    bad.write_bytes(blob[:4] + struct.pack("<I", len(mbytes)) + mbytes + blob[8 + mlen:])
    capsys.readouterr()
    code = run(root, "evaluate", str(manifest), "--checkpoint", str(bad), "--split", "test",
               "--output", str(tmp_path / "ev.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert "data error: tensor 'layer0/query/title'" in err
    assert "Traceback" not in err

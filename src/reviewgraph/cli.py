"""Command-line surface: per-stage pipeline commands, dataset manifests,
run configuration, and evaluation reports.

Exit codes are a stable contract: 0 success, 1 usage error, 2 endpoint
failure, 3 data or validation failure, 4 training numeric failure,
5 gradient-check failure.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import click
import numpy as np

from . import autodiff, extraction, graph as graphmod, model as modelmod
from . import orchestration as orch
from . import synth, training

log = logging.getLogger("reviewgraph")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ENDPOINT = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_GRADCHECK = 5


class UsageFailure(Exception):
    pass


class DataFailure(Exception):
    pass


@dataclass(frozen=True)
class ManifestRecord:
    paper_id: str
    split: str
    label: str
    paths: dict[str, str]

    def path(self, kind: str) -> Path:
        try:
            return Path(self.paths[kind])
        except KeyError:
            raise DataFailure(f"{self.paper_id}: manifest record has no {kind!r} path") from None


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    """JSON-lines manifest, one record per paper; paths resolved relative
    to the manifest file's directory."""
    path = Path(path)
    if not path.exists():
        raise DataFailure(f"manifest not found: {path}")
    base = path.parent
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFailure(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        for key in ("paper_id", "split", "label"):
            if key not in raw:
                raise DataFailure(f"{path}:{lineno}: missing {key!r}")
        if raw["paper_id"] in seen:
            raise DataFailure(f"{path}:{lineno}: duplicate paper_id {raw['paper_id']!r}")
        seen.add(raw["paper_id"])
        if raw["split"] not in ("train", "val", "test"):
            raise DataFailure(f"{path}:{lineno}: unknown split {raw['split']!r}")
        if raw["label"] not in graphmod.DECISION_LABELS:
            raise DataFailure(f"{path}:{lineno}: unknown label {raw['label']!r}")
        paths = {k: str(base / v) for k, v in raw.get("paths", {}).items()}
        records.append(
            ManifestRecord(paper_id=raw["paper_id"], split=raw["split"],
                           label=raw["label"], paths=paths)
        )
    if not records:
        raise DataFailure(f"manifest is empty: {path}")
    return records


@dataclass(frozen=True)
class RunConfig:
    model: modelmod.ModelConfig
    train: training.TrainConfig
    endpoint: orch.EndpointConfig
    ablation: graphmod.AblationMode = graphmod.AblationMode.FULL


def load_run_config(path: str | Path | None, seed: int | None = None,
                    ablation: str | None = None) -> RunConfig:
    """One JSON document with optional model/train/endpoint/ablation sections.

    --seed overrides every seed field; --ablation overrides the mode.
    """
    raw: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise UsageFailure(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise UsageFailure(f"config file is not valid JSON: {exc}") from exc

    endpoint_raw = dict(raw.get("endpoint", {}))
    if "mock" not in endpoint_raw and not endpoint_raw.get("base_url"):
        endpoint_raw["mock"] = True
    model_raw = dict(raw.get("model", {}))
    model_raw.setdefault("input_dim", endpoint_raw.get("embedding_dim", 64))
    train_raw = dict(raw.get("train", {}))
    if seed is not None:
        model_raw["seed"] = seed
        train_raw["seed"] = seed
        endpoint_raw["mock_seed"] = seed
    mode_name = ablation or raw.get("ablation", "full")
    try:
        mode = graphmod.AblationMode(mode_name)
    except ValueError:
        raise UsageFailure(f"unknown ablation mode {mode_name!r}") from None
    try:
        return RunConfig(
            model=modelmod.ModelConfig(**model_raw),
            train=training.TrainConfig(**train_raw),
            endpoint=orch.EndpointConfig(**endpoint_raw),
            ablation=mode,
        )
    except (TypeError, modelmod.ModelError, training.TrainingError,
            orch.OrchestrationError) as exc:
        raise UsageFailure(f"bad configuration: {exc}") from exc


def _json(obj: dict | list) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, obj: dict | list) -> None:
    """Write ``obj`` as JSON; ``path`` appears only once it is complete."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with graphmod.replacing(path) as tmp:
        tmp.write_text(_json(obj))


T = TypeVar("T")


def _read(rec: ManifestRecord, kind: str, parse: Callable[[Path], T]) -> T:
    """``parse`` the paper's ``kind`` file; a missing file or one that does not
    parse is a ``DataFailure`` naming the paper and the file."""
    path = rec.path(kind)
    if not path.exists():
        raise DataFailure(f"{rec.paper_id}: {kind} file missing: {path}")
    try:
        return parse(path)
    except (graphmod.CorruptGraph, orch.CorruptCache) as exc:  # these name the file
        raise DataFailure(f"{rec.paper_id}: {exc}") from exc
    except (KeyError, TypeError, ValueError, extraction.ExtractionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise DataFailure(f"{rec.paper_id}: corrupt {kind} file {path}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _read_triples(rec: ManifestRecord) -> extraction.TripleBatch:
    return _read(rec, "triples",
                 lambda path: extraction.parse_triple_batch(path.read_text(), rec.paper_id))


def _parse_dims(path: Path) -> list[extraction.DimensionAssignment]:
    return [
        extraction.DimensionAssignment(entry["speaker"], entry["text"],
                                       graphmod.Dimension(entry["dimension"]))
        for entry in json.loads(path.read_text())
    ]


#: What a stage's own work raises on bad input; it exits 3 naming the paper.
_STAGE_DATA_ERRORS = (orch.EmptyPaper, orch.IncompleteTranscript, orch.ExtractionFailed,
                      orch.ClassificationFailed, orch.InconsistentDimension,
                      extraction.ExtractionError, graphmod.GraphError)


def _run_stage(obj: dict, manifest: str, name: str, kind: str,
               write: Callable[[ManifestRecord, Path], None],
               client: orch.BaseClient | None = None) -> None:
    """Call ``write(rec, tmp)`` for every paper whose ``kind`` output is absent
    (every paper under ``--force``). ``tmp`` replaces the output only when
    ``write`` returns, so an output that a rerun skips is never a partial one."""
    n_done = n_skipped = 0
    for rec in load_manifest(manifest):
        out = rec.path(kind)
        if out.exists() and not obj["force"]:
            n_skipped += 1
            continue
        out.parent.mkdir(parents=True, exist_ok=True)
        try:
            with graphmod.replacing(out) as tmp:
                write(rec, tmp)
        except _STAGE_DATA_ERRORS as exc:
            raise DataFailure(f"{rec.paper_id}: {exc}") from exc
        n_done += 1
    requests = client.chat_requests + client.embed_requests if client else 0
    click.echo(f"{name}: {n_done} written, {n_skipped} skipped ({requests} requests)")


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run configuration JSON.")
@click.option("--seed", type=int, default=None, help="Override all seeds.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Fan-out for per-item requests.")
@click.option("--force", is_flag=True, help="Rewrite existing outputs.")
@click.option("--ablation", type=click.Choice([m.value for m in graphmod.AblationMode]),
              default=None, help="Ablation mode override.")
@click.option("-v", "--verbose", is_flag=True)
@click.pass_context
def cli(ctx: click.Context, config_path, seed, jobs, force, ablation, verbose) -> None:
    """Debate-graph pipeline: simulate, extract, classify, embed, build, train."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if jobs < 1:
        raise UsageFailure("--jobs must be >= 1")
    ctx.obj = {
        "config": load_run_config(config_path, seed, ablation),
        "jobs": jobs,
        "force": force,
        "seed": seed,
    }


@cli.command()
@click.argument("manifest", type=click.Path())
@click.pass_obj
def simulate(obj, manifest) -> None:
    """Run the reviewer-author debate for each paper in MANIFEST."""
    client = orch.make_client(obj["config"].endpoint)

    def write(rec: ManifestRecord, tmp: Path) -> None:
        paper = _read(rec, "paper", orch.load_paper)
        orch.save_transcript(orch.simulate_debate(paper, client), tmp)

    _run_stage(obj, manifest, "simulate", "transcript", write, client)


@cli.command()
@click.argument("manifest", type=click.Path())
@click.pass_obj
def extract(obj, manifest) -> None:
    """Extract opinion triples from each transcript."""
    client = orch.make_client(obj["config"].endpoint)

    def write(rec: ManifestRecord, tmp: Path) -> None:
        batch = orch.extract_triples(_read(rec, "transcript", orch.load_transcript), client)
        tmp.write_text(_json({"paper_id": rec.paper_id, **extraction.batch_to_dict(batch)}))

    _run_stage(obj, manifest, "extract", "triples", write, client)


@cli.command()
@click.argument("manifest", type=click.Path())
@click.pass_obj
def classify(obj, manifest) -> None:
    """Assign an evaluation dimension to every distinct reviewer opinion."""
    client = orch.make_client(obj["config"].endpoint)

    def write(rec: ManifestRecord, tmp: Path) -> None:
        dims = orch.classify_dimensions(_read_triples(rec), client, jobs=obj["jobs"])
        tmp.write_text(_json([
            {"speaker": d.speaker, "text": d.text, "dimension": d.dimension.value}
            for d in dims
        ]))

    _run_stage(obj, manifest, "classify", "dims", write, client)


@cli.command()
@click.argument("manifest", type=click.Path())
@click.pass_obj
def embed(obj, manifest) -> None:
    """Embed every node text into the per-paper embedding cache."""
    client = orch.make_client(obj["config"].endpoint)

    def write(rec: ManifestRecord, tmp: Path) -> None:
        # the texts of every node a graph built from this paper will carry
        title = _read(rec, "transcript", orch.load_transcript).title
        texts = [extraction.normalize_text(title), *graphmod.DIMENSION_LABELS.values()]
        texts += [text for t in _read_triples(rec).triplets for text in (t.text_a, t.text_b)]
        orch.embed_texts(list(dict.fromkeys(texts)), client, orch.EmbeddingCache(tmp))

    _run_stage(obj, manifest, "embed", "embeddings", write, client)


@cli.command("build-graph")
@click.argument("manifest", type=click.Path())
@click.pass_obj
def build_graph_cmd(obj, manifest) -> None:
    """Instantiate, ablate, validate, and write the debate graphs."""
    cfg: RunConfig = obj["config"]

    def write(rec: ManifestRecord, tmp: Path) -> None:
        g = extraction.build_graph(
            _read(rec, "transcript", orch.load_transcript).title,
            _read_triples(rec), _read(rec, "dims", _parse_dims),
            add_inverse_edges=cfg.model.use_inverse_edges,
            label=rec.label, graph_id=rec.paper_id,
        )
        g = graphmod.apply_ablation(g, cfg.ablation)
        report = graphmod.validate_graph(g, cfg.ablation)
        if not report.ok:
            raise graphmod.GraphError(
                f"graph validation failed: {'; '.join(report.violations)}")
        graphmod.save_graph(g, tmp)

    _run_stage(obj, manifest, "build-graph", "graph", write)


def _load_papers(records: list[ManifestRecord], splits: tuple[str, ...]
                 ) -> list[tuple[ManifestRecord, graphmod.DebateGraph, dict[str, np.ndarray]]]:
    """Each ``splits`` paper's graph and its node texts' embeddings; every file is read once."""
    papers = []
    for rec in records:
        if rec.split not in splits:
            continue
        g = _read(rec, "graph", graphmod.load_graph)
        cache = _read(rec, "embeddings", orch.EmbeddingCache)
        vectors: dict[str, np.ndarray] = {}
        for n in g.nodes:
            if (v := cache.get(n.text)) is None:
                raise DataFailure(f"{rec.paper_id}: no cached embedding for node {n.id} "
                                  f"text {n.text[:50]!r}")
            vectors[n.text] = v
        papers.append((rec, g, vectors))
    return papers


def _examples(papers: list[tuple], split: str,
              ablation: graphmod.AblationMode | None = None) -> list[training.GraphExample]:
    """The ``split``'s papers as examples, each graph ablated in memory if ``ablation`` is set."""
    examples = []
    for rec, g, vectors in papers:
        if rec.split == split:
            g = g if ablation is None else graphmod.apply_ablation(g, ablation)
            examples.append(training.GraphExample(
                graph=g, embeddings={n.id: vectors[n.text] for n in g.nodes}, label=rec.label))
    return examples


@cli.command()
@click.argument("manifest", type=click.Path())
@click.option("--checkpoint", "checkpoint_path", type=click.Path(),
              default="checkpoint.rvgc", show_default=True)
@click.option("--history", "history_path", type=click.Path(),
              default="history.jsonl", show_default=True)
@click.pass_obj
def train(obj, manifest, checkpoint_path, history_path) -> None:
    """Train the classifier on the manifest's train/val splits."""
    cfg: RunConfig = obj["config"]
    papers = _load_papers(load_manifest(manifest), ("train", "val"))
    train_set = _examples(papers, "train")
    val_set = _examples(papers, "val")
    if not train_set or not val_set:
        raise UsageFailure("manifest needs non-empty train and val splits")

    checkpoint, history = training.train(train_set, val_set, cfg.model, cfg.train)
    training.save_checkpoint(checkpoint, checkpoint_path)
    with graphmod.replacing(history_path) as tmp:
        tmp.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in history))

    train_preds = [
        training.predict_label_index(ex, checkpoint.params, cfg.model) for ex in train_set
    ]
    train_report = training.evaluate(train_preds, [ex.label_index for ex in train_set])
    click.echo(
        f"train: best epoch {checkpoint.epoch}, "
        f"best val macro-F1 {checkpoint.best_val_macro_f1:.4f}, "
        f"train accuracy {train_report.accuracy:.4f}"
    )


def _read_compare(path: str) -> list[float]:
    """Another run's per-paper correctness indicators: a JSON list of numbers."""
    try:
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, list):
            raise TypeError(f"expected a JSON list, found {type(raw).__name__}")
        return [float(x) for x in raw]
    except (OSError, TypeError, ValueError) as exc:
        raise DataFailure(f"--compare file {path}: {type(exc).__name__}: {exc}") from exc


def _table2_row(report: training.EvalReport) -> dict[str, float]:
    """Accuracy / macro P / R / F1, scaled x100 and rounded to two decimals."""
    return {
        "accuracy": round(report.accuracy * 100, 2),
        "macro_precision": round(report.macro_precision * 100, 2),
        "macro_recall": round(report.macro_recall * 100, 2),
        "macro_f1": round(report.macro_f1 * 100, 2),
    }


@cli.command()
@click.argument("manifest", type=click.Path())
@click.option("--checkpoint", "checkpoint_path", type=click.Path(), required=True)
@click.option("--split", type=click.Choice(["train", "val", "test"]),
              default="test", show_default=True)
@click.option("--output", type=click.Path(), default="eval_report.json", show_default=True)
@click.option("--compare", "compare_path", type=click.Path(), default=None,
              help="JSON list of per-paper correctness indicators to test against.")
@click.pass_obj
def evaluate(obj, manifest, checkpoint_path, split, output, compare_path) -> None:
    """Evaluate a checkpoint on one split and write the report."""
    theirs = _read_compare(compare_path) if compare_path is not None else None
    checkpoint = training.load_checkpoint(checkpoint_path)
    examples = _examples(_load_papers(load_manifest(manifest), (split,)), split)
    if not examples:
        raise DataFailure(f"no graphs in split {split!r}")

    preds = [
        training.predict_label_index(ex, checkpoint.params, checkpoint.model_config)
        for ex in examples
    ]
    golds = [ex.label_index for ex in examples]
    report = training.evaluate(preds, golds)

    doc: dict = {**_table2_row(report), "n": report.n, "split": split}
    if theirs is not None:
        ours = [1.0 if p == y else 0.0 for p, y in zip(preds, golds)]
        t, df, p = training.welch_t_test(ours, theirs)
        doc["welch"] = {"t": t, "df": df, "p": p}
    _write_json(Path(output), doc)
    click.echo(json.dumps(doc, sort_keys=True))


@cli.command()
@click.argument("manifest", type=click.Path())
@click.option("--output", type=click.Path(), default="ablation_report.json", show_default=True)
@click.pass_obj
def ablate(obj, manifest, output) -> None:
    """Train and evaluate every ablation mode with the shared seed."""
    cfg: RunConfig = obj["config"]
    papers = _load_papers(load_manifest(manifest), ("train", "val", "test"))
    rows: list[dict] = []
    for mode in graphmod.AblationMode:
        model_config = dataclasses.replace(cfg.model, homogeneous=(
            mode == graphmod.AblationMode.HOMOGENEOUS))
        train_set = _examples(papers, "train", ablation=mode)
        val_set = _examples(papers, "val", ablation=mode)
        test_set = _examples(papers, "test", ablation=mode)
        if not train_set or not val_set or not test_set:
            raise UsageFailure("ablate needs non-empty train, val, and test splits")
        checkpoint, _history = training.train(train_set, val_set, model_config, cfg.train)
        preds = [
            training.predict_label_index(ex, checkpoint.params, model_config)
            for ex in test_set
        ]
        report = training.evaluate(preds, [ex.label_index for ex in test_set])
        rows.append({"mode": mode.value, **_table2_row(report)})
        log.info("ablate %s: macro-F1 %.2f", mode.value, rows[-1]["macro_f1"])

    _write_json(Path(output), rows)
    header = ["mode", "accuracy", "macro_precision", "macro_recall", "macro_f1"]
    click.echo("| " + " | ".join(header) + " |")
    click.echo("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        click.echo("| " + " | ".join(str(row[k]) for k in header) + " |")


@cli.command()
@click.option("--eps", type=float, default=1e-5, show_default=True)
@click.option("--threshold", type=float, default=1e-4, show_default=True)
@click.option("--samples", type=int, default=8, show_default=True,
              help="Entries perturbed per parameter tensor (0 checks all).")
@click.pass_obj
def gradcheck(obj, eps, threshold, samples) -> int:
    """Finite-difference check of the full loss gradient on a small graph."""
    seed = obj["seed"] if obj["seed"] is not None else 0
    g = synth.random_debate_graph(
        seed, "gradcheck", n_reviewer_opinions=(3, 3), n_author_opinions=(2, 2)
    )
    config = modelmod.ModelConfig(
        input_dim=6, hidden_dim=8, num_heads=2, num_layers=1, ffn_hidden=8, seed=seed
    )
    embeddings = synth.embeddings_for(g, config.input_dim, seed)
    params = modelmod.init_params(config, seed)
    index = modelmod.build_graph_index([g], config)

    def loss_fn(p: autodiff.ParamStore) -> autodiff.Tensor:
        return modelmod.forward_loss([g], [embeddings], p, config, [0], index)

    report = autodiff.grad_check(
        loss_fn, params, eps=eps,
        max_per_param=samples if samples > 0 else None, sample_seed=seed,
    )
    ok = report.max_rel_error < threshold
    click.echo(
        f"gradcheck: {g.num_nodes} nodes, {params.n_params()} parameters, "
        f"max rel error {report.max_rel_error:.3e} (worst: {report.worst_param}) "
        f"-> {'ok' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_GRADCHECK


def main(argv: list[str] | None = None) -> int:
    """Entry point with the stable exit-code mapping."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return int(rv) if isinstance(rv, int) else EXIT_OK
    except (UsageFailure, training.EmptySplit) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except (orch.EndpointError, orch.EmptyCompletion) as exc:
        click.echo(f"endpoint error: {exc}", err=True)
        return EXIT_ENDPOINT
    except (training.NonFiniteGradient, autodiff.NumericsError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return EXIT_NUMERIC
    except (DataFailure, graphmod.GraphError, extraction.ExtractionError,
            orch.OrchestrationError, training.TrainingError,
            modelmod.ModelError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

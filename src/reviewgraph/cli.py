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
import math
import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

import click
import numpy as np
from click.core import ParameterSource

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
    paths: dict[str, Path]
    manifest: Path  # the manifest file the record is read from

    def path(self, kind: str) -> Path:
        try:
            return self.paths[kind]
        except KeyError:
            raise DataFailure(f"{self.paper_id}: manifest record has no {kind!r} path") from None


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    """JSON-lines manifest, one record per paper; paths resolved relative
    to the manifest file's directory, once per record."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFailure(f"cannot read manifest {path}: {type(exc).__name__}: {exc}") from exc
    base = path.parent
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    # JSON Lines ends a record at "\n" only; str.splitlines would also break
    # at U+2028, U+2029 and U+0085, which JSON allows unescaped in a string
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        try:
            raw = graphmod.parse_json(line)
        except ValueError as exc:
            raise DataFailure(f"{path}:{lineno}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise DataFailure(f"{path}:{lineno}: not a JSON object")
        for key in ("paper_id", "split", "label"):
            if key not in raw:
                raise DataFailure(f"{path}:{lineno}: missing {key!r}")
        paths = raw.get("paths", {})
        if not isinstance(raw["paper_id"], str) or not isinstance(paths, dict) \
                or not set(map(type, paths.values())) <= {str}:
            raise DataFailure(f"{path}:{lineno}: 'paper_id' must be a string and 'paths' "
                              "an object of strings")
        try:  # a NUL, or a lone surrogate that does not encode
            if any(b"\0" in os.fsencode(p) for p in paths.values()):
                raise ValueError("NUL character (\\u0000)")
        except ValueError as exc:  # UnicodeEncodeError too
            raise DataFailure(f"{path}:{lineno}: a path no file system takes: {exc}") from None
        if raw["paper_id"] in seen:
            raise DataFailure(f"{path}:{lineno}: duplicate paper_id {raw['paper_id']!r}")
        seen.add(raw["paper_id"])
        if raw["split"] not in ("train", "val", "test"):
            raise DataFailure(f"{path}:{lineno}: unknown split {raw['split']!r}")
        if raw["label"] not in graphmod.DECISION_LABELS:
            raise DataFailure(f"{path}:{lineno}: unknown label {raw['label']!r}")
        records.append(
            ManifestRecord(paper_id=raw["paper_id"], split=raw["split"], label=raw["label"],
                           paths={k: base / v for k, v in paths.items()}, manifest=path)
        )
    if not records:
        raise DataFailure(f"manifest is empty: {path}")
    return records


@dataclass(frozen=True)
class RunConfig:
    model: modelmod.ModelConfig
    train: training.TrainConfig
    endpoint: orch.EndpointConfig


_SECTIONS = ("endpoint", "model", "train")  # a run config's only top-level keys


def load_run_config(path: str | Path | None, seed: int | None = None) -> RunConfig:
    """One JSON object with optional endpoint, model and train object
    sections and no other key. The ablation mode is ``model.ablation``,
    which ``train --ablation`` overrides.

    --seed overrides every seed field.
    """
    raw: dict = {}
    if path is not None:
        p = Path(path)
        try:
            raw = graphmod.parse_json(p.read_bytes())
        except (OSError, ValueError) as exc:
            raise UsageFailure(f"bad configuration in {p}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(raw.get(section, {}), dict)
                                            for section in _SECTIONS):
        raise UsageFailure(f"bad configuration in {path}: the document and its endpoint, "
                           "model and train sections must be JSON objects")
    unknown = next((key for key in raw if key not in _SECTIONS), None)
    if unknown is not None:
        raise UsageFailure(f"bad configuration in {path}: unknown key {unknown!r}; a run "
                           "config has only endpoint, model and train sections")

    for section, cls in (("endpoint", orch.EndpointConfig), ("model", modelmod.ModelConfig),
                         ("train", training.TrainConfig)):
        try:
            graphmod.require_field_types(section, cls, raw.get(section, {}))
        except TypeError as exc:
            raise UsageFailure(f"bad configuration in {path}: {exc}") from exc
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

    def build(section: str, cls: type[T], values: dict) -> T:
        try:
            return cls(**values)
        except (TypeError, modelmod.ModelError, training.TrainingError,
                orch.OrchestrationError) as exc:
            raise UsageFailure(f"bad configuration in {path}: {section}: {exc}") from exc

    return RunConfig(
        model=build("model", modelmod.ModelConfig, model_raw),
        train=build("train", training.TrainConfig, train_raw),
        endpoint=build("endpoint", orch.EndpointConfig, endpoint_raw),
    )


def _make_parent(path: Path) -> None:
    """Create the missing directories above ``path``; one that cannot be
    created, such as one under a regular file, exits 3 naming ``path``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataFailure(f"cannot create the directory of {path}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _write_output(path: Path, text: str, what: str = "report") -> None:
    """Write ``text`` to ``path``, which appears only once it is complete; a
    path that cannot be written, such as a directory, exits 3 naming it."""
    _make_parent(path)
    try:
        with graphmod.replacing(path) as tmp:
            tmp.write_text(text)
    except OSError as exc:
        raise DataFailure(f"cannot write {what} to {path}: {type(exc).__name__}: {exc}") from exc


T = TypeVar("T")


class OlderFile(DataFailure):
    """A paper's file of an older on-disk form. Its ``args`` are the message,
    the stage that rewrites the file and the manifest, for ``main``."""


def _read(rec: ManifestRecord, kind: str, parse: Callable[[Path], T]) -> T:
    """``parse`` the paper's ``kind`` file, which opens it once and names no file; a missing
    file (also one under a regular file) or one that does not parse is a ``DataFailure``
    naming the paper and the file; one of an older form is an ``OlderFile``."""
    path = rec.path(kind)
    try:
        return parse(path)
    except (FileNotFoundError, NotADirectoryError):
        raise DataFailure(f"{rec.paper_id}: {kind} file missing: {path}") from None
    except graphmod.OlderForm as exc:
        raise OlderFile(f"{rec.paper_id}: {path}: {exc}", _WRITER_OF[kind], rec.manifest) from exc
    except (KeyError, OSError, TypeError, ValueError, extraction.ExtractionError) as exc:
        # OSError covers a directory; ValueError every graphmod.parse_json failure
        raise DataFailure(f"{rec.paper_id}: corrupt {kind} file {path}: "
                          f"{type(exc).__name__}: {exc}") from exc


def _read_triples(rec: ManifestRecord) -> extraction.TripleBatch:
    """The triples file ``extract`` wrote, read strictly: one malformed element
    is a ``DataFailure`` naming the paper, the file and the element."""
    return _read(rec, "triples", lambda path: extraction.parse_triple_batch(
        path.read_bytes(), rec.paper_id, strict=True))


def _parse_dims(path: Path) -> list[extraction.DimensionAssignment]:
    dims = [
        extraction.DimensionAssignment(entry["speaker"], entry["text"],
                                       graphmod.Dimension(entry["dimension"]))
        for entry in graphmod.parse_json(path.read_bytes())
    ]
    graphmod.require_str("each speaker and text", *(v for d in dims for v in (d.speaker, d.text)))
    return dims


#: What a stage's own work raises on bad input; it exits 3 naming the paper.
_STAGE_DATA_ERRORS = (orch.EmptyPaper, orch.ExtractionFailed, orch.ClassificationFailed,
                      orch.InconsistentDimension, extraction.ExtractionError, graphmod.GraphError)


def _run_stage(obj: dict, manifest: str, name: str, kind: str,
               write: Callable[[ManifestRecord, Path, orch.BaseClient], None],
               force: bool, fan_out: bool) -> None:
    """Call ``write(rec, tmp, client)`` for every paper whose ``kind`` output
    is not a regular file (every paper if ``force``), with the one
    client of the run config's endpoint, whose requests the summary line
    counts. ``tmp`` replaces the output only when ``write`` returns, so an
    output that a rerun skips is never a partial one, and an output that
    cannot be replaced exits 3.

    The papers go through ``client.map``, so an HTTP endpoint gets up to
    ``--jobs`` of them in flight, or one unless ``fan_out``. The first
    failing paper in manifest order gives the exit, and the papers written
    before it stay written. Two papers with one output path (after symlinks
    are followed) exit 3 before any write, as their writes would share one
    ``tmp``. Symlinks are followed once per output directory, and once more
    for an output file that is a symlink itself."""
    client = orch.make_client(obj["config"].endpoint)
    records = [(rec, rec.path(kind)) for rec in load_manifest(manifest)]
    real_dirs: dict[Path, str] = {}
    writer: dict[str, ManifestRecord] = {}
    for rec, out in records:
        real_dir = real_dirs.get(out.parent)
        if real_dir is None:
            real_dir = real_dirs[out.parent] = os.path.realpath(out.parent)
        real = os.path.join(real_dir, out.name)
        first = writer.setdefault(os.path.realpath(real) if os.path.islink(real) else real, rec)
        if first is not rec:
            raise DataFailure(f"{first.paper_id} and {rec.paper_id}: both write the "
                              f"{kind} file {out}")
    todo = [(rec, out) for rec, out in records if force or not out.is_file()]

    def run(item: tuple[ManifestRecord, Path]) -> None:
        rec, out = item
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            with graphmod.replacing(out) as tmp:
                write(rec, tmp, client)
        except _STAGE_DATA_ERRORS as exc:
            raise DataFailure(f"{rec.paper_id}: {exc}") from exc
        except OSError as exc:
            raise DataFailure(f"{rec.paper_id}: cannot write {kind} file {out}: "
                              f"{type(exc).__name__}: {exc}") from exc

    client.map(run, todo, obj["jobs"] if fan_out else 1)
    requests = client.chat_requests + client.embed_requests
    click.echo(f"{name}: {len(todo)} written, {len(records) - len(todo)} skipped "
               f"({requests} requests)")


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run configuration JSON.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override all seeds.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Papers of a stage in flight at once against an HTTP endpoint; "
                   "only the five stage commands take it.")
@click.option("-v", "--verbose", is_flag=True)
@click.pass_context
def cli(ctx: click.Context, config_path, seed, jobs, verbose) -> None:
    """Debate-graph pipeline: simulate, extract, classify, embed, build, train."""
    if ctx.invoked_subcommand not in _WRITER_OF.values() \
            and ctx.get_parameter_source("jobs") is not ParameterSource.DEFAULT:
        raise click.UsageError(f"No such option '--jobs' for {ctx.invoked_subcommand}: "
                               "only the five stage commands take it")
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    rerun = [*(["--config", config_path] if config_path is not None else []),  # for a hint
             *(["--seed", str(seed)] if seed is not None else [])]
    ctx.ensure_object(dict).update(config=load_run_config(config_path, seed), jobs=jobs,
                                   seed=seed, rerun=rerun)


#: Each stage output kind and the stage command that writes it.
_WRITER_OF: dict[str, str] = {}


def _stage(name: str, kind: str, fan_out: bool = True):
    """Register ``write(rec, tmp, client)`` as the stage command ``name``: it
    takes MANIFEST and --force, its help is ``write``'s docstring, and it
    runs ``_run_stage`` over the papers' ``kind`` outputs."""
    _WRITER_OF[kind] = name

    def register(write):
        @cli.command(name, help=write.__doc__)
        @click.argument("manifest", type=click.Path())
        @click.option("--force", is_flag=True, help="Rewrite existing outputs.")
        @click.pass_obj
        def command(obj, manifest, force) -> None:
            _run_stage(obj, manifest, name, kind, write, force, fan_out)
        return write
    return register


@_stage("simulate", "transcript")
def simulate(rec: ManifestRecord, tmp: Path, client: orch.BaseClient) -> None:
    """Run the reviewer-author debate for each paper in MANIFEST."""
    paper = _read(rec, "paper", orch.load_paper)
    orch.save_transcript(orch.simulate_debate(paper, client), tmp)


@_stage("extract", "triples")
def extract(rec: ManifestRecord, tmp: Path, client: orch.BaseClient) -> None:
    """Extract opinion triples from each transcript."""
    batch = orch.extract_triples(_read(rec, "transcript", orch.load_transcript), client)
    tmp.write_text(graphmod.compact_json(
        {"paper_id": rec.paper_id, **extraction.batch_to_dict(batch)}))


@_stage("classify", "dims")
def classify(rec: ManifestRecord, tmp: Path, client: orch.BaseClient) -> None:
    """Assign an evaluation dimension to every distinct reviewer opinion."""
    dims = orch.classify_dimensions(_read_triples(rec), client)
    tmp.write_text(graphmod.compact_json([
        {"speaker": d.speaker, "text": d.text, "dimension": d.dimension.value}
        for d in dims
    ]))


@_stage("embed", "embeddings")
def embed(rec: ManifestRecord, tmp: Path, client: orch.BaseClient) -> None:
    """Embed every node text into the per-paper embedding cache."""
    # the texts of every node a graph built from this paper will carry
    title = _read(rec, "transcript", orch.load_transcript).title
    texts = [extraction.normalize_text(title), *graphmod.DIMENSION_LABELS.values()]
    texts += [text for t in _read_triples(rec).triplets for text in (t.text_a, t.text_b)]
    orch.embed_texts(list(dict.fromkeys(texts)), client, orch.EmbeddingCache(tmp))


# it sends no requests, so threads would only wait for the GIL
@_stage("build-graph", "graph", fan_out=False)
def build_graph(rec: ManifestRecord, tmp: Path, _client: orch.BaseClient) -> None:
    """Instantiate, validate, and write each paper's full debate graph."""
    g = extraction.build_graph(
        _read(rec, "transcript", orch.load_transcript).title,
        _read_triples(rec), _read(rec, "dims", _parse_dims),
        label=rec.label, graph_id=rec.paper_id,
    )
    tmp.write_bytes(graphmod.graph_to_bytes(g))


def _load_papers(records: list[ManifestRecord], splits: tuple[str, ...], input_dim: int
                 ) -> list[tuple[ManifestRecord, graphmod.DebateGraph, np.ndarray]]:
    """Each ``splits`` paper's graph and its nodes' embeddings, of the model's
    ``input_dim``, as one matrix in node-id order. Each paper's two files are
    opened once each, and no text is hashed: the rows are looked up by the
    node keys that ``build-graph`` wrote into the graph file."""
    papers = []
    for rec in records:
        if rec.split not in splits:
            continue
        g = _read(rec, "graph", graphmod.load_graph)
        cache = _read(rec, "embeddings", lambda path: orch.EmbeddingCache(path, missing_ok=False))
        if cache.dim not in (None, input_dim):
            raise DataFailure(f"{rec.paper_id}: embedding cache {cache.path} holds vectors of "
                              f"dim {cache.dim}, but the model's input_dim is {input_dim}")
        texts = g.texts  # in node-id order
        try:
            vectors = cache.vectors(g.text_keys.tolist())
        except KeyError as exc:
            i = exc.args[0]
            raise DataFailure(f"{rec.paper_id}: no cached embedding for node {i} "
                              f"text {texts[i][:50]!r} in {cache.path}") from None
        if not np.isfinite(vectors).all():
            i = int(np.argmin(np.isfinite(vectors).all(axis=1)))
            raise DataFailure(f"{rec.paper_id}: non-finite cached embedding for node {i} "
                              f"text {texts[i][:50]!r} in {cache.path}")
        papers.append((rec, g, vectors))
    return papers


def _examples(papers: list[tuple], split: str,
              ablation: graphmod.AblationMode | str) -> list[training.GraphExample]:
    """The ``split``'s papers as examples, each graph reduced in memory by ``ablation``."""
    mode = graphmod.AblationMode(ablation)
    examples = []
    for rec, g, vectors in papers:
        if rec.split == split:
            kept = graphmod.apply_ablation(g, mode)  # FULL returns g itself
            if kept is not g:  # text keys the cache: equal texts, equal rows
                row_of = {text: i for i, text in enumerate(g.texts)}
                vectors = vectors[[row_of[text] for text in kept.texts]]
            examples.append(training.GraphExample(graph=kept, embeddings=vectors, label=rec.label))
    return examples


@cli.command()
@click.argument("manifest", type=click.Path())
@click.option("--checkpoint", "checkpoint_path", type=click.Path(),
              default="checkpoint.rvgc", show_default=True)
@click.option("--history", "history_path", type=click.Path(),
              default="history.jsonl", show_default=True)
@click.option("--ablation", type=click.Choice([m.value for m in graphmod.AblationMode]),
              default=None, help="Ablation mode; overrides model.ablation.")
@click.pass_obj
def train(obj, manifest, checkpoint_path, history_path, ablation) -> None:
    """Train the classifier on the manifest's train/val splits."""
    cfg: RunConfig = obj["config"]
    model_config = dataclasses.replace(cfg.model, ablation=ablation or cfg.model.ablation)
    for path in (checkpoint_path, history_path):  # before hours of training, not after
        _make_parent(Path(path))
    papers = _load_papers(load_manifest(manifest), ("train", "val"), model_config.input_dim)
    train_set = _examples(papers, "train", model_config.ablation)
    val_set = _examples(papers, "val", model_config.ablation)
    # an empty split raises EmptySplit (exit 1) before any step runs
    checkpoint, history = training.train(train_set, val_set, model_config, cfg.train)
    training.save_checkpoint(checkpoint, checkpoint_path)
    _write_output(Path(history_path),
                  "".join(json.dumps(row, sort_keys=True) + "\n" for row in history), "history")

    train_preds = training.predict_label_indices(train_set, checkpoint.params, model_config)
    train_report = training.evaluate(train_preds, [ex.label_index for ex in train_set])
    click.echo(
        f"train: best epoch {checkpoint.epoch}, "
        f"best val macro-F1 {checkpoint.best_val_macro_f1:.4f}, "
        f"train accuracy {train_report.accuracy:.4f}"
    )


def _read_compare(path: str) -> list[float]:
    """Another run's per-paper correctness indicators: a JSON list of finite numbers."""
    try:
        # a huge integer reads as inf
        raw = graphmod.parse_json(Path(path).read_bytes(), parse_int=float)
        if not isinstance(raw, list):
            raise TypeError(f"expected a JSON list, found {type(raw).__name__}")
        # every JSON number parses to a float; true and false are no numbers
        bad = next((i for i, x in enumerate(raw)
                    if not (isinstance(x, float) and math.isfinite(x))), None)
        if bad is not None:
            raise ValueError(f"entry {bad} is {json.dumps(raw[bad])}, not a finite number")
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
    """Evaluate a checkpoint, under its own ablation, on one split and write the report."""
    theirs = _read_compare(compare_path) if compare_path is not None else None
    checkpoint = training.load_checkpoint(checkpoint_path)
    papers = _load_papers(load_manifest(manifest), (split,), checkpoint.model_config.input_dim)
    examples = _examples(papers, split, checkpoint.model_config.ablation)
    if not examples:
        raise DataFailure(f"no graphs in split {split!r}")

    preds = training.predict_label_indices(examples, checkpoint.params, checkpoint.model_config)
    golds = [ex.label_index for ex in examples]
    report = training.evaluate(preds, golds)

    doc: dict = {**_table2_row(report), "n": report.n, "split": split}
    if theirs is not None:
        ours = [1.0 if p == y else 0.0 for p, y in zip(preds, golds)]
        t, df, p = training.welch_t_test(ours, theirs)
        doc["welch"] = {"t": t, "df": df, "p": p}
    _write_output(Path(output), json.dumps(doc, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(doc, sort_keys=True))


@cli.command()
@click.argument("manifest", type=click.Path())
@click.option("--output", type=click.Path(), default="ablation_report.json", show_default=True)
@click.pass_obj
def ablate(obj, manifest, output) -> None:
    """Train and evaluate every ablation mode with the shared seed."""
    cfg: RunConfig = obj["config"]
    _make_parent(Path(output))  # before six trainings, not after
    papers = _load_papers(load_manifest(manifest), ("train", "val", "test"), cfg.model.input_dim)
    rows: list[dict] = []
    for mode in graphmod.AblationMode:
        model_config = dataclasses.replace(cfg.model, ablation=mode.value)
        train_set = _examples(papers, "train", ablation=mode)
        val_set = _examples(papers, "val", ablation=mode)
        test_set = _examples(papers, "test", ablation=mode)
        if not test_set:  # before the training, which checks its own two splits
            raise UsageFailure("ablate needs a non-empty test split")
        checkpoint, _history = training.train(train_set, val_set, model_config, cfg.train)
        preds = training.predict_label_indices(test_set, checkpoint.params, model_config)
        report = training.evaluate(preds, [ex.label_index for ex in test_set])
        rows.append({"mode": mode.value, **_table2_row(report)})
        log.info("ablate %s: macro-F1 %.2f", mode.value, rows[-1]["macro_f1"])

    _write_output(Path(output), json.dumps(rows, indent=2, sort_keys=True) + "\n")
    header = ["mode", "accuracy", "macro_precision", "macro_recall", "macro_f1"]
    click.echo("| " + " | ".join(header) + " |")
    click.echo("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        click.echo("| " + " | ".join(str(row[k]) for k in header) + " |")


@cli.command()
@click.option("--eps", type=float, default=1e-5, show_default=True)
@click.option("--threshold", type=float, default=1e-4, show_default=True)
@click.option("--samples", type=click.IntRange(min=0), default=8, show_default=True,
              help="Entries perturbed per parameter tensor (0 checks all).")
@click.pass_obj
def gradcheck(obj, eps, threshold, samples) -> int:
    """Finite-difference check of the full loss gradient on a small graph."""
    if not (math.isfinite(eps) and eps > 0):
        raise UsageFailure(f"--eps must be finite and above 0, not {eps}")
    if not (math.isfinite(threshold) and threshold > 0):
        raise UsageFailure(f"--threshold must be finite and above 0, not {threshold}")
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
    """Entry point with the stable exit-code mapping; a file of an older form
    exits 3 naming the whole command that rewrites it."""
    obj: dict = {}  # the group callback fills it
    try:
        rv = cli.main(args=argv, standalone_mode=False, obj=obj)
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
    except OlderFile as exc:
        message, stage, manifest = exc.args
        rerun = shlex.join(["reviewgraph", *obj["rerun"], stage, "--force", str(manifest)])
        click.echo(f"data error: {message}; rerun `{rerun}`", err=True)
        return EXIT_DATA
    except (DataFailure, graphmod.GraphError, graphmod.OlderForm, extraction.ExtractionError,
            orch.OrchestrationError, training.TrainingError,
            modelmod.ModelError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

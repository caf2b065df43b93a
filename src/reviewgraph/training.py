"""Adam optimization, early stopping on validation macro-F1, classification
metrics, Welch's t-test, and binary checkpoint persistence."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .autodiff import NonFiniteLoss, ParamStore
from .autodiff import scale as ad_scale  # noqa: F401  (perfbench/tracer.py wraps it by name)
from .graph import DECISION_LABELS, DebateGraph, pack, replacing, require_field_types, unpack
from .model import (
    ModelConfig,
    ModelError,
    build_graph_index,
    edge_chunks,
    forward_loss,
    init_params,
    node_features,
    param_layout,
    predict,
    predict_batch,
)


class TrainingError(Exception):
    pass


class EmptySplit(TrainingError):
    pass


class NonFiniteGradient(TrainingError):
    pass


class LengthMismatch(TrainingError):
    pass


class DegenerateSample(TrainingError):
    pass


class CheckpointError(TrainingError):
    pass


class IoError(CheckpointError):
    pass


class VersionMismatch(CheckpointError):
    pass


class CorruptPayload(CheckpointError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 100
    early_stop_patience: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.batch_size <= 0 or self.max_epochs <= 0:
            raise TrainingError("batch size and max epochs must be positive")
        # each test is written so that NaN fails it
        for name, ok, domain in (
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0,
             "finite and above 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("epsilon", math.isfinite(self.epsilon) and self.epsilon > 0, "finite and above 0"),
            ("early_stop_patience", self.early_stop_patience >= 0, "at least 0"),
            ("seed", self.seed >= 0, "at least 0"),
        ):
            if not ok:
                raise TrainingError(f"{name} must be {domain}, not {getattr(self, name)}")


@dataclass(frozen=True)
class GraphExample:
    graph: DebateGraph
    embeddings: np.ndarray
    label: str

    @property
    def label_index(self) -> int:
        return DECISION_LABELS.index(self.label)


@dataclass
class EvalReport:
    """Accuracy and macro-averaged precision, recall and F1 over n predictions."""

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n: int


def evaluate(preds: Sequence[int], golds: Sequence[int]) -> EvalReport:
    """Accuracy and macro precision/recall/F1 with the 0/0 -> 0 convention."""
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise LengthMismatch("empty prediction list")
    n = len(preds)
    correct = sum(1 for p, y in zip(preds, golds) if p == y)

    precisions, recalls, f1s = [], [], []
    for c in range(len(DECISION_LABELS)):
        tp = sum(1 for p, y in zip(preds, golds) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, golds) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, golds) if p != c and y == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)

    return EvalReport(
        accuracy=correct / n,
        macro_precision=sum(precisions) / len(precisions),
        macro_recall=sum(recalls) / len(recalls),
        macro_f1=sum(f1s) / len(f1s),
        n=n,
    )


def adam_step(params: ParamStore, state: dict, t: int, config: TrainConfig) -> None:
    """One in-place Adam update with bias correction over the whole parameter
    vector; grads are read from the store and moments kept in ``state``.

    A tensor that no gradient reached (``params.present``) keeps its value
    and its moments. Every gradient is checked before anything is written,
    so a non-finite one raises ``NonFiniteGradient`` with the store and
    ``state`` untouched.
    """
    if t < 1:
        raise TrainingError("Adam step counter must start at 1")
    g, present = params.grad, params.present
    if not present.any():
        return
    if not np.isfinite(g).all():
        name = next(name for name, tensor in params.items()
                    if tensor.grad is not None and not np.isfinite(tensor.grad).all())
        raise NonFiniteGradient(f"non-finite gradient in {name}")
    if "m" not in state:
        state["m"], state["v"] = np.zeros_like(params.flat), np.zeros_like(params.flat)
    where = True if present.all() else np.repeat(present, params.sizes)
    m = config.beta1 * state["m"] + (1 - config.beta1) * g
    v = config.beta2 * state["v"] + (1 - config.beta2) * g * g
    m_hat = m / (1 - config.beta1**t)
    v_hat = v / (1 - config.beta2**t)
    step = config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    np.copyto(state["m"], m, where=where)
    np.copyto(state["v"], v, where=where)
    np.subtract(params.flat, step, out=params.flat, where=where)


@dataclass
class Checkpoint:
    version: int
    model_config: ModelConfig
    train_config: TrainConfig
    epoch: int
    best_val_macro_f1: float
    params: ParamStore


def predict_label_index(example: GraphExample, params: ParamStore,
                        model_config: ModelConfig) -> int:
    probs, _ = predict(example.graph, example.embeddings, params, model_config)
    return int(np.argmax(probs))


def _chunks(examples: Sequence[GraphExample], model_config: ModelConfig) -> Iterator[tuple]:
    """The examples' (graphs, feature matrices, index) in ``edge_chunks``, each indexed once."""
    graphs = [ex.graph for ex in examples]
    features = [node_features(ex.graph, ex.embeddings, model_config.input_dim) for ex in examples]
    for chunk in edge_chunks(graphs):
        yield graphs[chunk], features[chunk], build_graph_index(graphs[chunk], model_config)


def _predicted(chunks: Iterable[tuple], params: ParamStore,
               model_config: ModelConfig) -> list[int]:
    return [int(c) for graphs, embeddings, index in chunks
            for c in np.argmax(predict_batch(graphs, embeddings, params, model_config, index),
                               axis=1)]


def predict_label_indices(examples: Sequence[GraphExample], params: ParamStore,
                          model_config: ModelConfig) -> list[int]:
    """Each example's predicted class index, in order, from one no-grad
    forward per chunk of at most ``model.PREDICT_EDGE_BUDGET`` edges."""
    return _predicted(_chunks(examples, model_config), params, model_config)


def train(
    train_set: Sequence[GraphExample],
    val_set: Sequence[GraphExample],
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[Checkpoint, list[dict]]:
    """Adam training with seeded shuffling and early stopping on validation macro-F1.

    Each example's input rows become its node-ordered matrix once per call.
    Each minibatch is one disjoint-union graph, indexed once per step from
    its graphs' cached codes, and makes one forward and one backward pass;
    its loss is the mean cross-entropy over its graphs. Validation
    predictions run through the same forward under ``no_grad``, in the
    edge-budgeted chunks of ``predict_label_indices``, each indexed once.
    The best (earliest, on ties) validation epoch's parameters are returned.
    """
    if not train_set:
        raise EmptySplit("empty training split")
    if not val_set:
        raise EmptySplit("empty validation split")

    params = init_params(model_config, model_config.seed)
    rng = np.random.default_rng(train_config.seed)
    adam_state: dict = {}
    t = 0

    size = train_config.batch_size
    features = [node_features(ex.graph, ex.embeddings, model_config.input_dim) for ex in train_set]
    val_chunks = list(_chunks(val_set, model_config))
    val_golds = [ex.label_index for ex in val_set]

    history: list[dict] = []
    best_f1 = -1.0
    best_epoch = -1
    best_params: ParamStore | None = None
    no_improve = 0

    for epoch in range(1, train_config.max_epochs + 1):
        order = np.arange(len(train_set))
        if train_config.shuffle:
            rng.shuffle(order)

        epoch_loss = 0.0
        for start in range(0, len(order), size):
            members = order[start:start + size]
            batch = [train_set[i] for i in members]
            graphs = [ex.graph for ex in batch]
            params.zero_grad()
            loss = forward_loss(
                graphs, [features[i] for i in members], params, model_config,
                [ex.label_index for ex in batch], build_graph_index(graphs, model_config),
            )
            value = float(loss.value)
            where = f"at epoch {epoch} in the batch of {', '.join(g.graph_id for g in graphs)}"
            if not math.isfinite(value):
                raise NonFiniteLoss(f"non-finite loss {where}")
            loss.backward()
            t += 1
            try:
                adam_step(params, adam_state, t, train_config)
            except NonFiniteGradient as exc:
                raise NonFiniteGradient(f"{exc} {where}") from None
            epoch_loss += value * len(batch)

        train_loss = epoch_loss / len(train_set)
        report = evaluate(_predicted(val_chunks, params, model_config), val_golds)
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "val_accuracy": report.accuracy,
                "val_macro_f1": report.macro_f1,
            }
        )

        if report.macro_f1 > best_f1:
            best_f1 = report.macro_f1
            best_epoch = epoch
            best_params = params.copy()
            no_improve = 0
        else:
            no_improve += 1
            if no_improve > train_config.early_stop_patience:
                break

    assert best_params is not None
    checkpoint = Checkpoint(
        version=1,
        model_config=model_config,
        train_config=train_config,
        epoch=best_epoch,
        best_val_macro_f1=best_f1,
        params=best_params,
    )
    return checkpoint, history


def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float, float]:
    """Welch's two-sample t-test: (t statistic, degrees of freedom, two-sided p)."""
    na, nb = len(sample_a), len(sample_b)
    if na < 2 or nb < 2:
        raise DegenerateSample("each sample needs at least two observations")
    mean_a = sum(sample_a) / na
    mean_b = sum(sample_b) / nb
    var_a = sum((x - mean_a) ** 2 for x in sample_a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in sample_b) / (nb - 1)
    if var_a == 0.0 and var_b == 0.0:
        if mean_a == mean_b:
            return 0.0, float(na + nb - 2), 1.0
        raise DegenerateSample("both samples have zero variance with unequal means")
    sa, sb = var_a / na, var_b / nb
    se = math.sqrt(sa + sb)
    t = (mean_a - mean_b) / se
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))
    p = student_t_two_sided_p(t, df)
    return t, df, p


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value from the t distribution via the regularized
    incomplete beta function (continued-fraction evaluation)."""
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return _betainc_reg(df / 2.0, 0.5, x)


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), |error| well below 1e-8."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float, max_iter: int = 300, eps: float = 1e-14) -> float:
    # modified Lentz continued fraction; each step takes an even then an odd term
    def nonzero(v: float) -> float:
        return 1e-300 if abs(v) < 1e-300 else v

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / nonzero(1.0 + aa * d)
            c = nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


_MAGIC = b"RVGC"
_CHECKPOINT_VERSION = 1


def save_checkpoint(cp: Checkpoint, path: str | Path) -> None:
    """Binary format: the magic and the JSON manifest, ``graph.pack``ed, then
    the fp32 LE payload.

    The payload is the parameter vector as fp32, so each tensor's bytes sit at
    its ``_tensor_table`` offset. The bytes go to ``<path>.tmp`` first, which
    then replaces ``path``, so a crash mid-write leaves any earlier checkpoint
    at ``path`` intact. Parameters off the model config's layout, or a
    manifest that ``load_checkpoint`` would refuse (``_check_manifest``), raise
    ``CheckpointError`` before anything is written.
    """
    tensors = _tensor_table(cp.model_config)
    if [(t["name"], t["shape"]) for t in tensors] != \
            [(name, list(t.value.shape)) for name, t in cp.params.items()]:
        raise CheckpointError("the parameters do not follow the model config's layout")
    manifest = {
        "version": cp.version,
        "model_config": asdict(cp.model_config),
        "train_config": asdict(cp.train_config),
        "epoch": cp.epoch,
        "best_val_macro_f1": cp.best_val_macro_f1,
        "tensors": tensors,
    }
    try:
        _check_manifest(manifest)
    except (TypeError, VersionMismatch) as exc:
        raise CheckpointError(f"cannot save checkpoint to {path}: {exc}") from None
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    try:
        with replacing(path) as tmp, open(tmp, "wb") as fh:
            fh.write(pack(_MAGIC, mbytes))
            fh.write(cp.params.flat.astype("<f4"))
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise IoError(f"cannot write checkpoint to {path}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    """The checkpoint that ``save_checkpoint`` wrote to ``path``. Every error raised
    starts with ``path``, as no manifest names a checkpoint: ``IoError`` for a file
    that cannot be read, ``VersionMismatch`` for another format version, and
    ``CorruptPayload`` for anything malformed, the framing included."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"{path}: cannot read checkpoint: {exc}") from exc
    try:
        return _checkpoint_from(blob)
    except CheckpointError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, ModelError, TrainingError) as exc:
        raise CorruptPayload(f"{path}: {type(exc).__name__}: {exc}") from exc


def _checkpoint_from(blob: bytes) -> Checkpoint:
    """The checkpoint in a file's bytes; ``load_checkpoint`` names the file in its errors."""
    manifest, start = unpack(blob, _MAGIC)
    _check_manifest(manifest)
    model_config = ModelConfig(**manifest["model_config"])
    return Checkpoint(
        version=manifest["version"],
        model_config=model_config,
        train_config=TrainConfig(**manifest["train_config"]),
        epoch=manifest["epoch"],
        best_val_macro_f1=manifest["best_val_macro_f1"],
        params=_read_params(manifest["tensors"], memoryview(blob)[start:], model_config),
    )


def _check_manifest(manifest: dict) -> None:
    """The field checks that ``save_checkpoint`` makes before writing and
    ``load_checkpoint`` after reading: ``TypeError`` or ``VersionMismatch``."""
    # the types of version, epoch and best_val_macro_f1, before the version
    # test, which true would pass (true == 1)
    require_field_types("manifest", Checkpoint, manifest)
    if manifest.get("version") != _CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {manifest.get('version')}")
    for section, cls in (("model_config", ModelConfig), ("train_config", TrainConfig)):
        require_field_types(section, cls, manifest[section])


def _tensor_table(config: ModelConfig) -> list[dict]:
    """The manifest's tensor entries: the name, shape, and fp32 payload byte
    offset and length of each ``param_layout`` tensor, in that order."""
    table, offset = [], 0
    for name, shape, _init in param_layout(config):
        length = 4 * math.prod(shape)
        table.append({"name": name, "shape": list(shape), "offset": offset, "length": length})
        offset += length
    return table


def _read_params(entries: list, payload: memoryview, model_config: ModelConfig) -> ParamStore:
    """The payload as one parameter vector. The manifest's tensor entries must
    equal ``_tensor_table(model_config)``, else ``CorruptPayload`` names the
    first tensor that differs, is missing or is extra; a payload of another
    size is a ``CorruptPayload`` too."""
    if not isinstance(entries, list):
        raise CorruptPayload("manifest 'tensors' is not a list")
    table = _tensor_table(model_config)
    for i, want in enumerate(table):
        if i == len(entries):
            raise CorruptPayload(f"tensor {want['name']!r} is missing from the manifest")
        if entries[i] != want:
            raise CorruptPayload(f"tensor {want['name']!r}: the manifest lists {entries[i]!r} "
                                 f"where the model config gives {want!r}")
    if len(entries) > len(table):
        extra = entries[len(table)]
        name = extra.get("name") if isinstance(extra, dict) else extra
        raise CorruptPayload(f"tensor {name!r} is an extra entry after the model config's "
                             f"{len(table)} tensors")
    size = sum(entry["length"] for entry in table)
    if len(payload) != size:
        raise CorruptPayload(f"payload holds {len(payload)} bytes, the manifest gives {size}")
    flat = np.frombuffer(payload, "<f4").astype(np.float64)
    return ParamStore([(entry["name"], entry["shape"]) for entry in table], flat)

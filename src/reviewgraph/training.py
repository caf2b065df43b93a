"""Adam optimization, early stopping on validation macro-F1, classification
metrics, Welch's t-test, and binary checkpoint persistence."""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .autodiff import NonFiniteLoss, ParamStore
from .autodiff import scale as ad_scale  # noqa: F401  (perfbench/tracer.py wraps it by name)
from .graph import DECISION_LABELS, DebateGraph, replacing
from .model import (
    ModelConfig,
    build_graph_index,
    edge_chunks,
    forward_loss,
    init_params,
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
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_epochs <= 0:
            raise TrainingError("learning rate, batch size, and max epochs must be positive")
        if self.early_stop_patience > self.max_epochs:
            raise TrainingError("patience must not exceed max_epochs")


@dataclass(frozen=True)
class GraphExample:
    graph: DebateGraph
    embeddings: Mapping[int, np.ndarray]
    label: str

    @property
    def label_index(self) -> int:
        return DECISION_LABELS.index(self.label)


@dataclass
class EvalReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: dict[str, dict[str, int]]
    n: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "per_class": self.per_class,
            "n": self.n,
        }


def evaluate(preds: Sequence[int], golds: Sequence[int]) -> EvalReport:
    """Accuracy and macro precision/recall/F1 with the 0/0 -> 0 convention."""
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise LengthMismatch("empty prediction list")
    n = len(preds)
    correct = sum(1 for p, y in zip(preds, golds) if p == y)

    per_class: dict[str, dict[str, int]] = {}
    precisions, recalls, f1s = [], [], []
    for c, name in enumerate(DECISION_LABELS):
        tp = sum(1 for p, y in zip(preds, golds) if p == c and y == c)
        fp = sum(1 for p, y in zip(preds, golds) if p == c and y != c)
        fn = sum(1 for p, y in zip(preds, golds) if p != c and y == c)
        per_class[name] = {"tp": tp, "fp": fp, "fn": fn}
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
        per_class=per_class,
        n=n,
    )


def adam_step(params: ParamStore, state: dict, t: int, config: TrainConfig) -> None:
    """One in-place Adam update with bias correction over the whole parameter
    vector; grads are read from the store and moments kept in ``state``.

    A tensor whose ``grad`` is None keeps its value and its moments. Every
    gradient is checked before anything is written, so a non-finite one
    raises ``NonFiniteGradient`` with the store and ``state`` untouched.
    """
    if t < 1:
        raise TrainingError("Adam step counter must start at 1")
    grads = [tensor.grad for _, tensor in params.items()]
    present = [g is not None for g in grads]
    if not any(present):
        return
    g = np.concatenate([np.zeros(size) if grad is None else grad.ravel()
                        for grad, size in zip(grads, params.sizes.tolist())])
    if not np.isfinite(g).all():
        name = next(name for name, tensor in params.items()
                    if tensor.grad is not None and not np.isfinite(tensor.grad).all())
        raise NonFiniteGradient(f"non-finite gradient in {name}")
    if "m" not in state:
        state["m"], state["v"] = np.zeros_like(params.flat), np.zeros_like(params.flat)
    where = True if all(present) else np.repeat(present, params.sizes)
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
    """The examples' (graphs, embeddings, index) in ``edge_chunks``, each indexed once."""
    graphs = [ex.graph for ex in examples]
    for chunk in edge_chunks(graphs):
        yield (graphs[chunk], [ex.embeddings for ex in examples[chunk]],
               build_graph_index(graphs[chunk], model_config))


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
                graphs, [ex.embeddings for ex in batch], params, model_config,
                [ex.label_index for ex in batch], build_graph_index(graphs, model_config),
            )
            value = float(loss.value)
            if not math.isfinite(value):
                names = ", ".join(ex.graph.graph_id for ex in batch)
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch} in the batch of {names}")
            loss.backward()
            t += 1
            adam_step(params, adam_state, t, train_config)
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
    # modified Lentz continued fraction
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


_MAGIC = b"RVGC"
_CHECKPOINT_VERSION = 1


def save_checkpoint(cp: Checkpoint, path: str | Path) -> None:
    """Binary format: magic, u32 manifest length, JSON manifest, fp32 LE payload.

    The payload is the parameter vector as fp32, so each tensor's bytes sit at
    its offset in store order. The bytes go to ``<path>.tmp`` first, which
    then replaces ``path``, so a crash mid-write leaves any earlier checkpoint
    at ``path`` intact.
    """
    tensors = []
    offset = 0
    for name, tensor in cp.params.items():
        length = tensor.value.size * 4
        tensors.append({"name": name, "shape": list(tensor.value.shape),
                        "offset": offset, "length": length})
        offset += length
    manifest = {
        "version": cp.version,
        "model_config": asdict(cp.model_config),
        "train_config": asdict(cp.train_config),
        "epoch": cp.epoch,
        "best_val_macro_f1": cp.best_val_macro_f1,
        "tensors": tensors,
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    try:
        with replacing(path) as tmp, open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(mbytes)))
            fh.write(mbytes)
            fh.write(cp.params.flat.astype("<f4"))
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise IoError(f"cannot write checkpoint to {path}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint from {path}: {exc}") from exc
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise CorruptPayload("bad magic header")
    (mlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + mlen:
        raise CorruptPayload("truncated manifest")
    try:
        manifest = json.loads(blob[8:8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptPayload(f"unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorruptPayload("manifest is not a JSON object")
    if manifest.get("version") != _CHECKPOINT_VERSION:
        raise VersionMismatch(f"unsupported checkpoint version {manifest.get('version')}")

    try:
        model_config = ModelConfig(**manifest["model_config"])
        return Checkpoint(
            version=manifest["version"],
            model_config=model_config,
            train_config=TrainConfig(**manifest["train_config"]),
            epoch=manifest["epoch"],
            best_val_macro_f1=manifest["best_val_macro_f1"],
            params=_read_params(manifest["tensors"], memoryview(blob)[8 + mlen:],
                                model_config),
        )
    except (KeyError, TypeError) as exc:
        raise CorruptPayload(f"malformed manifest: {type(exc).__name__}: {exc}") from exc


def _read_params(entries: list, payload: memoryview, model_config: ModelConfig) -> ParamStore:
    """The manifest's tensors read from the payload into one vector in
    ``param_layout`` order; an entry that is duplicated, missing, not in the
    layout, misshaped or outside the payload raises ``CorruptPayload``."""
    if not isinstance(entries, list):
        raise CorruptPayload("manifest 'tensors' is not a list")
    found: dict[str, dict] = {}
    for entry in entries:
        name = entry["name"]
        if name in found:
            raise CorruptPayload(f"tensor {name!r} appears twice in the manifest")
        found[name] = entry
    layout = [(name, shape) for name, shape, _init in param_layout(model_config)]
    known = {name for name, _shape in layout}
    for name in found:
        if name not in known:
            raise CorruptPayload(f"tensor {name!r} is not a parameter of the model config")
    params = ParamStore(layout)
    for name, shape in layout:
        if name not in found:
            raise CorruptPayload(f"tensor {name!r} is missing from the manifest")
        entry = found[name]
        if entry["shape"] != list(shape):
            raise CorruptPayload(f"tensor {name!r} has shape {entry['shape']!r}, "
                                 f"the model config gives {list(shape)}")
        size = params[name].value.size
        offset, length = entry["offset"], entry["length"]
        if type(offset) is not int or length != size * 4 \
                or not 0 <= offset <= len(payload) - length:
            raise CorruptPayload(f"tensor {name!r} payload length/offset mismatch")
        params[name].value[...] = np.frombuffer(payload, "<f4", size, offset).reshape(shape)
    return params

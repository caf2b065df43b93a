import ctypes
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import confusion_metrics
from pipeline_utils import older_model_config
from reviewgraph import autodiff, graph as graphmod, training
from reviewgraph.autodiff import ParamStore
from reviewgraph.graph import RelationType
from reviewgraph.model import ModelConfig, forward_loss, init_params, meta_key
from reviewgraph.synth import generate_rule_dataset
from reviewgraph.training import (
    Checkpoint,
    CorruptPayload,
    DegenerateSample,
    EmptySplit,
    IoError,
    LengthMismatch,
    TrainConfig,
    TrainingError,
    adam_step,
    evaluate,
    load_checkpoint,
    predict_label_index,
    save_checkpoint,
    student_t_two_sided_p,
    train,
    welch_t_test,
)

MC = ModelConfig(input_dim=8, hidden_dim=8, num_heads=2, num_layers=1, ffn_hidden=8, seed=0)


# -- metrics ---------------------------------------------------------------


def test_evaluate_hand_case_balanced_all_accept():
    """Ten balanced golds, predictions all class 0."""
    golds = [0] * 5 + [1] * 5
    preds = [0] * 10
    rep = evaluate(preds, golds)
    assert rep.accuracy == pytest.approx(0.5)
    assert rep.macro_precision == pytest.approx(0.25)
    assert rep.macro_recall == pytest.approx(0.5)
    assert rep.macro_f1 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_evaluate_perfect_predictions():
    rep = evaluate([0, 1, 0, 1], [0, 1, 0, 1])
    assert (rep.accuracy, rep.macro_f1) == (1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                min_size=1, max_size=40))
def test_evaluate_matches_confusion_matrix_oracle(pairs):
    preds = [p for p, _ in pairs]
    golds = [g for _, g in pairs]
    rep = evaluate(preds, golds)
    acc, p, r, f1 = confusion_metrics(preds, golds)
    assert rep.accuracy == pytest.approx(acc, abs=1e-12)
    assert rep.macro_precision == pytest.approx(p, abs=1e-12)
    assert rep.macro_recall == pytest.approx(r, abs=1e-12)
    assert rep.macro_f1 == pytest.approx(f1, abs=1e-12)


def test_evaluate_rejects_length_mismatch_and_empty():
    with pytest.raises(LengthMismatch):
        evaluate([0], [0, 1])
    with pytest.raises(LengthMismatch):
        evaluate([], [])


# -- adam ------------------------------------------------------------------


def test_adam_first_step_size_is_learning_rate():
    """With bias correction, the first step has magnitude ~lr per coordinate."""
    store = ParamStore([("w", (2,))], np.array([1.0, -2.0]))
    t = store["w"]
    t.grad = np.array([0.5, -0.1])
    config = TrainConfig(learning_rate=0.01, epsilon=1e-12)
    adam_step(store, {}, 1, config)
    np.testing.assert_allclose(t.value, [1.0 - 0.01, -2.0 + 0.01], atol=1e-8)


def test_adam_skips_parameters_without_gradient():
    store = ParamStore([("w", (2,))], np.ones(2))
    t = store["w"]
    adam_step(store, {}, 1, TrainConfig())
    np.testing.assert_array_equal(t.value, np.ones(2))


def test_adam_matches_reference_trajectory():
    """Three steps on a quadratic against a hand-rolled Adam loop."""
    config = TrainConfig(learning_rate=0.1)
    store = ParamStore([("x", (1,))], np.array([2.0]))
    t = store["x"]
    state: dict = {}
    m = v = 0.0
    x_ref = 2.0
    for step in range(1, 4):
        g = 2.0 * t.value[0]
        t.grad = np.array([g])
        adam_step(store, state, step, config)
        g_ref = 2.0 * x_ref
        m = config.beta1 * m + (1 - config.beta1) * g_ref
        v = config.beta2 * v + (1 - config.beta2) * g_ref * g_ref
        m_hat = m / (1 - config.beta1**step)
        v_hat = v / (1 - config.beta2**step)
        x_ref -= config.learning_rate * m_hat / (math.sqrt(v_hat) + config.epsilon)
        t.grad = None
        assert t.value[0] == pytest.approx(x_ref, abs=1e-12)


def reference_adam_step(values, grads, state, t, config):
    """The per-tensor Adam loop the whole-vector step replaced, kept as its reference."""
    for name, g in grads.items():
        if g is None:
            continue
        if name not in state:
            state[name] = {"m": np.zeros_like(values[name]), "v": np.zeros_like(values[name])}
        s = state[name]
        s["m"] = config.beta1 * s["m"] + (1 - config.beta1) * g
        s["v"] = config.beta2 * s["v"] + (1 - config.beta2) * g * g
        m_hat = s["m"] / (1 - config.beta1**t)
        v_hat = s["v"] / (1 - config.beta2**t)
        values[name] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)


ADAM_SHAPES = [("a", (3, 4)), ("late", (5,)), ("s", ()), ("b", (2, 2, 3)), ("c", (7,))]


def test_flat_adam_matches_per_tensor_loop_bit_for_bit():
    """Five steps with random gradient presence; "late" first has a gradient at step 3."""
    r = np.random.default_rng(11)
    store = ParamStore(ADAM_SHAPES)
    store.flat[:] = r.standard_normal(store.flat.size)
    values = {name: t.value.copy() for name, t in store.items()}
    config = TrainConfig(learning_rate=0.05)
    state, ref_state = {}, {}
    for step in range(1, 6):
        present = r.random(len(ADAM_SHAPES)) < 0.6
        present[1] = step >= 3
        grads = {name: (r.standard_normal(shape) if keep else None)
                 for (name, shape), keep in zip(ADAM_SHAPES, present)}
        for name, g in grads.items():
            store[name].grad = g
        adam_step(store, state, step, config)
        reference_adam_step(values, grads, ref_state, step, config)
        start = 0
        for name, t in store.items():
            np.testing.assert_array_equal(t.value, values[name])
            want = ref_state.get(name, {"m": np.zeros(t.shape), "v": np.zeros(t.shape)})
            for key in ("m", "v"):
                got = state[key][start:start + t.value.size].reshape(t.shape)
                np.testing.assert_array_equal(got, want[key])
            start += t.value.size
    assert "late" in ref_state


def test_failed_adam_step_names_first_bad_tensor_and_changes_nothing():
    r = np.random.default_rng(12)
    store = ParamStore(ADAM_SHAPES)
    store.flat[:] = r.standard_normal(store.flat.size)
    for name, t in store.items():
        t.grad = r.standard_normal(t.shape)
    state: dict = {}
    adam_step(store, state, 1, TrainConfig())
    before = store.flat.copy(), state["m"].copy(), state["v"].copy()
    store["s"].grad = np.array(np.nan)
    store["c"].grad = np.full(7, np.inf)
    with pytest.raises(training.NonFiniteGradient, match="in s$"):
        adam_step(store, state, 2, TrainConfig())
    for got, want in zip((store.flat, state["m"], state["v"]), before):
        assert got.tobytes() == want.tobytes()


def test_a_relation_absent_from_a_batch_keeps_its_rows_and_moments():
    """Three steps: no graph of batches 1 and 3 has an agree edge, and every
    graph of batch 2 has some. The agree rows of the relation families and
    their moments move in step 2 alone; in step 3 their moments are nonzero,
    so a zero gradient there would still move them."""
    examples = generate_rule_dataset(8, seed=1, input_dim=MC.input_dim)
    has_agree = [any(e.relation is RelationType.AGREE for e in ex.graph.edges)
                 for ex in examples]
    without, with_agree = ([ex for ex, h in zip(examples, has_agree) if h is want]
                           for want in (False, True))
    assert without and with_agree
    params, state = init_params(MC, 0), {}
    offsets = np.cumsum(params.sizes) - params.sizes
    spans = {name: slice(start, start + size) for (name, _), start, size
             in zip(params.items(), offsets, params.sizes)}
    agree = [spans[name] for name in ("layer0/w_attn/agree", "layer0/w_msg/agree",
                                      f"layer0/mu/{meta_key(MC, 'agree')}")]
    for t, batch in enumerate([without, with_agree, without], start=1):
        before = [a.copy() for a in (params.flat, state.get("m", np.zeros(params.flat.size)),
                                     state.get("v", np.zeros(params.flat.size)))]
        params.zero_grad()
        forward_loss([ex.graph for ex in batch], [ex.embeddings for ex in batch], params, MC,
                     [ex.label_index for ex in batch]).backward()
        adam_step(params, state, t, TrainConfig(learning_rate=0.01))
        head = spans["head/w1"]
        assert params.flat[head].tobytes() != before[0][head].tobytes()
        for span in agree:
            for now, was in zip((params.flat, state["m"], state["v"]), before):
                assert (now[span].tobytes() != was[span].tobytes()) is (batch is with_agree)


# -- training loop ---------------------------------------------------------


def small_dataset(n=8, seed=0):
    return generate_rule_dataset(n, seed=seed, input_dim=MC.input_dim,
                                 n_opinions=(3, 5))


def test_train_rejects_empty_splits():
    data = small_dataset()
    with pytest.raises(EmptySplit):
        train([], data, MC, TrainConfig(max_epochs=1, early_stop_patience=1))
    with pytest.raises(EmptySplit):
        train(data, [], MC, TrainConfig(max_epochs=1, early_stop_patience=1))


def test_train_is_deterministic():
    data = small_dataset()
    tc = TrainConfig(learning_rate=1e-3, max_epochs=3, early_stop_patience=3, seed=5)
    cp1, hist1 = train(data, data, MC, tc)
    cp2, hist2 = train(data, data, MC, tc)
    assert hist1 == hist2
    for name, t in cp1.params.items():
        np.testing.assert_array_equal(t.value, cp2.params[name].value)


def test_train_history_shape_and_early_stop():
    data = small_dataset()
    tc = TrainConfig(learning_rate=1e-3, max_epochs=30, early_stop_patience=2, seed=1)
    cp, hist = train(data, data, MC, tc)
    assert all({"epoch", "train_loss", "val_accuracy", "val_macro_f1"} <= set(h)
               for h in hist)
    assert [h["epoch"] for h in hist] == list(range(1, len(hist) + 1))
    assert cp.epoch <= len(hist)
    # once the best epoch is fixed, the run can outlast it by patience + 1 at most
    assert len(hist) <= cp.epoch + tc.early_stop_patience + 1 or cp.epoch == len(hist)


def test_train_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(learning_rate=-1.0)


def test_patience_of_max_epochs_or_more_behaves_like_max_epochs_minus_one():
    """Epoch 1 always improves on the starting best, so early stopping cannot
    fire once patience reaches max_epochs - 1; a larger patience is accepted."""
    data = small_dataset()
    runs = [train(data, data, MC, TrainConfig(learning_rate=1e-3, max_epochs=4,
                                              early_stop_patience=patience, seed=2))
            for patience in (3, 4, 9)]
    (cp, hist), others = runs[0], runs[1:]
    assert len(hist) == 4
    for other_cp, other_hist in others:
        assert other_hist == hist and other_cp.epoch == cp.epoch
        np.testing.assert_array_equal(other_cp.params.flat, cp.params.flat)


# -- welch t-test ----------------------------------------------------------


def test_welch_reference_case():
    t, df, p = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert t == pytest.approx(-1.0, abs=1e-12)
    assert df == pytest.approx(8.0, abs=1e-12)
    assert p == pytest.approx(0.34659, abs=1e-3)


def test_welch_identical_samples():
    t, _, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == 1.0


def test_welch_zero_variance_equal_means():
    t, _, p = welch_t_test([2.0, 2.0], [2.0, 2.0])
    assert (t, p) == (0.0, 1.0)


def test_welch_zero_variance_unequal_means():
    with pytest.raises(DegenerateSample):
        welch_t_test([1.0, 1.0], [2.0, 2.0])


def test_welch_requires_two_observations():
    with pytest.raises(DegenerateSample):
        welch_t_test([1.0], [1.0, 2.0])


def test_student_t_p_against_known_values():
    # standard two-sided t-table entries
    assert student_t_two_sided_p(2.776, 4.0) == pytest.approx(0.05, abs=2e-4)
    assert student_t_two_sided_p(1.0, 1e6) == pytest.approx(0.31731, abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_welch_is_antisymmetric(seed):
    r = np.random.default_rng(seed)
    a = list(r.standard_normal(6))
    b = list(r.standard_normal(9) + 0.3)
    t_ab, df_ab, p_ab = welch_t_test(a, b)
    t_ba, df_ba, p_ba = welch_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba, abs=1e-12)
    assert df_ab == pytest.approx(df_ba, abs=1e-9)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


# -- checkpointing ---------------------------------------------------------


def make_checkpoint(seed=0):
    return Checkpoint(
        version=1,
        model_config=MC,
        train_config=TrainConfig(seed=seed),
        epoch=3,
        best_val_macro_f1=0.75,
        params=init_params(MC, seed),
    )


def test_checkpoint_round_trip_is_fp32_exact(tmp_path):
    cp = make_checkpoint()
    path = tmp_path / "model.rvgc"
    save_checkpoint(cp, path)
    loaded = load_checkpoint(path)
    assert loaded.model_config == cp.model_config
    assert loaded.train_config == cp.train_config
    assert loaded.epoch == 3
    for name, t in cp.params.items():
        expected = t.value.astype("<f4").astype(np.float64)
        np.testing.assert_array_equal(loaded.params[name].value, expected)
    # a second save of the loaded checkpoint is byte-identical
    save_checkpoint(loaded, tmp_path / "again.rvgc")
    assert (tmp_path / "model.rvgc").read_bytes() == (tmp_path / "again.rvgc").read_bytes()


def reference_checkpoint_bytes(cp):
    """The per-tensor writer the one-vector payload replaced, kept as its reference."""
    tensors, payload = [], bytearray()
    for name, tensor in cp.params.items():
        data = tensor.value.astype("<f4").tobytes()
        tensors.append({"name": name, "shape": list(tensor.value.shape),
                        "offset": len(payload), "length": len(data)})
        payload.extend(data)
    manifest = {
        "version": cp.version,
        "model_config": dataclasses.asdict(cp.model_config),
        "train_config": dataclasses.asdict(cp.train_config),
        "epoch": cp.epoch,
        "best_val_macro_f1": cp.best_val_macro_f1,
        "tensors": tensors,
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return b"RVGC" + struct.pack("<I", len(mbytes)) + mbytes + bytes(payload)


@pytest.mark.parametrize("ablation", [m.value for m in graphmod.AblationMode],
                         ids=["typed", "no_title", "no_eval", "no_rar", "no_irr", "homogeneous"])
def test_checkpoint_bytes_match_per_tensor_writer_and_round_trip(tmp_path, ablation):
    """Each mode's model, which the model config alone records."""
    cp = make_checkpoint(seed=4)
    cp.model_config = dataclasses.replace(MC, ablation=ablation)
    cp.params = init_params(cp.model_config, 4)
    cp.params.flat[:] += np.random.default_rng(4).standard_normal(cp.params.flat.size) * 1e-3
    path = tmp_path / "m.rvgc"
    save_checkpoint(cp, path)
    assert path.read_bytes() == reference_checkpoint_bytes(cp)
    loaded = load_checkpoint(path)
    assert loaded.model_config == cp.model_config
    assert loaded.model_config.homogeneous == (ablation == "homogeneous")
    assert [name for name, _ in loaded.params.items()] == [name for name, _ in cp.params.items()]
    np.testing.assert_array_equal(loaded.params.flat,
                                  cp.params.flat.astype("<f4").astype(np.float64))
    assert all(np.shares_memory(t.value, loaded.params.flat) for _, t in loaded.params.items())


@pytest.mark.parametrize("field, value, message", [
    ("version", 2, "unsupported checkpoint version 2"),
    ("version", 0, "unsupported checkpoint version 0"),
    ("version", True, "manifest.version must be an integer, not true"),
    ("epoch", "3", 'manifest.epoch must be an integer, not "3"'),
    ("best_val_macro_f1", "x", 'manifest.best_val_macro_f1 must be a float64 number, not "x"'),
], ids=["version-2", "version-0", "boolean-version", "string-epoch", "string-best-val-macro-f1"])
def test_save_checkpoint_refuses_a_manifest_that_load_checkpoint_would(tmp_path, field, value,
                                                                       message):
    """It raises before anything is written: a new path gets no file, an
    existing checkpoint stays as it was, and no ``.tmp`` is left."""
    bad = dataclasses.replace(make_checkpoint(), **{field: value})
    old = tmp_path / "old.rvgc"
    save_checkpoint(make_checkpoint(), old)
    before = old.read_bytes()
    for path in (tmp_path / "new.rvgc", old):
        with pytest.raises(training.CheckpointError) as info:
            save_checkpoint(bad, path)
        assert str(info.value) == f"cannot save checkpoint to {path}: {message}"
    assert list(tmp_path.iterdir()) == [old] and old.read_bytes() == before


def edit_manifest(path, edit):
    """Rewrite the checkpoint at path with ``edit`` applied to its manifest."""
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<I", blob[4:8])
    manifest = json.loads(blob[8:8 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(mbytes)) + mbytes + blob[8 + mlen:])


def rewrite_manifest(path, edit):
    edit_manifest(path, lambda m: edit({t["name"]: t for t in m["tensors"]}, m["tensors"]))


#: Manifest edits, each making one tensor entry malformed; the error names it.
BAD_ENTRIES = {
    "negative-offset": lambda by, _: by["layer0/query/title"].update(offset=-4),
    "offset-past-end": lambda by, _: by["head/b2"].update(offset=10**6),
    "float-offset": lambda by, _: by["head/b2"].update(offset=0.0),
    "negative-shape": lambda by, _: by["layer0/query/title"].update(shape=[-8, -8]),
    "string-shape": lambda by, _: by["layer0/query/title"].update(shape="88"),
    "misshaped": lambda by, _: by["layer0/query/title"].update(shape=[4, 16]),
    "wrong-length": lambda by, _: by["layer0/query/title"].update(length=4),
    "duplicate": lambda by, tensors: tensors.append(dict(by["layer0/query/title"])),
    "missing": lambda by, tensors: tensors.remove(by["layer0/query/title"]),
    "extra": lambda by, tensors: tensors.append({**by["head/b2"], "name": "layer0/query/other"}),
}


@pytest.mark.parametrize("edit", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_checkpoint_rejects_malformed_tensor_entry_naming_it(tmp_path, edit):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    rewrite_manifest(path, edit)
    with pytest.raises(CorruptPayload, match="tensor '(layer0/query/title|head/b2|layer0/query/"
                                             "other)'"):
        load_checkpoint(path)


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    blob = path.read_bytes()
    assert blob[:4] == b"RVGC"
    mlen = int.from_bytes(blob[4:8], "little")
    manifest = blob[8:8 + mlen].decode("utf-8")
    assert '"tensors"' in manifest


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "m.rvgc"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CorruptPayload):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("epoch"),
    lambda m: m.pop("tensors"),
    lambda m: m.pop("model_config"),
    lambda m: m["model_config"].update(unknown_field=1),
    # the field types a run config must have
    lambda m: m["model_config"].update(hidden_dim=float(m["model_config"]["hidden_dim"])),
    lambda m: m["model_config"].update(seed=0.5),
    lambda m: m["train_config"].update(seed=0.5),
    lambda m: m["train_config"].update(batch_size=2.5),
    lambda m: m["train_config"].update(shuffle="yes"),
    lambda m: m.update(train_config=[]),
    # the types of the manifest's own scalars, as ``Checkpoint`` annotates them
    lambda m: m.update(epoch="3"),
    lambda m: m.update(best_val_macro_f1="x"),
    lambda m: m.update(version=True),
    # config values outside their domain
    lambda m: m["model_config"].update(hidden_dim=0),
    lambda m: m["train_config"].update(learning_rate=-1.0),
    # the model config of a checkpoint written before it held the ablation,
    # without and with the top-level ablation of the versions that recorded it
    lambda m: older_model_config(m),
    lambda m: older_model_config(m).update(ablation="full"),
    # the ablation the model was trained under: unknown, or not a string
    lambda m: m["model_config"].update(ablation="no_author"),
    lambda m: m["model_config"].update(ablation=1),
], ids=["no-epoch", "no-tensors", "no-model-config", "unknown-model-config-key",
        "float-hidden-dim", "fractional-model-seed", "fractional-train-seed",
        "fractional-batch-size", "string-shuffle", "train-config-not-an-object",
        "string-epoch", "string-best-val-macro-f1", "boolean-version",
        "zero-hidden-dim", "negative-learning-rate", "no-ablation", "top-level-ablation",
        "unknown-ablation", "numeric-ablation"])
def test_checkpoint_rejects_malformed_manifest(tmp_path, edit):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    edit_manifest(path, edit)
    with pytest.raises(CorruptPayload, match=f"^{re.escape(str(path))}: "):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value, wanted", [
    ("epoch", "3", "an integer"), ("best_val_macro_f1", "x", "a float64 number"),
    ("version", True, "an integer"),
])
def test_checkpoint_names_a_wrongly_typed_manifest_scalar(tmp_path, field, value, wanted):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    edit_manifest(path, lambda m: m.update({field: value}))
    with pytest.raises(CorruptPayload) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: TypeError: manifest.{field} "
                              f"must be {wanted}, not {json.dumps(value)}")


def test_checkpoint_loads_resolve_each_config_class_hints_once(tmp_path):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    graphmod._type_hints.cache_clear()
    for _ in range(3):
        load_checkpoint(path)
    info = graphmod._type_hints.cache_info()
    assert (info.misses, info.hits) == (3, 6)  # Checkpoint, ModelConfig and TrainConfig


def test_checkpoint_rejects_truncated_payload(tmp_path):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptPayload):
        load_checkpoint(path)


def test_interrupted_checkpoint_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(seed=0), path)
    before = path.read_bytes()

    class Crash(Exception):
        pass

    class CrashAfterHeader:
        """A file object whose second write raises."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise Crash("interrupted mid-write")
            return self.fh.write(data)

    monkeypatch.setattr(training, "open", lambda p, mode: CrashAfterHeader(io.open(p, mode)),
                        raising=False)
    with pytest.raises(Crash):
        save_checkpoint(make_checkpoint(seed=1), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.rvgc"]


def test_checkpoint_missing_file():
    with pytest.raises(IoError, match="^/nonexistent/path/model.rvgc: "):
        load_checkpoint("/nonexistent/path/model.rvgc")


def test_loaded_checkpoint_predicts_identically(tmp_path):
    data = small_dataset(n=6, seed=3)
    cp = make_checkpoint(seed=3)
    path = tmp_path / "m.rvgc"
    save_checkpoint(cp, path)
    loaded = load_checkpoint(path)
    save_checkpoint(loaded, tmp_path / "m2.rvgc")
    reloaded = load_checkpoint(tmp_path / "m2.rvgc")
    for ex in data:
        assert (predict_label_index(ex, loaded.params, MC)
                == predict_label_index(ex, reloaded.params, MC))


# -- freed memory kept in the process ---------------------------------------

def _has_mallopt() -> bool:
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")


#: Trains three times at the benchmark's train-rule shape, then prints the
#: minor page faults of five more calls.
FAULTS_PER_TRAIN = """
import resource
from reviewgraph import model, synth, training
train_set = synth.generate_rule_dataset(64, 0, 16)
val_set = synth.generate_rule_dataset(16, 1000, 16)
model_config = model.ModelConfig(input_dim=16, hidden_dim=16, num_heads=2, num_layers=2,
                                 ffn_hidden=16, seed=0)
train_config = training.TrainConfig(batch_size=32, max_epochs=1, early_stop_patience=1, seed=0)
for _ in range(3):
    training.train(train_set, val_set, model_config, train_config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    training.train(train_set, val_set, model_config, train_config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_training_steps_reuse_freed_memory_without_page_faults():
    """Without kept memory each call faults its tape's pages in again: a
    thousand or more minor faults per call at this shape."""
    src = str(Path(autodiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", FAULTS_PER_TRAIN], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    faults_per_call = int(done.stdout) / 5
    assert faults_per_call < 50


def test_keeping_freed_memory_is_skipped_without_mallopt(monkeypatch):
    def no_library(_name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    assert autodiff._keep_freed_memory() is None
    monkeypatch.setattr(ctypes, "CDLL", lambda _name: types.SimpleNamespace())
    assert autodiff._keep_freed_memory() is None


def test_keeping_freed_memory_sets_the_mmap_then_the_trim_threshold(monkeypatch):
    calls = []
    library = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda _name: library)
    autodiff._keep_freed_memory()
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
    assert calls == [(-3, 32 << 20), (-1, 128 << 20)]

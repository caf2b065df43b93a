import dataclasses
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import confusion_metrics
from reviewgraph import training
from reviewgraph.autodiff import ParamStore
from reviewgraph.model import ModelConfig, init_params
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
    store = ParamStore()
    t = store.add("w", np.array([1.0, -2.0]))
    t.grad = np.array([0.5, -0.1])
    config = TrainConfig(learning_rate=0.01, epsilon=1e-12)
    adam_step(store, {}, 1, config)
    np.testing.assert_allclose(t.value, [1.0 - 0.01, -2.0 + 0.01], atol=1e-8)


def test_adam_skips_parameters_without_gradient():
    store = ParamStore()
    t = store.add("w", np.ones(2))
    adam_step(store, {}, 1, TrainConfig())
    np.testing.assert_array_equal(t.value, np.ones(2))


def test_adam_matches_reference_trajectory():
    """Three steps on a quadratic against a hand-rolled Adam loop."""
    config = TrainConfig(learning_rate=0.1)
    store = ParamStore()
    t = store.add("x", np.array([2.0]))
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
    with pytest.raises(TrainingError):
        TrainConfig(max_epochs=5, early_stop_patience=9)


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


@pytest.mark.parametrize("homogeneous", [False, True], ids=["typed", "homogeneous"])
def test_checkpoint_bytes_match_per_tensor_writer_and_round_trip(tmp_path, homogeneous):
    cp = make_checkpoint(seed=4)
    cp.model_config = dataclasses.replace(MC, homogeneous=homogeneous)
    cp.params = init_params(cp.model_config, 4)
    cp.params.flat[:] += np.random.default_rng(4).standard_normal(cp.params.flat.size) * 1e-3
    path = tmp_path / "m.rvgc"
    save_checkpoint(cp, path)
    assert path.read_bytes() == reference_checkpoint_bytes(cp)
    loaded = load_checkpoint(path)
    assert loaded.params.names() == cp.params.names()
    np.testing.assert_array_equal(loaded.params.flat,
                                  cp.params.flat.astype("<f4").astype(np.float64))
    assert all(np.shares_memory(t.value, loaded.params.flat) for _, t in loaded.params.items())


def rewrite_manifest(path, edit):
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<I", blob[4:8])
    manifest = json.loads(blob[8:8 + mlen])
    edit({t["name"]: t for t in manifest["tensors"]}, manifest["tensors"])
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(mbytes)) + mbytes + blob[8 + mlen:])


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
], ids=["no-epoch", "no-tensors", "no-model-config", "unknown-model-config-key"])
def test_checkpoint_rejects_malformed_manifest(tmp_path, edit):
    path = tmp_path / "m.rvgc"
    save_checkpoint(make_checkpoint(), path)
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<I", blob[4:8])
    manifest = json.loads(blob[8:8 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(mbytes)) + mbytes + blob[8 + mlen:])
    with pytest.raises(CorruptPayload):
        load_checkpoint(path)


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
    with pytest.raises(IoError):
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

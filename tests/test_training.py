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

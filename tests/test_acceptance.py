"""Acceptance suite: one test per acceptance criterion.

Each test emits a single pass/fail line through pytest; tolerances and
runtime bounds are asserted inline. Heavier checks (training runs) pin
their seeds so results are deterministic in this environment.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import confusion_metrics, dense_forward, permute_graph
from pipeline_utils import make_workspace, run, run_stage_pipeline
from reviewgraph.cli import main
from reviewgraph.extraction import (
    DimensionAssignment,
    build_graph,
    parse_triple_batch,
    reviewer_opinion_keys,
)
from reviewgraph.graph import (
    AblationMode,
    Dimension,
    apply_ablation,
    edge_counts_by_group,
    validate_graph,
)
from reviewgraph.model import (
    ModelConfig,
    build_graph_index,
    featurize,
    hgt_attention,
    hgt_layer,
    init_params,
    predict,
)
from reviewgraph.synth import (
    embeddings_for,
    generate_rule_dataset,
    random_debate_graph,
)
from reviewgraph.training import (
    GraphExample,
    TrainConfig,
    evaluate,
    load_checkpoint,
    predict_label_index,
    save_checkpoint,
    train,
    welch_t_test,
)
from reviewgraph.training import Checkpoint

DATA = Path(__file__).parent / "data"

SMALL = ModelConfig(input_dim=6, hidden_dim=8, num_heads=2, num_layers=2,
                    ffn_hidden=8, seed=0)


def test_criterion_01_gradient_fidelity(capsys):
    """cmd_gradcheck: max relative error < 1e-4 in under 10 seconds."""
    start = time.perf_counter()
    code = main(["--seed", "0", "gradcheck"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0, out
    assert "10 nodes" in out
    assert elapsed < 10.0, f"gradcheck took {elapsed:.1f}s"


def test_criterion_02_dense_oracle_equivalence():
    """predict() matches the straight-line dense reference on 50 graphs."""
    for seed in range(50):
        g = random_debate_graph(seed, f"oracle-{seed}",
                                n_reviewer_opinions=(2, 4), n_author_opinions=(1, 3))
        assert g.num_nodes <= 12
        emb = embeddings_for(g, SMALL.input_dim, seed)
        params = init_params(SMALL, seed)
        probs, _ = predict(g, emb, params, SMALL)
        expected = dense_forward(g, emb, params, SMALL)
        np.testing.assert_allclose(probs, expected, atol=1e-10)


def test_criterion_03_attention_normalization_and_residual():
    """Per-target per-head attention sums to 1; isolated nodes pass through."""
    params_cache = {}
    for seed in range(1000):
        g = random_debate_graph(seed % 97, f"attn-{seed}")
        emb = embeddings_for(g, SMALL.input_dim, seed % 7)
        key = seed % 5
        if key not in params_cache:
            params_cache[key] = init_params(SMALL, key)
        params = params_cache[key]
        index = build_graph_index([g], SMALL)
        h0 = featurize(g, emb, params, SMALL, index)
        attn, index = hgt_attention(h0, g, params, 0, SMALL, index)
        for start, stop in index.segments:
            np.testing.assert_allclose(attn[start:stop].sum(axis=0), 1.0, atol=1e-12)

    # isolated-node residual: drop inverse edges so the title receives nothing
    config = dataclasses.replace(SMALL, use_inverse_edges=False)
    for seed in range(20):
        g = random_debate_graph(seed, f"resid-{seed}")
        emb = embeddings_for(g, config.input_dim, seed)
        params = init_params(config, seed)
        index = build_graph_index([g], config)
        h0 = featurize(g, emb, params, config, index)
        h1 = hgt_layer(h0, g, params, 0, config, index)
        targets = {e.dst for e in index.ordered_edges}
        isolated = [n.id for n in g.nodes if n.id not in targets]
        assert isolated
        for node_id in isolated:
            assert np.array_equal(h1.value[node_id], h0.value[node_id])


def test_criterion_04_permutation_invariance():
    """Node relabeling changes the prediction by at most 1e-9."""
    rng = np.random.default_rng(123)
    params = init_params(SMALL, 0)
    for seed in range(100):
        g = random_debate_graph(seed, f"perm-{seed}")
        emb = embeddings_for(g, SMALL.input_dim, seed)
        perm = rng.permutation(g.num_nodes)
        g2, emb2 = permute_graph(g, emb, perm)
        p1, _ = predict(g, emb, params, SMALL)
        p2, _ = predict(g2, emb2, params, SMALL)
        assert np.abs(p1 - p2).max() <= 1e-9


def test_criterion_05_overfit_check():
    """32 synthetic graphs, lr 1e-3, at most 100 epochs: train accuracy 1.0."""
    start = time.perf_counter()
    data = generate_rule_dataset(32, seed=1, input_dim=16)
    config = ModelConfig(input_dim=16, hidden_dim=16, num_heads=2, num_layers=2,
                         ffn_hidden=16, seed=1)
    tc = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=70,
                     early_stop_patience=70, seed=1)
    checkpoint, history = train(data, data, config, tc)
    preds = [predict_label_index(ex, checkpoint.params, config) for ex in data]
    report = evaluate(preds, [ex.label_index for ex in data])
    elapsed = time.perf_counter() - start
    assert report.accuracy == 1.0, f"train accuracy {report.accuracy}"
    assert len(history) <= 100
    assert elapsed < 60.0, f"overfit run took {elapsed:.1f}s"


def test_criterion_06_ablation_signal():
    """Full model learns the RAR-edge majority rule; NoRAR cannot."""
    seed = 5
    data = generate_rule_dataset(300, seed=seed, input_dim=16)
    train_set, val_set, test_set = data[:200], data[200:250], data[250:]
    config = ModelConfig(input_dim=16, hidden_dim=16, num_heads=2, num_layers=2,
                         ffn_hidden=16, seed=seed)
    tc = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=40,
                     early_stop_patience=8, seed=seed)

    def run_mode(mode):
        def ablate(split):
            return [
                GraphExample(apply_ablation(ex.graph, mode), ex.embeddings, ex.label)
                for ex in split
            ]

        checkpoint, _ = train(ablate(train_set), ablate(val_set), config, tc)
        preds = [
            predict_label_index(ex, checkpoint.params, config) for ex in ablate(test_set)
        ]
        return evaluate(preds, [ex.label_index for ex in test_set]).macro_f1

    full_f1 = run_mode(AblationMode.FULL)
    no_rar_f1 = run_mode(AblationMode.NO_RAR)
    assert full_f1 >= 0.95, f"full model macro-F1 {full_f1:.4f}"
    assert no_rar_f1 <= 0.65, f"no_rar macro-F1 {no_rar_f1:.4f}"


def test_criterion_07_metrics_oracle():
    """evaluate() equals the confusion-matrix oracle on 200 random sets."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        preds = list(rng.integers(0, 2, size=n))
        golds = list(rng.integers(0, 2, size=n))
        report = evaluate(preds, golds)
        acc, p, r, f1 = confusion_metrics(preds, golds)
        assert report.accuracy == pytest.approx(acc, abs=1e-12)
        assert report.macro_precision == pytest.approx(p, abs=1e-12)
        assert report.macro_recall == pytest.approx(r, abs=1e-12)
        assert report.macro_f1 == pytest.approx(f1, abs=1e-12)

    hand = evaluate([0] * 10, [0] * 5 + [1] * 5)
    assert round(hand.accuracy, 4) == 0.5
    assert round(hand.macro_f1, 4) == 0.3333


def test_criterion_08_appendix_example_fidelity():
    """The two sample triple listings parse to 7+8 and 7+7; the rejected-paper
    graph validates with 7 RAR and 8 IRR edges."""
    rejected = parse_triple_batch(
        (DATA / "triples_rejected_sample.json").read_text(), "rejected"
    )
    accepted = parse_triple_batch(
        (DATA / "triples_accepted_sample.json").read_text(), "accepted"
    )
    assert (len(rejected.reviewer_author), len(rejected.inter_reviewer)) == (7, 8)
    assert (len(accepted.reviewer_author), len(accepted.inter_reviewer)) == (7, 7)

    dims = [
        DimensionAssignment(speaker=s, text=t, dimension=Dimension.METHODOLOGICAL_NOVELTY)
        for s, t in reviewer_opinion_keys(rejected)
    ]
    g = build_graph("Potential Transformation Analysis", rejected, dims, label="reject")
    report = validate_graph(g)
    assert report.ok, report.violations
    counts = edge_counts_by_group(g)
    assert counts["reviewer_author"] == 7
    assert counts["inter_reviewer"] == 8


def test_criterion_09_pipeline_determinism(tmp_path):
    """Two seed-7 mock pipeline runs yield byte-identical graphs and history."""
    start = time.perf_counter()
    splits = [
        ("d0", "train", "accept"), ("d1", "train", "reject"),
        ("d2", "train", "accept"), ("d3", "train", "reject"),
        ("d4", "val", "accept"), ("d5", "val", "reject"),
    ]
    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        manifest = make_workspace(root, splits)
        run_stage_pipeline(root, manifest, seed=7)
        code = run(root, "train", str(manifest),
                   "--checkpoint", str(root / "c.rvgc"),
                   "--history", str(root / "h.jsonl"), seed=7)
        assert code == 0
        outputs[tag] = {
            "graphs": {
                pid: (root / "work" / f"{pid}.graph.json").read_bytes()
                for pid, _, _ in splits
            },
            "history": (root / "h.jsonl").read_bytes(),
        }
    assert outputs["a"]["graphs"] == outputs["b"]["graphs"]
    assert outputs["a"]["history"] == outputs["b"]["history"]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline determinism check took {elapsed:.1f}s"


def test_criterion_10_checkpoint_persistence(tmp_path):
    """Save/load round-trip is fp32-bit-exact and flips no prediction label."""
    params = init_params(SMALL, 3)
    checkpoint = Checkpoint(
        version=1, model_config=SMALL, train_config=TrainConfig(seed=3),
        epoch=1, best_val_macro_f1=0.5, params=params,
    )
    p1 = tmp_path / "a.rvgc"
    p2 = tmp_path / "b.rvgc"
    save_checkpoint(checkpoint, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    for seed in range(20):
        g = random_debate_graph(seed, f"persist-{seed}")
        emb = embeddings_for(g, SMALL.input_dim, seed)
        before = int(np.argmax(predict(g, emb, params, SMALL)[0]))
        after = int(np.argmax(predict(g, emb, loaded.params, SMALL)[0]))
        assert before == after, f"label flipped on graph seed {seed}"


def test_criterion_11_statistics():
    """Welch t-test reference case and identical-sample case."""
    t, df, p = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert t == pytest.approx(-1.0, abs=1e-9)
    assert p == pytest.approx(0.3466, abs=1e-3)
    _, _, p_same = welch_t_test([0.3, 0.7, 0.5], [0.3, 0.7, 0.5])
    assert p_same == 1.0

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import dense_forward, permute_graph, reference_graph_index
from reviewgraph.graph import AblationMode, apply_ablation, build_minimal_graph
from reviewgraph.model import (
    PREDICT_EDGE_BUDGET,
    DimMismatch,
    MissingEmbedding,
    ModelConfig,
    ModelError,
    build_graph_index,
    edge_chunks,
    featurize,
    forward_loss,
    hgt_attention,
    hgt_layer,
    init_params,
    meta_key,
    node_type_keys,
    param_layout,
    predict,
    predict_batch,
    relation_keys,
)
from reviewgraph.synth import embeddings_for, generate_rule_dataset, random_debate_graph
from reviewgraph.training import GraphExample, predict_label_indices

SMALL = ModelConfig(input_dim=6, hidden_dim=8, num_heads=2, num_layers=2,
                    ffn_hidden=8, seed=0)


def make_case(seed, config=SMALL, **kwargs):
    g = random_debate_graph(seed, f"case-{seed}", **kwargs)
    emb = embeddings_for(g, config.input_dim, seed)
    params = init_params(config, seed)
    return g, emb, params


def test_config_rejects_bad_head_split():
    with pytest.raises(ModelError):
        ModelConfig(input_dim=4, hidden_dim=10, num_heads=4)


def test_config_scale_divisor():
    assert SMALL.scale_divisor == np.sqrt(8)
    alt = dataclasses.replace(SMALL, attention_scale="sqrt_dh")
    assert alt.scale_divisor == np.sqrt(4)


def test_relation_keys_counts():
    assert len(relation_keys(SMALL)) == 26
    no_inv = dataclasses.replace(SMALL, use_inverse_edges=False)
    assert len(relation_keys(no_inv)) == 13
    homog = dataclasses.replace(SMALL, homogeneous=True)
    assert relation_keys(homog) == ["connected"]
    assert node_type_keys(homog) == ["node"]


def test_meta_key_orients_inverse_relations():
    assert meta_key(SMALL, "has_aspect") == "title__has_aspect__evaluation_dimension"
    assert meta_key(SMALL, "accept__inv") == "reviewer_opinion__accept__author_opinion__inv"


def test_param_count_homogeneous_vs_heterogeneous():
    het = init_params(SMALL, 0)
    homog = init_params(dataclasses.replace(SMALL, homogeneous=True), 0)
    assert len(homog) < len(het)
    # per layer: 3 projections + agg + rescale per type, 2 matrices + mu per relation
    per_layer_het = 5 * 4 + 3 * 26
    per_layer_hom = 5 * 1 + 3 * 1
    assert len(het) == 4 + 2 * per_layer_het + 4
    assert len(homog) == 1 + 2 * per_layer_hom + 4


def reference_init_params(config, seed):
    """The per-tensor initialisation that ``init_params`` replaced, kept as
    its reference: each tensor drawn on its own, in insertion order."""
    rng = np.random.default_rng(seed)

    def xavier(fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    d, dh = config.hidden_dim, config.head_dim
    types, rels = node_type_keys(config), relation_keys(config)
    out = {f"w_in/{t}": xavier(config.input_dim, d) for t in types}
    for layer in range(config.num_layers):
        for t in types:
            out[f"layer{layer}/key/{t}"] = xavier(d, d)
            out[f"layer{layer}/query/{t}"] = xavier(d, d)
            out[f"layer{layer}/msg/{t}"] = xavier(d, d)
        for rk in rels:
            out[f"layer{layer}/w_attn/{rk}"] = xavier(dh, dh)
            out[f"layer{layer}/w_msg/{rk}"] = xavier(dh, dh)
            out[f"layer{layer}/mu/{meta_key(config, rk)}"] = np.asarray(1.0)
        for t in types:
            out[f"layer{layer}/agg/{t}"] = xavier(d, d)
            out[f"layer{layer}/rescale/{t}"] = np.asarray(1.0)
    out["head/w1"] = xavier(config.pool_width, config.ffn_hidden)
    out["head/b1"] = np.zeros(config.ffn_hidden)
    out["head/w2"] = xavier(config.ffn_hidden, config.num_classes)
    out["head/b2"] = np.zeros(config.num_classes)
    return out


@pytest.mark.parametrize("homogeneous", [False, True], ids=["typed", "homogeneous"])
def test_init_params_fills_one_vector_in_layout_order(homogeneous):
    config = dataclasses.replace(SMALL, homogeneous=homogeneous)
    params = init_params(config, 7)
    layout = param_layout(config)
    assert [(name, t.value.shape) for name, t in params.items()] == \
        [(name, shape) for name, shape, _init in layout]
    assert all(np.shares_memory(t.value, params.flat) for _, t in params.items())
    reference = reference_init_params(config, 7)
    assert params.names() == list(reference)
    assert params.flat.tobytes() == np.concatenate(
        [value.ravel() for value in reference.values()]).tobytes()


def test_featurize_checks_embeddings():
    g, emb, params = make_case(0)
    missing = dict(emb)
    missing.pop(0)
    with pytest.raises(MissingEmbedding):
        featurize(g, missing, params, SMALL)
    bad = dict(emb)
    bad[0] = np.zeros(3)
    with pytest.raises(DimMismatch):
        featurize(g, bad, params, SMALL)


def test_predict_matches_dense_oracle():
    for seed in range(10):
        g, emb, params = make_case(
            seed, n_reviewer_opinions=(2, 4), n_author_opinions=(1, 3)
        )
        probs, _ = predict(g, emb, params, SMALL)
        expected = dense_forward(g, emb, params, SMALL)
        np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_predict_matches_dense_oracle_homogeneous():
    config = dataclasses.replace(SMALL, homogeneous=True)
    for seed in range(5):
        g = apply_ablation(random_debate_graph(seed, f"h-{seed}"),
                           AblationMode.HOMOGENEOUS)
        emb = embeddings_for(g, config.input_dim, seed)
        params = init_params(config, seed)
        probs, _ = predict(g, emb, params, config)
        expected = dense_forward(g, emb, params, config)
        np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_predict_matches_dense_oracle_without_inverse_edges():
    config = dataclasses.replace(SMALL, use_inverse_edges=False)
    for seed in range(5):
        g, emb, _ = make_case(seed, config)
        params = init_params(config, seed)
        probs, _ = predict(g, emb, params, config)
        np.testing.assert_allclose(probs, dense_forward(g, emb, params, config),
                                   atol=1e-12)


def test_attention_rows_normalize_per_target_and_head():
    g, emb, params = make_case(3)
    index = build_graph_index([g], SMALL)
    h0 = featurize(g, emb, params, SMALL, index)
    attn, index = hgt_attention(h0, g, params, 0, SMALL, index)
    assert attn.shape == (index.n_edges, SMALL.num_heads)
    for start, stop in index.segments:
        sums = attn[start:stop].sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_isolated_node_passes_through_residual():
    config = dataclasses.replace(SMALL, use_inverse_edges=False)
    g, emb, _ = make_case(4, config)
    params = init_params(config, 4)
    index = build_graph_index([g], config)
    h0 = featurize(g, emb, params, config, index)
    h1 = hgt_layer(h0, g, params, 0, config, index)
    # without inverse edges the title node receives no messages
    targets = {e.dst for e in index.ordered_edges}
    assert 0 not in targets
    assert np.array_equal(h1.value[0], h0.value[0])


def test_probabilities_sum_to_one():
    for seed in range(5):
        g, emb, params = make_case(seed)
        probs, _ = predict(g, emb, params, SMALL)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert (probs >= 0).all()


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    for seed in range(10):
        g, emb, params = make_case(seed)
        perm = rng.permutation(g.num_nodes)
        g2, emb2 = permute_graph(g, emb, perm)
        p1, _ = predict(g, emb, params, SMALL)
        p2, _ = predict(g2, emb2, params, SMALL)
        np.testing.assert_allclose(p1, p2, atol=1e-9)


def test_forward_trace_records_layers_and_pooling():
    g, emb, params = make_case(5)
    probs, trace = predict(g, emb, params, SMALL)
    assert len(trace.layer_outputs) == SMALL.num_layers + 1
    assert len(trace.attention) == SMALL.num_layers
    assert set(trace.pooled) == set(node_type_keys(SMALL))
    np.testing.assert_allclose(trace.probs, probs)


def test_attention_scale_variant_changes_output():
    g, emb, params = make_case(6)
    alt = dataclasses.replace(SMALL, attention_scale="sqrt_dh")
    p1, _ = predict(g, emb, params, SMALL)
    p2, _ = predict(g, emb, params, alt)
    assert not np.allclose(p1, p2)


def test_tape_size_is_independent_of_heads_and_relations():
    few = build_minimal_graph("few", "A title")
    many = random_debate_graph(1, "many", n_reviewer_opinions=(8, 9), n_author_opinions=(3, 4))
    counts = set()
    for heads in (1, 4):
        config = dataclasses.replace(SMALL, num_heads=heads)
        params = init_params(config, 0)
        for g in (few, many):
            n_rel = len(build_graph_index([g], config).rel_keys)
            assert n_rel == 2 if g is few else n_rel >= 8
            emb = embeddings_for(g, config.input_dim, 0)
            counts.add(tape_ops(forward_loss([g], [emb], params, config, [0])))
    assert len(counts) == 1, counts


def test_parameters_a_graph_lacks_get_no_gradient():
    g = build_minimal_graph("few", "A title")
    params = init_params(SMALL, 0)
    emb = embeddings_for(g, SMALL.input_dim, 0)
    forward_loss([g], [emb], params, SMALL, [0]).backward()
    assert params["w_in/title"].grad is not None
    assert params["layer0/w_attn/has_aspect__inv"].grad is not None
    # adam_step skips a None gradient; a zero one would still move the weight
    assert params["w_in/reviewer_opinion"].grad is None
    assert params["layer0/w_attn/agree"].grad is None
    assert params[f"layer0/mu/{meta_key(SMALL, 'agree')}"].grad is None
    assert params["layer1/rescale/author_opinion"].grad is None


def tape_ops(loss):
    """Tensors with a backward closure reachable from the loss."""
    seen, stack, ops = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            ops += t._backward_fn is not None
            stack.extend(t._parents)
    return ops


HOMOGENEOUS = dataclasses.replace(SMALL, homogeneous=True)
NO_INVERSE = dataclasses.replace(SMALL, use_inverse_edges=False)


def index_cases():
    """(graph, config) pairs: rule graphs under every ablation mode, the
    homogeneous config and no inverse edges."""
    graphs = [ex.graph for ex in generate_rule_dataset(4, seed=2, input_dim=4)]
    graphs.append(build_minimal_graph("minimal", "A title"))
    for g in graphs:
        for mode in AblationMode:
            config = HOMOGENEOUS if mode == AblationMode.HOMOGENEOUS else SMALL
            yield apply_ablation(g, mode), config
        yield g, HOMOGENEOUS
        yield g, NO_INVERSE


def test_graph_index_matches_loop_reference():
    for g, config in index_cases():
        index = build_graph_index([g], config)
        want = reference_graph_index(g, config)
        assert index.n_nodes == want["n_nodes"]
        assert index.type_keys == want["type_keys"]
        assert index.rel_keys == want["rel_keys"]
        assert index.ordered_edges == want["ordered_edges"]
        for name in ("node_type", "src", "dst", "edge_rel", "segments", "seg_targets"):
            np.testing.assert_array_equal(getattr(index, name), want[name], err_msg=name)
        pool = np.zeros_like(want["pool"])
        for (start, stop), target in zip(index.pool_segments, index.pool_targets):
            pool[target, index.pool_rows[start:stop]] = index.pool_scale[target]
        np.testing.assert_array_equal(pool, want["pool"])


def mixed_batch(config, seed):
    """Graphs of different sizes, some lacking the title or dimension nodes."""
    graphs = [
        random_debate_graph(seed, "a", n_reviewer_opinions=(2, 3), n_author_opinions=(1, 2)),
        apply_ablation(random_debate_graph(seed + 1, "b"), AblationMode.NO_TITLE),
        random_debate_graph(seed + 2, "c", n_reviewer_opinions=(6, 8), n_author_opinions=(3, 4)),
        apply_ablation(random_debate_graph(seed + 3, "d"), AblationMode.NO_EVAL),
        build_minimal_graph("e", "A title"),
    ]
    if config.homogeneous:
        graphs = [apply_ablation(g, AblationMode.HOMOGENEOUS) for g in graphs]
    return graphs, [embeddings_for(g, config.input_dim, seed + i) for i, g in enumerate(graphs)]


def test_batched_forward_matches_dense_oracle_per_graph():
    for config in (SMALL, HOMOGENEOUS, NO_INVERSE):
        for seed in range(3):
            graphs, embs = mixed_batch(config, 10 * seed)
            params = init_params(config, seed)
            probs = predict_batch(graphs, embs, params, config)
            for g, emb, p in zip(graphs, embs, probs):
                np.testing.assert_allclose(p, dense_forward(g, emb, params, config),
                                           rtol=0, atol=1e-10)


def test_batch_gradient_is_mean_of_graph_gradients_with_same_none_set():
    graphs, embs = mixed_batch(SMALL, 3)
    labels = [i % 2 for i in range(len(graphs))]
    params = init_params(SMALL, 3)
    per_graph, none_sets = [], []
    for g, emb, label in zip(graphs, embs, labels):
        params.zero_grad()
        forward_loss([g], [emb], params, SMALL, [label]).backward()
        per_graph.append({name: t.grad for name, t in params.items() if t.grad is not None})
        none_sets.append({name for name, t in params.items() if t.grad is None})
    params.zero_grad()
    forward_loss(graphs, embs, params, SMALL, labels).backward()
    # adam_step skips exactly the parameters no graph of the batch uses
    assert {name for name, t in params.items() if t.grad is None} == set.intersection(*none_sets)
    for name, t in params.items():
        if t.grad is not None:
            mean = sum(grads.get(name, 0.0) for grads in per_graph) / len(graphs)
            np.testing.assert_allclose(t.grad, mean, rtol=0, atol=1e-12, err_msg=name)


def test_tape_ops_per_step_do_not_depend_on_batch_size():
    examples = generate_rule_dataset(32, seed=4, input_dim=SMALL.input_dim)
    params = init_params(SMALL, 0)
    counts = set()
    for size in (1, 8, 32):
        batch = examples[:size]
        index = build_graph_index([ex.graph for ex in batch], SMALL)
        assert index.n_graphs == size
        loss = forward_loss([ex.graph for ex in batch], [ex.embeddings for ex in batch],
                            params, SMALL, [ex.label_index for ex in batch], index)
        counts.add(tape_ops(loss))
    assert len(counts) == 1, counts


def index_batches():
    """(graphs, config) batches: the index cases of each config, and mixed
    batches, each with an edgeless graph at a different position."""
    edgeless = apply_ablation(build_minimal_graph("edgeless", "A title"), AblationMode.NO_TITLE)
    for config in (SMALL, HOMOGENEOUS, NO_INVERSE):
        cases = [g for g, c in index_cases() if c == config]
        yield cases[:7] + [edgeless] + cases[7:], config
        for seed in range(3):
            graphs, _ = mixed_batch(config, 10 * seed)
            graphs.insert(2 * seed, edgeless)
            yield graphs, config


def test_batch_index_matches_per_graph_reference_with_offsets():
    for graphs, config in index_batches():
        index = build_graph_index(graphs, config)
        wants = [reference_graph_index(g, config) for g in graphs]
        node_off = np.cumsum([0] + [w["n_nodes"] for w in wants])
        edge_off = np.cumsum([0] + [len(w["src"]) for w in wants])
        type_keys = sorted(set().union(*(w["type_keys"] for w in wants)))
        rel_keys = sorted(set().union(*(w["rel_keys"] for w in wants)))
        assert index.n_nodes == node_off[-1]
        np.testing.assert_array_equal(index.node_offsets, node_off)
        assert index.type_keys == type_keys
        assert index.rel_keys == rel_keys
        assert index.ordered_edges == [e for w in wants for e in w["ordered_edges"]]

        def shifted(name, offsets=node_off):
            return np.concatenate([np.asarray(w[name], dtype=int) + off
                                   for w, off in zip(wants, offsets)])

        def renumbered(name, own_keys, keys):
            return np.array([keys.index(w[own_keys][v]) for w in wants for v in w[name]],
                            dtype=int)

        np.testing.assert_array_equal(index.node_type,
                                      renumbered("node_type", "type_keys", type_keys))
        np.testing.assert_array_equal(index.edge_rel, renumbered("edge_rel", "rel_keys", rel_keys))
        for name in ("src", "dst", "seg_targets"):
            np.testing.assert_array_equal(getattr(index, name), shifted(name), err_msg=name)
        np.testing.assert_array_equal(index.segments, shifted("segments", edge_off))

        n_slots = len(node_type_keys(config))
        want_pool = np.zeros((n_slots * len(graphs), index.n_nodes))
        for b, w in enumerate(wants):
            want_pool[b * n_slots:(b + 1) * n_slots, node_off[b]:node_off[b + 1]] = w["pool"]
        pool = np.zeros_like(want_pool)
        for (start, stop), target in zip(index.pool_segments, index.pool_targets):
            pool[target, index.pool_rows[start:stop]] = index.pool_scale[target]
        np.testing.assert_array_equal(pool, want_pool)


def test_chunked_prediction_matches_per_graph_predict():
    big = random_debate_graph(99, "big", n_reviewer_opinions=(300, 300),
                              n_author_opinions=(200, 200))
    assert len(big.edges) > PREDICT_EDGE_BUDGET
    for config in (SMALL, HOMOGENEOUS, NO_INVERSE):
        graphs, _ = mixed_batch(config, 5)
        graphs += [random_debate_graph(100 + i, f"r{i}", n_reviewer_opinions=(6, 12),
                                       n_author_opinions=(3, 6)) for i in range(40)]
        graphs.insert(20, big)
        if config.homogeneous:
            graphs = [apply_ablation(g, AblationMode.HOMOGENEOUS) for g in graphs]
        embs = [embeddings_for(g, config.input_dim, i) for i, g in enumerate(graphs)]
        params = init_params(config, 5)

        chunks = edge_chunks(graphs)
        assert [i for c in chunks for i in range(len(graphs))[c]] == list(range(len(graphs)))
        assert len(chunks) >= 4 and any(c.stop - c.start > 1 for c in chunks)
        for c in chunks:
            assert c.stop - c.start == 1 or sum(len(g.edges) for g in graphs[c]) \
                <= PREDICT_EDGE_BUDGET
        assert slice(20, 21) in chunks  # the big graph, alone

        probs = np.concatenate([predict_batch(graphs[c], embs[c], params, config)
                                for c in chunks])
        examples = [GraphExample(g, emb, "accept") for g, emb in zip(graphs, embs)]
        labels = predict_label_indices(examples, params, config)
        for g, emb, p, label in zip(graphs, embs, probs, labels):
            alone, _ = predict(g, emb, params, config)
            assert label == int(np.argmax(alone)) == int(np.argmax(p))
            np.testing.assert_allclose(p, alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(p, dense_forward(g, emb, params, config),
                                       rtol=0, atol=1e-10)


def test_no_grad_forward_peak_memory_per_edge():
    config = ModelConfig(input_dim=64, hidden_dim=64, num_heads=4, num_layers=2,
                         ffn_hidden=64, seed=0)
    examples = generate_rule_dataset(6, seed=8, input_dim=64, n_opinions=(36, 36))
    graphs, embs = [ex.graph for ex in examples], [ex.embeddings for ex in examples]
    n_edges = sum(len(g.edges) for g in graphs)
    assert n_edges >= 1000
    params = init_params(config, 0)
    index = build_graph_index(graphs, config)
    predict_batch(graphs, embs, params, config, index)  # builds the index's cached groups
    tracemalloc.start()
    try:
        predict_batch(graphs, embs, params, config, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # making all (E, d) projections before consuming them held about 3.7 KB
    assert peak / n_edges < 2500, f"{peak / n_edges:.0f} bytes per edge"

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import dense_forward, dense_trace, permute_graph, reference_graph_index
from reviewgraph import autodiff as ad
from reviewgraph import model as modelmod
from reviewgraph.graph import (DECISION_LABELS, AblationMode, DebateGraph, apply_ablation,
                               assemble, skeleton)
from reviewgraph.model import (
    PREDICT_EDGE_BUDGET,
    DimMismatch,
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
    node_features,
    node_type_keys,
    param_layout,
    predict,
    predict_batch,
    relation_keys,
)
from reviewgraph.synth import (
    embeddings_for,
    generate_rule_dataset,
    random_debate_graph,
    unit_embedding,
)
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


@pytest.mark.parametrize("ablation", ["no_author", AblationMode.FULL, ""])
def test_config_rejects_an_unknown_ablation(ablation):
    with pytest.raises(ModelError, match="unknown ablation"):
        ModelConfig(input_dim=4, ablation=ablation)


def test_config_homogeneous_follows_the_ablation_and_cannot_be_set():
    assert [ModelConfig(input_dim=4, ablation=m.value).homogeneous for m in AblationMode] == \
        [m is AblationMode.HOMOGENEOUS for m in AblationMode]
    for field in ("homogeneous", "num_classes"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            ModelConfig(input_dim=4, **{field: 2})
    with pytest.raises(AttributeError):
        SMALL.homogeneous = True
    # the head has one column per decision label
    assert dict((name, shape) for name, shape, _init in param_layout(SMALL))["head/b2"] == \
        (len(DECISION_LABELS),)


def test_config_scale_divisor():
    assert SMALL.scale_divisor == np.sqrt(8)
    alt = dataclasses.replace(SMALL, attention_scale="sqrt_dh")
    assert alt.scale_divisor == np.sqrt(4)


def test_relation_keys_counts():
    assert len(relation_keys(SMALL)) == 26
    no_inv = dataclasses.replace(SMALL, use_inverse_edges=False)
    assert len(relation_keys(no_inv)) == 13
    homog = dataclasses.replace(SMALL, ablation="homogeneous")
    assert relation_keys(homog) == ["connected"]
    assert node_type_keys(homog) == ["node"]


def test_meta_key_orients_inverse_relations():
    assert meta_key(SMALL, "has_aspect") == "title__has_aspect__evaluation_dimension"
    assert meta_key(SMALL, "accept__inv") == "reviewer_opinion__accept__author_opinion__inv"


def test_param_count_homogeneous_vs_heterogeneous():
    het = init_params(SMALL, 0)
    homog = init_params(dataclasses.replace(SMALL, ablation="homogeneous"), 0)
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
    out["head/w2"] = xavier(config.ffn_hidden, len(DECISION_LABELS))
    out["head/b2"] = np.zeros(len(DECISION_LABELS))
    return out


@pytest.mark.parametrize("ablation", ["full", "homogeneous"], ids=["typed", "homogeneous"])
def test_init_params_fills_one_vector_in_layout_order(ablation):
    config = dataclasses.replace(SMALL, ablation=ablation)
    params = init_params(config, 7)
    layout = param_layout(config)
    assert [(name, t.value.shape) for name, t in params.items()] == \
        [(name, shape) for name, shape, _init in layout]
    assert all(np.shares_memory(t.value, params.flat) for _, t in params.items())
    reference = reference_init_params(config, 7)
    assert [name for name, _ in params.items()] == list(reference)
    assert params.flat.tobytes() == np.concatenate(
        [value.ravel() for value in reference.values()]).tobytes()


def test_featurize_checks_embeddings():
    g, emb, params = make_case(0)
    for bad in (emb[1:], emb[:, 1:], emb.ravel(), emb[None]):
        with pytest.raises(DimMismatch, match=f"embedding matrix of {g.graph_id} has shape"):
            featurize(g, bad, params, SMALL)


def test_embeddings_for_gives_each_node_its_text_row_in_node_id_order():
    g = random_debate_graph(4, "case-4")
    shuffled = DebateGraph(g.graph_id, g.nodes[::-1], g.edges, g.label)
    want = np.stack([unit_embedding(n.text, 5, 9) for n in sorted(g.nodes, key=lambda n: n.id)])
    for graph in (g, shuffled):
        got = embeddings_for(graph, 5, 9)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _embed_node_by_node(graphs, embeddings, config, index):
    """The input rows as a per-node loop fills them: row i of a graph's
    matrix to node i, once the matrix's shape is checked."""
    emb = np.empty((index.n_nodes, config.input_dim), dtype=np.float64)
    for g, rows, offset in zip(graphs, embeddings, index.node_offsets.tolist()):
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.shape != (g.num_nodes, config.input_dim):
            raise DimMismatch(f"embedding matrix of {g.graph_id} has shape {matrix.shape}, "
                              f"expected ({g.num_nodes}, {config.input_dim})")
        for n in g.nodes:
            emb[offset + n.id] = matrix[n.id]
    return emb


def _resized(matrix, extra):
    """``matrix`` with ``extra`` rows more (or, if negative, fewer)."""
    return np.concatenate([matrix, matrix[:extra]]) if extra > 0 else matrix[:len(matrix) + extra]


def _ragged(m, i, row):
    """The rows of ``m`` as a list, with row ``i`` replaced by ``row``."""
    return [row if j == i else r for j, r in enumerate(m)]


#: Edits of a graph's embedding matrix: matrices of the wrong shape, ragged
#: rows, a row of text; and, last, edits both readers accept.
EMBEDDING_EDITS = {
    "matrix-extra-row": lambda m, d: _resized(m, 1),
    "matrix-missing-row": lambda m, d: _resized(m, -1),
    "missing": lambda m, d: np.delete(m, 3, axis=0),
    "matrix-wide": lambda m, d: np.pad(m, ((0, 0), (0, 1))),
    "one-wide": lambda m, d: m[:, :1],
    "matrix-flat": lambda m, d: m.ravel(),
    "scalar": lambda m, d: 0.5,
    "row-matrix": lambda m, d: m[None],
    "short": lambda m, d: _ragged(m, 3, np.zeros(d - 1)),
    "column": lambda m, d: _ragged(m, 0, np.zeros((d, 1))),
    "text": lambda m, d: _ragged(m, 2, ["x"] * d),
    "ints": lambda m, d: np.arange(m.size).reshape(m.shape),
    "matrix": lambda m, d: m,
    "matrix-float32": lambda m, d: m.astype(np.float32),
    "lists": lambda m, d: list(m),
    "nested-lists": lambda m, d: m.tolist(),
}


@pytest.mark.parametrize("edited", [[1], [0, 1, 2]], ids=["second-graph", "every-graph"])
@pytest.mark.parametrize("edit", EMBEDDING_EDITS.values(), ids=EMBEDDING_EDITS.keys())
def test_block_embed_gives_the_rows_and_errors_of_the_node_loop(edit, edited):
    graphs, embeddings = [], []
    for seed in range(3):
        g, emb, params = make_case(seed)
        graphs.append(g)
        embeddings.append(edit(emb, SMALL.input_dim) if seed in edited else emb)
    index = build_graph_index(graphs, SMALL)
    try:
        want = _embed_node_by_node(graphs, embeddings, SMALL, index)
    except Exception as exc:  # noqa: BLE001 - whatever the loop raised, the block must too
        with pytest.raises(type(exc)) as info:
            modelmod._embed(graphs, embeddings, params, SMALL, index)
        assert str(info.value) == str(exc)
        return
    got = modelmod._embed(graphs, embeddings, params, SMALL, index)
    # _embed returns the type-major layout; the loop fills node-id order
    expected = ad.block_matmul(ad.Tensor(want[index.node_order]), params.family("w_in"),
                               index.type_bounds)
    assert got.value.tobytes() == expected.value.tobytes()


def test_node_features_passes_a_matrix_through_and_names_the_graph_of_a_wrong_one():
    g, emb, _params = make_case(0)
    assert node_features(g, emb, SMALL.input_dim) is emb
    for extra in (1, -1):
        with pytest.raises(DimMismatch, match=f"embedding matrix of {g.graph_id} has shape"):
            node_features(g, _resized(emb, extra), SMALL.input_dim)


def test_predict_matches_dense_oracle():
    for seed in range(10):
        g, emb, params = make_case(
            seed, n_reviewer_opinions=(2, 4), n_author_opinions=(1, 3)
        )
        probs, _ = predict(g, emb, params, SMALL)
        expected = dense_forward(g, emb, params, SMALL)
        np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_predict_matches_dense_oracle_homogeneous():
    config = dataclasses.replace(SMALL, ablation="homogeneous")
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
    few = assemble("few", *skeleton("A title"))
    many = random_debate_graph(1, "many", n_reviewer_opinions=(8, 9), n_author_opinions=(3, 4))
    counts = set()
    for heads in (1, 4):
        config = dataclasses.replace(SMALL, num_heads=heads)
        params = init_params(config, 0)
        for g in (few, many):
            n_rel = np.count_nonzero(np.diff(build_graph_index([g], config).rel_bounds))
            assert n_rel == 2 if g is few else n_rel >= 8
            emb = embeddings_for(g, config.input_dim, 0)
            counts.add(tape_ops(forward_loss([g], [emb], params, config, [0])))
    assert len(counts) == 1, counts


def test_parameters_a_graph_lacks_get_no_gradient():
    g = assemble("few", *skeleton("A title"))
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


def test_a_train_step_has_one_tape_leaf_per_weight_family_and_no_stack():
    """A 32-graph batch: each of two layers reads eight families (key, query,
    msg, w_attn, w_msg, mu, agg, rescale), and the input projection family
    and the head's four tensors make 21 leaves."""
    batch = generate_rule_dataset(32, seed=4, input_dim=SMALL.input_dim)
    loss = forward_loss([ex.graph for ex in batch], [ex.embeddings for ex in batch],
                        init_params(SMALL, 0), SMALL, [ex.label_index for ex in batch])
    seen, stack, leaves, ops = set(), [loss], 0, set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            leaves += isinstance(t, ad.Param)
            if t._backward_fn is not None:
                ops.add(t._backward_fn.__qualname__.partition(".")[0])
            stack.extend(t._parents)
    assert leaves == 21
    assert "block_matmul" in ops and "stack" not in ops and not hasattr(ad, "stack")


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


HOMOGENEOUS = dataclasses.replace(SMALL, ablation="homogeneous")
NO_INVERSE = dataclasses.replace(SMALL, use_inverse_edges=False)


def index_cases():
    """(graph, config) pairs: rule graphs under every ablation mode, the
    homogeneous config and no inverse edges."""
    graphs = [ex.graph for ex in generate_rule_dataset(4, seed=2, input_dim=4)]
    graphs.append(assemble("minimal", *skeleton("A title")))
    for g in graphs:
        for mode in AblationMode:
            config = HOMOGENEOUS if mode == AblationMode.HOMOGENEOUS else SMALL
            yield apply_ablation(g, mode), config
        yield g, HOMOGENEOUS
        yield g, NO_INVERSE


def pool_matrix(index):
    """The (graph * types + type, node row) averaging matrix that the
    index's pooling gather and scales make."""
    pool = np.zeros((len(index.pool_scale), index.n_nodes))
    slots = index.pool_slots.idx
    pool[slots, index.node_order] = index.pool_scale[slots]
    return pool


def test_graph_index_matches_loop_reference():
    for g, config in index_cases():
        index = build_graph_index([g], config)
        want = reference_graph_index(g, config)
        assert index.n_nodes == want["n_nodes"]
        assert node_type_keys(config) == want["type_keys"]
        assert relation_keys(config) == want["rel_keys"]
        assert index.ordered_edges == want["ordered_edges"]
        for name in ("node_type", "src", "dst", "edge_rel", "segments"):
            np.testing.assert_array_equal(getattr(index, name), want[name], err_msg=name)
        np.testing.assert_array_equal(index.dst[index.segments[:, 0]], want["seg_targets"])
        np.testing.assert_array_equal(pool_matrix(index), want["pool"])


def mixed_batch(config, seed):
    """Graphs of different sizes, some lacking the title or dimension nodes."""
    graphs = [
        random_debate_graph(seed, "a", n_reviewer_opinions=(2, 3), n_author_opinions=(1, 2)),
        apply_ablation(random_debate_graph(seed + 1, "b"), AblationMode.NO_TITLE),
        random_debate_graph(seed + 2, "c", n_reviewer_opinions=(6, 8), n_author_opinions=(3, 4)),
        apply_ablation(random_debate_graph(seed + 3, "d"), AblationMode.NO_EVAL),
        assemble("e", *skeleton("A title")),
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


def test_edgeless_graph_matches_dense_oracle_alone_and_batched():
    """The minimal graph under no_title has four nodes and no edges; alone,
    every layer passes its states through unchanged."""
    edgeless = apply_ablation(assemble("edgeless", *skeleton("A title")), AblationMode.NO_TITLE)
    assert (edgeless.num_nodes, len(edgeless.edges)) == (4, 0)
    for config in (SMALL, HOMOGENEOUS, NO_INVERSE):
        graphs, embs = mixed_batch(config, 7)
        emb = embeddings_for(edgeless, config.input_dim, 7)
        params = init_params(config, 7)
        want = dense_forward(edgeless, emb, params, config)
        alone, _ = predict(edgeless, emb, params, config)
        np.testing.assert_allclose(alone, want, rtol=0, atol=1e-10)
        for p in predict_batch([edgeless, edgeless], [emb, emb], params, config):
            np.testing.assert_allclose(p, want, rtol=0, atol=1e-10)
        probs = predict_batch(graphs[:2] + [edgeless] + graphs[2:],
                              embs[:2] + [emb] + embs[2:], params, config)
        np.testing.assert_allclose(probs[2], want, rtol=0, atol=1e-10)


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


def test_a_recorded_step_builds_each_scatters_bins_once(monkeypatch):
    """A recorded forward and its backward build ``Gather.bins`` once per
    (gather, width) they scatter through: the attention's softmax shares the
    bins of the layers' other scatters by target."""
    batch = generate_rule_dataset(32, seed=4, input_dim=SMALL.input_dim)
    params, built = init_params(SMALL, 0), []
    bins = ad.Gather.bins
    monkeypatch.setattr(ad.Gather, "bins",
                        lambda self, width: built.append((self, width)) or bins(self, width))
    forward_loss([ex.graph for ex in batch], [ex.embeddings for ex in batch],
                 params, SMALL, [ex.label_index for ex in batch]).backward()
    assert len(built) == len(set(built)) == 4


def taped_layer(h, params, layer, config, index, cache):
    """One HGT layer as a chain of tape ops, one per step, as ``model._layer``
    was before it became one op: the reference for the fused layer's bytes."""
    if index.n_edges == 0:
        return h, np.zeros((0, config.num_heads))
    p = f"layer{layer}"
    heads = (index.n_edges, config.num_heads, config.head_dim)

    def projected(name, rows):
        typed = ad.block_matmul(h, params.family(f"{p}/{name}"), index.type_bounds)
        return ad.reshape(ad.rows(typed, rows), heads)

    def by_relation(x, name):
        product = ad.block_matmul(x, params.family(f"{p}/{name}"), index.rel_bounds)
        return ad.rows(product, index.to_target)

    scores = ad.rowdot(by_relation(projected("key", index.src_rows), "w_attn"),
                       projected("query", index.dst_rows))
    mu = ad.rows(params.family(f"{p}/mu"), index.edge_rel)
    scores = ad.scale(ad.colscale(scores, mu), 1.0 / config.scale_divisor)
    attn = ad.segment_softmax(scores, index.dst_rows)

    messages = ad.colscale(by_relation(projected("msg", index.src_rows), "w_msg"), attn)
    h_tilde = ad.segment_sum(messages, index.dst_rows)
    h_tilde = ad.reshape(h_tilde, (index.n_nodes, config.hidden_dim))
    rescale = ad.rows(params.family(f"{p}/rescale"), index.type_ids)
    update = ad.block_matmul(ad.colscale(h_tilde, rescale), params.family(f"{p}/agg"),
                             index.type_bounds)
    return ad.add(update, h), attn.value


FUSED_CASES = {
    "small": SMALL,
    "homogeneous": HOMOGENEOUS,
    "no-inverse": NO_INVERSE,
    "one-head": dataclasses.replace(SMALL, num_heads=1),
    "four-heads": dataclasses.replace(SMALL, num_heads=4),
    "hidden-64": dataclasses.replace(SMALL, hidden_dim=64, num_heads=4, ffn_hidden=16),
}


@pytest.mark.parametrize("config", FUSED_CASES.values(), ids=FUSED_CASES.keys())
def test_fused_layer_gives_the_bytes_of_the_taped_layer(config, monkeypatch):
    """Through the whole forward, since with h as a leaf the tape adds h's
    gradient terms in another order: one layer op gives the probabilities
    and every gradient of the op-by-op tape, bit for bit, in a training
    step and in a prediction. The batch's middle graph has no edges."""
    edgeless = apply_ablation(assemble("edgeless", *skeleton("A title")), AblationMode.NO_TITLE)
    graphs, _ = mixed_batch(config, 4)
    graphs += [ex.graph for ex in generate_rule_dataset(3, seed=4, input_dim=config.input_dim)]
    if config.homogeneous:
        graphs = [apply_ablation(g, AblationMode.HOMOGENEOUS) for g in graphs]
    graphs.insert(len(graphs) // 2, edgeless)
    embs = [embeddings_for(g, config.input_dim, i) for i, g in enumerate(graphs)]
    labels = [i % 2 for i in range(len(graphs))]
    params = init_params(config, 2)

    def step():
        params.zero_grad()
        loss = forward_loss(graphs, embs, params, config, labels)
        probs = loss._parents[0].value  # the probabilities the loss is taken of
        loss.backward()
        return (probs.tobytes(), params.grad.tobytes(), params.present.tolist(),
                predict_batch(graphs, embs, params, config).tobytes())

    fused = step()
    monkeypatch.setattr(modelmod, "_layer", taped_layer)
    assert step() == fused


def test_the_interleaved_weight_views_are_the_families():
    """The fused layer reads the key, query and message families of a layer
    as one (types, 3, d, d) view, and w_attn and w_msg as one (relations, 2,
    dh, dh) view, as ``param_layout`` lays them out."""
    for config in (SMALL, HOMOGENEOUS):
        params = init_params(config, 1)
        kinds = [params.family(f"layer1/{kind}") for kind in modelmod._LAYER_KINDS]
        for joint in (kinds[:3], kinds[3:5]):
            view = joint[0].interleaved(len(joint))
            for i, family in enumerate(joint):
                np.testing.assert_array_equal(view[:, i], family.value)
            assert np.shares_memory(view, params.flat)


def index_batches():
    """(graphs, config) batches: the index cases of each config, and mixed
    batches, each with an edgeless graph at a different position."""
    edgeless = apply_ablation(assemble("edgeless", *skeleton("A title")), AblationMode.NO_TITLE)
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
        assert index.n_nodes == node_off[-1]
        np.testing.assert_array_equal(index.node_offsets, node_off)
        assert index.ordered_edges == [e for w in wants for e in w["ordered_edges"]]

        def shifted(name, offsets=node_off):
            return np.concatenate([np.asarray(w[name], dtype=int) + off
                                   for w, off in zip(wants, offsets)])

        # a parameter row is the same in every graph, so the batch keeps each graph's numbers
        for name in ("node_type", "edge_rel"):
            np.testing.assert_array_equal(getattr(index, name), shifted(name, [0] * len(wants)),
                                          err_msg=name)
        for name in ("src", "dst"):
            np.testing.assert_array_equal(getattr(index, name), shifted(name), err_msg=name)
        np.testing.assert_array_equal(index.segments, shifted("segments", edge_off))
        np.testing.assert_array_equal(index.dst[index.segments[:, 0]], shifted("seg_targets"))

        n_slots = len(node_type_keys(config))
        want_pool = np.zeros((n_slots * len(graphs), index.n_nodes))
        for b, w in enumerate(wants):
            want_pool[b * n_slots:(b + 1) * n_slots, node_off[b]:node_off[b + 1]] = w["pool"]
        np.testing.assert_array_equal(pool_matrix(index), want_pool)


def reference_layout(graphs, config):
    """The type-major node layout and the relation-major edge order of a
    batch, by per-node and per-edge loops over the per-graph references."""
    wants = [reference_graph_index(g, config) for g in graphs]
    # every type and relation has its block, empty where the batch lacks it
    type_keys, rel_keys = wants[0]["type_keys"], wants[0]["rel_keys"]
    nodes, edges, offset = [], [], 0  # (type, graph, id, row, pool slot); (relation, edge)
    for b, w in enumerate(wants):
        for i, t in enumerate(w["node_type"]):
            nodes.append((t, b, i, offset + i, b * len(type_keys) + t))
        for r in w["edge_rel"]:
            edges.append((r, len(edges)))
        offset += w["n_nodes"]
    nodes.sort()
    edges.sort()
    node_order = [row for _t, _b, _i, row, _slot in nodes]
    pool_segments, pool_targets = [], []
    for pos, (_t, _b, _i, _row, slot) in enumerate(nodes):
        if pos and slot == pool_targets[-1]:
            pool_segments[-1][1] = pos + 1
        else:
            pool_segments.append([pos, pos + 1])
            pool_targets.append(slot)
    return {
        "node_order": node_order,
        "node_pos": [node_order.index(row) for row in range(offset)],
        "type_bounds": [sum(t < j for t, *_ in nodes) for j in range(len(type_keys) + 1)],
        "pool_slots": [slot for *_, slot in nodes],
        "pool_runs": np.array(pool_segments, dtype=int).reshape(-1, 2),
        "edge_order": [e for _r, e in edges],
        "rel_bounds": [sum(r < j for r, _e in edges) for j in range(len(rel_keys) + 1)],
        "type_ids": [t for t, *_ in nodes],
    }


def layout_batches():
    """Single graphs of every index case, the mixed batches, and an
    edgeless graph alone, under the typed, homogeneous and no-inverse configs."""
    edgeless = apply_ablation(assemble("edgeless", *skeleton("A title")), AblationMode.NO_TITLE)
    for g, config in index_cases():
        yield [g], config
    for config in (SMALL, HOMOGENEOUS, NO_INVERSE):
        yield [edgeless], config
    yield from index_batches()


def test_layout_fields_match_loop_reference():
    for graphs, config in layout_batches():
        index = build_graph_index(graphs, config)
        want = reference_layout(graphs, config)
        for name in ("node_order", "node_pos", "edge_order"):
            np.testing.assert_array_equal(getattr(index, name), want[name], err_msg=name)
        # each (type, graph) pooling slot is one run of the layout, summed in row order
        np.testing.assert_array_equal(index.pool_slots.idx, want["pool_slots"])
        starts, lengths = index.pool_slots.runs()
        np.testing.assert_array_equal(np.stack([starts, starts + lengths], axis=1),
                                      want["pool_runs"])
        assert index.type_bounds == want["type_bounds"]
        assert index.rel_bounds == want["rel_bounds"]
        np.testing.assert_array_equal(index.type_ids, want["type_ids"])
        if index.n_edges == 0:
            continue
        node_pos, edge_order = want["node_pos"], want["edge_order"]
        np.testing.assert_array_equal(index.src_rows.idx,
                                      [node_pos[index.src[e]] for e in edge_order])
        np.testing.assert_array_equal(index.dst_rows.idx, [node_pos[v] for v in index.dst])
        np.testing.assert_array_equal(index.to_target,
                                      [edge_order.index(e) for e in range(index.n_edges)])

        # each source's gradient sums its edges in target order, whatever the layout
        g = np.random.default_rng(index.n_edges).standard_normal((index.n_edges, 3))
        by_target = ad.Gather([node_pos[v] for v in index.src], index.n_nodes).scatter(g)
        assert index.src_rows.scatter(g[edge_order]).tobytes() == by_target.tobytes()


def oracle_attention(weights, edges, heads):
    """The (E, heads) attention of one ``dense_trace`` layer, in the order of edges."""
    position = {e: i for i, e in enumerate(edges)}  # a repeated edge gets the same weights
    out = np.full((len(edges), heads), np.nan)
    for (_target, head), (incoming, attn) in weights.items():
        for e, a in zip(incoming, attn):
            out[position[e], head] = a
    return out


def test_interleaved_node_ids_match_the_dense_oracle_at_every_boundary():
    """Relabelled node ids interleave the types, so node-id order is not the
    type-major layout: every boundary must still answer in node-id order and
    the index's edge order."""
    rng = np.random.default_rng(11)
    for config in (SMALL, HOMOGENEOUS, NO_INVERSE):
        for seed in range(3):
            g, emb, _ = make_case(seed, config)
            if config.homogeneous:
                g = apply_ablation(g, AblationMode.HOMOGENEOUS)
            g, emb = permute_graph(g, emb, rng.permutation(g.num_nodes))
            types = [n.node_type for n in sorted(g.nodes, key=lambda n: n.id)]
            assert sum(a != b for a, b in zip(types, types[1:])) > len(set(types))
            params = init_params(config, seed)
            want = dense_trace(g, emb, params, config)
            index = build_graph_index([g], config)
            assert not np.array_equal(index.node_order, np.arange(index.n_nodes)) \
                or config.homogeneous

            h = featurize(g, emb, params, config, index)
            np.testing.assert_allclose(h.value, want["layers"][0], rtol=0, atol=1e-12)
            for layer in range(config.num_layers):
                attn, _ = hgt_attention(h, g, params, layer, config, index)
                np.testing.assert_allclose(
                    attn, oracle_attention(want["attention"][layer], index.ordered_edges,
                                           config.num_heads), rtol=0, atol=1e-12)
                h = hgt_layer(h, g, params, layer, config, index)
                np.testing.assert_allclose(h.value, want["layers"][layer + 1],
                                           rtol=0, atol=1e-10)

            probs, trace = predict(g, emb, params, config)
            for got, layer_want in zip(trace.layer_outputs, want["layers"], strict=True):
                np.testing.assert_allclose(got, layer_want, rtol=0, atol=1e-10)
            for got, attn_want in zip(trace.attention, want["attention"], strict=True):
                np.testing.assert_allclose(
                    got, oracle_attention(attn_want, index.ordered_edges, config.num_heads),
                    rtol=0, atol=1e-12)
            assert set(trace.pooled) == set(want["pooled"])
            for key, vector in want["pooled"].items():
                np.testing.assert_allclose(trace.pooled[key], vector, rtol=0, atol=1e-10)
            np.testing.assert_allclose(probs, want["probs"], rtol=0, atol=1e-10)


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
    # making all (E, d) projections before consuming them held about 3.7 KB;
    # a fresh array for each relation product's take to target order, 1,823 bytes
    assert peak / n_edges < 1663, f"{peak / n_edges:.0f} bytes per edge"


def test_train_step_peak_memory_per_edge():
    """One training step, forward and backward, holds each layer's (E, d)
    arrays only until its backward has used them."""
    config = ModelConfig(input_dim=64, hidden_dim=64, num_heads=4, num_layers=2,
                         ffn_hidden=64, seed=0)
    examples = generate_rule_dataset(6, seed=8, input_dim=64, n_opinions=(36, 36))
    graphs, embs = [ex.graph for ex in examples], [ex.embeddings for ex in examples]
    labels = [ex.label_index for ex in examples]
    n_edges = sum(len(g.edges) for g in graphs)
    assert n_edges >= 1000
    params = init_params(config, 0)
    index = build_graph_index(graphs, config)
    forward_loss(graphs, embs, params, config, labels, index).backward()  # warms the index
    params.zero_grad()
    tracemalloc.start()
    try:
        forward_loss(graphs, embs, params, config, labels, index).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1,152 edges: a tape of one op per layer step read 10,356 bytes per edge
    # and the fused layer 9,875; the bound is the first plus 10%
    assert peak / n_edges < 11_392, f"{peak / n_edges:.0f} bytes per edge"

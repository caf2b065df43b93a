import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewgraph import autodiff as ad
from reviewgraph.autodiff import (
    BadLabel,
    NumericsError,
    ParamStore,
    ShapeMismatch,
    Tensor,
    grad_check,
    no_grad,
)

rng = np.random.default_rng(99)


def finite_diff(f, x, eps=1e-6):
    """Central-difference gradient of a scalar-valued f at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def scalar_loss_through(op_chain, x0):
    """Backward() of a scalar pipeline in x vs finite differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    out = op_chain(x)
    assert out.value.ndim == 0 or out.value.size == 1
    out.backward()
    analytic = x.grad.copy()

    def f(arr):
        with no_grad():
            return float(op_chain(Tensor(arr)).value.reshape(-1)[0])

    numeric = finite_diff(f, x0.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def reduce_to_scalar(t):
    """Mean over everything, built from library ops only."""
    if t.value.ndim == 1:
        n = t.value.shape[0]
        return ad.scale(ad.matmul(t, np.ones((n, 1))), 1.0 / n)
    m = ad.mean_rows(t)
    n = m.value.shape[0]
    return ad.scale(ad.matmul(m, np.ones((n, 1))), 1.0 / n)


shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@settings(max_examples=25, deadline=None)
@given(shapes, st.integers(0, 10**6))
def test_matmul_gradient(shape, seed):
    r = np.random.default_rng(seed)
    n, k = shape
    b = r.standard_normal((k, 3))
    scalar_loss_through(lambda x: reduce_to_scalar(ad.matmul(x, b)),
                        r.standard_normal((n, k)))


def as_matrix(t):
    """Reshape a tensor of any rank to a matrix for reduce_to_scalar."""
    return ad.reshape(t, (t.value.shape[0], -1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_matmul_3d_gradient_shared_right_operand(seed):
    r = np.random.default_rng(seed)
    a0 = r.standard_normal((4, 2, 3))
    b0 = r.standard_normal((3, 5))
    scalar_loss_through(lambda x: reduce_to_scalar(as_matrix(ad.matmul(x, Tensor(b0)))), a0)
    scalar_loss_through(lambda w: reduce_to_scalar(as_matrix(ad.matmul(Tensor(a0), w))), b0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_matmul_3d_gradient_batched_right_operand(seed):
    r = np.random.default_rng(seed)
    a0 = r.standard_normal((4, 2, 3))
    b0 = r.standard_normal((4, 3, 5))
    scalar_loss_through(lambda x: reduce_to_scalar(as_matrix(ad.matmul(x, Tensor(b0)))), a0)
    scalar_loss_through(lambda w: reduce_to_scalar(as_matrix(ad.matmul(Tensor(a0), w))), b0)


def test_matmul_batched_requires_matching_batch():
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.ones((3, 2, 4))), Tensor(np.ones((2, 4, 5))))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_reshape_gradient(seed):
    r = np.random.default_rng(seed)
    weights = Tensor(r.standard_normal((6, 4)))
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.colscale(weights, ad.reshape(x, (6,)))),
        r.standard_normal((2, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_stack_gradient(seed):
    r = np.random.default_rng(seed)
    other = Tensor(r.standard_normal((2, 3)))
    w = Tensor(r.standard_normal((3, 2)))
    # x is stacked twice, so its gradient accumulates from both slots
    scalar_loss_through(
        lambda x: reduce_to_scalar(as_matrix(ad.colscale(ad.stack([x, other, x]), w))),
        r.standard_normal((2, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(shapes, st.integers(0, 10**6))
def test_add_gradient_with_broadcast(shape, seed):
    r = np.random.default_rng(seed)
    n, k = shape
    bias = r.standard_normal(k)
    scalar_loss_through(lambda x: reduce_to_scalar(ad.add(x, Tensor(bias))),
                        r.standard_normal((n, k)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_add_gradient_flows_to_bias(seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((4, 3))
    scalar_loss_through(lambda b: reduce_to_scalar(ad.add(Tensor(x), b)),
                        r.standard_normal(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_relu_gradient(seed):
    r = np.random.default_rng(seed)
    # keep values away from the kink, where the subgradient is ambiguous
    x0 = r.standard_normal((4, 4))
    x0[np.abs(x0) < 1e-3] = 0.5
    scalar_loss_through(lambda x: reduce_to_scalar(ad.relu(x)), x0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_scale_by_learnable_scalar(seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((3, 3))
    scalar_loss_through(lambda c: reduce_to_scalar(ad.scale(Tensor(x), c)),
                        np.asarray(r.standard_normal()))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_concat_gradient(seed):
    r = np.random.default_rng(seed)
    other = Tensor(r.standard_normal((2, 3)))
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.concat([x, other], axis=0)),
        r.standard_normal((3, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_rows_gather_with_repeats(seed):
    r = np.random.default_rng(seed)
    idx = np.array([0, 2, 2, 1, 0])
    scalar_loss_through(lambda x: reduce_to_scalar(ad.rows(x, idx)),
                        r.standard_normal((3, 4)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_place_rows_scatter(seed):
    r = np.random.default_rng(seed)
    positions = np.array([4, 0, 2])
    scalar_loss_through(lambda x: reduce_to_scalar(ad.place_rows(x, positions, 6)),
                        r.standard_normal((3, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_slice_cols_gradient(seed):
    r = np.random.default_rng(seed)
    scalar_loss_through(lambda x: reduce_to_scalar(ad.slice_cols(x, 1, 3)),
                        r.standard_normal((4, 5)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_rowdot_gradient(seed):
    r = np.random.default_rng(seed)
    b = Tensor(r.standard_normal((4, 3)))
    scalar_loss_through(lambda x: reduce_to_scalar(ad.rowdot(x, b)),
                        r.standard_normal((4, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_colscale_gradient_both_sides(seed):
    r = np.random.default_rng(seed)
    w = Tensor(r.standard_normal(4))
    scalar_loss_through(lambda x: reduce_to_scalar(ad.colscale(x, w)),
                        r.standard_normal((4, 3)))
    x = Tensor(r.standard_normal((4, 3)))
    scalar_loss_through(lambda v: reduce_to_scalar(ad.colscale(x, v)),
                        r.standard_normal(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_rowdot_3d_gradient(seed):
    r = np.random.default_rng(seed)
    b = Tensor(r.standard_normal((4, 2, 3)))
    scalar_loss_through(lambda x: reduce_to_scalar(ad.rowdot(x, b)),
                        r.standard_normal((4, 2, 3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_colscale_3d_gradient_both_sides(seed):
    r = np.random.default_rng(seed)
    w = Tensor(r.standard_normal((4, 2)))
    scalar_loss_through(lambda x: reduce_to_scalar(as_matrix(ad.colscale(x, w))),
                        r.standard_normal((4, 2, 3)))
    x = Tensor(r.standard_normal((4, 2, 3)))
    scalar_loss_through(lambda v: reduce_to_scalar(as_matrix(ad.colscale(x, v))),
                        r.standard_normal((4, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_segment_softmax_gradient(seed):
    r = np.random.default_rng(seed)
    segments = [(0, 3), (3, 4), (4, 7)]
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.segment_softmax(x, segments)),
        r.standard_normal(7),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_segment_softmax_gradient_per_column(seed):
    r = np.random.default_rng(seed)
    segments = [(0, 3), (3, 4), (4, 7)]
    weights = Tensor(r.standard_normal((7, 2)))
    x0 = r.standard_normal((7, 2))
    # weight the outputs: a plain sum is constant per segment and column
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.rowdot(ad.segment_softmax(x, segments), weights)),
        x0,
    )
    out = ad.segment_softmax(Tensor(x0), segments).value
    for start, stop in segments:
        np.testing.assert_allclose(out[start:stop].sum(axis=0), 1.0, atol=1e-12)


def test_segments_must_tile_the_input():
    x = Tensor(np.zeros(5))
    for segments in ([(0, 2), (3, 5)], [(0, 2), (2, 4)], [(0, 0), (0, 5)]):
        with pytest.raises(ShapeMismatch):
            ad.segment_softmax(x, segments)


def test_segment_softmax_sums_to_one():
    x = Tensor(rng.standard_normal(9))
    segments = [(0, 4), (4, 6), (6, 9)]
    out = ad.segment_softmax(x, segments).value
    for start, stop in segments:
        assert abs(out[start:stop].sum() - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_segment_sum_gradient(seed):
    r = np.random.default_rng(seed)
    segments = [(0, 2), (2, 5)]
    targets = np.array([3, 1])
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.segment_sum(x, segments, targets, 4)),
        r.standard_normal((5, 3)),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_softmax_cross_entropy_gradient(seed, label):
    r = np.random.default_rng(seed)
    scalar_loss_through(
        lambda x: ad.cross_entropy(ad.softmax(x), label),
        r.standard_normal(4),
    )


def test_softmax_handles_large_logits():
    out = ad.softmax(Tensor(np.array([1000.0, 1000.0, -1000.0]))).value
    assert np.isfinite(out).all()
    assert abs(out.sum() - 1.0) < 1e-12


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(BadLabel):
        ad.cross_entropy(Tensor(np.array([0.5, 0.5])), 2)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_gradients_accumulate_across_reuse():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = ad.add(x, x)  # dy/dx = 2
    loss = ad.matmul(y, np.ones((2, 1)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_no_grad_skips_tape():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = ad.matmul(x, Tensor(np.ones((2, 2))))
    assert out._backward_fn is None
    assert out._parents == ()


def test_param_store_rejects_duplicates():
    store = ParamStore()
    store.add("w", np.ones(2))
    with pytest.raises(NumericsError):
        store.add("w", np.ones(2))


def test_param_store_copy_is_deep():
    store = ParamStore()
    store.add("w", np.ones(2))
    clone = store.copy()
    clone["w"].value[0] = 5.0
    assert store["w"].value[0] == 1.0


def test_param_store_values_are_views_of_one_vector():
    store = ParamStore([("w", (2, 3)), ("s", ()), ("b", (4,))])
    store.flat[:] = np.arange(11.0)
    assert [t.value.shape for _, t in store.items()] == [(2, 3), (), (4,)]
    assert all(np.shares_memory(t.value, store.flat) for _, t in store.items())
    assert store.sizes.tolist() == [6, 1, 4] and store.n_params() == 11
    np.testing.assert_array_equal(store["b"].value, [7.0, 8.0, 9.0, 10.0])
    store["s"].value[...] = -1.0
    assert store.flat[6] == -1.0


def test_param_store_add_keeps_earlier_tensors_and_their_values():
    store = ParamStore()
    w = store.add("w", np.ones((2, 2)))
    b = store.add("b", np.array([3.0, 4.0]))
    assert store["w"] is w and store["b"] is b
    np.testing.assert_array_equal(store.flat, [1.0, 1.0, 1.0, 1.0, 3.0, 4.0])
    assert np.shares_memory(w.value, store.flat) and np.shares_memory(b.value, store.flat)


def test_param_store_copy_is_one_deep_vector():
    store = ParamStore([("w", (2, 3)), ("b", (3,))])
    store.flat[:] = np.arange(9.0)
    clone = store.copy()
    assert clone.names() == store.names()
    assert not np.shares_memory(clone.flat, store.flat)
    assert all(np.shares_memory(t.value, clone.flat) for _, t in clone.items())
    clone.flat[:] = 0.0
    np.testing.assert_array_equal(store.flat, np.arange(9.0))


def test_param_store_rejects_a_vector_of_the_wrong_size():
    with pytest.raises(ShapeMismatch):
        ParamStore([("w", (2, 3))], np.zeros(5))


def test_grad_check_leaves_values_unchanged_through_the_views():
    r = np.random.default_rng(3)
    store = ParamStore([("w1", (3, 4)), ("b1", (4,)), ("w2", (4, 2))])
    store.flat[:] = r.standard_normal(store.flat.size)
    before = store.flat.copy()
    x = r.standard_normal(3)

    def f(p):
        h = ad.relu(ad.add(ad.matmul(Tensor(x), p["w1"]), p["b1"]))
        return ad.cross_entropy(ad.softmax(ad.matmul(h, p["w2"])), 0)

    grad_check(f, store)
    assert store.flat.tobytes() == before.tobytes()
    assert all(np.shares_memory(t.value, store.flat) for _, t in store.items())


def test_grad_check_passes_on_small_mlp():
    store = ParamStore()
    r = np.random.default_rng(0)
    store.add("w1", r.standard_normal((3, 4)))
    store.add("b1", r.standard_normal(4))
    store.add("w2", r.standard_normal((4, 2)))
    x = r.standard_normal(3)

    def f(p):
        h = ad.relu(ad.add(ad.matmul(Tensor(x), p["w1"]), p["b1"]))
        return ad.cross_entropy(ad.softmax(ad.matmul(h, p["w2"])), 0)

    report = grad_check(f, store)
    assert report.max_rel_error < 1e-6, report.worst_param


def test_grad_check_flags_corrupted_backward(monkeypatch):
    """Negative control: breaking one backward rule must be detected."""
    store = ParamStore()
    store.add("w", np.random.default_rng(1).standard_normal((3, 3)))
    x = np.random.default_rng(2).standard_normal(3)

    original = ad.relu

    def bad_relu(t):
        t = ad._tensor(t)
        mask = t.value > 0.0
        out = np.where(mask, t.value, 0.0)

        def backward(g):
            t.accumulate(g * 0.5)  # wrong on purpose

        return ad._op(out, (t,), backward)

    monkeypatch.setattr(ad, "relu", bad_relu)

    def f(p):
        h = ad.relu(ad.matmul(Tensor(x), p["w"]))
        return ad.cross_entropy(ad.softmax(h), 1)

    report = grad_check(f, store)
    monkeypatch.setattr(ad, "relu", original)
    assert report.max_rel_error > 1e-3


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_softmax_cross_entropy_gradient_over_rows(seed):
    r = np.random.default_rng(seed)
    scalar_loss_through(
        lambda x: ad.cross_entropy(ad.softmax(x), [0, 2, 1]),
        r.standard_normal((3, 4)),
    )


@pytest.mark.parametrize("take", [None, np.array([4, 0, 4, 6, 2])], ids=["all-rows", "take"])
@pytest.mark.parametrize("lead", [(7,), (7, 3)], ids=["2d", "edges-heads"])
def test_matmul_by_gradient(lead, take):
    """Ids repeat, and matrix 2 is selected by no row."""
    r = np.random.default_rng(len(lead))
    ids = np.array([0, 3, 0, 1, 3, 3, 0])
    store = ParamStore()
    store.add("x", r.standard_normal(lead + (4,)))
    for j in range(4):
        store.add(f"w{j}", r.standard_normal((4, 5)))
    groups = ad.RowGroups(ids, 4)
    rows = np.arange(len(ids)) if take is None else take
    weights = Tensor(r.standard_normal((len(rows),) + lead[1:] + (5,)))

    def out(p):
        return ad.matmul_by(p["x"], [p[f"w{j}"] for j in range(4)], groups, take)

    expected = np.stack([store["x"].value[i] @ store[f"w{ids[i]}"].value for i in rows])
    np.testing.assert_allclose(out(store).value, expected, rtol=0, atol=1e-12)

    def f(p):
        flat = ad.reshape(ad.rowdot(out(p), weights), (-1,))
        return ad.reshape(ad.matmul(flat, np.ones((flat.value.shape[0], 1))), ())

    report = grad_check(f, store)
    assert report.max_rel_error < 1e-6, report.worst_param
    store.zero_grad()
    f(store).backward()
    assert store["w2"].grad is None


def test_matmul_by_rejects_out_of_range_ids():
    with pytest.raises(ShapeMismatch):
        ad.RowGroups(np.array([0, 2]), 2)


def _tape(loss):
    seen, stack, nodes = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def _backward_keeping_tape(loss):
    """The reverse pass in the same order as Tensor.backward, freeing nothing."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p._needs and id(p) not in seen)
    loss.accumulate(np.ones_like(loss.value))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def test_backward_consumes_the_tape_and_keeps_leaf_grads():
    r = np.random.default_rng(5)
    store = ParamStore()
    for name, shape in (("w1", (3, 4)), ("b1", (4,)), ("w2", (4, 4)), ("w3", (4, 3))):
        store.add(name, r.standard_normal(shape))
    x = Tensor(r.standard_normal((5, 3)))

    def loss_of(p):
        h = ad.relu(ad.add(ad.matmul(x, p["w1"]), p["b1"]))
        h = ad.add(h, ad.matmul(ad.rows(h, [4, 0, 0, 2, 1]), p["w2"]))  # h is used twice
        return ad.cross_entropy(ad.softmax(ad.matmul(h, p["w3"])), [0, 2, 1, 1, 0])

    _backward_keeping_tape(loss_of(store))
    kept = {name: t.grad for name, t in store.items()}
    store.zero_grad()
    loss = loss_of(store)
    interior = [t for t in _tape(loss) if t._backward_fn is not None]
    loss.backward()
    for name, t in store.items():
        np.testing.assert_array_equal(t.grad, kept[name], err_msg=name)
    assert interior and all(
        t.grad is None and t._backward_fn is None and t._parents == () for t in interior)

import math

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
def test_reshape_gradient(seed):
    r = np.random.default_rng(seed)
    weights = Tensor(r.standard_normal((6, 4)))
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.colscale(weights, ad.reshape(x, (6,)))),
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


#: Runs of 3, 1 and 3 rows, adjacent but not sorted by index.
SOFTMAX_RUNS = [2, 2, 2, 0, 1, 1, 1]


def run_slices(idx):
    """The (start, stop) rows of each run of equal values in idx."""
    bounds = [i for i in range(len(idx) + 1) if i in (0, len(idx)) or idx[i] != idx[i - 1]]
    return list(zip(bounds, bounds[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_segment_softmax_gradient(seed):
    r = np.random.default_rng(seed)
    by = ad.Gather(SOFTMAX_RUNS, 3)
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.segment_softmax(x, by)),
        r.standard_normal(7),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_segment_softmax_gradient_per_column(seed):
    r = np.random.default_rng(seed)
    by = ad.Gather(SOFTMAX_RUNS, 3)
    weights = Tensor(r.standard_normal((7, 2)))
    x0 = r.standard_normal((7, 2))
    # weight the outputs: a plain sum is constant per run and column
    scalar_loss_through(
        lambda x: reduce_to_scalar(ad.rowdot(ad.segment_softmax(x, by), weights)),
        x0,
    )
    out = ad.segment_softmax(Tensor(x0), by).value
    for start, stop in run_slices(SOFTMAX_RUNS):
        np.testing.assert_allclose(out[start:stop].sum(axis=0), 1.0, atol=1e-12)


def test_segment_softmax_refuses_equal_indices_that_are_not_adjacent():
    x = Tensor(np.zeros(5))
    for by in (ad.Gather([0, 1, 0, 2, 2], 3), ad.Gather([1, 1, 0, 0, 1], 2),
               ad.Gather([0, 0, 1, 1, 1], 2, order=np.arange(5)), ad.Gather([0, 0, 1, 1], 2)):
        with pytest.raises(ShapeMismatch):
            ad.segment_softmax(x, by)


def test_segment_softmax_groups_once_per_gather(monkeypatch):
    """The runs are found on first use and kept; np.bincount, which each
    call's sums run through, is no probe of the grouping."""
    by = ad.Gather(SOFTMAX_RUNS, 3)
    calls = []
    run_starts = ad._run_starts
    monkeypatch.setattr(ad, "_run_starts", lambda *a: calls.append(1) or run_starts(*a))
    first = ad.segment_softmax(Tensor(rng.standard_normal((7, 2))), by)
    second = ad.segment_softmax(Tensor(first.value), by)
    assert len(calls) == 1 and second.shape == (7, 2)


def test_segment_softmax_sums_to_one():
    x = Tensor(rng.standard_normal(9))
    idx = [5, 5, 5, 5, 0, 0, 3, 3, 3]
    out = ad.segment_softmax(x, ad.Gather(idx, 6)).value
    for start, stop in run_slices(idx):
        assert abs(out[start:stop].sum() - 1.0) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_segment_sum_gradient(seed):
    """Distinct, adjacent-run, repeated, permutation and empty indices."""
    r = np.random.default_rng(seed)
    for idx in ([3, 1], [3, 3, 1, 1, 1], [1, 3, 3, 0, 1], [2, 0, 3, 1], []):
        into = ad.Gather(idx, 4)
        scalar_loss_through(lambda x: reduce_to_scalar(ad.segment_sum(x, into)),
                            r.standard_normal((len(idx), 3)))


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
    with pytest.raises(NumericsError):
        ParamStore([("w", (2,)), ("b", ()), ("w", (2,))])


def test_param_store_copy_is_deep():
    store = ParamStore([("w", (2,))], np.ones(2))
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


def test_param_store_copy_is_one_deep_vector():
    store = ParamStore([("w", (2, 3)), ("b", (3,))])
    store.flat[:] = np.arange(9.0)
    clone = store.copy()
    assert [name for name, _ in clone.items()] == [name for name, _ in store.items()]
    assert clone.flat.tobytes() == store.flat.tobytes()
    assert not np.shares_memory(clone.flat, store.flat)
    assert all(np.shares_memory(t.value, clone.flat) for _, t in clone.items())
    assert all(t.requires_grad and t._needs and t.grad is None and t._parents == ()
               and t._backward_fn is None for _, t in clone.items())
    clone.flat[:] = 0.0
    np.testing.assert_array_equal(store.flat, np.arange(9.0))


def test_param_store_family_is_a_strided_view_with_its_gradient_alongside():
    store = ParamStore([("w/a", (2,)), ("s/a", ()), ("w/b", (2,)), ("s/b", ())])
    store.flat[:] = np.arange(6.0)
    w, s = store.family("w"), store.family("s")
    assert store.family("w") is w
    np.testing.assert_array_equal(w.value, [[0.0, 1.0], [3.0, 4.0]])
    np.testing.assert_array_equal(s.value, [2.0, 5.0])
    assert np.shares_memory(w.value, store.flat)
    s.value[1] = -1.0
    assert store["s/b"].value == -1.0

    # a gather of s's row 1 alone: its member s/a gets no gradient
    ad.matmul(ad.rows(s, ad.Gather([1, 1], 2)), np.ones((2, 1))).backward()
    w.accumulate(np.array([[0.0, 0.0], [1.0, 1.0]]), [1])  # zero outside its rows
    assert store.present.tolist() == [False, False, True, True]
    assert store["w/a"].grad is None and store["s/a"].grad is None
    np.testing.assert_array_equal(store.grad, [0, 0, 0, 1, 1, 2])
    np.testing.assert_array_equal(s.grad, [0.0, 2.0])
    store["s/a"].grad = np.array(7.0)
    np.testing.assert_array_equal(s.grad, [7.0, 2.0])
    store["s/b"].grad = None
    assert store["s/b"].grad is None and store.grad[5] == 0.0
    store.zero_grad()
    assert store.grad is None and w.grad is None and not store.present.any()


@pytest.mark.parametrize("shapes", [
    [("w/a", (2, 2)), ("w/b", (2, 3))],
    [("w/a", (2,)), ("x", (1,)), ("w/b", (2,)), ("w/c", (2,))],
], ids=["shape", "spacing"])
def test_param_store_family_rejects_unequal_shapes_or_spacing(shapes):
    store = ParamStore(shapes)
    with pytest.raises(ShapeMismatch):
        store.family("w")


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
    r = np.random.default_rng(0)
    store = ParamStore([("w1", (3, 4)), ("b1", (4,)), ("w2", (4, 2))], r.standard_normal(24))
    x = r.standard_normal(3)

    def f(p):
        h = ad.relu(ad.add(ad.matmul(Tensor(x), p["w1"]), p["b1"]))
        return ad.cross_entropy(ad.softmax(ad.matmul(h, p["w2"])), 0)

    report = grad_check(f, store)
    assert report.max_rel_error < 1e-6, report.worst_param


def test_grad_check_flags_corrupted_backward(monkeypatch):
    """Negative control: breaking one backward rule must be detected."""
    store = ParamStore([("w", (3, 3))], np.random.default_rng(1).standard_normal(9))
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


@pytest.mark.parametrize("lead", [(7,), (7, 3)], ids=["2d-all-rows", "edges-heads-all-rows"])
def test_block_matmul_gradient(lead):
    """Blocks of 3, 1, 0 and 3 rows: matrix 2's block is empty."""
    r = np.random.default_rng(len(lead))
    bounds = [0, 3, 4, 4, 7]
    ids = np.repeat(np.arange(4), np.diff(bounds))
    shapes = [("x", lead + (4,))] + [(f"w/{j}", (4, 5)) for j in range(4)]
    store = ParamStore(shapes, r.standard_normal(math.prod(lead) * 4 + 4 * 20))
    weights = Tensor(r.standard_normal((len(ids),) + lead[1:] + (5,)))

    def out(p):
        return ad.block_matmul(p["x"], p.family("w"), bounds)

    expected = np.stack([store["x"].value[i] @ store[f"w/{ids[i]}"].value
                         for i in range(len(ids))])
    np.testing.assert_allclose(out(store).value, expected, rtol=0, atol=1e-12)

    def f(p):
        flat = ad.reshape(ad.rowdot(out(p), weights), (-1,))
        return ad.reshape(ad.matmul(flat, np.ones((flat.value.shape[0], 1))), ())

    report = grad_check(f, store)
    assert report.max_rel_error < 1e-6, report.worst_param
    store.zero_grad()
    f(store).backward()
    # the family's gradient reaches the members whose block has rows
    assert store["w/2"].grad is None
    assert store.present.tolist() == [True, True, True, False, True]
    np.testing.assert_array_equal(store.family("w").grad[2], np.zeros((4, 5)))


@pytest.mark.parametrize("bounds", [[0, 3, 7], [0, 3, 4, 6], [1, 3, 4, 7], [0, 4, 3, 7]],
                         ids=["too-few", "short", "late-start", "decreasing"])
def test_block_matmul_rejects_bounds_that_do_not_tile(bounds):
    with pytest.raises(ShapeMismatch):
        ad.block_matmul(Tensor(np.ones((7, 4))), Tensor(np.ones((3, 4, 2))), bounds)


def test_block_matmul_rejects_a_family_that_is_not_three_dimensional():
    with pytest.raises(ShapeMismatch):
        ad.block_matmul(Tensor(np.ones((7, 4))), Tensor(np.ones((4, 2))), [0, 7])


def scatter_add_reference(g, idx, n_rows, order=None):
    """The scatter-add that every sum of a gather makes: ``np.add.at`` on
    zeros, adding the rows in row order, or in ``order`` when one is given."""
    out = np.zeros((n_rows,) + g.shape[1:])
    if order is not None:
        g, idx = g[order], idx[order]
    np.add.at(out, idx, g)
    return out


GATHER_INDICES = {
    "repeated": [3, 1, 3, 0, 3, 1],
    "unsorted": [4, 0, 2, 1],
    "adjacent-runs": [4, 4, 4, 1, 0, 0],
    "permutation": [2, 4, 0, 1, 3],
    "empty": [],
}


@pytest.mark.parametrize("idx", GATHER_INDICES.values(), ids=GATHER_INDICES.keys())
@pytest.mark.parametrize("grouped", [False, True], ids=["per-call", "shared"])
def test_rows_backward_scatters_like_the_reference_bit_for_bit(idx, grouped):
    r = np.random.default_rng(len(idx))
    idx = np.array(idx, dtype=np.intp)
    x = Tensor(r.standard_normal((5, 2, 3)), requires_grad=True)
    gather = ad.Gather(idx, 5)
    for g in (r.standard_normal((len(idx), 2, 3)), r.standard_normal((len(idx), 2, 3))):
        x.zero_grad()
        out = ad.rows(x, gather if grouped else idx)
        np.testing.assert_array_equal(out.value, x.value[idx])
        out._backward_fn(g)
        assert x.grad.tobytes() == scatter_add_reference(g, idx, 5).tobytes()


@pytest.mark.parametrize("idx", GATHER_INDICES.values(), ids=GATHER_INDICES.keys())
def test_segment_sum_is_the_transpose_of_rows(idx):
    """segment_sum adds row i into row idx[i] bit for bit as np.add.at on
    zeros does. Its input gradient is the gather ``rows`` makes."""
    r = np.random.default_rng(len(idx))
    idx = np.array(idx, dtype=np.intp)
    into = ad.Gather(idx, 5)
    for shape in ((len(idx),), (len(idx), 3), (len(idx), 2, 3)):
        x = Tensor(r.standard_normal(shape), requires_grad=True)
        out = ad.segment_sum(x, into)
        assert out.value.tobytes() == scatter_add_reference(x.value, idx, 5).tobytes()
        g = r.standard_normal(out.shape)
        out._backward_fn(g)
        assert x.grad.tobytes() == ad.rows(Tensor(g), into).value.tobytes()


def test_segment_sum_rejects_a_gather_of_another_length():
    with pytest.raises(ShapeMismatch):
        ad.segment_sum(Tensor(np.ones((4, 2))), ad.Gather([0, 1, 1], 3))


def test_gather_sums_each_group_in_the_given_order():
    r = np.random.default_rng(3)
    idx = np.array([2, 0, 2, 2, 0])
    order = np.array([3, 0, 2, 4, 1])  # index 2's rows summed as 3, 0, 2
    g = r.standard_normal((5, 64))
    want = scatter_add_reference(g, idx, 3, order)
    assert ad.Gather(idx, 3, order=order).scatter(g).tobytes() == want.tobytes()
    assert want.tobytes() != scatter_add_reference(g, idx, 3).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_scatter_adds_like_add_at_bit_for_bit(seed):
    """Random repeated, sorted, permuted and empty indices, with and without
    a given order, on 1-, 2- and 3-D rows."""
    r = np.random.default_rng(seed)
    n_rows, n = int(r.integers(1, 8)), int(r.integers(1, 40))
    for idx in (r.integers(0, n_rows, n), np.sort(r.integers(0, n_rows, n)),
                r.permutation(n_rows), np.array([], dtype=np.intp)):
        for lead in ((), (3,), (2, 3)):
            # rows of unlike magnitudes, so that another summation order shows in the bits
            scale = 10.0 ** r.integers(-8, 8, len(idx))
            g = r.standard_normal((len(idx),) + lead) * scale.reshape((-1,) + (1,) * len(lead))
            for order in (None, r.permutation(len(idx))):
                got = ad.Gather(idx, n_rows, order=order).scatter(g)
                assert got.tobytes() == scatter_add_reference(g, idx, n_rows, order).tobytes()


def test_scatter_of_signed_zeros_lands_like_add_at():
    """Distinct indices too add each row to a zero: -0.0 lands as 0.0."""
    g = np.array([[-0.0, 1.0], [2.0, -0.0], [-0.0, -0.0]])
    for order in (None, np.array([2, 0, 1])):
        got = ad.Gather([1, 2, 0], 3, order=order).scatter(g)
        assert got.tobytes() == scatter_add_reference(g, np.array([1, 2, 0]), 3, order).tobytes()


def test_scatters_through_a_bin_cache_build_each_width_once_and_add_alike(monkeypatch):
    """A cache keeps the bins of each (gather, width) it has seen: the sums
    are the same bytes, and the bins are built once, however many scatters
    share them."""
    r = np.random.default_rng(5)
    idx, order = np.array([2, 0, 2, 2, 0, 1]), np.array([3, 0, 2, 5, 4, 1])
    built = []
    bins = ad.Gather.bins
    monkeypatch.setattr(ad.Gather, "bins", lambda self, w: built.append(w) or bins(self, w))
    cache = ad.BinCache()
    for gather in (ad.Gather(idx, 3), ad.Gather(idx, 3, order=order)):
        for shape in ((6, 4), (6, 2, 2), (6, 4), (6,), (6, 4)):
            g = r.standard_normal(shape) * 10.0 ** r.integers(-8, 8, shape)
            assert gather.scatter(g, cache).tobytes() == gather.scatter(g).tobytes()
    # each scatter without the cache builds its bins; with it, each width is built once
    assert built.count(4) == 2 * (4 + 1) and built.count(1) == 2 * (1 + 1)
    assert sorted(width for _, width in cache) == [1, 1, 4, 4]


def test_rows_rejects_a_gather_from_another_row_count():
    with pytest.raises(ShapeMismatch):
        ad.rows(Tensor(np.ones((4, 2))), ad.Gather([0, 1], 3))


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
    store = ParamStore([("w1", (3, 4)), ("b1", (4,)), ("w2/a", (4, 4)), ("w2/b", (4, 4)),
                        ("w3", (4, 3))])
    store.flat[:] = r.standard_normal(store.flat.size)
    x = Tensor(r.standard_normal((5, 3)))

    def loss_of(p):
        h = ad.relu(ad.add(ad.matmul(x, p["w1"]), p["b1"]))
        # h is used twice; rows 0-1 go through w2/a and rows 2-4 through w2/b
        h = ad.add(h, ad.block_matmul(ad.rows(h, [4, 0, 0, 2, 1]), p.family("w2"), [0, 2, 5]))
        return ad.cross_entropy(ad.softmax(ad.matmul(h, p["w3"])), [0, 2, 1, 1, 0])

    _backward_keeping_tape(loss_of(store))
    kept = {name: t.grad.copy() for name, t in store.items()}
    store.zero_grad()
    assert store.grad is None and all(t.grad is None for _, t in store.items())
    loss = loss_of(store)
    tape = _tape(loss)
    interior = [t for t in tape if t._backward_fn is not None]
    # the two matrices of w2 are one leaf
    assert sum(t.requires_grad and t._backward_fn is None for t in tape) == 4
    loss.backward()
    for name, t in store.items():
        assert np.shares_memory(t.grad, store.grad)
        np.testing.assert_array_equal(t.grad, kept[name], err_msg=name)
    np.testing.assert_array_equal(store.family("w2").grad, [kept["w2/a"], kept["w2/b"]])
    assert interior and all(
        t.grad is None and t._backward_fn is None and t._parents == () for t in interior)

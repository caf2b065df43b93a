"""Minimal dense fp64 tensor kernel with reverse-mode gradients.

Tape-style autodiff: each op records its parents and a backward closure;
``Tensor.backward()`` runs the closures in reverse topological order and
accumulates gradients additively. A central-difference harness
(``grad_check``) verifies the analytic gradients.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class NumericsError(Exception):
    pass


class ShapeMismatch(NumericsError):
    pass


class EmptyVector(NumericsError):
    pass


class BadLabel(NumericsError):
    pass


class NonFiniteLoss(NumericsError):
    pass


class Tensor:
    """A dense float64 array plus optional gradient buffer."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward_fn", "_needs")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn
        self._needs = requires_grad or any(p._needs for p in parents)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def accumulate(self, g: np.ndarray) -> None:
        # Never in place: g may be shared with another node's grad.
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.value)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every leaf's ``grad``.

        ``backward()`` consumes the tape: once an interior node's closure has
        run, its ``grad``, closure and parent links are freed, so the tape's
        intermediate arrays can be reclaimed during the pass. Leaf (parameter)
        grads stay.
        """
        if self.value.size != 1:
            raise NumericsError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._needs and id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.value))
        while topo:
            node = topo.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                node._backward_fn(node.grad)
            node.grad = None
            node._backward_fn = None
            node._parents = ()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording (forward values only)."""

    def __enter__(self) -> None:
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def _op(value: np.ndarray, parents: tuple[Tensor, ...],
        backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    if not _grad_enabled or not any(p._needs for p in parents):
        return Tensor(value)
    return Tensor(value, parents=parents, backward_fn=backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a vector or (..., k) array a and a (k, m) matrix b, or a
    batch of products (B, n, k) @ (B, k, m)."""
    a, b = _tensor(a), _tensor(b)
    batched = b.value.ndim == 3
    if (a.value.ndim < 1 or b.value.ndim not in (2, 3)
            or batched and (a.value.ndim != 3 or a.value.shape[0] != b.value.shape[0])):
        raise ShapeMismatch(
            f"matmul expects (...) @ matrix or batch @ batch, got {a.shape} @ {b.shape}"
        )
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.value @ b.value

    def backward(g: np.ndarray) -> None:
        if a._needs:
            a.accumulate(g @ np.swapaxes(b.value, -1, -2))
        if b._needs:
            if batched:
                b.accumulate(np.swapaxes(a.value, -1, -2) @ g)
            elif a.value.ndim == 1:
                b.accumulate(np.outer(a.value, g))
            else:
                k, m = b.value.shape
                b.accumulate(a.value.reshape(-1, k).T @ g.reshape(-1, m))

    return _op(out, (a, b), backward)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _tensor(a), _tensor(b)
    try:
        out = a.value + b.value
    except ValueError as exc:
        raise ShapeMismatch(f"add shapes incompatible: {a.shape} + {b.shape}") from exc

    def backward(g: np.ndarray) -> None:
        if a._needs:
            a.accumulate(_reduce_to(g, a.value.shape))
        if b._needs:
            b.accumulate(_reduce_to(g, b.value.shape))

    return _op(out, (a, b), backward)


def scale(x: Tensor, c) -> Tensor:
    """Multiply by a python scalar or a size-1 tensor (learnable scalar)."""
    x = _tensor(x)
    if isinstance(c, Tensor):
        if c.value.size != 1:
            raise ShapeMismatch(f"scale factor must be scalar, got shape {c.shape}")
        cv = float(c.value)
        out = x.value * cv

        def backward(g: np.ndarray) -> None:
            if x._needs:
                x.accumulate(g * cv)
            if c._needs:
                c.accumulate(np.full_like(c.value, np.sum(g * x.value)))

        return _op(out, (x, c), backward)

    cv = float(c)
    out = x.value * cv

    def backward_const(g: np.ndarray) -> None:
        if x._needs:
            x.accumulate(g * cv)

    return _op(out, (x,), backward_const)


def relu(x: Tensor) -> Tensor:
    x = _tensor(x)
    mask = x.value > 0.0
    out = np.where(mask, x.value, 0.0)

    def backward(g: np.ndarray) -> None:
        x.accumulate(g * mask)

    return _op(out, (x,), backward)


def concat(xs: Sequence[Tensor], axis: int = 0) -> Tensor:
    xs = [_tensor(x) for x in xs]
    if not xs:
        raise ShapeMismatch("concat of zero tensors")
    out = np.concatenate([x.value for x in xs], axis=axis)
    sizes = [x.value.shape[axis] for x in xs]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for x, start, stop in zip(xs, offsets[:-1], offsets[1:]):
            if x._needs:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(start, stop)
                x.accumulate(g[tuple(sl)])

    return _op(out, tuple(xs), backward)


def stack(xs: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    xs = [_tensor(x) for x in xs]
    if not xs:
        raise ShapeMismatch("stack of zero tensors")
    out = np.stack([x.value for x in xs])

    def backward(g: np.ndarray) -> None:
        for x, gx in zip(xs, g):
            if x._needs:
                x.accumulate(gx)

    return _op(out, tuple(xs), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _tensor(x)
    out = x.value.reshape(shape)

    def backward(g: np.ndarray) -> None:
        x.accumulate(g.reshape(x.value.shape))

    return _op(out, (x,), backward)


def mean_rows(x: Tensor) -> Tensor:
    x = _tensor(x)
    if x.value.ndim != 2 or x.value.shape[0] == 0:
        raise ShapeMismatch(f"mean_rows expects a non-empty matrix, got {x.shape}")
    n = x.value.shape[0]
    out = x.value.mean(axis=0)

    def backward(g: np.ndarray) -> None:
        x.accumulate(np.broadcast_to(g / n, x.value.shape))

    return _op(out, (x,), backward)


def _scatter_add(g: np.ndarray, idx: np.ndarray, n_rows: int) -> np.ndarray:
    """An (n_rows, ...) zero array with row g[i] added at idx[i]; repeated indices sum."""
    out = np.zeros((n_rows,) + g.shape[1:])
    if idx.size:
        order = np.argsort(idx, kind="stable")
        sorted_idx = idx[order]
        starts = np.flatnonzero(np.concatenate(([True], sorted_idx[1:] != sorted_idx[:-1])))
        out[sorted_idx[starts]] = np.add.reduceat(g[order], starts, axis=0)
    return out


def rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows (axis 0); backward sums the gradient of repeated indices."""
    x = _tensor(x)
    idx = np.asarray(idx, dtype=np.intp)
    out = x.value[idx]

    def backward(g: np.ndarray) -> None:
        x.accumulate(_scatter_add(g, idx, x.value.shape[0]))

    return _op(out, (x,), backward)


class RowGroups:
    """The rows of an id array grouped by id, for ``matmul_by``.

    ``order`` lists the row positions sorted stably by id; the rows with
    id j are ``order[bounds[j]:bounds[j + 1]]``.
    """

    __slots__ = ("order", "bounds")

    def __init__(self, ids: np.ndarray, n_ids: int) -> None:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.ndim != 1 or ids.size and (ids.min() < 0 or ids.max() >= n_ids):
            raise ShapeMismatch(f"row ids must be a vector of ids in [0, {n_ids})")
        self.order = np.argsort(ids, kind="stable")
        self.bounds = np.searchsorted(ids[self.order], np.arange(n_ids + 1)).tolist()


def matmul_by(x: Tensor, ws: Sequence[Tensor], groups: RowGroups,
              take: np.ndarray | None = None) -> Tensor:
    """Each row times the matrix its id selects: ``out[i] = x[i] @ ws[ids[i]]``.

    x is (n, ..., k) and every ws[j] is (k, m); ``groups``, built once per
    id array, groups the n rows by id, so each matrix multiplies one block:
    the forward gathers each group's rows, multiplies them and writes the
    product straight to those rows of the result, making no sorted copy of
    x or of the product. Backward accumulates straight into each ws[j]; a
    matrix no row selects gets no gradient. With ``take``, the result is
    the product's rows ``take`` (``out[i] = x[take[i]] @ ws[ids[take[i]]]``),
    and the full product is never kept on the tape.
    """
    x, ws = _tensor(x), [_tensor(w) for w in ws]
    if not ws or any(w.value.ndim != 2 or w.value.shape != ws[0].value.shape for w in ws):
        raise ShapeMismatch("matmul_by expects one or more equal-shape matrices")
    k, m = ws[0].value.shape
    if (x.value.ndim < 2 or x.value.shape[-1] != k or len(groups.order) != x.value.shape[0]
            or len(groups.bounds) != len(ws) + 1):
        raise ShapeMismatch(
            f"matmul_by: x {x.shape}, {len(ws)} matrices of {(k, m)}, "
            f"{len(groups.order)} grouped rows"
        )
    order = groups.order
    out = np.empty(x.value.shape[:-1] + (m,))
    for w, a, b in zip(ws, groups.bounds[:-1], groups.bounds[1:]):
        if a < b:
            rows_j = order[a:b]
            out[rows_j] = (x.value[rows_j].reshape(-1, k) @ w.value).reshape(
                (b - a,) + out.shape[1:])
    if take is not None:
        take = np.asarray(take, dtype=np.intp)
        out = out[take]

    def backward(g: np.ndarray) -> None:
        if take is not None:
            g = _scatter_add(g, take, x.value.shape[0])
        per_row = math.prod(x.value.shape[1:-1])
        spans = [(a * per_row, b * per_row)
                 for a, b in zip(groups.bounds[:-1], groups.bounds[1:])]
        xs = x.value[order].reshape(-1, k)  # gathered again, so the tape holds no sorted copy
        gs = g[order].reshape(-1, m)
        for w, (a, b) in zip(ws, spans):
            if a < b and w._needs:
                w.accumulate(xs[a:b].T @ gs[a:b])
        if x._needs:
            for w, (a, b) in zip(ws, spans):  # xs becomes the sorted gradient of x
                np.matmul(gs[a:b], w.value.T, out=xs[a:b])
            gx = np.empty_like(x.value)
            gx[order] = xs.reshape(x.value.shape)
            x.accumulate(gx)

    return _op(out, (x, *ws), backward)


def place_rows(x: Tensor, positions: np.ndarray, n_rows: int) -> Tensor:
    """Scatter rows of x into a zero matrix at disjoint row positions."""
    x = _tensor(x)
    positions = np.asarray(positions, dtype=np.intp)
    shape = (n_rows,) + x.value.shape[1:]
    out = np.zeros(shape, dtype=np.float64)
    out[positions] = x.value

    def backward(g: np.ndarray) -> None:
        x.accumulate(g[positions])

    return _op(out, (x,), backward)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    x = _tensor(x)
    out = x.value[:, start:stop]

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(x.value)
        gx[:, start:stop] = g
        x.accumulate(gx)

    return _op(out, (x,), backward)


def rowdot(a: Tensor, b: Tensor) -> Tensor:
    """Dot product over the last axis of two equal-shape arrays: (..., k) -> (...)."""
    a, b = _tensor(a), _tensor(b)
    if a.value.shape != b.value.shape:
        raise ShapeMismatch(f"rowdot shapes differ: {a.shape} vs {b.shape}")
    out = np.einsum("...i,...i->...", a.value, b.value)

    def backward(g: np.ndarray) -> None:
        if a._needs:
            a.accumulate(g[..., None] * b.value)
        if b._needs:
            b.accumulate(g[..., None] * a.value)

    return _op(out, (a, b), backward)


def colscale(x: Tensor, w: Tensor) -> Tensor:
    """Scale each last-axis vector of x (..., k) by the matching entry of w (...)."""
    x, w = _tensor(x), _tensor(w)
    if x.value.shape[:-1] != w.value.shape:
        raise ShapeMismatch(f"colscale shapes incompatible: {x.shape} vs {w.shape}")
    out = x.value * w.value[..., None]

    def backward(g: np.ndarray) -> None:
        if x._needs:
            x.accumulate(g * w.value[..., None])
        if w._needs:
            w.accumulate(np.einsum("...i,...i->...", g, x.value))

    return _op(out, (x, w), backward)


def _segment_layout(segments: Sequence[tuple[int, int]], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of segments that tile [0, n) in order."""
    bounds = np.asarray(segments, dtype=np.intp).reshape(-1, 2)
    ends = np.concatenate(([0], bounds[:, 1]))
    lengths = np.diff(ends)
    if not (np.array_equal(bounds[:, 0], ends[:-1]) and ends[-1] == n and np.all(lengths > 0)):
        raise ShapeMismatch(f"segments must tile [0, {n}) in order with none empty")
    return bounds[:, 0], lengths


def segment_softmax(scores: Tensor, segments: Sequence[tuple[int, int]]) -> Tensor:
    """Stable softmax along axis 0 within each contiguous [start, stop) segment.

    The segments must tile axis 0 in order; each column is normalized separately.
    """
    scores = _tensor(scores)
    v = scores.value
    starts, lengths = _segment_layout(segments, v.shape[0])
    e = np.exp(v - np.repeat(np.maximum.reduceat(v, starts, axis=0), lengths, axis=0))
    out = e / np.repeat(np.add.reduceat(e, starts, axis=0), lengths, axis=0)

    def backward(g: np.ndarray) -> None:
        dot = np.repeat(np.add.reduceat(g * out, starts, axis=0), lengths, axis=0)
        scores.accumulate(out * (g - dot))

    return _op(out, (scores,), backward)


def segment_sum(x: Tensor, segments: Sequence[tuple[int, int]],
                target_rows: np.ndarray, n_rows: int) -> Tensor:
    """Sum contiguous axis-0 segments of x into rows of an (n_rows, ...) zero array.

    The segments must tile axis 0 in order; segment i lands in ``target_rows[i]``.
    """
    x = _tensor(x)
    target_rows = np.asarray(target_rows, dtype=np.intp)
    starts, lengths = _segment_layout(segments, x.value.shape[0])
    out = np.zeros((n_rows,) + x.value.shape[1:], dtype=np.float64)
    out[target_rows] = np.add.reduceat(x.value, starts, axis=0)

    def backward(g: np.ndarray) -> None:
        x.accumulate(np.repeat(g[target_rows], lengths, axis=0))

    return _op(out, (x,), backward)


def softmax(v: Tensor) -> Tensor:
    """Stable softmax of a vector, or of each row of a matrix (max-subtracted)."""
    v = _tensor(v)
    if v.value.ndim not in (1, 2) or v.value.size == 0:
        raise EmptyVector(f"softmax expects a non-empty vector or matrix, got shape {v.shape}")
    e = np.exp(v.value - v.value.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        v.accumulate(out * (g - np.sum(g * out, axis=-1, keepdims=True)))

    return _op(out, (v,), backward)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean negative log probability of each row's label class, clamped at 1e-12.

    ``probs`` is one probability vector with an int label, or a (B, classes)
    matrix with B labels.
    """
    probs = _tensor(probs)
    n_classes = probs.value.shape[-1]
    p_rows = probs.value.reshape(-1, n_classes)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.intp))
    if labels.shape != (p_rows.shape[0],) or labels.min() < 0 or labels.max() >= n_classes:
        raise BadLabel(f"labels {labels.tolist()} out of range for {n_classes} classes")
    batch = np.arange(labels.size)
    p = np.maximum(p_rows[batch, labels], 1e-12)
    out = np.asarray(-np.log(p).mean())

    def backward(g: np.ndarray) -> None:
        gp = np.zeros_like(p_rows)
        gp[batch, labels] = -float(g) / (labels.size * p)
        probs.accumulate(gp.reshape(probs.value.shape))

    return _op(out, (probs,), backward)


class ParamStore:
    """Ordered, uniquely-named collection of learnable tensors.

    Every tensor's value is a view into ``flat``, one contiguous float64
    vector holding the tensors in order (``sizes[i]`` elements for the i-th),
    so work on the whole store, such as an Adam step, a copy or a checkpoint
    payload, is one array operation. ``ParamStore(shapes)`` allocates the
    vector once, zero-filled, or adopts a given ``flat``; ``add`` appends a
    tensor by reallocating the vector and re-pointing every earlier value.
    """

    def __init__(self, shapes: Sequence[tuple[str, Sequence[int]]] = (),
                 flat: np.ndarray | None = None) -> None:
        self._items: dict[str, Tensor] = {}
        names, shapes = zip(*shapes) if shapes else ((), ())
        sizes = [math.prod(shape) for shape in shapes]
        if flat is None:
            flat = np.zeros(sum(sizes))
        elif flat.dtype != np.float64 or flat.shape != (sum(sizes),):
            raise ShapeMismatch(f"a {flat.dtype} vector of shape {flat.shape} cannot hold "
                                f"{sum(sizes)} float64 parameters")
        start = 0
        for name, shape, size in zip(names, shapes, sizes):
            self._insert(name, Tensor(flat[start:start + size].reshape(shape)), True)
            start += size
        self.flat = flat
        self.sizes = np.array(sizes, dtype=np.intp)

    def _insert(self, name: str, t: Tensor, requires_grad: bool) -> Tensor:
        if name in self._items:
            raise NumericsError(f"duplicate parameter name {name!r}")
        t.requires_grad = requires_grad
        t._needs = True
        self._items[name] = t
        return t

    def add(self, name: str, value, requires_grad: bool = True) -> Tensor:
        t = self._insert(name, value if isinstance(value, Tensor) else Tensor(value),
                         requires_grad)
        grown = ParamStore([(n, u.value.shape) for n, u in self._items.items()],
                           np.concatenate([self.flat, t.value.ravel()]))
        for tensor, view in zip(self._items.values(), grown._items.values()):
            tensor.value = view.value
        self.flat, self.sizes = grown.flat, grown.sizes
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return list(self._items)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._items.items()

    def zero_grad(self) -> None:
        for t in self._items.values():
            t.zero_grad()

    def copy(self) -> "ParamStore":
        return ParamStore([(name, t.value.shape) for name, t in self._items.items()],
                          self.flat.copy())

    def n_params(self) -> int:
        return self.flat.size


class GradCheckReport:
    """Result of comparing reverse-mode gradients to central differences."""

    def __init__(self, max_rel_error: float, worst_param: str,
                 per_param: dict[str, float]) -> None:
        self.max_rel_error = max_rel_error
        self.worst_param = worst_param
        self.per_param = per_param


def grad_check(f: Callable[[ParamStore], Tensor], params: ParamStore,
               eps: float = 1e-5, max_per_param: int | None = None,
               sample_seed: int = 0) -> GradCheckReport:
    """Compare the reverse-mode gradient of f against central finite differences.

    Relative error per entry: |analytic - numeric| / max(1, |analytic|, |numeric|).
    When max_per_param is given, at most that many entries of each parameter
    tensor are perturbed, drawn without replacement from a seeded generator.
    """
    params.zero_grad()
    loss = f(params)
    if not np.isfinite(loss.value):
        raise NonFiniteLoss("loss is not finite at the given parameters")
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.value))
        for name, t in params.items()
    }

    sampler = np.random.default_rng(sample_seed)
    max_rel = 0.0
    worst = ""
    per_param: dict[str, float] = {}
    for name, t in params.items():
        flat = t.value.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        if max_per_param is not None and flat.size > max_per_param:
            indices = sorted(sampler.choice(flat.size, size=max_per_param,
                                            replace=False).tolist())
        else:
            indices = range(flat.size)
        local_max = 0.0
        for i in indices:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                f_plus = float(f(params).value)
                flat[i] = orig - eps
                f_minus = float(f(params).value)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NonFiniteLoss(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(a_flat[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            local_max = max(local_max, rel)
        per_param[name] = local_max
        if local_max >= max_rel:
            max_rel = local_max
            worst = name
    return GradCheckReport(max_rel, worst, per_param)

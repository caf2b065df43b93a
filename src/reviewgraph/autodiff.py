"""Minimal dense fp64 tensor kernel with reverse-mode gradients.

Tape-style autodiff: each op records its parents and a backward closure;
``Tensor.backward()`` runs the closures in reverse topological order and
accumulates gradients additively. A central-difference harness
(``grad_check``) verifies the analytic gradients.

Typed weights apply to rows sorted by type: ``block_matmul`` multiplies
each contiguous block of rows by its own matrix of a (blocks, k, m) family.
Learnable tensors are ``Param`` views of a ``ParamStore``'s one parameter
vector, each a named tensor or a family of them, and their gradients land
in the same views of one gradient vector. Row gathers (``rows``) and their
transpose ``segment_sum`` take a ``Gather`` of row indices. Every sum into
a gather's rows, a segment sum, a gather's gradient or a segment softmax's
normalizer, runs in one order: each output row starts from zero and adds
its rows in row order, as ``np.add.at`` does, all in one ``np.bincount``
over (row, column) bins, which a ``BinCache`` lets many sums share.
``segment_softmax`` normalizes within the runs of a ``Gather`` whose equal
indices are adjacent. An op written outside this module records itself
with the ``Tensor`` constructor when ``records`` says a tape is recorded.

Importing the module asks glibc's ``malloc`` to keep freed memory in the
process (``_keep_freed_memory``): each training step frees its tape and
builds the next one from the same sizes, which then reuses those pages.
"""

from __future__ import annotations

import ctypes
import functools
import math
import weakref
from typing import Callable, Sequence

import numpy as np

# mallopt(3) parameters of glibc's malloc.h. Blocks above the mmap threshold
# get their own mapping, unmapped on free; the free top of the heap above the
# trim threshold goes back to the kernel. Either way the next step faults
# every page in again. Setting either one turns off glibc's dynamic
# thresholds, so both are set; 32 MiB is the 64-bit ceiling of the first.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20


def _keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds, so a step's freed arrays stay
    in the heap for the next step; a no-op where the C library has no
    ``mallopt`` (macOS, Windows)."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is None:
            return
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    except (OSError, AttributeError, TypeError):
        return


_keep_freed_memory()


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

    def accumulate(self, g: np.ndarray, rows: Sequence[int] | None = None) -> None:
        """Add g to ``grad``. g is zero outside the leading-axis ``rows``, which
        tell a ``Param`` family which members got a gradient."""
        # Never in place: g may be shared with another node's grad.
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

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


def records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on these parents goes on the tape: outside ``no_grad``,
    when one of them needs a gradient."""
    return _grad_enabled and any(p._needs for p in parents)


def _op(value: np.ndarray, parents: tuple[Tensor, ...],
        backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    if not records(parents):
        return Tensor(value)
    return Tensor(value, parents=parents, backward_fn=backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for a vector or (..., k) array a and a (k, m) matrix b."""
    a, b = _tensor(a), _tensor(b)
    if a.value.ndim < 1 or b.value.ndim != 2:
        raise ShapeMismatch(f"matmul expects (...) @ matrix, got {a.shape} @ {b.shape}")
    if a.value.shape[-1] != b.value.shape[0]:
        raise ShapeMismatch(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.value @ b.value

    def backward(g: np.ndarray) -> None:
        if a._needs:
            a.accumulate(g @ b.value.T)
        if b._needs:
            if a.value.ndim == 1:
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


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    x = _tensor(x)
    cv = float(c)
    out = x.value * cv

    def backward(g: np.ndarray) -> None:
        if x._needs:
            x.accumulate(g * cv)

    return _op(out, (x,), backward)


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


class Gather:
    """Row indices ``idx`` into ``n_rows`` rows.

    Gathering ``x[idx]`` and summing rows into ``idx`` are transposes of each
    other: ``scatter`` adds row i of its argument into row ``idx[i]`` of an
    (n_rows, ...) zero array, the gradient of ``rows`` and the forward of
    ``segment_sum``. Every sum runs in one order: each output row starts
    from zero and adds its rows in row order, as ``np.add.at`` does, or in
    ``order`` when one is given, a permutation of the rows listing them in
    the order they are summed. Every scatter is one ``np.bincount``, also
    of indices that are all distinct, such as a permutation, so that a row
    of ``-0.0`` lands as ``np.add.at`` lands it, as ``0.0``. Where each run
    of equal adjacent indices starts is found on the first ``runs`` and
    kept, so indices that many ops share, such as a graph index's edge
    targets, are looked at once.
    """

    __slots__ = ("idx", "n_rows", "_order", "_runs")

    def __init__(self, idx: Sequence[int] | np.ndarray, n_rows: int,
                 order: np.ndarray | None = None) -> None:
        self.idx = np.asarray(idx, dtype=np.intp)
        self.n_rows = n_rows
        self._order = order
        self._runs: tuple[np.ndarray, np.ndarray] | None = None

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first row and the length of each run of equal indices, in row
        order; equal indices must be adjacent, with no given order."""
        if self._runs is None:
            starts = _run_starts(self.idx)
            distinct = np.count_nonzero(np.bincount(self.idx, minlength=self.n_rows))
            if self._order is not None or len(starts) != distinct:
                raise ShapeMismatch("equal indices of a segment gather must be adjacent")
            self._runs = (starts, np.diff(starts, append=len(self.idx)))
        return self._runs

    def bins(self, width: int) -> np.ndarray:
        """The flat (row, column) bin of each entry of rows ``width`` wide, in
        the order they are summed."""
        idx = self.idx if self._order is None else self.idx[self._order]
        return ((idx * width)[:, None] + np.arange(width)).ravel()

    def scatter(self, g: np.ndarray, cache: "BinCache | None" = None) -> np.ndarray:
        """An (n_rows, ...) zero array with row g[i] added at idx[i]; repeated
        indices sum. ``cache`` keeps the bins it builds for the next scatter
        of rows as wide through this gather."""
        shape = (self.n_rows,) + g.shape[1:]
        if self._order is not None:
            g = g.take(self._order, axis=0)
        # one bin per (row, column): bincount adds each bin's weights in input order
        width = math.prod(shape[1:])
        bins = self.bins(width) if cache is None else cache[self, width]
        return np.bincount(bins, weights=g.ravel(),
                           minlength=self.n_rows * width).reshape(shape)


class BinCache(dict):
    """Each (gather, width)'s ``Gather.bins``, built on first use.

    Building the bins costs about as much as the sum they group, so the
    scatters of one recorded forward and its backward share them. The ops
    that use a cache keep it alive only as long as their tape.
    """

    def __missing__(self, key: tuple[Gather, int]) -> np.ndarray:
        gather, width = key
        self[key] = bins = gather.bins(width)
        return bins


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Where each run of equal values starts in an array of non-negative ids."""
    return np.flatnonzero(np.diff(ids, prepend=-1))


def rows(x: Tensor, idx: np.ndarray | Gather) -> Tensor:
    """Gather rows (axis 0); backward sums the gradient of repeated indices."""
    x = _tensor(x)
    gather = idx if isinstance(idx, Gather) else Gather(idx, x.value.shape[0])
    if gather.n_rows != x.value.shape[0]:
        raise ShapeMismatch(f"a gather from {gather.n_rows} rows applied to {x.shape}")
    out = x.value.take(gather.idx, axis=0)  # several times faster than x.value[idx]

    def backward(g: np.ndarray) -> None:
        x.accumulate(gather.scatter(g), gather.idx)  # the rows g reaches

    return _op(out, (x,), backward)


def nonempty_blocks(bounds: Sequence[int], per_row: int = 1) -> list[tuple[int, int, int]]:
    """(j, start, stop) of each non-empty block j, rows ``bounds[j]:bounds[j + 1]``,
    counted in sub-rows when each row is ``per_row`` of them."""
    return [(j, a * per_row, b * per_row)
            for j, (a, b) in enumerate(zip(bounds, bounds[1:])) if a < b]


def block_products(x: np.ndarray, w: np.ndarray, blocks: Sequence[tuple[int, int, int]],
                   out: np.ndarray) -> np.ndarray:
    """Rows ``a:b`` of x (..., rows, k) times ``w[j]`` (..., k, m), written into
    the same rows of out, for each block (j, a, b); returns out."""
    for j, a, b in blocks:
        np.matmul(x[..., a:b, :], w[j], out=out[..., a:b, :])
    return out


def block_weight_grads(x: np.ndarray, g: np.ndarray, blocks: Sequence[tuple[int, int, int]],
                       shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of ``block_products``' matrices, an array of the given
    shape, from its output's gradient g: zero for a matrix whose block is
    empty."""
    gw = np.zeros(shape)
    for j, a, b in blocks:
        np.matmul(x[..., a:b, :].swapaxes(-1, -2), g[..., a:b, :], out=gw[j])
    return gw


def block_matmul(x: Tensor, w: Tensor, bounds: Sequence[int]) -> Tensor:
    """Rows ``bounds[j]:bounds[j + 1]`` of x times ``w[j]``: one product per block.

    x is (n, ..., k), w is a (blocks, k, m) family of matrices, and the
    blocks tile x's n rows in order, so each product is written straight
    into its contiguous slice of the result, and backward takes each block's
    gradients from slices too; rows sorted by type or relation make every
    typed projection one block product per type. A matrix whose block is
    empty gets no gradient.
    """
    x, w = _tensor(x), _tensor(w)
    bounds = list(bounds)
    if (w.value.ndim != 3 or x.value.ndim < 2 or x.value.shape[-1] != w.value.shape[1]
            or len(bounds) != len(w.value) + 1 or bounds[0] != 0
            or bounds[-1] != x.value.shape[0] or any(a > b for a, b in zip(bounds, bounds[1:]))):
        raise ShapeMismatch(f"block_matmul: x {x.shape}, matrices {w.shape}, "
                            f"block bounds {bounds}")
    k, m = w.value.shape[1:]
    blocks = nonempty_blocks(bounds, math.prod(x.value.shape[1:-1]))
    xs = x.value.reshape(-1, k)
    out = np.empty(x.value.shape[:-1] + (m,))
    block_products(xs, w.value, blocks, out.reshape(-1, m))

    def backward(g: np.ndarray) -> None:
        gs = g.reshape(-1, m)
        if w._needs:
            w.accumulate(block_weight_grads(xs, gs, blocks, w.value.shape),
                         [j for j, _, _ in blocks])
        if x._needs:
            gx = np.empty(x.value.shape)
            block_products(gs, w.value.swapaxes(1, 2), blocks, gx.reshape(-1, k))
            x.accumulate(gx)

    return _op(out, (x, w), backward)


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


def segment_softmax(scores: Tensor, by: Gather, cache: BinCache | None = None) -> Tensor:
    """Stable softmax along axis 0 within each run of equal ``by.idx``.

    Rows with equal indices must be adjacent; each column is normalized
    separately. The normalizers are ``by.scatter`` sums, broadcast back to
    the rows by ``by.idx``; the scatters share ``cache``'s bins.
    """
    scores = _tensor(scores)
    v = scores.value
    starts, lengths = by.runs()
    if len(by.idx) != v.shape[0]:
        raise ShapeMismatch(f"a grouping of {len(by.idx)} rows applied to {scores.shape}")
    e = np.exp(v - np.repeat(np.maximum.reduceat(v, starts, axis=0), lengths, axis=0))
    out = e / by.scatter(e, cache).take(by.idx, axis=0)

    def backward(g: np.ndarray) -> None:
        dot = by.scatter(g * out, cache).take(by.idx, axis=0)
        scores.accumulate(out * (g - dot))

    return _op(out, (scores,), backward)


def segment_sum(x: Tensor, into: Gather) -> Tensor:
    """Row i of x added into row ``into.idx[i]`` of an (into.n_rows, ...) zero
    array: the transpose of ``rows(·, into)``."""
    x = _tensor(x)
    if len(into.idx) != x.value.shape[0]:
        raise ShapeMismatch(f"a sum of {len(into.idx)} rows applied to {x.shape}")
    out = into.scatter(x.value)

    def backward(g: np.ndarray) -> None:
        x.accumulate(g.take(into.idx, axis=0))

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


@functools.lru_cache(maxsize=32)
class _Layout:
    """Where each tensor of a (name, shape) list sits in a store's vector, and
    the families among them, found on first use. The class is cached per
    list, so every store of the list shares one and derives none of it again."""

    def __init__(self, shapes: tuple[tuple[str, tuple[int, ...]], ...]) -> None:
        self.key, self.names = shapes, [name for name, _ in shapes]
        self.shapes = [shape for _, shape in shapes]
        if len(set(self.names)) != len(self.names):
            dup = next(name for name in self.names if self.names.count(name) > 1)
            raise NumericsError(f"duplicate parameter name {dup!r}")
        self.sizes = np.array([math.prod(shape) for shape in self.shapes], dtype=np.intp)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.views = {name: (i, int(offset), shape, None) for i, (name, shape, offset)
                      in enumerate(zip(self.names, self.shapes, self.offsets))}

    def view(self, key: str) -> tuple[int | np.ndarray, int, tuple[int, ...], tuple | None]:
        """(members, offset, shape, byte strides) of the tensor ``key``, or for
        ``prefix/*`` of the tensors ``prefix/<member>`` as one (members, ...)
        array, which needs them equal in shape and equally spaced."""
        if key not in self.views:
            members = [i for i, name in enumerate(self.names)
                       if key.endswith("/*") and name.rpartition("/")[0] == key[:-2]]
            if not members:
                raise KeyError(key)
            shape, offsets = self.shapes[members[0]], self.offsets[members]
            gaps = np.diff(offsets) if len(members) > 1 else self.sizes[members]
            if any(self.shapes[i] != shape for i in members) or (gaps != gaps[0]).any():
                raise ShapeMismatch(f"{key} are not one family: shapes "
                                    f"{[self.shapes[i] for i in members]} at {offsets.tolist()}")
            self.views[key] = (np.array(members), int(offsets[0]), (len(members),) + shape,
                               (8 * int(gaps[0]),) + np.empty(shape).strides)
        return self.views[key]


class Param(Tensor):
    """A learnable view of a ``ParamStore``'s vector: one named tensor, or a
    family of tensors along a leading axis of members. Its ``grad`` is the
    same view of the store's gradient vector, None until a gradient reaches
    it; assigning ``grad`` writes that view and marks it as reached."""

    __slots__ = ("_store", "_members", "_offset")

    def __init__(self, store: "ParamStore", members: int | np.ndarray, offset: int,
                 shape: tuple[int, ...], strides: tuple | None) -> None:
        self.value = np.ndarray(shape, np.float64, store.flat, 8 * offset, strides)
        self.requires_grad = self._needs = True
        self._parents, self._backward_fn = (), None
        # a proxy, so that a store and its params make no reference cycle
        self._store, self._members, self._offset = weakref.proxy(store), members, 8 * offset

    def _grad_view(self) -> np.ndarray:
        if self._store.grad is None:
            self._store.grad = np.zeros_like(self._store.flat)
        return np.ndarray(self.value.shape, np.float64, self._store.grad, self._offset,
                          self.value.strides)

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad_view() if self._store.present[self._members].any() else None

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._grad_view()[...] = 0.0 if g is None else g
        self._store.present[self._members] = g is not None

    def interleaved(self, count: int) -> np.ndarray:
        """This family and the ``count - 1`` tensors that follow each of its
        members in the store, as one (members, count, ...) view: families
        laid out member by member side by side read as one array."""
        v = self.value
        return np.ndarray(v.shape[:1] + (count,) + v.shape[1:], np.float64, self._store.flat,
                          self._offset, v.strides[:1] + (v[0].nbytes,) + v.strides[1:])

    def accumulate(self, g: np.ndarray, rows: Sequence[int] | None = None) -> None:
        self._grad_view()[...] += g  # zero outside rows, as the rows of absent tensors are
        whole = rows is None or isinstance(self._members, int)
        self._store.present[self._members if whole else self._members[rows]] = True


class ParamStore:
    """Ordered, uniquely-named collection of learnable tensors.

    Every tensor's value is a view into ``flat``, one contiguous float64
    vector holding the tensors in order (``sizes[i]`` elements for the i-th),
    so work on the whole store, such as an Adam step, a copy or a checkpoint
    payload, is one array operation. ``ParamStore(shapes)`` allocates the
    vector once, zero-filled, or adopts a given ``flat``.

    ``store[name]`` is one tensor, and ``store.family(prefix)`` the tensors
    ``prefix/*`` as one strided view. Each is a ``Param`` whose gradient
    lands in the same view of ``grad``, a vector laid out like ``flat`` and
    allocated when a gradient first arrives after ``zero_grad``;
    ``present[i]`` records whether one reached the i-th tensor.
    """

    def __init__(self, shapes: Sequence[tuple[str, Sequence[int]]] = (),
                 flat: np.ndarray | None = None) -> None:
        self._layout = _Layout(tuple((name, tuple(shape)) for name, shape in shapes))
        self.sizes = self._layout.sizes
        if flat is None:
            flat = np.zeros(self.sizes.sum())
        elif flat.dtype != np.float64 or flat.shape != (self.sizes.sum(),):
            raise ShapeMismatch(f"a {flat.dtype} vector of shape {flat.shape} cannot hold "
                                f"{self.sizes.sum()} float64 parameters")
        self.flat, self.grad, self._params = flat, None, {}
        self.present = np.zeros(len(self.sizes), dtype=bool)

    def __getitem__(self, name: str) -> Param:
        if name not in self._params:
            self._params[name] = Param(self, *self._layout.view(name))
        return self._params[name]

    def family(self, prefix: str) -> Param:
        return self[prefix + "/*"]

    def __len__(self) -> int:
        return len(self.sizes)

    def items(self) -> list[tuple[str, Param]]:
        return [(name, self[name]) for name in self._layout.names]

    def zero_grad(self) -> None:
        self.grad = None
        self.present[:] = False

    def copy(self) -> "ParamStore":
        return ParamStore(self._layout.key, self.flat.copy())

    def n_params(self) -> int:
        return self.flat.size


class GradCheckReport:
    """Result of comparing reverse-mode gradients to central differences:
    the largest relative error and the parameter tensor it came from."""

    def __init__(self, max_rel_error: float, worst_param: str) -> None:
        self.max_rel_error = max_rel_error
        self.worst_param = worst_param


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
    # zero where no gradient arrived
    analytic = np.zeros_like(params.flat) if params.grad is None else params.grad.copy()

    sampler = np.random.default_rng(sample_seed)
    flat, max_rel, worst = params.flat, 0.0, ""
    for (name, _), start, size in zip(params.items(), np.cumsum(params.sizes) - params.sizes,
                                      params.sizes.tolist()):
        if max_per_param is not None and size > max_per_param:
            indices = sorted(sampler.choice(size, size=max_per_param, replace=False).tolist())
        else:
            indices = range(size)
        local_max = 0.0
        for i in indices:
            orig = flat[start + i]
            with no_grad():
                flat[start + i] = orig + eps
                f_plus = float(f(params).value)
                flat[start + i] = orig - eps
                f_minus = float(f(params).value)
            flat[start + i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NonFiniteLoss(f"non-finite loss while perturbing {name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[start + i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            local_max = max(local_max, rel)
        if local_max >= max_rel:
            max_rel = local_max
            worst = name
    return GradCheckReport(max_rel, worst)

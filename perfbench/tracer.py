"""Outside-in span tracing for the benchmark's traced runs.

The tracer patches the module (or class) attribute that each caller looks
up, so no program source changes: ``model`` calls ``ad.matmul``, so
``autodiff.matmul`` is wrapped; ``training`` imports ``forward_loss``,
``predict``, ``build_graph_index`` and ``ad_scale`` by name, so those
attributes of ``training`` are wrapped too, under the same span name.

Spans (name, start, end, parent, operation id) stay in flat in-memory
arrays while tracing and are written out once, at the end of the run.
A span's self time is its duration minus the durations of its direct child
spans; children never overlap because each thread keeps its own stack.
"""

from __future__ import annotations

import functools
import threading
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from reviewgraph import autodiff, cli, extraction, graph, model, orchestration, training

AD_OPS = (
    "matmul", "add", "scale", "relu", "concat", "mean_rows", "rows", "place_rows",
    "slice_cols", "rowdot", "colscale", "segment_softmax", "segment_sum", "softmax",
    "cross_entropy",
)
STAGES = ("simulate", "extract", "classify", "embed", "build-graph")

# (owner, attribute, span name). An owner appears once per caller that looks
# the function up in its own namespace.
PATCHES = (
    [(autodiff, op, f"autodiff.{op}") for op in AD_OPS]
    + [
        (training, "ad_scale", "autodiff.scale"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (model, "build_graph_index", "model.build_graph_index"),
        (training, "build_graph_index", "model.build_graph_index"),
        (model, "featurize", "model.featurize"),
        (model, "forward_loss", "model.forward_loss"),
        (training, "forward_loss", "model.forward_loss"),
        (model, "predict", "model.predict"),
        (training, "predict", "model.predict"),
        (training, "adam_step", "training.adam_step"),
        (training, "evaluate", "training.evaluate"),
        (training, "train", "training.train"),
        (graph, "validate_graph", "graph.validate_graph"),
        (extraction, "validate_graph", "graph.validate_graph"),
        (graph, "save_graph", "graph.save_graph"),
        (graph, "load_graph", "graph.load_graph"),
        (graph, "apply_ablation", "graph.apply_ablation"),
        (extraction, "parse_triple_batch", "extraction.parse_triple_batch"),
        (orchestration, "parse_triple_batch", "extraction.parse_triple_batch"),
        (extraction, "build_graph", "extraction.build_graph"),
        (orchestration, "simulate_debate", "orchestration.simulate_debate"),
        (orchestration, "extract_triples", "orchestration.extract_triples"),
        (orchestration, "classify_dimensions", "orchestration.classify_dimensions"),
        (orchestration, "embed_texts", "orchestration.embed_texts"),
        (orchestration.EmbeddingCache, "put", "orchestration.EmbeddingCache.put"),
        (orchestration.EmbeddingCache, "__init__", "orchestration.EmbeddingCache.load"),
        (cli, "load_manifest", "cli.load_manifest"),
    ]
)

# Nearest enclosing span that an autodiff op is attributed to when counting
# tape ops per graph step (forward_loss plus the loss scaling in train) and
# per graph prediction.
_OP_CONTEXTS = ("model.forward_loss", "model.predict", "training.train")


def _metric(name: str, unit: str, better: str) -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = (
    [
        _metric(f"autodiff.{op}.{field}", unit, "lower")
        for op in AD_OPS
        for field, unit in (("calls", "count"), ("self_s", "s"), ("bytes_out", "bytes"))
    ]
    + [
        _metric("autodiff.backward.calls", "count", "lower"),
        _metric("autodiff.backward.self_s", "s", "lower"),
        _metric("autodiff.ops_per_graph_step", "count", "lower"),
        _metric("autodiff.ops_per_graph_predict", "count", "lower"),
        _metric("model.build_graph_index.calls", "count", "lower"),
        _metric("model.build_graph_index.self_s", "s", "lower"),
        _metric("model.featurize.self_s", "s", "lower"),
        _metric("model.forward_loss.self_s", "s", "lower"),
        _metric("model.predict.self_s", "s", "lower"),
        _metric("training.adam_step.calls", "count", "lower"),
        _metric("training.adam_step.self_s", "s", "lower"),
        _metric("training.evaluate.self_s", "s", "lower"),
        _metric("training.train.self_s", "s", "lower"),
        _metric("graph.validate_graph.calls", "count", "lower"),
        _metric("graph.validate_graph.self_s", "s", "lower"),
        _metric("graph.save_graph.self_s", "s", "lower"),
        _metric("graph.load_graph.self_s", "s", "lower"),
        _metric("graph.apply_ablation.self_s", "s", "lower"),
        _metric("extraction.parse_triple_batch.calls", "count", "lower"),
        _metric("extraction.parse_triple_batch.self_s", "s", "lower"),
        _metric("extraction.build_graph.self_s", "s", "lower"),
        _metric("orchestration.simulate_debate.self_s", "s", "lower"),
        _metric("orchestration.extract_triples.self_s", "s", "lower"),
        _metric("orchestration.classify_dimensions.self_s", "s", "lower"),
        _metric("orchestration.embed_texts.self_s", "s", "lower"),
        _metric("orchestration.chat_requests", "count", "lower"),
        _metric("orchestration.embed_requests", "count", "lower"),
        _metric("orchestration.retries", "count", "lower"),
        _metric("orchestration.max_in_flight", "count", "higher"),
        _metric("orchestration.EmbeddingCache.put.calls", "count", "lower"),
        _metric("orchestration.EmbeddingCache.put.self_s", "s", "lower"),
        _metric("orchestration.EmbeddingCache.load_s", "s", "lower"),
        _metric("orchestration.embed_cache.hit_ratio", "ratio", "higher"),
    ]
    + [_metric(f"cli.{s.replace('-', '_')}.bytes_written", "bytes", "lower") for s in STAGES]
    + [
        _metric("cli.load_manifest.self_s", "s", "lower"),
        _metric("trace.overhead_ratio", "ratio", "lower"),
        _metric("trace.graphs_per_s.traced", "1/s", "higher"),
        _metric("trace.graphs_per_s.untraced", "1/s", "higher"),
        _metric("trace.peak_rss_mb", "MB", "lower"),
    ]
)


class Tracer:
    """Records spans around the patched functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.current_op = -1
        self.clients: list[orchestration.BaseClient] = []
        self.texts_requested = 0
        self.texts_cached = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> tuple[int, list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.nbytes.append(0)
        stack.append(i)
        self.start[i] = perf_counter()
        return i, stack

    def _close(self, i: int, stack: list[int]) -> None:
        self.end[i] = perf_counter()
        stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        bytes_out = name.startswith("autodiff.") and name != "autodiff.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i, stack = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, stack)
            if bytes_out:
                self.nbytes[i] = out.value.nbytes
            return out

        return traced

    def _wrap_embed_texts(self, fn):
        traced = self._wrap(fn, "orchestration.embed_texts")

        @functools.wraps(fn)
        def counting(texts, client, cache=None):
            texts = list(texts)
            missing = {t for t in texts if cache is None or cache.get(t) is None}
            self.texts_requested += len(texts)
            self.texts_cached += len(texts) - len(missing)
            return traced(texts, client, cache)

        return counting

    def _wrap_make_client(self, fn):
        @functools.wraps(fn)
        def recording(config):
            client = fn(config)
            self.clients.append(client)
            return client

        return recording

    def install(self, op: int) -> None:
        """Patch every traced attribute; spans opened now carry operation id op."""
        self.current_op = op
        for owner, attr, name in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        for attr, wrap in (("embed_texts", self._wrap_embed_texts),
                           ("make_client", self._wrap_make_client)):
            original = getattr(orchestration, attr)
            self._saved.append((orchestration, attr, original))
            setattr(orchestration, attr, wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.current_op = -1

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every recorded span to an .npz file (names as a string array)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str), **self._arrays())

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-operation span counts, self times and computed output bytes."""
        a = self._arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        self_total = np.bincount(a["name_id"], weights=self_s, minlength=k)
        bytes_total = np.bincount(a["name_id"], weights=a["nbytes"], minlength=k)

        def per_op(total: np.ndarray, name: str) -> float:
            i = self._ids.get(name)
            return float(total[i]) / n_ops if i is not None else 0.0

        out: dict[str, float] = {}
        totals = {"calls": calls, "self_s": self_total, "bytes_out": bytes_total}
        for m in PER_LAYER:
            span, _, field = m["name"].rpartition(".")
            if field in totals:
                out[m["name"]] = per_op(totals[field], span)
        out["orchestration.EmbeddingCache.load_s"] = per_op(
            self_total, "orchestration.EmbeddingCache.load")

        ops = self._ops_by_context(a)
        for metric, ctx_names, denom in (
            ("autodiff.ops_per_graph_step", ("model.forward_loss", "training.train"),
             "model.forward_loss"),
            ("autodiff.ops_per_graph_predict", ("model.predict",), "model.predict"),
        ):
            n = calls[self._ids[denom]] if denom in self._ids else 0
            out[metric] = sum(ops.get(c, 0) for c in ctx_names) / n if n else 0.0

        out["orchestration.chat_requests"] = sum(c.chat_requests for c in self.clients) / n_ops
        out["orchestration.embed_requests"] = sum(c.embed_requests for c in self.clients) / n_ops
        out["orchestration.retries"] = sum(len(c.retry_delays) for c in self.clients) / n_ops
        out["orchestration.max_in_flight"] = float(
            max((c.max_in_flight for c in self.clients), default=0))
        out["orchestration.embed_cache.hit_ratio"] = (
            self.texts_cached / self.texts_requested if self.texts_requested else 0.0)
        return out

    def _ops_by_context(self, a: dict[str, np.ndarray]) -> dict[str, int]:
        """Autodiff op spans counted by their nearest enclosing context span."""
        ctx_ids = {self._ids[n] for n in _OP_CONTEXTS if n in self._ids}
        op_ids = {self._ids[f"autodiff.{op}"] for op in AD_OPS
                  if f"autodiff.{op}" in self._ids}
        names = a["name_id"].tolist()
        parents = a["parent"].tolist()
        ctx = [-1] * len(names)
        counts: dict[int, int] = {}
        for i, (nid, p) in enumerate(zip(names, parents)):
            ctx[i] = nid if nid in ctx_ids else (ctx[p] if p >= 0 else -1)
            if nid in op_ids and ctx[i] >= 0:
                counts[ctx[i]] = counts.get(ctx[i], 0) + 1
        return {self.names[c]: n for c, n in counts.items()}


class _Span:
    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> None:
        self._i, self._stack = self._tracer._open(self._nid)

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._i, self._stack)

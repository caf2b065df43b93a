"""Heterogeneous graph transformer: featurization, attention, message passing,
target-specific aggregation, type-wise pooling, and the classification head.

All parameters are typed and stored one tensor per name: key/query/message,
input and aggregation projections plus a rescale scalar per node type;
attention and message matrices per relation key; a learnable prior ``mu``
per meta-relation. ``param_layout`` lists them in order, and each is a view
into the store's one parameter vector. The homogeneous configuration
collapses everything to one node type and the single ``connected`` relation.

The forward pass runs on a batch of graphs as their disjoint union, indexed
by ``build_graph_index`` in one pass over the integer codes each graph
caches (``DebateGraph.codes``): they are concatenated with node offsets, one
``lexsort`` led by the offset target orders the edges, and the node types
and relation keys the batch contains are numbered once. PyG's
``Batch.from_data_list`` and DGL's ``dgl.batch`` batch graphs the same way.
One graph is a batch of one, so ``predict`` and training share one forward,
and its sequence of ops is fixed whatever the batch size, heads, node types
or relations. Predictions outside training steps run that forward under
``no_grad`` on runs of graphs cut by ``edge_chunks`` to at most
``PREDICT_EDGE_BUDGET`` edges, which bounds its peak memory. A typed projection is one ``matmul_by``: rows are grouped by
type once per index, each present type's weight multiplies its contiguous
block of rows, and the key, query and message projections are gathered
straight to the edges' sources or targets.
The relation matrices ``w_attn`` and ``w_msg`` are applied the same way over
edges grouped by relation key, so attention scores and messages stay
(edges, heads, head_dim) arrays and no per-edge weight copy is made.
Softmax and aggregation run over each target's contiguous segment of
incoming edges. Pooling is a segment mean per (graph, node type), zero for a
type the graph lacks, and the loss is the batch's mean cross-entropy.
Parameters of types and relations no graph of the batch has never enter the
tape and keep ``grad is None``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .graph import (
    FORWARD_RELATIONS,
    DebateGraph,
    Edge,
    NodeType,
    RelationType,
    legal_meta_relations,
)


class ModelError(Exception):
    pass


class MissingEmbedding(ModelError):
    pass


class DimMismatch(ModelError):
    pass


NODE_TYPE_ORDER = (
    NodeType.TITLE,
    NodeType.EVALUATION_DIMENSION,
    NodeType.REVIEWER_OPINION,
    NodeType.AUTHOR_OPINION,
)

HOMOGENEOUS_TYPE_KEY = "node"
CONNECTED_KEY = RelationType.CONNECTED.value

_REL_ENDPOINTS = {rel: (src, dst) for src, rel, dst in legal_meta_relations()}


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    hidden_dim: int = 128
    num_heads: int = 4
    num_layers: int = 2
    ffn_hidden: int = 128
    num_classes: int = 2
    use_inverse_edges: bool = True
    attention_scale: str = "sqrt_d"  # or "sqrt_dh"
    homogeneous: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim % self.num_heads != 0:
            raise ModelError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 1 or self.input_dim < 1:
            raise ModelError("num_layers and input_dim must be positive")
        if self.attention_scale not in ("sqrt_d", "sqrt_dh"):
            raise ModelError(f"unknown attention_scale {self.attention_scale!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

    @property
    def scale_divisor(self) -> float:
        dim = self.hidden_dim if self.attention_scale == "sqrt_d" else self.head_dim
        return math.sqrt(dim)

    @property
    def pool_width(self) -> int:
        return self.hidden_dim * (1 if self.homogeneous else len(NODE_TYPE_ORDER))


def node_type_keys(config: ModelConfig) -> list[str]:
    if config.homogeneous:
        return [HOMOGENEOUS_TYPE_KEY]
    return [t.value for t in NODE_TYPE_ORDER]


def relation_keys(config: ModelConfig) -> list[str]:
    """Ordered relation parameter keys: 13 forward (+13 inverse) or connected."""
    if config.homogeneous:
        return [CONNECTED_KEY]
    keys = [r.value for r in FORWARD_RELATIONS]
    if config.use_inverse_edges:
        keys += [f"{r.value}__inv" for r in FORWARD_RELATIONS]
    return keys


def _meta_name(rel_key: str) -> str:
    if rel_key == CONNECTED_KEY:
        return f"{HOMOGENEOUS_TYPE_KEY}__{CONNECTED_KEY}__{HOMOGENEOUS_TYPE_KEY}"
    base, _, suffix = rel_key.partition("__")
    rel = RelationType(base)
    src, dst = _REL_ENDPOINTS[rel]
    name = f"{src.value}__{rel.value}__{dst.value}"
    return name + ("__inv" if suffix == "inv" else "")


#: The attention prior's meta-relation name of every relation key, derived once.
_MU_NAMES = {rk: _meta_name(rk) for rk in
             [CONNECTED_KEY] + [r.value + s for r in FORWARD_RELATIONS for s in ("", "__inv")]}


def meta_key(config: ModelConfig, rel_key: str) -> str:
    """Meta-relation name for the attention prior of a relation key."""
    return _MU_NAMES[rel_key]


#: Every heterogeneous node-type and relation key, by its ``graph.TYPE_CODE``
#: or ``graph.REL_CODE + inverse`` code. The homogeneous config has the single
#: keys ``node`` and ``connected`` instead.
_TYPE_NAMES = [t.value for t in NodeType]
_REL_NAMES = [r.value + suffix for r in RelationType for suffix in ("", "__inv")]
#: Pooling slot (position in ``node_type_keys``) of each heterogeneous type code.
_POOL_SLOT = np.array([NODE_TYPE_ORDER.index(t) for t in NodeType], dtype=np.intp)


@dataclass
class GraphIndex:
    """Gather/scatter arrays for a batch of graphs as their disjoint union,
    under one config.

    Node i of the batch's graph b is row ``node_offsets[b] + i``. Edges are
    sorted by (graph, target, source, relation ordinal, inverse), so each
    target's incoming edges form one contiguous segment. Node types and
    relation keys are numbered by their position in ``type_keys`` and
    ``rel_keys``, which hold only those the batch contains, sorted by name;
    ``type_groups`` and ``rel_groups`` group rows by those numbers for
    ``matmul_by``. Pooling gathers the rows ``pool_rows`` so that each
    (graph, type) present is one contiguous segment of ``pool_segments``,
    summed into row ``pool_targets`` (graph * types + type) of the pooled
    matrix and scaled by ``pool_scale``, the inverse member count (a type a
    graph lacks pools to zero). ``edge_positions`` holds each sorted edge's
    position in the graphs' concatenated ``edges``; ``ordered_edges`` lists
    those edges on first use.
    """

    n_nodes: int
    node_offsets: np.ndarray
    type_keys: list[str]
    node_type: np.ndarray
    pool_rows: np.ndarray
    pool_segments: np.ndarray
    pool_targets: np.ndarray
    pool_scale: np.ndarray
    graphs: Sequence[DebateGraph]
    edge_positions: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rel_keys: list[str]
    edge_rel: np.ndarray
    segments: np.ndarray
    seg_targets: np.ndarray

    @functools.cached_property
    def ordered_edges(self) -> list[Edge]:
        edges = [e for g in self.graphs for e in g.edges]
        return [edges[i] for i in self.edge_positions.tolist()]

    @functools.cached_property
    def type_groups(self) -> ad.RowGroups:
        return ad.RowGroups(self.node_type, len(self.type_keys))

    @functools.cached_property
    def rel_groups(self) -> ad.RowGroups:
        return ad.RowGroups(self.edge_rel, len(self.rel_keys))

    @property
    def n_graphs(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self.src)


def _present(codes: np.ndarray, names: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct keys among the codes, sorted by name, and each code's position among them."""
    present = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    keys = sorted(names[c] for c in present)
    lookup = np.zeros(len(names), dtype=np.intp)
    lookup[present] = [keys.index(names[c]) for c in present]
    return keys, lookup[codes]


def _segments(sorted_ids: np.ndarray) -> np.ndarray:
    """(start, stop) rows of each run of equal ids in a sorted id array."""
    ends = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    bounds = np.concatenate(([0], ends, [len(sorted_ids)])) if len(sorted_ids) else ends
    return np.stack([bounds[:-1], bounds[1:]], axis=1)


def build_graph_index(graphs: Sequence[DebateGraph], config: ModelConfig) -> GraphIndex:
    """The index of the graphs' disjoint union, in order, built from their codes."""
    codes = [g.codes for g in graphs]
    counts = [len(type_code) for type_code, _ in codes]
    node_offsets = np.cumsum([0] + counts)
    n_nodes, n_slots = int(node_offsets[-1]), len(node_type_keys(config))
    type_code = np.concatenate([type_code for type_code, _ in codes])
    if config.homogeneous:
        type_keys, node_type = [HOMOGENEOUS_TYPE_KEY], np.zeros(n_nodes, dtype=np.intp)
        slot = node_type
    else:
        type_keys, node_type = _present(type_code, _TYPE_NAMES)
        slot = _POOL_SLOT[type_code]
    pool_key = np.repeat(n_slots * np.arange(len(graphs)), counts) + slot
    pool_rows = np.argsort(pool_key, kind="stable")
    pool_segments = _segments(pool_key[pool_rows])

    rows = np.concatenate([edge_rows + (off, off, 0)
                           for (_, edge_rows), off in zip(codes, node_offsets.tolist())])
    kept = np.arange(len(rows)) if config.use_inverse_edges \
        else np.flatnonzero(rows[:, 2] % 2 == 0)
    # (dst, src, 2 * relation ordinal + inverse) orders like (dst, src, ordinal,
    # inverse), and the offset dst keeps the graphs in order
    order = kept[np.lexsort(rows[kept].T[::-1])]
    dst, src, rel_code = rows[order].T.copy()
    if config.homogeneous:
        rel_keys, edge_rel = [CONNECTED_KEY], np.zeros(len(order), dtype=np.intp)
    else:
        rel_keys, edge_rel = _present(rel_code, _REL_NAMES)
    segments = _segments(dst)

    return GraphIndex(
        n_nodes=n_nodes,
        node_offsets=node_offsets,
        type_keys=type_keys,
        node_type=node_type,
        pool_rows=pool_rows,
        pool_segments=pool_segments,
        pool_targets=pool_key[pool_rows[pool_segments[:, 0]]],
        pool_scale=1.0 / np.maximum(np.bincount(pool_key, minlength=n_slots * len(graphs)), 1),
        graphs=tuple(graphs),
        edge_positions=order,
        src=src,
        dst=dst,
        rel_keys=rel_keys,
        edge_rel=edge_rel,
        segments=segments,
        seg_targets=dst[segments[:, 0]],
    )


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter's (name, shape, init) in ``init_params`` order, with no
    random draws. ``init`` is "xavier" (uniform, fans from the matrix shape),
    "zeros" or "ones"."""
    d, dh = config.hidden_dim, config.head_dim
    types = node_type_keys(config)
    rels = relation_keys(config)
    layout = [(f"w_in/{t}", (config.input_dim, d), "xavier") for t in types]
    for layer in range(config.num_layers):
        for t in types:
            layout += [(f"layer{layer}/{kind}/{t}", (d, d), "xavier")
                       for kind in ("key", "query", "msg")]
        for rk in rels:
            layout += [(f"layer{layer}/w_attn/{rk}", (dh, dh), "xavier"),
                       (f"layer{layer}/w_msg/{rk}", (dh, dh), "xavier"),
                       (f"layer{layer}/mu/{meta_key(config, rk)}", (), "ones")]
        for t in types:
            layout += [(f"layer{layer}/agg/{t}", (d, d), "xavier"),
                       (f"layer{layer}/rescale/{t}", (), "ones")]
    return layout + [
        ("head/w1", (config.pool_width, config.ffn_hidden), "xavier"),
        ("head/b1", (config.ffn_hidden,), "zeros"),
        ("head/w2", (config.ffn_hidden, config.num_classes), "xavier"),
        ("head/b2", (config.num_classes,), "zeros"),
    ]


def init_params(config: ModelConfig, rng_seed: int | None = None) -> ParamStore:
    """Xavier-uniform weights, zero biases, unit priors and rescales, drawn in
    ``param_layout`` order into one parameter vector."""
    rng = np.random.default_rng(config.seed if rng_seed is None else rng_seed)
    layout = param_layout(config)
    params = ParamStore([(name, shape) for name, shape, _init in layout])
    for (_name, shape, init), (_, tensor) in zip(layout, params.items()):
        if init == "xavier":
            tensor.value[...] = _xavier(rng, *shape)
        elif init == "ones":
            tensor.value[...] = 1.0
    return params


def _typed(x: Tensor, params: ParamStore, prefix: str, index: GraphIndex,
           take: np.ndarray | None = None) -> Tensor:
    """Row i of x times the weight ``prefix/<type of node i>``; the rows ``take`` if given."""
    ws = [params[f"{prefix}/{t}"] for t in index.type_keys]
    return ad.matmul_by(x, ws, index.type_groups, take)


def _stacked(params: ParamStore, prefix: str, keys: Sequence[str], ids: np.ndarray) -> Tensor:
    """The scalar parameters ``prefix/key`` stacked over keys, one per edge (or node) by key id."""
    return ad.rows(ad.stack([params[f"{prefix}/{k}"] for k in keys]), ids)


def _embed(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[Mapping[int, np.ndarray]],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex,
) -> Tensor:
    """Initial node states of a batch: each embedding row times its type's projection."""
    emb = np.empty((index.n_nodes, config.input_dim), dtype=np.float64)
    for g, rows, offset in zip(graphs, embeddings, index.node_offsets.tolist()):
        for n in g.nodes:
            if n.id not in rows:
                raise MissingEmbedding(f"no embedding for node {n.id} of {g.graph_id}")
            row = np.asarray(rows[n.id], dtype=np.float64)
            if row.shape != (config.input_dim,):
                raise DimMismatch(
                    f"embedding of node {n.id} has shape {row.shape}, "
                    f"expected ({config.input_dim},)"
                )
            emb[offset + n.id] = row
    return _typed(Tensor(emb), params, "w_in", index)


def featurize(
    g: DebateGraph,
    embeddings: Mapping[int, np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> Tensor:
    """Initial node representations: embedding row times the type's input projection."""
    return _embed([g], [embeddings], params, config, index or build_graph_index([g], config))


def _layer(
    h: Tensor, params: ParamStore, layer: int, config: ModelConfig, index: GraphIndex
) -> tuple[Tensor, np.ndarray]:
    """One HGT layer: the next (N, d) node states and the (E, heads) attention.

    Each (E, d) product goes straight into the op that consumes it, and the
    messages are projected only once the attention is done. Under
    ``no_grad``, where no tape keeps them, the forward then holds at most
    two (E, d) arrays at a time: its peak memory per edge is under half
    that of making the key, query and message projections first.
    """
    if index.n_edges == 0:
        return h, np.zeros((0, config.num_heads))
    p = f"layer{layer}"
    heads = (index.n_edges, config.num_heads, config.head_dim)

    def projected(name: str, rows: np.ndarray) -> Tensor:
        return ad.reshape(_typed(h, params, f"{p}/{name}", index, rows), heads)

    def by_relation(x: Tensor, name: str) -> Tensor:
        ws = [params[f"{p}/{name}/{rk}"] for rk in index.rel_keys]
        return ad.matmul_by(x, ws, index.rel_groups)

    scores = ad.rowdot(by_relation(projected("key", index.src), "w_attn"),
                       projected("query", index.dst))
    mu = _stacked(params, f"{p}/mu", [_MU_NAMES[rk] for rk in index.rel_keys], index.edge_rel)
    scores = ad.scale(ad.colscale(scores, mu), 1.0 / config.scale_divisor)
    attn = ad.segment_softmax(scores, index.segments)

    messages = ad.colscale(by_relation(projected("msg", index.src), "w_msg"), attn)
    h_tilde = ad.segment_sum(messages, index.segments, index.seg_targets, index.n_nodes)
    h_tilde = ad.reshape(h_tilde, (index.n_nodes, config.hidden_dim))
    rescale = _stacked(params, f"{p}/rescale", index.type_keys, index.node_type)
    update = _typed(ad.colscale(h_tilde, rescale), params, f"{p}/agg", index)
    return ad.add(update, h), attn.value


def hgt_attention(
    h_prev: Tensor | np.ndarray,
    g: DebateGraph,
    params: ParamStore,
    layer: int,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> tuple[np.ndarray, GraphIndex]:
    """Attention weights as an (E, num_heads) array over the index's edge order."""
    index = index or build_graph_index([g], config)
    h_prev = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
    return _layer(h_prev, params, layer, config, index)[1], index


def hgt_layer(
    h_prev: Tensor,
    g: DebateGraph,
    params: ParamStore,
    layer: int,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> Tensor:
    return _layer(h_prev, params, layer, config, index or build_graph_index([g], config))[0]


@dataclass
class ForwardTrace:
    layer_outputs: list[np.ndarray] = field(default_factory=list)
    attention: list[np.ndarray] = field(default_factory=list)
    edge_order: list[Edge] = field(default_factory=list)
    pooled: dict[str, np.ndarray] = field(default_factory=dict)
    probs: np.ndarray | None = None


def _forward(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[Mapping[int, np.ndarray]],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
    trace: ForwardTrace | None = None,
) -> Tensor:
    """(graphs, classes) probabilities of a batch; fills ``trace`` for a one-graph batch."""
    index = index or build_graph_index(graphs, config)
    h = _embed(graphs, embeddings, params, config, index)
    if trace is not None:
        trace.layer_outputs, trace.attention = [h.value], []
    for layer in range(config.num_layers):
        h, attn = _layer(h, params, layer, config, index)
        if trace is not None:
            trace.layer_outputs.append(h.value)
            trace.attention.append(attn)

    pooled = ad.segment_sum(ad.rows(h, index.pool_rows), index.pool_segments,
                            index.pool_targets, len(index.pool_scale))
    pooled = ad.colscale(pooled, Tensor(index.pool_scale))
    h_concat = ad.reshape(pooled, (index.n_graphs, config.pool_width))
    z = ad.relu(ad.add(ad.matmul(h_concat, params["head/w1"]), params["head/b1"]))
    logits = ad.add(ad.matmul(z, params["head/w2"]), params["head/b2"])
    probs = ad.softmax(logits)
    if trace is not None:
        trace.edge_order = list(index.ordered_edges)
        trace.pooled = dict(zip(node_type_keys(config), pooled.value))
        trace.probs = probs.value[0]
    return probs


def predict(
    g: DebateGraph,
    embeddings: Mapping[int, np.ndarray],
    params: ParamStore,
    config: ModelConfig,
) -> tuple[np.ndarray, ForwardTrace]:
    """Class probabilities and the forward trace; pure given its inputs."""
    trace = ForwardTrace()
    with ad.no_grad():
        probs = _forward([g], [embeddings], params, config, trace=trace)
    return probs.value[0].copy(), trace


#: Most edges that one prediction forward takes at once (``edge_chunks``).
#: The forward's kernels are bound by memory bytes, not FLOPs, and its peak
#: memory grows with the edges it holds (about 1.7 KB per edge at hidden size
#: 64), so a larger chunk gains little speed and costs peak memory.
PREDICT_EDGE_BUDGET = 1024


def edge_chunks(graphs: Sequence[DebateGraph]) -> list[slice]:
    """The graphs cut, in order, into runs of at most ``PREDICT_EDGE_BUDGET``
    edges in all; a graph with more edges than that is a run by itself."""
    chunks, start, edges = [], 0, 0
    for i, g in enumerate(graphs):
        if i > start and edges + len(g.edges) > PREDICT_EDGE_BUDGET:
            chunks.append(slice(start, i))
            start, edges = i, 0
        edges += len(g.edges)
    if start < len(graphs):
        chunks.append(slice(start, len(graphs)))
    return chunks


def predict_batch(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[Mapping[int, np.ndarray]],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> np.ndarray:
    """(graphs, classes) probabilities of a batch, from one forward."""
    with ad.no_grad():
        return _forward(graphs, embeddings, params, config, index).value


def forward_loss(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[Mapping[int, np.ndarray]],
    params: ParamStore,
    config: ModelConfig,
    labels: Sequence[int],
    index: GraphIndex | None = None,
) -> Tensor:
    """Mean cross-entropy over a batch of graphs (differentiable); ``index``
    is the batch's index."""
    return ad.cross_entropy(_forward(graphs, embeddings, params, config, index), labels)

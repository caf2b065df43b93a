"""Heterogeneous graph transformer: featurization, attention, message passing,
target-specific aggregation, type-wise pooling, and the classification head.

All parameters are typed and stored one tensor per name: key/query/message,
input and aggregation projections plus a rescale scalar per node type;
attention and message matrices per relation key; a learnable prior ``mu``
per meta-relation. The homogeneous configuration collapses everything to
one node type and the single ``connected`` relation.

The forward pass is the same fixed sequence of ops whatever the number of
heads, node types or relations. A ``GraphIndex`` numbers each node by its
type and each edge by its relation key, counting only those the graph
contains. A typed projection multiplies all node rows by the present
types' weights laid side by side, then gathers each node's own block.
Per-relation matrices and priors are stacked over the present keys and
gathered once per edge, so attention scores and messages are batched
matmuls over (edges, heads, head_dim). Softmax and aggregation run over
each target's contiguous segment of incoming edges. Parameters of types and
relations the graph lacks never enter the tape and keep ``grad is None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .graph import (
    FORWARD_RELATIONS,
    REL_ORDINAL,
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


def meta_key(config: ModelConfig, rel_key: str) -> str:
    """Meta-relation name for the attention prior of a relation key."""
    if rel_key == CONNECTED_KEY:
        return f"{HOMOGENEOUS_TYPE_KEY}__{CONNECTED_KEY}__{HOMOGENEOUS_TYPE_KEY}"
    base, _, suffix = rel_key.partition("__")
    rel = RelationType(base)
    src, dst = _REL_ENDPOINTS[rel]
    name = f"{src.value}__{rel.value}__{dst.value}"
    return name + ("__inv" if suffix == "inv" else "")


def _edge_rel_key(e: Edge, config: ModelConfig) -> str:
    if config.homogeneous:
        return CONNECTED_KEY
    return e.relation.value + ("__inv" if e.inverse else "")


@dataclass
class GraphIndex:
    """Gather/scatter arrays for one graph under one config.

    Edges are sorted by (target, source, relation ordinal, inverse), so each
    target's incoming edges form one contiguous segment. Node types and
    relation keys are numbered by their position in ``type_keys`` and
    ``rel_keys``, which hold only those the graph contains.
    """

    n_nodes: int
    type_keys: list[str]
    node_type: np.ndarray
    pool: np.ndarray
    ordered_edges: list[Edge]
    src: np.ndarray
    dst: np.ndarray
    rel_keys: list[str]
    edge_rel: np.ndarray
    segments: list[tuple[int, int]]
    seg_targets: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.ordered_edges)


def _ids(keys: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct keys, sorted, and each key's position among them."""
    distinct = sorted(set(keys))
    pos = {k: i for i, k in enumerate(distinct)}
    return distinct, np.array([pos[k] for k in keys], dtype=np.intp)


def build_graph_index(g: DebateGraph, config: ModelConfig) -> GraphIndex:
    nodes = sorted(g.nodes, key=lambda n: n.id)
    node_keys = [HOMOGENEOUS_TYPE_KEY if config.homogeneous else n.node_type.value
                 for n in nodes]
    type_keys, node_type = _ids(node_keys)
    # pool[t] @ h is the mean over the nodes of type t, zero when t is absent
    members = np.array(node_type_keys(config))[:, None] == np.array(node_keys)[None, :]
    pool = members / np.maximum(members.sum(axis=1, keepdims=True), 1)

    edges = [e for e in g.edges if config.use_inverse_edges or not e.inverse]
    edges.sort(key=lambda e: (e.dst, e.src, REL_ORDINAL[e.relation], e.inverse))
    rel_keys, edge_rel = _ids([_edge_rel_key(e, config) for e in edges])
    dst = np.array([e.dst for e in edges], dtype=np.intp)
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    stops = np.append(starts[1:], len(edges))

    return GraphIndex(
        n_nodes=len(nodes),
        type_keys=type_keys,
        node_type=node_type,
        pool=pool,
        ordered_edges=edges,
        src=np.array([e.src for e in edges], dtype=np.intp),
        dst=dst,
        rel_keys=rel_keys,
        edge_rel=edge_rel,
        segments=list(zip(starts.tolist(), stops.tolist())),
        seg_targets=dst[starts],
    )


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(config: ModelConfig, rng_seed: int | None = None) -> ParamStore:
    """Xavier-uniform weights, zero biases, unit priors and rescales."""
    rng = np.random.default_rng(config.seed if rng_seed is None else rng_seed)
    d, dh = config.hidden_dim, config.head_dim
    params = ParamStore()
    types = node_type_keys(config)
    rels = relation_keys(config)

    for t in types:
        params.add(f"w_in/{t}", _xavier(rng, config.input_dim, d))
    for layer in range(config.num_layers):
        for t in types:
            params.add(f"layer{layer}/key/{t}", _xavier(rng, d, d))
            params.add(f"layer{layer}/query/{t}", _xavier(rng, d, d))
            params.add(f"layer{layer}/msg/{t}", _xavier(rng, d, d))
        for rk in rels:
            params.add(f"layer{layer}/w_attn/{rk}", _xavier(rng, dh, dh))
            params.add(f"layer{layer}/w_msg/{rk}", _xavier(rng, dh, dh))
            params.add(f"layer{layer}/mu/{meta_key(config, rk)}", np.asarray(1.0))
        for t in types:
            params.add(f"layer{layer}/agg/{t}", _xavier(rng, d, d))
            params.add(f"layer{layer}/rescale/{t}", np.asarray(1.0))
    params.add("head/w1", _xavier(rng, config.pool_width, config.ffn_hidden))
    params.add("head/b1", np.zeros(config.ffn_hidden))
    params.add("head/w2", _xavier(rng, config.ffn_hidden, config.num_classes))
    params.add("head/b2", np.zeros(config.num_classes))
    return params


def _typed(x: Tensor, params: ParamStore, prefix: str, index: GraphIndex) -> Tensor:
    """Row i of x times the weight of node i's type.

    One matmul against the present types' weights side by side, viewed as
    (N * types, d) rows, then one gather of row i * types + type(i).
    """
    n_types = len(index.type_keys)
    w = ad.concat([params[f"{prefix}/{t}"] for t in index.type_keys], axis=1)
    y = ad.reshape(ad.matmul(x, w), (index.n_nodes * n_types, -1))
    return ad.rows(y, np.arange(index.n_nodes) * n_types + index.node_type)


def _stacked(params: ParamStore, prefix: str, keys: Sequence[str], ids: np.ndarray) -> Tensor:
    """The parameters ``prefix/key`` stacked over keys, one per edge (or node) by key id."""
    return ad.rows(ad.stack([params[f"{prefix}/{k}"] for k in keys]), ids)


def featurize(
    g: DebateGraph,
    embeddings: Mapping[int, np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> Tensor:
    """Initial node representations: embedding row times the type's input projection."""
    index = index or build_graph_index(g, config)
    emb = np.empty((index.n_nodes, config.input_dim), dtype=np.float64)
    for n in g.nodes:
        if n.id not in embeddings:
            raise MissingEmbedding(f"no embedding for node {n.id} of {g.graph_id}")
        row = np.asarray(embeddings[n.id], dtype=np.float64)
        if row.shape != (config.input_dim,):
            raise DimMismatch(
                f"embedding of node {n.id} has shape {row.shape}, expected ({config.input_dim},)"
            )
        emb[n.id] = row
    return _typed(Tensor(emb), params, "w_in", index)


def _layer(
    h: Tensor, params: ParamStore, layer: int, config: ModelConfig, index: GraphIndex
) -> tuple[Tensor, np.ndarray]:
    """One HGT layer: the next (N, d) node states and the (E, heads) attention."""
    if index.n_edges == 0:
        return h, np.zeros((0, config.num_heads))
    p = f"layer{layer}"
    heads = (index.n_edges, config.num_heads, config.head_dim)
    k_src = ad.reshape(ad.rows(_typed(h, params, f"{p}/key", index), index.src), heads)
    q_dst = ad.reshape(ad.rows(_typed(h, params, f"{p}/query", index), index.dst), heads)
    m_src = ad.reshape(ad.rows(_typed(h, params, f"{p}/msg", index), index.src), heads)

    mu_keys = [meta_key(config, rk) for rk in index.rel_keys]
    w_attn = _stacked(params, f"{p}/w_attn", index.rel_keys, index.edge_rel)
    scores = ad.rowdot(ad.matmul(k_src, w_attn), q_dst)
    scores = ad.colscale(scores, _stacked(params, f"{p}/mu", mu_keys, index.edge_rel))
    scores = ad.scale(scores, 1.0 / config.scale_divisor)
    attn = ad.segment_softmax(scores, index.segments)

    messages = ad.matmul(m_src, _stacked(params, f"{p}/w_msg", index.rel_keys, index.edge_rel))
    h_tilde = ad.segment_sum(ad.colscale(messages, attn), index.segments, index.seg_targets,
                             index.n_nodes)
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
    index = index or build_graph_index(g, config)
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
    return _layer(h_prev, params, layer, config, index or build_graph_index(g, config))[0]


@dataclass
class ForwardTrace:
    layer_outputs: list[np.ndarray] = field(default_factory=list)
    attention: list[np.ndarray] = field(default_factory=list)
    edge_order: list[Edge] = field(default_factory=list)
    pooled: dict[str, np.ndarray] = field(default_factory=dict)
    probs: np.ndarray | None = None


def _forward(
    g: DebateGraph,
    embeddings: Mapping[int, np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
    trace: ForwardTrace | None = None,
) -> Tensor:
    """Class probabilities; fills ``trace`` when one is given."""
    index = index or build_graph_index(g, config)
    h = featurize(g, embeddings, params, config, index)
    layer_outputs, attention = [h.value], []
    for layer in range(config.num_layers):
        h, attn = _layer(h, params, layer, config, index)
        layer_outputs.append(h.value)
        attention.append(attn)

    pooled = ad.matmul(Tensor(index.pool), h)
    h_concat = ad.reshape(pooled, (config.pool_width,))
    z = ad.relu(ad.add(ad.matmul(h_concat, params["head/w1"]), params["head/b1"]))
    logits = ad.add(ad.matmul(z, params["head/w2"]), params["head/b2"])
    probs = ad.softmax(logits)
    if trace is not None:
        trace.layer_outputs = layer_outputs
        trace.attention = attention
        trace.edge_order = list(index.ordered_edges)
        trace.pooled = dict(zip(node_type_keys(config), pooled.value))
        trace.probs = probs.value
    return probs


def predict(
    g: DebateGraph,
    embeddings: Mapping[int, np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Class probabilities and the forward trace; pure given its inputs."""
    trace = ForwardTrace()
    with ad.no_grad():
        probs = _forward(g, embeddings, params, config, index, trace)
    return probs.value.copy(), trace


def forward_loss(
    g: DebateGraph,
    embeddings: Mapping[int, np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    label_index: int,
    index: GraphIndex | None = None,
) -> Tensor:
    """Cross-entropy loss tensor for one graph (differentiable)."""
    return ad.cross_entropy(_forward(g, embeddings, params, config, index), label_index)

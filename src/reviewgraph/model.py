"""Heterogeneous graph transformer: featurization, attention, message passing,
target-specific aggregation, type-wise pooling, and the classification head.

All parameters are typed: key/query/message, input and aggregation
projections plus a rescale scalar per node type; attention and message
matrices per relation key; a learnable prior ``mu`` per meta-relation.
``param_layout`` lists them as named tensors of the store's one vector,
each kind of a layer at equal spacing, so the forward reads the kind as one
family (``ParamStore.family("layer0/key")``), one tape leaf with a row per
node type or relation. The config's ``ablation`` picks the model: the
homogeneous ablation's has one node type and the single ``connected``
relation, and every other mode's is typed. The head has a column per label.

The forward pass runs on a batch of graphs as their disjoint union, indexed
by ``build_graph_index`` in one pass over the integer codes each graph
caches (``DebateGraph.codes``): they are concatenated with node offsets, one
stable sort led by the offset target orders the edges, and each node type
and relation is numbered by its row in the parameter families. PyG's
``Batch.from_data_list`` and DGL's ``dgl.batch`` batch graphs the same way.
Each graph's input rows are one matrix in node-id order (``node_features``),
and a batch's are their concatenation, as PyG batches each graph's ``Data.x``.
One graph is a batch of one, so ``predict`` and training share one forward,
and its sequence of ops is fixed whatever the batch size, heads, node types
or relations. Predictions outside training steps run that forward under
``no_grad`` on runs of graphs cut by ``edge_chunks`` to at most
``PREDICT_EDGE_BUDGET`` edges, which bounds its peak memory.

The forward keeps node states type-major, in (type, graph, id) order, so a
typed projection is one matrix product per present type on its contiguous
block of rows, and the key, query and message products are gathered
straight to the edges' sources or targets. The relation matrices ``w_attn``
and ``w_msg`` are applied the same way to the edges in relation-major
order, each relation's contiguous block at once, and their products are
taken back to target order, so attention scores and messages stay (edges,
heads, head_dim) arrays and no per-edge weight copy is made. PyG's
``HeteroLinear(is_sorted=True)`` and ``pyg_lib.ops.segment_matmul`` multiply
type-sorted rows the same way. The index's gathers also say which rows sum
into which: the gather that picks each edge's target query groups the
attention softmax and the message sum, whose runs are each target's
incoming edges, and the gather from each layout row to its (graph, type)
slot groups pooling. Each such sum adds its rows from zero in row order, as
``np.add.at`` does. Pooling is a mean per (node type, graph), each a
contiguous run of the layout, zero for a type the graph lacks, and the loss
is the batch's mean cross-entropy.

Each HGT layer is one tape op (``_layer``) whose parents are its input
states and its eight weight families, with a backward written out in NumPy;
with the input projection, pooling, the head and the loss, a two-layer step
records 13 ops. Its results and gradients are the bytes that a chain of one
op per step gives.
``featurize``, ``hgt_layer``, ``hgt_attention`` and ``ForwardTrace`` answer
in node-id order and the index's target-sorted edge order. Rows of types
and relations no graph of the batch has get no gradient, so an Adam step
leaves them as they are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .graph import (
    DECISION_LABELS,
    FORWARD_RELATIONS,
    AblationMode,
    DebateGraph,
    Edge,
    NodeType,
    RelationType,
    legal_meta_relations,
)


class ModelError(Exception):
    pass


class DimMismatch(ModelError):
    pass


#: Node types in pooling and parameter order: ``NodeType``'s own, so a type's
#: ``graph.TYPE_CODE`` is its position in ``node_type_keys``.
NODE_TYPE_ORDER = tuple(NodeType)

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
    use_inverse_edges: bool = True
    attention_scale: str = "sqrt_d"  # or "sqrt_dh"
    #: The ``AblationMode`` value the model is trained and evaluated under.
    ablation: str = AblationMode.FULL.value
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_heads, self.hidden_dim, self.ffn_hidden) < 1:
            raise ModelError("num_heads, hidden_dim and ffn_hidden must be positive")
        if self.hidden_dim % self.num_heads != 0:
            raise ModelError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.num_layers < 1 or self.input_dim < 1:
            raise ModelError("num_layers and input_dim must be positive")
        if self.attention_scale not in ("sqrt_d", "sqrt_dh"):
            raise ModelError(f"unknown attention_scale {self.attention_scale!r}")
        if self.seed < 0:
            raise ModelError(f"seed must be at least 0, not {self.seed}")
        modes = [m.value for m in AblationMode]
        if self.ablation not in modes:
            raise ModelError(f"unknown ablation {self.ablation!r}, not one of {', '.join(modes)}")

    @property
    def homogeneous(self) -> bool:
        """The homogeneous ablation's model: one node type and the ``connected`` relation."""
        return self.ablation == AblationMode.HOMOGENEOUS.value

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


#: Every heterogeneous relation key, by its ``graph.REL_CODE + inverse`` code.
#: The homogeneous config has the single key ``connected`` instead.
_REL_NAMES = [r.value + suffix for r in RelationType for suffix in ("", "__inv")]


@functools.lru_cache(maxsize=32)
def _rel_rows(config: ModelConfig) -> np.ndarray:
    """Each relation code's row in the relation families, its position in
    ``relation_keys``: every code is ``connected``'s row 0 in the homogeneous
    model, and a code with no row in the typed one, ``connected``'s, is -1."""
    if config.homogeneous:
        return np.zeros(len(_REL_NAMES), dtype=np.intp)
    keys = relation_keys(config)
    return np.array([keys.index(k) if k in keys else -1 for k in _REL_NAMES], dtype=np.intp)


@dataclass
class GraphIndex:
    """Gather/scatter arrays for a batch of graphs as their disjoint union,
    under one config.

    Node i of the batch's graph b is row ``node_offsets[b] + i``. Edges are
    sorted by (graph, target, source, relation ordinal, inverse), so each
    target's incoming edges form one contiguous segment, ``segments``. Node
    types and relations are numbered by their row in the parameter families,
    ``node_type_keys`` and ``relation_keys`` order, whether the batch has
    them or not. ``edge_positions`` holds each sorted edge's position in the
    graphs' concatenated ``edges``; ``ordered_edges`` lists those edges on
    first use.

    The forward keeps node states in the type-major layout: ``node_order``
    lists the node rows in (type, graph, id) order, the rows of type j are
    layout rows ``type_bounds[j]:type_bounds[j + 1]``, and ``node_pos`` is
    each node row's layout row. Pooling sums each layout row into its row
    ``pool_slots`` (graph * types + type) of the pooled matrix, where each
    (type, graph) is a contiguous run, and scales by ``pool_scale``, the
    inverse member count (a type a graph lacks pools to zero). Likewise
    ``edge_order`` lists the sorted edges in (relation, target, source)
    order, the relation-major order, and the edges of relation j are its
    rows ``rel_bounds[j]:rel_bounds[j + 1]``; a type or relation the batch
    lacks has an empty block. The gathers the forward makes through these
    orders, and each layout row's type (``type_ids``), are built once per
    index, on first use. A sum through a gather adds its rows from zero in
    row order, and through ``src_rows`` each source's edges in target
    order, so ``dst_rows`` sums the query gradient, the attention softmax's
    normalizers and the message sum alike.
    """

    n_nodes: int
    node_offsets: np.ndarray
    node_type: np.ndarray
    pool_slots: ad.Gather
    pool_scale: np.ndarray
    graphs: Sequence[DebateGraph]
    edge_positions: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    edge_rel: np.ndarray
    node_order: np.ndarray
    node_pos: np.ndarray
    type_bounds: list[int]
    edge_order: np.ndarray
    rel_bounds: list[int]

    @functools.cached_property
    def ordered_edges(self) -> list[Edge]:
        edges = [e for g in self.graphs for e in g.edges]
        return [edges[i] for i in self.edge_positions.tolist()]

    @functools.cached_property
    def src_rows(self) -> ad.Gather:
        """The layout rows of the edges' sources, in relation-major order.

        Each source's gradient sums its edges in target order, as a gather
        over the target-sorted edges would.
        """
        return ad.Gather(self.node_pos[self.src[self.edge_order]], self.n_nodes,
                         order=self.to_target)

    @functools.cached_property
    def dst_rows(self) -> ad.Gather:
        """The layout rows of the edges' targets, in target order: each
        target's incoming edges are one run of it."""
        return ad.Gather(self.node_pos[self.dst], self.n_nodes)

    @functools.cached_property
    def segments(self) -> np.ndarray:
        """(start, stop) of each target's run of incoming edges, in target order."""
        starts, lengths = self.dst_rows.runs()
        return np.stack([starts, starts + lengths], axis=1)

    @functools.cached_property
    def to_target(self) -> np.ndarray:
        """The relation-major rows in target order: a permutation."""
        return _inverse(self.edge_order)

    @functools.cached_property
    def type_ids(self) -> np.ndarray:
        """Each layout row's type number."""
        return self.node_type[self.node_order]

    @property
    def n_graphs(self) -> int:
        return len(self.node_offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self.src)


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The inverse of a permutation: ``_inverse(p)[p[i]] == i``."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def _blocks(ids: np.ndarray, n_ids: int) -> tuple[np.ndarray, list[int]]:
    """The stable order that sorts ids in [0, n_ids), and each id's bounds in it."""
    order = np.argsort(ids, kind="stable")
    return order, np.searchsorted(ids[order], np.arange(n_ids + 1)).tolist()


def build_graph_index(graphs: Sequence[DebateGraph], config: ModelConfig) -> GraphIndex:
    """The index of the graphs' disjoint union, in order, built from their codes."""
    codes = [g.codes for g in graphs]
    counts = [len(type_code) for type_code, _ in codes]
    node_offsets = np.cumsum([0] + counts)
    n_nodes, n_types = int(node_offsets[-1]), len(node_type_keys(config))
    # a node's TYPE_CODE is its row in the typed families; the homogeneous have one
    node_type = np.zeros(n_nodes, dtype=np.intp) if config.homogeneous \
        else np.concatenate([type_code for type_code, _ in codes])
    pool_key = np.repeat(n_types * np.arange(len(graphs)), counts) + node_type
    node_order, type_bounds = _blocks(node_type, n_types)

    rows = np.concatenate([edge_rows for _, edge_rows in codes])
    rows[:, :2] += np.repeat(node_offsets[:-1], [len(e) for _, e in codes])[:, None]
    kept = np.arange(len(rows)) if config.use_inverse_edges \
        else np.flatnonzero(rows[:, 2] % 2 == 0)
    # (dst, src, 2 * relation ordinal + inverse) orders like (dst, src, ordinal,
    # inverse), and the offset dst keeps the graphs in order; one integer key
    # sorts faster than a lexsort of the three
    dst, src, rel_code = rows[kept].T
    key = (dst * n_nodes + src) * len(_REL_NAMES) + rel_code
    order = kept[np.argsort(key, kind="stable")]
    dst, src, rel_code = rows[order].T.copy()
    edge_rel = _rel_rows(config)[rel_code]
    if len(edge_rel) and edge_rel.min() < 0:
        g = next(g for g in graphs if RelationType.CONNECTED in {e.relation for e in g.edges})
        raise ModelError(f"{g.graph_id}: the connected relation of a homogenized graph "
                         "needs the homogeneous model (the homogeneous ablation)")
    edge_order, rel_bounds = _blocks(edge_rel, len(relation_keys(config)))

    return GraphIndex(
        n_nodes=n_nodes,
        node_offsets=node_offsets,
        node_type=node_type,
        pool_slots=ad.Gather(pool_key[node_order], n_types * len(graphs)),
        pool_scale=1.0 / np.maximum(np.bincount(pool_key, minlength=n_types * len(graphs)), 1),
        graphs=tuple(graphs),
        edge_positions=order,
        src=src,
        dst=dst,
        edge_rel=edge_rel,
        node_order=node_order,
        node_pos=_inverse(node_order),
        type_bounds=type_bounds,
        edge_order=edge_order,
        rel_bounds=rel_bounds,
    )


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
        ("head/w2", (config.ffn_hidden, len(DECISION_LABELS)), "xavier"),
        ("head/b2", (len(DECISION_LABELS),), "zeros"),
    ]


@functools.lru_cache(maxsize=32)
def _init_plan(config: ModelConfig) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """The store's (name, shape) list, and each tensor's size, xavier limit
    (0 for a filled tensor) and whether it is all ones, in ``param_layout``
    order."""
    layout = param_layout(config)
    sizes = np.array([math.prod(shape) for _name, shape, _init in layout], dtype=np.intp)
    limits = np.array([math.sqrt(6.0 / sum(shape)) if init == "xavier" else 0.0
                       for _name, shape, init in layout])
    ones = np.array([init == "ones" for _name, _shape, init in layout])
    return tuple((name, shape) for name, shape, _init in layout), sizes, limits, ones


def init_params(config: ModelConfig, rng_seed: int | None = None) -> ParamStore:
    """Xavier-uniform weights, zero biases, unit priors and rescales, drawn in
    ``param_layout`` order into one parameter vector.

    One draw of uniform [0, 1) numbers u covers every xavier entry, each
    mapped to its tensor's [-limit, limit) as ``Generator.uniform`` maps it,
    so the vector holds the bytes that one ``uniform`` call per tensor gives.
    """
    rng = np.random.default_rng(config.seed if rng_seed is None else rng_seed)
    shapes, sizes, limits, ones = _init_plan(config)
    xavier = limits > 0
    flat = np.zeros(sizes.sum())
    flat[np.repeat(xavier, sizes)] = rng.random(sizes[xavier].sum())
    # low + (high - low) * u with low = -high, in place: the product is 2 * (high * u)
    # and adding low subtracts high, both exactly, so no other vector is held
    high = np.repeat(limits, sizes)
    flat *= high
    flat *= 2.0
    flat -= high
    flat[np.repeat(ones, sizes)] = 1.0
    return ParamStore(shapes, flat)


def node_features(g: DebateGraph, rows: np.ndarray, input_dim: int) -> np.ndarray:
    """The graph's input rows as one (nodes, input_dim) float64 matrix in
    node-id order: ``rows`` as it is, once its shape is checked."""
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.shape != (g.num_nodes, input_dim):
        raise DimMismatch(f"embedding matrix of {g.graph_id} has shape {matrix.shape}, "
                          f"expected ({g.num_nodes}, {input_dim})")
    return matrix


def _embed(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex,
) -> Tensor:
    """Initial node states of a batch, type-major: each embedding row times
    its type's projection; row ``offset + i`` of the batch is node i's."""
    x = np.concatenate([node_features(g, rows, config.input_dim)
                        for g, rows in zip(graphs, embeddings)])
    return ad.block_matmul(Tensor(x.take(index.node_order, axis=0)), params.family("w_in"),
                           index.type_bounds)


def featurize(
    g: DebateGraph,
    embeddings: np.ndarray,
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> Tensor:
    """Initial node representations, in node-id order: embedding row times
    the type's input projection."""
    index = index or build_graph_index([g], config)
    return ad.rows(_embed([g], [embeddings], params, config, index), index.node_pos)


#: The weight families of one layer, the parents of its tape op after its input.
_LAYER_KINDS = ("key", "query", "msg", "w_attn", "w_msg", "mu", "agg", "rescale")


def _layer(
    h: Tensor, params: ParamStore, layer: int, config: ModelConfig, index: GraphIndex,
    cache: ad.BinCache | None = None,
) -> tuple[Tensor, np.ndarray]:
    """One HGT layer on type-major node states as one tape op: the next
    (N, d) states, in the same layout, and the (E, heads) attention in
    target order. The op's parents are h and the layer's eight weight
    families.

    Each type's key, query and message weight multiplies its contiguous
    block of node rows, and the product's rows are gathered to the edges:
    sources in relation-major order, targets in target order. Each
    relation's ``w_attn`` and ``w_msg`` then multiplies its contiguous block
    of edges, and the product's rows are taken to target order, where the
    ``segment_softmax`` and the message sum run over each target's run of
    ``dst_rows``, the gather that picked the targets' queries.

    The forward drops each (E, d) array once it is consumed, unless the
    backward needs it, and projects the messages only once the attention
    is done, so under ``no_grad`` it holds few (E, d) arrays at a time. The
    backward, written out here, takes the key, query and message weights'
    gradients in one matmul per type against the (3, d, d) slice of the
    three, and the relation blocks' in one per relation against its
    (2, dh, dh) ``w_attn``/``w_msg`` slice; every sum adds its rows in the
    order the op-by-op tape added them, so both give the same bytes. Its
    scatters share ``cache``'s bins while the tape is recorded.
    """
    if index.n_edges == 0:
        return h, np.zeros((0, config.num_heads))
    weights = [params.family(f"layer{layer}/{kind}") for kind in _LAYER_KINDS]
    key, query, msg, w_attn, w_msg, mu, agg, rescale = weights
    parents = (h, *weights)
    recording = ad.records(parents)
    cache = cache if recording else None
    saved: dict[str, np.ndarray] = {}

    def keep(**arrays: np.ndarray) -> None:
        if recording:
            saved.update(arrays)

    n, e, d, heads, dh = (index.n_nodes, index.n_edges, config.hidden_dim, config.num_heads,
                          config.head_dim)
    types = ad.nonempty_blocks(index.type_bounds)
    rels = ad.nonempty_blocks(index.rel_bounds, heads)
    projections, relations = key.interleaved(3), w_attn.interleaved(2)
    src, dst, to_target = index.src_rows.idx, index.dst_rows.idx, index.to_target
    cv = float(1.0 / config.scale_divisor)
    hv = h.value

    def projected(kind: int) -> np.ndarray:
        """The node rows times their type's key (0), query (1) or message (2) weight."""
        return ad.block_products(hv, projections[:, kind], types, np.empty((n, d)))

    def by_relation(x: np.ndarray, kind: int) -> np.ndarray:
        """Relation-major (E, d) rows times their relation's ``w_attn`` (0) or
        ``w_msg`` (1), in target order. Without a tape the result is written
        over x, which is free once the product is made; under one, x is
        kept for the backward."""
        out = ad.block_products(x.reshape(-1, dh), relations[:, kind], rels,
                                np.empty((e * heads, dh)))
        return np.take(out.reshape(e, heads, dh), to_target, axis=0,
                       out=None if recording else x.reshape(e, heads, dh), mode="clip")

    # under a tape, the sources' key and message rows share one array, so
    # that the backward multiplies both relation blocks at once
    sources = np.empty((2, e, d)) if recording else (None, None)
    k_src = np.take(projected(0), src, axis=0, out=sources[0], mode="clip")
    k = by_relation(k_src, 0)
    del k_src
    q = projected(1).take(dst, axis=0).reshape(e, heads, dh)
    raw = np.einsum("...i,...i->...", k, q)
    keep(k=k, q=q, raw=raw)
    del k, q
    mu_e = mu.value.take(index.edge_rel)
    attn = ad.segment_softmax(Tensor(raw * mu_e[:, None] * cv), index.dst_rows, cache).value
    del raw

    m_src = np.take(projected(2), src, axis=0, out=sources[1], mode="clip")
    m = by_relation(m_src, 1)
    del m_src
    keep(m=m, sources=sources)
    del sources
    messages = m * attn[..., None]
    del m
    h_tilde = index.dst_rows.scatter(messages, cache).reshape(n, d)
    del messages
    rescale_n = rescale.value.take(index.type_ids)
    hs = h_tilde * rescale_n[:, None]
    out = ad.block_products(hs, agg.value, types, np.empty((n, d)))
    out += hv
    if not recording:
        return Tensor(out), attn

    present_types = [j for j, _, _ in types]
    present_rels = [j for j, _, _ in rels]

    def backward(g: np.ndarray) -> None:
        # aggregation, rescale and the message sum
        g_hs = ad.block_products(g, agg.value.swapaxes(1, 2), types, np.empty((n, d)))
        agg.accumulate(ad.block_weight_grads(hs, g, types, agg.shape), present_types)
        g_rescale = np.einsum("...i,...i->...", g_hs, h_tilde)
        rescale.accumulate(np.bincount(index.type_ids, g_rescale, len(rescale.value)),
                           present_types)
        g_sum = (g_hs * rescale_n[:, None]).reshape(n, heads, dh)
        del g_hs
        g_attn = np.einsum("...i,...i->...", g_sum.take(dst, axis=0), saved.pop("m"))
        # the relation-major gradients of the key and message relation
        # products, each formed in place from its factors taken to that
        # order, which holds no other (E, d) array
        edge_order = index.edge_order
        g_rel = np.empty((2, e, heads, dh))
        np.take(g_sum, dst[edge_order], axis=0, out=g_rel[1], mode="clip")
        g_rel[1] *= attn.take(edge_order, axis=0)[..., None]
        del g_sum

        # attention: softmax, scale, mu and the scores' dot products
        dot = index.dst_rows.scatter(g_attn * attn, cache).take(dst, axis=0)
        g_scores = attn * (g_attn - dot) * cv
        del g_attn, dot
        g_mu = np.einsum("...i,...i->...", g_scores, saved.pop("raw"))
        mu.accumulate(np.bincount(index.edge_rel, g_mu, len(mu.value)), present_rels)
        g_raw = (g_scores * mu_e[:, None])[..., None]
        del g_scores
        np.take(saved.pop("q"), edge_order, axis=0, out=g_rel[0], mode="clip")
        g_rel[0] *= g_raw.take(edge_order, axis=0)

        # the relation blocks, one matmul per relation for both
        gs = g_rel.reshape(2, -1, dh)
        g_w = ad.block_weight_grads(saved.pop("sources").reshape(2, -1, dh), gs, rels,
                                    w_attn.shape[:1] + (2, dh, dh))
        w_attn.accumulate(g_w[:, 0], present_rels)
        w_msg.accumulate(g_w[:, 1], present_rels)
        g_src = ad.block_products(gs, relations.swapaxes(2, 3), rels,
                                  np.empty((2, e * heads, dh))).reshape(2, e, d)
        del g_rel, gs

        # the key, query and message projections, one matmul per type for all three
        g_q = (g_raw * saved.pop("k")).reshape(e, d)
        del g_raw
        g_proj = np.stack([index.src_rows.scatter(g_src[0], cache),
                           index.dst_rows.scatter(g_q, cache),
                           index.src_rows.scatter(g_src[1], cache)])
        del g_src, g_q
        g_w = ad.block_weight_grads(hv, g_proj, types, key.shape[:1] + (3, d, d))
        for kind, family in enumerate((key, query, msg)):
            family.accumulate(g_w[:, kind], present_types)
        if h._needs:
            g_h = ad.block_products(g_proj, projections.swapaxes(2, 3), types,
                                    np.empty((3, n, d)))
            # the residual, then the message, key and query terms, as the tape added them
            h.accumulate(g + g_h[2] + g_h[0] + g_h[1])

    return Tensor(out, parents=parents, backward_fn=backward), attn


def hgt_attention(
    h_prev: Tensor | np.ndarray,
    g: DebateGraph,
    params: ParamStore,
    layer: int,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> tuple[np.ndarray, GraphIndex]:
    """Attention weights as an (E, num_heads) array over the index's edge
    order, from node states in node-id order."""
    index = index or build_graph_index([g], config)
    return _layer(ad.rows(h_prev, index.node_order), params, layer, config, index)[1], index


def hgt_layer(
    h_prev: Tensor,
    g: DebateGraph,
    params: ParamStore,
    layer: int,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> Tensor:
    """The next node states, in node-id order, from node states in node-id order."""
    index = index or build_graph_index([g], config)
    h = _layer(ad.rows(h_prev, index.node_order), params, layer, config, index)[0]
    return ad.rows(h, index.node_pos)


@dataclass
class ForwardTrace:
    """Node states per layer in node-id order, attention per layer in the
    index's edge order, each node type's pooled vector, and the probabilities."""

    layer_outputs: list[np.ndarray] = field(default_factory=list)
    attention: list[np.ndarray] = field(default_factory=list)
    pooled: dict[str, np.ndarray] = field(default_factory=dict)
    probs: np.ndarray | None = None


def _forward(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
    trace: ForwardTrace | None = None,
) -> Tensor:
    """(graphs, classes) probabilities of a batch; fills ``trace`` for a one-graph batch."""
    index = index or build_graph_index(graphs, config)
    h = _embed(graphs, embeddings, params, config, index)
    if trace is not None:
        trace.layer_outputs, trace.attention = [h.value[index.node_pos]], []
    cache = ad.BinCache()  # the layers' scatter bins, kept by their tape ops
    for layer in range(config.num_layers):
        h, attn = _layer(h, params, layer, config, index, cache)
        if trace is not None:
            trace.layer_outputs.append(h.value[index.node_pos])
            trace.attention.append(attn)

    pooled = ad.segment_sum(h, index.pool_slots)
    pooled = ad.colscale(pooled, Tensor(index.pool_scale))
    h_concat = ad.reshape(pooled, (index.n_graphs, config.pool_width))
    z = ad.relu(ad.add(ad.matmul(h_concat, params["head/w1"]), params["head/b1"]))
    logits = ad.add(ad.matmul(z, params["head/w2"]), params["head/b2"])
    probs = ad.softmax(logits)
    if trace is not None:
        trace.pooled = dict(zip(node_type_keys(config), pooled.value))
        trace.probs = probs.value[0]
    return probs


def predict(
    g: DebateGraph,
    embeddings: np.ndarray,
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
#: memory grows with the edges it holds (about 1.5 KB per edge at hidden size
#: 64), so a larger chunk gains little speed and costs peak memory.
PREDICT_EDGE_BUDGET = 1024


def edge_chunks(graphs: Sequence[DebateGraph]) -> list[slice]:
    """The graphs cut, in order, into runs of at most ``PREDICT_EDGE_BUDGET``
    edges in all; a graph with more edges than that is a run by itself."""
    chunks, start, edges = [], 0, 0
    for i, g in enumerate(graphs):
        n_edges = len(g.codes[1])
        if i > start and edges + n_edges > PREDICT_EDGE_BUDGET:
            chunks.append(slice(start, i))
            start, edges = i, 0
        edges += n_edges
    if start < len(graphs):
        chunks.append(slice(start, len(graphs)))
    return chunks


def predict_batch(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    index: GraphIndex | None = None,
) -> np.ndarray:
    """(graphs, classes) probabilities of a batch, from one forward."""
    with ad.no_grad():
        return _forward(graphs, embeddings, params, config, index).value


def forward_loss(
    graphs: Sequence[DebateGraph],
    embeddings: Sequence[np.ndarray],
    params: ParamStore,
    config: ModelConfig,
    labels: Sequence[int],
    index: GraphIndex | None = None,
) -> Tensor:
    """Mean cross-entropy over a batch of graphs (differentiable); ``index``
    is the batch's index."""
    return ad.cross_entropy(_forward(graphs, embeddings, params, config, index), labels)

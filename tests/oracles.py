"""Independent straight-line reference implementations used by the tests.

Everything here is deliberately naive: per-node and per-edge python loops,
dense numpy arrays, no shared code with the package's vectorized model. The
only shared surface is the parameter naming scheme of the ParamStore.
"""

import numpy as np

from reviewgraph.model import NODE_TYPE_ORDER, meta_key
from reviewgraph.graph import DebateGraph, Edge, Node, RelationType


def _tkey(node, config):
    return "node" if config.homogeneous else node.node_type.value


def _rkey(edge, config):
    if config.homogeneous:
        return "connected"
    return edge.relation.value + ("__inv" if edge.inverse else "")


def dense_forward(g, embeddings, params, config):
    """Reference forward pass: returns the class probability vector."""
    return dense_trace(g, embeddings, params, config)["probs"]


def dense_trace(g, embeddings, params, config):
    """Reference forward pass with its intermediates: ``layers`` holds the
    (nodes, d) states in node-id order before and after each layer,
    ``attention`` per layer a dict from each (target, head) to the target's
    incoming edges and their weights, ``pooled`` each node type's pooled
    vector, and ``probs`` the class probabilities."""
    n_nodes = len(g.nodes)
    d, dh = config.hidden_dim, config.head_dim
    nodes = sorted(g.nodes, key=lambda n: n.id)

    h = np.zeros((n_nodes, d))
    for n in nodes:
        h[n.id] = np.asarray(embeddings[n.id]) @ params[f"w_in/{_tkey(n, config)}"].value

    edges = [e for e in g.edges if config.use_inverse_edges or not e.inverse]
    layers, attention = [h], []

    for layer in range(config.num_layers):
        k_proj = np.zeros((n_nodes, d))
        q_proj = np.zeros((n_nodes, d))
        m_proj = np.zeros((n_nodes, d))
        for n in nodes:
            t = _tkey(n, config)
            k_proj[n.id] = h[n.id] @ params[f"layer{layer}/key/{t}"].value
            q_proj[n.id] = h[n.id] @ params[f"layer{layer}/query/{t}"].value
            m_proj[n.id] = h[n.id] @ params[f"layer{layer}/msg/{t}"].value

        h_tilde = np.zeros((n_nodes, d))
        weights = {}
        for n in nodes:
            inc = [e for e in edges if e.dst == n.id]
            if not inc:
                continue
            for head in range(config.num_heads):
                lo, hi = head * dh, (head + 1) * dh
                scores, msgs = [], []
                for e in inc:
                    rk = _rkey(e, config)
                    w_attn = params[f"layer{layer}/w_attn/{rk}"].value
                    w_msg = params[f"layer{layer}/w_msg/{rk}"].value
                    mu = float(params[f"layer{layer}/mu/{meta_key(config, rk)}"].value)
                    k_vec = k_proj[e.src, lo:hi] @ w_attn
                    scores.append(
                        float(np.dot(k_vec, q_proj[n.id, lo:hi])) * mu / config.scale_divisor
                    )
                    msgs.append(m_proj[e.src, lo:hi] @ w_msg)
                s = np.asarray(scores)
                e_s = np.exp(s - s.max())
                attn = e_s / e_s.sum()
                weights[n.id, head] = (inc, attn)
                h_tilde[n.id, lo:hi] = sum(a * m for a, m in zip(attn, msgs))

        h_next = np.zeros_like(h)
        for n in nodes:
            t = _tkey(n, config)
            rescale = float(params[f"layer{layer}/rescale/{t}"].value)
            update = (rescale * h_tilde[n.id]) @ params[f"layer{layer}/agg/{t}"].value
            h_next[n.id] = update + h[n.id]
        h = h_next
        layers.append(h)
        attention.append(weights)

    type_keys = ["node"] if config.homogeneous else [t.value for t in NODE_TYPE_ORDER]
    pooled = []
    for t in type_keys:
        member_rows = [h[n.id] for n in nodes if _tkey(n, config) == t]
        pooled.append(np.mean(member_rows, axis=0) if member_rows else np.zeros(d))
    h_concat = np.concatenate(pooled)

    z = np.maximum(h_concat @ params["head/w1"].value + params["head/b1"].value, 0.0)
    logits = z @ params["head/w2"].value + params["head/b2"].value
    exp = np.exp(logits - logits.max())
    return {"layers": layers, "attention": attention, "pooled": dict(zip(type_keys, pooled)),
            "probs": exp / exp.sum()}


def reference_graph_index(g, config):
    """The graph index fields as the per-edge loop version computed them.

    Edges sorted by (target, source, relation ordinal, inverse); node types
    and relation keys numbered by their parameter row, their position in
    ``type_keys`` and ``rel_keys``: every type, then every forward relation
    and, with inverse edges, every inverse one, each in enum order; ``pool``
    is the (types, nodes) averaging matrix.
    """
    nodes = sorted(g.nodes, key=lambda n: n.id)
    node_keys = [_tkey(n, config) for n in nodes]
    type_keys = ["node"] if config.homogeneous else [t.value for t in NODE_TYPE_ORDER]
    forward = [r.value for r in RelationType if r is not RelationType.CONNECTED]
    inverse = [r + "__inv" for r in forward] if config.use_inverse_edges else []
    rel_keys = ["connected"] if config.homogeneous else forward + inverse
    pool = np.zeros((len(type_keys), len(nodes)))
    for t, key in enumerate(type_keys):
        members = [i for i, k in enumerate(node_keys) if k == key]
        pool[t, members] = 1.0 / max(len(members), 1)

    ordinal = {r: i for i, r in enumerate(RelationType)}
    edges = [e for e in g.edges if config.use_inverse_edges or not e.inverse]
    edges.sort(key=lambda e: (e.dst, e.src, ordinal[e.relation], e.inverse))
    edge_keys = [_rkey(e, config) for e in edges]
    segments = []
    for i, e in enumerate(edges):
        if i == 0 or edges[i - 1].dst != e.dst:
            segments.append([i, i])
        segments[-1][1] = i + 1
    return {
        "n_nodes": len(nodes),
        "type_keys": type_keys,
        "node_type": [type_keys.index(k) for k in node_keys],
        "pool": pool,
        "ordered_edges": edges,
        "src": [e.src for e in edges],
        "dst": [e.dst for e in edges],
        "rel_keys": rel_keys,
        "edge_rel": [rel_keys.index(k) for k in edge_keys],
        "segments": np.array(segments, dtype=int).reshape(-1, 2),
        "seg_targets": [edges[start].dst for start, _ in segments],
    }


def permute_graph(g, embeddings, perm):
    """Relabel node ids through permutation perm; returns (graph, embeddings)."""
    mapping = {old: new for old, new in zip(sorted(n.id for n in g.nodes), perm)}
    nodes = tuple(
        sorted(
            (Node(mapping[n.id], n.node_type, n.text, n.speaker, n.dimension)
             for n in g.nodes),
            key=lambda n: n.id,
        )
    )
    edges = tuple(
        Edge(mapping[e.src], mapping[e.dst], e.relation, e.inverse) for e in g.edges
    )
    new_emb = np.empty_like(embeddings)
    new_emb[[mapping[k] for k in range(len(embeddings))]] = embeddings
    return DebateGraph(g.graph_id, nodes, edges, g.label), new_emb


def confusion_metrics(preds, golds, n_classes=2):
    """Brute-force accuracy and macro P/R/F1 from an explicit confusion matrix."""
    cm = np.zeros((n_classes, n_classes), dtype=int)
    for p, y in zip(preds, golds):
        cm[y][p] += 1
    accuracy = np.trace(cm) / len(preds)
    ps, rs, fs = [], [], []
    for c in range(n_classes):
        tp = cm[c][c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return accuracy, np.mean(ps), np.mean(rs), np.mean(fs)

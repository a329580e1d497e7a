"""Independent reference implementations used as test oracles.

These deliberately take different computational routes than the library:
triple loops instead of BLAS, explicit dense adjacency matrices instead of
per-node gathers, exhaustive filters instead of indexed lookups, central
finite differences instead of the tape, concatenation of per-example
batches instead of a gather from a packed union, and per-node list scans
instead of the packer's numbering of aggregation classes and sources.
"""

import numpy as np

from symgraph.model import Batch, GraphBatch


def matmul_ref(a, b):
    """Triple-loop matrix product."""
    a, b = np.asarray(a), np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def row_normalized_adjacency(g):
    """Dense in-neighbor adjacency, multiplicity counted, rows normalized.

    Row i has A[i, j] = (#edges j->i) / in-degree(i); in-degree-0 rows get
    a unit self-loop.
    """
    n = len(g.nodes)
    a = np.zeros((n, n))
    for e in g.edges:
        a[e.dst, e.src] += 1.0
    for i in range(n):
        s = a[i].sum()
        if s == 0:
            a[i, i] = 1.0
        else:
            a[i] /= s
    return a


def in_source_lists(g):
    """Per node: the sources of its in-edges in edge order, or the node
    itself when it has none."""
    return [[e.src for e in g.edges if e.dst == i] or [i] for i in range(len(g.nodes))]


def node_classes_ref(g):
    """Aggregation class of each node: its in-source list, the lists
    numbered by first occurrence in node order."""
    lists = in_source_lists(g)
    seen = []
    for key in lists:
        if key not in seen:
            seen.append(key)
    return np.array([seen.index(key) for key in lists], dtype=np.intp)


def source_nodes_ref(g):
    """The nodes that some in-source list holds, in node order: the nodes
    that get an encoder row."""
    return np.array(sorted({u for key in in_source_lists(g) for u in key}), dtype=np.intp)


def gcn_layer_ref(states, g, w, nonlin):
    """Dense-adjacency reference: nonlin(A_hat @ (states @ W^T))."""
    a = row_normalized_adjacency(g)
    return nonlin(a @ (np.asarray(states) @ np.asarray(w).T))


def phrase_ref(table, phrase):
    """Mean of the vectors of a phrase's words found in the table, looked up
    one word at a time; zeros when none is found."""
    words = phrase.replace("_", " ").lower().split()
    found = [table.entries[w] for w in words if w in table.entries]
    return np.mean(found, axis=0) if found else np.zeros(table.dim)


def node_input_ref(node, table):
    """Mean of the phrase vectors of a node's name and each attribute."""
    tokens = (node.name, *node.attributes)
    return np.mean([phrase_ref(table, t) for t in tokens], axis=0)


def encode_nodes_ref(g, table, w_enc, nonlin):
    """Per-node loop reference for the initial encoding."""
    n = len(g.nodes)
    d = table.dim
    w = np.asarray(w_enc)
    out = np.zeros((n, w.shape[0]))
    for i in range(n):
        in_edges = [e for e in g.edges if e.dst == i]
        if in_edges:
            msgs = [
                w @ np.concatenate([node_input_ref(g.nodes[e.src], table),
                                    phrase_ref(table, e.relation)])
                for e in in_edges
            ]
        else:
            msgs = [w @ np.concatenate([node_input_ref(g.nodes[i], table),
                                        phrase_ref(table, "self")])]
        out[i] = nonlin(np.mean(msgs, axis=0))
    return out


def brute_force_knowledge_graph(seed_toks, triples, whitelist, vocab,
                                match_tail=False):
    """Exhaustive scan over every triple; returns (node names, edge triples)."""
    seeds = set(seed_toks)
    admitted = set()
    for rel, head, tail in triples:
        if rel not in whitelist:
            continue
        if head in seeds and tail in vocab:
            admitted.add((head, rel, tail))
        if match_tail and tail in seeds and head in vocab:
            admitted.add((head, rel, tail))
    nodes = sorted(seeds | {h for h, _, _ in admitted} | {t for _, _, t in admitted})
    edges = sorted((h, r, t) for h, r, t in admitted)
    return nodes, edges


def finite_difference(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at flat array x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = f(x)
        flat[i] = orig - eps
        down = f(x)
        flat[i] = orig
        gf[i] = (up - down) / (2 * eps)
    return g


def forward_ref(example, weights, table, cfg):
    """Dense-adjacency reference for one example's class probabilities:
    per-node encoder loop, A_hat @ H @ W^T layers, column-sum readout, then
    fusion and the MLP head on plain vectors."""
    def f(v):
        return np.maximum(v, 0.0) if cfg.nonlinearity == "relu" else 1.0 / (1.0 + np.exp(-v))

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    shared = cfg.share_towers and cfg.graph_mode == "both"
    v = {}
    for kind, g, only in (("kg", example.knowledge_graph, "kg_only"),
                          ("sg", example.scene_graph, "sg_only")):
        if cfg.graph_mode not in ("both", only):
            v[kind] = np.zeros(cfg.hidden_dim)
            continue
        prefix = "shared" if shared else kind
        h = encode_nodes_ref(g, table, weights[f"{prefix}.enc"], f)
        a = row_normalized_adjacency(g)
        for layer in range(cfg.gcn_layers):
            h = f(a @ h @ weights[f"{prefix}.gcn{layer}"].T)
        v[kind] = h.sum(axis=0)
    if cfg.fusion_mode == "concat":
        fused = np.concatenate([v["kg"], v["sg"], v["kg"] * v["sg"]])
    else:
        score = weights.get("attn.score")
        s = (np.array([v["kg"] @ v["kg"], v["sg"] @ v["sg"]]) if score is None else
             np.array([score @ v["kg"], score @ v["sg"]]))
        alpha = softmax(s)
        fused = alpha[0] * v["kg"] + alpha[1] * v["sg"]
    hidden = f(weights["mlp.w1"] @ fused + weights["mlp.b1"])
    return softmax(weights["mlp.w2"] @ hidden + weights["mlp.b2"])


def _union(parts):
    counts = np.array([(p.class_sizes.size, p.inputs.shape[0], p.dst.size, p.num_graphs)
                       for p in parts], dtype=np.intp)
    classes, _, edges, graphs = counts.T
    starts = (np.cumsum(counts, axis=0) - counts).T  # of each part, per id kind
    class_start, source_start, _, graph_start = starts
    edge_classes = np.repeat(class_start, edges)
    return GraphBatch(
        np.concatenate([p.inputs for p in parts]),
        np.concatenate([p.dst for p in parts]) + edge_classes,
        np.concatenate([p.src for p in parts]) + np.repeat(source_start, edges),
        np.concatenate([p.src_class for p in parts]) + edge_classes,
        np.concatenate([p.weight for p in parts]),
        np.concatenate([p.class_sizes for p in parts]),
        np.concatenate([p.class_graph for p in parts]) + np.repeat(graph_start, classes),
        int(graphs.sum()),
    )


def collate(batches):
    """Disjoint union of packed batches, examples kept in order: every array
    of the parts concatenated, ids shifted by the counts of the parts before
    (the reference for ``model.take``)."""
    return Batch(_union([b.kg for b in batches]), _union([b.sg for b in batches]))

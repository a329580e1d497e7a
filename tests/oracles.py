"""Independent reference implementations used as test oracles.

These deliberately take different computational routes than the library:
triple loops instead of BLAS, explicit dense adjacency matrices instead of
per-node gathers, exhaustive filters instead of indexed lookups, central
finite differences instead of the tape, concatenation of per-example
batches instead of a gather from a packed union, and per-node list scans
instead of the packer's numbering of aggregation classes and sources,
line-at-a-time text readers instead of bulk parses, graphs as lists of
node and edge records instead of columns, and one bincount over (edge,
column) slots instead of rounds of gathers for edge-list sums.  It also
holds the small builders tests use in place of one-item constructors
(``records_graph``, ``store_of``, ``table_of``).
"""

import math
import re
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from symgraph.embeddings import EmbeddingTable, normalize_token
from symgraph.errors import EmbeddingParseError, SchemaError
from symgraph.graphs import GraphEdge, GraphNode, LabeledGraph
from symgraph.model import Batch, GraphBatch


def records_graph(nodes, edges, kind="scene"):
    """The columnar graph of lists of ``GraphNode`` and ``GraphEdge`` records."""
    return LabeledGraph(tuple(n.name for n in nodes), tuple(tuple(n.attributes) for n in nodes),
                        tuple(e.src for e in edges), tuple(e.dst for e in edges),
                        tuple(e.relation for e in edges), kind)


def store_of(triples):
    """The fact columns (relations, heads, tails) of a list of (relation,
    head, tail) triples, as ``read_fact_columns`` returns them."""
    return tuple(map(list, zip(*triples))) or ([], [], [])


def table_of(dim, entries):
    """The embedding table of a {token: vector} dict, tokens taken as given
    (only the loaders normalize them), rows in the dict's order."""
    matrix = np.array(list(entries.values()), dtype=np.float64).reshape(len(entries), dim)
    return EmbeddingTable(dim, matrix, dict(zip(entries, range(len(entries)))))


def normalize_token_ref(token):
    """``normalize_token`` without its fast path: every token through the
    regex substitution."""
    return re.sub(r"\s+", " ", token.replace("_", " ").strip().lower())


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


def scatter_add_ref(x, dst, src, weight, n_out):
    """``out[dst[e]] += weight[e] * x[src[e]]`` into n_out rows, as one
    bincount over flat (row, column) slots, summing in edge order (the
    reference for ``tensor.Edges``).  The backward pass of such a sum is the
    same sum with ``dst`` and ``src`` swapped, over the output gradient."""
    x = np.asarray(x, dtype=np.float64)
    width = x.shape[1]
    values = x[np.asarray(src, dtype=np.intp)] * np.asarray(weight, dtype=np.float64)[:, None]
    slots = (np.asarray(dst, dtype=np.intp)[:, None] * width + np.arange(width)).ravel()
    return np.bincount(slots, weights=values.ravel(),
                       minlength=n_out * width).reshape(n_out, width)


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
    found = [v for v in map(table.lookup_word, words) if v is not None]
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
    """Dense-adjacency reference for one example's scores under the
    configured head: per-node encoder loop, A_hat @ H @ W^T layers,
    column-sum readout, then fusion and the MLP head on plain vectors."""
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
        fused, _ = attention_ref(v["kg"], v["sg"], weights.get("attn.score"))
    hidden = f(weights["mlp.w1"] @ fused + weights["mlp.b1"])
    logits = weights["mlp.w2"] @ hidden + weights["mlp.b2"]
    if cfg.loss_mode == "sigmoid_bce":
        return 1.0 / (1.0 + np.exp(-logits))
    return softmax(logits)


def attention_ref(v_kg, v_sg, score=None):
    """(fused, alpha) of two plain vectors: a softmax over their squared
    norms, or over their dot products with ``score``."""
    s = (np.array([v_kg @ v_kg, v_sg @ v_sg]) if score is None else
         np.array([score @ v_kg, score @ v_sg]))
    e = np.exp(s - s.max())
    alpha = e / e.sum()
    return alpha[0] * v_kg + alpha[1] * v_sg, alpha


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


def load_embeddings_ref(path, dim):
    """(matrix, index) of an embedding text file, read one line at a time
    with Python's ``float``, naming the first malformed line (the reference
    for ``load_embeddings``)."""
    with open(path, encoding="utf-8") as fh:
        matrix = np.empty((sum(1 for _ in fh), dim), dtype=np.float64)
        fh.seek(0)
        index = {}
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise EmbeddingParseError(
                    f"{path}:{lineno}: expected token + {dim} floats, "
                    f"got {len(fields) - 1} values"
                )
            try:
                values = list(map(float, fields[1:]))
            except ValueError as exc:
                raise EmbeddingParseError(f"{path}:{lineno}: {exc}") from exc
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
                raise EmbeddingParseError(f"{path}:{lineno}: non-finite value")
            key = normalize_token(fields[0])
            if key and key not in index:
                matrix[len(index)] = values
                index[key] = len(index)
    if not index:
        raise EmbeddingParseError(f"{path}: no embedding entries found")
    return matrix[:len(index)], index


def read_fact_columns_ref(path):
    """(relations, heads, tails): the raw fields of a TSV fact file, read and
    split one line at a time (the reference for ``read_fact_columns``)."""
    columns = ([], [], [])
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 3 tab-separated fields")
            for column, value in zip(columns, fields):
                column.append(value)
    return columns


# ---------------------------------------------------------------------------
# the record path: graphs as lists of GraphNode and GraphEdge records, built
# and canonicalized one record at a time (the reference for the columns)


@dataclass
class RecordGraph:
    nodes: list  # GraphNode
    edges: list  # GraphEdge
    kind: str = "scene"


def scene_graph_ref(doc):
    """The raw scene graph of a valid scene document, one record per object
    and relation."""
    nodes = [GraphNode(obj["name"], list(obj.get("attributes", []))) for obj in doc["objects"]]
    edges = [GraphEdge(rel["subj"], rel["obj"], rel["pred"]) for rel in doc["relations"]]
    return RecordGraph(nodes, edges, "scene")


def validate_graph_ref(g):
    """Canonical form of a record graph, node by node and edge by edge."""
    if g.kind == "knowledge":
        merged = {}
        attrs = defaultdict(list)
        for node in g.nodes:
            name = normalize_token(node.name)
            merged.setdefault(name, None)
            for a in node.attributes:
                na = normalize_token(a)
                if na and na not in attrs[name]:
                    attrs[name].append(na)
        names = sorted(merged)
        idx = {name: i for i, name in enumerate(names)}
        remap = [idx[normalize_token(node.name)] for node in g.nodes]
        nodes = [GraphNode(name, sorted(attrs[name])) for name in names]
        edge_set = {(remap[e.src], remap[e.dst], normalize_token(e.relation)) for e in g.edges}
        edges = [GraphEdge(s, d, r) for s, d, r in sorted(edge_set)]
    else:
        nodes = [GraphNode(normalize_token(node.name),
                           [normalize_token(a) for a in node.attributes if normalize_token(a)])
                 for node in g.nodes]
        seen = set()
        edges = []
        for e in g.edges:
            key = (e.src, e.dst, normalize_token(e.relation))
            if key not in seen:
                seen.add(key)
                edges.append(GraphEdge(*key))
    return RecordGraph(nodes, edges, g.kind)


def add_reverse_edges_ref(g):
    edges = list(g.edges) + [GraphEdge(e.dst, e.src, e.relation) for e in g.edges]
    return validate_graph_ref(RecordGraph(list(g.nodes), edges, g.kind))


def seed_tokens_ref(nodes):
    out = []
    for node in nodes:
        for tok in [node.name] + list(node.attributes):
            t = normalize_token(tok)
            if t and t not in out:
                out.append(t)
    return out


def knowledge_graphs_ref(seed_lists, facts, whitelist, vocab, match_tail=False):
    """One record knowledge graph per list of seed nodes, each built alone
    by a scan of every row of the fact columns."""
    graphs = []
    for seeds in seed_lists:
        tokens = seed_tokens_ref(seeds)
        found = set()
        for rel, head, tail in zip(*facts):
            r, h, t = rel.strip(), normalize_token_ref(head), normalize_token_ref(tail)
            if r in whitelist and (h in tokens and t in vocab
                                   or match_tail and t in tokens and h in vocab):
                found.add((h, r, t))
        names = sorted(set(tokens) | {h for h, _, _ in found} | {t for _, _, t in found})
        idx = {name: i for i, name in enumerate(names)}
        graphs.append(RecordGraph([GraphNode(name) for name in names],
                                  [GraphEdge(idx[h], idx[t], r) for h, r, t in sorted(found)],
                                  "knowledge"))
    return graphs


def graph_to_dict_ref(g):
    """The bundle document of a record graph: its columns, read off the
    records one at a time."""
    return {
        "kind": g.kind,
        "names": [n.name for n in g.nodes],
        "attributes": [list(n.attributes) for n in g.nodes],
        "src": [e.src for e in g.edges],
        "dst": [e.dst for e in g.edges],
        "relations": [e.relation for e in g.edges],
    }


def graph_from_dict_ref(d):
    """The record graph of a valid bundle graph document, one record per
    node and per edge."""
    nodes = [GraphNode(d["names"][i], list(d["attributes"][i])) for i in range(len(d["names"]))]
    edges = [GraphEdge(d["src"][e], d["dst"][e], d["relations"][e]) for e in range(len(d["src"]))]
    return RecordGraph(nodes, edges, d["kind"])

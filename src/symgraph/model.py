"""Two-tower graph network: node encoding, GCN stack, sum readout,
concat or attention fusion of the two graph vectors, and an MLP softmax head.

The network runs on mini-batches.  ``pack`` turns each example's two graphs
into a ``GraphBatch`` per kind: encoder-input rows plus a row-normalized
in-edge list per aggregation class.  A node's aggregation class is its
ordered list of in-edge sources; nodes with the same list get the same GCN
aggregate at every layer (the colour-refinement view of message passing),
and the 1-hop stars of a knowledge graph have many such nodes.  It packs all
the graphs of a call in one vectorized pass (``pack_graphs``): each distinct
phrase is embedded once, then node vectors, self-loops, messages and encoder
inputs are built once for the whole call, and each graph's batch is a slice
of those arrays.  ``collate`` joins packed examples into one disjoint union
per kind (node, class and graph ids shifted), so each tower is one encoder
matmul over the nodes, one ``scatter_add`` and matmul over the classes per
GCN layer, and one ``scatter_add`` over graph ids for the readout; fusion
and the head work on the (batch, hidden) rows.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from . import tensor as T
from .embeddings import EmbeddingTable
from .errors import ConfigError, DimensionError, ValidationError
from .graphs import LabeledGraph
from .rng import child_rng
from .tensor import Parameter, Tape, Tensor

SELF_RELATION = "self"  # reserved relation token for in-degree-0 fallback

FUSION_MODES = ("concat", "attention", "attention_learned")
GRAPH_MODES = ("both", "sg_only", "kg_only")
NONLINEARITIES = ("relu", "sigmoid")


@dataclass
class ModelConfig:
    num_labels: int
    embed_dim: int = 300
    hidden_dim: int = 512
    gcn_layers: int = 3
    fusion_mode: str = "concat"
    nonlinearity: str = "relu"
    share_towers: bool = False
    mlp_hidden: int = None  # defaults to hidden_dim
    graph_mode: str = "both"
    seed: int = 0

    def __post_init__(self):
        if self.mlp_hidden is None:
            self.mlp_hidden = self.hidden_dim
        if self.gcn_layers < 1:
            raise ConfigError(f"gcn_layers must be >= 1, got {self.gcn_layers}")
        if self.num_labels < 2:
            raise ConfigError(f"num_labels must be >= 2, got {self.num_labels}")
        if min(self.embed_dim, self.hidden_dim, self.mlp_hidden) < 1:
            raise ConfigError("dimensions must be >= 1")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion_mode '{self.fusion_mode}'")
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"unknown graph_mode '{self.graph_mode}'")
        if self.nonlinearity not in NONLINEARITIES:
            raise ConfigError(f"unknown nonlinearity '{self.nonlinearity}'")

    @property
    def fusion_input_dim(self):
        return 3 * self.hidden_dim if self.fusion_mode == "concat" else self.hidden_dim


def tower_prefixes(config: ModelConfig) -> dict:
    """Parameter-name prefix per graph ('kg'/'sg'); None for an ablated tower."""
    prefixes = {"kg": None, "sg": None}
    if config.graph_mode in ("both", "kg_only"):
        prefixes["kg"] = "kg"
    if config.graph_mode in ("both", "sg_only"):
        prefixes["sg"] = "sg"
    if config.share_towers and config.graph_mode == "both":
        prefixes = {"kg": "shared", "sg": "shared"}
    return prefixes


def param_shapes(config: ModelConfig) -> list:
    """Ordered (name, shape) listing of every trainable tensor."""
    shapes = []
    seen = set()
    for g in ("kg", "sg"):
        prefix = tower_prefixes(config)[g]
        if prefix is None or prefix in seen:
            continue
        seen.add(prefix)
        shapes.append((f"{prefix}.enc", (config.hidden_dim, 2 * config.embed_dim)))
        for l in range(config.gcn_layers):
            shapes.append((f"{prefix}.gcn{l}", (config.hidden_dim, config.hidden_dim)))
    if config.fusion_mode == "attention_learned":
        shapes.append(("attn.score", (config.hidden_dim,)))
    shapes.append(("mlp.w1", (config.mlp_hidden, config.fusion_input_dim)))
    shapes.append(("mlp.b1", (config.mlp_hidden,)))
    shapes.append(("mlp.w2", (config.num_labels, config.mlp_hidden)))
    shapes.append(("mlp.b2", (config.num_labels,)))
    return shapes


class ModelParams:
    """Named collection of the model's trainable parameters."""

    def __init__(self, params):
        self._by_name = {}
        for p in params:
            if p.name in self._by_name:
                raise ConfigError(f"duplicate parameter name '{p.name}'")
            self._by_name[p.name] = p

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self):
        return len(self._by_name)

    def __getitem__(self, name) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name):
        return name in self._by_name

    def names(self):
        return list(self._by_name)

    def tensors(self, tape: Tape = None) -> dict:
        """Tensor view of every parameter, watched on the tape when tracing."""
        if tape is None:
            return {n: T._wrap(p.value) for n, p in self._by_name.items()}
        return {n: tape.watch(p) for n, p in self._by_name.items()}

    def copy(self) -> "ModelParams":
        return ModelParams([Parameter(p.value.copy(), p.name) for p in self])


def init_params(config: ModelConfig) -> ModelParams:
    """Glorot-uniform weights and zero biases from the config seed."""
    rng = child_rng(config.seed, "init")
    params = []
    for name, shape in param_shapes(config):
        if len(shape) == 1 and name.startswith("mlp.b"):
            value = np.zeros(shape)
        else:
            fan_out, fan_in = (shape if len(shape) == 2 else (1, shape[0]))
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            value = rng.uniform(-bound, bound, size=shape)
        params.append(Parameter(value, name))
    return ModelParams(params)


def param_count(config: ModelConfig) -> int:
    """Exact number of trainable scalars under a config."""
    return sum(int(np.prod(shape)) for _, shape in param_shapes(config))


# ---------------------------------------------------------------------------
# packing: graphs -> encoder inputs and edge lists


@dataclass
class GraphBatch:
    """A disjoint union of graphs of one kind, ready for a tower.

    Node ``i`` has encoder input ``inputs[i]``, belongs to graph
    ``graph_ids[i]`` and to aggregation class ``classes[i]``.  A node's
    class is its ordered list of in-edge sources (repeated edges count; a
    node without in-edges has a self-loop instead); the classes of a graph
    are numbered by first occurrence in node order, and no class spans two
    graphs.  ``(dst, src, weight)`` holds the in-edges of each class's first
    node, with ``dst`` a class id and ``src`` a node id: a GCN layer's
    aggregate of class ``c`` is the sum of ``weight[e] * states[src[e]]``
    over the edges with ``dst[e] == c``, where ``weight[e]`` is one over the
    length of the list (and ``states`` holds a row per node, or a row per
    class read at ``classes[src[e]]``).
    """

    inputs: np.ndarray  # (nodes, 2 * embed_dim)
    dst: np.ndarray
    src: np.ndarray
    weight: np.ndarray
    classes: np.ndarray
    num_classes: int
    graph_ids: np.ndarray
    num_graphs: int

    @property
    def num_nodes(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Batch:
    """Knowledge and scene graphs of the same examples, in the same order."""

    kg: GraphBatch
    sg: GraphBatch

    @property
    def size(self) -> int:
        return self.kg.num_graphs

    @property
    def num_nodes(self) -> int:
        return self.kg.num_nodes + self.sg.num_nodes


def pack_graphs(graphs, table: EmbeddingTable) -> list:
    """Encoder inputs, aggregation classes and class in-edges of each graph,
    as one ``GraphBatch`` per graph, built in one vectorized pass over all of
    them.

    A node's input vector is the mean of the vectors of its object token and
    each attribute token; each distinct token is embedded once per call
    (``EmbeddingTable.phrase_vectors``).  A node's encoder input is the mean
    over its in-edges of [source node input ; relation vector]; a node
    without in-edges gets a self-loop with the reserved ``self`` relation.
    Each graph's edges keep their order, followed by its self-loops, so every
    sum runs in the same order as for the graph packed alone, and each
    class's in-edges keep that order too.  The per-graph batches are slices
    of the arrays built for all of them.
    """
    ids = {SELF_RELATION: 0}  # distinct phrase -> row of the phrase vectors
    tokens, node_sizes = [], []  # phrase id of every node token; tokens per node
    dst, src, relations = [], [], []  # per edge and self-loop: local nodes, phrase id
    classes = []  # per node: its class within its graph
    nodes, edges, num_classes = [], [], []  # per graph
    for g in graphs:
        n = len(g.nodes)
        for node in g.nodes:
            tokens += [ids.setdefault(t, len(ids)) for t in (node.name, *node.attributes)]
            node_sizes.append(1 + len(node.attributes))
        sources = {}  # node -> its in-edge sources, in edge order
        for e in g.edges:
            sources.setdefault(e.dst, []).append(e.src)
        loops = [i for i in range(n) if i not in sources]
        dst += [e.dst for e in g.edges] + loops
        src += [e.src for e in g.edges] + loops
        relations += [ids.setdefault(e.relation, len(ids)) for e in g.edges]
        relations += [ids[SELF_RELATION]] * len(loops)
        number = {}  # in-edge sources -> class, numbered by first occurrence
        classes += [number.setdefault(tuple(sources.get(i, (i,))), len(number))
                    for i in range(n)]
        nodes.append(n)
        edges.append(len(g.edges) + len(loops))
        num_classes.append(len(number))
    phrase_vecs = table.phrase_vectors(list(ids))

    dst, src = np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp)
    counts = np.array([nodes, edges], dtype=np.intp).reshape(2, len(nodes))
    sizes = np.repeat(*counts)  # node count of each edge's graph
    bad = np.flatnonzero((np.minimum(dst, src) < 0) | (np.maximum(dst, src) >= sizes))
    if bad.size:
        raise ValidationError(f"edge index out of range for {sizes[bad[0]]} nodes")
    n_total = len(node_sizes)
    x = T.segment_mean(phrase_vecs[np.array(tokens, dtype=np.intp)],
                       np.repeat(np.arange(n_total), node_sizes), n_total)
    base = _offsets(*counts)
    rows = dst + base
    degree = np.bincount(rows, minlength=n_total)
    messages = np.hstack([x[src + base], phrase_vecs[np.array(relations, dtype=np.intp)]])
    inputs = T.scatter_rows(messages, rows, n_total) / degree[:, None]

    # each class keeps the in-edges (or the self-loop) of its first node
    classes = np.array(classes, dtype=np.intp)
    firsts = np.unique(classes + _offsets(num_classes, nodes), return_index=True)[1]
    is_first = np.zeros(n_total, dtype=bool)
    is_first[firsts] = True
    keep = np.flatnonzero(is_first[rows])
    class_dst, class_src, weight = classes[rows[keep]], src[keep], 1.0 / degree[rows[keep]]
    class_ends = np.searchsorted(keep, np.cumsum(counts[1])).tolist()  # per graph
    no_graph = np.zeros(max(nodes, default=0), dtype=np.intp)
    return [GraphBatch(inputs[n0:n0 + n], class_dst[e0:e1], class_src[e0:e1],
                       weight[e0:e1], classes[n0:n0 + n], c, no_graph[:n], 1)
            for n, c, n0, e0, e1 in zip(nodes, num_classes, accumulate(nodes, initial=0),
                                        [0, *class_ends], class_ends)]


def pack_graph(g: LabeledGraph, table: EmbeddingTable) -> GraphBatch:
    """Encoder inputs and in-edges of one graph (``pack_graphs`` of one)."""
    return pack_graphs([g], table)[0]


def pack(examples, table: EmbeddingTable) -> list:
    """One ``Batch`` of size 1 per example, in order, from one
    ``pack_graphs`` call over all their graphs."""
    graphs = pack_graphs([ex.knowledge_graph for ex in examples]
                         + [ex.scene_graph for ex in examples], table)
    return [Batch(kg, sg) for kg, sg in zip(graphs, graphs[len(examples):])]


def _offsets(counts, repeats):
    """Start of each part in a concatenation of parts of ``counts`` items,
    repeated ``repeats`` times per part."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.repeat(np.cumsum(counts) - counts, repeats)


def _union(parts) -> GraphBatch:
    nodes = [p.num_nodes for p in parts]
    classes = [p.num_classes for p in parts]
    edges = [p.dst.size for p in parts]
    graphs = [p.num_graphs for p in parts]
    return GraphBatch(
        np.concatenate([p.inputs for p in parts]),
        np.concatenate([p.dst for p in parts]) + _offsets(classes, edges),
        np.concatenate([p.src for p in parts]) + _offsets(nodes, edges),
        np.concatenate([p.weight for p in parts]),
        np.concatenate([p.classes for p in parts]) + _offsets(classes, nodes),
        sum(classes),
        np.concatenate([p.graph_ids for p in parts]) + _offsets(graphs, nodes),
        sum(graphs),
    )


def collate(batches) -> Batch:
    """One disjoint-union batch from packed batches, examples kept in order."""
    if len(batches) == 1:
        return batches[0]
    return Batch(_union([b.kg for b in batches]), _union([b.sg for b in batches]))


# ---------------------------------------------------------------------------
# forward components


def _nonlin(config):
    return T.relu if config.nonlinearity == "relu" else T.sigmoid


def encode_nodes(graphs: GraphBatch, w_enc: Tensor, config: ModelConfig,
                 tape: Tape = None) -> Tensor:
    """Initial node states: nonlinearity of the encoder inputs through the
    encoder weight."""
    return _nonlin(config)(T.linear(Tensor(graphs.inputs), w_enc, tape), tape)


def gcn_layer(states: Tensor, graphs: GraphBatch, w: Tensor, config: ModelConfig,
              tape: Tape = None) -> Tensor:
    """One message-passing layer: nonlinearity of the in-neighbor mean of the
    previous states through the layer weight (no edge features past layer 0).

    ``states`` holds a row per node (the encoder's output) or a row per
    aggregation class (an earlier layer's output); the result holds a row
    per class, the state of every node of that class.
    """
    if states.shape[0] == graphs.num_nodes:
        src = graphs.src
    elif states.shape[0] == graphs.num_classes:
        src = graphs.classes[graphs.src]
    else:
        raise DimensionError(
            f"state rows {states.shape[0]} != node count {graphs.num_nodes}"
            f" or class count {graphs.num_classes}"
        )
    agg = T.scatter_add(states, graphs.dst, src, graphs.weight, graphs.num_classes, tape)
    return _nonlin(config)(T.linear(agg, w, tape), tape)


def readout_sum(states: Tensor, graphs: GraphBatch, tape: Tape = None) -> Tensor:
    """Per-graph sum of node states, (graphs, hidden), from a row per
    aggregation class: each node adds its class's row, in node order.  An
    empty graph reads out as the zero vector."""
    n = graphs.num_nodes
    return T.scatter_add(states, graphs.graph_ids, graphs.classes, np.ones(n),
                         graphs.num_graphs, tape)


def fuse_concat(v_kg: Tensor, v_sg: Tensor, tape: Tape = None) -> Tensor:
    """[v_kg ; v_sg ; v_kg * v_sg], per row."""
    if v_kg.shape != v_sg.shape:
        raise DimensionError(f"fusion inputs disagree: {v_kg.shape} vs {v_sg.shape}")
    return T.concat([v_kg, v_sg, T.mul(v_kg, v_sg, tape)], tape)


def attention_fuse(v_kg: Tensor, v_sg: Tensor, tape: Tape = None,
                   score_w: Tensor = None):
    """Weighted average of the graph vectors, per row.

    The per-graph score is the squared norm (or a learned dot product when
    ``score_w`` is given); the two scores go through a joint softmax.
    Returns (fused, alpha) with alpha's last axis ordered [kg, sg].
    """
    if v_kg.shape != v_sg.shape:
        raise DimensionError(f"fusion inputs disagree: {v_kg.shape} vs {v_sg.shape}")
    ones = Tensor(np.ones((v_kg.shape[-1], 1)))

    def score(v):
        per_unit = T.mul(v, v if score_w is None else score_w, tape)
        return T.matmul(per_unit, ones, tape)

    alpha = T.softmax(T.concat([score(v_kg), score(v_sg)], tape), tape)
    weight_kg = T.matmul(alpha, Tensor([[1.0], [0.0]]), tape)
    weight_sg = T.matmul(alpha, Tensor([[0.0], [1.0]]), tape)
    fused = T.add(T.mul(weight_kg, v_kg, tape), T.mul(weight_sg, v_sg, tape), tape)
    return fused, alpha


def classify(fused: Tensor, watched: dict, config: ModelConfig, tape: Tape = None):
    """MLP head (one hidden layer) with a softmax output per row; returns
    (probs, logits)."""
    if fused.shape[-1] != config.fusion_input_dim:
        raise DimensionError(
            f"fused width {fused.shape[-1]} != expected {config.fusion_input_dim}"
        )
    h = _nonlin(config)(
        T.add(T.linear(fused, watched["mlp.w1"], tape), watched["mlp.b1"], tape), tape)
    logits = T.add(T.linear(h, watched["mlp.w2"], tape), watched["mlp.b2"], tape)
    return T.softmax(logits, tape), logits


def run_tower(graphs: GraphBatch, prefix: str, watched: dict, config: ModelConfig,
              tape: Tape = None) -> Tensor:
    """Encoder (a row per node) plus GCN stack (a row per aggregation class)
    plus readout; returns the (graphs, hidden) readouts."""
    states = encode_nodes(graphs, watched[f"{prefix}.enc"], config, tape)
    for l in range(config.gcn_layers):
        states = gcn_layer(states, graphs, watched[f"{prefix}.gcn{l}"], config, tape)
    return readout_sum(states, graphs, tape)


def forward_batch(batch: Batch, params: ModelParams, config: ModelConfig,
                  tape: Tape = None):
    """Full pipeline on a collated batch; returns (probs, diagnostics), one
    row per example.

    Diagnostics carry the attention weights (None in concat mode), both
    readouts, and the logits tensor.
    """
    watched = params.tensors(tape)
    prefixes = tower_prefixes(config)
    readouts = {}
    for kind, graphs in (("kg", batch.kg), ("sg", batch.sg)):
        if prefixes[kind] is None:
            readouts[kind] = Tensor(np.zeros((batch.size, config.hidden_dim)))
        else:
            readouts[kind] = run_tower(graphs, prefixes[kind], watched, config, tape)
    v_kg, v_sg = readouts["kg"], readouts["sg"]
    alpha = None
    if config.fusion_mode == "concat":
        fused = fuse_concat(v_kg, v_sg, tape)
    else:
        fused, alpha = attention_fuse(v_kg, v_sg, tape, score_w=watched.get("attn.score"))
    probs, logits = classify(fused, watched, config, tape)
    diagnostics = {
        "alpha": None if alpha is None else alpha.data,
        "readout_kg": v_kg.data,
        "readout_sg": v_sg.data,
        "logits": logits,
    }
    return probs, diagnostics


def forward(example, params: ModelParams, table: EmbeddingTable, config: ModelConfig):
    """Untraced pipeline on one example; returns (probs, diagnostics) as in
    ``forward_batch`` with the batch axis dropped (logits as an array)."""
    probs, diag = forward_batch(pack([example], table)[0], params, config)
    diag["logits"] = diag["logits"].data
    return Tensor(probs.data[0]), {k: None if v is None else v[0] for k, v in diag.items()}


# ---------------------------------------------------------------------------
# checkpointing

CHECKPOINT_VERSION = 2  # 2: records the output head (loss_mode)
LOSS_MODES = ("softmax_ce", "sigmoid_bce")


def save_checkpoint(path, config: ModelConfig, params: ModelParams,
                    loss_mode: str = "softmax_ce"):
    """Write config, output head and named parameter tensors; values
    round-trip bit-exact."""
    if loss_mode not in LOSS_MODES:
        raise ConfigError(f"unknown loss_mode '{loss_mode}'")
    arrays = {f"param/{p.name}": p.value for p in params}
    meta = json.dumps({"version": CHECKPOINT_VERSION, "config": asdict(config),
                       "loss_mode": loss_mode})
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
             **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_checkpoint(path):
    """Returns (config, params, loss_mode): the model and the output head it
    was trained with, which decides how its logits are scored."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
        config = ModelConfig(**meta["config"])
        params = ModelParams([
            Parameter(data[k].copy(), k[len("param/"):])
            for k in data.files if k.startswith("param/")
        ])
    if meta.get("loss_mode") not in LOSS_MODES:
        raise ConfigError(f"checkpoint has unknown loss_mode {meta.get('loss_mode')!r}")
    expected = {name for name, _ in param_shapes(config)}
    if set(params.names()) != expected:
        raise ConfigError("checkpoint parameters do not match its config")
    for p in params:
        if not np.isfinite(p.value).all():
            raise ConfigError(f"checkpoint parameter '{p.name}' has non-finite values")
    return config, params, meta["loss_mode"]


def load_checkpoint(path):
    """Returns (config, params) of a checkpoint."""
    config, params, _ = read_checkpoint(path)
    return config, params

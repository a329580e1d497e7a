"""Two-tower graph network: node encoding, GCN stack, sum readout,
concat or attention fusion of the two graph vectors, and an MLP softmax head.

The network runs on mini-batches.  ``pack_graphs`` turns graphs into
``GraphBatch`` unions in one pass over all the graphs of a call.  A node's
aggregation class is its ordered list of in-edge sources; nodes with the
same list get the same GCN aggregate at every layer (the colour-refinement
view of message passing), and the 1-hop stars of a knowledge graph have
many such nodes.  So every GCN layer computes one row per class, and the
readout adds each class's row times its node count.

Only what a later step reads is computed, as in the minibatch receptive
fields of GraphSAGE: the encoder's output is read only by the first layer's
messages, so only their sources (nodes that appear in some class's in-edge
list) get an encoder row, and only the nodes whose inputs those rows read
get an input vector.  The leaves of a 1-hop knowledge graph cost neither.

``pack_batch`` packs examples into one disjoint union per graph kind, ids
shifted by each graph's start (the batching of PyTorch Geometric).  Training
packs each split once; a mini-batch is ``take`` of its rows, one gather of
the chosen graphs' ranges of classes, sources and edges.  A union keeps only
what the forward reads, so it holds no per-node array: a node is counted in
its class's size.  Evaluation packs each chunk of examples straight into a
union.  Each tower is then one encoder product over the sources, one
``scatter_add`` and product over the classes per GCN layer, and one
``scatter_add`` over graph ids for the readout; fusion and the head work on
the (batch, hidden) rows.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass
from functools import cached_property

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

    Each node belongs to an aggregation class: its ordered list of in-edge
    sources (repeated edges count; a node without in-edges has a self-loop
    instead).  The classes of a graph are numbered by first occurrence in
    node order, and no class spans two graphs; class ``c`` has
    ``class_sizes[c]`` nodes and belongs to graph ``class_graph[c]``.

    ``(dst, src, src_class, weight)`` holds the in-edges of each class, in
    edge order within a class: ``dst`` is the class, ``src`` the row of the
    edge's source in ``inputs``, ``src_class`` the class of that source and
    ``weight`` one over the length of the list.  Only these sources are
    encoded: ``inputs`` has one row per source, in node order.  So at least
    one in-edge of its own graph reads every row of ``inputs``, which is how
    ``offsets`` finds a row's graph.  A GCN layer's aggregate of class ``c``
    is the sum of ``weight[e] * states[...]`` over the edges with
    ``dst[e] == c``, read at ``src[e]`` from the encoder's rows and at
    ``src_class[e]`` from an earlier layer's rows (a row per class).
    """

    inputs: np.ndarray  # (sources, 2 * embed_dim)
    dst: np.ndarray
    src: np.ndarray
    src_class: np.ndarray
    weight: np.ndarray
    class_sizes: np.ndarray
    class_graph: np.ndarray
    num_graphs: int

    @property
    def num_nodes(self) -> int:
        return int(self.class_sizes.sum())

    @property
    def num_classes(self) -> int:
        return self.class_sizes.size

    @property
    def num_sources(self) -> int:
        return self.inputs.shape[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """(3, graphs + 1) starts of each graph's classes, sources and edges,
        then their ends; a graph's items are consecutive."""
        edge_graph = self.class_graph[self.dst]
        source_graph = np.empty(self.num_sources, dtype=np.intp)
        source_graph[self.src] = edge_graph  # every source row is read by an edge
        counts = [np.bincount(graph_ids, minlength=self.num_graphs)
                  for graph_ids in (self.class_graph, source_graph, edge_graph)]
        return np.pad(np.cumsum(counts, axis=1), ((0, 0), (1, 0)))


@dataclass
class Batch:
    """Knowledge and scene graphs of the same examples, in the same order."""

    kg: GraphBatch
    sg: GraphBatch

    @property
    def size(self) -> int:
        return self.kg.num_graphs


def pack_graphs(graphs, table: EmbeddingTable, parts=None) -> list:
    """Aggregation classes, class in-edges and source encoder inputs of the
    graphs, in one pass over all of them; returns one ``GraphBatch`` per
    part, a part being a run of consecutive graphs (``parts`` lists how many
    each has; by default every graph is a part of its own).

    A source's encoder input is the mean over its in-edges of [reader input
    ; relation vector], where the reader is the edge's source node; a source
    without in-edges gets a self-loop with the reserved ``self`` relation.
    A reader's input is the mean of the vectors of its object token and each
    attribute token, and each distinct token is embedded once per call
    (``EmbeddingTable.phrase_vectors``).  Nodes that no class in-edge reads
    cost no encoder row, and nodes that no source's in-edge reads no input
    vector.  Sums run in edge order, as for the graph packed alone; ids are
    numbered within each part, so each part is a slice of the arrays built
    for all of them.
    """
    parts = [1] * len(graphs) if parts is None else parts
    ids = {SELF_RELATION: 0}  # distinct phrase -> row of the phrase vectors
    tokens, token_counts = [], []  # per reader: phrase ids of its tokens; their count
    readers, relations = [], []  # per message into a source: reader row, phrase id
    degree = []  # per source: its messages
    src, src_class = [], []  # per class in-edge
    lengths, class_graph = [], []  # per class
    node_class = []  # per node: its class, numbered over the call
    ends = [(0, 0, 0)]  # per part: ends of its classes, sources, edges
    graph_iter = iter(graphs)
    for count in parts:
        s0 = 0  # sources of the part so far
        for gid in range(count):
            g = next(graph_iter)
            n = len(g.nodes)
            in_srcs = {}  # node -> its in-edge sources, in edge order
            for e in g.edges:
                in_srcs.setdefault(e.dst, []).append(e.src)
            if in_srcs and (min(in_srcs) < 0 or max(in_srcs) >= n):
                raise ValidationError(f"edge index out of range for {n} nodes")
            c0 = len(class_graph)
            number = {}  # in-edge sources -> class, numbered by first occurrence
            local = [number.setdefault(tuple(in_srcs.get(i, (i,))), len(number) + c0)
                     for i in range(n)]
            flat = [u for key in number for u in key]  # sources of the class in-edges
            used = sorted(set(flat))
            if used and (used[0] < 0 or used[-1] >= n):
                raise ValidationError(f"edge index out of range for {n} nodes")
            row = dict(zip(used, range(s0, s0 + len(used))))
            src += map(row.__getitem__, flat)
            src_class += map(local.__getitem__, flat)
            lengths += map(len, number)
            node_class += local
            class_graph += [gid] * len(number)

            into = {}  # source -> its in-edges, in edge order
            if not in_srcs.keys().isdisjoint(used):
                for e in g.edges:
                    if e.dst in row:
                        into.setdefault(e.dst, []).append(e)
            reader = {}  # node -> row of the reader inputs
            for u in used:
                pairs = ([(e.src, e.relation) for e in into[u]] if u in into
                         else ((u, SELF_RELATION),))
                for v, relation in pairs:
                    r = reader.get(v)
                    if r is None:
                        r = reader[v] = len(token_counts)
                        node = g.nodes[v]
                        tokens += [ids.setdefault(t, len(ids))
                                   for t in (node.name, *node.attributes)]
                        token_counts.append(1 + len(node.attributes))
                    readers.append(r)
                    relations.append(ids.setdefault(relation, len(ids)))
                degree.append(len(pairs))
            s0 += len(used)
        ends.append((len(class_graph), len(degree), len(src)))
    phrase_vecs = table.phrase_vectors(list(ids))

    num_readers, num_sources = len(token_counts), len(degree)
    x = T.segment_mean(phrase_vecs[np.array(tokens, dtype=np.intp)],
                       np.repeat(np.arange(num_readers), token_counts), num_readers)
    degree = np.array(degree, dtype=np.intp)
    messages = np.hstack([x[np.array(readers, dtype=np.intp)],
                          phrase_vecs[np.array(relations, dtype=np.intp)]])
    inputs = T.scatter_rows(messages, np.repeat(np.arange(num_sources), degree),
                            num_sources) / degree[:, None]

    # class ids are numbered over the call, then shifted to number within each part
    part_classes = np.diff(np.array(ends, dtype=np.intp)[:, 0])
    lengths = np.array(lengths, dtype=np.intp)
    first = np.repeat(np.cumsum(part_classes) - part_classes, part_classes)  # per class
    start = np.repeat(first, lengths)  # per class in-edge: the first class of its part
    dst = np.repeat(np.arange(lengths.size), lengths) - start
    src = np.array(src, dtype=np.intp)
    src_class = np.array(src_class, dtype=np.intp) - start
    weight = 1.0 / np.repeat(lengths, lengths)
    class_sizes = np.bincount(np.array(node_class, dtype=np.intp), minlength=lengths.size)
    class_graph = np.array(class_graph, dtype=np.intp)
    return [GraphBatch(inputs[s0:s1], dst[e0:e1], src[e0:e1], src_class[e0:e1],
                       weight[e0:e1], class_sizes[c0:c1], class_graph[c0:c1], count)
            for count, (c0, s0, e0), (c1, s1, e1) in zip(parts, ends, ends[1:])]


def pack_graph(g: LabeledGraph, table: EmbeddingTable) -> GraphBatch:
    """Encoder inputs and in-edges of one graph (``pack_graphs`` of one)."""
    return pack_graphs([g], table)[0]


def pack_batch(examples, table: EmbeddingTable) -> Batch:
    """One ``Batch`` of all the examples, in order, from one ``pack_graphs``
    call with one part per graph kind."""
    b = len(examples)
    return Batch(*pack_graphs([ex.knowledge_graph for ex in examples]
                              + [ex.scene_graph for ex in examples], table, [b, b]))


def take(graphs: GraphBatch, rows) -> GraphBatch:
    """The union of the graphs at ``rows`` of a union, in that order (a row
    may repeat): each kind of id is gathered over the chosen graphs' ranges
    and shifted from a graph's old start to its new one."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = graphs.offsets[:, rows]
    lengths = graphs.offsets[:, rows + 1] - starts  # (3, rows), kinds as in offsets
    shift = starts - (np.cumsum(lengths, axis=1) - lengths)  # old start - new start
    graph_of = [np.repeat(np.arange(rows.size), n) for n in lengths]  # new graph per item
    classes, sources, edges = (s[g] + np.arange(g.size) for s, g in zip(shift, graph_of))
    class_shift, source_shift, _ = shift
    class_graph, _, edge_graph = graph_of
    return GraphBatch(
        graphs.inputs[sources],
        graphs.dst[edges] - class_shift[edge_graph],
        graphs.src[edges] - source_shift[edge_graph],
        graphs.src_class[edges] - class_shift[edge_graph],
        graphs.weight[edges],
        graphs.class_sizes[classes],
        class_graph,
        rows.size,
    )


# ---------------------------------------------------------------------------
# forward components


def _nonlin(config):
    return T.relu if config.nonlinearity == "relu" else T.sigmoid


def encode_nodes(graphs: GraphBatch, w_enc: Tensor, config: ModelConfig,
                 tape: Tape = None) -> Tensor:
    """Initial states of the sources: nonlinearity of the encoder inputs
    through the encoder weight."""
    return _nonlin(config)(T.linear(Tensor(graphs.inputs), w_enc, tape), tape)


def gcn_layer(states: Tensor, graphs: GraphBatch, w: Tensor, config: ModelConfig,
              tape: Tape = None, from_encoder: bool = False) -> Tensor:
    """One message-passing layer: nonlinearity of the in-neighbor mean of the
    previous states through the layer weight (no edge features past layer 0).

    ``states`` holds a row per source (the encoder's output, with
    ``from_encoder``) or a row per aggregation class (an earlier layer's
    output); the result holds a row per class, the state of every node of
    that class.
    """
    src, n_in, rows = ((graphs.src, graphs.num_sources, "source") if from_encoder
                       else (graphs.src_class, graphs.num_classes, "class"))
    if states.shape[0] != n_in:
        raise DimensionError(f"state rows {states.shape[0]} != {rows} count {n_in}")
    agg = T.scatter_add(states, graphs.dst, src, graphs.weight, graphs.num_classes, tape)
    return _nonlin(config)(T.linear(agg, w, tape), tape)


def readout_sum(states: Tensor, graphs: GraphBatch, tape: Tape = None) -> Tensor:
    """Per-graph sum of node states, (graphs, hidden), from a row per
    aggregation class: each class adds its row times its node count.  An
    empty graph reads out as the zero vector."""
    return T.scatter_add(states, graphs.class_graph, np.arange(graphs.num_classes),
                         graphs.class_sizes, graphs.num_graphs, tape)


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
    ones = Tensor(np.ones((1, v_kg.shape[-1])))  # a weight row that sums a row

    def score(v):
        per_unit = T.mul(v, v if score_w is None else score_w, tape)
        return T.linear(per_unit, ones, tape)

    alpha = T.softmax(T.concat([score(v_kg), score(v_sg)], tape), tape)
    weight_kg = T.linear(alpha, Tensor([[1.0, 0.0]]), tape)
    weight_sg = T.linear(alpha, Tensor([[0.0, 1.0]]), tape)
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
    """Encoder (a row per source) plus GCN stack (a row per aggregation
    class) plus readout; returns the (graphs, hidden) readouts."""
    states = encode_nodes(graphs, watched[f"{prefix}.enc"], config, tape)
    for l in range(config.gcn_layers):
        states = gcn_layer(states, graphs, watched[f"{prefix}.gcn{l}"], config, tape,
                           from_encoder=l == 0)
    return readout_sum(states, graphs, tape)


def forward_batch(batch: Batch, params: ModelParams, config: ModelConfig,
                  tape: Tape = None):
    """Full pipeline on a packed batch; returns (probs, diagnostics), one
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
    probs, diag = forward_batch(pack_batch([example], table), params, config)
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

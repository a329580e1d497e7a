"""Two-tower graph network: node encoding, GCN stack, sum readout,
concat or attention fusion of the two graph vectors, and an MLP head.

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
``segment_sum`` for the readout: a product with the (graphs, classes)
matrix of class sizes, applied to at most ``T.SEGMENT_BLOCK`` graphs at a
time, since a graph's classes are consecutive in a union.  Fusion (one
``pair_concat`` or ``pair_attention`` step) and the head (two ``linear``
steps with their biases) work on the (batch, hidden) rows.

The same rule trims the GCN stack: a layer before the last computes only
the classes that some in-edge reads, and only the last computes every
class, for the readout.  A layer sums its in-edges as ``tensor.Edges``
rounds of exact gathers: a class's in-edges are consecutive and every class
has one, so round 0 gathers each class's first in-edge and round k adds the
k-th of those that have one.  A union builds each list's rounds once, on
its first forward pass.  The sums have the bits of a loop over the edges.
A trimmed layer's product has fewer rows than one over every class, and
BLAS may round a row of a product differently when the row count changes,
so scores agree with computing every class to rounding (bit for bit on the
benchmark's inputs).
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import zip_longest

import numpy as np

from . import tensor as T
from .embeddings import EmbeddingTable
from .errors import ConfigError, DimensionError, ValidationError
from .rng import child_rng
from .tensor import Parameter, Tape, Tensor

SELF_RELATION = "self"  # reserved relation token for in-degree-0 fallback

FUSION_MODES = ("concat", "attention", "attention_learned")
GRAPH_MODES = ("both", "sg_only", "kg_only")
NONLINEARITIES = ("relu", "sigmoid")
LOSS_MODES = ("softmax_ce", "sigmoid_bce")  # output head: softmax, or sigmoid per label


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
    loss_mode: str = "softmax_ce"

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
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"unknown loss_mode '{self.loss_mode}'")

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
    ``src_class[e]`` from an earlier layer's rows.

    An earlier layer computes only the classes that some in-edge reads
    (``read``), a row each in class order; only the last layer computes
    every class, because the readout sums them all.  The ``Edges`` lists a
    layer applies are built on first use and kept, so a union builds each
    once, and range-checks their indices then.
    """

    inputs: np.ndarray  # (sources, 2 * embed_dim)
    dst: np.ndarray
    src: np.ndarray
    src_class: np.ndarray
    weight: np.ndarray
    class_sizes: np.ndarray
    class_graph: np.ndarray
    num_graphs: int
    _layer_edges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    @cached_property
    def read(self) -> np.ndarray:
        """Per class: whether an in-edge reads it, so that an earlier layer
        must compute its row."""
        return np.bincount(self.src_class, minlength=self.num_classes) > 0

    @cached_property
    def _read_rows(self):
        """(row, count): each class's row among the read ones, the rows an
        earlier layer computes (None when every class is read), and how
        many there are."""
        n_read = int(np.count_nonzero(self.read))
        return (None if n_read == self.num_classes else self.read.cumsum() - 1), n_read

    def layer_edges(self, from_encoder: bool, all_classes: bool) -> T.Edges:
        """The in-edges a GCN layer sums: from the encoder's rows (a row per
        source) or from an earlier layer's (a row per read class), into
        every class or only into the read ones."""
        row, n_read = self._read_rows
        trim = not all_classes and row is not None
        edges = self._layer_edges.get((from_encoder, trim))
        if edges is None:
            keep = self.read[self.dst] if trim else slice(None)
            if from_encoder:
                src, n_in = self.src[keep], self.num_sources
            else:
                src, n_in = self.src_class[keep], n_read
                src = src if row is None else row[src]
            dst, n_out = (row[self.dst[keep]], n_read) if trim else (self.dst, self.num_classes)
            edges = T.Edges(dst, src, self.weight[keep], n_out, n_in)
            self._layer_edges[from_encoder, trim] = edges
        return edges


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
            n = len(g.names)
            in_srcs = {}  # node -> its in-edge sources, in edge order
            for u, v in zip(g.src, g.dst):
                in_srcs.setdefault(v, []).append(u)
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

            into = {}  # source -> (reader, relation) of its in-edges, in edge order
            if not in_srcs.keys().isdisjoint(used):
                for u, v, relation in zip(g.src, g.dst, g.relations):
                    if v in row:
                        into.setdefault(v, []).append((u, relation))
            reader = {}  # node -> row of the reader inputs
            for u in used:
                pairs = into.get(u, ((u, SELF_RELATION),))
                for v, relation in pairs:
                    r = reader.get(v)
                    if r is None:
                        r = reader[v] = len(token_counts)
                        attrs = g.attributes[v]
                        tokens += [ids.setdefault(t, len(ids)) for t in (g.names[v], *attrs)]
                        token_counts.append(1 + len(attrs))
                    readers.append(r)
                    relations.append(ids.setdefault(relation, len(ids)))
                degree.append(len(pairs))
            s0 += len(used)
        ends.append((len(class_graph), len(degree), len(src)))
    phrase_vecs = table.phrase_vectors(list(ids))

    num_readers, num_sources = len(token_counts), len(degree)
    x = T.segment_mean(phrase_vecs[np.array(tokens, dtype=np.intp)],
                       np.repeat(np.arange(num_readers), token_counts), num_readers)
    messages = np.hstack([x[np.array(readers, dtype=np.intp)],
                          phrase_vecs[np.array(relations, dtype=np.intp)]])
    inputs = T.segment_mean(messages, np.repeat(np.arange(num_sources), degree),
                            num_sources)  # every source has a message

    # class ids are numbered over the call, then shifted to number within each part
    part_classes = np.diff(np.array(ends, dtype=np.intp)[:, 0])
    lengths = np.array(lengths, dtype=np.intp)
    first = (part_classes.cumsum() - part_classes).repeat(part_classes)  # per class
    start = first.repeat(lengths)  # per class in-edge: the first class of its part
    dst = np.arange(lengths.size).repeat(lengths) - start
    src = np.array(src, dtype=np.intp)
    src_class = np.array(src_class, dtype=np.intp) - start
    weight = 1.0 / lengths.repeat(lengths)
    class_sizes = np.bincount(np.array(node_class, dtype=np.intp), minlength=lengths.size)
    class_graph = np.array(class_graph, dtype=np.intp)
    return [GraphBatch(inputs[s0:s1], dst[e0:e1], src[e0:e1], src_class[e0:e1],
                       weight[e0:e1], class_sizes[c0:c1], class_graph[c0:c1], count)
            for count, (c0, s0, e0), (c1, s1, e1) in zip(parts, ends, ends[1:])]


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
              tape: Tape = None, from_encoder: bool = False,
              all_classes: bool = True) -> Tensor:
    """One message-passing layer: nonlinearity of the in-neighbor mean of the
    previous states through the layer weight (no edge features past layer 0).

    ``states`` holds a row per source (the encoder's output, with
    ``from_encoder``) or a row per read class (an earlier layer's output).
    The result holds a row per class (``all_classes``, the last layer), the
    state of every node of that class, or a row per read class.
    """
    edges = graphs.layer_edges(from_encoder, all_classes)
    if states.shape[0] != edges.n_in:
        rows = "source" if from_encoder else "read class"
        raise DimensionError(f"state rows {states.shape[0]} != {rows} count {edges.n_in}")
    agg = T.scatter_add(states, edges, tape)
    return _nonlin(config)(T.linear(agg, w, tape), tape)


def readout_sum(states: Tensor, graphs: GraphBatch, tape: Tape = None) -> Tensor:
    """Per-graph sum of node states, (graphs, hidden), from a row per
    aggregation class: each class adds its row times its node count (a
    graph's classes are consecutive, so this is ``T.segment_sum``).  An
    empty graph reads out as the zero vector."""
    return T.segment_sum(states, graphs.class_sizes, graphs.class_graph,
                         graphs.num_graphs, tape)


def fuse_concat(v_kg: Tensor, v_sg: Tensor, tape: Tape = None) -> Tensor:
    """[v_kg ; v_sg ; v_kg * v_sg], per row (``T.pair_concat``)."""
    return T.pair_concat(v_kg, v_sg, tape)


def attention_fuse(v_kg: Tensor, v_sg: Tensor, tape: Tape = None,
                   score_w: Tensor = None):
    """Weighted average of the graph vectors, per row (``T.pair_attention``).

    The per-graph score is the squared norm (or a learned dot product when
    ``score_w`` is given); the two scores go through a joint softmax.
    Returns (fused, alpha) with alpha's last axis ordered [kg, sg].
    """
    fused, alpha = T.pair_attention(v_kg, v_sg, score_w, tape)
    return fused, T._wrap(alpha)  # finite, or the scan of fused has refused it


def classify(fused: Tensor, watched: dict, config: ModelConfig, tape: Tape = None):
    """MLP head (one hidden layer); returns its logits per row.  The loss
    takes them as they are; ``forward_batch`` turns them into scores."""
    if fused.shape[-1] != config.fusion_input_dim:
        raise DimensionError(
            f"fused width {fused.shape[-1]} != expected {config.fusion_input_dim}"
        )
    h = _nonlin(config)(T.linear(fused, watched["mlp.w1"], tape, watched["mlp.b1"]), tape)
    return T.linear(h, watched["mlp.w2"], tape, watched["mlp.b2"])


def run_tower(graphs: GraphBatch, prefix: str, watched: dict, config: ModelConfig,
              tape: Tape = None) -> Tensor:
    """Encoder (a row per source) plus GCN stack (a row per read class, then
    a row per class at the last layer) plus readout; returns the (graphs,
    hidden) readouts."""
    states = encode_nodes(graphs, watched[f"{prefix}.enc"], config, tape)
    last = config.gcn_layers - 1
    for l in range(config.gcn_layers):
        states = gcn_layer(states, graphs, watched[f"{prefix}.gcn{l}"], config, tape,
                           from_encoder=l == 0, all_classes=l == last)
    return readout_sum(states, graphs, tape)


def forward_logits(batch: Batch, params: ModelParams, config: ModelConfig,
                   tape: Tape = None):
    """Full pipeline on a packed batch; returns (logits, diagnostics), one
    row per example.  This is the path the loss is traced on.

    Diagnostics are arrays: the attention weights (None in concat mode) and
    both readouts.
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
    diagnostics = {
        "alpha": None if alpha is None else alpha.data,
        "readout_kg": v_kg.data,
        "readout_sg": v_sg.data,
    }
    return classify(fused, watched, config, tape), diagnostics


def forward_batch(batch: Batch, params: ModelParams, config: ModelConfig):
    """Untraced ``forward_logits`` through the configured head: returns (scores,
    diagnostics), the scores a softmax, or a sigmoid per label."""
    logits, diagnostics = forward_logits(batch, params, config)
    head = T.sigmoid if config.loss_mode == "sigmoid_bce" else T.softmax
    return head(logits), diagnostics


def forward(example, params: ModelParams, table: EmbeddingTable, config: ModelConfig):
    """Untraced pipeline on one example; returns (scores, diagnostics) as in
    ``forward_batch`` with the batch axis dropped."""
    scores, diag = forward_batch(pack_batch([example], table), params, config)
    return Tensor(scores.data[0]), {k: None if v is None else v[0] for k, v in diag.items()}


# ---------------------------------------------------------------------------
# checkpointing

# 2: records the output head (loss_mode) beside the config; 3: may pin the
# ordered label list the model was trained on
CHECKPOINT_VERSION = 3
_READ_VERSIONS = (2, 3)


def save_checkpoint(path, config: ModelConfig, params: ModelParams, labels=None):
    """Write config and named parameter tensors; values round-trip bit-exact.
    The output head is stored as its own metadata key, beside the config,
    and so is ``labels``, the ordered label list, when it is given."""
    fields = asdict(config)
    loss_mode = fields.pop("loss_mode")
    arrays = {f"param/{p.name}": p.value for p in params}
    meta = {"version": CHECKPOINT_VERSION, "config": fields, "loss_mode": loss_mode}
    if labels is not None:
        meta["labels"] = list(labels)
    meta = json.dumps(meta)
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
             **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


_JSON_TYPES = {"int": int, "str": str, "bool": bool}  # ModelConfig annotations


def load_checkpoint(path, labels=None):
    """Returns (config, params): the model with the output head it was
    trained with (``config.loss_mode``), so library calls score it as the
    CLI does.  An unreadable file, another version, a config field of the
    wrong JSON type or a parameter of the wrong shape raises ``ConfigError``
    naming the file.  So does a pinned label list that differs from
    ``labels``, naming the first position where they differ; a checkpoint
    that pins none is not checked."""
    try:
        return _load_checkpoint(path, labels)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_checkpoint(path, labels):
    try:  # np.load leaks a file it opens itself when the zip is broken
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            arrays = {k[len("param/"):]: data[k]
                      for k in data.files if k.startswith("param/")}
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, TypeError) as exc:
        # TypeError: a plain .npy array is no context manager.  Only the
        # error's kind is shown: numpy's text on a garbage file advises
        # loading it with allow_pickle.
        raise ConfigError(f"not a readable checkpoint ({type(exc).__name__})") from None
    if type(meta) is not dict:
        raise ConfigError("checkpoint metadata is not an object")
    if meta.get("version") not in _READ_VERSIONS:
        raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
    if meta.get("loss_mode") not in LOSS_MODES:
        raise ConfigError(f"checkpoint has unknown loss_mode {meta.get('loss_mode')!r}")
    config = _config_from_json(meta.get("config"), meta["loss_mode"])
    pinned = meta.get("labels")
    if pinned is not None:
        if (type(pinned) is not list or len(pinned) != config.num_labels
                or not all(type(l) is str for l in pinned)):
            raise ConfigError(f"checkpoint labels must be a list of {config.num_labels} strings")
        if labels is not None and pinned != list(labels):
            i = next(i for i, (a, b) in enumerate(zip_longest(pinned, labels)) if a != b)
            raise ConfigError(f"label {i} is {_label_at(pinned, i)} in the checkpoint but "
                              f"{_label_at(labels, i)} in the bundle")
    shapes = dict(param_shapes(config))
    if set(arrays) != set(shapes):
        raise ConfigError("checkpoint parameters do not match its config")
    for name, arr in arrays.items():
        if arr.dtype != np.float64 or arr.shape != shapes[name]:
            raise ConfigError(f"checkpoint parameter '{name}' is {arr.dtype} of shape "
                              f"{arr.shape}, expected float64 of shape {shapes[name]}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"checkpoint parameter '{name}' has non-finite values")
    return config, ModelParams([Parameter(arr.copy(), name) for name, arr in arrays.items()])


def _label_at(labels, i) -> str:
    return repr(labels[i]) if i < len(labels) else "missing"


def _config_from_json(fields, loss_mode: str) -> ModelConfig:
    types = {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(ModelConfig)
             if f.name != "loss_mode"}  # stored beside the config
    if type(fields) is not dict or set(fields) != set(types):
        raise ConfigError(f"checkpoint config must have the fields {sorted(types)}")
    for name, kind in types.items():
        if type(fields[name]) is not kind:  # exact: true is not the int 1
            raise ConfigError(f"checkpoint config field '{name}' must be "
                              f"{kind.__name__}, got {fields[name]!r}")
    return ModelConfig(**fields, loss_mode=loss_mode)

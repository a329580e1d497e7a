"""Two-tower graph network: node encoding, GCN stack, sum readout,
concat or attention fusion of the two graph vectors, and an MLP head.

The network runs on mini-batches.  ``pack_graphs`` turns graphs into
``GraphBatch`` unions in one pass over all the graphs of a call.  A node's
aggregation class is its ordered list of in-edge sources; nodes with the
same list get the same GCN aggregate at every layer (the colour-refinement
view of message passing), and the 1-hop stars of a knowledge graph have
many such nodes.  The readout adds each class's row times its node count.

Rows are shared across the graphs of a union too, as HAG shares aggregates
(Jia et al., "Redundancy-Free Computation for Graph Neural Networks", KDD
2020): images with the same object get the same facts around it.  Packing
keys every source by its messages (reader tokens and relation, in edge
order), as symbols, so sources with equal keys share one encoder row; and
it keys every class, round by round, by the source rows of its in-edges,
then by its own key and those of its in-edges' classes (Weisfeiler-Lehman
refinement), until a round splits no class.  Equal keys mean equal inputs
through the same ops in the same order, so every GCN layer computes one row
per key, exactly.  The more graphs a union holds, the more it shares, so
evaluation packs up to ``evaluation.MAX_CHUNK_NODES`` (8,192) nodes per
union: infer_large's 30-example test split is one union, which computes
35% of its knowledge-graph rows at the first layers and 46% at the last;
scene graphs stay almost all distinct.  Weight gradients sum over the
shared rows, so training's bits differ from a forward of a row per class.

Only what a later step reads is computed, as in the minibatch receptive
fields of GraphSAGE: the encoder's output is read only by the first layer's
messages, so only their sources (nodes that appear in some class's in-edge
list) get an encoder row, and only the nodes whose inputs those rows read
get an input vector.  The leaves of a 1-hop knowledge graph cost neither.

``pack_batch`` packs examples into one disjoint union per graph kind (the
batching of PyTorch Geometric).  Training packs each split once; a
mini-batch is ``take`` of its rows, one gather of the chosen graphs' ranges
of classes and edges and of the encoder inputs they read.  A union keeps
only what the forward reads, so it holds no per-node array: a node is
counted in its class's size.  Evaluation packs each chunk of examples
straight into a union.  ``GraphBatch.plan`` lists what a tower computes:
one encoder product over the source rows, a ``scatter_add`` and product per
GCN layer over its keys' rows, and the readout, one ``segment_sum`` over at
most ``T.SEGMENT_BLOCK`` graphs at a time (a graph's classes are
consecutive in a union): per block, a product of the (graphs, rows) matrix
of class sizes with the rows the block's classes read.  When rows are
shared, the readout reads them straight from the last layer's key rows,
with no gather of a row per class: classes of one graph on one row add
their sizes, and a row may feed several blocks, or, when the (graphs, key
rows) matrix is no larger than the blocks' would be, as for a training
batch of a few dozen small graphs, one block reads every key row.  A union
whose last-layer keys are all distinct (every one-example union of the
benchmark's inputs) has a row per class, in order, and each block reads
one consecutive run of them.  Fusion (one ``pair_concat`` or
``pair_attention`` step) and the head (two ``linear`` steps with their
biases) work on the (batch, hidden) rows.

The same rule trims the GCN stack: a layer before the last computes only
the keys of classes that some in-edge reads, and only the last computes
every key, for the readout.  A layer sums its in-edges as ``tensor.Edges``
rounds of exact gathers: a row's in-edges are those of the first class with
its key, and round 0 gathers each row's first in-edge and round k adds the
k-th of those that have one.  A union builds each plan once, on its first
forward pass.  The sums have the bits of a loop over the edges.  A product
over fewer rows may round a row differently (BLAS picks its kernel by the
row count), so scores agree with computing every class to rounding (bit for
bit on the benchmark's inputs).
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

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
        """Copies of the values, without gradients."""
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


class TowerPlan(NamedTuple):
    """What a tower computes on a union, layer by layer: each GCN layer's
    in-edges from the previous layer's rows (the encoder's, a row per row of
    ``inputs``) into its own, and the last layer's row of each class, which
    the readout reads straight from those rows (None when they are the
    classes, in order: no key of the last layer is shared)."""

    layers: list
    readout: np.ndarray


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
    ``weight`` one over the length of the list.  ``inputs`` has a row per
    distinct source content, the messages into a source (reader tokens and
    relation, in edge order): sources of any graph of the union with the
    same messages share a row.  A GCN layer's aggregate of class ``c`` is
    the sum of ``weight[e] * states[...]`` over the edges with
    ``dst[e] == c``, read at ``src[e]`` from the encoder's rows and at
    ``src_class[e]`` from an earlier layer's rows.

    ``class_keys[r]`` numbers the classes by content at refinement round r:
    round 0 by the source rows of their in-edges, round r by their round
    r - 1 key and those of their in-edges' classes.  Rounds stop when one
    splits no class, so layer l's rows are keyed by round
    ``min(l, rounds - 1)``, and classes with equal keys compute equal rows.
    ``plan`` builds, once per union and depth, the edge lists that compute
    one row per key: an earlier layer only over the classes that some
    in-edge reads (``read``), the last over every class, for the readout,
    which reads each class's key row by index (``TowerPlan.readout``).
    """

    inputs: np.ndarray  # (sources, 2 * embed_dim)
    dst: np.ndarray
    src: np.ndarray
    src_class: np.ndarray
    weight: np.ndarray
    class_sizes: np.ndarray
    class_graph: np.ndarray
    class_keys: np.ndarray  # (rounds, classes)
    num_graphs: int
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """(2, graphs + 1) starts of each graph's classes and edges, then
        their ends; a graph's classes and edges are consecutive."""
        counts = [np.bincount(graph_ids, minlength=self.num_graphs)
                  for graph_ids in (self.class_graph, self.class_graph[self.dst])]
        return np.pad(np.cumsum(counts, axis=1), ((0, 0), (1, 0)))

    @cached_property
    def read(self) -> np.ndarray:
        """Per class: whether an in-edge reads it, so that an earlier layer
        must compute its row."""
        return np.bincount(self.src_class, minlength=self.num_classes) > 0

    def plan(self, layers: int) -> TowerPlan:
        """The ``TowerPlan`` of a ``layers``-deep tower, built on first use."""
        plan = self._plans.get(layers)
        if plan is None:
            plan = self._plans[layers] = self._make_plan(layers)
        return plan

    def _make_plan(self, layers: int) -> TowerPlan:
        read = self.read
        every_read = read.all()
        last_round = self.class_keys.shape[0] - 1
        chosen = {}  # (round, every class) -> each class's row, the row count, their in-edges
        distinct = {}  # round -> whether each key is once, in class order
        edges, prev_row = [], None
        for l in range(layers):
            r, every = min(l, last_round), l == layers - 1 or every_read
            if (r, every) not in chosen:
                # a layer's rows are its distinct keys in key order, each
                # computed by the in-edges of its first class
                keys = self.class_keys[r]
                if r not in distinct:
                    distinct[r] = (keys[1:] > keys[:-1]).all()
                if distinct[r]:
                    row, rep = (None, None) if every else (read.cumsum() - 1, read)
                    n_out = keys.size if every else int(row[-1]) + 1
                else:
                    _, first, inverse = np.unique(keys if every else keys[read],
                                                  return_index=True, return_inverse=True)
                    row, rep = np.empty(keys.size, np.intp), np.zeros(keys.size, dtype=bool)
                    row[slice(None) if every else read] = inverse
                    rep[first if every else np.flatnonzero(read)[first]] = True
                    n_out = first.size
                e = slice(None) if rep is None else rep[self.dst]
                chosen[r, every] = row, n_out, e, (self.dst if row is None else
                                                   row[self.dst[e]])
            row, n_out, e, dst = chosen[r, every]
            src = self.src[e] if l == 0 else self.src_class[e]
            if prev_row is not None:
                src = prev_row[src]
            edges.append(T.Edges(dst, src, self.weight[e], n_out,
                                 self.num_sources if l == 0 else n_in))
            prev_row, n_in = row, n_out
        return TowerPlan(edges, row)


@dataclass
class Batch:
    """Knowledge and scene graphs of the same examples, in the same order."""

    kg: GraphBatch
    sg: GraphBatch

    @property
    def size(self) -> int:
        return self.kg.num_graphs


def pack_graphs(graphs, table: EmbeddingTable, parts=None) -> list:
    """Aggregation classes, class in-edges, source encoder inputs and class
    keys of the graphs, in one pass over all of them; returns one
    ``GraphBatch`` per part, a part being a run of consecutive graphs
    (``parts`` lists how many each has; by default every graph is a part of
    its own).

    A source's encoder input is the mean over its in-edges of [reader input
    ; relation vector], where the reader is the edge's source node; a source
    without in-edges gets a self-loop with the reserved ``self`` relation.
    A reader's input is the mean of the vectors of its object token and each
    attribute token, and each distinct token is embedded once per call
    (``EmbeddingTable.phrase_vectors``).  Nodes that no class in-edge reads
    cost no encoder row, and nodes that no source's in-edge reads no input
    vector.  Readers with the same tokens share a row over the call, and
    sources with the same messages share one over their part; so keys come
    from symbols, with no float compared.  Sums run in edge order, as for
    the graph packed alone; ids are numbered within each part, so each part
    is a slice of the arrays built for all of them.
    """
    parts = [1] * len(graphs) if parts is None else parts
    ids = {SELF_RELATION: 0}  # distinct phrase -> row of the phrase vectors
    readers = {}  # phrase ids of a reader's tokens -> its row of the reader inputs
    tokens, token_counts = [], []  # per reader: phrase ids of its tokens; their count
    message_readers, relations = [], []  # per message into a source: reader row, phrase id
    degree = []  # per source: its messages
    src, src_class = [], []  # per class in-edge
    lengths, class_graph, class_key = [], [], []  # per class; its round-0 key
    node_class = []  # per node: its class, numbered over the call
    ends = [(0, 0, 0, 0)]  # per part: ends of its classes, sources, edges; its keys
    graph_iter = iter(graphs)
    for count in parts:
        sources = {}  # messages into a source -> its row, numbered within the part
        keyed = {}  # source rows of a class's in-edges -> its key, within the part
        for gid in range(count):
            g = next(graph_iter)
            n = len(g.names)
            if g.dst and (min(g.dst) < 0 or max(g.dst) >= n):
                raise ValidationError(f"edge index out of range for {n} nodes")
            in_srcs = [[] for _ in range(n)]  # per node: its in-edge sources, in edge order
            for u, v in zip(g.src, g.dst):
                in_srcs[v].append(u)
            c0 = len(class_graph)
            number = {}  # in-edge sources -> class, numbered by first occurrence
            local = [number.setdefault(tuple(s) if s else (i,), len(number) + c0)
                     for i, s in enumerate(in_srcs)]
            flat = [u for key in number for u in key]  # sources of the class in-edges
            used = sorted(set(flat))
            if used and (used[0] < 0 or used[-1] >= n):
                raise ValidationError(f"edge index out of range for {n} nodes")

            into = {u: [] for u in used if in_srcs[u]}  # source -> (reader, relation)s
            if into:
                for u, v, relation in zip(g.src, g.dst, g.relations):
                    if v in into:
                        into[v].append((u, relation))
            reader = {}  # node -> row of the reader inputs
            row = {}  # source node -> row of the encoder inputs
            for u in used:
                messages = []  # reader row, relation phrase id, ... of each in-edge
                for v, relation in into.get(u) or ((u, SELF_RELATION),):
                    r = reader.get(v)
                    if r is None:
                        phrase = tuple([ids.setdefault(t, len(ids))
                                        for t in (g.names[v], *g.attributes[v])])
                        r = reader[v] = readers.setdefault(phrase, len(readers))
                        if r == len(token_counts):
                            tokens += phrase
                            token_counts.append(len(phrase))
                    messages.append(r)
                    messages.append(ids.setdefault(relation, len(ids)))
                messages, new = tuple(messages), len(sources)
                row[u] = sources.setdefault(messages, new)
                if row[u] == new:  # the part's first source with these messages
                    message_readers += messages[::2]
                    relations += messages[1::2]
                    degree.append(len(messages) // 2)
            src += map(row.__getitem__, flat)
            src_class += map(local.__getitem__, flat)
            lengths += map(len, number)
            class_key += [keyed.setdefault(row[key[0]] if len(key) == 1
                                           else tuple(map(row.__getitem__, key)), len(keyed))
                          for key in number]
            node_class += local
            class_graph += [gid] * len(number)
        ends.append((len(class_graph), len(degree), len(src), len(keyed)))
    phrase_vecs = table.phrase_vectors(list(ids))

    num_readers, num_sources = len(token_counts), len(degree)
    x = T.segment_mean(phrase_vecs[np.array(tokens, dtype=np.intp)],
                       np.repeat(np.arange(num_readers), token_counts), num_readers)
    messages = np.hstack([x[np.array(message_readers, dtype=np.intp)],
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
    class_key = np.array(class_key, dtype=np.intp)
    return [GraphBatch(inputs[s0:s1], dst[e0:e1], src[e0:e1], src_class[e0:e1],
                       weight[e0:e1], class_sizes[c0:c1], class_graph[c0:c1],
                       class_key[None, c0:c1] if keys == c1 - c0 else  # no key shared
                       _class_keys(class_key[c0:c1], keys, src_class[e0:e1], lengths[c0:c1]),
                       count)
            for count, (c0, s0, e0, _), (c1, s1, e1, keys) in zip(parts, ends, ends[1:])]


# Refinement rounds a part takes at most.  Each round is a pass over the
# part's classes, and a chain of n alike nodes splits one class per round,
# so without a cap such a chain would take n passes.  A part that still
# splits after them gets a last round that gives every class a key of its
# own, which is exact at any depth: only layers past this many lose sharing.
MAX_ROUNDS = 8


def _class_keys(key, count: int, src_class, lengths) -> np.ndarray:
    """(rounds, classes) keys of a part's classes, each round numbered by
    first occurrence, from ``key``, round 0 (a class's key by the source
    rows of its in-edges, ``count`` of them distinct): round r keys a class
    by its round r - 1 key and those of its in-edges' classes.  A round
    refines the one before, so rounds stop before the first one that would
    split no class (one in which every class reads the keys its key's first
    class reads); later ones would split none either.  After ``MAX_ROUNDS``
    rounds, a last one keys each class apart."""
    rounds = [key]
    ends = lengths.cumsum()
    starts = ends - lengths
    position = np.arange(src_class.size) - starts.repeat(lengths)  # within its class
    while count < key.size:  # some key is shared: a round may split it
        if len(rounds) == MAX_ROUNDS:
            rounds.append(np.arange(key.size))
            break
        reads = key[src_class]  # per in-edge: the key of its source's class
        first = np.unique(key, return_index=True)[1]  # per key, its first class
        if (reads == reads[starts[first[key]].repeat(lengths) + position]).all():
            break
        reads, numbering = reads.tolist(), {}
        key = np.array([numbering.setdefault((k, *reads[a:b]), len(numbering))
                        for k, a, b in zip(key.tolist(), starts.tolist(), ends.tolist())],
                       dtype=np.intp)
        rounds.append(key)
        count = len(numbering)
    return np.array(rounds)


def pack_batch(examples, table: EmbeddingTable) -> Batch:
    """One ``Batch`` of all the examples, in order, from one ``pack_graphs``
    call with one part per graph kind."""
    b = len(examples)
    return Batch(*pack_graphs([ex.knowledge_graph for ex in examples]
                              + [ex.scene_graph for ex in examples], table, [b, b]))


def take(graphs: GraphBatch, rows) -> GraphBatch:
    """The union of the graphs at ``rows`` of a union, in that order (a row
    may repeat): classes and edges are gathered over the chosen graphs'
    ranges and class ids shifted from a graph's old start to its new one,
    and ``inputs`` keeps the rows those edges read, in order.  Class keys
    are kept as they are, so graphs that share content share rows."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = graphs.offsets[:, rows]
    lengths = graphs.offsets[:, rows + 1] - starts  # (2, rows), kinds as in offsets
    shift = starts - (np.cumsum(lengths, axis=1) - lengths)  # old start - new start
    graph_of = [np.repeat(np.arange(rows.size), n) for n in lengths]  # new graph per item
    classes, edges = (s[g] + np.arange(g.size) for s, g in zip(shift, graph_of))
    class_shift = shift[0][graph_of[1]]  # per edge
    src = graphs.src[edges]
    used = np.bincount(src, minlength=graphs.num_sources) > 0
    return GraphBatch(
        graphs.inputs[used],
        graphs.dst[edges] - class_shift,
        (used.cumsum() - 1)[src],
        graphs.src_class[edges] - class_shift,
        graphs.weight[edges],
        graphs.class_sizes[classes],
        graph_of[0],
        graphs.class_keys[:, classes],
        rows.size,
    )


# ---------------------------------------------------------------------------
# forward components


def _nonlin(config):
    return T.relu if config.nonlinearity == "relu" else T.sigmoid


def encode_nodes(graphs: GraphBatch, w_enc: Tensor, config: ModelConfig,
                 tape: Tape = None) -> Tensor:
    """Initial states of the sources: nonlinearity of the encoder inputs
    through the encoder weight, a row per row of ``inputs``."""
    return _nonlin(config)(T.linear(Tensor(graphs.inputs), w_enc, tape), tape)


def gcn_layer(states: Tensor, edges: T.Edges, w: Tensor, config: ModelConfig,
              tape: Tape = None) -> Tensor:
    """One message-passing layer: nonlinearity of the in-neighbor mean of the
    previous states through the layer weight (no edge features past layer 0).
    ``edges`` is the layer's list of a ``TowerPlan``: from a row per encoded
    source or per row of the layer before, into a row per key of this one.
    """
    if states.shape[0] != edges.n_in:
        raise DimensionError(f"state rows {states.shape[0]} != the layer's input rows "
                             f"{edges.n_in}")
    agg = T.scatter_add(states, edges, tape)
    return _nonlin(config)(T.linear(agg, w, tape), tape)


def readout_sum(states: Tensor, graphs: GraphBatch, tape: Tape = None,
                rows: np.ndarray = None) -> Tensor:
    """Per-graph sum of node states, (graphs, hidden): each class adds its
    row times its node count, in one ``T.segment_sum`` (a graph's classes
    are consecutive).  ``states`` has a row per aggregation class, in order,
    or with ``rows`` (a ``TowerPlan``'s readout, each class's row) a row per
    key, which ``segment_sum`` reads straight from, with no gather: a block
    of graphs reads the rows its classes read (or, for a union with few key
    rows, one block reads them all), and classes of one graph on one row
    add their sizes.  An empty graph reads out as the zero vector."""
    return T.segment_sum(states, graphs.class_sizes, graphs.class_graph,
                         graphs.num_graphs, tape, rows)


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
    """Encoder plus GCN stack plus readout, one row per key at each step
    (``GraphBatch.plan``); returns the (graphs, hidden) readouts."""
    plan = graphs.plan(config.gcn_layers)
    states = encode_nodes(graphs, watched[f"{prefix}.enc"], config, tape)
    for l, edges in enumerate(plan.layers):
        states = gcn_layer(states, edges, watched[f"{prefix}.gcn{l}"], config, tape)
    return readout_sum(states, graphs, tape, plan.readout)


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
# ordered label list the model was trained on; 4: may pin the embedding table
CHECKPOINT_VERSION = 4
_READ_VERSIONS = (2, 3, 4)


def save_checkpoint(path, config: ModelConfig, params: ModelParams, labels=None,
                    table_sha256: str = None):
    """Write config and named parameter tensors; values round-trip bit-exact.
    The output head is stored as its own metadata key, beside the config,
    and so are ``labels``, the ordered label list, and ``table_sha256``, the
    digest of the embedding table (``check_table``), when they are given."""
    fields = asdict(config)
    loss_mode = fields.pop("loss_mode")
    arrays = {f"param/{p.name}": p.value for p in params}
    meta = {"version": CHECKPOINT_VERSION, "config": fields, "loss_mode": loss_mode}
    if labels is not None:
        meta["labels"] = list(labels)
    if table_sha256 is not None:
        meta["table_sha256"] = table_sha256
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


def check_table(path, table_sha256: str):
    """Raise ``ConfigError`` naming the checkpoint when it pins an embedding
    table whose digest is not ``table_sha256``; a checkpoint that pins none
    (versions 2 and 3, or one saved without a digest) is not checked.  It
    reads the checkpoint's metadata only; the caller computes the digest."""
    try:
        pinned = _read_checkpoint(path, with_arrays=False)[0].get("table_sha256")
        if pinned is not None and type(pinned) is not str:
            raise ConfigError("checkpoint table_sha256 must be a string")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if pinned is not None and pinned != table_sha256:
        raise ConfigError(f"{path}: the embedding table differs from the one "
                          "this checkpoint was trained with")


def _read_checkpoint(path, with_arrays=True):
    """(metadata, {name: array}, or None without ``with_arrays``) of a
    readable checkpoint of a version this code reads."""
    arrays = None
    try:  # np.load leaks a file it opens itself when the zip is broken
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            if with_arrays:
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
    return meta, arrays


def _load_checkpoint(path, labels):
    meta, arrays = _read_checkpoint(path)
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

"""Scene- and knowledge-graph data model, ingestion, and construction.

Scene graphs arrive as pre-extracted JSON documents; knowledge graphs are
built per image by a 1-hop expansion of the detected objects/attributes
against a triple store, filtered by a relation whitelist and a vocabulary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import and_, or_

from .embeddings import normalize_token
from .errors import SchemaError, ValidationError, read_text

# The 20 admitted fact relations (most frequent ones of the source KB).
DEFAULT_RELATIONS = (
    "RelatedTo", "IsA", "HasA", "PartOf", "MadeOf", "FormOf", "AtLocation",
    "Causes", "HasProperty", "HasFirstSubevent", "HasPrerequisite",
    "HasSubevent", "UsedFor", "CapableOf", "DefinedAs", "SimilarTo",
    "CausesDesire", "Desires", "MotivatedByGoal", "DerivedFrom",
)


@dataclass(slots=True)
class GraphNode:
    """One node as a record: the item type of ``LabeledGraph.nodes``."""

    name: str
    attributes: list = field(default_factory=list)


@dataclass(slots=True)
class GraphEdge:
    """One edge as a record: the item type of ``LabeledGraph.edges``."""

    src: int
    dst: int
    relation: str


@dataclass(slots=True)
class LabeledGraph:
    """Directed graph with relation-labeled edges, held as columns (tuples);
    kind is scene|knowledge.

    Node ``i`` is named ``names[i]`` and has the attribute tokens
    ``attributes[i]``, the shared ``()`` when it has none.  Edge ``e`` runs
    from node ``src[e]`` to node ``dst[e]`` with the label ``relations[e]``.
    """

    names: tuple
    attributes: tuple
    src: tuple
    dst: tuple
    relations: tuple
    kind: str = "scene"

    @classmethod
    def from_records(cls, nodes, edges, kind: str = "scene") -> "LabeledGraph":
        """The graph of ``GraphNode`` and ``GraphEdge`` records."""
        return cls(tuple(n.name for n in nodes), tuple(tuple(n.attributes) for n in nodes),
                   tuple(e.src for e in edges), tuple(e.dst for e in edges),
                   tuple(e.relation for e in edges), kind)

    @property
    def nodes(self) -> list:
        """The nodes as new ``GraphNode`` records, built on each access."""
        return list(map(GraphNode, self.names, map(list, self.attributes)))

    @property
    def edges(self) -> list:
        """The edges as new ``GraphEdge`` records, built on each access."""
        return list(map(GraphEdge, self.src, self.dst, self.relations))


def _columns(triples) -> tuple:
    """The three columns of a sequence of triples."""
    return tuple(zip(*triples)) or ((), (), ())


class RelationWhitelist:
    def __init__(self, relations=DEFAULT_RELATIONS):
        self.allowed = frozenset(relations)

    def __contains__(self, relation):
        return relation in self.allowed


class FactStore:
    """Indexed set of (relation, head, tail) triples; concepts normalized,
    relations stripped.

    ``triples`` holds each distinct triple once, in first-occurrence order;
    ``by_head`` and ``by_tail`` list them per concept in that order.
    """

    def __init__(self, triples):
        self._index(*_columns(triples))

    @classmethod
    def from_columns(cls, relations, heads, tails) -> "FactStore":
        """The store of the triples ``zip(relations, heads, tails)``."""
        store = cls.__new__(cls)
        store._index(relations, heads, tails)
        return store

    def _index(self, relations, heads, tails):
        # each distinct string is normalized once
        concept = {c: normalize_token(c) for c in {*heads, *tails}}.__getitem__
        relation = {r: r.strip() for r in set(relations)}.__getitem__
        self.triples = dict.fromkeys(zip(map(relation, relations), map(concept, heads),
                                         map(concept, tails))).keys()
        self.by_head = defaultdict(list)
        self.by_tail = defaultdict(list)
        for t in self.triples:
            self.by_head[t[1]].append(t)
            self.by_tail[t[2]].append(t)

    def __len__(self):
        return len(self.triples)


def read_fact_columns(path) -> tuple:
    """(relations, heads, tails): the raw field columns of a UTF-8 TSV triple
    file, relation<TAB>head<TAB>tail per line, blank lines skipped.

    The file is read once and its lines joined and split on tabs once, so
    each column is a slice; a line without exactly two tabs raises naming
    the first such line.
    """
    lines = read_text(path).split("\n")
    facts = list(filter(str.strip, lines))
    if set(map(str.count, facts, repeat("\t"))) - {2}:
        _raise_bad_fact_line(path, lines)
    fields = "\t".join(facts).split("\t")
    return fields[0::3], fields[1::3], fields[2::3]


def load_facts(path) -> FactStore:
    """The store of every triple of a TSV triple file (``read_fact_columns``)."""
    return FactStore.from_columns(*read_fact_columns(path))


def admissible_columns(relations, heads, tails, seeds, vocab, match_tail=False) -> tuple:
    """The rows of fact columns whose fact can join the knowledge graph of
    some seed token in ``seeds``: the normalized head is a seed and the
    normalized tail is in ``vocab``; with ``match_tail``, also the rows whose
    tail is a seed and head is in ``vocab``.  Relations are not checked here.

    Each distinct concept string is normalized once, and each row is then
    two set lookups on its raw strings.
    """
    norm = {c: normalize_token(c) for c in {*heads, *tails}}
    is_seed = {c for c, n in norm.items() if n in seeds}.__contains__
    in_vocab = {c for c, n in norm.items() if n in vocab}.__contains__
    keep = map(and_, map(is_seed, heads), map(in_vocab, tails))
    if match_tail:
        keep = map(or_, keep, map(and_, map(is_seed, tails), map(in_vocab, heads)))
    keep = list(keep)
    return tuple(list(compress(column, keep)) for column in (relations, heads, tails))


def _raise_bad_fact_line(path, lines):
    for lineno, line in enumerate(lines, start=1):
        if line.strip() and line.count("\t") != 2:
            raise SchemaError(f"{path}:{lineno}: expected 3 tab-separated fields")


def load_vocab(path) -> set:
    """One token per line of a UTF-8 file; returns the normalized token set."""
    return {normalize_token(line) for line in read_text(path).split("\n") if line.strip()}


# ---------------------------------------------------------------------------
# scene-graph ingestion

_DOC_KEYS = {"image_id", "objects", "relations", "labels"}
_OBJ_KEYS = {"name", "attributes"}
_REL_KEYS = {"subj", "pred", "obj"}


def check_image_id(image_id: str) -> str:
    """An image id names its example file in a bundle, so it must be a plain
    file name: nonempty, no path separator or NUL, and no leading dot (a
    hidden file, or a step out of the bundle)."""
    if not image_id or image_id.startswith(".") or any(c in image_id for c in "/\\\0"):
        raise SchemaError(f"image_id {image_id!r} is not a plain file name")
    return image_id


def load_scene_document(doc: dict):
    """Validate a scene-graph JSON document; returns (image_id, graph, labels)."""
    if not isinstance(doc, dict):
        raise SchemaError("document is not an object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise SchemaError(f"unknown document field(s): {sorted(unknown)}")
    for key in _DOC_KEYS:
        if key not in doc:
            raise SchemaError(f"missing document field '{key}'")
    # JSON types checked exactly: a bare string is not a list of strings, and
    # true is not node index 1
    for key in ("objects", "relations"):
        if type(doc[key]) is not list:
            raise SchemaError(f"{key}: must be a list")
    names, attributes = [], []
    for i, obj in enumerate(doc["objects"]):
        if not isinstance(obj, dict) or set(obj) - _OBJ_KEYS:
            raise SchemaError(f"objects[{i}]: unexpected shape")
        name = obj.get("name", "")
        if not isinstance(name, str) or not normalize_token(name):
            raise SchemaError(f"objects[{i}]: missing or empty object name")
        attrs = obj.get("attributes", [])
        if type(attrs) is not list or not all(isinstance(a, str) for a in attrs):
            raise SchemaError(f"objects[{i}].attributes: must be a list of strings")
        names.append(name)
        attributes.append(tuple(attrs))
    src, dst, relations = [], [], []
    n = len(names)
    for i, rel in enumerate(doc["relations"]):
        if not isinstance(rel, dict) or set(rel) != _REL_KEYS:
            raise SchemaError(f"relations[{i}]: expected subj/pred/obj fields")
        subj, pred, obj = rel["subj"], rel["pred"], rel["obj"]
        if type(subj) is not int or not 0 <= subj < n:
            raise SchemaError(f"relations[{i}].subj: index {subj!r} out of range 0..{n - 1}")
        if type(obj) is not int or not 0 <= obj < n:
            raise SchemaError(f"relations[{i}].obj: index {obj!r} out of range 0..{n - 1}")
        if not isinstance(pred, str) or not pred.strip():
            raise SchemaError(f"relations[{i}].pred: missing predicate token")
        src.append(subj)
        dst.append(obj)
        relations.append(pred)
    labels = doc["labels"]
    if type(labels) is not list or not all(isinstance(l, str) for l in labels):
        raise SchemaError("labels: must be a list of strings")
    if type(doc["image_id"]) is not str:
        raise SchemaError(f"image_id: must be a string, got {doc['image_id']!r}")
    image_id = check_image_id(doc["image_id"])
    graph = LabeledGraph(tuple(names), tuple(attributes), tuple(src), tuple(dst),
                         tuple(relations), kind="scene")
    return image_id, graph, list(labels)


def load_scene_graph(doc: dict) -> LabeledGraph:
    """Scene graph of a document, nodes in document order."""
    return load_scene_document(doc)[1]


# ---------------------------------------------------------------------------
# knowledge-graph construction


def seed_tokens(g: LabeledGraph) -> list:
    """Normalized object and attribute tokens of a graph's nodes, deduped, in
    first-occurrence order."""
    tokens = chain.from_iterable((name, *attrs) for name, attrs in zip(g.names, g.attributes))
    return [t for t in dict.fromkeys(map(normalize_token, tokens)) if t]


def build_knowledge_graphs(seed_graphs, store: FactStore, whitelist: RelationWhitelist,
                           vocab: set, match_tail: bool = False) -> list:
    """1-hop expansion of the nodes of each seed graph (a scene graph)
    against the fact store; one knowledge graph per seed graph.

    A fact (r, a, b) is admitted iff r is whitelisted, a is a seed token and
    b is in the vocabulary; the edge keeps the stored direction a -> b.
    With ``match_tail`` facts whose tail is a seed (and head in vocab) are
    admitted too.  Output is canonical: nodes sorted by name, edges sorted
    by (head, relation, tail) and deduped.

    Each distinct seed token's admitted facts are filtered from the store
    once per call and kept sorted.  Without ``match_tail`` every fact of a
    token's entry has that token as its head, so a graph's sorted edge list
    is its sorted tokens' entries one after another.  The edge columns come
    straight from those facts, and no node has attributes.
    """
    admitted = {}  # seed token -> its sorted, deduped admitted facts

    def facts_of(token):
        facts = admitted.get(token)
        if facts is None:
            found = {(h, r, t) for r, h, t in store.by_head.get(token, ())
                     if r in whitelist and t in vocab}
            if match_tail:
                found.update((h, r, t) for r, h, t in store.by_tail.get(token, ())
                             if r in whitelist and h in vocab)
            facts = admitted[token] = sorted(found)
        return facts

    graphs = []
    for seeds in seed_graphs:
        tokens = sorted(seed_tokens(seeds))
        entries = map(facts_of, tokens)
        edges = (sorted(set().union(*entries)) if match_tail
                 else list(chain.from_iterable(entries)))
        heads, relations, tails = _columns(edges)
        names = tuple(sorted({*tokens, *heads, *tails}))
        idx = dict(zip(names, range(len(names)))).__getitem__
        graphs.append(LabeledGraph(names, ((),) * len(names), tuple(map(idx, heads)),
                                   tuple(map(idx, tails)), relations, kind="knowledge"))
    return graphs


def build_knowledge_graph(seeds: LabeledGraph, store: FactStore,
                          whitelist: RelationWhitelist, vocab: set,
                          match_tail: bool = False) -> LabeledGraph:
    """The knowledge graph of one seed graph (``build_knowledge_graphs``)."""
    return build_knowledge_graphs([seeds], store, whitelist, vocab, match_tail)[0]


# ---------------------------------------------------------------------------
# canonicalization


def validate_graph(g: LabeledGraph) -> LabeledGraph:
    """Canonical form: normalized tokens, deduped edges, deterministic order.

    Knowledge graphs merge nodes by normalized name and sort them, with the
    sorted union of the merged nodes' attributes; scene graphs keep document
    node order (distinct detections stay distinct) and edge order.
    """
    n = len(g.names)
    if g.src and not (0 <= min(g.src) and max(g.src) < n
                      and 0 <= min(g.dst) and max(g.dst) < n):
        s, d = next((s, d) for s, d in zip(g.src, g.dst) if not (0 <= s < n and 0 <= d < n))
        raise ValidationError(f"edge ({s},{d}) out of range for {n} nodes")
    names = tuple(map(normalize_token, g.names))
    if not all(names):
        raise ValidationError("empty node name after normalization")
    relations = map(normalize_token, g.relations)
    if g.kind == "knowledge":
        attrs = {}  # normalized name -> its merged nodes' attribute tokens
        for name, tokens in zip(names, g.attributes):
            attrs.setdefault(name, set()).update(filter(None, map(normalize_token, tokens)))
        merged = tuple(sorted(attrs))
        idx = dict(zip(merged, range(len(merged))))
        remap = [idx[name] for name in names]
        edges = sorted({(remap[s], remap[d], r) for s, d, r in zip(g.src, g.dst, relations)})
        return LabeledGraph(merged, tuple(tuple(sorted(attrs[name])) for name in merged),
                            *_columns(edges), kind=g.kind)
    attributes = tuple(tuple(filter(None, map(normalize_token, tokens)))
                       for tokens in g.attributes)
    edges = dict.fromkeys(zip(g.src, g.dst, relations))  # deduped, first occurrence first
    return LabeledGraph(names, attributes, *_columns(edges), kind=g.kind)


def add_reverse_edges(g: LabeledGraph) -> LabeledGraph:
    """Augment with a reversed copy of every edge (then re-canonicalize)."""
    return validate_graph(LabeledGraph(g.names, g.attributes, g.src + g.dst, g.dst + g.src,
                                       g.relations + g.relations, kind=g.kind))


def graph_to_dict(g: LabeledGraph) -> dict:
    """The bundle document of a graph: its columns, which encode as JSON
    arrays (``attributes`` as an array of string arrays)."""
    return {"kind": g.kind, "names": g.names, "attributes": g.attributes,
            "src": g.src, "dst": g.dst, "relations": g.relations}


_COLUMNS = ("names", "attributes", "src", "dst", "relations")
_GRAPH_KEYS = {"kind", *_COLUMNS}
_GRAPH_KINDS = ("scene", "knowledge")
_ARRAYS = {list, tuple}  # a JSON array, or a column as graph_to_dict returns it


def graph_from_dict(d: dict) -> LabeledGraph:
    """Graph of a bundle document (``graph_to_dict``'s layout), with JSON
    types checked exactly as in ``load_scene_document``, equal column
    lengths and every edge index in range.  The checks run over whole
    columns in C loops; only a graph that fails them is walked entry by
    entry, to name its first bad entry.

    A document in the record layout of older bundles (``nodes`` and
    ``edges``) is refused with a message saying how to re-make the bundle.
    """
    if type(d) is not dict:
        raise SchemaError("graph is not an object")
    if set(d) != _GRAPH_KEYS:
        if {"nodes", "edges"} & set(d):
            raise SchemaError("graph in the record layout (nodes, edges) that an older "
                              "symgraph wrote; re-make the bundle with 'symgraph prepare' "
                              "(or 'symgraph synth')")
        raise SchemaError(f"expected fields {sorted(_GRAPH_KEYS)}, got {sorted(d)}")
    if d["kind"] not in _GRAPH_KINDS:
        raise SchemaError(f"kind: must be 'scene' or 'knowledge', got {d['kind']!r}")
    for key in _COLUMNS:
        if type(d[key]) not in _ARRAYS:
            raise SchemaError(f"{key}: must be a list")
    names, attributes, src, dst, relations = map(d.__getitem__, _COLUMNS)
    if len(attributes) != len(names):
        raise SchemaError(f"attributes: {len(attributes)} entries for {len(names)} names")
    for key, column in (("dst", dst), ("relations", relations)):
        if len(column) != len(src):
            raise SchemaError(f"{key}: {len(column)} entries for {len(src)} in src")
    ends = (*src, *dst)
    if not (set(map(type, names)) <= {str} and set(map(type, attributes)) <= _ARRAYS
            and set(map(type, chain.from_iterable(attributes))) <= {str}
            and set(map(type, relations)) <= {str} and set(map(type, ends)) <= {int}
            and (not ends or 0 <= min(ends) and max(ends) < len(names))):
        raise SchemaError(_first_bad_item(names, attributes, src, dst, relations))
    return LabeledGraph(tuple(names), tuple(map(tuple, attributes)), tuple(src), tuple(dst),
                        tuple(relations), kind=d["kind"])


def _first_bad_item(names, attributes, src, dst, relations) -> str:
    """What is wrong with the first entry of the columns of a graph document
    that fails the checks of ``graph_from_dict``."""
    for i, name in enumerate(names):
        if type(name) is not str:
            return f"names[{i}]: must be a string"
    for i, attrs in enumerate(attributes):
        if type(attrs) not in _ARRAYS or not all(type(a) is str for a in attrs):
            return f"attributes[{i}]: must be a list of strings"
    n = len(names)
    for key, column in (("src", src), ("dst", dst)):
        for i, end in enumerate(column):
            if type(end) is not int or not 0 <= end < n:
                return f"{key}[{i}]: node index must be an integer in 0..{n - 1}, got {end!r}"
    for i, relation in enumerate(relations):
        if type(relation) is not str:
            return f"relations[{i}]: must be a string"

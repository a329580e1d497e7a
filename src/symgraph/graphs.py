"""Scene- and knowledge-graph data model, ingestion, and construction.

Scene graphs arrive as pre-extracted JSON documents; knowledge graphs are
built per image by a 1-hop expansion of the detected objects/attributes
against a triple store, filtered by a relation whitelist and a vocabulary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat

from .embeddings import normalize_token
from .errors import SchemaError, ValidationError

# The 20 admitted fact relations (most frequent ones of the source KB).
DEFAULT_RELATIONS = (
    "RelatedTo", "IsA", "HasA", "PartOf", "MadeOf", "FormOf", "AtLocation",
    "Causes", "HasProperty", "HasFirstSubevent", "HasPrerequisite",
    "HasSubevent", "UsedFor", "CapableOf", "DefinedAs", "SimilarTo",
    "CausesDesire", "Desires", "MotivatedByGoal", "DerivedFrom",
)


@dataclass
class GraphNode:
    name: str
    attributes: list = field(default_factory=list)


@dataclass
class GraphEdge:
    src: int
    dst: int
    relation: str


@dataclass
class LabeledGraph:
    """Directed graph with relation-labeled edges; kind is scene|knowledge."""

    nodes: list
    edges: list
    kind: str = "scene"


class RelationWhitelist:
    def __init__(self, relations=DEFAULT_RELATIONS):
        self.allowed = frozenset(relations)

    def __contains__(self, relation):
        return relation in self.allowed


class FactStore:
    """Indexed set of (relation, head, tail) triples; concepts normalized."""

    def __init__(self, triples):
        self.triples = set()
        self.by_head = defaultdict(list)
        self.by_tail = defaultdict(list)
        for rel, head, tail in triples:
            t = (rel.strip(), normalize_token(head), normalize_token(tail))
            if t in self.triples:
                continue
            self.triples.add(t)
            self.by_head[t[1]].append(t)
            self.by_tail[t[2]].append(t)

    def __len__(self):
        return len(self.triples)


def load_facts(path) -> FactStore:
    """Read a TSV triple file: relation<TAB>head<TAB>tail per line."""
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 3 tab-separated fields")
            triples.append(tuple(fields))
    return FactStore(triples)


def load_vocab(path) -> set:
    """One token per line; returns the normalized token set."""
    with open(path, encoding="utf-8") as fh:
        return {normalize_token(line) for line in fh if line.strip()}


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
    nodes = []
    for i, obj in enumerate(doc["objects"]):
        if not isinstance(obj, dict) or set(obj) - _OBJ_KEYS:
            raise SchemaError(f"objects[{i}]: unexpected shape")
        name = obj.get("name", "")
        if not isinstance(name, str) or not normalize_token(name):
            raise SchemaError(f"objects[{i}]: missing or empty object name")
        attrs = obj.get("attributes", [])
        if type(attrs) is not list or not all(isinstance(a, str) for a in attrs):
            raise SchemaError(f"objects[{i}].attributes: must be a list of strings")
        nodes.append(GraphNode(name, list(attrs)))
    edges = []
    n = len(nodes)
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
        edges.append(GraphEdge(subj, obj, pred))
    labels = doc["labels"]
    if type(labels) is not list or not all(isinstance(l, str) for l in labels):
        raise SchemaError("labels: must be a list of strings")
    if type(doc["image_id"]) is not str:
        raise SchemaError(f"image_id: must be a string, got {doc['image_id']!r}")
    image_id = check_image_id(doc["image_id"])
    return image_id, LabeledGraph(nodes, edges, kind="scene"), list(labels)


def load_scene_graph(doc: dict) -> LabeledGraph:
    """Scene graph of a document, nodes in document order."""
    return load_scene_document(doc)[1]


# ---------------------------------------------------------------------------
# knowledge-graph construction


def seed_tokens(seeds) -> list:
    """Normalized object and attribute tokens of the seed nodes, deduped."""
    out = []
    seen = set()
    for node in seeds:
        for tok in [node.name] + list(node.attributes):
            t = normalize_token(tok)
            if t and t not in seen:
                seen.add(t)
                out.append(t)
    return out


def build_knowledge_graph(seeds, store: FactStore, whitelist: RelationWhitelist,
                          vocab: set, match_tail: bool = False) -> LabeledGraph:
    """1-hop expansion of the seeds against the fact store.

    A fact (r, a, b) is admitted iff r is whitelisted, a is a seed token and
    b is in the vocabulary; the edge keeps the stored direction a -> b.
    With ``match_tail`` facts whose tail is a seed (and head in vocab) are
    admitted too.  Output is canonical (sorted, deduped).
    """
    tokens = set(seed_tokens(seeds))
    admitted = set()
    for t in tokens:
        for rel, head, tail in store.by_head.get(t, ()):
            if rel in whitelist and tail in vocab:
                admitted.add((head, rel, tail))
        if match_tail:
            for rel, head, tail in store.by_tail.get(t, ()):
                if rel in whitelist and head in vocab:
                    admitted.add((head, rel, tail))
    names = sorted(tokens | {h for h, _, _ in admitted} | {t for _, _, t in admitted})
    idx = {name: i for i, name in enumerate(names)}
    edges = [GraphEdge(idx[h], idx[t], r) for h, r, t in sorted(admitted)]
    return LabeledGraph([GraphNode(n) for n in names], edges, kind="knowledge")


# ---------------------------------------------------------------------------
# canonicalization


def validate_graph(g: LabeledGraph) -> LabeledGraph:
    """Canonical form: normalized tokens, deduped edges, deterministic order.

    Knowledge graphs merge nodes by normalized name and sort them; scene
    graphs keep document node order (distinct detections stay distinct).
    """
    n = len(g.nodes)
    for e in g.edges:
        if not (0 <= e.src < n and 0 <= e.dst < n):
            raise ValidationError(f"edge ({e.src},{e.dst}) out of range for {n} nodes")
    if g.kind == "knowledge":
        merged = {}
        order = []
        attrs = defaultdict(list)
        for node in g.nodes:
            name = normalize_token(node.name)
            if not name:
                raise ValidationError("empty node name after normalization")
            if name not in merged:
                merged[name] = None
                order.append(name)
            for a in node.attributes:
                na = normalize_token(a)
                if na and na not in attrs[name]:
                    attrs[name].append(na)
        names = sorted(order)
        idx = {name: i for i, name in enumerate(names)}
        remap = [idx[normalize_token(node.name)] for node in g.nodes]
        nodes = [GraphNode(name, sorted(attrs[name])) for name in names]
        edge_set = {
            (remap[e.src], remap[e.dst], normalize_token(e.relation)) for e in g.edges
        }
        edges = [GraphEdge(s, d, r) for s, d, r in sorted(edge_set)]
    else:
        nodes = []
        for node in g.nodes:
            name = normalize_token(node.name)
            if not name:
                raise ValidationError("empty node name after normalization")
            nodes.append(GraphNode(
                name, [normalize_token(a) for a in node.attributes if normalize_token(a)]
            ))
        seen = set()
        edges = []
        for e in g.edges:
            key = (e.src, e.dst, normalize_token(e.relation))
            if key not in seen:
                seen.add(key)
                edges.append(GraphEdge(*key))
    return LabeledGraph(nodes, edges, kind=g.kind)


def add_reverse_edges(g: LabeledGraph) -> LabeledGraph:
    """Augment with a reversed copy of every edge (then re-canonicalize)."""
    edges = list(g.edges) + [GraphEdge(e.dst, e.src, e.relation) for e in g.edges]
    return validate_graph(LabeledGraph(list(g.nodes), edges, kind=g.kind))


def graph_to_dict(g: LabeledGraph) -> dict:
    return {
        "kind": g.kind,
        "nodes": [{"name": n.name, "attributes": list(n.attributes)} for n in g.nodes],
        "edges": [[e.src, e.relation, e.dst] for e in g.edges],
    }


_GRAPH_KEYS = {"kind", "nodes", "edges"}
_GRAPH_KINDS = ("scene", "knowledge")


def graph_from_dict(d: dict) -> LabeledGraph:
    """Graph of a bundle document (``graph_to_dict``'s layout), with JSON
    types checked exactly as in ``load_scene_document`` and every edge index
    in range.  The checks run over whole lists in C loops; only a graph that
    fails them is walked item by item, to name its first bad item."""
    if type(d) is not dict:
        raise SchemaError("graph is not an object")
    if set(d) != _GRAPH_KEYS:
        raise SchemaError(f"expected fields {sorted(_GRAPH_KEYS)}, got {sorted(d)}")
    if d["kind"] not in _GRAPH_KINDS:
        raise SchemaError(f"kind: must be 'scene' or 'knowledge', got {d['kind']!r}")
    for key in ("nodes", "edges"):
        if type(d[key]) is not list:
            raise SchemaError(f"{key}: must be a list")
    nodes, edges = d["nodes"], d["edges"]
    ok = (set(map(type, nodes)) <= {dict} and set().union(*nodes) <= _OBJ_KEYS
          and set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3})
    if ok:
        names = list(map(dict.get, nodes, repeat("name")))
        attrs = list(map(dict.get, nodes, repeat("attributes"), repeat([])))
        src, relation, dst = zip(*edges) if edges else ((), (), ())
        ends = src + dst
        ok = (set(map(type, names)) <= {str} and set(map(type, attrs)) <= {list}
              and set(map(type, chain.from_iterable(attrs))) <= {str}
              and set(map(type, relation)) <= {str} and set(map(type, ends)) <= {int}
              and (not ends or 0 <= min(ends) and max(ends) < len(nodes)))
    if not ok:
        raise SchemaError(_first_bad_item(nodes, edges))
    return LabeledGraph(list(map(GraphNode, names, map(list, attrs))),
                        list(map(GraphEdge, src, dst, relation)), kind=d["kind"])


def _first_bad_item(nodes, edges) -> str:
    """What is wrong with the first node or edge that fails the checks of
    ``graph_from_dict``."""
    n = len(nodes)
    for i, node in enumerate(nodes):
        if (type(node) is not dict or set(node) - _OBJ_KEYS
                or type(node.get("name")) is not str):
            return f"nodes[{i}]: expected a string name and attributes"
        attrs = node.get("attributes", [])
        if type(attrs) is not list or not all(type(a) is str for a in attrs):
            return f"nodes[{i}].attributes: must be a list of strings"
    for i, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 3:
            return f"edges[{i}]: expected [source, relation, target]"
        src, relation, dst = edge
        if not (type(src) is int and type(dst) is int and 0 <= src < n and 0 <= dst < n):
            return (f"edges[{i}]: node indexes must be integers in 0..{n - 1}, "
                    f"got {src!r}, {dst!r}")
        if type(relation) is not str:
            return f"edges[{i}]: relation must be a string"

"""Independent references for the benchmark's output checks.

They take other routes than the program: a dense row-normalized adjacency
forward pass in plain numpy, an exhaustive scan of the written fact file in
place of the head index, and a field-by-field comparison of examples.  They
keep their own copies of the token rules and the relation whitelist, so a
change to the program's rules shows up as a failed check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

WHITELIST = frozenset((
    "RelatedTo", "IsA", "HasA", "PartOf", "MadeOf", "FormOf", "AtLocation",
    "Causes", "HasProperty", "HasFirstSubevent", "HasPrerequisite",
    "HasSubevent", "UsedFor", "CapableOf", "DefinedAs", "SimilarTo",
    "CausesDesire", "Desires", "MotivatedByGoal", "DerivedFrom",
))
SELF_RELATION = "self"

_WS = re.compile(r"\s+")
_SPLIT = re.compile(r"[\s_]+")


def normalize(token: str) -> str:
    return _WS.sub(" ", token.replace("_", " ").strip().lower())


# ---------------------------------------------------------------------------
# embeddings


def read_vectors(path, words) -> dict:
    """Vectors of the wanted (normalized) words from an embedding text file;
    the first occurrence of a token wins."""
    wanted = set(words)
    found = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token, _, rest = line.rstrip("\n").partition(" ")
            key = normalize(token)
            if key in wanted and key not in found:
                found[key] = np.array([float(v) for v in rest.split(" ")])
    return found


def phrase_words(phrase: str) -> list:
    return [w for w in _SPLIT.split(normalize(phrase)) if w]


def graph_words(g) -> set:
    words = set(phrase_words(SELF_RELATION))
    for node in g.nodes:
        for tok in [node.name] + list(node.attributes):
            words.update(phrase_words(tok))
    for e in g.edges:
        words.update(phrase_words(e.relation))
    return words


def _phrase(vectors, dim, phrase):
    found = [vectors[w] for w in phrase_words(phrase) if w in vectors]
    return np.mean(found, axis=0) if found else np.zeros(dim)


# ---------------------------------------------------------------------------
# dense forward pass


def dense_adjacency(n, edges) -> np.ndarray:
    """A[i, j] = (#edges j->i) / in-degree(i); a unit self-loop when 0."""
    a = np.zeros((n, n))
    for e in edges:
        a[e.dst, e.src] += 1.0
    for i in range(n):
        s = a[i].sum()
        if s == 0:
            a[i, i] = 1.0
        else:
            a[i] /= s
    return a


def _tower(g, prefix, w, vectors, dim, cfg, f):
    n = len(g.nodes)
    if n == 0:
        return np.zeros(cfg.hidden_dim)
    x = [np.mean([_phrase(vectors, dim, node.name)]
                 + [_phrase(vectors, dim, a) for a in node.attributes], axis=0)
         for node in g.nodes]
    rows = np.zeros((n, 2 * dim))
    for i in range(n):
        msgs = [np.concatenate([x[e.src], _phrase(vectors, dim, e.relation)])
                for e in g.edges if e.dst == i]
        rows[i] = (np.mean(msgs, axis=0) if msgs else
                   np.concatenate([x[i], _phrase(vectors, dim, SELF_RELATION)]))
    h = f(rows @ w[f"{prefix}.enc"].T)
    a = dense_adjacency(n, g.edges)
    for layer in range(cfg.gcn_layers):
        h = f(a @ h @ w[f"{prefix}.gcn{layer}"].T)
    return h.sum(axis=0)


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def reference_probs(example, cfg, weights: dict, vectors: dict, dim: int):
    """Class probabilities of one example from the dense-adjacency model."""
    def f(v):
        return np.maximum(v, 0.0) if cfg.nonlinearity == "relu" else 1.0 / (1.0 + np.exp(-v))

    shared = cfg.share_towers and cfg.graph_mode == "both"
    v = {}
    for g, graph, only in (("kg", example.knowledge_graph, "kg_only"),
                           ("sg", example.scene_graph, "sg_only")):
        if cfg.graph_mode in ("both", only):
            v[g] = _tower(graph, "shared" if shared else g, weights, vectors, dim, cfg, f)
        else:
            v[g] = np.zeros(cfg.hidden_dim)
    if cfg.fusion_mode == "concat":
        fused = np.concatenate([v["kg"], v["sg"], v["kg"] * v["sg"]])
    else:
        score = weights.get("attn.score")
        s = (np.array([v["kg"] @ v["kg"], v["sg"] @ v["sg"]]) if score is None else
             np.array([score @ v["kg"], score @ v["sg"]]))
        alpha = _softmax(s)
        fused = alpha[0] * v["kg"] + alpha[1] * v["sg"]
    hidden = f(weights["mlp.w1"] @ fused + weights["mlp.b1"])
    return _softmax(weights["mlp.w2"] @ hidden + weights["mlp.b2"])


# ---------------------------------------------------------------------------
# knowledge graphs


def read_store(path) -> set:
    """Every (relation, head, tail) of a TSV fact file, concepts normalized."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return {(r.strip(), normalize(h), normalize(t)) for r, h, t in rows}


def read_vocab(vocab_path, labels_path) -> set:
    with open(vocab_path, encoding="utf-8") as fh:
        vocab = {normalize(line) for line in fh if line.strip()}
    with open(labels_path, encoding="utf-8") as fh:
        vocab |= {normalize(line) for line in fh if line.strip()}
    return vocab


def doc_tokens(doc_path) -> set:
    """Normalized object and attribute tokens of a scene-graph document."""
    doc = json.loads(Path(doc_path).read_text(encoding="utf-8"))
    toks = set()
    for obj in doc["objects"]:
        toks.update(normalize(t) for t in [obj["name"]] + list(obj.get("attributes", [])))
    toks.discard("")
    return toks


def brute_force_kg(tokens: set, store: set, vocab: set):
    """(sorted node names, admitted (head, relation, tail) set) by a scan of
    every stored fact."""
    admitted = {(h, r, t) for r, h, t in store
                if r in WHITELIST and h in tokens and t in vocab}
    names = sorted(tokens | {h for h, _, _ in admitted} | {t for _, _, t in admitted})
    return names, admitted


def kg_as_names(g):
    names = [n.name for n in g.nodes]
    return names, {(names[e.src], e.relation, names[e.dst]) for e in g.edges}


def admit_ratio(token_sets, store: set, vocab: set) -> float:
    """Facts admitted over facts reached through a head index, summed over
    images: the share of the builder's lookups that yield an edge."""
    by_head = {}
    for r, h, t in store:
        by_head.setdefault(h, []).append((r, t))
    scanned = admitted = 0
    for tokens in token_sets:
        for tok in tokens:
            facts = by_head.get(tok, ())
            scanned += len(facts)
            admitted += sum(r in WHITELIST and t in vocab for r, t in facts)
    return admitted / scanned if scanned else 0.0


# ---------------------------------------------------------------------------
# examples


def canon_graph(g):
    return (g.kind, [(n.name, list(n.attributes)) for n in g.nodes],
            [(e.src, e.dst, e.relation) for e in g.edges])


def canon_example(ex):
    return (ex.image_id, canon_graph(ex.scene_graph), canon_graph(ex.knowledge_graph),
            sorted(ex.labels))

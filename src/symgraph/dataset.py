"""Dataset bundles: per-image example documents plus a split manifest.

A bundle directory holds ``examples/<image_id>.json`` (one line of compact
JSON each), ``labels.txt`` and ``splits.json`` ({"train": [...], "val":
[...], "test": [...]}).  An example document holds its two graphs as their
columns (``graphs.graph_to_dict``): ``{"kind", "names", "attributes", "src",
"dst", "relations"}``.  A graph in the record layout of older bundles
(``nodes``, ``edges``) is refused, naming the file; ``prepare`` or
``synth`` re-makes the bundle.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from .errors import SchemaError, read_text
from .graphs import (FactStore, RelationWhitelist, add_reverse_edges,
                     admissible_columns, build_knowledge_graphs, check_image_id,
                     graph_from_dict, graph_to_dict, load_scene_document, load_vocab,
                     read_fact_columns, seed_tokens, validate_graph)
from .embeddings import normalize_token
from .rng import child_rng
from .training import Example

log = logging.getLogger(__name__)

SPLIT_FRACTIONS = (0.6, 0.2)  # train, val; the rest is test


def split_ids(ids, seed: int) -> dict:
    """Seeded 60/20/20 split of image ids."""
    ids = sorted(ids)
    order = child_rng(seed, "split").permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n = len(ids)
    n_train = int(n * SPLIT_FRACTIONS[0])
    n_val = int(n * SPLIT_FRACTIONS[1])
    return {
        "train": shuffled[:n_train],
        "val": shuffled[n_train:n_train + n_val],
        "test": shuffled[n_train + n_val:],
    }


def example_to_dict(ex: Example) -> dict:
    return {
        "image_id": ex.image_id,
        "scene_graph": graph_to_dict(ex.scene_graph),
        "knowledge_graph": graph_to_dict(ex.knowledge_graph),
        "labels": sorted(ex.labels),
    }


_EXAMPLE_KEYS = {"image_id", "scene_graph", "knowledge_graph", "labels"}


def example_from_dict(d: dict) -> Example:
    """Example of a bundle document, with JSON types checked exactly: a bare
    string is not a list of labels."""
    if type(d) is not dict:
        raise SchemaError("document is not an object")
    if set(d) != _EXAMPLE_KEYS:
        raise SchemaError(f"expected fields {sorted(_EXAMPLE_KEYS)}, got {sorted(d)}")
    if type(d["image_id"]) is not str:
        raise SchemaError(f"image_id: must be a string, got {d['image_id']!r}")
    labels = d["labels"]
    if type(labels) is not list or not all(type(l) is str for l in labels):
        raise SchemaError("labels: must be a list of strings")
    graphs = []
    for key in ("scene_graph", "knowledge_graph"):
        try:
            graphs.append(graph_from_dict(d[key]))
        except SchemaError as exc:
            raise SchemaError(f"{key}: {exc}") from None
    return Example(check_image_id(d["image_id"]), *graphs, list(labels))


def prepare(scene_dir, facts_path, vocab_path, labels_path,
            match_tail: bool = False, reverse_edges: bool = False):
    """Build per-image examples with 1-hop knowledge graphs.

    Returns (examples sorted by image id, label list).  The knowledge-graph
    vocabulary is the vocab file plus the label names.

    The fact file is read and checked first, so a bad one is reported before
    any scene document.  Only the facts that some image's seed tokens can
    admit (``admissible_columns``) are indexed, and every knowledge graph
    comes from one ``build_knowledge_graphs`` call, which filters each
    distinct seed token's facts once.
    """
    fact_columns = read_fact_columns(facts_path)
    label_list = read_labels(labels_path)
    vocab = load_vocab(vocab_path) | {normalize_token(l) for l in label_list}
    label_set = set(label_list)

    images = []
    files = sorted(Path(scene_dir).glob("*.json"))
    if not files:
        raise SchemaError(f"no scene-graph documents in {scene_dir}")
    for path in files:
        text = read_text(path)
        try:
            image_id, sg, labels = load_scene_document(json.loads(text))
        except (SchemaError, json.JSONDecodeError) as exc:
            raise SchemaError(f"{path}: {exc}") from exc
        if not labels:
            raise SchemaError(f"{path}: example has no labels")
        unknown = set(labels) - label_set
        if unknown:
            raise SchemaError(f"{path}: unknown label(s) {sorted(unknown)}")
        sg = validate_graph(sg)
        if not sg.names:
            log.warning("image %s has no detected objects; keeping empty graphs",
                        image_id)
        images.append((image_id, sg, sorted(set(labels))))

    seeds = set().union(*(seed_tokens(sg) for _, sg, _ in images))
    store = FactStore.from_columns(*admissible_columns(*fact_columns, seeds, vocab,
                                                       match_tail=match_tail))
    kgs = build_knowledge_graphs([sg for _, sg, _ in images], store,
                                 RelationWhitelist(), vocab, match_tail=match_tail)
    examples = []
    for (image_id, sg, labels), kg in zip(images, kgs):
        if reverse_edges:
            sg = add_reverse_edges(sg)
            kg = add_reverse_edges(kg)
        examples.append(Example(image_id, sg, kg, labels))
    examples.sort(key=lambda ex: ex.image_id)
    ids = [ex.image_id for ex in examples]
    if len(set(ids)) != len(ids):
        raise SchemaError("duplicate image ids in scene-graph directory")
    return examples, label_list


def read_labels(path) -> list:
    """One label per line of a UTF-8 file, blank lines skipped."""
    labels = [line.strip() for line in read_text(path).split("\n") if line.strip()]
    if len(labels) < 2:
        raise SchemaError(f"{path}: need at least 2 labels")
    return labels


def write_bundle(out_dir, examples, label_list, splits: dict):
    """Each example document is one line of compact JSON with sorted keys:
    ``json.dumps`` runs its C encoder only without ``indent``.  Readers take
    any layout, so older indented bundles still load."""
    out = Path(out_dir)
    (out / "examples").mkdir(parents=True, exist_ok=True)
    for ex in examples:
        doc = json.dumps(example_to_dict(ex), sort_keys=True, separators=(",", ":"))
        (out / "examples" / f"{ex.image_id}.json").write_text(doc + "\n",
                                                              encoding="utf-8")
    (out / "labels.txt").write_text("\n".join(label_list) + "\n", encoding="utf-8")
    (out / "splits.json").write_text(
        json.dumps(splits, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_bundle(bundle_dir):
    """Returns (splits dict of Example lists, label list)."""
    bundle = Path(bundle_dir)
    label_list = read_labels(bundle / "labels.txt")
    splits_path = bundle / "splits.json"
    try:
        with open(splits_path, encoding="utf-8") as fh:
            split_map = json.load(fh)
    except ValueError as exc:  # bad JSON or UTF-8
        raise SchemaError(f"{splits_path}: {exc}") from exc
    if type(split_map) is not dict or not all(
            type(ids) is list and all(type(i) is str for i in ids)
            for ids in split_map.values()):
        raise SchemaError(f"{splits_path}: must map each split to a list of image ids")
    by_id = {}
    for path in sorted((bundle / "examples").glob("*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                ex = example_from_dict(json.load(fh))
            if ex.image_id != path.stem:  # else a stray file could replace an example
                raise SchemaError(f"image_id {ex.image_id!r} does not match the file name")
        except (SchemaError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise SchemaError(f"{path}: {exc}") from exc
        by_id[ex.image_id] = ex
    splits = {}
    split_of = {}  # image id -> the split that lists it
    for name, ids in split_map.items():
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise SchemaError(f"split '{name}' lists unknown image ids: {missing[:3]}")
        for i in ids:  # an example in two splits would be scored on what trained it
            if i in split_of:
                raise SchemaError(f"{splits_path}: image id {i!r} is listed in "
                                  f"'{split_of[i]}' and in '{name}'")
            split_of[i] = name
        splits[name] = [by_id[i] for i in ids]
    return splits, label_list

"""Seeded input generators for the benchmark workloads.

Each generator writes raw inputs (scene-graph documents, a fact store, a
vocabulary, labels and an embedding text file) into a directory, then builds
the bundle the way ``symgraph prepare`` / ``symgraph synth`` do.  The same
seed always gives byte-identical files.  Run as a script, this module is the
input-generation child process of ``run.py``; the measured worker only ever
sees the files it leaves behind.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from symgraph import dataset, synth
from symgraph.graphs import DEFAULT_RELATIONS
from symgraph.model import ModelConfig, init_params, save_checkpoint

# Relations a fact store may hold that the knowledge-graph whitelist drops.
EXTRA_RELATIONS = ("Synonym", "Antonym", "ExternalURL", "EtymologicallyRelatedTo",
                   "DistinctFrom", "dbpedia_genre", "NotDesires", "ObstructedBy")

# Per-workload sizes; "smoke" is the tiny variant that finishes in seconds.
SIZES = {
    "train_small": {
        "full": {"examples": 200},
        "smoke": {"examples": 40},
    },
    "infer_large": {
        # 8-16 objects, 0-2 attributes, ~2 relations per object; ~11 facts
        # per seed token give 1-hop knowledge graphs of about 200 nodes.  A
        # 30-example test split keeps each timed call short, so a run holds
        # many samples.  The store also holds facts that prepare must read
        # and drop: non-whitelisted relations on seed tokens, and ~45k facts
        # between concepts that no 1-hop graph reaches; the embedding file
        # pads to 10k rows.
        "full": {"docs": 150, "objects": 240, "attributes": 40, "concepts": 2400,
                 "facts_per_seed": 11, "dropped_per_seed": 8, "background": 45_000,
                 "tokens": 10_000, "dim": 64, "hidden": 256, "obj_range": (8, 16)},
        "smoke": {"docs": 20, "objects": 60, "attributes": 10, "concepts": 200,
                  "facts_per_seed": 4, "dropped_per_seed": 2, "background": 500,
                  "tokens": 400, "dim": 8, "hidden": 16, "obj_range": (3, 6)},
    },
}

# Sum readout over ~200 nodes: with unit-scale vectors the untrained model's
# softmax saturates, which leaves the probability check and the probe
# training nothing to measure.
EMBED_SCALE = 0.1

INFER_LABELS = [f"theme{i}" for i in range(4)]


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def _write_lines(path: Path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _write_embeddings(path: Path, tokens, dim: int, rng, scale: float):
    """Text table of values on a 2001-level grid in [-scale, scale];
    formatting goes through a lookup of precomputed strings so that a
    20k x 300 file takes about a second."""
    levels = np.array([f"{v:.5f}" for v in np.linspace(-scale, scale, 2001)])
    codes = rng.integers(0, levels.size, size=(len(tokens), dim))
    with open(path, "w", encoding="utf-8") as fh:
        for token, row in zip(tokens, codes):
            fh.write(token + " " + " ".join(levels[row]) + "\n")


def _object_counts(ids, seed, obj_range) -> dict:
    """Objects per document, cycling through ``obj_range`` along each split
    of ``dataset.split_ids``: every seed gives each split the same sizes, so
    the work per call does not swing with the seed."""
    span = obj_range[1] - obj_range[0] + 1
    return {image_id: obj_range[0] + j % span
            for split in dataset.split_ids(ids, seed).values()
            for j, image_id in enumerate(split)}


def _scene_doc(image_id, n, names, attrs, preds, labels, rng, max_attrs,
               rels_per_object):
    """``n`` objects; object j has ``j % (max_attrs + 1)`` attributes."""
    objects = []
    for j in range(n):
        k = j % (max_attrs + 1) if attrs else 0
        objects.append({
            "name": str(names[int(rng.integers(len(names)))]),
            "attributes": [str(attrs[int(i)])
                           for i in rng.choice(len(attrs), size=k, replace=False)]
            if k else [],
        })
    relations = []
    for _ in range(int(round(rels_per_object * n))):
        subj, obj = (int(v) for v in rng.choice(n, size=2, replace=False))
        relations.append({"subj": subj, "pred": str(preds[int(rng.integers(len(preds)))]),
                          "obj": obj})
    k = int(rng.integers(1, min(2, len(labels)) + 1))
    chosen = sorted(str(labels[int(i)]) for i in rng.choice(len(labels), size=k,
                                                             replace=False))
    return {"image_id": image_id, "objects": objects, "relations": relations,
            "labels": chosen}


def _write_docs(scene_dir: Path, docs):
    scene_dir.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (scene_dir / f"{doc['image_id']}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _build_bundle(raw: dict, out: Path, seed: int):
    """``symgraph prepare``: examples, seeded 60/20/20 split, bundle files."""
    examples, label_list = dataset.prepare(raw["scene_dir"], raw["facts"],
                                           raw["vocab"], raw["labels"])
    splits = dataset.split_ids([ex.image_id for ex in examples], seed)
    dataset.write_bundle(out / "bundle", examples, label_list, splits)
    raw["bundle"] = str(out / "bundle")


def make_train_small(seed: int, out: Path, size: str) -> dict:
    """The criterion-7 synthetic bundle: 2 labels, 3-node graphs, embed 16."""
    spec = synth.SynthSpec(num_labels=2, num_examples=SIZES["train_small"][size]["examples"],
                           noise=0.0, seed=seed, embed_dim=16)
    paths = synth.generate(spec, out / "raw")
    raw = {k: str(v) for k, v in paths.items()}
    raw["dim"] = spec.embed_dim
    _build_bundle(raw, out, seed)
    return raw


def make_infer_large(seed: int, out: Path, size: str) -> dict:
    """Dense fact store whose 1-hop knowledge graphs reach ~200 nodes, plus
    an untrained, seeded checkpoint of the inference model."""
    s = SIZES["infer_large"][size]
    rng = _rng(seed, "infer_large")
    objects = [f"obj{i}" for i in range(s["objects"])]
    attributes = [f"attr{i}" for i in range(s["attributes"])]
    concepts = [f"concept{i}" for i in range(s["concepts"])]
    preds = [f"pred{i}" for i in range(12)]
    # one concept in ten stays outside the vocabulary, so some tails drop
    vocab = objects + attributes + [c for i, c in enumerate(concepts) if i % 10]
    relations = list(DEFAULT_RELATIONS) + list(EXTRA_RELATIONS[:2])
    facts = []
    for head in objects + attributes:
        for _ in range(s["facts_per_seed"]):
            facts.append((relations[int(rng.integers(len(relations)))], head,
                          concepts[int(rng.integers(len(concepts)))]))
        for _ in range(s["dropped_per_seed"]):
            facts.append((EXTRA_RELATIONS[int(rng.integers(len(EXTRA_RELATIONS)))], head,
                          concepts[int(rng.integers(len(concepts)))]))
    every_relation = list(DEFAULT_RELATIONS) + list(EXTRA_RELATIONS)
    for r, h, t in zip(*(rng.integers(0, n, size=s["background"])
                         for n in (len(every_relation), len(concepts), len(concepts)))):
        facts.append((every_relation[r], concepts[h], concepts[t]))
    ids = [f"img{i:05d}" for i in range(s["docs"])]
    counts = _object_counts(ids, seed, s["obj_range"])
    docs = [_scene_doc(i, counts[i], objects, attributes, preds, INFER_LABELS,
                       rng, 2, 2.0) for i in ids]
    raw = _write_raw(out / "raw", docs, facts, vocab, INFER_LABELS)
    tokens = (vocab + [c for c in concepts if c not in set(vocab)][::2] + preds
              + [r.lower() for r in relations] + ["self"])
    tokens += [f"w{i}" for i in range(s["tokens"] - len(tokens))]
    _write_embeddings(Path(raw["embeddings"]), tokens, s["dim"], rng, EMBED_SCALE)
    raw["dim"] = s["dim"]
    _build_bundle(raw, out, seed)
    # untrained and seeded: concat fusion, the CLI's default depth of 3
    config = ModelConfig(num_labels=len(INFER_LABELS), embed_dim=s["dim"],
                         hidden_dim=s["hidden"], gcn_layers=3, fusion_mode="concat",
                         seed=seed)
    save_checkpoint(out / "model.npz", config, init_params(config))
    raw["checkpoint"] = str(out / "model.npz")
    return raw


def _write_raw(raw_dir: Path, docs, facts, vocab, labels) -> dict:
    raw_dir.mkdir(parents=True, exist_ok=True)
    _write_docs(raw_dir / "scene_graphs", docs)
    _write_lines(raw_dir / "facts.tsv", (f"{r}\t{h}\t{t}" for r, h, t in facts))
    _write_lines(raw_dir / "vocab.txt", vocab)
    _write_lines(raw_dir / "labels.txt", labels)
    return {"scene_dir": str(raw_dir / "scene_graphs"), "facts": str(raw_dir / "facts.tsv"),
            "vocab": str(raw_dir / "vocab.txt"), "labels": str(raw_dir / "labels.txt"),
            "embeddings": str(raw_dir / "embeddings.txt")}


GENERATORS = {
    "train_small": make_train_small,
    "infer_large": make_infer_large,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", default="full", choices=["full", "smoke"])
    args = p.parse_args(argv)
    out = Path(args.out)
    raw = GENERATORS[args.workload](args.seed, out, args.size)
    (out / "inputs.json").write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

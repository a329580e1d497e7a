"""Synthetic dataset generator with planted, label-determined subgraph signals.

Each label is tied to (a) a scene relation pattern and (b) a knowledge fact,
so learnability is known by construction.  The generator also writes a toy
fact store, vocabulary, and embedding table, making runs self-contained.

The dual-signal variant (4 labels) splits the label bits across the graphs:
the scene bit lives only in a relation token, and the knowledge bit only in
the fact store (its two trigger objects share one embedding vector), so
neither graph alone can determine the label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dataset import refuse_other_documents
from .errors import ConfigError
from .rng import child_rng

N_DISTRACTORS = 2


@dataclass
class SynthSpec:
    num_labels: int = 2
    num_examples: int = 200
    noise: float = 0.0
    seed: int = 0
    embed_dim: int = 16
    embed_scale: float = 2.0
    dual_signal: bool = False

    def __post_init__(self):
        if self.num_labels < 2:
            raise ConfigError(f"num_labels must be >= 2, got {self.num_labels}")
        if self.num_examples < 1:
            raise ConfigError(f"num_examples must be >= 1, got {self.num_examples}")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigError(f"noise must be in [0,1], got {self.noise}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if not 0 < self.embed_scale < math.inf:  # refuses nan too
            raise ConfigError(f"embed_scale must be finite and > 0, got {self.embed_scale}")
        if self.dual_signal and self.num_labels != 4:
            raise ConfigError("dual_signal datasets have exactly 4 labels")


def _write_embeddings(path, vectors):
    Path(path).write_text("".join(token + " " + " ".join(f"{v:.8f}" for v in vec) + "\n"
                                  for token, vec in vectors.items()), encoding="utf-8")


def generate(spec: SynthSpec, out_dir):
    """Write scene-graph documents, fact store, vocab, labels, and embeddings.

    Returns a dict of the written paths.  A ``scene_graphs`` directory that
    holds documents this call does not write is refused before any write.
    """
    out = Path(out_dir)
    scenes = out / "scene_graphs"
    rng = child_rng(spec.seed, "synth")
    labels = [f"sym{i}" for i in range(spec.num_labels)]

    if spec.dual_signal:
        docs, facts, vocab, tokens = _generate_dual(spec, rng, labels)
    else:
        docs, facts, vocab, tokens = _generate_single(spec, rng, labels)

    refuse_other_documents(scenes, [f"{doc['image_id']}.json" for doc in docs])
    scenes.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        path = scenes / f"{doc['image_id']}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    (out / "facts.tsv").write_text(
        "".join(f"{r}\t{h}\t{t}\n" for r, h, t in facts), encoding="utf-8")
    (out / "vocab.txt").write_text("\n".join(sorted(vocab)) + "\n", encoding="utf-8")
    (out / "labels.txt").write_text("\n".join(labels) + "\n", encoding="utf-8")

    emb_rng = child_rng(spec.seed, "synth-embeddings")
    vectors = {}
    for token in tokens:
        vectors[token] = spec.embed_scale * emb_rng.normal(size=spec.embed_dim)
    if spec.dual_signal:
        # scene-indistinguishable pairs; only their fact relations differ
        vectors["kx1"] = vectors["kx0"].copy()
        vectors["ky1"] = vectors["ky0"].copy()
    _write_embeddings(out / "embeddings.txt", vectors)

    return {
        "scene_dir": scenes,
        "facts": out / "facts.tsv",
        "vocab": out / "vocab.txt",
        "labels": out / "labels.txt",
        "embeddings": out / "embeddings.txt",
    }


def _generate_single(spec, rng, labels):
    objs, rels, ideas = [], [], []
    for l in range(spec.num_labels):
        objs += [f"obja{l}", f"objb{l}"]
        rels.append(f"rel{l}")
        ideas.append(f"idea{l}")
    things = [f"thing{i}" for i in range(N_DISTRACTORS)]
    facts = [("RelatedTo", f"obja{l}", f"idea{l}") for l in range(spec.num_labels)]
    facts.append(("Synonym", things[0], things[1]))  # dropped by the whitelist
    vocab = set(objs + things + ideas)
    docs = []
    for i in range(spec.num_examples):
        label = i % spec.num_labels
        pattern = label
        if spec.noise > 0 and rng.random() < spec.noise:
            pattern = int(rng.integers(spec.num_labels))
        thing = things[int(rng.integers(N_DISTRACTORS))]
        docs.append({
            "image_id": f"img{i:04d}",
            "objects": [
                {"name": f"obja{pattern}", "attributes": []},
                {"name": f"objb{pattern}", "attributes": []},
                {"name": thing, "attributes": []},
            ],
            "relations": [
                # the pattern relation is a 2-cycle: in-neighbor averaging
                # keeps no self state, so a one-way edge would be washed out
                # of the scene tower after one message-passing layer
                {"subj": 0, "pred": f"rel{pattern}", "obj": 1},
                {"subj": 1, "pred": f"rel{pattern}", "obj": 0},
                {"subj": 2, "pred": "near", "obj": 0},
            ],
            "labels": [labels[label]],
        })
    tokens = objs + rels + ideas + things + ["near", "self"]
    return docs, facts, vocab, tokens


def _generate_dual(spec, rng, labels):
    # Label index = 2*scene_bit + know_bit.  The scene bit lives only in the
    # relation token of the sa/sb cycle (fact relations never reach the
    # knowledge graph's inputs).  The know bit lives only in the fact
    # relation of the kx/ky cycle: kx0/kx1 (and ky0/ky1) get one shared
    # embedding vector each, so the scene tower cannot tell them apart,
    # while the knowledge tower sees UsedFor vs Causes edge embeddings.
    things = [f"thing{i}" for i in range(N_DISTRACTORS)]
    facts = [
        ("UsedFor", "kx0", "ky0"), ("UsedFor", "ky0", "kx0"),
        ("Causes", "kx1", "ky1"), ("Causes", "ky1", "kx1"),
    ]
    vocab = {"sa", "sb", "kx0", "kx1", "ky0", "ky1"} | set(things)
    docs = []
    for i in range(spec.num_examples):
        combo = i % 4
        if spec.noise > 0 and rng.random() < spec.noise:
            combo = int(rng.integers(4))
        scene_bit, know_bit = divmod(combo, 2)
        label = i % 4  # the label keeps the pre-scramble combo
        thing = things[int(rng.integers(N_DISTRACTORS))]
        docs.append({
            "image_id": f"img{i:04d}",
            "objects": [
                {"name": "sa", "attributes": []},
                {"name": "sb", "attributes": []},
                {"name": f"kx{know_bit}", "attributes": []},
                {"name": f"ky{know_bit}", "attributes": []},
                {"name": thing, "attributes": []},
            ],
            "relations": [
                {"subj": 0, "pred": f"srel{scene_bit}", "obj": 1},
                {"subj": 1, "pred": f"srel{scene_bit}", "obj": 0},
                {"subj": 4, "pred": "near", "obj": 0},
            ],
            "labels": [labels[label]],
        })
    tokens = ["sa", "sb", "srel0", "srel1", "kx0", "kx1", "ky0", "ky1",
              "near", "self", "usedfor", "causes"] + things
    return docs, facts, vocab, tokens

"""Full-model gradient checking against central finite differences."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingTable
from .graphs import LabeledGraph, validate_graph
from .model import ModelConfig, init_params
from .rng import child_rng
from .tensor import Tape, backward
from .training import Example, batch_loss, pack_split

# relative error of analytic vs numeric gradient; the +1e-6 floor keeps
# finite-difference noise on true-zero coordinates from registering
REL_EPS = 1e-6


@dataclass
class GradCheckReport:
    tolerance: float
    per_param: dict = field(default_factory=dict)  # name -> max relative error

    @property
    def max_error(self):
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def ok(self):
        return self.max_error < self.tolerance

    def lines(self):
        out = []
        for name, err in sorted(self.per_param.items()):
            status = "ok" if err < self.tolerance else "FAIL"
            out.append(f"{name:16s} max_rel_err={err:.3e} [{status}]")
        return out


def random_toy_world(mconfig: ModelConfig, seed: int):
    """Random embedding table plus one random example for checking.

    The scene graph has random edges.  The knowledge graph is a 1-hop star
    like the ones ``build_knowledge_graphs`` gives: two seed concepts without
    in-edges, and tails under one seed or both, the first under one.  So
    some nodes share their in-edge list (an aggregation class) and the check
    runs through merged classes.
    """
    rng = child_rng(seed, "gradcheck")
    n_nodes = 5  # per graph; the star takes 3 to 10
    tokens = [f"tok{i}" for i in range(12)] + ["self"]
    matrix = rng.normal(size=(len(tokens), mconfig.embed_dim))
    table = EmbeddingTable(mconfig.embed_dim, matrix, dict(zip(tokens, range(len(tokens)))))

    def random_scene_graph():
        nodes = [(tokens[rng.integers(0, 10)], (tokens[rng.integers(0, 10)],))
                 for _ in range(n_nodes)]
        edges = [(int(rng.integers(0, n_nodes)), int(rng.integers(0, n_nodes)),
                  tokens[rng.integers(0, 12)])
                 for _ in range(n_nodes + 2)]
        return validate_graph(LabeledGraph(*zip(*nodes), *zip(*edges), kind="scene"))

    def star_knowledge_graph():
        names = rng.permutation(10)[:n_nodes]  # distinct concepts; 0 and 1 are seeds
        parents = [[0], [1], [0, 1]]
        edges = [(s, tail, tokens[rng.integers(0, 12)])
                 for tail in range(2, n_nodes)
                 for s in parents[0 if tail == 2 else rng.integers(0, 3)]]
        return validate_graph(LabeledGraph(tuple(tokens[i] for i in names), ((),) * n_nodes,
                                           *zip(*edges), kind="knowledge"))

    labels = [f"label{i}" for i in range(mconfig.num_labels)]
    ex = Example("gradcheck-0", random_scene_graph(), star_knowledge_graph(),
                 [labels[0], labels[1 % len(labels)]])
    return table, ex, labels


def gradcheck(mconfig: ModelConfig, seed: int = 0, eps: float = 1e-5,
              tolerance: float = 1e-4, corrupt_param: str = None) -> GradCheckReport:
    """Compare analytic gradients of the full forward+loss against central
    finite differences, coordinate by coordinate.

    ``corrupt_param`` is a test-only fault hook: it perturbs the analytic
    gradient of one parameter group so the check must flag that group.
    """
    table, ex, labels = random_toy_world(mconfig, seed)
    params = init_params(mconfig)
    split = pack_split([ex], table, labels)
    batch, targets = split.take([0]), split.targets[[0]]  # taken once, for every loss

    tape = Tape()
    lt = batch_loss(batch, targets, params, mconfig, tape)
    backward(tape, lt)
    analytic = {p.name: p.grad.copy() for p in params}
    if corrupt_param is not None:
        analytic[corrupt_param] += 0.1
    for p in params:
        p.zero_grad()

    def loss_at() -> float:
        return batch_loss(batch, targets, params, mconfig).item()

    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        worst = 0.0
        flat = p.value.reshape(-1)
        ga = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_at()
            flat[i] = orig - eps
            down = loss_at()
            flat[i] = orig
            gn = (up - down) / (2 * eps)
            err = abs(ga[i] - gn) / (abs(ga[i]) + abs(gn) + REL_EPS)
            worst = max(worst, err)
        report.per_param[p.name] = worst
    return report

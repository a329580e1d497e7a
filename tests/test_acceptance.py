"""Acceptance gate.

One test per criterion, each printing a single pass/fail line (run with
`pytest -s tests/test_acceptance.py` to see them).  Criterion 1 records that
benchmark-number reproduction is out of scope at this scale; criteria 2..10
are checked at the stated tolerances.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (brute_force_knowledge_graph, gcn_layer_ref, node_classes_ref,
                     records_graph, source_nodes_ref, source_rows_ref, store_of, table_of)
from symgraph.cli import main
from symgraph.gradcheck import gradcheck, random_toy_world
from symgraph.graphs import (DEFAULT_RELATIONS, GraphEdge, GraphNode, build_knowledge_graphs,
                             seed_tokens, validate_graph)
from symgraph.model import (ModelConfig, attention_fuse, forward, fuse_concat,
                            init_params, pack_batch, pack_graphs, param_count, readout_sum)
from symgraph.tensor import Tensor, sgd_step
from symgraph.training import Example


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def run_cli(argv):
    return main([str(a) for a in argv])


def test_criterion_1_scope_note():
    # published benchmark F-scores need the original ad dataset and pretrained
    # detectors; reproduction is out of scope, the property suite is the gate
    print("criterion 1: PASS (benchmark reproduction out of scope by design)")


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for fusion in ("concat", "attention"):
        cfg = ModelConfig(num_labels=4, embed_dim=6, hidden_dim=8, gcn_layers=3,
                          fusion_mode=fusion)
        # the knowledge graph's leaves get no encoder row: the check runs
        # through the pruned encoder
        table, ex, _ = random_toy_world(cfg, seed=0)
        kg = pack_batch([ex], table).kg
        assert kg.num_sources < kg.num_nodes
        rep = gradcheck(cfg, seed=0, tolerance=1e-4)
        worst = max(worst, rep.max_error)
        ok = ok and rep.ok
    elapsed = time.perf_counter() - t0
    ok = ok and worst < 1e-4 and elapsed < 30.0
    report(2, ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_gcn_oracle_equivalence():
    rng = np.random.default_rng(0)
    cfg = ModelConfig(num_labels=2, embed_dim=4, hidden_dim=4, gcn_layers=1)
    table = table_of(4, {})  # the layer reads only the packed edges
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        nodes = [GraphNode(f"n{i}") for i in range(n)]
        edges = [GraphEdge(int(rng.integers(n)), int(rng.integers(n)), "r")
                 for _ in range(int(rng.integers(0, 2 * n + 1)))]
        g = validate_graph(records_graph(nodes, edges))
        states = rng.normal(size=(n, 4))
        w = rng.normal(size=(4, 4))
        from symgraph.model import gcn_layer
        packed = pack_graphs([g], table)[0]
        # encoder rows are the distinct messages into the nodes some in-edge
        # list reads: a row's nodes all get the state of its first one
        nodes, rows = source_nodes_ref(g), source_rows_ref(g)
        row_states = states[nodes[np.unique(rows, return_index=True)[1]]]
        states[nodes] = row_states[rows]
        # the layer gives one row per class key, gathered to one per
        # aggregation class, expanded to one per node
        plan = packed.plan(1)
        out = gcn_layer(Tensor(row_states), plan.layers[0], Tensor(w), cfg).data
        if plan.readout is not None:
            out = out[plan.readout]
        got = out[node_classes_ref(g)]
        ref = gcn_layer_ref(states, g, w, lambda v: np.maximum(v, 0.0))
        worst = max(worst, float(np.abs(got - ref).max()) if n else 0.0)
    report(3, worst < 1e-12, f"100 graphs, max abs dev {worst:.2e}")


def test_criterion_4_kg_builder_equivalence():
    rng = np.random.default_rng(1)
    wl = frozenset(DEFAULT_RELATIONS)
    relations = list(DEFAULT_RELATIONS) + ["Synonym", "Antonym", "EtymOf"]
    concepts = [f"c{i}" for i in range(40)]
    mismatches = 0
    for _ in range(50):
        n_triples = int(rng.integers(1, 201))
        triples = [(relations[rng.integers(len(relations))],
                    concepts[rng.integers(40)], concepts[rng.integers(40)])
                   for _ in range(n_triples)]
        seeds = records_graph([GraphNode(concepts[rng.integers(40)])
                               for _ in range(int(rng.integers(1, 5)))], [])
        vocab = {concepts[i] for i in rng.choice(40, 15, replace=False)}
        g = build_knowledge_graphs([seeds], store_of(triples), wl, vocab)[0]
        nodes_ref, edges_ref = brute_force_knowledge_graph(
            seed_tokens(seeds), set(triples), wl, vocab)
        got = json.dumps({
            "nodes": [n.name for n in g.nodes],
            "edges": [[g.nodes[e.src].name, e.relation, g.nodes[e.dst].name]
                      for e in g.edges]})
        ref = json.dumps({"nodes": nodes_ref,
                          "edges": [list(t) for t in edges_ref]})
        mismatches += got != ref
    report(4, mismatches == 0, f"50 stores, {mismatches} mismatches")


def test_criterion_5_fusion_contracts():
    concat_ok = np.array_equal(
        fuse_concat(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data,
        [1, 2, 3, 4, 3, 8])
    rng = np.random.default_rng(2)
    simplex_ok = True
    for _ in range(20):
        _, alpha = attention_fuse(Tensor(rng.normal(size=5)),
                                  Tensor(rng.normal(size=5)))
        simplex_ok = simplex_ok and abs(alpha.data.sum() - 1.0) <= 1e-12
    _, eq = attention_fuse(Tensor([3.0, 4.0]), Tensor([5.0, 0.0]))
    equal_ok = np.allclose(eq.data, [0.5, 0.5], atol=1e-12)
    _, an = attention_fuse(Tensor([1.0, 0.0]),
                           Tensor([0.0, np.sqrt(1.0 + np.log(2.0))]))
    analytic_ok = np.allclose(an.data, [1 / 3, 2 / 3], atol=1e-12)
    ok = concat_ok and simplex_ok and equal_ok and analytic_ok
    report(5, ok, "concat exact; alpha simplex, equal-norm, ln2 cases")


def test_criterion_6_invariances():
    rng = np.random.default_rng(3)
    tokens = [f"t{i}" for i in range(8)] + ["self"]
    table = table_of(6, {t: rng.normal(size=6) for t in tokens})
    cfg = ModelConfig(num_labels=3, embed_dim=6, hidden_dim=6, gcn_layers=2)
    params = init_params(cfg)
    nodes = [GraphNode(f"t{i}") for i in range(5)]
    edges = [GraphEdge(int(rng.integers(5)), int(rng.integers(5)), "t7")
             for _ in range(7)]
    sg = validate_graph(records_graph(nodes, edges))
    kg = records_graph([], [], kind="knowledge")
    ex = Example("x", sg, kg, ["l0"])
    p1, _ = forward(ex, params, table, cfg)
    perm = rng.permutation(5)
    inv = np.argsort(perm)
    sg2 = records_graph([sg.nodes[i] for i in perm],
                        [GraphEdge(int(inv[e.src]), int(inv[e.dst]), e.relation)
                         for e in sg.edges], kind="scene")
    p2, _ = forward(Example("x", sg2, kg, ["l0"]), params, table, cfg)
    perm_dev = float(np.abs(p1.data - p2.data).max())
    empty = pack_graphs([records_graph([], [])], table)[0]
    empty_ok = np.array_equal(readout_sum(Tensor(np.zeros((0, 6))), empty).data,
                              np.zeros((1, 6)))
    from symgraph.tensor import softmax
    x = rng.normal(size=6)
    shift_dev = float(np.abs(softmax(Tensor(x)).data -
                             softmax(Tensor(x + 31.7)).data).max())
    ok = perm_dev < 1e-9 and empty_ok and shift_dev <= 1e-12
    report(6, ok, f"perm dev {perm_dev:.1e}, shift dev {shift_dev:.1e}")


def test_criterion_7_learnability(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "synth"
    assert run_cli(["synth", "--out", data, "--labels-count", 2,
                    "--examples", 200, "--noise", "0.0", "--seed", 0]) == 0
    run_dir = tmp_path / "run"
    assert run_cli(["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", run_dir,
                    "--embed-dim", 16, "--hidden-dim", 128, "--gcn-layers", 2,
                    "--fusion", "attention", "--epochs", 50,
                    "--batch-size", 32, "--lr", "1e-3", "--seed", 0]) == 0
    rows = (run_dir / "runlog.csv").read_text().splitlines()[1:]
    best = max(float(r.split(",")[2]) for r in rows)
    elapsed = time.perf_counter() - t0
    ok = best >= 95.0 and elapsed < 60.0
    report(7, ok, f"val macro F {best:.2f}, {elapsed:.1f}s")


def test_criterion_8_ablation_direction(tmp_path):
    wins = 0
    for seed in (0, 1, 2):
        data = tmp_path / f"dual{seed}"
        assert run_cli(["synth", "--out", data, "--labels-count", 4,
                        "--examples", 240, "--dual-signal", "--seed", seed]) == 0
        out = tmp_path / f"ab{seed}"
        assert run_cli(["ablate", "--bundle", data / "bundle",
                        "--embeddings", data / "embeddings.txt", "--out", out,
                        "--graphs", "--embed-dim", 16, "--hidden-dim", 128,
                        "--gcn-layers", 2, "--epochs", 25, "--seed", seed]) == 0
        finals = {}
        for line in (out / "ablation.csv").read_text().splitlines()[1:]:
            variant, _, f = line.split(",")
            finals[variant] = float(f)  # last row per variant wins
        if finals["both"] > finals["sg_only"] and finals["both"] > finals["kg_only"]:
            wins += 1
    report(8, wins == 3, f"both beats single-graph on {wins}/3 seeds")


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "synth"
    assert run_cli(["synth", "--out", data, "--examples", 60, "--seed", 5]) == 0
    metrics = []
    logs = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert run_cli(["train", "--bundle", data / "bundle",
                        "--embeddings", data / "embeddings.txt",
                        "--out", run_dir, "--embed-dim", 16,
                        "--hidden-dim", 32, "--gcn-layers", 1,
                        "--epochs", 3, "--seed", 5]) == 0
        eval_dir = tmp_path / f"eval_{tag}"
        assert run_cli(["eval", "--bundle", data / "bundle",
                        "--embeddings", data / "embeddings.txt",
                        "--checkpoint", run_dir / "checkpoint.npz",
                        "--out", eval_dir]) == 0
        metrics.append((eval_dir / "per_label.csv").read_bytes() +
                       (eval_dir / "metrics.json").read_bytes())
        # drop the wall-clock seconds column (ledgered deviation): the rest
        # of the run log must match byte for byte
        rows = (run_dir / "runlog.csv").read_text().splitlines()
        logs.append([",".join(r.split(",")[:3]) for r in rows])
    ok = metrics[0] == metrics[1] and logs[0] == logs[1]
    report(9, ok, "metrics byte-identical; run log identical minus seconds")


def test_criterion_10_parameter_accounting():
    cfg = ModelConfig(num_labels=2, embed_dim=2, hidden_dim=3, gcn_layers=1,
                      mlp_hidden=3)
    count = param_count(cfg)
    params = init_params(cfg)
    before = {p.name: p.value.copy() for p in params}
    for p in params:
        p.grad = np.ones_like(p.value)
    sgd_step(params, 0.01)
    changed = sum(int(np.sum(before[p.name] != p.value)) for p in params)
    ok = count == 80 and changed == count
    report(10, ok, f"param_count {count}, scalars changed {changed}")

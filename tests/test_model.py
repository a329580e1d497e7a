import json
import re
from dataclasses import asdict, replace
from itertools import product

import numpy as np
import pytest

from oracles import (class_keys_ref, collate, encode_nodes_ref, first_occurrence,
                     forward_ref, gcn_layer_ref, node_classes_ref, node_input_ref,
                     phrase_ref, records_graph, scatter_add_ref, source_nodes_ref,
                     source_rows_ref, store_of, table_of)
from symgraph.errors import ConfigError, DimensionError, ValidationError
from symgraph.gradcheck import REL_EPS, gradcheck, random_toy_world
from symgraph.graphs import (DEFAULT_RELATIONS, GraphEdge, GraphNode, build_knowledge_graphs,
                             validate_graph)
from symgraph import evaluation
from symgraph import tensor as T
from symgraph.model import (FUSION_MODES, LOSS_MODES, MAX_ROUNDS, Batch, ModelConfig,
                            attention_fuse, check_table, classify, encode_nodes, forward, forward_batch,
                            fuse_concat,
                            gcn_layer, init_params, load_checkpoint,
                            pack_batch, pack_graphs, param_count,
                            readout_sum, run_tower, save_checkpoint, take)
from symgraph.tensor import Parameter, Tape, Tensor, backward
from symgraph.training import Example, batch_loss, pack_split


def seed_graph(*nodes):
    """A graph of seed nodes, given as names or GraphNode records, and no edges."""
    return records_graph(
        [GraphNode(n) if isinstance(n, str) else n for n in nodes], [])


def toy_config(**kw):
    base = dict(num_labels=2, embed_dim=6, hidden_dim=6, gcn_layers=1)
    base.update(kw)
    return ModelConfig(**base)


def random_graph(rng, n, kind="scene", n_edges=None):
    tokens = [f"tok{i}" for i in range(10)]
    nodes = [GraphNode(tokens[rng.integers(10)], [tokens[rng.integers(10)]])
             for _ in range(n)]
    n_edges = n + 2 if n_edges is None else n_edges
    edges = [GraphEdge(int(rng.integers(n)), int(rng.integers(n)),
                       tokens[rng.integers(10)]) for _ in range(n_edges)]
    return validate_graph(records_graph(nodes, edges, kind=kind))


def one_layer(packed, source_states, w, cfg):
    """The GCN layer of a one-layer tower on states per row of ``inputs``,
    with a row per aggregation class."""
    plan = packed.plan(1)
    out = gcn_layer(Tensor(source_states), plan.layers[0], Tensor(w), cfg)
    return out if plan.readout is None else Tensor(out.data[plan.readout])


def node_states(g, source_states):
    """Per node of g: the state of its row of ``inputs`` for the nodes that
    have one (``source_rows_ref``), and zeros for the rest, which no
    in-edge reads."""
    out = np.zeros((len(g.nodes), source_states.shape[1]))
    out[source_nodes_ref(g)] = source_states[source_rows_ref(g)]
    return out


class TestEncodeNodes:
    def test_isolated_node_recovers_relu_of_embedding(self, toy_table):
        # W_enc = [I | 0] selects the node part of [x ; e_self]
        cfg = toy_config()
        g = records_graph([GraphNode("cat")], [])
        w = Tensor(np.hstack([np.eye(6), np.zeros((6, 6))]))
        out = encode_nodes(pack_graphs([g], toy_table)[0], w, cfg)
        x = phrase_ref(toy_table, "cat")
        np.testing.assert_allclose(out.data[0], np.maximum(x, 0.0))

    def test_zero_weights_give_zero_states(self, toy_table):
        cfg = toy_config()
        g = records_graph([GraphNode("tok0"), GraphNode("tok1")],
                          [GraphEdge(0, 1, "near")])
        out = encode_nodes(pack_graphs([g], toy_table)[0], Tensor(np.zeros((6, 12))), cfg)
        assert np.all(out.data == 0.0)

    def test_matches_dense_loop_reference(self, rng, toy_table):
        cfg = toy_config()
        for _ in range(10):
            g = random_graph(rng, 4)
            w = rng.normal(size=(6, 12))
            packed = pack_graphs([g], toy_table)[0]
            got = encode_nodes(packed, Tensor(w), cfg).data
            ref = encode_nodes_ref(g, toy_table, w, lambda v: np.maximum(v, 0.0))
            # one encoder row per distinct source content, at the nodes some
            # in-edge list reads
            np.testing.assert_allclose(got[source_rows_ref(g)], ref[source_nodes_ref(g)],
                                       atol=1e-12)

    def test_attributes_enter_node_input(self, toy_table):
        # an isolated node's encoder input is [node input ; e_self]
        def node_input(node):
            return pack_graphs([records_graph([node], [])], toy_table)[0].inputs[0, :6]

        with_attr = node_input(GraphNode("cat", ["red"]))
        without = node_input(GraphNode("cat"))
        expected = 0.5 * (phrase_ref(toy_table, "cat") + phrase_ref(toy_table, "red"))
        np.testing.assert_allclose(with_attr, expected)
        assert not np.allclose(with_attr, without)

    def test_empty_graph_gives_empty_states(self, toy_table):
        cfg = toy_config()
        out = encode_nodes(pack_graphs([records_graph([], [])], toy_table)[0],
                           Tensor(np.zeros((6, 12))), cfg)
        assert out.shape == (0, 6)


class TestGcnLayer:
    def test_single_edge_identity_weight(self, toy_table):
        cfg = toy_config(hidden_dim=4)
        g = records_graph([GraphNode("a"), GraphNode("b")], [GraphEdge(0, 1, "r")])
        states = np.array([[1.0, -1.0, 2.0, -2.0]])
        packed = pack_graphs([g], toy_table)[0]
        # b reads a; a reads itself through its self-loop: only a is encoded
        np.testing.assert_array_equal(source_nodes_ref(g), [0])
        assert packed.num_sources == 1
        out = one_layer(packed, states, np.eye(4), cfg)
        np.testing.assert_allclose(out.data[node_classes_ref(g)[1]], [1.0, 0.0, 2.0, 0.0])

    def test_opposite_neighbors_cancel(self, toy_table):
        cfg = toy_config(hidden_dim=3)
        g = records_graph([GraphNode("a"), GraphNode("b"), GraphNode("c")],
                          [GraphEdge(0, 2, "r"), GraphEdge(1, 2, "r")])
        v = np.array([2.0, -1.0, 0.5])
        packed = pack_graphs([g], toy_table)[0]
        np.testing.assert_array_equal(source_rows_ref(g), [0, 1])  # a and b differ
        out = one_layer(packed, np.vstack([v, -v]), np.eye(3), cfg)
        np.testing.assert_allclose(out.data[node_classes_ref(g)[2]], 0.0, atol=1e-15)

    def test_matches_dense_adjacency_reference(self, rng, toy_table):
        cfg = toy_config(hidden_dim=5)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            g = random_graph(rng, n)
            w = rng.normal(size=(5, 5))
            packed = pack_graphs([g], toy_table)[0]
            states = rng.normal(size=(packed.num_sources, 5))
            got = one_layer(packed, states, w, cfg).data[node_classes_ref(g)]
            ref = gcn_layer_ref(node_states(g, states), g, w, lambda v: np.maximum(v, 0.0))
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_row_count_mismatch(self, toy_table):
        cfg = toy_config(hidden_dim=3)
        g = pack_graphs([records_graph([GraphNode("a")], [])], toy_table)[0]
        for layers in (1, 2):
            for edges in g.plan(layers).layers:
                with pytest.raises(DimensionError, match="input rows 1"):
                    gcn_layer(Tensor(np.zeros((2, 3))), edges, Tensor(np.eye(3)), cfg)


def one_graph(n, table):
    """A packed graph of n isolated nodes."""
    return pack_graphs([records_graph([GraphNode(f"tok{i}") for i in range(n)], [])],
                       table)[0]


class TestReadout:
    def test_single_node(self, toy_table):
        s = Tensor([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(readout_sum(s, one_graph(1, toy_table)).data,
                                      [[1.0, 2.0, 3.0]])

    def test_empty_graph_zero_vector(self, toy_table):
        out = readout_sum(Tensor(np.zeros((0, 4))), one_graph(0, toy_table))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_permutation_invariant(self, rng, toy_table):
        s = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        a = readout_sum(Tensor(s), one_graph(6, toy_table)).data
        b = readout_sum(Tensor(s[perm]), one_graph(6, toy_table)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_sums_each_node_through_its_class(self, rng, toy_table):
        packed = pack_graphs([star_kg()], toy_table)[0]
        s = rng.normal(size=(packed.num_classes, 5))
        np.testing.assert_allclose(readout_sum(Tensor(s), packed).data[0],
                                   s[node_classes_ref(star_kg())].sum(axis=0),
                                   rtol=0, atol=1e-12)


class TestFuseConcat:
    def test_direct_application(self):
        out = fuse_concat(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [1, 2, 3, 4, 3, 8])

    def test_zero_kg_zeroes_first_and_product_blocks(self, rng):
        v = rng.normal(size=4)
        out = fuse_concat(Tensor(np.zeros(4)), Tensor(v)).data
        np.testing.assert_array_equal(out[:4], np.zeros(4))
        np.testing.assert_array_equal(out[4:8], v)
        np.testing.assert_array_equal(out[8:], np.zeros(4))

    def test_default_width_is_1536(self, rng):
        out = fuse_concat(Tensor(rng.normal(size=512)), Tensor(rng.normal(size=512)))
        assert out.data.shape == (1536,)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            fuse_concat(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestAttentionFuse:
    def test_equal_norms_give_midpoint(self):
        v1, v2 = Tensor([3.0, 4.0]), Tensor([5.0, 0.0])
        fused, alpha = attention_fuse(v1, v2)
        np.testing.assert_allclose(alpha.data, [0.5, 0.5])
        np.testing.assert_allclose(fused.data, [4.0, 2.0])

    def test_analytic_log2_gap(self):
        v_kg = Tensor([1.0, 0.0])
        v_sg = Tensor([0.0, np.sqrt(1.0 + np.log(2.0))])
        _, alpha = attention_fuse(v_kg, v_sg)
        np.testing.assert_allclose(alpha.data, [1 / 3, 2 / 3], atol=1e-14)

    def test_simplex_property_sweep(self, rng):
        for _ in range(50):
            a = Tensor(rng.normal(size=6))
            b = Tensor(rng.normal(size=6))
            _, alpha = attention_fuse(a, b)
            assert np.all(alpha.data > 0) and np.all(alpha.data < 1)
            assert abs(alpha.data.sum() - 1.0) <= 1e-12

    def test_invariant_under_norm_preserving_transforms(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        _, alpha1 = attention_fuse(Tensor(a), Tensor(b))
        # permutation and sign flips preserve squared norms
        perm = rng.permutation(5)
        _, alpha2 = attention_fuse(Tensor(-a[perm]), Tensor(b[perm] * -1))
        np.testing.assert_allclose(alpha1.data, alpha2.data, atol=1e-12)

    def test_learned_scores(self, rng):
        a, b, w = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        _, alpha = attention_fuse(Tensor(a), Tensor(b), score_w=Tensor(w))
        gap = np.dot(w, b) - np.dot(w, a)
        np.testing.assert_allclose(alpha.data[1] / alpha.data[0], np.exp(gap))


class TestClassify:
    def _watched(self, cfg, w1, b1, w2, b2):
        return {"mlp.w1": Tensor(w1), "mlp.b1": Tensor(b1),
                "mlp.w2": Tensor(w2), "mlp.b2": Tensor(b2)}

    def test_zero_weights_uniform(self):
        cfg = toy_config(num_labels=4, fusion_mode="attention", hidden_dim=3,
                         mlp_hidden=3)
        watched = self._watched(cfg, np.zeros((3, 3)), np.zeros(3),
                                np.zeros((4, 3)), np.zeros(4))
        logits = classify(Tensor([1.0, 2.0, 3.0]), watched, cfg)
        np.testing.assert_array_equal(logits.data, np.zeros(4))
        np.testing.assert_allclose(T.softmax(logits).data, [0.25] * 4)

    def test_sums_to_one(self, rng):
        cfg = toy_config(num_labels=3, fusion_mode="attention", hidden_dim=4,
                         mlp_hidden=5)
        watched = self._watched(cfg, rng.normal(size=(5, 4)), rng.normal(size=5),
                                rng.normal(size=(3, 5)), rng.normal(size=3))
        probs = T.softmax(classify(Tensor(rng.normal(size=4)), watched, cfg))
        assert abs(probs.data.sum() - 1.0) <= 1e-12

    def test_hand_sized_mlp(self):
        cfg = toy_config(num_labels=2, fusion_mode="attention", hidden_dim=2,
                         mlp_hidden=2)
        w1 = np.array([[1.0, 0.0], [0.0, -1.0]])
        b1 = np.array([0.5, 0.5])
        w2 = np.array([[1.0, 1.0], [0.0, 0.0]])
        b2 = np.array([0.0, 1.0])
        watched = self._watched(cfg, w1, b1, w2, b2)
        x = np.array([2.0, 3.0])
        h = np.maximum(w1 @ x + b1, 0.0)       # [2.5, 0.0]
        logits = w2 @ h + b2                   # [2.5, 1.0]
        np.testing.assert_allclose(classify(Tensor(x), watched, cfg).data, logits)

    def test_width_mismatch(self):
        cfg = toy_config(fusion_mode="concat", hidden_dim=3, mlp_hidden=3)
        watched = self._watched(cfg, np.zeros((3, 9)), np.zeros(3),
                                np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(DimensionError):
            classify(Tensor(np.zeros(4)), watched, cfg)


def make_example(sg, kg):
    return Example("ex0", sg, kg, ["label0"])


class TestForward:
    def test_empty_graphs_use_bias_path(self, toy_table):
        cfg = toy_config(hidden_dim=4, mlp_hidden=3)
        params = init_params(cfg)
        params["mlp.b1"].value[:] = [1.0, -2.0, 0.5]
        params["mlp.b2"].value[:] = [0.2, -0.1]
        empty_s = records_graph([], [], kind="scene")
        empty_k = records_graph([], [], kind="knowledge")
        probs, diag = forward(make_example(empty_s, empty_k), params, toy_table, cfg)
        h = np.maximum(params["mlp.b1"].value, 0.0)
        logits = params["mlp.w2"].value @ h + params["mlp.b2"].value
        expected = np.exp(logits - logits.max())
        expected /= expected.sum()
        np.testing.assert_allclose(probs.data, expected, atol=1e-12)
        np.testing.assert_array_equal(diag["readout_kg"], np.zeros(4))

    def test_depth_unrolls_one_extra_application(self, toy_table):
        g = validate_graph(records_graph([GraphNode("tok0")],
                                         [GraphEdge(0, 0, "near")]))
        ex = make_example(g, records_graph([], [], kind="knowledge"))
        cfg1 = toy_config(gcn_layers=1, hidden_dim=6, graph_mode="sg_only")
        cfg2 = toy_config(gcn_layers=2, hidden_dim=6, graph_mode="sg_only")
        p2 = init_params(cfg2)
        p1 = init_params(cfg1)
        for name in p1.names():
            p1[name].value[...] = p2[name].value
        _, d1 = forward(ex, p1, toy_table, cfg1)
        # one extra nonlin(W @ .) application on the single self-loop node
        w1 = p2["sg.gcn1"].value
        expected = np.maximum(w1 @ d1["readout_sg"], 0.0)
        _, d2 = forward(ex, p2, toy_table, cfg2)
        np.testing.assert_allclose(d2["readout_sg"], expected, atol=1e-12)

    def test_identical_graphs_shared_towers_attention(self, toy_table, rng):
        g = random_graph(rng, 3)
        gk = validate_graph(records_graph(list(g.nodes), list(g.edges),
                                          kind="knowledge"))
        # same node set in the same order: reuse the scene graph on both sides
        cfg = toy_config(fusion_mode="attention", share_towers=True)
        params = init_params(cfg)
        ex = make_example(g, g)
        probs, diag = forward(ex, params, toy_table, cfg)
        np.testing.assert_allclose(diag["alpha"], [0.5, 0.5])
        np.testing.assert_allclose(diag["readout_kg"], diag["readout_sg"])

    def test_node_permutation_invariance(self, toy_table, rng):
        cfg = toy_config(gcn_layers=2)
        params = init_params(cfg)
        sg = random_graph(rng, 5)
        kg = random_graph(rng, 4, kind="knowledge")
        ex = make_example(sg, kg)
        p1, _ = forward(ex, params, toy_table, cfg)
        perm = rng.permutation(5)
        inv = np.argsort(perm)
        sg2 = records_graph([sg.nodes[i] for i in perm],
                            [GraphEdge(int(inv[e.src]), int(inv[e.dst]), e.relation)
                             for e in sg.edges], kind="scene")
        p2, _ = forward(make_example(sg2, kg), params, toy_table, cfg)
        np.testing.assert_allclose(p1.data, p2.data, atol=1e-9)

    def test_empty_graph_totality_all_modes(self, toy_table):
        empty_s = records_graph([], [], kind="scene")
        empty_k = records_graph([], [], kind="knowledge")
        ex = make_example(empty_s, empty_k)
        for fusion in ("concat", "attention", "attention_learned"):
            for gm in ("both", "sg_only", "kg_only"):
                cfg = toy_config(fusion_mode=fusion, graph_mode=gm)
                probs, _ = forward(ex, init_params(cfg), toy_table, cfg)
                assert abs(probs.data.sum() - 1.0) <= 1e-12

    def test_relation_tokens_only_act_through_encoding(self, rng):
        # two tables differing only in one relation vector: downstream layers
        # never consult the table, so towers agree once the encodings agree
        from symgraph.model import run_tower

        tokens = {f"tok{i}": rng.normal(size=6) for i in range(5)}
        tokens["self"] = rng.normal(size=6)
        t_a = table_of(6, dict(tokens))
        tokens_b = dict(tokens)
        tokens_b["tok3"] = rng.normal(size=6)  # tok3 used as a relation below
        t_b = table_of(6, tokens_b)
        # 2-cycle so the encoding that carries tok3 propagates to the readout
        g = validate_graph(records_graph(
            [GraphNode("tok0"), GraphNode("tok1")],
            [GraphEdge(0, 1, "tok3"), GraphEdge(1, 0, "tok4")]))
        cfg = toy_config(gcn_layers=1, graph_mode="sg_only",
                         nonlinearity="sigmoid")
        params = init_params(cfg)
        watched = params.tensors()
        packed_a, packed_b = pack_graphs([g], t_a)[0], pack_graphs([g], t_b)[0]
        out_a = run_tower(packed_a, "sg", watched, cfg)
        out_b = run_tower(packed_b, "sg", watched, cfg)
        assert not np.allclose(out_a.data, out_b.data)
        # the edge lists agree: only the encoder inputs carry the tables
        for field in ("dst", "src", "src_class", "weight", "class_sizes", "class_graph"):
            assert np.array_equal(getattr(packed_a, field), getattr(packed_b, field))
        # patch: table b's encoder inputs, then the identical downstream stack
        packed_a.inputs = packed_b.inputs
        np.testing.assert_allclose(run_tower(packed_a, "sg", watched, cfg).data,
                                   out_b.data)

    def test_full_model_gradient_check_toy_dims(self):
        for fusion in ("concat", "attention", "attention_learned"):
            cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5,
                              gcn_layers=2, fusion_mode=fusion)
            report = gradcheck(cfg, seed=3)
            assert report.ok, report.per_param

    def test_gradcheck_fault_injection_flags_corrupted_group(self, monkeypatch):
        # sanity check on the checker itself: a deliberately biased analytic
        # gradient must be caught, and only in the corrupted group
        def biased_backward(tape, loss):
            backward(tape, loss)
            for p in tape.params.values():
                if p.name == "mlp.w2":
                    p.grad += 0.1

        monkeypatch.setattr("symgraph.gradcheck.backward", biased_backward)
        cfg = ModelConfig(num_labels=2, embed_dim=4, hidden_dim=4, gcn_layers=1)
        report = gradcheck(cfg, seed=0)
        assert not report.ok
        assert report.per_param["mlp.w2"] > 1e-4
        clean = {k: v for k, v in report.per_param.items() if k != "mlp.w2"}
        assert all(v < 1e-4 for v in clean.values())


def star_kg():
    """1-hop expansion of seeds tok0 and tok1: tok2 and tok3 hang off tok0,
    tok4 off tok1, tok5 off both, and tok0 -> tok1 too.  In-edge lists by
    node: tok0 none (its self-loop: [0]), tok1..tok3 [0], tok4 [1], tok5
    [0, 1]."""
    facts = [("IsA", "tok0", "tok2"), ("HasA", "tok0", "tok3"), ("IsA", "tok1", "tok4"),
             ("RelatedTo", "tok0", "tok5"), ("AtLocation", "tok1", "tok5"),
             ("RelatedTo", "tok0", "tok1")]
    vocab = {f"tok{i}" for i in range(6)}
    return build_knowledge_graphs([seed_graph("tok0", "tok1")], store_of(facts),
                                  frozenset(DEFAULT_RELATIONS), vocab)[0]


def mixed_examples(rng):
    """Graphs of different sizes: an isolated node, a repeated edge (kept:
    no validation), an empty scene graph, an empty knowledge graph."""
    sg0 = records_graph(
        [GraphNode("tok0", ["tok1"]), GraphNode("tok2"), GraphNode("tok3")],
        [GraphEdge(0, 1, "near"), GraphEdge(0, 1, "near"), GraphEdge(1, 0, "tok4")])
    empty_sg = records_graph([], [], kind="scene")
    empty_kg = records_graph([], [], kind="knowledge")
    return [
        Example("a", sg0, random_graph(rng, 4, kind="knowledge"), ["label0"]),
        Example("b", empty_sg, random_graph(rng, 2, kind="knowledge"), ["label1"]),
        Example("c", random_graph(rng, 5), empty_kg, ["label0", "label1"]),
        Example("d", random_graph(rng, 1, n_edges=0), random_graph(rng, 6), ["label1"]),
    ]


class TestBatchedForward:
    def test_rows_match_dense_oracle(self, rng, toy_table):
        examples = mixed_examples(rng) + [
            Example("s", random_graph(rng, 3), star_kg(), ["label2"])]
        order = rng.permutation(len(examples))
        union = pack_batch(examples, toy_table)
        batch = Batch(take(union.kg, order), take(union.sg, order))
        examples = [examples[i] for i in order]
        assert batch.size == 5 and batch.sg.num_nodes == 3 + 0 + 5 + 1 + 3
        assert batch.kg.num_classes < batch.kg.num_nodes
        for fusion in ("concat", "attention", "attention_learned"):
            cfg = toy_config(num_labels=3, hidden_dim=5, gcn_layers=2, fusion_mode=fusion)
            params = init_params(cfg)
            weights = {p.name: p.value for p in params}
            probs, _ = forward_batch(batch, params, cfg)
            assert probs.shape == (5, 3)
            for row, ex in zip(probs.data, examples):
                ref = forward_ref(ex, weights, toy_table, cfg)
                np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)

    def test_sigmoid_head_scores_each_label_with_a_sigmoid(self, rng, toy_table):
        cfg = toy_config(num_labels=3, hidden_dim=5, loss_mode="sigmoid_bce")
        params = init_params(cfg)
        weights = {p.name: p.value for p in params}
        for ex in mixed_examples(rng):
            scores, _ = forward(ex, params, toy_table, cfg)
            ref = forward_ref(ex, weights, toy_table, cfg)
            np.testing.assert_allclose(scores.data, ref, rtol=0, atol=1e-12)
            assert abs(scores.data.sum() - 1.0) > 1e-3  # not a softmax

    def test_chunked_evaluation_matches_single_calls(self, rng, toy_table, monkeypatch):
        examples = mixed_examples(rng) * 3
        labels = ["label0", "label1", "label2"]
        cfg = toy_config(num_labels=3, hidden_dim=5, fusion_mode="attention")
        params = init_params(cfg)
        monkeypatch.setattr(evaluation, "MAX_CHUNK_NODES", 12)
        sizes = [len(examples[c]) for c in
                 evaluation.chunks([node_count(ex) for ex in examples])]
        assert len(sizes) > 1 and max(sizes) > 1 and sum(sizes) == len(examples)

        def counts(report):
            return np.array([[r.tp, r.fp, r.fn] for r in report.per_label])

        for mode in ("softmax_ce", "sigmoid_bce"):
            cfg = replace(cfg, loss_mode=mode)
            bulk = evaluation.evaluate_dataset(examples, params, toy_table, cfg, labels)
            singles = sum(counts(evaluation.evaluate_dataset(
                [ex], params, toy_table, cfg, labels)) for ex in examples)
            np.testing.assert_array_equal(counts(bulk), singles)


def node_count(ex):
    return len(ex.knowledge_graph.nodes) + len(ex.scene_graph.nodes)


FIELDS = ("inputs", "dst", "src", "src_class", "weight", "class_sizes", "class_graph",
          "class_keys")


def content(g, depth=4):
    """A union's arrays with its numberings of rows and keys taken out: the
    encoder input each in-edge reads, the class arrays, and the keys of the
    first ``depth`` layers numbered by first occurrence.  Unions of the same
    graphs give equal arrays however their rows are numbered."""
    last = g.class_keys.shape[0] - 1
    return {"edge_inputs": g.inputs[g.src], "dst": g.dst, "src_class": g.src_class,
            "weight": g.weight, "class_sizes": g.class_sizes, "class_graph": g.class_graph,
            **{f"keys{l}": first_occurrence(g.class_keys[min(l, last)].tolist())
               for l in range(depth)}}


def assert_same_content(a, b):
    assert a.num_graphs == b.num_graphs
    for field, x in content(a).items():
        y = content(b)[field]
        assert x.dtype == y.dtype and np.array_equal(x, y), field


class TestPack:
    def examples(self, rng):
        """mixed_examples plus an all-OOV node and relation, relation tokens
        ("near", "tok4") shared with other graphs of the call, and a star
        knowledge graph with merged aggregation classes."""
        oov_sg = records_graph(
            [GraphNode("qq zz", ["red"]), GraphNode("cat"), GraphNode("tok4")],
            [GraphEdge(0, 1, "zq_qz"), GraphEdge(2, 1, "near"),
             GraphEdge(1, 2, "tok4")], kind="scene")
        return mixed_examples(rng) + [
            Example("e", oov_sg, random_graph(rng, 3, kind="knowledge"), ["label0"]),
            Example("f", random_graph(rng, 2), star_kg(), ["label1"])]

    def test_one_call_equals_packing_each_example_alone(self, rng, toy_table):
        examples = self.examples(rng)
        union = pack_batch(examples, toy_table)
        for i, ex in enumerate(examples):
            got = Batch(take(union.kg, [i]), take(union.sg, [i]))
            alone = pack_batch([ex], toy_table)
            for kind in ("kg", "sg"):
                a, b = getattr(got, kind), getattr(alone, kind)
                assert a.num_graphs == b.num_graphs == 1
                assert a.num_classes == b.num_classes
                assert_same_content(a, b)

    def test_take_equals_collate_reference(self, rng, toy_table):
        # random row orders over empty graphs, the star knowledge graph with
        # merged classes, and repeated rows (two copies of one graph)
        examples = self.examples(rng)
        union = pack_batch(examples, toy_table)
        alone = [pack_batch([ex], toy_table) for ex in examples]
        orders = [rng.permutation(len(examples)), rng.integers(len(examples), size=9),
                  [5, 5], [1]]
        for rows in orders:
            got = Batch(take(union.kg, rows), take(union.sg, rows))
            want = collate([alone[i] for i in rows])
            packed = pack_batch([examples[i] for i in rows], toy_table)
            for kind in ("kg", "sg"):
                a, b, c = getattr(got, kind), getattr(want, kind), getattr(packed, kind)
                assert a.num_graphs == b.num_graphs == len(rows)
                # the reference keeps each graph's keys apart; the gathered
                # union shares them across graphs, as packing those graphs does
                assert_same_content(a, c)
                for field, x in content(a).items():
                    if not field.startswith("keys"):
                        y = content(b)[field]
                        assert x.dtype == y.dtype and np.array_equal(x, y), (kind, field)
            for fusion in ("concat", "attention", "attention_learned"):
                cfg = toy_config(num_labels=3, hidden_dim=5, gcn_layers=2,
                                 fusion_mode=fusion)
                params = init_params(cfg)
                weights = {p.name: p.value for p in params}
                probs = forward_batch(got, params, cfg)[0].data
                # fewer rows through the products may round differently
                np.testing.assert_allclose(probs, forward_batch(want, params, cfg)[0].data,
                                           rtol=0, atol=1e-12)
                for row, i in zip(probs, rows):
                    np.testing.assert_allclose(row, forward_ref(examples[i], weights,
                                                                toy_table, cfg),
                                               rtol=0, atol=1e-12)

    def test_inputs_equal_per_node_loop(self, rng, toy_table):
        # mean over in-edges of [source node input ; relation vector], or
        # [own input ; e_self] without in-edges, summed in edge order
        examples = self.examples(rng)
        graphs = [g for ex in examples for g in (ex.knowledge_graph, ex.scene_graph)]
        for g, packed in zip(graphs, pack_graphs(graphs, toy_table)):
            rows = source_rows_ref(g)
            assert packed.inputs.shape == (rows.max(initial=-1) + 1, 12)
            for row, i in zip(rows, source_nodes_ref(g)):
                pairs = ([(e.src, e.relation) for e in g.edges if e.dst == i]
                         or [(i, "self")])
                want = np.mean([np.concatenate([node_input_ref(g.nodes[s], toy_table),
                                                phrase_ref(toy_table, r)])
                                for s, r in pairs], axis=0)
                assert np.array_equal(packed.inputs[row], want)

    def test_edge_out_of_range_names_its_graph(self, toy_table):
        ok = records_graph([GraphNode("a")] * 5, [GraphEdge(4, 0, "r")])
        bad = records_graph([GraphNode("a")] * 2,
                            [GraphEdge(0, 1, "r"), GraphEdge(2, 0, "r")])
        with pytest.raises(ValidationError, match="for 2 nodes"):
            pack_graphs([ok, bad], toy_table)
        assert pack_graphs([], toy_table) == []

    def test_evaluation_packs_at_most_a_chunk_per_call(self, rng, toy_table,
                                                       monkeypatch):
        big = Example("big", random_graph(rng, 8), random_graph(rng, 8, kind="knowledge"),
                      ["label0"])
        assert node_count(big) > 12
        examples = self.examples(rng) * 2 + [big] + self.examples(rng)
        labels = ["label0", "label1", "label2"]
        cfg = toy_config(num_labels=3, hidden_dim=5, fusion_mode="attention")
        params = init_params(cfg)
        monkeypatch.setattr(evaluation, "MAX_CHUNK_NODES", 12)
        calls = []

        def recording_pack(data, table):
            calls.append([node_count(ex) for ex in data])
            return pack_batch(data, table)

        monkeypatch.setattr(evaluation, "pack_batch", recording_pack)
        args = (examples, params, toy_table, cfg)
        for run in (lambda: evaluation.evaluate_dataset(*args, labels),
                    lambda: evaluation.collect_attention(*args)):
            calls.clear()
            run()
            assert [n for c in calls for n in c] == [node_count(ex) for ex in examples]
            assert all(sum(c) <= 12 or len(c) == 1 for c in calls)
            assert max(len(c) for c in calls) > 1 and [node_count(big)] in calls


class TestAggregationClasses:
    def test_star_packs_to_expected_classes(self, toy_table):
        packed = pack_graphs([star_kg()], toy_table)[0]
        assert packed.num_nodes == 6 and packed.num_classes == 3
        np.testing.assert_array_equal(node_classes_ref(star_kg()), [0, 0, 0, 0, 1, 2])
        np.testing.assert_array_equal(packed.class_sizes, [4, 1, 1])
        np.testing.assert_array_equal(packed.class_graph, [0, 0, 0])
        # the in-edges of each class, class by class and in edge order within
        # one: tok0's self-loop, tok4's, then tok5's two.  Only the seeds are
        # read, so they are the only encoder rows, and both are in class 0
        np.testing.assert_array_equal(source_nodes_ref(star_kg()), [0, 1])
        assert packed.num_sources == 2
        np.testing.assert_array_equal(packed.dst, [0, 1, 2, 2])
        np.testing.assert_array_equal(packed.src, [0, 1, 0, 1])
        np.testing.assert_array_equal(packed.src_class, [0, 0, 0, 0])
        np.testing.assert_array_equal(packed.weight, [1.0, 1.0, 0.5, 0.5])
        # only class 0 (the seeds) is read, so an earlier layer computes one row
        np.testing.assert_array_equal(packed.read, [True, False, False])
        # the encoder still reads each source's own edges: within class 0, tok0
        # has the ``self`` relation and tok1 an (out-of-table) "relatedto"
        assert packed.inputs.shape == (2, 12)
        assert not np.array_equal(packed.inputs[0], packed.inputs[1])

    def test_layers_compute_a_row_per_class(self, rng, toy_table):
        # the last layer computes a row per class (3, each its own key); an
        # earlier one only the read classes (1, the seeds' class), which is
        # what a later layer reads
        cfg = toy_config(hidden_dim=5)
        packed = pack_graphs([star_kg()], toy_table)[0]
        assert len(set(packed.class_keys[-1].tolist())) == 3
        w = Tensor(rng.normal(size=(5, 5)))
        sources = Tensor(rng.normal(size=(2, 5)))
        one, three = packed.plan(1), packed.plan(3)
        assert one.readout is None
        assert gcn_layer(sources, one.layers[0], w, cfg).shape == (3, 5)
        first = gcn_layer(sources, three.layers[0], w, cfg)
        assert first.shape == (1, 5)
        assert gcn_layer(first, three.layers[1], w, cfg).shape == (1, 5)
        last = gcn_layer(first, three.layers[2], w, cfg)
        assert last.shape == (3, 5)
        # the read rows of a layer that computes every class; their sums have
        # equal bits, but a product over fewer rows may round differently
        full = gcn_layer(sources, one.layers[0], w, cfg)
        np.testing.assert_allclose(first.data, full.data[packed.read], rtol=1e-12, atol=1e-15)
        with pytest.raises(DimensionError, match="input rows 1"):
            gcn_layer(Tensor(np.zeros((3, 5))), three.layers[2], w, cfg)
        with pytest.raises(DimensionError, match="input rows 2"):
            gcn_layer(first, three.layers[0], w, cfg)

    def test_gradient_check_through_merged_classes(self):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=2,
                          fusion_mode="attention")
        table, ex, _ = random_toy_world(cfg, seed=3)
        kg = pack_batch([ex], table).kg
        assert kg.num_classes < kg.num_nodes
        assert kg.num_sources < kg.num_nodes  # leaves get no encoder row
        for loss_mode in ("softmax_ce", "sigmoid_bce"):
            report = gradcheck(replace(cfg, loss_mode=loss_mode), seed=3)
            assert report.ok, (loss_mode, report.per_param)

    def test_collate_never_merges_classes_across_graphs(self, rng, toy_table):
        # two copies of one graph have equal local in-edge lists: each keeps
        # its own classes, and their rows are shared, keyed alike
        ex = Example("s", random_graph(rng, 3), star_kg(), ["label0"])
        alone = pack_batch([ex], toy_table).kg
        kg = take(alone, [0, 0])
        for field in FIELDS:
            assert np.array_equal(getattr(kg, field),
                                  getattr(pack_batch([ex, ex], toy_table).kg, field)), field
        c = alone.num_classes
        assert kg.num_classes == 2 * c and kg.num_nodes == 2 * alone.num_nodes
        np.testing.assert_array_equal(kg.class_sizes, np.r_[alone.class_sizes,
                                                            alone.class_sizes])
        np.testing.assert_array_equal(kg.dst, np.r_[alone.dst, alone.dst + c])
        np.testing.assert_array_equal(kg.src, np.r_[alone.src, alone.src])
        np.testing.assert_array_equal(kg.src_class,
                                      np.r_[alone.src_class, alone.src_class + c])
        np.testing.assert_array_equal(kg.inputs, alone.inputs)
        np.testing.assert_array_equal(kg.class_graph, np.repeat([0, 1], c))
        np.testing.assert_array_equal(kg.class_keys, np.c_[alone.class_keys,
                                                           alone.class_keys])
        for layers in (1, 2, 3):
            rows = [e.n_out for e in kg.plan(layers).layers]
            assert rows == [e.n_out for e in alone.plan(layers).layers]


def in_degree_graph(rng, n, kind="scene"):
    """n nodes (none for n = 0), node 0 with 1 to 8 in-edges and the rest
    random, repeated edges kept (the graph is not validated)."""
    nodes = [GraphNode(f"tok{rng.integers(10)}") for _ in range(n)]
    edges = []
    if n:
        edges = [GraphEdge(int(rng.integers(n)), 0, "near")
                 for _ in range(int(rng.integers(1, 9)))]
        edges += [GraphEdge(int(rng.integers(n)), int(rng.integers(n)), f"tok{rng.integers(10)}")
                  for _ in range(int(rng.integers(0, 2 * n)))]
        edges += edges[-2:]  # repeats
    return records_graph(nodes, edges, kind=kind)


def plan_lists_ref(g, layers):
    """([(dst, src, weight, n_out, n_in) per layer], each class's row at the
    last layer) of a tower's plan, by loops over the classes and edges of a
    union: layer l's rows are the distinct round min(l, rounds - 1) keys of
    the read classes (of every class at the last layer) in key order, each
    summing the in-edges of the first class with its key, read from the
    encoder's rows (a row per row of ``inputs``) or the row of its source
    class's key at the layer before.  Edges are listed by row, in edge order
    within one."""
    rounds = g.class_keys.tolist()
    read = sorted(set(g.src_class.tolist()))
    in_edges = [[e for e in range(g.dst.size) if g.dst[e] == c] for c in range(g.num_classes)]
    lists = []
    for l in range(layers):
        keys = rounds[min(l, len(rounds) - 1)]
        first = {}
        for c in (range(g.num_classes) if l == layers - 1 else read):
            first.setdefault(keys[c], c)
        rows = sorted(first)
        edges = [(i, e) for i, k in enumerate(rows) for e in in_edges[first[k]]]
        if l == 0:
            src, n_in = [g.src[e] for _, e in edges], g.num_sources
        else:
            src, n_in = [prev.index(prev_keys[g.src_class[e]]) for _, e in edges], len(prev)
        lists.append((np.array([i for i, _ in edges], dtype=np.intp),
                      np.array(src, dtype=np.intp),
                      np.array([g.weight[e] for _, e in edges]), len(rows), n_in))
        prev, prev_keys = rows, keys
    return lists, [rows.index(k) for k in keys]


class TestLayerEdges:
    """A tower plan's edge lists against loops over the union, and each
    list's rounds of gathers against the bincount over (edge, column)
    slots, bit for bit, on packed and gathered unions."""

    def unions(self, rng, table):
        graphs = [in_degree_graph(rng, int(n)) for n in rng.integers(0, 7, size=6)]
        graphs += [in_degree_graph(rng, 4), records_graph([], []),
                   records_graph([GraphNode("tok1")] * 3, []), star_kg()]
        union = pack_graphs(graphs, table, [len(graphs)])[0]
        rows = rng.integers(len(graphs), size=12)
        return [union, take(union, rows), take(union, [6, 6, 9, 9])]

    def test_forward_and_backward_equal_bincount(self, rng, toy_table):
        seen = set()  # trimmed layers, rows shared by classes, a readout of shared rows
        for trial in range(5):
            for g, layers in product(self.unions(rng, toy_table), (1, 2, 3)):
                assert max(np.bincount(g.dst)) > 1
                plan = g.plan(layers)
                seen |= {"trimmed"} if layers > 1 and not g.read.all() else set()
                seen |= {"shared"} if plan.layers[-1].n_out < g.num_classes else set()
                seen |= {"read shared"} if plan.readout is not None else set()
                lists, readout = plan_lists_ref(g, layers)
                np.testing.assert_array_equal(
                    np.arange(g.num_classes) if plan.readout is None else plan.readout,
                    readout)
                for edges, ref in zip(plan.layers, lists, strict=True):
                    dst, src, weight, n_out, n_in = ref
                    assert (edges.n_out, edges.n_in) == (n_out, n_in)
                    by_row = np.argsort(edges.dst, kind="stable")
                    for x, y in zip((edges.dst, edges.src, edges.weight), (dst, src, weight)):
                        assert np.array_equal(x[by_row], y)
                    # the sums against the bincount over the list as it is stored
                    dst, src, weight = edges.dst, edges.src, edges.weight
                    x = Parameter(rng.normal(size=(n_in, 4)), "x")
                    grad_out = rng.normal(size=(n_out, 4))
                    tape = Tape()
                    out = T.scatter_add(tape.watch(x), edges, tape)
                    assert np.array_equal(out.data, scatter_add_ref(x.value, dst, src, weight,
                                                                    n_out))
                    loss = tape.record(np.sum(grad_out * out.data), [out],
                                       lambda upstream, c=grad_out: [upstream * c])
                    backward(tape, loss)
                    assert np.array_equal(x.grad, scatter_add_ref(grad_out, src, dst, weight,
                                                                  n_in))
        assert seen == {"trimmed", "shared", "read shared"}

    def test_tower_equals_every_class_at_every_layer(self, rng, toy_table):
        # trimming drops rows nothing reads; the products then have fewer
        # rows, which BLAS may round differently, so equal to rounding
        cfg = toy_config(hidden_dim=5, gcn_layers=3)
        watched = init_params(cfg).tensors()
        for g in self.unions(rng, toy_table):
            states = encode_nodes(g, watched["kg.enc"], cfg).data
            for l in range(3):
                src = g.src if l == 0 else g.src_class
                agg = scatter_add_ref(states, g.dst, src, g.weight, g.num_classes)
                states = np.maximum(agg @ watched[f"kg.gcn{l}"].data.T, 0.0)
            want = scatter_add_ref(states, g.class_graph, np.arange(g.num_classes),
                                   g.class_sizes, g.num_graphs)
            np.testing.assert_allclose(run_tower(g, "kg", watched, cfg).data, want,
                                       rtol=1e-12, atol=1e-14)

    def test_gcn_layers_build_no_slot_array(self, rng, toy_table, monkeypatch):
        # the bincount over (edge, column) slots is packing's alone
        def refuse(*args):
            raise AssertionError("a GCN layer summed by slots")

        cfg = toy_config(hidden_dim=5, gcn_layers=3)
        params = init_params(cfg)
        g = self.unions(rng, toy_table)[1]
        monkeypatch.setattr(T, "segment_mean", refuse)
        tape = Tape()
        watched = params.tensors(tape)
        states = encode_nodes(g, watched["kg.enc"], cfg, tape)
        for l, edges in enumerate(g.plan(3).layers):
            states = gcn_layer(states, edges, watched[f"kg.gcn{l}"], cfg, tape)
        loss = tape.record(np.sum(states.data), [states],
                           lambda upstream: [np.full(states.shape, upstream)])
        backward(tape, loss)
        assert params["kg.gcn0"].grad.any()


def union_keys_ref(graphs, rounds):
    """Per round, the ``class_keys_ref`` keys of every class of a union of
    ``graphs`` in order, and per class whether an in-edge of its graph
    reads it."""
    keys = [sum((class_keys_ref(g, rounds)[r] for g in graphs), []) for r in range(rounds)]
    read = np.concatenate([np.isin(np.arange(node_classes_ref(g).max(initial=-1) + 1),
                                   node_classes_ref(g)[source_nodes_ref(g)])
                           for g in graphs])
    return keys, read


def tie_then_split():
    """Two knowledge graphs whose classes of node "c" read equal messages
    (an "a" through "r") but whose "a" nodes differ as sources (one reads
    itself, the other a "z"): the classes tie at layer 0 and differ from
    layer 1 on.  "d" reads "c", so an earlier layer computes "c"'s class."""
    chain = [GraphEdge(0, 1, "tok4"), GraphEdge(1, 2, "tok4"), GraphEdge(2, 3, "tok4")]
    one = records_graph([GraphNode(f"tok{i}") for i in (0, 1, 2, 3)], chain, "knowledge")
    two = records_graph([GraphNode(f"tok{i}") for i in (9, 0, 1, 2, 3)],
                        [GraphEdge(0, 1, "tok4")] + [GraphEdge(e.src + 1, e.dst + 1, e.relation)
                                                     for e in chain], "knowledge")
    return one, two


class TestSharedRows:
    """Classes of any graphs of a union with equal keys share a row; keys
    follow the symbols of the messages, layer by layer."""

    def graphs(self, rng):
        """Repeated and overlapping graphs: the star twice, a star over the
        same seeds with other tails, two copies of a random scene graph,
        path graphs and the tie_then_split pair."""
        facts = [("IsA", "tok0", "tok2"), ("HasA", "tok0", "tok7"), ("IsA", "tok1", "tok8"),
                 ("RelatedTo", "tok0", "tok5"), ("AtLocation", "tok1", "tok5")]
        other = build_knowledge_graphs([seed_graph("tok0", "tok1")], store_of(facts),
                                       frozenset(DEFAULT_RELATIONS),
                                       {f"tok{i}" for i in range(10)})[0]
        scene = random_graph(rng, 5)
        return [star_kg(), other, scene, star_kg(), path_graph("knowledge"), scene,
                *tie_then_split(), path_graph("scene")]

    def test_rows_per_layer_are_the_distinct_keys(self, rng, toy_table):
        graphs = self.graphs(rng)
        union = pack_graphs(graphs, toy_table, [len(graphs)])[0]
        rows = [0, 3, 1, 0, 5, 2, 6, 7]
        for g, members in ((union, graphs), (take(union, rows), [graphs[i] for i in rows])):
            keys, read = union_keys_ref(members, 4)
            last = g.class_keys.shape[0] - 1
            np.testing.assert_array_equal(g.read, read)
            for l in range(4):  # the library's keys split the classes as the symbols do
                assert np.array_equal(first_occurrence(g.class_keys[min(l, last)].tolist()),
                                      first_occurrence(keys[l])), l
            for layers in (1, 2, 3, 4):
                for l, edges in enumerate(g.plan(layers).layers):
                    scope = [k for k, r in zip(keys[l], read) if r or l == layers - 1]
                    assert edges.n_out == len(set(scope)) < len(scope), (layers, l)

    def test_tied_classes_split_at_layer_one(self, toy_table):
        one, two = tie_then_split()
        g = pack_graphs([one, two], toy_table, [2])[0]
        c1, c2 = node_classes_ref(one)[2], node_classes_ref(one).max() + 1 + \
            node_classes_ref(two)[3]
        keys = g.class_keys
        assert keys.shape[0] > 1
        assert keys[0, c1] == keys[0, c2] and keys[1, c1] != keys[1, c2]
        # a 3-layer tower: one row for both classes at layer 0, two after
        plan = g.plan(3)
        assert [e.n_out for e in plan.layers] == [
            len(set(keys[0, g.read].tolist())), len(set(keys[1, g.read].tolist())),
            len(set(keys[min(2, keys.shape[0] - 1)].tolist()))]
        assert len(set(keys[0, g.read].tolist())) < len(set(keys[1, g.read].tolist()))

    def test_shared_unions_match_each_graph_alone(self, rng, toy_table):
        graphs = self.graphs(rng)
        examples = [Example(f"e{i}", sg, kg, ["label0"]) for i, (sg, kg) in
                    enumerate(zip(graphs[2:] + graphs[:2], graphs))]
        union = pack_batch(examples, toy_table)
        rows = [3, 0, 3, 5, 0, 7]
        for batch, members in ((union, examples),
                               (Batch(take(union.kg, rows), take(union.sg, rows)),
                                [examples[i] for i in rows])):
            assert batch.kg.plan(2).layers[-1].n_out < batch.kg.num_classes
            for layers, fusion in product((1, 2, 3), FUSION_MODES):
                cfg = toy_config(num_labels=3, hidden_dim=5, gcn_layers=layers,
                                 fusion_mode=fusion)
                params = init_params(cfg)
                weights = {p.name: p.value for p in params}
                probs, _ = forward_batch(batch, params, cfg)
                for row, ex in zip(probs.data, members):
                    np.testing.assert_allclose(row, forward_ref(ex, weights, toy_table, cfg),
                                               rtol=0, atol=1e-12)

    def test_a_long_chain_stops_refining_at_the_cap(self, toy_table):
        # a chain of alike nodes splits one class per round; past MAX_ROUNDS
        # every class gets a key of its own, which is exact at any depth
        n = MAX_ROUNDS + 6
        chain = validate_graph(records_graph([GraphNode("tok1")] * n,
                                             [GraphEdge(i, i + 1, "near") for i in range(n - 1)]))
        g = pack_graphs([chain], toy_table)[0]
        assert g.class_keys.shape[0] == MAX_ROUNDS + 1
        assert len(set(g.class_keys[MAX_ROUNDS - 1].tolist())) < g.num_classes
        np.testing.assert_array_equal(g.class_keys[-1], np.arange(g.num_classes))
        ex = Example("c", chain, records_graph([], [], kind="knowledge"), ["label0"])
        cfg = toy_config(gcn_layers=MAX_ROUNDS + 2, graph_mode="sg_only", nonlinearity="sigmoid")
        params = init_params(cfg)
        np.testing.assert_allclose(forward(ex, params, toy_table, cfg)[0].data,
                                   forward_ref(ex, {p.name: p.value for p in params},
                                               toy_table, cfg), rtol=0, atol=1e-12)

    def test_finite_differences_on_a_batch_of_duplicates(self, rng):
        # gradients sum over shared rows: the same loss, differentiated
        # coordinate by coordinate, at gradcheck's tolerance
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=2,
                          fusion_mode="attention")
        table, ex, labels = random_toy_world(cfg, seed=3)
        other = Example("b", random_graph(rng, 4), star_kg(), [labels[2]])
        split = pack_split([ex, other], table, labels)
        rows = [0, 1, 0, 0, 1]
        batch, targets = split.take(rows), split.targets[rows]
        assert batch.kg.plan(2).layers[-1].n_out < batch.kg.num_classes
        for loss_mode in LOSS_MODES:
            mcfg = replace(cfg, loss_mode=loss_mode)
            params = init_params(mcfg)
            tape = Tape()
            backward(tape, batch_loss(batch, targets, params, mcfg, tape))
            for p in params:
                flat = p.value.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    losses = []
                    for x in (orig + 1e-5, orig - 1e-5):
                        flat[i] = x
                        losses.append(batch_loss(batch, targets, params, mcfg).item())
                    flat[i] = orig
                    num = (losses[0] - losses[1]) / 2e-5
                    ga = p.grad.reshape(-1)[i]
                    assert abs(ga - num) / (abs(ga) + abs(num) + REL_EPS) < 1e-4, (p.name, i)


def path_graph(kind):
    """tok0 -> tok1 -> tok2: tok0 (by its self-loop) and tok1 both read tok0,
    tok2 reads tok1, so two sources and two classes."""
    nodes = [GraphNode(f"tok{i}") for i in range(3)]
    edges = [GraphEdge(0, 1, "near"), GraphEdge(1, 2, "tok4")]
    return validate_graph(records_graph(nodes, edges, kind=kind))


class TestSourceRows:
    def test_leaf_heavy_star_encodes_one_row_per_source(self, toy_table):
        # 1-hop expansion of two seeds into eight leaves
        facts = ([("IsA", "tok0", f"leaf{i}") for i in range(5)]
                 + [("HasA", "tok1", f"leaf{i}") for i in range(3, 8)])
        vocab = {f"leaf{i}" for i in range(8)}
        g = build_knowledge_graphs([seed_graph("tok0", "tok1")], store_of(facts),
                                   frozenset(DEFAULT_RELATIONS), vocab)[0]
        packed = pack_graphs([g], toy_table)[0]
        has_in = {e.dst for e in g.edges}
        read = {e.src for e in g.edges} | set(range(len(g.nodes))) - has_in
        assert packed.num_nodes == 10 and len(read) == 2
        assert packed.inputs.shape[0] == packed.num_sources == len(read) < packed.num_nodes
        np.testing.assert_array_equal(source_nodes_ref(g), sorted(read))

    def test_as_many_sources_as_classes_matches_dense_oracle(self, rng, toy_table):
        # the layer-0 states (a row per source) and the later ones (a row per
        # class) have the same row count here, so only the layer index tells
        # which index array a layer reads
        examples = [Example("p", path_graph("scene"), path_graph("knowledge"), ["label0"]),
                    Example("q", random_graph(rng, 3), path_graph("knowledge"), ["label1"])]
        batch = pack_batch(examples, toy_table)
        kg = pack_graphs([path_graph("knowledge")], toy_table)[0]
        assert kg.num_sources == kg.num_classes == 2 < kg.num_nodes
        assert not np.array_equal(kg.src, kg.src_class)
        # one layer: the readout reads tok2's class, which reads tok1's row
        for layers, fusion in product((1, 2), ("concat", "attention", "attention_learned")):
            cfg = toy_config(num_labels=3, hidden_dim=5, gcn_layers=layers,
                             fusion_mode=fusion)
            params = init_params(cfg)
            weights = {p.name: p.value for p in params}
            probs, _ = forward_batch(batch, params, cfg)
            for row, ex in zip(probs.data, examples):
                ref = forward_ref(ex, weights, toy_table, cfg)
                np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)

    def test_chunk_union_equals_collated_examples(self, rng, toy_table):
        # the same arrays but for the rows and keys the union shares across
        # graphs, which the reference keeps apart
        examples = TestPack().examples(rng)
        union = pack_batch(examples, toy_table)
        collated = collate([pack_batch([ex], toy_table) for ex in examples])
        for kind in ("kg", "sg"):
            a, b = getattr(union, kind), getattr(collated, kind)
            assert a.num_graphs == b.num_graphs == len(examples)
            for field, x in content(a).items():
                if not field.startswith("keys"):
                    assert np.array_equal(x, content(b)[field]), field
        cfg = toy_config(num_labels=3, hidden_dim=5, gcn_layers=2, fusion_mode="attention")
        params = init_params(cfg)
        # fewer rows through the products may round differently
        np.testing.assert_allclose(forward_batch(union, params, cfg)[0].data,
                                   forward_batch(collated, params, cfg)[0].data,
                                   rtol=0, atol=1e-12)


class TestParamCount:
    def test_hand_counted_80(self):
        cfg = ModelConfig(num_labels=2, embed_dim=2, hidden_dim=3, gcn_layers=1,
                          mlp_hidden=3)
        assert param_count(cfg) == 80

    def test_attention_shrinks_by_18(self):
        concat = ModelConfig(num_labels=2, embed_dim=2, hidden_dim=3,
                             gcn_layers=1, mlp_hidden=3)
        attn = ModelConfig(num_labels=2, embed_dim=2, hidden_dim=3,
                           gcn_layers=1, mlp_hidden=3, fusion_mode="attention")
        assert param_count(concat) - param_count(attn) == 18

    def test_doubling_labels(self):
        base = dict(embed_dim=2, hidden_dim=3, gcn_layers=1, mlp_hidden=3)
        c4 = ModelConfig(num_labels=4, **base)
        c8 = ModelConfig(num_labels=8, **base)
        assert param_count(c8) - param_count(c4) == (3 + 1) * 4

    def test_matches_scalars_changed_by_all_ones_step(self):
        from symgraph.tensor import sgd_step

        cfg = ModelConfig(num_labels=3, embed_dim=3, hidden_dim=4, gcn_layers=2,
                          fusion_mode="attention_learned")
        params = init_params(cfg)
        before = {p.name: p.value.copy() for p in params}
        for p in params:
            p.grad = np.ones_like(p.value)
        sgd_step(params, 0.01)
        changed = sum(int(np.sum(before[p.name] != p.value)) for p in params)
        assert changed == param_count(cfg)

    def test_both_mode_exceeds_single_mode(self):
        both = ModelConfig(num_labels=2, embed_dim=3, hidden_dim=4, gcn_layers=1)
        single = ModelConfig(num_labels=2, embed_dim=3, hidden_dim=4,
                             gcn_layers=1, graph_mode="sg_only")
        assert param_count(both) > param_count(single)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_labels=1)
        with pytest.raises(ConfigError):
            ModelConfig(num_labels=2, gcn_layers=0)
        with pytest.raises(ConfigError):
            ModelConfig(num_labels=2, fusion_mode="bogus")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=2,
                          fusion_mode="attention")
        params = init_params(cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        for p in params:
            assert np.array_equal(params2[p.name].value, p.value)

    @pytest.mark.parametrize("build", ["init_params", "load_checkpoint", "copy"])
    def test_parameters_are_built_without_a_gradient(self, tmp_path, build):
        # a gradient is allocated by the first backward, never beforehand:
        # eval and ablate load checkpoints and run no backward at all
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=2)
        params = init_params(cfg)
        if build == "load_checkpoint":
            save_checkpoint(tmp_path / "ckpt.npz", cfg, params)
            params = load_checkpoint(tmp_path / "ckpt.npz")[1]
        elif build == "copy":
            params = params.copy()
        assert len(params) > 0 and all(p.grad is None for p in params)

    def test_output_head_recorded(self, tmp_path):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=1,
                          loss_mode="sigmoid_bce")
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, init_params(cfg))
        assert load_checkpoint(path)[0].loss_mode == "sigmoid_bce"
        save_checkpoint(path, replace(cfg, loss_mode="softmax_ce"), init_params(cfg))
        assert load_checkpoint(path)[0].loss_mode == "softmax_ce"

    def test_head_is_stored_beside_the_config(self, tmp_path):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=1,
                          loss_mode="sigmoid_bce")
        params = init_params(cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, params, ["a", "b", "c"])
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        assert set(meta) == {"version", "config", "loss_mode", "labels"}
        assert "loss_mode" not in meta["config"]
        assert meta["loss_mode"] == "sigmoid_bce"
        assert meta["labels"] == ["a", "b", "c"]
        save_checkpoint(path, cfg, params)  # no label list: none pinned
        with np.load(path) as data:
            assert "labels" not in json.loads(bytes(data["__meta__"]).decode("utf-8"))
        # a file written in that layout by hand loads with its head
        fields = {k: v for k, v in asdict(cfg).items() if k != "loss_mode"}
        meta = json.dumps({"version": 2, "config": fields, "loss_mode": "sigmoid_bce"})
        np.savez(tmp_path / "hand.npz",
                 __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
                 **{f"param/{p.name}": p.value for p in params})
        cfg2, params2 = load_checkpoint(tmp_path / "hand.npz")
        assert cfg2 == cfg
        for p in params:
            assert np.array_equal(params2[p.name].value, p.value)

    @pytest.mark.parametrize("given,position", [
        (["c", "b", "a"], "label 0 is 'a' in the checkpoint but 'c'"),
        (["a", "b", "z"], "label 2 is 'c' in the checkpoint but 'z'"),
        (["a", "b"], "label 2 is 'c' in the checkpoint but missing"),
    ], ids=["reversed", "renamed", "dropped"])
    def test_pinned_labels_checked(self, tmp_path, given, position):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, init_params(cfg), ["a", "b", "c"])
        assert load_checkpoint(path, labels=("a", "b", "c"))[0] == cfg
        assert load_checkpoint(path)[0] == cfg  # no list given: nothing to compare
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {position}"):
            load_checkpoint(path, labels=given)
        # a checkpoint that pins no list loads against any
        save_checkpoint(path, cfg, init_params(cfg))
        assert load_checkpoint(path, labels=given)[0] == cfg

    @pytest.mark.parametrize("labels", ["abc", ["a", "b"], ["a", "b", 3]],
                             ids=["string", "short", "int_label"])
    def test_malformed_pinned_labels_refused(self, tmp_path, labels):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=1)
        path = tmp_path / "ckpt.npz"
        _rewrite_meta(path, cfg, init_params(cfg), labels=labels)
        with pytest.raises(ConfigError, match="checkpoint labels must be a list of 3 strings"):
            load_checkpoint(path)

    def test_pinned_table_checked(self, tmp_path):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, init_params(cfg), table_sha256="a" * 64)
        check_table(path, "a" * 64)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: the embedding "
                                              "table differs"):
            check_table(path, "b" * 64)
        assert load_checkpoint(path)[0] == cfg  # loading alone computes and checks nothing
        save_checkpoint(path, cfg, init_params(cfg))  # no digest: none pinned
        check_table(path, "b" * 64)
        _rewrite_meta(path, cfg, init_params(cfg), table_sha256=["a" * 64])
        with pytest.raises(ConfigError, match="table_sha256 must be a string"):
            check_table(path, "a" * 64)

    def test_non_finite_weight_refused(self, tmp_path):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=1)
        params = init_params(cfg)
        params["kg.gcn0"].value[1, 2] = np.nan
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, cfg, params)
        with pytest.raises(ConfigError, match="kg.gcn0"):
            load_checkpoint(path)


def _rewrite_meta(path, cfg, params, **meta):
    """Save a checkpoint whose metadata has the given keys replaced."""
    save_checkpoint(path, cfg, params)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    fields = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    arrays["__meta__"] = np.frombuffer(json.dumps({**fields, **meta}).encode("utf-8"),
                                       dtype=np.uint8)
    np.savez(path, **arrays)

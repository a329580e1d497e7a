import platform
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import records_graph, table_of
from symgraph import dataset, evaluation, model, synth, training
from symgraph import tensor as T
from symgraph.embeddings import load_embeddings
from symgraph.errors import ConfigError, DomainError, TrainingError
from symgraph.gradcheck import REL_EPS, random_toy_world
from symgraph.graphs import GraphEdge, GraphNode, validate_graph
from symgraph.model import ModelConfig, init_params
from symgraph.rng import child_rng
from symgraph.tensor import Tape, Tensor, backward
from symgraph.training import (Example, RunLog, EpochRecord, TrainConfig, batch_loss,
                               pack_split, target_vector, train, train_epoch)

LABELS = ["alpha", "beta"]


def make_table(rng, dim=8):
    tokens = ["self", "near"]
    for lab in range(2):
        tokens += [f"obj{lab}a", f"obj{lab}b", f"rel{lab}"]
    return table_of(dim, {t: rng.normal(size=dim) for t in tokens})


def make_example(label_idx, i):
    # planted signal on a 2-cycle so it survives in-neighbor aggregation
    sg = validate_graph(records_graph(
        [GraphNode(f"obj{label_idx}a"), GraphNode(f"obj{label_idx}b")],
        [GraphEdge(0, 1, f"rel{label_idx}"), GraphEdge(1, 0, f"rel{label_idx}")],
        kind="scene"))
    kg = records_graph([], [], kind="knowledge")
    return Example(f"img{label_idx}_{i}", sg, kg, [LABELS[label_idx]])


def make_dataset(n_per_label):
    data = [make_example(lab, i) for lab in range(2) for i in range(n_per_label)]
    return data


def small_config(**kw):
    base = dict(num_labels=2, embed_dim=8, hidden_dim=16, gcn_layers=1)
    base.update(kw)
    return ModelConfig(**base)


class TestTargetVector:
    def test_single_label(self):
        np.testing.assert_array_equal(target_vector(["beta"], LABELS), [0.0, 1.0])

    def test_two_labels_split_mass(self):
        np.testing.assert_array_equal(
            target_vector(["alpha", "beta"], LABELS), [0.5, 0.5])

    def test_duplicates_collapse(self):
        np.testing.assert_array_equal(
            target_vector(["alpha", "alpha"], LABELS), [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            target_vector([], LABELS)

    def test_unknown_label_rejected(self):
        with pytest.raises(DomainError, match="gamma"):
            target_vector(["gamma"], LABELS)


class TestLoss:
    """Soft-target cross-entropy of the softmax head, from its logits."""

    def test_uniform_over_four(self):
        out = T.softmax_cross_entropy(Tensor(np.zeros(4)),
                                      target_vector(["c"], ["a", "b", "c", "d"]))
        assert out.item() == pytest.approx(np.log(4.0), abs=1e-9)

    def test_confident_correct_is_near_zero(self):
        out = T.softmax_cross_entropy(Tensor([40.0, 0.0]), target_vector(["alpha"], LABELS))
        assert out.item() == pytest.approx(0.0, abs=1e-8)

    def test_soft_target_two_labels(self):
        out = T.softmax_cross_entropy(Tensor([0.0, 0.0]),
                                      target_vector(["alpha", "beta"], LABELS))
        assert out.item() == pytest.approx(np.log(2.0), abs=1e-9)

    def test_higher_mass_on_target_lowers_loss(self):
        t = target_vector(["alpha"], LABELS)
        low = T.softmax_cross_entropy(Tensor(np.log([0.9, 0.1])), t).item()
        high = T.softmax_cross_entropy(Tensor(np.log([0.2, 0.8])), t).item()
        assert low == pytest.approx(-np.log(0.9)) and high == pytest.approx(-np.log(0.2))


class TestBceLoss:
    """Per-label binary cross-entropy of the sigmoid head, from its logits."""

    def test_zero_logits(self):
        # sigmoid(0)=0.5 on both labels: -log(.5) - log(.5) = 2 ln 2
        out = T.sigmoid_cross_entropy(Tensor([0.0, 0.0]), target_vector(["alpha"], LABELS))
        assert out.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-9)

    def test_strong_correct_logits_near_zero(self):
        out = T.sigmoid_cross_entropy(Tensor([20.0, -20.0]),
                                      target_vector(["alpha"], LABELS))
        assert out.item() == pytest.approx(0.0, abs=1e-6)


class TestTapeLength:
    """One ``batch_loss`` at 2 GCN layers: 9 steps per tower (encoder and
    its nonlinearity, 3 per layer, the readout), one for the fusion, 3 in
    the head (two biased products and a nonlinearity) and the loss.
    Spreading a fusion, a bias or a readout over many ops again fails
    here."""

    @pytest.mark.parametrize("fusion,steps", [("concat", 23), ("attention", 23),
                                              ("attention_learned", 23)])
    def test_steps_per_batch_loss(self, fusion, steps):
        mcfg = ModelConfig(num_labels=4, embed_dim=6, hidden_dim=8, gcn_layers=2,
                           fusion_mode=fusion)
        table, ex, labels = random_toy_world(mcfg, seed=0)
        tape = Tape()
        split = pack_split([ex], table, labels)
        batch_loss(split.take([0]), split.targets[[0]], init_params(mcfg), mcfg, tape)
        assert len(tape.steps) == steps


class TestTrainEpoch:
    def test_batch_of_copies_matches_single_example_step(self, rng):
        table = make_table(rng)
        mcfg = small_config()
        ex = make_example(0, 0)

        params_a = init_params(mcfg)
        params_b = params_a.copy()
        tc_batch = TrainConfig(epochs=1, batch_size=4, lr=0.05, shuffle=False)
        tc_single = TrainConfig(epochs=1, batch_size=1, lr=0.05, shuffle=False)
        shuffle_rng = child_rng(0, "shuffle")
        train_epoch(pack_split([ex] * 4, table, LABELS), params_a, mcfg, tc_batch,
                    shuffle_rng)
        train_epoch(pack_split([ex], table, LABELS), params_b, mcfg, tc_single,
                    shuffle_rng)
        for p in params_a:
            np.testing.assert_allclose(p.value, params_b[p.name].value,
                                       atol=1e-12)

    def test_same_seed_same_result(self, rng):
        table = make_table(rng)
        mcfg = small_config()
        data = make_dataset(4)
        tc = TrainConfig(epochs=1, batch_size=3, lr=0.01)
        results = []
        for _ in range(2):
            params = init_params(mcfg)
            train_epoch(pack_split(data, table, LABELS), params, mcfg, tc,
                        child_rng(7, "shuffle"))
            results.append({p.name: p.value.copy() for p in params})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    def test_returns_mean_loss(self, rng):
        table = make_table(rng)
        mcfg = small_config()
        data = make_dataset(2)
        tc = TrainConfig(epochs=1, batch_size=2, lr=1e-4, shuffle=False)
        out = train_epoch(pack_split(data, table, LABELS), init_params(mcfg), mcfg, tc,
                          child_rng(0, "shuffle"))
        assert np.isfinite(out) and out > 0.0

    def test_empty_data_rejected(self, rng):
        table = make_table(rng)
        mcfg = small_config()
        tc = TrainConfig(epochs=1)
        with pytest.raises(ConfigError):
            train_epoch(pack_split([], table, LABELS), init_params(mcfg), mcfg, tc,
                        child_rng(0, "shuffle"))

    def test_non_finite_batch_names_its_examples(self, rng):
        # head weights scaled to overflow make the logits infinite (numpy warns
        # of the overflow in the matmul); the error names the examples of the
        # failing batch and keeps the tensor message
        table = make_table(rng)
        split = pack_split(make_dataset(2), table, LABELS)
        tc = TrainConfig(epochs=1, batch_size=2, shuffle=False)
        for mode in ("softmax_ce", "sigmoid_bce"):
            mcfg = small_config(loss_mode=mode)
            params = init_params(mcfg)
            for name in ("mlp.w1", "mlp.w2"):
                params[name].value *= 1e200
            with np.errstate(over="ignore"), pytest.raises(
                    TrainingError, match=r"\['img0_0', 'img0_1'\]: .*non-finite"):
                train_epoch(split, params, mcfg, tc, child_rng(0, "shuffle"))


class TestSaturatedHead:
    @pytest.mark.parametrize("mode,bias,want_loss", [("softmax_ce", [0.0, 800.0], 800.0),
                                                     ("sigmoid_bce", [-800.0, 800.0], 1600.0)])
    def test_logit_gradient_is_p_minus_t_at_gap_800(self, rng, mode, bias, want_loss):
        # the true label trails by a logit gap of 800; with mlp.w2 zero the
        # logits are mlp.b2, so its gradient is the gradient with respect to
        # the logits.  Through a separate head and log(p + 1e-12) it was 0.
        table = make_table(rng)
        mcfg = small_config(loss_mode=mode)
        params = init_params(mcfg)
        params["mlp.w2"].value[...] = 0.0
        params["mlp.b2"].value[...] = bias
        split = pack_split([make_example(0, 0)], table, LABELS)  # label alpha
        tape = Tape()
        lt = batch_loss(split.take([0]), split.targets[[0]], params, mcfg, tape)
        backward(tape, lt)
        p, t = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        np.testing.assert_allclose(params["mlp.b2"].grad, p - t, rtol=0, atol=1e-12)
        # 800 per wrong logit, where each capped at -log(1e-12) = 27.63
        assert lt.item() == want_loss


class TestTrain:
    def test_loss_decreases_on_planted_signal(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=1)
        data = make_dataset(8)
        val = make_dataset(3)
        tc = TrainConfig(epochs=6, batch_size=4, lr=0.05, seed=1)
        _, log, _, _ = train(data, val, LABELS, table, mcfg, tc)
        assert len(log.records) == 6
        assert log.records[-1].train_loss < log.records[0].train_loss

    def test_same_seed_runs_are_identical(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=3)
        data = make_dataset(4)
        val = make_dataset(2)
        tc = TrainConfig(epochs=3, batch_size=4, lr=0.02, seed=3)
        outs = []
        for _ in range(2):
            params, log, _, _ = train(data, val, LABELS, table, mcfg, tc)
            outs.append((log, {p.name: p.value.copy() for p in params}))
        log_a, vals_a = outs[0]
        log_b, vals_b = outs[1]
        for ra, rb in zip(log_a.records, log_b.records):
            # seconds is wall-clock and excluded from the comparison
            assert ra.train_loss == rb.train_loss
            assert ra.val_macro_f == rb.val_macro_f
        for name in vals_a:
            assert np.array_equal(vals_a[name], vals_b[name])

    def test_zero_epochs(self, rng):
        table = make_table(rng)
        mcfg = small_config()
        data = make_dataset(2)
        params, log, best, best_epoch = train(data, data, LABELS, table, mcfg,
                                              TrainConfig(epochs=0))
        assert log.records == [] and best_epoch == -1
        for p in params:
            assert np.array_equal(p.value, best[p.name].value)
            assert best[p.name].value is not p.value  # a copy

    def test_best_params_are_those_of_the_best_epoch(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=5)
        data, val = make_dataset(6), make_dataset(3)
        tc = TrainConfig(epochs=5, batch_size=4, lr=0.05, seed=5)
        _, _, best, best_epoch = train(data, val, LABELS, table, mcfg, tc)
        until_best, _, _, _ = train(data, val, LABELS, table, mcfg,
                                    replace(tc, epochs=best_epoch + 1))
        for p in until_best:
            assert np.array_equal(p.value, best[p.name].value), p.name

    def test_best_epoch_has_max_val_f(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=5)
        data = make_dataset(6)
        val = make_dataset(3)
        tc = TrainConfig(epochs=5, batch_size=4, lr=0.05, seed=5)
        _, log, _, best_epoch = train(data, val, LABELS, table, mcfg, tc)
        fs = [r.val_macro_f for r in log.records]
        assert fs[best_epoch] == max(fs)

    def test_empty_split_rejected(self, rng):
        table = make_table(rng)
        with pytest.raises(ConfigError):
            train([], make_dataset(1), LABELS, table, small_config(),
                  TrainConfig(epochs=1))

    def test_packing_does_not_depend_on_epochs(self, rng, monkeypatch):
        # both splits are packed once per run; validation forwards the same
        # packed chunks every epoch
        table = make_table(rng)
        mcfg = small_config()
        data, val = make_dataset(4), make_dataset(2)
        packs, scored = [], []
        pack_graphs, forward_batch = model.pack_graphs, evaluation.forward_batch

        def counting_pack(*args, **kw):
            packs.append(1)
            return pack_graphs(*args, **kw)

        def recording_forward(batch, *args, **kw):
            scored.append(batch)
            return forward_batch(batch, *args, **kw)

        monkeypatch.setattr(model, "pack_graphs", counting_pack)
        monkeypatch.setattr(evaluation, "forward_batch", recording_forward)
        counts = []
        for epochs in (1, 3):
            packs.clear()
            scored.clear()
            train(data, val, LABELS, table, mcfg, TrainConfig(epochs=epochs, batch_size=3))
            counts.append(len(packs))
        assert counts[0] == counts[1] > 0
        per_epoch = len(scored) // 3
        assert per_epoch and all(a is b for a, b in zip(scored, scored[per_epoch:]))

    def test_bce_mode_runs(self, rng):
        table = make_table(rng)
        mcfg = small_config(loss_mode="sigmoid_bce")
        data = make_dataset(3)
        tc = TrainConfig(epochs=2, batch_size=4, lr=0.02)
        _, log, _, _ = train(data, data, LABELS, table, mcfg, tc)
        assert all(np.isfinite(r.train_loss) for r in log.records)


class TestAllocator:
    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the allocator setting needs glibc's mallopt")
    def test_second_run_reuses_freed_heap(self, tmp_path):
        # glibc gave each batch's freed tape back to the kernel, so every
        # batch faulted its pages in again: thousands of minor faults per call
        import resource  # POSIX only, like the setting

        paths = synth.generate(synth.SynthSpec(), tmp_path)
        examples, labels = dataset.prepare(paths["scene_dir"], paths["facts"],
                                           paths["vocab"], paths["labels"])
        table = load_embeddings(paths["embeddings"], dim=16)
        mcfg = ModelConfig(num_labels=2, embed_dim=16, hidden_dim=128, gcn_layers=2,
                           fusion_mode="attention")
        tc = TrainConfig(epochs=2, batch_size=32)
        args = (examples[:120], examples[120:160], labels, table, mcfg, tc)
        train(*args)  # warm-up: the first call sets the allocator
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(*args)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50

    @pytest.mark.parametrize("platform_name,libc", [
        ("linux", SimpleNamespace()),  # a C library without mallopt
        ("darwin", None),  # not loaded at all
    ], ids=["no_mallopt", "not_linux"])
    def test_no_mallopt_is_a_no_op(self, monkeypatch, platform_name, libc):
        opened = []
        monkeypatch.setattr(training.sys, "platform", platform_name)
        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: opened.append(name) or libc)
        training.keep_freed_heap.__wrapped__()  # the setting itself, not its cached call
        assert opened == ([None] if libc is not None else [])


class TestConfigAndLog:
    def test_invalid_train_configs(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, lr=0.0)
        for lr in (float("nan"), float("inf")):  # nan passed the lr <= 0 check
            with pytest.raises(ConfigError, match="lr"):
                TrainConfig(epochs=1, lr=lr)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):  # the output head is part of the model
            ModelConfig(num_labels=2, loss_mode="hinge")

    def test_runlog_csv_layout(self):
        log = RunLog([EpochRecord(0, 0.6931, 50.0, 1.2345),
                      EpochRecord(1, 0.5, 75.0, 0.9)])
        lines = log.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,val_macro_f,seconds"
        assert lines[1] == "0,0.6931,50,1.234"
        assert lines[2].startswith("1,0.5,75,")


class TestGradientPasses:
    """A step's gradients are adopted from the backward pass, scaled once by
    ``lr / batch`` and dropped after the update."""

    def _world(self, **kw):
        cfg = ModelConfig(num_labels=3, embed_dim=4, hidden_dim=5, gcn_layers=2,
                          fusion_mode="attention_learned", **kw)
        table, ex, labels = random_toy_world(cfg, seed=3)
        split = pack_split([ex, ex], table, labels)
        return cfg, split.take([0, 1]), split.targets[[0, 1]]

    def test_shared_towers_match_finite_differences(self):
        # the one config where a parameter gets two contributions, summed
        # before the parameter adopts them
        cfg, batch, targets = self._world(share_towers=True)
        assert "shared.gcn1" in init_params(cfg)
        for loss_mode in model.LOSS_MODES:
            mcfg = replace(cfg, loss_mode=loss_mode)
            summed, adopted = init_params(mcfg), init_params(mcfg)
            for p in summed:
                p.grad = np.zeros_like(p.value)
            for params in (summed, adopted):
                tape = Tape()
                backward(tape, batch_loss(batch, targets, params, mcfg, tape))
            for p in adopted:  # adopted, bit for bit the sum into zeros
                assert p.grad is not None
                assert np.array_equal(p.grad, summed[p.name].grad), p.name
                flat = p.value.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    losses = []
                    for x in (orig + 1e-5, orig - 1e-5):
                        flat[i] = x
                        losses.append(batch_loss(batch, targets, adopted, mcfg).item())
                    flat[i] = orig
                    num = (losses[0] - losses[1]) / 2e-5
                    ga = p.grad.reshape(-1)[i]
                    assert abs(ga - num) / (abs(ga) + abs(num) + REL_EPS) < 1e-4, (p.name, i)

    @pytest.mark.parametrize("share", [False, True])
    def test_adopted_gradients_share_no_memory(self, share):
        cfg, batch, targets = self._world(share_towers=share)
        params = init_params(cfg)
        for _ in range(2):  # each backward finds no gradient, so it adopts
            tape = Tape()
            backward(tape, batch_loss(batch, targets, params, cfg, tape))
            assert all(p.grad is not None for p in params)
            T.sgd_step(params, 0.1)
            assert all(p.grad is None for p in params)
        tape = Tape()
        backward(tape, batch_loss(batch, targets, params, cfg, tape))
        for p in params:
            assert p.grad.shape == p.value.shape and p.grad.flags.writeable
            for q in params:
                assert not np.shares_memory(p.grad, q.value), (p.name, q.name)
                if q is not p:
                    assert not np.shares_memory(p.grad, q.grad), (p.name, q.name)

    def test_a_copy_holds_no_gradient_until_a_backward(self):
        # ``train`` copies the parameters at every validation improvement: a
        # copy allocates no gradient, and its first backward adopts one that
        # a second replay adds into
        cfg, batch, targets = self._world()
        params = init_params(cfg)
        copy = params.copy()
        assert all(p.grad is None for p in copy)
        assert all(p.value is not params[p.name].value for p in copy)
        grads = []
        for _ in range(2):  # one forward, replayed twice
            tape = Tape()
            loss = batch_loss(batch, targets, copy, cfg, tape)
            for _ in range(2):
                backward(tape, loss)
                grads.append({p.name: p.grad.copy() for p in copy})
            T.sgd_step(copy, 0.0)  # sets the gradients back to None
        assert all(p.grad is None for p in copy)
        once, twice = grads[:2]
        for name, g in once.items():
            assert np.array_equal(twice[name], 2.0 * g), name
            assert np.array_equal(grads[2][name], g), name

    def test_training_a_copy_equals_training_the_original(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=2, fusion_mode="attention")
        data, val = make_dataset(5), make_dataset(2)
        tc = TrainConfig(epochs=3, batch_size=4, lr=0.05, seed=2)
        params = init_params(mcfg)
        runs = [train(data, val, LABELS, table, mcfg, tc, params=p)
                for p in (params.copy(), params)]
        (final_a, log_a, best_a, epoch_a), (final_b, log_b, best_b, epoch_b) = runs
        assert epoch_a == epoch_b
        assert [(r.train_loss, r.val_macro_f) for r in log_a.records] == \
            [(r.train_loss, r.val_macro_f) for r in log_b.records]
        for p in final_a:
            assert np.array_equal(p.value, final_b[p.name].value), p.name
            assert np.array_equal(best_a[p.name].value, best_b[p.name].value), p.name

    def test_batch_of_three_moves_each_parameter_by_lr_over_three_times_g(self, rng):
        table = make_table(rng)
        mcfg = small_config(fusion_mode="attention_learned")
        split = pack_split([make_example(0, 0), make_example(1, 0), make_example(0, 1)],
                           table, LABELS)
        params = init_params(mcfg)
        probe = params.copy()
        tape = Tape()
        backward(tape, batch_loss(split.take([0, 1, 2]), split.targets, probe, mcfg, tape))
        lr = 0.05
        tc = TrainConfig(epochs=1, batch_size=3, lr=lr, shuffle=False)
        train_epoch(split, params, mcfg, tc, child_rng(0, "shuffle"))
        assert probe["sg.enc"].grad.any() and probe["mlp.w1"].grad.any()
        for p in params:
            g = probe[p.name].grad
            assert np.array_equal(p.value, probe[p.name].value - (lr / 3) * g), p.name

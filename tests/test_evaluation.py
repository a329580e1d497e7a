import numpy as np
import pytest

from symgraph.errors import ConfigError, DomainError
from symgraph.evaluation import (MetricsReport, ThresholdPolicy, ablate, ablation_csv,
                                 collect_attention, evaluate_dataset, f_scores,
                                 predict_labels)
from symgraph.model import ModelConfig, init_params, param_count
from symgraph.training import TrainConfig, train

from test_training import LABELS, make_dataset, make_table, small_config

FOUR = ["a", "b", "c", "d"]


class TestPredictLabels:
    def test_uniform_prior_strictly_above(self):
        probs = [0.4, 0.3, 0.2, 0.1]
        got = predict_labels(probs, ThresholdPolicy(), FOUR)
        assert got == {"a", "b"}

    def test_exactly_uniform_predicts_nothing(self):
        got = predict_labels([0.25] * 4, ThresholdPolicy(), FOUR)
        assert got == set()

    def test_sigmoid_head_cuts_each_label_at_one_half(self):
        # a per-label sigmoid was cut at 1/C, which is no prior for it
        three = FOUR[:3]
        assert predict_labels([0.4, 0.4, 0.4], ThresholdPolicy(), three,
                              "sigmoid_bce") == set()
        assert predict_labels([0.4, 0.6, 0.5], ThresholdPolicy(), three,
                              "sigmoid_bce") == {"b"}
        assert predict_labels([0.4, 0.4, 0.2], ThresholdPolicy(), three,
                              "softmax_ce") == {"a", "b"}
        assert predict_labels([0.4, 0.6, 0.5], ThresholdPolicy("fixed", tau=0.3),
                              three, "sigmoid_bce") == set(three)

    def test_top_k(self):
        probs = [0.1, 0.5, 0.15, 0.25]
        assert predict_labels(probs, ThresholdPolicy("top_k", k=2), FOUR) == \
            {"b", "d"}

    def test_top_k_tie_is_stable(self):
        got = predict_labels([0.3, 0.3, 0.3, 0.1],
                             ThresholdPolicy("top_k", k=2), FOUR)
        assert got == {"a", "b"}

    def test_fixed_tau(self):
        probs = [0.7, 0.2, 0.05, 0.05]
        assert predict_labels(probs, ThresholdPolicy("fixed", tau=0.5), FOUR) == \
            {"a"}

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            predict_labels([0.5, 0.5], ThresholdPolicy(), FOUR)

    @pytest.mark.parametrize("kwargs", [dict(kind="top-k"), dict(kind="top_k", k=0),
                                        dict(kind="top_k", k=-1),
                                        dict(kind="fixed", tau=float("nan")),
                                        dict(kind="fixed", tau=float("inf"))])
    def test_bad_policy_refused(self, kwargs):
        # k = -1 predicted all labels but one; k = 0 and tau = nan no label
        with pytest.raises(ConfigError):
            ThresholdPolicy(**kwargs)


class TestFScores:
    def test_perfect_predictions(self):
        truth = [{"a"}, {"b"}, {"a", "c"}]
        report = f_scores(truth, truth, FOUR)
        assert report.macro_f == pytest.approx(75.0)  # label d has no mass
        assert report.micro_f == pytest.approx(100.0)
        for row in report.per_label[:3]:
            assert row.f_score == pytest.approx(100.0)

    def test_fully_disjoint_is_zero(self):
        report = f_scores([{"a"}, {"a"}], [{"b"}, {"b"}], FOUR)
        assert report.macro_f == 0.0 and report.micro_f == 0.0

    def test_hand_counts_give_fifty(self):
        # label a: tp=1, fp=1, fn=1 -> F = 2/(2+1+1) = 50
        preds = [{"a"}, {"a"}, set()]
        truth = [{"a"}, set(), {"a"}]
        report = f_scores(preds, truth, ["a"])
        row = report.per_label[0]
        assert (row.tp, row.fp, row.fn) == (1, 1, 1)
        assert row.f_score == pytest.approx(50.0)

    def test_example_order_invariance(self, rng):
        preds = [set(np.array(FOUR)[rng.random(4) > 0.5]) for _ in range(12)]
        truth = [set(np.array(FOUR)[rng.random(4) > 0.5]) for _ in range(12)]
        a = f_scores(preds, truth, FOUR)
        perm = rng.permutation(12)
        b = f_scores([preds[i] for i in perm], [truth[i] for i in perm], FOUR)
        assert a.macro_f == b.macro_f and a.micro_f == b.micro_f

    def test_macro_is_mean_of_per_label(self, rng):
        preds = [set(np.array(FOUR)[rng.random(4) > 0.4]) for _ in range(10)]
        truth = [set(np.array(FOUR)[rng.random(4) > 0.4]) for _ in range(10)]
        report = f_scores(preds, truth, FOUR)
        assert report.macro_f == pytest.approx(
            np.mean([r.f_score for r in report.per_label]))

    def test_extra_true_positive_never_hurts(self, rng):
        # flipping one false negative into a true positive cannot lower F
        preds = [{"a"}, set(), set()]
        truth = [{"a"}, {"a"}, set()]
        before = f_scores(preds, truth, ["a"]).macro_f
        after = f_scores([{"a"}, {"a"}, set()], truth, ["a"]).macro_f
        assert after >= before

    def test_label_outside_list_rejected(self):
        with pytest.raises(DomainError, match="zz"):
            f_scores([{"zz"}], [{"a"}], FOUR)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            f_scores([{"a"}], [{"a"}, {"b"}], FOUR)

    def test_per_label_csv_layout(self):
        report = f_scores([{"a"}], [{"a"}], ["a", "b"])
        lines = report.per_label_csv().splitlines()
        assert lines[0] == "label,frequency,f_score"
        assert lines[1] == "a,1,100"
        assert lines[2] == "b,0,0"


class TestEvaluateDataset:
    def test_trained_model_scores_planted_signal(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=2)
        data = make_dataset(8)
        tc = TrainConfig(epochs=8, batch_size=4, lr=0.05, seed=2)
        _, _, best, _ = train(data, data, LABELS, table, mcfg, tc)
        report = evaluate_dataset(data, best, table, mcfg, LABELS)
        assert report.macro_f > 60.0

    def test_policy_recorded_in_report(self, rng):
        table = make_table(rng)
        mcfg = small_config()
        from symgraph.model import init_params
        report = evaluate_dataset(make_dataset(1), init_params(mcfg), table,
                                  mcfg, LABELS, ThresholdPolicy("top_k", k=1))
        assert report.threshold == "top_k(k=1)"

    def test_sigmoid_model_scoring_below_one_half_predicts_nothing(self, rng):
        # every per-label sigmoid reads 0.4, above 1/3 but no evidence for
        # any label; it was cut at 1/3 and predicted all three
        from symgraph.model import init_params
        labels = LABELS + ["gamma"]
        mcfg = small_config(num_labels=3, loss_mode="sigmoid_bce")
        params = init_params(mcfg)
        params["mlp.w2"].value[:] = 0.0
        params["mlp.b2"].value[:] = np.log(0.4 / 0.6)
        report = evaluate_dataset(make_dataset(2), params, make_table(rng), mcfg, labels)
        assert [row.tp + row.fp for row in report.per_label] == [0, 0, 0]

    def test_no_examples_raise_config_error(self, rng):
        # returned macro F 0.0, a score of nothing
        mcfg = small_config()
        with pytest.raises(ConfigError, match="no examples"):
            evaluate_dataset([], init_params(mcfg), make_table(rng), mcfg, LABELS)

    def test_collect_attention_rows(self, rng):
        table = make_table(rng)
        mcfg = small_config(fusion_mode="attention")
        from symgraph.model import init_params
        data = make_dataset(2)
        rows = collect_attention(data, init_params(mcfg), table, mcfg)
        assert len(rows) == len(data)
        for image_id, a_kg, a_sg in rows:
            assert a_kg + a_sg == pytest.approx(1.0)

    def test_collect_attention_empty_for_concat(self, rng):
        table = make_table(rng)
        mcfg = small_config(fusion_mode="concat")
        from symgraph.model import init_params
        rows = collect_attention(make_dataset(1), init_params(mcfg), table, mcfg)
        assert rows == []


class TestAblations:
    def test_single_depth_matches_plain_train(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=4, gcn_layers=1)
        data = make_dataset(4)
        val = make_dataset(2)
        tc = TrainConfig(epochs=2, batch_size=4, lr=0.02, seed=4)
        logs = ablate("gcn_layers", [1], data, val, LABELS, table, mcfg, tc)
        _, plain, _, _ = train(data, val, LABELS, table, mcfg, tc)
        got = [(r.epoch, r.train_loss, r.val_macro_f) for r in logs[1].records]
        want = [(r.epoch, r.train_loss, r.val_macro_f) for r in plain.records]
        assert got == want

    def test_repeated_depth_is_deterministic(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=4, gcn_layers=2)
        data = make_dataset(3)
        tc = TrainConfig(epochs=2, batch_size=4, lr=0.02, seed=4)
        a = ablate("gcn_layers", [2], data, data, LABELS, table, mcfg, tc)
        b = ablate("gcn_layers", [2], data, data, LABELS, table, mcfg, tc)
        assert ablation_csv(a) == ablation_csv(b)

    def test_graph_ablation_covers_three_modes(self, rng):
        table = make_table(rng)
        mcfg = small_config(seed=0)
        data = make_dataset(3)
        tc = TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=0)
        logs = ablate("graph_mode", ("sg_only", "kg_only", "both"), data, data, LABELS, table,
                      mcfg, tc)
        assert set(logs) == {"sg_only", "kg_only", "both"}
        csv = ablation_csv(logs)
        assert csv.splitlines()[0] == "variant,epoch,val_macro_f"
        assert sum(1 for line in csv.splitlines()[1:]) == 3

    def test_single_mode_param_counts_below_both(self):
        both = small_config(graph_mode="both")
        for mode in ("sg_only", "kg_only"):
            assert param_count(small_config(graph_mode=mode)) < param_count(both)

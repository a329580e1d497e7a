import json
import re
from pathlib import Path

import numpy as np
import pytest

from symgraph.cli import main
from symgraph.dataset import example_from_dict, load_bundle
from symgraph.errors import SchemaError
from symgraph.embeddings import load_embeddings
from symgraph.evaluation import evaluate_dataset
from symgraph.model import load_checkpoint, save_checkpoint


def run(argv):
    return main([str(a) for a in argv])


def synth_bundle(tmp_path, name="data", seed=0, labels=2, examples=40, extra=()):
    out = tmp_path / name
    code = run(["synth", "--out", out, "--labels-count", labels,
                "--examples", examples, "--seed", seed, *extra])
    assert code == 0
    return out


def bundle_bytes(bundle_dir):
    return {p.relative_to(bundle_dir).as_posix(): p.read_bytes()
            for p in sorted(Path(bundle_dir).rglob("*")) if p.is_file()}


class TestSynth:
    def test_same_seed_byte_identical_bundles(self, tmp_path):
        a = synth_bundle(tmp_path, "a", seed=9)
        b = synth_bundle(tmp_path, "b", seed=9)
        assert bundle_bytes(a / "bundle") == bundle_bytes(b / "bundle")

    def test_different_seeds_differ(self, tmp_path):
        a = synth_bundle(tmp_path, "a", seed=1)
        b = synth_bundle(tmp_path, "b", seed=2)
        assert bundle_bytes(a / "bundle") != bundle_bytes(b / "bundle")

    def test_writes_expected_artifacts(self, tmp_path):
        out = synth_bundle(tmp_path)
        for rel in ("facts.tsv", "vocab.txt", "labels.txt", "embeddings.txt",
                    "manifest.json", "bundle/splits.json", "bundle/labels.txt"):
            assert (out / rel).exists(), rel
        assert len(list((out / "scene_graphs").glob("*.json"))) == 40


class TestPrepare:
    def _raw_inputs(self, tmp_path, n=10):
        scene_dir = tmp_path / "scenes"
        scene_dir.mkdir()
        for i in range(n):
            doc = {
                "image_id": f"img{i:03d}",
                "objects": [{"name": "car", "attributes": []}],
                "relations": [],
                "labels": ["go"],
            }
            (scene_dir / f"img{i:03d}.json").write_text(json.dumps(doc))
        (tmp_path / "facts.tsv").write_text("IsA\tcar\tvehicle\n")
        (tmp_path / "vocab.txt").write_text("car\nvehicle\n")
        (tmp_path / "labels.txt").write_text("go\nstop\n")
        return scene_dir

    def test_split_sizes_six_two_two(self, tmp_path, capsys):
        scene_dir = self._raw_inputs(tmp_path)
        out = tmp_path / "out"
        assert run(["prepare", "--scene-dir", scene_dir,
                    "--facts", tmp_path / "facts.tsv",
                    "--vocab", tmp_path / "vocab.txt",
                    "--labels", tmp_path / "labels.txt", "--out", out]) == 0
        splits = json.loads((out / "splits.json").read_text())
        assert (len(splits["train"]), len(splits["val"]), len(splits["test"])) \
            == (6, 2, 2)
        assert "6/2/2" in capsys.readouterr().out

    def test_rerun_same_membership(self, tmp_path):
        scene_dir = self._raw_inputs(tmp_path)
        args = ["prepare", "--scene-dir", scene_dir,
                "--facts", tmp_path / "facts.tsv",
                "--vocab", tmp_path / "vocab.txt",
                "--labels", tmp_path / "labels.txt"]
        run(args + ["--out", tmp_path / "o1"])
        run(args + ["--out", tmp_path / "o2"])
        s1 = (tmp_path / "o1" / "splits.json").read_bytes()
        s2 = (tmp_path / "o2" / "splits.json").read_bytes()
        assert s1 == s2

    def test_zero_object_image_kept_with_warning(self, tmp_path, caplog):
        scene_dir = self._raw_inputs(tmp_path, n=4)
        doc = {"image_id": "empty0", "objects": [], "relations": [],
               "labels": ["stop"]}
        (scene_dir / "empty0.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        import logging
        with caplog.at_level(logging.WARNING):
            assert run(["prepare", "--scene-dir", scene_dir,
                        "--facts", tmp_path / "facts.tsv",
                        "--vocab", tmp_path / "vocab.txt",
                        "--labels", tmp_path / "labels.txt",
                        "--out", out]) == 0
        assert any("empty0" in r.message for r in caplog.records)
        splits, _ = load_bundle(out)
        ids = [ex.image_id for part in splits.values() for ex in part]
        assert "empty0" in ids

    def test_unsafe_image_id_exits_2(self, tmp_path, capsys):
        scene_dir = self._raw_inputs(tmp_path, n=3)
        doc = {"image_id": "../escaped", "objects": [], "relations": [],
               "labels": ["go"]}
        (scene_dir / "bad.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["prepare", "--scene-dir", scene_dir,
                    "--facts", tmp_path / "facts.tsv",
                    "--vocab", tmp_path / "vocab.txt",
                    "--labels", tmp_path / "labels.txt", "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "escaped.json").exists()
        assert not (out / "examples").exists()

    @pytest.mark.parametrize("bad_id", [True, [1], None, 3])
    def test_non_string_image_id_exits_2(self, tmp_path, capsys, bad_id):
        scene_dir = self._raw_inputs(tmp_path, n=3)
        doc = {"image_id": bad_id, "objects": [], "relations": [], "labels": ["go"]}
        (scene_dir / "bad.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["prepare", "--scene-dir", scene_dir,
                    "--facts", tmp_path / "facts.tsv",
                    "--vocab", tmp_path / "vocab.txt",
                    "--labels", tmp_path / "labels.txt", "--out", out]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "image_id" in err[0]
        assert not (out / "examples").exists()

    @pytest.mark.parametrize("field,patch", [
        ("attributes", {"objects": [{"name": "car", "attributes": "red"}]}),
        ("labels", {"labels": "go"}),
        ("subj", {"objects": [{"name": "car"}, {"name": "road"}],
                  "relations": [{"subj": True, "pred": "on", "obj": 0}]}),
    ])
    def test_malformed_document_exits_2_naming_field(self, tmp_path, capsys, field,
                                                     patch):
        scene_dir = self._raw_inputs(tmp_path, n=3)
        doc = {"image_id": "bad", "objects": [], "relations": [], "labels": ["go"]}
        (scene_dir / "bad.json").write_text(json.dumps({**doc, **patch}))
        assert run(["prepare", "--scene-dir", scene_dir,
                    "--facts", tmp_path / "facts.tsv",
                    "--vocab", tmp_path / "vocab.txt",
                    "--labels", tmp_path / "labels.txt", "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

    def test_manifest_written_with_hashes(self, tmp_path):
        scene_dir = self._raw_inputs(tmp_path, n=3)
        out = tmp_path / "out"
        run(["prepare", "--scene-dir", scene_dir,
             "--facts", tmp_path / "facts.tsv",
             "--vocab", tmp_path / "vocab.txt",
             "--labels", tmp_path / "labels.txt", "--out", out])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "prepare"
        assert any(k.startswith("scene_dir/") for k in manifest["artifact_hashes"])
        for digest in manifest["artifact_hashes"].values():
            assert len(digest) == 64


class TestTrainEval:
    def _trained(self, tmp_path, extra_train=()):
        data = synth_bundle(tmp_path, examples=30)
        run_dir = tmp_path / "run"
        code = run(["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--out", run_dir, "--embed-dim", 16, "--hidden-dim", 32,
                    "--gcn-layers", 2, "--epochs", 3, *extra_train])
        assert code == 0
        return data, run_dir

    def test_train_writes_runlog_and_checkpoints(self, tmp_path):
        _, run_dir = self._trained(tmp_path)
        log = (run_dir / "runlog.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_macro_f,seconds"
        assert len(log) == 4
        assert (run_dir / "checkpoint.npz").exists()
        assert (run_dir / "final.npz").exists()

    def test_eval_per_label_rows_match_label_count(self, tmp_path):
        data, run_dir = self._trained(tmp_path)
        eval_dir = tmp_path / "eval"
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", run_dir / "checkpoint.npz",
                    "--out", eval_dir]) == 0
        rows = (eval_dir / "per_label.csv").read_text().splitlines()
        assert rows[0] == "label,frequency,f_score"
        assert len(rows) == 1 + 2  # two configured labels
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert set(metrics) == {"split", "macro_f", "micro_f", "threshold"}
        assert metrics["split"] == "test"

    def test_eval_scores_a_sigmoid_head_with_sigmoids(self, tmp_path):
        data, run_dir = self._trained(tmp_path, extra_train=["--loss", "sigmoid_bce"])
        eval_dir = tmp_path / "eval"
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", run_dir / "checkpoint.npz",
                    "--out", eval_dir]) == 0
        got = json.loads((eval_dir / "metrics.json").read_text())["macro_f"]
        splits, labels = load_bundle(data / "bundle")
        config, params = load_checkpoint(run_dir / "checkpoint.npz")
        table = load_embeddings(data / "embeddings.txt", dim=16)
        reports = {mode: evaluate_dataset(splits["test"], params, table, config, labels,
                                          loss_mode=mode)
                   for mode in ("sigmoid_bce", "softmax_ce")}
        assert got == reports["sigmoid_bce"].macro_f
        # the two heads score this model differently, so the check can fail
        assert reports["sigmoid_bce"].macro_f != reports["softmax_ce"].macro_f

    def test_dump_attention_csv(self, tmp_path):
        data, run_dir = self._trained(
            tmp_path, extra_train=["--fusion", "attention", "--dump-attention"])
        rows = (run_dir / "attention.csv").read_text().splitlines()
        assert rows[0] == "image_id,alpha_kg,alpha_sg"
        assert len(rows) > 1
        for line in rows[1:]:
            _, a, b = line.split(",")
            assert float(a) + float(b) == pytest.approx(1.0)

    def test_eval_refuses_non_finite_checkpoint(self, tmp_path, capsys):
        data, run_dir = self._trained(tmp_path)
        config, params = load_checkpoint(run_dir / "checkpoint.npz")
        params["mlp.b2"].value[0] = np.inf
        save_checkpoint(run_dir / "bad.npz", config, params)
        capsys.readouterr()
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", run_dir / "bad.npz",
                    "--out", tmp_path / "e2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "mlp.b2" in err[0]

    def test_eval_split_flag_validated(self, tmp_path):
        data, run_dir = self._trained(tmp_path)
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", run_dir / "checkpoint.npz",
                    "--out", tmp_path / "e2", "--split", "bogus"]) == 2


class TestAblate:
    def test_graph_ablation_csv(self, tmp_path):
        data = synth_bundle(tmp_path, examples=24)
        out = tmp_path / "ab"
        assert run(["ablate", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", out,
                    "--graphs", "--embed-dim", 16, "--hidden-dim", 16,
                    "--gcn-layers", 1, "--epochs", 2]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,epoch,val_macro_f"
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {"sg_only", "kg_only", "both"}

    def test_layers_ablation_csv(self, tmp_path):
        data = synth_bundle(tmp_path, examples=24)
        out = tmp_path / "ab"
        assert run(["ablate", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", out,
                    "--layers", "1,2", "--embed-dim", 16, "--hidden-dim", 16,
                    "--epochs", 2]) == 0
        variants = {line.split(",")[0]
                    for line in (out / "ablation.csv").read_text().splitlines()[1:]}
        assert variants == {"k1", "k2"}

    def test_requires_exactly_one_mode(self, tmp_path):
        data = synth_bundle(tmp_path, examples=24)
        base = ["ablate", "--bundle", data / "bundle",
                "--embeddings", data / "embeddings.txt",
                "--out", tmp_path / "ab", "--epochs", 1]
        assert run(base) == 2
        assert run(base + ["--layers", "1", "--graphs"]) == 2


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert run(["gradcheck", "--gcn-layers", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_impossible_tolerance_fails(self, capsys):
        assert run(["gradcheck", "--gcn-layers", "1", "--fusion", "concat",
                    "--tolerance", "1e-18"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_bundle_exits_2(self, tmp_path):
        assert run(["train", "--bundle", tmp_path / "nope",
                    "--embeddings", tmp_path / "nope.txt",
                    "--out", tmp_path / "o", "--epochs", 1]) == 2

    def test_bad_embeddings_exit_2(self, tmp_path):
        data = synth_bundle(tmp_path, examples=20)
        bad = tmp_path / "bad.txt"
        bad.write_text("cat 1.0 2.0\n")  # wrong dimension
        assert run(["train", "--bundle", data / "bundle",
                    "--embeddings", bad, "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]) == 2

    def test_non_finite_embedding_exits_2_naming_line(self, tmp_path, capsys):
        data = synth_bundle(tmp_path, examples=20)
        lines = (data / "embeddings.txt").read_text().splitlines()
        fields = lines[2].split(" ")
        lines[2] = " ".join([fields[0], "nan", *fields[2:]])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["train", "--bundle", data / "bundle",
                    "--embeddings", bad, "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and ":3:" in err[0]


class TestBundleReader:
    def _example_doc(self, bundle, split="train"):
        image_id = json.loads((bundle / "splits.json").read_text())[split][0]
        path = bundle / "examples" / f"{image_id}.json"
        return path, json.loads(path.read_text())

    def test_string_labels_rejected(self, tmp_path):
        # "ab" was read as the labels ['a', 'b']
        path, doc = self._example_doc(synth_bundle(tmp_path, examples=10) / "bundle")
        doc["labels"] = "ab"
        with pytest.raises(SchemaError, match="^labels: must be a list of strings"):
            example_from_dict(doc)

    @pytest.mark.parametrize("field", ["kind", "nodes"])
    def test_load_bundle_names_the_file(self, tmp_path, field):
        # a graph without its kind or nodes was a KeyError
        bundle = synth_bundle(tmp_path, examples=10) / "bundle"
        path, doc = self._example_doc(bundle)
        del doc["knowledge_graph"][field]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as info:
            load_bundle(bundle)
        assert str(info.value).startswith(f"{path}: knowledge_graph: ")

    def test_file_claiming_another_image_id_rejected(self, tmp_path):
        # a stray file with an existing id silently replaced that example
        bundle = synth_bundle(tmp_path, examples=10) / "bundle"
        _, doc = self._example_doc(bundle)
        stray = bundle / "examples" / "zzz.json"
        stray.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(stray))}: image_id"):
            load_bundle(bundle)

    @pytest.mark.parametrize("splits", ['["img0000"]', '{"train": "img0000"}', "{"],
                             ids=["list", "string_split", "bad_json"])
    def test_malformed_splits_exit_2(self, tmp_path, capsys, splits):
        # a list was an AttributeError traceback; a string split was read as
        # its letters
        data = synth_bundle(tmp_path, examples=10)
        (data / "bundle" / "splits.json").write_text(splits)
        capsys.readouterr()
        assert run(["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "splits.json" in err[0]

    @pytest.mark.parametrize("patch", [
        lambda doc: doc["knowledge_graph"]["edges"].append([0, "IsA", 10_000]),
        lambda doc: doc["scene_graph"]["edges"].append([True, "on", 0]),
        lambda doc: doc.update(labels="ab"),
    ], ids=["edge_out_of_range", "boolean_edge_index", "string_labels"])
    def test_train_on_bad_test_split_example_exits_2(self, tmp_path, capsys, patch):
        # an out-of-range edge in a test-split example let train exit 0
        data = synth_bundle(tmp_path, examples=20)
        path, doc = self._example_doc(data / "bundle", split="test")
        patch(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


class TestConfigFile:
    def test_config_file_sets_defaults_and_flags_win(self, tmp_path):
        data = synth_bundle(tmp_path, examples=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# training defaults\n"
            f"bundle = {data / 'bundle'}\n"
            f"embeddings = {data / 'embeddings.txt'}\n"
            "embed-dim = 16\nhidden-dim = 16\ngcn-layers = 1\n"
            "epochs = 5\n")
        out = tmp_path / "run"
        # --epochs on the command line overrides epochs=5 from the file
        assert run(["train", "--config", cfg, "--out", out,
                    "--epochs", 1]) == 0
        log = (out / "runlog.csv").read_text().splitlines()
        assert len(log) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1
        assert manifest["config"]["hidden_dim"] == 16

    def test_config_equals_form_is_read(self, tmp_path):
        data = synth_bundle(tmp_path, examples=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"bundle = {data / 'bundle'}\n"
            f"embeddings = {data / 'embeddings.txt'}\n"
            "embed-dim = 16\nhidden-dim = 8\ngcn-layers = 1\nepochs = 1\n")
        out = tmp_path / "run"
        assert run(["train", f"--config={cfg}", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["hidden_dim"] == 8

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 3\n")
        assert run(["train", "--config", cfg, "--bundle", "x",
                    "--embeddings", "y", "--out", tmp_path / "o",
                    "--epochs", 1]) == 2

    def test_config_flag_without_value_exits_2(self, capsys):
        assert run(["train", "--config"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no equals sign here\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_value_starting_with_dash_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out = -data\nexamples = 20\n")
        assert run(["synth", "--config", cfg]) == 0
        assert (tmp_path / "-data" / "manifest.json").exists()

    @pytest.mark.parametrize("value,expected", [("true", True), ("false", False),
                                                ("False", False)])
    def test_boolean_key_reaches_manifest(self, tmp_path, value, expected):
        data = synth_bundle(tmp_path, examples=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"bundle = {data / 'bundle'}\n"
            f"embeddings = {data / 'embeddings.txt'}\n"
            "embed-dim = 16\nhidden-dim = 8\ngcn-layers = 1\nepochs = 1\n"
            f"no-shuffle = {value}\n")
        out = tmp_path / "run"
        assert run(["train", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["no_shuffle"] is expected

    @pytest.mark.parametrize("line", ["banana = 3", "banana = true", "banana = false",
                                      "epochs = false"])
    def test_bad_config_key_exits_2_naming_it(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run(["train", "--config", cfg, "--bundle", "x",
                    "--embeddings", "y", "--out", tmp_path / "o",
                    "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        key = line.split()[0]
        assert len(err) == 1 and err[0].startswith("error:") and f"'{key}'" in err[0]

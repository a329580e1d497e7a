import csv
import json
import platform
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import symgraph
from symgraph import cli
from symgraph.cli import build_parser, main, model_config_from_args
from symgraph.dataset import example_from_dict, load_bundle, write_bundle
from symgraph.errors import SchemaError
from symgraph.embeddings import load_embeddings
from symgraph.evaluation import evaluate_dataset
from symgraph.model import ModelConfig, init_params, load_checkpoint, save_checkpoint


def run(argv):
    return main([str(a) for a in argv])


def synth_bundle(tmp_path, name="data", seed=0, labels=2, examples=40, extra=()):
    out = tmp_path / name
    code = run(["synth", "--out", out, "--labels-count", labels,
                "--examples", examples, "--seed", seed, *extra])
    assert code == 0
    return out


@pytest.mark.parametrize("command", ["train", "eval", "prepare"])
def test_repeated_label_exits_2_naming_it(tmp_path, capsys, command):
    # sym0, sym1, sym0 trained a 3-label model with exit 0, and eval wrote sym0
    # twice in per_label.csv, each row scored as its own label
    data = synth_bundle(tmp_path, examples=10)
    labels = data / ("labels.txt" if command == "prepare" else "bundle/labels.txt")
    labels.write_text("sym0\nsym1\nsym0\n", encoding="utf-8")
    config = ModelConfig(num_labels=3, embed_dim=16, hidden_dim=8, gcn_layers=1)
    save_checkpoint(tmp_path / "init.npz", config, init_params(config))
    inputs = ["--bundle", data / "bundle", "--embeddings", data / "embeddings.txt"]
    argv = {"train": inputs + ["--embed-dim", 16, "--epochs", 1],
            "eval": inputs + ["--checkpoint", tmp_path / "init.npz"],
            "prepare": ["--scene-dir", data / "scene_graphs", "--facts", data / "facts.tsv",
                        "--vocab", data / "vocab.txt", "--labels", labels]}[command]
    capsys.readouterr()
    assert run([command, *argv, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {labels}: label 'sym0' is listed twice"]


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

    @pytest.mark.parametrize("flag,value", [("--embed-dim", "0"), ("--embed-dim", "-3"),
                                            ("--embed-scale", "nan"),
                                            ("--embed-scale", "inf"),
                                            ("--embed-scale", "0"),
                                            ("--embed-scale", "-2")])
    def test_bad_embedding_spec_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        # an embed dim of 0 or a nan scale wrote an embeddings file of no
        # values or all nan, with exit 0
        assert run(["synth", "--out", tmp_path / "o", "--examples", 10, flag, value]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        name = flag[2:].replace("-", "_")
        assert len(err) == 1 and err[0].startswith(f"error: {name} ")
        assert not (tmp_path / "o" / "embeddings.txt").exists()

    def test_rerun_with_fewer_examples_exits_2_naming_the_scene_dir(self, tmp_path, capsys):
        # prepare globs scene_graphs/: the second run said "synthesized 20
        # examples" and split 12/4/4, with exit 0
        out = synth_bundle(tmp_path, examples=20, seed=1)
        before = bundle_bytes(out / "bundle")
        capsys.readouterr()
        assert run(["synth", "--out", out, "--examples", 10, "--seed", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {out / 'scene_graphs'}: ")
        assert bundle_bytes(out / "bundle") == before
        # a re-run that writes the same documents still works
        assert synth_bundle(tmp_path, examples=20, seed=1) == out
        assert bundle_bytes(out / "bundle") == before


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

    def test_bad_facts_file_reported_before_bad_document(self, tmp_path, capsys):
        scene_dir = self._raw_inputs(tmp_path, n=3)
        doc = {"image_id": "bad", "objects": [{"name": "car"}], "relations": [
            {"subj": 5, "pred": "on", "obj": 0}], "labels": ["go"]}
        (scene_dir / "bad.json").write_text(json.dumps(doc))
        facts = tmp_path / "facts.tsv"
        facts.write_text("IsA\tcar\tvehicle\nIsA\tcar\n")
        assert run(["prepare", "--scene-dir", scene_dir, "--facts", facts,
                    "--vocab", tmp_path / "vocab.txt",
                    "--labels", tmp_path / "labels.txt", "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {facts}:2: ")

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

    def test_manifest_records_python_and_numpy_versions(self, tmp_path):
        out = synth_bundle(tmp_path, examples=10)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__


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
        # the library pair scores with the checkpoint's head, as eval does
        assert evaluate_dataset(splits["test"], params, table, config, labels).macro_f \
            == got
        reports = {mode: evaluate_dataset(splits["test"], params, table,
                                          replace(config, loss_mode=mode), labels)
                   for mode in ("sigmoid_bce", "softmax_ce")}
        assert got == reports["sigmoid_bce"].macro_f
        # the two heads score this model differently, so the check can fail
        assert reports["sigmoid_bce"].macro_f != reports["softmax_ce"].macro_f

    @pytest.mark.parametrize("relabel,position", [
        (lambda labels: labels[::-1], "label 0 is 'sym0' in the checkpoint but 'sym1'"),
        (lambda labels: labels[:-1] + ["renamed"], "label 1 is 'sym1' in the checkpoint but "
                                                   "'renamed'"),
    ], ids=["reversed", "renamed"])
    def test_eval_refuses_a_bundle_with_other_labels(self, tmp_path, capsys, relabel,
                                                     position):
        # only the label count was compared: a reversed labels.txt exited 0
        # with every score read against the wrong label
        data, run_dir = self._trained(tmp_path)
        path = data / "bundle" / "labels.txt"
        labels = path.read_text(encoding="utf-8").split()
        path.write_text("\n".join(relabel(labels)) + "\n", encoding="utf-8")
        checkpoint = run_dir / "checkpoint.npz"
        capsys.readouterr()
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", checkpoint, "--out", tmp_path / "e2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {checkpoint}: {position} in the bundle"]
        assert not (tmp_path / "e2" / "metrics.json").exists()

    def test_refused_eval_leaves_the_earlier_manifest(self, tmp_path, capsys):
        # the manifest was written first: a refused run replaced the record
        # of the run whose outputs were still there
        data, run_dir = self._trained(tmp_path)
        argv = ["eval", "--bundle", data / "bundle", "--embeddings", data / "embeddings.txt",
                "--checkpoint", run_dir / "checkpoint.npz", "--out", tmp_path / "e"]
        assert run(argv) == 0
        before = bundle_bytes(tmp_path / "e")
        assert json.loads(before["manifest.json"])["config"]["split"] == "test"
        capsys.readouterr()
        assert run(argv + ["--split", "missing"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: bundle has no split 'missing'"]
        assert bundle_bytes(tmp_path / "e") == before

    def test_eval_refuses_another_embedding_table(self, tmp_path, capsys):
        # eval with another seed's table exited 0 and scored every node
        # with vectors the model was not trained on
        data, run_dir = self._trained(tmp_path)
        other = synth_bundle(tmp_path, "other", seed=1, examples=10)
        checkpoint = run_dir / "checkpoint.npz"
        argv = ["eval", "--bundle", data / "bundle", "--checkpoint", checkpoint]
        assert run(argv + ["--embeddings", data / "embeddings.txt",
                           "--out", tmp_path / "own"]) == 0
        capsys.readouterr()
        assert run(argv + ["--embeddings", other / "embeddings.txt",
                           "--out", tmp_path / "e2"]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {checkpoint}: the embedding table differs from the one "
            "this checkpoint was trained with"]
        assert not (tmp_path / "e2" / "metrics.json").exists()
        # a version-3 checkpoint pins no table and loads without the check
        with np.load(checkpoint) as npz:
            arrays = {k: npz[k] for k in npz.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        assert meta.pop("version") == 4 and len(meta.pop("table_sha256")) == 64
        arrays["__meta__"] = np.frombuffer(json.dumps({**meta, "version": 3}).encode(),
                                           dtype=np.uint8)
        np.savez(tmp_path / "v3.npz", **arrays)
        assert run(["eval", "--bundle", data / "bundle", "--checkpoint", tmp_path / "v3.npz",
                    "--embeddings", other / "embeddings.txt", "--out", tmp_path / "e3"]) == 0

    def test_failed_write_leaves_the_earlier_outputs(self, tmp_path, monkeypatch):
        # a checkpoint write that stops partway (a full disk) left a
        # truncated checkpoint.npz beside the earlier run's manifest
        data, run_dir = self._trained(tmp_path)
        before = bundle_bytes(run_dir)

        def partial_save(path, *args, **kwargs):
            Path(path).write_bytes(b"PK\x03\x04 truncated")
            raise OSError("No space left on device")

        monkeypatch.setattr(cli, "save_checkpoint", partial_save)
        with pytest.raises(OSError, match="No space left"):
            self._trained(tmp_path)
        after = bundle_bytes(run_dir)
        assert sorted(after) == sorted(before)  # no temporary file left behind
        for name in ("checkpoint.npz", "final.npz", "manifest.json"):
            assert after[name] == before[name], name

    def test_write_replacing_keeps_the_file_until_the_write_ends(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("earlier\n", encoding="utf-8")

        def fail_partway(tmp):
            tmp.write_text("half", encoding="utf-8")
            assert path.read_text(encoding="utf-8") == "earlier\n"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            cli.write_replacing(path, fail_partway)
        assert path.read_bytes() == b"earlier\n"
        assert os.listdir(tmp_path) == ["metrics.json"]
        cli.write_text(path, "later\n")
        assert path.read_bytes() == b"later\n"
        assert os.listdir(tmp_path) == ["metrics.json"]

    def test_dump_attention_csv(self, tmp_path):
        data, run_dir = self._trained(
            tmp_path, extra_train=["--fusion", "attention", "--dump-attention"])
        rows = (run_dir / "attention.csv").read_text().splitlines()
        assert rows[0] == "image_id,alpha_kg,alpha_sg"
        assert len(rows) > 1
        for line in rows[1:]:
            _, a, b = line.split(",")
            assert float(a) + float(b) == pytest.approx(1.0)

    def test_csv_outputs_read_back_with_commas_in_names(self, tmp_path):
        # a label 'sym,1' gave per_label.csv a 4-field row under a 3-column
        # header, and an image id 'img0003,x' did the same to attention.csv
        data = synth_bundle(tmp_path, examples=30)
        splits, labels = load_bundle(data / "bundle")
        renamed = {"sym1": "sym,1"}
        labels = [renamed.get(l, l) for l in labels]
        examples = [replace(ex, image_id=f"{ex.image_id},x",
                            labels=[renamed.get(l, l) for l in ex.labels])
                    for split in splits.values() for ex in split]
        ids = {name: [f"{ex.image_id},x" for ex in split] for name, split in splits.items()}
        bundle = tmp_path / "commas"
        write_bundle(bundle, examples, labels, ids)
        inputs = ["--bundle", bundle, "--embeddings", data / "embeddings.txt"]
        assert run(["train", *inputs, "--out", tmp_path / "run", "--embed-dim", 16,
                    "--hidden-dim", 8, "--epochs", 1, "--fusion", "attention",
                    "--dump-attention"]) == 0
        assert run(["eval", *inputs, "--checkpoint", tmp_path / "run" / "checkpoint.npz",
                    "--out", tmp_path / "eval"]) == 0
        with open(tmp_path / "eval" / "per_label.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "frequency", "f_score"]
        assert [row[0] for row in rows[1:]] == labels and {len(r) for r in rows} == {3}
        with open(tmp_path / "run" / "attention.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["image_id", "alpha_kg", "alpha_sg"]
        assert [row[0] for row in rows[1:]] == ids["val"] and {len(r) for r in rows} == {3}

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

    @pytest.mark.parametrize("damage", [
        lambda path: path.write_bytes(path.read_bytes()[:200]),
        lambda path: path.write_bytes(b"not a checkpoint\n" * 8),
        lambda path: _rewrite_checkpoint(path, param=("kg.gcn0", lambda v: v[:, :-1])),
        lambda path: _rewrite_checkpoint(path, config=("hidden_dim", "8")),
    ], ids=["truncated", "garbage", "wrong_shape", "string_config_field"])
    def test_eval_refuses_bad_checkpoint_naming_it(self, tmp_path, capsys, damage):
        # a truncated file was a BadZipFile traceback, a garbage one numpy's
        # allow_pickle ValueError, a narrower weight "linear widths disagree"
        # with exit 1, and a string width a TypeError traceback
        data, run_dir = self._trained(tmp_path)
        path = run_dir / "checkpoint.npz"
        damage(path)
        capsys.readouterr()
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", path, "--out", tmp_path / "e2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command,flag,wrong", [
        ("eval", "--checkpoint", "run"),
        ("eval", "--embeddings", "data"),
        ("eval", "--bundle", "data/bundle/labels.txt"),
        ("train", "--out", "data/embeddings.txt"),
    ], ids=["checkpoint_dir", "embeddings_dir", "bundle_file", "out_file"])
    def test_path_of_the_wrong_kind_exits_2(self, tmp_path, capsys, command, flag, wrong):
        # a directory where a file belongs, or a file where a directory
        # belongs, was an OSError traceback with exit 1
        data, run_dir = self._trained(tmp_path)
        flags = {"--bundle": data / "bundle", "--embeddings": data / "embeddings.txt",
                 "--out": tmp_path / "e2"}
        if command == "eval":
            flags["--checkpoint"] = run_dir / "checkpoint.npz"
        else:
            flags["--epochs"] = 1
        flags[flag] = tmp_path / wrong
        capsys.readouterr()
        assert run([command, *(arg for pair in flags.items() for arg in pair)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(tmp_path / wrong) in err[0]

    @pytest.mark.parametrize("flags,names", [
        (["--policy", "top_k", "--top-k", "-1"], "k"),
        (["--policy", "top_k", "--top-k", "0"], "k"),
        (["--policy", "fixed", "--tau", "nan"], "tau"),
    ], ids=["top_k_negative", "top_k_zero", "tau_nan"])
    def test_eval_refuses_bad_threshold_policy(self, tmp_path, capsys, flags, names):
        # top-k -1 predicted all labels but one, and top-k 0 and tau nan no
        # label at all, each a macro F with exit 0
        data, run_dir = self._trained(tmp_path)
        capsys.readouterr()
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", run_dir / "checkpoint.npz",
                    "--out", tmp_path / "e2", *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f" {names} " in err[0]
        assert not (tmp_path / "e2" / "metrics.json").exists()

    def test_eval_split_flag_validated(self, tmp_path):
        data, run_dir = self._trained(tmp_path)
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", run_dir / "checkpoint.npz",
                    "--out", tmp_path / "e2", "--split", "bogus"]) == 2


def _rewrite_checkpoint(path, param=None, config=None):
    """Save the checkpoint again with one parameter array or one config field
    replaced."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    if param is not None:
        name, change = param
        arrays[f"param/{name}"] = change(arrays[f"param/{name}"])
    if config is not None:
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["config"][config[0]] = config[1]
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


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

    @pytest.mark.parametrize("layers", ["1,x", "1,1"], ids=["not_integer", "repeated"])
    def test_bad_layers_list_exits_2_naming_it(self, tmp_path, capsys, layers):
        # "1,x" was a ValueError traceback with exit 1; "1,1" trained depth 1
        # twice and wrote it once to ablation.csv
        data = synth_bundle(tmp_path, examples=24)
        capsys.readouterr()
        assert run(["ablate", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "ab",
                    "--layers", layers, "--embed-dim", 16, "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and f"'{layers}'" in err[0]
        assert not (tmp_path / "ab" / "ablation.csv").exists()

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
        assert "FAIL" not in out
        # each fusion mode's report under each output head, and each passes
        headers = [line for line in out.splitlines() if line.startswith("fusion=")]
        assert headers == [f"fusion={mode} loss={head}:"
                           for mode in ("concat", "attention", "attention_learned")
                           for head in ("softmax_ce", "sigmoid_bce")]
        assert out.count("PASS") == 6
        assert "attn.score" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert run(["gradcheck", "--gcn-layers", "1", "--fusion", "concat",
                    "--tolerance", "1e-18"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
    def test_meaningless_tolerance_exits_2_naming_it(self, capsys, tolerance):
        # inf passed every gradient unchecked; the others failed every
        # group with exit 1, as a gradient bug would
        assert run(["gradcheck", "--gcn-layers", "1", "--fusion", "concat",
                    "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tolerance ")
        assert "FAIL" not in captured.out


def test_python_dash_m_runs_the_cli():
    # was "No module named symgraph.__main__"
    src = str(Path(symgraph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "symgraph", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: symgraph") and "gradcheck" in proc.stdout


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

    @pytest.mark.parametrize("command", ["train", "synth", "prepare", "gradcheck"])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, command):
        # each ended in a numpy ValueError traceback with exit 1
        data = synth_bundle(tmp_path, examples=10)
        argv = {
            "train": ["train", "--bundle", data / "bundle",
                      "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                      "--embed-dim", 16, "--epochs", 1],
            "synth": ["synth", "--out", tmp_path / "o", "--examples", 10],
            "prepare": ["prepare", "--scene-dir", data / "scene_graphs",
                        "--facts", data / "facts.tsv", "--vocab", data / "vocab.txt",
                        "--labels", data / "labels.txt", "--out", tmp_path / "o"],
            "gradcheck": ["gradcheck", "--gcn-layers", 1, "--fusion", "concat"],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--seed", -1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: seed must be >= 0, got -1"]

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2_naming_it(self, tmp_path, capsys, lr):
        # both ran, and failed with exit 1 blaming the first batch
        data = synth_bundle(tmp_path, examples=20)
        capsys.readouterr()
        assert run(["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1, "--lr", lr]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: lr ")

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

    @pytest.mark.parametrize("command,target", [
        ("prepare", "facts.tsv"),
        ("prepare", "vocab.txt"),
        ("prepare", "labels.txt"),
        ("prepare", "scene_graphs/img0000.json"),
        ("train", "embeddings.txt"),
        ("train", "bundle/labels.txt"),
    ], ids=["facts", "vocab", "labels", "scene_document", "embeddings", "bundle_labels"])
    def test_non_utf8_input_exits_2_naming_the_file(self, tmp_path, capsys, command,
                                                    target):
        # each was a UnicodeDecodeError traceback with exit 1
        data = synth_bundle(tmp_path, examples=10)
        path = data / target
        path.write_bytes(path.read_bytes() + b"\xff\n")
        if command == "prepare":
            argv = ["prepare", "--scene-dir", data / "scene_graphs",
                    "--facts", data / "facts.tsv", "--vocab", data / "vocab.txt",
                    "--labels", data / "labels.txt", "--out", tmp_path / "o"]
        else:
            argv = ["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
        assert "utf-8" in err[0]


class TestBundleFormat:
    def test_example_documents_are_one_compact_sorted_line(self, tmp_path):
        bundle = synth_bundle(tmp_path, examples=10) / "bundle"
        paths = sorted((bundle / "examples").glob("*.json"))
        assert len(paths) == 10
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert text.endswith("\n") and text.count("\n") == 1
            compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
            assert text == compact + "\n"

    def test_rewriting_a_bundle_is_byte_identical(self, tmp_path):
        bundle = synth_bundle(tmp_path, examples=10) / "bundle"
        splits, labels = load_bundle(bundle)
        examples = sorted((ex for split in splits.values() for ex in split),
                          key=lambda ex: ex.image_id)
        ids = {name: [ex.image_id for ex in split] for name, split in splits.items()}
        for out in ("a", "b"):
            write_bundle(tmp_path / out, examples, labels, ids)
        assert bundle_bytes(tmp_path / "a") == bundle_bytes(tmp_path / "b")
        assert bundle_bytes(tmp_path / "a") == bundle_bytes(bundle)

    def test_prepare_into_a_bundle_of_other_examples_exits_2(self, tmp_path, capsys):
        # the stale example files stayed: train then failed naming a file in
        # no split, or, with matching labels, hashed them into its manifest
        bundle = tmp_path / "B"
        for name, labels, examples in (("big", 3, 20), ("small", 2, 10)):
            raw = synth_bundle(tmp_path, name, labels=labels, examples=examples)
            before = bundle_bytes(bundle) if bundle.exists() else None
            capsys.readouterr()
            code = run(["prepare", "--scene-dir", raw / "scene_graphs", "--facts",
                        raw / "facts.tsv", "--vocab", raw / "vocab.txt",
                        "--labels", raw / "labels.txt", "--out", bundle])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bundle / 'examples'}: ")
        assert bundle_bytes(bundle) == before  # the manifest of the run whose files stay

    def test_indented_bundle_loads_to_the_same_examples(self, tmp_path):
        # bundles written before example documents were compact still load
        bundle = synth_bundle(tmp_path, examples=10) / "bundle"
        old = tmp_path / "old"
        shutil.copytree(bundle, old)
        for path in (old / "examples").glob("*.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        assert (old / "examples" / "img0000.json").read_text().count("\n") > 1
        assert load_bundle(old) == load_bundle(bundle)


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

    @pytest.mark.parametrize("field", ["kind", "names"])
    def test_load_bundle_names_the_file(self, tmp_path, field):
        # a graph without its kind or node names was a KeyError
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
        lambda doc: _append_edge(doc["knowledge_graph"], 0, "IsA", 10_000),
        lambda doc: _append_edge(doc["scene_graph"], True, "on", 0),
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

    def test_record_layout_bundle_refused_naming_the_file(self, tmp_path, capsys):
        # a bundle an older symgraph wrote: its graphs are lists of records
        data = synth_bundle(tmp_path, examples=10)
        path, doc = self._example_doc(data / "bundle", split="val")
        for key in ("scene_graph", "knowledge_graph"):
            g = doc[key]
            doc[key] = {"kind": g["kind"],
                        "nodes": [{"name": name, "attributes": attrs}
                                  for name, attrs in zip(g["names"], g["attributes"])],
                        "edges": [list(e) for e in zip(g["src"], g["relations"], g["dst"])]}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        with pytest.raises(SchemaError) as info:
            load_bundle(data / "bundle")
        message = str(info.value)
        assert message.startswith(f"{path}: scene_graph: ")
        assert "older symgraph" in message and "'symgraph prepare'" in message
        config = ModelConfig(num_labels=2, embed_dim=16, hidden_dim=8, gcn_layers=1)
        save_checkpoint(tmp_path / "init.npz", config, init_params(config))
        capsys.readouterr()
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", tmp_path / "init.npz", "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_missing_split_exits_2_naming_it(self, tmp_path, capsys, command, split):
        # was a KeyError traceback with exit 1
        data = synth_bundle(tmp_path, examples=10)
        path = data / "bundle" / "splits.json"
        splits = json.loads(path.read_text())
        del splits[split]
        path.write_text(json.dumps(splits))
        capsys.readouterr()
        mode = ["--graphs"] if command == "ablate" else []
        assert run([command, "--bundle", data / "bundle", *mode,
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(path) in err[0] and f"'{split}'" in err[0]

    def test_eval_on_empty_split_exits_2_naming_it(self, tmp_path, capsys):
        # four examples leave the val split empty; eval printed macro F 0.00
        # and exited 0
        data = synth_bundle(tmp_path, examples=4)
        assert load_bundle(data / "bundle")[0]["val"] == []
        config = ModelConfig(num_labels=2, embed_dim=16, hidden_dim=8, gcn_layers=1)
        save_checkpoint(tmp_path / "init.npz", config, init_params(config))
        capsys.readouterr()
        assert run(["eval", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt",
                    "--checkpoint", tmp_path / "init.npz", "--out", tmp_path / "e",
                    "--split", "val"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'val'" in err[0]
        assert not (tmp_path / "e" / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("labels,problem", [
        (["sym0", "sym9"], "label 'sym9' is not in {labels_path}"),
        ([], "example has no labels"),
    ], ids=["unknown_label", "no_labels"])
    def test_example_with_bad_labels_exits_2_naming_it(self, tmp_path, capsys, command,
                                                      labels, problem):
        # train exited 1 with "label 'sym9' not in configured label list" or
        # "empty label set", naming no file; eval of the test split exited 0
        data = synth_bundle(tmp_path, examples=10)
        bundle = data / "bundle"
        path, doc = self._example_doc(bundle)
        doc["labels"] = labels
        path.write_text(json.dumps(doc))
        message = f"{path}: " + problem.format(labels_path=bundle / "labels.txt")
        with pytest.raises(SchemaError) as info:
            load_bundle(bundle)
        assert str(info.value) == message
        config = ModelConfig(num_labels=2, embed_dim=16, hidden_dim=8, gcn_layers=1)
        save_checkpoint(tmp_path / "init.npz", config, init_params(config), ["sym0", "sym1"])
        argv = {"train": ["--embed-dim", 16, "--epochs", 1],
                "eval": ["--checkpoint", tmp_path / "init.npz"]}[command]
        capsys.readouterr()
        assert run([command, "--bundle", bundle, "--embeddings", data / "embeddings.txt",
                    "--out", tmp_path / "o", *argv]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("into", ["test", "train"], ids=["other_split", "same_split"])
    def test_image_id_in_two_splits_exits_2(self, tmp_path, capsys, into):
        # train ids appended to test let train exit 0, scoring on training data
        data = synth_bundle(tmp_path, examples=10)
        path = data / "bundle" / "splits.json"
        splits = json.loads(path.read_text())
        twice = splits["train"][1]
        splits[into] += splits["train"][1:4]
        path.write_text(json.dumps(splits))
        with pytest.raises(SchemaError) as info:
            load_bundle(data / "bundle")
        names = sorted(re.findall(r"'(\w+)'", str(info.value)))
        assert names == sorted([twice, "train", into]), str(info.value)
        capsys.readouterr()
        assert run(["train", "--bundle", data / "bundle",
                    "--embeddings", data / "embeddings.txt", "--out", tmp_path / "o",
                    "--embed-dim", 16, "--epochs", 1]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


def _append_edge(graph_doc, src, relation, dst):
    graph_doc["src"].append(src)
    graph_doc["relations"].append(relation)
    graph_doc["dst"].append(dst)


# one value of each JSON type, drawn by the seeded generator
JSON_VALUES = {
    "string": lambda rnd: rnd.choice(["", "a", "img0000", "scene", "knowledge", "sym0"]),
    "int": lambda rnd: rnd.randint(-2, 3),
    "bool": lambda rnd: rnd.random() < 0.5,
    "null": lambda rnd: None,
    "list": lambda rnd: rnd.choice([[], [0], ["a"], [[]], [True]]),
    "object": lambda rnd: rnd.choice([{}, {"a": 1}]),
}


def document_mutations(doc, rnd):
    """(name, mutated document) pairs: each key of the example document and
    of each of its graphs given a value of each JSON type, or deleted, and
    each of those objects given an unknown key."""
    for where in (None, "scene_graph", "knowledge_graph"):
        target = doc if where is None else doc[where]
        for key in sorted(target):
            for kind, value in JSON_VALUES.items():
                yield f"{where}.{key}={kind}", _patched(doc, where, key, value(rnd))
            yield f"{where}.{key} deleted", _patched(doc, where, key, None, delete=True)
        yield f"{where} unknown key", _patched(doc, where, "zz_unknown", rnd.randint(0, 9))


def _patched(doc, where, key, value, delete=False):
    doc = json.loads(json.dumps(doc))
    target = doc if where is None else doc[where]
    if delete:
        del target[key]
    else:
        target[key] = value
    return doc


def assert_valid_examples(splits, labels):
    """Every loaded example has the types and index ranges a reader promises."""
    assert type(labels) is list and all(type(l) is str for l in labels)
    for ex in (ex for split in splits.values() for ex in split):
        assert type(ex.image_id) is str and ex.image_id
        assert type(ex.labels) is list and all(type(l) is str for l in ex.labels)
        for g in (ex.scene_graph, ex.knowledge_graph):
            n = len(g.names)
            assert g.kind in ("scene", "knowledge")
            assert all(type(name) is str for name in g.names)
            assert len(g.attributes) == n
            assert all(type(a) is tuple and all(type(t) is str for t in a)
                       for a in g.attributes)
            assert len(g.src) == len(g.dst) == len(g.relations)
            assert all(type(i) is int and 0 <= i < n for i in g.src + g.dst)
            assert all(type(r) is str for r in g.relations)


class TestBundleMutations:
    """Seeded mutations of one bundle document: each must be refused with a
    SchemaError naming the file, or load to valid examples; through eval,
    each exits 0, or 2 with one error line."""

    def test_each_mutation_is_refused_naming_the_file_or_loads_valid(self, tmp_path, capsys):
        rnd = random.Random(18)
        data = synth_bundle(tmp_path, examples=10)
        bundle = data / "bundle"
        config = ModelConfig(num_labels=2, embed_dim=16, hidden_dim=8, gcn_layers=1)
        save_checkpoint(tmp_path / "init.npz", config, init_params(config))
        path = rnd.choice(sorted((bundle / "examples").glob("*.json")))
        original = path.read_bytes()
        doc = json.loads(original)
        mutations = [(name, json.dumps(doc).encode("utf-8"))
                     for name, doc in document_mutations(doc, rnd)]
        for offset in sorted(rnd.sample(range(1, len(original) - 1), 8)):
            mutations.append((f"truncated at {offset}", original[:offset]))
        for offset in sorted(rnd.sample(range(len(original)), 2)):
            mutations.append((f"invalid UTF-8 at {offset}",
                              original[:offset] + b"\xff\xfe" + original[offset:]))
        outcomes = {"refused": 0, "loaded": 0}
        for name, content in mutations:
            path.write_bytes(content)
            try:
                assert_valid_examples(*load_bundle(bundle))
                outcomes["loaded"] += 1
            except SchemaError as exc:
                assert str(exc).startswith(f"{path}: "), name
                outcomes["refused"] += 1
            capsys.readouterr()
            code = run(["eval", "--bundle", bundle, "--embeddings", data / "embeddings.txt",
                        "--checkpoint", tmp_path / "init.npz", "--out", tmp_path / "e"])
            err = capsys.readouterr().err.strip().splitlines()
            assert (code, err) == (0, []) or (code == 2 and len(err) == 1
                                              and err[0].startswith("error: ")), name
        path.write_bytes(original)
        # the mutations reach both outcomes
        assert len(mutations) > 100 and min(outcomes.values()) > 0, outcomes


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

    def test_non_utf8_config_exits_2_naming_it(self, tmp_path, capsys):
        # was a UnicodeDecodeError traceback with exit 1
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs = 2\n\xff\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfg}: ")

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


class TestModelFlags:
    REQUIRED = ["train", "--bundle", "b", "--embeddings", "e", "--out", "o",
                "--epochs", "1"]

    def test_defaults_and_loss_flag_reach_model_config(self):
        # a ModelConfig field or default the flags forget shows up here
        parser, _ = build_parser()
        args = parser.parse_args(self.REQUIRED)
        assert model_config_from_args(args, 3) == ModelConfig(num_labels=3)
        args = parser.parse_args(self.REQUIRED + ["--loss", "sigmoid_bce"])
        assert model_config_from_args(args, 3) == ModelConfig(num_labels=3,
                                                              loss_mode="sigmoid_bce")

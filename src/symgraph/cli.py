"""Command-line entry point.

Commands: prepare, synth, train, eval, ablate, gradcheck.  Each command can
read its flags from a key=value config file (command-line flags win), and
writes a run manifest (resolved config, input-file hashes, Python and numpy
versions) before doing any work.

Exit codes: 0 success, 1 runtime failure, 2 usage/config/input-path error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import dataset, evaluation, synth
from .embeddings import load_embeddings
from .errors import (ConfigError, EmbeddingParseError, SchemaError,
                     SymgraphError, ValidationError, read_text)
from .evaluation import (POLICY_KINDS, ThresholdPolicy, ablation_csv, collect_attention,
                         csv_text)
from .gradcheck import gradcheck
from .model import (FUSION_MODES, GRAPH_MODES, LOSS_MODES, NONLINEARITIES, ModelConfig,
                    load_checkpoint, param_count, save_checkpoint)
from .training import TrainConfig, train

USAGE_ERRORS = (ConfigError, SchemaError, EmbeddingParseError, ValidationError)
PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, command, resolved: dict, inputs: dict):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, path in inputs.items():
        path = Path(path)
        if path.is_dir():
            for sub in sorted(path.rglob("*")):
                if sub.is_file():
                    hashes[f"{name}/{sub.relative_to(path)}"] = sha256_file(sub)
        elif path.is_file():
            hashes[name] = sha256_file(path)
    manifest = {
        "command": command,
        "config": {k: str(v) if isinstance(v, Path) else v
                   for k, v in sorted(resolved.items())
                   if k not in ("func", "command")},
        "out_dir": str(out_dir),
        "artifact_hashes": hashes,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_config_file(path) -> dict:
    """key=value lines; '#' starts a comment.  A key is a flag name without
    its dashes (``_`` may stand for ``-``)."""
    values = {}
    for lineno, line in enumerate(read_text(path, ConfigError).split("\n"), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        values[key.strip().replace("_", "-")] = value.strip()
    return values


def config_path(argv_rest):
    """The file named by ``--config path`` or ``--config=path``, or None."""
    for i, arg in enumerate(argv_rest):
        if arg == "--config":
            if i + 1 == len(argv_rest):
                raise ConfigError("--config needs a file path")
            return argv_rest[i + 1]
        if arg.startswith("--config="):
            return arg[len("--config="):]
    return None


def config_args(subparser, path) -> list:
    """The flags a config file stands for: ``--key=value`` per line, or a
    bare ``--key`` for ``key = true`` (``key = false`` leaves a switch off).
    They go before the command line's own flags, so those win."""
    args = []
    for key, value in load_config_file(path).items():
        if value.lower() == "false":
            if subparser.get_default(key.replace("-", "_")) is not False:
                raise ConfigError(f"{path}: config key '{key}' is not a known switch")
        elif value.lower() == "true":
            args.append(f"--{key}")
        else:
            args.append(f"--{key}={value}")
    return args


# ---------------------------------------------------------------------------
# shared flag groups


def add_model_flags(p):
    p.add_argument("--embed-dim", type=int, default=300)
    p.add_argument("--hidden-dim", type=int, default=512)
    p.add_argument("--gcn-layers", type=int, default=3)
    p.add_argument("--fusion", default="concat", choices=FUSION_MODES)
    p.add_argument("--nonlinearity", default="relu", choices=NONLINEARITIES)
    p.add_argument("--share-towers", action="store_true")
    p.add_argument("--graph-mode", default="both", choices=GRAPH_MODES)
    p.add_argument("--mlp-hidden", type=int, default=None)


def add_train_flags(p):
    p.add_argument("--epochs", type=int, required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--loss", default="softmax_ce", choices=LOSS_MODES)


def add_policy_flags(p):
    p.add_argument("--policy", default="uniform_prior", choices=POLICY_KINDS)
    p.add_argument("--top-k", type=int, default=1)
    p.add_argument("--tau", type=float, default=0.5)


def policy_from_args(args):
    return ThresholdPolicy(kind=args.policy, k=args.top_k, tau=args.tau)


def model_config_from_args(args, num_labels):
    return ModelConfig(
        num_labels=num_labels,
        embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim,
        gcn_layers=args.gcn_layers,
        fusion_mode=args.fusion,
        nonlinearity=args.nonlinearity,
        share_towers=args.share_towers,
        mlp_hidden=args.mlp_hidden,
        graph_mode=args.graph_mode,
        seed=args.seed,
        loss_mode=args.loss,
    )


def train_config_from_args(args):
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        shuffle=not args.no_shuffle,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args) -> int:
    write_manifest(args.out, "prepare", vars(args), {
        "scene_dir": args.scene_dir, "facts": args.facts,
        "vocab": args.vocab, "labels": args.labels,
    })
    examples, label_list = dataset.prepare(
        args.scene_dir, args.facts, args.vocab, args.labels,
        match_tail=args.match_tail, reverse_edges=args.reverse_edges)
    splits = dataset.split_ids([ex.image_id for ex in examples], args.seed)
    dataset.write_bundle(args.out, examples, label_list, splits)
    print(f"prepared {len(examples)} examples "
          f"({len(splits['train'])}/{len(splits['val'])}/{len(splits['test'])} split) "
          f"-> {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec(
        num_labels=args.labels_count, num_examples=args.examples,
        noise=args.noise, seed=args.seed, embed_dim=args.embed_dim,
        embed_scale=args.embed_scale, dual_signal=args.dual_signal)
    write_manifest(args.out, "synth", vars(args), {})
    paths = synth.generate(spec, args.out)
    examples, label_list = dataset.prepare(
        paths["scene_dir"], paths["facts"], paths["vocab"], paths["labels"])
    splits = dataset.split_ids([ex.image_id for ex in examples], args.seed)
    bundle = Path(args.out) / "bundle"
    dataset.write_bundle(bundle, examples, label_list, splits)
    print(f"synthesized {len(examples)} examples -> {bundle}")
    return 0


def _load_inputs(args):
    """Bundle and embedding table of a train or ablate run; the bundle must
    have a train and a val split."""
    splits, label_list = dataset.load_bundle(args.bundle)
    for name in ("train", "val"):
        if name not in splits:
            raise SchemaError(f"{Path(args.bundle) / 'splits.json'}: no '{name}' split")
    table = load_embeddings(args.embeddings, dim=args.embed_dim)
    return splits, label_list, table


def cmd_train(args) -> int:
    write_manifest(args.out, "train", vars(args), {
        "bundle": args.bundle, "embeddings": args.embeddings})
    splits, label_list, table = _load_inputs(args)
    mconfig = model_config_from_args(args, len(label_list))
    tconfig = train_config_from_args(args)
    policy = policy_from_args(args)
    final, log, best, best_epoch = train(
        splits["train"], splits["val"], label_list, table, mconfig, tconfig,
        policy=policy)
    out = Path(args.out)
    (out / "runlog.csv").write_text(log.to_csv(), encoding="utf-8")
    save_checkpoint(out / "checkpoint.npz", mconfig, best, label_list)
    save_checkpoint(out / "final.npz", mconfig, final, label_list)
    if args.dump_attention:
        rows = [("image_id", "alpha_kg", "alpha_sg")]
        rows += [(i, f"{a:.12g}", f"{b:.12g}")
                 for i, a, b in collect_attention(splits["val"], best, table, mconfig)]
        (out / "attention.csv").write_text(csv_text(rows), encoding="utf-8")
    best_f = log.records[best_epoch].val_macro_f if log.records else float("nan")
    print(f"trained {tconfig.epochs} epochs; {param_count(mconfig)} parameters; "
          f"best val macro F {best_f:.2f} at epoch {best_epoch}")
    return 0


def cmd_eval(args) -> int:
    write_manifest(args.out, "eval", vars(args), {
        "bundle": args.bundle, "embeddings": args.embeddings,
        "checkpoint": args.checkpoint})
    # labels first: an edited labels.txt is a mismatch with the checkpoint
    label_list = dataset.read_labels(Path(args.bundle) / "labels.txt")
    mconfig, params = load_checkpoint(args.checkpoint, labels=label_list)
    if mconfig.num_labels != len(label_list):
        raise ConfigError(
            f"checkpoint has {mconfig.num_labels} labels, bundle {len(label_list)}")
    splits, _ = dataset.load_bundle(args.bundle)
    table = load_embeddings(args.embeddings, dim=mconfig.embed_dim)
    if args.split not in splits:
        raise ConfigError(f"bundle has no split '{args.split}'")
    if not splits[args.split]:
        raise ConfigError(f"bundle split '{args.split}' has no examples")
    policy = policy_from_args(args)
    report = evaluation.evaluate_dataset(
        splits[args.split], params, table, mconfig, label_list, policy)
    out = Path(args.out)
    (out / "per_label.csv").write_text(report.per_label_csv(), encoding="utf-8")
    metrics = {
        "split": args.split,
        "macro_f": report.macro_f,
        "micro_f": report.micro_f,
        "threshold": report.threshold,
    }
    (out / "metrics.json").write_text(
        json.dumps(metrics, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{args.split} macro F {report.macro_f:.2f}, micro F {report.micro_f:.2f}")
    return 0


def cmd_ablate(args) -> int:
    if (args.layers is None) == (not args.graphs):
        raise ConfigError("choose exactly one of --layers or --graphs")
    write_manifest(args.out, "ablate", vars(args), {
        "bundle": args.bundle, "embeddings": args.embeddings})
    splits, label_list, table = _load_inputs(args)
    mconfig = model_config_from_args(args, len(label_list))
    tconfig = train_config_from_args(args)
    if args.layers is not None:
        try:
            k_values = [int(k) for k in args.layers.split(",") if k]
        except ValueError:
            k_values = []
        if not k_values or min(k_values) < 1 or len(set(k_values)) < len(k_values):
            raise ConfigError(f"bad --layers list '{args.layers}': "
                              "give distinct integer depths >= 1")
        logs = evaluation.ablate("gcn_layers", k_values, splits["train"], splits["val"],
                                 label_list, table, mconfig, tconfig)
        logs = {f"k{k}": log for k, log in logs.items()}
    else:
        logs = evaluation.ablate("graph_mode", ("sg_only", "kg_only", "both"),
                                 splits["train"], splits["val"], label_list, table,
                                 mconfig, tconfig)
    out = Path(args.out)
    (out / "ablation.csv").write_text(ablation_csv(logs), encoding="utf-8")
    for variant, log in logs.items():
        final = log.records[-1].val_macro_f if log.records else float("nan")
        print(f"{variant}: final val macro F {final:.2f}")
    return 0


def cmd_gradcheck(args) -> int:
    if not 0 < args.tolerance < math.inf:  # refuses nan too
        raise ConfigError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    mconfig = ModelConfig(
        num_labels=args.labels_count, embed_dim=args.embed_dim,
        hidden_dim=args.hidden_dim, gcn_layers=args.gcn_layers,
        fusion_mode="concat", seed=args.seed)
    modes = [args.fusion] if args.fusion != "both" else list(FUSION_MODES)
    failed = False
    for mode in modes:
        for head in LOSS_MODES:
            report = gradcheck(replace(mconfig, fusion_mode=mode, loss_mode=head),
                               seed=args.seed, tolerance=args.tolerance)
            print(f"fusion={mode} loss={head}:")
            for line in report.lines():
                print("  " + line)
            print(f"  max_rel_err={report.max_error:.3e} "
                  f"{'PASS' if report.ok else 'FAIL'} (tolerance {report.tolerance:g})")
            failed = failed or not report.ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symgraph",
        description="Scene-graph + knowledge-graph symbol classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}

    def new_sub(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, help="key=value defaults file")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
        subs[name] = p
        return p

    p = new_sub("prepare", cmd_prepare, "build a dataset bundle from raw inputs")
    p.add_argument("--scene-dir", required=True)
    p.add_argument("--facts", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--match-tail", action="store_true")
    p.add_argument("--reverse-edges", action="store_true")

    p = new_sub("synth", cmd_synth, "generate a planted-signal synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--labels-count", type=int, default=2)
    p.add_argument("--examples", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--embed-dim", type=int, default=16)
    p.add_argument("--embed-scale", type=float, default=2.0)
    p.add_argument("--dual-signal", action="store_true")

    p = new_sub("train", cmd_train, "train a model on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-attention", action="store_true")
    add_model_flags(p)
    add_train_flags(p)
    add_policy_flags(p)

    p = new_sub("eval", cmd_eval, "evaluate a checkpoint on a bundle split")
    p.add_argument("--bundle", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    add_policy_flags(p)

    p = new_sub("ablate", cmd_ablate, "layer-depth or graph ablation sweep")
    p.add_argument("--bundle", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", default=None, help="comma-separated GCN depths")
    p.add_argument("--graphs", action="store_true")
    add_model_flags(p)
    add_train_flags(p)
    add_policy_flags(p)

    p = new_sub("gradcheck", cmd_gradcheck,
                "finite-difference gradient check, both output heads")
    p.add_argument("--embed-dim", type=int, default=6)
    p.add_argument("--hidden-dim", type=int, default=8)
    p.add_argument("--gcn-layers", type=int, default=3)
    p.add_argument("--labels-count", type=int, default=4)
    p.add_argument("--fusion", default="both", choices=["both", *FUSION_MODES],
                   help="fusion mode to check; both (the default) checks every mode")
    p.add_argument("--tolerance", type=float, default=1e-4)

    return parser, subs


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        path = config_path(argv[1:]) if argv and argv[0] in subs else None
        from_file = [] if path is None else config_args(subs[argv[0]], path)
        args, extra = parser.parse_known_args(argv[:1] + from_file + argv[1:])
        for flag in from_file:
            if flag in extra:
                key = flag[2:].split("=", 1)[0]
                raise ConfigError(f"{path}: unknown config key '{key}'")
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except USAGE_ERRORS + PATH_ERRORS as exc:  # an OS message names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""One measured workload run, in a fresh process started by ``run.py``.

Every workload runs the three user paths of symgraph on its own generated
inputs: training (``training.train``), classification
(``evaluation.evaluate_dataset``, whole split per call and one example per
call) and ingestion (``dataset.prepare``, ``write_bundle`` + ``load_bundle``,
``load_embeddings``).  The inputs are sized so that the workload's own path
takes most of the run; the other two run at probe size so every metric has
a value on every workload.

Other tenants of the machine slow it by tens of percent for stretches of
seconds, so the run is a sequence of short rounds of the three paths,
interleaved over the whole ``--seconds``: every path sees the same mix of
quiet and busy stretches.  Throughputs and mean times are totals over all
rounds; percentiles are taken within each round and averaged over the
rounds, since the pooled median of a run that is half quiet, half busy
jumps between the two.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it times a fixed amount of work untraced, repeats it with spans installed
around the program's public functions, and prints the per-layer split.
The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symgraph import dataset, embeddings, evaluation, model, training
from symgraph.model import ModelConfig
from symgraph.training import TrainConfig

import reference
from tracer import Tracer, assert_untraced, targets_for

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORTS = ("import numpy, symgraph.dataset, symgraph.embeddings, "
           "symgraph.evaluation, symgraph.model, symgraph.training")
PROB_TOL = 1e-9
LEARNABLE_MIN_F = 95.0
SETUP_REPEATS = 5
EPOCHS = 50  # criterion 7's run length; training restarts after it
ROUND_EPOCHS = 5  # epochs per training round
MIN_ROUNDS = 4  # per path
PATHS = ("ingest", "infer", "train")
clock = time.perf_counter


@dataclass
class Plan:
    """What one workload runs.  ``shares`` split the run's time between
    the training, classification and ingestion rounds."""

    shares: dict
    main: str
    train_slice: tuple = None  # (n_train, n_val) for a probe-size run
    learnable: bool = False  # planted signal: best val macro F must reach 95
    trace_epochs: int = 5
    model_config: dict = field(default_factory=dict)


PLANS = {
    # Criterion-7 gate config: 3-node graphs, so per-op Python and tape
    # overhead dominate; the path a batched forward/backward targets.
    "train_small": Plan(
        shares={"train": 0.6, "infer": 0.15, "ingest": 0.25}, main="train_examples_per_s",
        learnable=True, trace_epochs=10,
        model_config=dict(embed_dim=16, hidden_dim=128, gcn_layers=2,
                          fusion_mode="attention")),
    # ~200-node knowledge graphs through an untrained 3-layer model: per-node
    # and per-edge loops plus real matmul flops, no tape or SGD.  Its
    # ingestion reads a 50k-fact store and a 10k-row embedding file.
    "infer_large": Plan(
        shares={"train": 0.1, "infer": 0.55, "ingest": 0.35}, main="infer_examples_per_s",
        train_slice=(1, 1)),
}


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Run:
    def __init__(self, args, plan: Plan, inputs: dict):
        self.args = args
        self.plan = plan
        self.inputs = inputs
        self.seed = args.seed
        self.work = Path(args.work)
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = []
        self.samples = defaultdict(list)  # seconds, one value per call or round
        self.spent = dict.fromkeys(PATHS, 0.0)
        self.rounds_done = dict.fromkeys(PATHS, 0)
        self.train_params = None  # each training round continues from these
        self.train_records = []
        self.trained = 0  # examples trained on over all training rounds
        self.first_bulk = None
        self.ingest_checked = False
        self.digests = []
        self.deferred = None  # a list while tracing: checks wait for uninstall

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    def later(self, fn, *args):
        """Run an output check now, or after the tracer is removed."""
        if self.deferred is None:
            fn(*args)
        else:
            self.deferred.append((fn, args))

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        """What a user pays before the first timed call: bundle, embedding
        table and model."""
        t0 = clock()
        if "checkpoint" in self.inputs:
            cfg, params = model.load_checkpoint(self.inputs["checkpoint"])
        else:
            labels = dataset.read_labels(self.inputs["labels"])
            cfg = ModelConfig(num_labels=len(labels), seed=self.seed,
                              **self.plan.model_config)
            params = model.init_params(cfg)
        self.splits, self.labels = dataset.load_bundle(self.inputs["bundle"])
        self.table = embeddings.load_embeddings(self.inputs["embeddings"],
                                                dim=self.inputs["dim"])
        self.cfg, self.params = cfg, params
        return clock() - t0

    def setup(self, repeats):
        """(median seconds to start Python and import the program, median
        seconds of ``setup_once``); imports are timed in fresh processes."""
        imports = []
        for _ in range(repeats):
            t0 = clock()
            subprocess.run([sys.executable, "-c", IMPORTS], check=True)
            imports.append(clock() - t0)
        loads = [self.setup_once() for _ in range(repeats)]
        return statistics.median(imports), statistics.median(loads)

    # -- training ----------------------------------------------------------

    def train_data(self):
        """The train and val splits, or for a probe the examples of median
        size, so that the probe's cost does not swing with the seed."""
        train, val = self.splits["train"], self.splits["val"]
        if self.plan.train_slice:
            n_train, n_val = self.plan.train_slice
            train, val = _median_sized(train, n_train), _median_sized(val, n_val)
        return train, val

    def train(self, epochs, params=None):
        """One ``training.train`` call, from ``params`` or fresh ones;
        returns the final parameters, the run log and the call's wall
        time."""
        train, val = self.train_data()
        tconfig = TrainConfig(epochs=epochs, batch_size=min(32, len(train)),
                              lr=1e-3, seed=self.seed)
        if params is None:
            params = model.init_params(self.cfg)
        gc.collect()
        t0 = clock()
        params, log, _, _ = training.train(train, val, self.labels, self.table, self.cfg,
                                           tconfig, params=params)
        wall = clock() - t0
        losses = [r.train_loss for r in log.records]
        self.attempted += epochs
        self.failed += sum(not np.isfinite(v) for v in losses)
        self.check(len(losses) == epochs, f"{len(losses)} of {epochs} epochs logged")
        return params, log, wall

    def train_round(self):
        """ROUND_EPOCHS more epochs of a training run that goes on across
        rounds and starts again from fresh parameters every EPOCHS epochs,
        so every run times the same epochs."""
        if len(self.train_records) % EPOCHS == 0:
            self.train_params = None
        self.train_params, log, wall = self.train(ROUND_EPOCHS, self.train_params)
        secs = [r.seconds for r in log.records]
        self.samples["train"].append(wall)
        self.samples["epoch_p50"].append(percentile(secs, 50))
        self.samples["epoch_p80"].append(percentile(secs, 80))
        self.trained += ROUND_EPOCHS * len(self.train_data()[0])
        self.train_records += log.records

    def finish_train(self):
        losses = [r.train_loss for r in self.train_records]
        best = max(r.val_macro_f for r in self.train_records)
        self.notes.append(f"train: {len(losses)} epochs, final loss {losses[-1]:.9g}, "
                          f"best val macro F {best:.2f}")
        if self.plan.learnable and not self.args.smoke:
            self.check(best >= LEARNABLE_MIN_F,
                       f"best val macro F {best:.2f} < {LEARNABLE_MIN_F}")

    # -- classification ----------------------------------------------------

    def infer_round(self):
        """The test split in one call (bulk), then one example per call;
        returns examples per second of the bulk call."""
        data = self.splits["test"]
        args = (self.params, self.table, self.cfg, self.labels)
        gc.collect()
        t0 = clock()
        bulk = evaluation.evaluate_dataset(data, *args)
        bulk_s = clock() - t0
        singles, times = [], []
        for ex in data:
            t0 = clock()
            singles.append(evaluation.evaluate_dataset([ex], *args))
            times.append(clock() - t0)
        self.attempted += 1 + len(data)
        if self.first_bulk is None:
            self.first_bulk = bulk
            self.later(self.check_probabilities, singles)
        self.later(self.check_agreement, bulk, singles)
        self.samples["bulk"].append(bulk_s)
        self.samples["single_p50"].append(percentile(times, 50))
        self.samples["single_p95"].append(percentile(times, 95))
        return len(data) / bulk_s

    def check_agreement(self, bulk, singles):
        self.check(np.array_equal(_counts(bulk), _counts(self.first_bulk)),
                   "bulk reports differ between rounds")
        self.check(np.array_equal(np.sum([_counts(r) for r in singles], axis=0),
                                  _counts(bulk)),
                   "single-example predictions disagree with the bulk call")

    def check_probabilities(self, singles):
        """Sampled examples against the dense reference: probabilities at
        1e-9 and the predicted label set the single-example report implies."""
        data = self.splits["test"]
        picks = sorted({0, len(data) // 2, len(data) - 1})
        words = set().union(*(reference.graph_words(g) for i in picks
                              for g in (data[i].scene_graph, data[i].knowledge_graph)))
        vectors = reference.read_vectors(self.inputs["embeddings"], words)
        weights = {p.name: p.value for p in self.params}
        for i in picks:
            ex = data[i]
            ref = reference.reference_probs(ex, self.cfg, weights, vectors, self.inputs["dim"])
            got = model.forward(ex, self.params, self.table, self.cfg)[0].data
            dev = float(np.abs(got - ref).max())
            self.check(dev <= PROB_TOL,
                       f"{ex.image_id}: probabilities off the dense reference by {dev:.3g}")
            want = {self.labels[c] for c in np.flatnonzero(ref > 1.0 / len(self.labels))}
            said = {row.label for row in singles[i].per_label if row.tp + row.fp}
            self.check(want == said,
                       f"{ex.image_id}: predicted {sorted(said)}, reference {sorted(want)}")

    # -- ingestion ---------------------------------------------------------

    def ingest_round(self):
        """prepare, then write_bundle + load_bundle, then load_embeddings;
        returns prepared examples per second."""
        raw = self.inputs
        # a new directory, as `symgraph prepare` writes; rewriting files in
        # place would make ext4 start writing them out on close (auto_da_alloc)
        out = self.work / f"bundle-{len(self.samples['prepare'])}"
        # The CLI ingests in a fresh process: keep the objects this run holds
        # (bundle, table, model) out of the collector's scans while timing.
        gc.collect()
        gc.freeze()
        try:
            t0 = clock()
            examples, labels = dataset.prepare(raw["scene_dir"], raw["facts"],
                                               raw["vocab"], raw["labels"])
            t1 = clock()
            splits = dataset.split_ids([ex.image_id for ex in examples], self.seed)
            t2 = clock()
            dataset.write_bundle(out, examples, labels, splits)
            loaded, loaded_labels = dataset.load_bundle(out)
            t3 = clock()
            table = embeddings.load_embeddings(raw["embeddings"], dim=raw["dim"])
            t4 = clock()
        finally:
            gc.unfreeze()
            shutil.rmtree(out, ignore_errors=True)
        self.attempted += 3
        docs = self.n_docs()
        self.check(len(examples) == docs, f"prepare gave {len(examples)} of {docs} examples")
        rate = docs / (t1 - t0)
        self.samples["prepare"].append(t1 - t0)
        self.samples["roundtrip"].append(t3 - t2)
        self.samples["embeddings"].append(t4 - t3)
        if not self.ingest_checked:
            self.ingest_checked = True
            self.later(self.check_ingest, examples, labels, splits, loaded, loaded_labels,
                       table)
        else:
            self.later(self.record_digest, examples)
        return rate

    def record_digest(self, examples):
        canon = repr([reference.canon_example(ex) for ex in examples])
        self.digests.append(hashlib.sha256(canon.encode("utf-8")).hexdigest())

    def n_docs(self):
        return len(list(Path(self.inputs["scene_dir"]).glob("*.json")))

    def store(self):
        raw = self.inputs
        return (reference.read_store(raw["facts"]),
                reference.read_vocab(raw["vocab"], raw["labels"]))

    def check_ingest(self, examples, labels, splits, loaded, loaded_labels, table):
        """Sampled knowledge graphs against a scan of the written store, the
        bundle round trip, and sampled embedding rows against the file."""
        self.record_digest(examples)
        store, vocab = self.store()
        scene_dir = Path(self.inputs["scene_dir"])
        picks = sorted({0, len(examples) // 3, 2 * len(examples) // 3, len(examples) - 1})
        for i in picks:
            ex = examples[i]
            tokens = reference.doc_tokens(scene_dir / f"{ex.image_id}.json")
            want = reference.brute_force_kg(tokens, store, vocab)
            self.check(reference.kg_as_names(ex.knowledge_graph) == want,
                       f"{ex.image_id}: knowledge graph differs from a scan of the store")
        by_id = {ex.image_id: reference.canon_example(ex) for ex in examples}
        self.check(loaded_labels == labels, "load_bundle changed the label list")
        for name, ids in splits.items():
            got = [reference.canon_example(ex) for ex in loaded[name]]
            self.check(got == [by_id[i] for i in ids],
                       f"split '{name}' does not round-trip through the bundle")
        sample = sorted(table.entries)[:: max(1, len(table.entries) // 5)]
        vectors = reference.read_vectors(self.inputs["embeddings"], sample)
        self.check(all(np.array_equal(table.entries[w], vectors[w]) for w in sample),
                   "embedding vectors differ from the file")

    def admit_ratio(self):
        store, vocab = self.store()
        scene_dir = Path(self.inputs["scene_dir"])
        tokens = [reference.doc_tokens(p) for p in sorted(scene_dir.glob("*.json"))]
        return reference.admit_ratio(tokens, store, vocab)

    # -- runs --------------------------------------------------------------

    def rounds(self):
        """Rounds of the three paths until ``--seconds`` have passed and
        each path has its minimum; the next round goes to the path furthest
        below its share of the time spent, which spreads every path over
        the whole run."""
        step = {"train": self.train_round, "infer": self.infer_round,
                "ingest": self.ingest_round}
        end = clock() + self.args.seconds
        while True:
            pending = [p for p in PATHS if self.needs(p)]
            if not pending and clock() < end and not self.args.smoke:
                pending = list(PATHS)
            if not pending:
                return
            path = min(pending, key=lambda p: self.spent[p] / self.plan.shares[p])
            t0 = clock()
            step[path]()
            self.spent[path] += clock() - t0
            self.rounds_done[path] += 1

    def needs(self, path) -> bool:
        if self.args.smoke:
            return self.rounds_done[path] == 0
        if path == "train" and self.plan.learnable and len(self.train_records) < EPOCHS:
            return True
        return self.rounds_done[path] < MIN_ROUNDS

    def finish_rounds(self):
        self.check(len(set(self.digests)) == 1, "prepare gave different examples on a repeat")
        samples = self.samples
        mean = statistics.fmean
        m = self.metric
        m("train_examples_per_s", self.trained / sum(samples["train"]), "examples/s")
        m("epoch_s_p50", mean(samples["epoch_p50"]), "s")
        m("epoch_s_p80", mean(samples["epoch_p80"]), "s")
        m("infer_examples_per_s", len(samples["bulk"]) * len(self.splits["test"])
          / sum(samples["bulk"]), "examples/s")
        m("predict_ms_p50", 1e3 * mean(samples["single_p50"]), "ms")
        m("predict_ms_p95", 1e3 * mean(samples["single_p95"]), "ms")
        m("prepare_examples_per_s", len(samples["prepare"]) * self.n_docs()
          / sum(samples["prepare"]), "examples/s")
        m("bundle_roundtrip_s", mean(samples["roundtrip"]), "s")
        m("embeddings_load_s", mean(samples["embeddings"]), "s")
        self.notes.append("samples: " + ", ".join(f"{k} {len(v)}" for k, v in samples.items()))
        self.notes.append("seconds per path: " + ", ".join(
            f"{p} {self.spent[p]:.2f} in {self.rounds_done[p]} rounds" for p in PATHS))

    def run_untraced(self):
        assert_untraced()
        imports_s, loads_s = self.setup(1 if self.args.smoke else SETUP_REPEATS)
        self.metric("setup_s", imports_s + loads_s, "s")
        self.notes.append(f"setup: imports {imports_s:.4f} s + loads {loads_s:.4f} s "
                          "(medians of repeats)")
        self.rounds()
        self.finish_train()
        self.finish_rounds()
        assert_untraced()
        self.metric("peak_rss_mb", _peak_rss_mb(), "MB")
        self.metric("ops_ok_ratio", (self.attempted - self.failed) / self.attempted, "ratio")

    def fixed_pass(self, epochs):
        """One ingest round, one training call from fresh parameters, one
        infer round.  Returns (wall seconds, main-metric throughput, examples
        forwarded)."""
        t_pass = clock()
        rates = {"prepare_examples_per_s": self.ingest_round()}
        _, self.train_log, wall = self.train(epochs)
        train, val = self.train_data()
        rates["train_examples_per_s"] = len(train) * epochs / wall
        rates["infer_examples_per_s"] = self.infer_round()
        forwarded = epochs * (len(train) + len(val)) + 2 * len(self.splits["test"])
        return clock() - t_pass, rates[self.plan.main], forwarded

    def run_traced(self):
        assert_untraced()
        self.setup(1)
        epochs = 2 if self.args.smoke else self.plan.trace_epochs
        _, untraced_rate, _ = self.fixed_pass(epochs)
        tracer = Tracer(f"{self.args.workload}-{self.seed}", targets_for(self.cfg.fusion_mode))
        self.first_bulk = None  # re-run the output checks on the traced pass
        self.ingest_checked, self.deferred = False, []
        tracer.install()
        try:
            wall, traced_rate, forwarded = self.fixed_pass(epochs)
        finally:
            tracer.uninstall()
        for fn, args in self.deferred:
            fn(*args)
        self.check(len(set(self.digests)) == 1, "prepare gave different examples on a repeat")
        tracer.write_spans(self.args.spans)
        print(tracer.table())
        self.layer_metrics(tracer, wall, forwarded, traced_rate / untraced_rate)

    def layer_metrics(self, tr: Tracer, wall, forwarded, overhead):
        per_ex = 1.0 / max(forwarded, 1)
        m = self.metric
        m("tensor.record_calls_per_example", tr.calls("tensor.Tape.record") * per_ex, "count")
        m("tensor.tensor_inits_per_example", tr.calls("tensor.Tensor.__init__") * per_ex, "count")
        m("tensor.backward_self_s", tr.self_s("tensor.backward"), "s")
        m("tensor.sgd_step_self_s", tr.self_s("tensor.sgd_step"), "s")
        m("tensor.neighbor_mean_self_s", tr.self_s("tensor.neighbor_mean"), "s")
        m("tensor.matmul_self_s", tr.self_s("tensor.matmul"), "s")
        m("tensor.matmul_flops_per_example", tr.flops * per_ex, "flop")
        m("model.forward_s", tr.total_s("model.forward"), "s")
        m("model.encode_nodes_self_s", tr.self_s("model.encode_nodes"), "s")
        m("model.gcn_layer_self_s", tr.self_s("model.gcn_layer"), "s")
        m("model.readout_self_s", tr.self_s("model.readout_sum"), "s")
        m("model.fusion_self_s", tr.self_s("model.fuse_concat", "model.attention_fuse"), "s")
        m("model.classify_self_s", tr.self_s("model.classify"), "s")
        m("embeddings.embed_phrase_calls_per_example",
          tr.calls("embeddings.embed_phrase") * per_ex, "count")
        m("embeddings.embed_phrase_self_s", tr.self_s("embeddings.embed_phrase"), "s")
        m("embeddings.load_embeddings_s", tr.total_s("embeddings.load_embeddings"), "s")
        m("graphs.load_facts_s", tr.total_s("graphs.load_facts"), "s")
        m("graphs.build_knowledge_graph_self_s", tr.self_s("graphs.build_knowledge_graph"), "s")
        m("graphs.validate_graph_self_s", tr.self_s("graphs.validate_graph"), "s")
        m("graphs.kg_admit_ratio", self.admit_ratio(), "ratio")
        m("dataset.prepare_self_s", tr.self_s("dataset.prepare"), "s")
        m("dataset.write_bundle_s", tr.total_s("dataset.write_bundle"), "s")
        m("dataset.load_bundle_s", tr.total_s("dataset.load_bundle"), "s")
        m("training.loss_self_s", tr.self_s("training.loss"), "s")
        m("training.train_epoch_self_s", tr.self_s("training.train_epoch"), "s")
        m("training.loss_final", self.train_log.records[-1].train_loss, "nat")
        m("evaluation.evaluate_dataset_self_s", tr.self_s("evaluation.evaluate_dataset"), "s")
        m("evaluation.f_scores_s", tr.total_s("evaluation.f_scores"), "s")
        m("unattributed_s", wall - tr.covered_s(), "s")
        m("trace.overhead_ratio", overhead, "ratio")
        m("trace.missing_rows", len(tr.missing_rows()), "count")
        self.notes.append(f"traced pass: {wall:.3f} s wall, {forwarded} examples forwarded, "
                          f"traced/untraced {self.plan.main} {overhead:.3f}")


def _median_sized(examples, k):
    def size(ex):
        g, s = ex.knowledge_graph, ex.scene_graph
        return (len(g.nodes) + len(g.edges) + len(s.nodes) + len(s.edges), ex.image_id)

    ranked = sorted(examples, key=size)
    start = max(0, len(ranked) // 2 - k // 2)
    return ranked[start:start + k]


def _counts(report):
    return np.array([[row.tp, row.fp, row.fn] for row in report.per_label])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="one benchmark workload run")
    p.add_argument("--workload", required=True, choices=sorted(PLANS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    for var in BLAS_VARS:
        if not os.environ.get(var, "").isdigit():
            print(f"{var} must pin the BLAS thread count before numpy loads",
                  file=sys.stderr)
            return 2
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    run = Run(args, PLANS[args.workload], inputs)
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        run.run_traced() if args.trace else run.run_untraced()
    except Exception:  # the program failed: report it, then exit non-zero
        run.attempted += 1
        run.failed += 1
        traceback.print_exc()
    for note in run.notes:
        print(note)
    for name, m in sorted(run.metrics.items()):
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    ok = run.failed == 0
    print(json.dumps({"correct": ok, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": run.metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

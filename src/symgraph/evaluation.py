"""Thresholding of the configured output head's scores (softmax probabilities
or per-label sigmoids), F-score reporting, and ablation harnesses.

F-scores are reported on a 0..100 scale.  Per label, counts are pooled over
examples (micro within the label); the headline macro F is the unweighted
mean over labels.  A micro aggregate over pooled counts is emitted too.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError
from .model import ModelConfig, forward_batch, pack_batch
from .training import TrainConfig, keep_freed_heap, train

# Evaluation forwards examples in chunks of at most this many nodes (both
# graphs counted; a chunk holds at least one example).  A chunk computes one
# row per distinct content (``GraphBatch.plan``), and knowledge graphs that
# share objects share rows, so larger chunks compute fewer rows per example.
# Bulk ``evaluate_dataset`` on the infer_large benchmark's seed-1 splits (one
# BLAS thread, medians of 24 and 12 interleaved repeats in one process, peak
# traced allocations after the slash):
#
#   nodes per chunk        2048         4096         8192         16384        32768
#   test  (30 ex., 6,600)  36.8 / 1.7   30.2 / 2.6   26.6 / 3.5   26.8 / 3.5   -
#   train (90 ex., 19,963) 111 / 1.8    -            81.7 / 5.2   78.1 / 8.2   74.8 / 9.9
#
# (ms / MiB).  8192 holds the test split in one chunk; past it, each doubling
# gains under 5% for about twice the memory.
MAX_CHUNK_NODES = 8192


POLICY_KINDS = ("uniform_prior", "top_k", "fixed")


@dataclass
class ThresholdPolicy:
    """How a probability vector becomes a predicted label set."""

    kind: str = "uniform_prior"  # one of POLICY_KINDS
    k: int = 1
    tau: float = 0.5

    def __post_init__(self):  # each of these gave a metric, silently wrong
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown threshold policy '{self.kind}'")
        if self.k < 1:
            raise ConfigError(f"threshold policy k must be >= 1, got {self.k}")
        if not math.isfinite(self.tau):
            raise ConfigError(f"threshold policy tau must be finite, got {self.tau}")

    def describe(self):
        if self.kind == "top_k":
            return f"top_k(k={self.k})"
        if self.kind == "fixed":
            return f"fixed(tau={self.tau})"
        return "uniform_prior"


@dataclass
class LabelRow:
    label: str
    frequency: int
    f_score: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class MetricsReport:
    macro_f: float
    micro_f: float
    per_label: list = field(default_factory=list)
    threshold: str = "uniform_prior"

    def per_label_csv(self) -> str:
        return csv_text([("label", "frequency", "f_score"),
                         *((r.label, r.frequency, f"{r.f_score:.12g}") for r in self.per_label)])


def csv_text(rows) -> str:
    """CSV text of rows of fields: ``\\n`` line ends, and a field quoted
    only when it holds a comma, a quote or a line break (a label or an
    image id may)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def predict_labels(probs, policy: ThresholdPolicy, label_list,
                   loss_mode: str = "softmax_ce") -> set:
    """Threshold the scores of a ``loss_mode`` head into a label set.

    Default policy predicts labels scoring strictly above the uniform prior:
    1/C over a softmax's C labels, and 0.5 for per-label sigmoids, each its
    own Bernoulli.  An empty prediction set is allowed.
    """
    p = np.asarray(probs, dtype=float)
    if p.shape != (len(label_list),):
        raise DomainError(f"probs shape {p.shape} != ({len(label_list)},)")
    if policy.kind == "top_k":
        chosen = np.argsort(-p, kind="stable")[: policy.k]
        return {label_list[i] for i in chosen}
    if policy.kind == "fixed":
        cutoff = policy.tau
    else:
        cutoff = 0.5 if loss_mode == "sigmoid_bce" else 1.0 / len(label_list)
    return {label_list[i] for i in range(len(label_list)) if p[i] > cutoff}


def f_scores(predictions, truth, label_list,
             policy: ThresholdPolicy = None) -> MetricsReport:
    """Pooled per-label F plus macro and micro aggregates, on a 0..100 scale."""
    if len(predictions) != len(truth):
        raise DomainError("predictions and truth have different lengths")
    labels = set(label_list)
    for sets in (predictions, truth):
        for s in sets:
            bad = set(s) - labels
            if bad:
                raise DomainError(f"label(s) outside configured list: {sorted(bad)}")
    rows = []
    for label in label_list:
        tp = fp = fn = freq = 0
        for pred, true in zip(predictions, truth):
            hit, want = label in pred, label in true
            freq += want
            tp += hit and want
            fp += hit and not want
            fn += want and not hit
        denom = 2 * tp + fp + fn
        f = 100.0 * 2 * tp / denom if denom else 0.0
        rows.append(LabelRow(label, freq, f, tp, fp, fn))
    tp = sum(r.tp for r in rows)
    fp = sum(r.fp for r in rows)
    fn = sum(r.fn for r in rows)
    micro = 100.0 * 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    macro = float(np.mean([r.f_score for r in rows]))
    desc = policy.describe() if policy else "unspecified"
    return MetricsReport(macro, micro, rows, desc)


def chunks(node_counts):
    """Slices of consecutive items holding at most MAX_CHUNK_NODES nodes in
    all (an item with more goes alone), in order."""
    start, total = 0, 0
    for i, n in enumerate(node_counts):
        if i > start and total + n > MAX_CHUNK_NODES:
            yield slice(start, i)
            start, total = i, 0
        total += n
    if start < len(node_counts):
        yield slice(start, len(node_counts))


def packed_chunks(data, table):
    """One batch per chunk of raw examples, each packed straight into one
    union per graph kind; consumed lazily, only one chunk's arrays are alive
    at a time."""
    nodes = [len(ex.knowledge_graph.names) + len(ex.scene_graph.names) for ex in data]
    for part in chunks(nodes):
        yield pack_batch(data[part], table)


def _forward_chunks(batches, params, mconfig: ModelConfig):
    """Untraced (scores, diagnostics) arrays of each packed batch, under the
    allocator setting ``train`` uses (``keep_freed_heap``)."""
    keep_freed_heap()
    for batch in batches:
        scores, diag = forward_batch(batch, params, mconfig)
        yield scores.data, diag


def evaluate_batches(batches, truth, params, mconfig: ModelConfig, label_list,
                     policy: ThresholdPolicy = None) -> MetricsReport:
    """Forward packed batches (untraced), threshold, and score against
    ``truth``, the label set of each of their examples in order."""
    if policy is None:
        policy = ThresholdPolicy()
    predictions = [predict_labels(row, policy, label_list, mconfig.loss_mode)
                   for scores, _ in _forward_chunks(batches, params, mconfig)
                   for row in scores]
    return f_scores(predictions, truth, label_list, policy)


def evaluate_dataset(data, params, table, mconfig: ModelConfig, label_list,
                     policy: ThresholdPolicy = None) -> MetricsReport:
    """Pack and forward the examples chunk by chunk (untraced), threshold,
    and score.  No examples raises ``ConfigError``: over nothing, every F
    would read 0.0."""
    if not len(data):
        raise ConfigError("evaluate_dataset got no examples to score")
    return evaluate_batches(packed_chunks(data, table), [set(ex.labels) for ex in data],
                            params, mconfig, label_list, policy)


def collect_attention(data, params, table, mconfig: ModelConfig):
    """Per-example fusion weights [(image_id, alpha_kg, alpha_sg), ...]."""
    if mconfig.fusion_mode == "concat":
        return []
    alphas = [row for _, diag in _forward_chunks(packed_chunks(data, table), params,
                                                 mconfig)
              for row in diag["alpha"]]
    return [(ex.image_id, float(a[0]), float(a[1])) for ex, a in zip(data, alphas)]


# ---------------------------------------------------------------------------
# ablation harnesses


def ablate(field: str, values, train_data, val_data, label_list, table,
           mconfig: ModelConfig, tconfig: TrainConfig) -> dict:
    """Train one model per value of the ``ModelConfig`` field ``field``
    (``gcn_layers``, ``graph_mode``, ...) with a shared seed; returns
    {value: RunLog} in the order of ``values``."""
    logs = {}
    for value in values:
        cfg = replace(mconfig, **{field: value})
        _, log, _, _ = train(train_data, val_data, label_list, table, cfg, tconfig)
        logs[value] = log
    return logs


def ablation_csv(logs: dict) -> str:
    return csv_text([("variant", "epoch", "val_macro_f"),
                     *((variant, r.epoch, f"{r.val_macro_f:.12g}")
                       for variant, log in logs.items() for r in log.records)])


"""Thresholding of the configured output head's scores (softmax probabilities
or per-label sigmoids), F-score reporting, and ablation harnesses.

F-scores are reported on a 0..100 scale.  Per label, counts are pooled over
examples (micro within the label); the headline macro F is the unweighted
mean over labels.  A micro aggregate over pooled counts is emitted too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError
from .model import ModelConfig, forward_batch, pack_batch
from .training import TrainConfig

# Evaluation forwards examples in chunks of at most this many nodes (both
# graphs counted; a chunk holds at least one example).  On the infer_large
# benchmark's test split (seed 1: 30 examples, 6,600 nodes), bulk
# ``evaluate_dataset`` takes a median 67 ms at 512 nodes (17 chunks), 46 ms
# at 2048 (4 chunks) and 57 ms as one chunk, with peak traced allocations of
# 0.7, 2.9 and 8.8 MB (12 interleaved repeats, one process, 2 cores): fewer
# chunks cut per-op overhead until larger arrays cost more than they save.
MAX_CHUNK_NODES = 2048


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
        lines = ["label,frequency,f_score"]
        for row in self.per_label:
            lines.append(f"{row.label},{row.frequency},{row.f_score:.12g}")
        return "\n".join(lines) + "\n"


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
    """Untraced (scores, diagnostics) arrays of each packed batch."""
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


def ablate_layers(k_values, train_data, val_data, label_list, table,
                  mconfig: ModelConfig, tconfig: TrainConfig) -> dict:
    """Train one model per GCN depth with a shared seed; returns {K: RunLog}."""
    from .training import train

    logs = {}
    for k in k_values:
        cfg = replace(mconfig, gcn_layers=int(k))
        _, log, _, _ = train(train_data, val_data, label_list, table, cfg, tconfig)
        logs[int(k)] = log
    return logs


def ablate_graphs(train_data, val_data, label_list, table, mconfig: ModelConfig,
                  tconfig: TrainConfig, modes=("sg_only", "kg_only", "both")) -> dict:
    """Train single-graph and both-graph variants; returns {mode: RunLog}."""
    from .training import train

    logs = {}
    for mode in modes:
        cfg = replace(mconfig, graph_mode=mode)
        _, log, _, _ = train(train_data, val_data, label_list, table, cfg, tconfig)
        logs[mode] = log
    return logs


def ablation_csv(logs: dict) -> str:
    lines = ["variant,epoch,val_macro_f"]
    for variant, log in logs.items():
        for r in log.records:
            lines.append(f"{variant},{r.epoch},{r.val_macro_f:.12g}")
    return "\n".join(lines) + "\n"


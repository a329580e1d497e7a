"""Multi-label loss and the mini-batch SGD training loop.

``train`` packs its train split once into one disjoint union per graph kind
(``pack_split``), then records one tape per mini-batch: the batch is a row
gather from that union (``model.take``) and its losses are summed.  The
validation split is packed once too, into the chunks evaluation scores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, TrainingError
from .model import (LOSS_MODES, Batch, ModelConfig, ModelParams, forward_batch,
                    init_params, pack_batch, take)
from .rng import child_rng
from .tensor import Tape, Tensor, backward, sgd_step

LOG_EPS = 1e-12  # clamp inside log; keeps the loss finite at hard zeros


@dataclass
class Example:
    image_id: str
    scene_graph: object
    knowledge_graph: object
    labels: list


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    shuffle: bool = True
    loss_mode: str = "softmax_ce"  # or "sigmoid_bce"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"unknown loss_mode '{self.loss_mode}'")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_macro_f: float
    seconds: float


@dataclass
class RunLog:
    records: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_macro_f,seconds"]
        for r in self.records:
            lines.append(
                f"{r.epoch},{r.train_loss:.12g},{r.val_macro_f:.12g},{r.seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


def target_vector(labels, label_list) -> np.ndarray:
    """Multi-hot over the configured labels, normalized to sum 1."""
    if not labels:
        raise DomainError("empty label set")
    idx = {name: i for i, name in enumerate(label_list)}
    t = np.zeros(len(label_list))
    for name in set(labels):
        if name not in idx:
            raise DomainError(f"label '{name}' not in configured label list")
        t[idx[name]] = 1.0
    return t / t.sum()


def loss(probs: Tensor, targets: np.ndarray, tape: Tape = None) -> Tensor:
    """Soft-target cross-entropy summed over rows: -sum t log(p + eps)."""
    return T.scale(
        T.sum_all(T.mul(Tensor(targets), T.log(T.add_const(probs, LOG_EPS, tape), tape),
                        tape), tape),
        -1.0, tape,
    )


def bce_loss(logits: Tensor, targets: np.ndarray, tape: Tape = None) -> Tensor:
    """Per-label binary cross-entropy on sigmoid outputs (alternative head),
    summed over labels and rows; a label is positive where its target is."""
    y = (np.asarray(targets) > 0).astype(np.float64)
    p = T.sigmoid(logits, tape)
    pos = T.mul(Tensor(y), T.log(T.add_const(p, LOG_EPS, tape), tape), tape)
    neg = T.mul(
        Tensor(1.0 - y),
        T.log(T.add_const(T.scale(p, -1.0, tape), 1.0 + LOG_EPS, tape), tape),
        tape,
    )
    return T.scale(T.sum_all(T.add(pos, neg, tape), tape), -1.0, tape)


@dataclass
class PackedSplit:
    """A split packed once into one union per graph kind (``pack_batch``),
    whose per-graph offsets are computed on first use, with the target
    vectors; a mini-batch is a list of row indices, gathered by ``take``."""

    image_ids: list
    batch: Batch
    targets: np.ndarray  # (examples, labels)

    def __len__(self):
        return len(self.image_ids)


def pack_split(examples, table, label_list) -> PackedSplit:
    """Pack a split once: encoder inputs, edge lists and target vectors."""
    targets = np.array([target_vector(ex.labels, label_list) for ex in examples])
    return PackedSplit([ex.image_id for ex in examples], pack_batch(examples, table),
                       targets.reshape(len(examples), len(label_list)))


def batch_loss(split: PackedSplit, rows, params: ModelParams, mconfig: ModelConfig,
               loss_mode: str, tape: Tape = None) -> Tensor:
    """Forward the examples at ``rows`` as one batch; returns their summed loss."""
    batch = Batch(take(split.batch.kg, rows), take(split.batch.sg, rows))
    probs, diag = forward_batch(batch, params, mconfig, tape)
    if loss_mode == "sigmoid_bce":
        return bce_loss(diag["logits"], split.targets[rows], tape)
    return loss(probs, split.targets[rows], tape)


def train_epoch(split: PackedSplit, params: ModelParams, mconfig: ModelConfig,
                tconfig: TrainConfig, rng) -> float:
    """One pass over a packed split; batched, gradient-averaged SGD. Returns
    the mean per-example loss."""
    if not len(split):
        raise ConfigError("empty training data")
    order = np.arange(len(split))
    if tconfig.shuffle:
        order = rng.permutation(len(split))
    total = 0.0
    for start in range(0, len(split), tconfig.batch_size):
        rows = order[start:start + tconfig.batch_size]
        tape = Tape()
        try:  # every op output is scanned, so a non-finite value stops the forward
            lt = batch_loss(split, rows, params, mconfig, tconfig.loss_mode, tape)
        except DomainError as exc:
            ids = [split.image_ids[i] for i in rows]
            raise TrainingError(f"batch of examples {ids}: {exc}") from exc
        total += lt.item()
        backward(tape, lt)
        for p in params:
            p.grad /= len(rows)
        sgd_step(params, tconfig.lr)
    return total / len(split)


def train(train_data, val_data, label_list, table, mconfig: ModelConfig,
          tconfig: TrainConfig, params: ModelParams = None, policy=None):
    """Full run: per-epoch SGD plus validation; returns
    (final params, RunLog, best params by validation macro F, best epoch)."""
    from .evaluation import ThresholdPolicy, evaluate_batches, packed_chunks

    if not train_data or not val_data:
        raise ConfigError("train and validation splits must be nonempty")
    if params is None:
        params = init_params(mconfig)
    if policy is None:
        policy = ThresholdPolicy()
    rng = child_rng(tconfig.seed, "shuffle")
    train_split = pack_split(train_data, table, label_list)
    for ex in val_data:
        target_vector(ex.labels, label_list)  # refuse unknown or no labels up front
    val_truth = [set(ex.labels) for ex in val_data]
    val_batches = list(packed_chunks(val_data, table))
    log = RunLog()
    best = params.copy()
    best_f = -1.0
    best_epoch = -1
    for epoch in range(tconfig.epochs):
        t0 = time.perf_counter()
        mean_loss = train_epoch(train_split, params, mconfig, tconfig, rng)
        report = evaluate_batches(val_batches, val_truth, params, mconfig, label_list,
                                  policy, tconfig.loss_mode)
        seconds = time.perf_counter() - t0
        log.records.append(EpochRecord(epoch, mean_loss, report.macro_f, seconds))
        if report.macro_f > best_f:
            best_f = report.macro_f
            best_epoch = epoch
            best = params.copy()
    return params, log, best, best_epoch

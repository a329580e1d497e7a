"""The mini-batch SGD training loop, on the configured output head's loss
taken from the logits in one taped op (``T.softmax_cross_entropy`` or
``T.sigmoid_cross_entropy``).

``train`` packs its train split once into one disjoint union per graph kind
(``pack_split``), then records one tape per mini-batch: the batch is a row
gather from that union (``model.take``) and its losses are summed.  The
validation split is packed once too, into the chunks evaluation scores.
"""

from __future__ import annotations

import ctypes
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, TrainingError
from .model import (Batch, ModelConfig, ModelParams, forward_logits, init_params,
                    pack_batch, take)
from .rng import child_rng
from .tensor import Tape, Tensor, backward, sgd_step


# mallopt(3) parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
# freed heap kept for reuse, with room over the 12-16 MiB one ~200-node batch frees
_TRIM_THRESHOLD = 64 << 20
# a set trim threshold stops glibc moving this one, so fix it where numpy asks for huge pages
_MMAP_THRESHOLD = 4 << 20


def _keep_freed_heap():
    """Make glibc keep the memory freed between batches in the heap for the
    next batch; does nothing where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None) if sys.platform == "linux" else None,
                      "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")


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
               tape: Tape = None) -> Tensor:
    """Forward the examples at ``rows`` as one batch; returns their summed loss."""
    batch = Batch(take(split.batch.kg, rows), take(split.batch.sg, rows))
    logits, _ = forward_logits(batch, params, mconfig, tape)
    head_loss = (T.sigmoid_cross_entropy if mconfig.loss_mode == "sigmoid_bce"
                 else T.softmax_cross_entropy)
    return head_loss(logits, split.targets[rows], tape)


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
            lt = batch_loss(split, rows, params, mconfig, tape)
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
    (final params, RunLog, best params by validation macro F, best epoch).

    The first ``train()`` call in a process sets glibc's allocator through
    ``mallopt``, and the setting holds for the rest of the process: up to
    64 MiB of freed memory stays in the heap (``M_TRIM_THRESHOLD``; by default
    glibc returns it once 128 KiB is free at the top), and blocks from 4 MiB on
    are mmapped (``M_MMAP_THRESHOLD``, which a set trim threshold would
    otherwise freeze).  Each mini-batch then reuses the pages the previous one
    freed, instead of faulting them in again one page at a time.  It works
    only with glibc; elsewhere nothing is set.  Its cost is resident memory:
    the process keeps up to 64 MiB of freed heap, while peak RSS did not move
    on either benchmark workload (49.8 MB on train_small, 108.8 MB on
    infer_large)."""
    from .evaluation import ThresholdPolicy, evaluate_batches, packed_chunks

    if not train_data or not val_data:
        raise ConfigError("train and validation splits must be nonempty")
    _keep_freed_heap()
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
    best = None  # a copy of the parameters, taken when validation improves
    best_f = -1.0
    best_epoch = -1
    for epoch in range(tconfig.epochs):
        t0 = time.perf_counter()
        mean_loss = train_epoch(train_split, params, mconfig, tconfig, rng)
        report = evaluate_batches(val_batches, val_truth, params, mconfig, label_list,
                                  policy)
        seconds = time.perf_counter() - t0
        log.records.append(EpochRecord(epoch, mean_loss, report.macro_f, seconds))
        if report.macro_f > best_f:
            best_f = report.macro_f
            best_epoch = epoch
            best = params.copy()
    return params, log, params.copy() if best is None else best, best_epoch

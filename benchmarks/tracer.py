"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each target function by a timing wrapper in every
``symgraph`` module that holds it (``model.embed_phrase``,
``training.backward``, ``evaluation.forward``, ...), and the two counted
methods on their classes.  ``uninstall`` puts the originals back.  Spans
(name, start, end, parent, run id) stay in memory until ``write_spans``.

Self time of a span is its duration minus the durations of its child spans;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time

MARK = "__bench_original__"

# (layer, attribute path inside the module, kind).  "span" times the call,
# "count" only counts it (Tensor.__init__ and Tape.record run too often to
# time), "flops" times a matmul and adds 2*m*k*n from the operand shapes.
COMMON_TARGETS = [
    ("tensor", "Tensor.__init__", "count"),
    ("tensor", "Tape.record", "count"),
    ("tensor", "matmul", "flops"),
    ("tensor", "neighbor_mean", "span"),
    ("tensor", "transpose", "span"),
    ("tensor", "add", "span"),
    ("tensor", "mul", "span"),
    ("tensor", "relu", "span"),
    ("tensor", "softmax", "span"),
    ("tensor", "sum_rows", "span"),
    ("tensor", "sum_all", "span"),
    ("tensor", "log", "span"),
    ("tensor", "add_const", "span"),
    ("tensor", "scale", "span"),
    ("tensor", "backward", "span"),
    ("tensor", "sgd_step", "span"),
    ("model", "init_params", "span"),
    ("model", "forward", "span"),
    ("model", "run_tower", "span"),
    ("model", "encode_nodes", "span"),
    ("model", "node_input_vector", "span"),
    ("model", "in_neighbor_lists", "span"),
    ("model", "gcn_layer", "span"),
    ("model", "readout_sum", "span"),
    ("model", "classify", "span"),
    ("embeddings", "load_embeddings", "span"),
    ("embeddings", "embed_phrase", "span"),
    ("graphs", "load_facts", "span"),
    ("graphs", "load_vocab", "span"),
    ("graphs", "load_scene_document", "span"),
    ("graphs", "build_knowledge_graph", "span"),
    ("graphs", "validate_graph", "span"),
    ("graphs", "graph_to_dict", "span"),
    ("graphs", "graph_from_dict", "span"),
    ("dataset", "prepare", "span"),
    ("dataset", "write_bundle", "span"),
    ("dataset", "load_bundle", "span"),
    ("dataset", "read_labels", "span"),
    ("training", "train", "span"),
    ("training", "train_epoch", "span"),
    ("training", "example_loss", "span"),
    ("training", "loss", "span"),
    ("training", "target_vector", "span"),
    ("evaluation", "evaluate_dataset", "span"),
    ("evaluation", "predict_labels", "span"),
    ("evaluation", "f_scores", "span"),
]

# Functions only one fusion mode reaches; the stack/index/smul/concat ops are
# the 1-D shuffles a batched rewrite is expected to delete.
FUSION_TARGETS = {
    "concat": [("model", "fuse_concat", "span"), ("tensor", "concat", "span")],
    "attention": [("model", "attention_fuse", "span"), ("tensor", "stack", "span"),
                  ("tensor", "index", "span"), ("tensor", "smul", "span")],
}


def targets_for(fusion_mode: str) -> list:
    return COMMON_TARGETS + FUSION_TARGETS["concat" if fusion_mode == "concat"
                                            else "attention"]


def _program_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "symgraph" or name.startswith("symgraph."))]


def assert_untraced():
    """Raise if any program function or method is still a benchmark wrapper."""
    for mod in _program_modules():
        for name, value in vars(mod).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"{mod.__name__}.{name} is a tracing wrapper")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, MARK):
                        raise RuntimeError(
                            f"{mod.__name__}.{name}.{attr} is a tracing wrapper")


class Tracer:
    """Collects spans and counts for one traced pass of one workload run."""

    def __init__(self, run_id: str, targets):
        self.run_id = run_id
        self.targets = targets
        self.spans = []  # (name, start, end, parent index)
        self._child = []  # seconds covered by each span's children
        self._stack = []
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.missing = []
        self.flops = 0
        self._undo = []

    def _record(self, name, fn, flops):
        spans, child, stack, stats = self.spans, self._child, self._stack, self.stats
        stats[name] = [0, 0.0, 0.0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flops:
                self.flops += _matmul_flops(*args[:2])
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
                dur = t1 - t0
                if parent >= 0:
                    child[parent] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child[idx]

        setattr(wrapper, MARK, fn)
        return wrapper

    def _count(self, name, fn):
        stats = self.stats
        stats[name] = [0, 0.0, 0.0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[name][0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self):
        modules = _program_modules()
        for layer, path, kind in self.targets:
            name = f"{layer}.{path}"
            mod = sys.modules.get(f"symgraph.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (vars(owner).get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None or not callable(original):
                self.missing.append(name)
                continue
            wrapper = (self._count(name, original) if kind == "count" else
                       self._record(name, original, kind == "flops"))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        assert_untraced()

    def missing_rows(self) -> list:
        """Targets absent from their module or never called in this pass."""
        return sorted(self.missing + [n for n, st in self.stats.items() if st[0] == 0])

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, *names) -> float:
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def covered_s(self) -> float:
        """Wall seconds inside at least one root span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def table(self) -> str:
        lines = [f"{'function':40s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}"]
        for name, (calls, total, own) in sorted(self.stats.items(),
                                                key=lambda kv: -kv[1][2]):
            lines.append(f"{name:40s} {calls:9d} {total:10.4f} {own:10.4f}")
        for name in self.missing_rows():
            lines.append(f"{name:40s} {'MISSING':>9s}")
        return "\n".join(lines)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{name},{start:.9f},{end:.9f},{parent}\n")


def _matmul_flops(a, b) -> int:
    """2*m*k*n (or 2*m*k for a vector rhs), computed from operand shapes."""
    sa, sb = getattr(a, "shape", ()), getattr(b, "shape", ())
    if len(sa) != 2 or len(sb) not in (1, 2):
        return 0
    return 2 * sa[0] * sa[1] * (sb[1] if len(sb) == 2 else 1)

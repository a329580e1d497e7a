"""symgraph benchmark: one seeded workload per fresh process.

    python3 benchmarks/run.py --workload train_small --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload infer_large --seed 1 --seconds 2 --trace 1 --smoke

Each workload run starts two child processes: ``inputs.py`` writes the
seeded inputs, then ``worker.py`` measures the program on them.  Both get a
pinned single-thread BLAS/OpenMP and a fixed hash seed before Python starts,
so numpy never sees another thread count.  The program is imported from the
checkout's own ``src``; without it the command fails without a result.
Scratch files live under ``.bench_work/`` in the checkout and are removed
when the run ends; the traced run leaves its spans in
``.bench_work/spans-<workload>.csv``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train_small", "infer_large")
BLAS_THREADS = "1"  # closed loop, one caller: one core per run, at most nproc
TIME_LIMIT_S = 170.0  # each run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)]),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


def run_child(cmd, deadline, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion, killing it (and waiting) at the deadline."""
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:  # the deadline, or this process being stopped
            proc.kill()
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def flush_files(root: Path):
    """fsync the generated inputs, so their writeback does not throttle the
    bundle writes the worker times."""
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_workload(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        gen = run_child([sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
                         "--seed", str(args.seed), "--out", str(work / "inputs"),
                         "--size", "smoke" if args.smoke else "full"], deadline)
        if gen.returncode != 0:
            print(f"input generation failed with exit code {gen.returncode}", file=sys.stderr)
            return 1
        flush_files(work / "inputs")
        print(f"inputs generated in {time.perf_counter() - t0:.2f} s", flush=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--inputs", str(work / "inputs" / "inputs.json"),
               "--work", str(work), "--spans",
               str(ROOT / ".bench_work" / f"spans-{args.workload}.csv")]
        if args.smoke:
            cmd.append("--smoke")
        return run_child(cmd, deadline).returncode
    except subprocess.TimeoutExpired:
        print(f"run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; prints each metric line and ends
    with one object keyed by workload."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            code = code or 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="symgraph benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and single rounds; finishes in seconds")
    args = p.parse_args(argv)
    # stopped from outside: unwind, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "symgraph" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'symgraph'} is missing", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

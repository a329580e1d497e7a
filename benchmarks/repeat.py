"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/repeat.py --label baseline --seeds 1-10 --trace 0 \
        --out benchmarks/BENCH_baseline.json

Runs ``run.py`` once per (workload, seed), one run at a time, and writes
every value plus the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, per workload and metric.
Compare two such files of the same benchmark code and settings only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    report = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
              "machine": {"nproc": len(os.sched_getaffinity(0)),
                          "python": platform.python_version()},
              "workloads": {}}
    failed = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += proc.returncode != 0 or not result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
        names = sorted(runs[0]["metrics"])
        report["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "metrics": {n: {"unit": runs[0]["metrics"][n]["unit"],
                            **summarise([r["metrics"][n]["value"] for r in runs])}
                        for n in names},
        }
        for n in names:
            s = report["workloads"][workload]["metrics"][n]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {n:42s} median {s['median']:12.6g} {s['unit']:11s} spread {spread}")
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

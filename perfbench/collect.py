#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 0-9 [--trace] [--out FILE]

Runs one benchmark process at a time, each to completion, with the run
length from ``BENCHMARK.json``. For every workload and end-to-end metric it
prints the median, the quartiles and the spread (interquartile range over
the median) next to the metric's bound. ``--trace`` adds one traced run per
workload on the first seed. ``--out`` writes the summary, every run's
metrics and the environment (nproc, Python, numpy, cryptography) as JSON.
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

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{done.stdout}")
    result["elapsed_s"] = elapsed
    # lines run.py prints beside the metrics, not as metrics
    for line in lines:
        for label in ("unscaled op_s.p50", "reference_s mean"):
            if line.startswith(label + " = "):
                result[label] = float(line.split()[-2])
    return result


def environment() -> dict:
    import cryptography
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="like 0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        runs = [run_once(spec, workload, seed, 0) for seed in args.seeds]
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[name]}
            print(f"{workload:17} {name:12} median {median:12.6g}  q1 {q1:12.6g}"
                  f"  q3 {q3:12.6g}  spread {summary[name]['spread']:.4f}"
                  f"  bound {bounds[name]}", flush=True)
        for label in ("unscaled op_s.p50", "reference_s mean"):
            values = [r[label] for r in runs]
            summary[label] = {"median": statistics.median(values),
                              "min": min(values), "max": max(values)}
            print(f"{workload:17} {label}: median {summary[label]['median']:.6g} s,"
                  f" min {min(values):.6g} s, max {max(values):.6g} s", flush=True)
        elapsed = [r["elapsed_s"] for r in runs]
        print(f"{workload:17} process wall time per run: median {statistics.median(elapsed):.1f} s,"
              f" max {max(elapsed):.1f} s", flush=True)
        entry = {"summary": summary, "runs": [r["metrics"] for r in runs],
                 "unscaled_op_s.p50": [r["unscaled op_s.p50"] for r in runs],
                 "reference_s_mean": [r["reference_s mean"] for r in runs],
                 "elapsed_s": elapsed}
        if args.trace:
            entry["per_layer"] = run_once(spec, workload, args.seeds[0], 1)["metrics"]
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every workload, each run in its own fresh process, and print each
metric by name with its unit and sample count.

    python3 perfbench/suite.py                      # seed 1, end-to-end
    python3 perfbench/suite.py --trace 1            # per-layer metrics
    python3 perfbench/suite.py --seeds 1-10 --record perfbench/BASELINE.json

With several seeds it also prints, per metric, the median and the spread
(interquartile range over median).  ``--record`` adds one traced run per
workload and writes medians, quartiles, layer shares and the machine's
facts to the given file.  Exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Development runs used seeds 1-10; this one was kept back to confirm claims.
HELD_OUT_SEED = 9973


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    # run.py prints its table, with sample counts, to stderr and the JSON
    # result as the last line of stdout.
    sys.stdout.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: run.py exited {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    print(f"{workload:13s} {'error_rate':42s} {result['failed'] / result['attempted']:16.6f} "
          f"{'ratio':6s} n={result['attempted']}", flush=True)
    return result


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def layer_shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced operations' time."""
    self_s = {name[:-len(".self_s")]: m["value"] for name, m in metrics.items()
              if name.endswith(".self_s")}
    total = sum(self_s.values())
    return {layer: round(t / total, 4) for layer, t in
            sorted(self_s.items(), key=lambda kv: -kv[1]) if t / total >= 0.005}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--record", metavar="PATH", help="write a baseline file")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    ok = True
    record = {"machine": machine(), "seconds": args.seconds, "seeds": seeds,
              "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            result = run(workload, seed, args.seconds, args.trace)
            ok = ok and result is not None and result["correct"]
            for name, m in (result or {"metrics": {}})["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {}
        if len(seeds) >= 2:
            for name, vals in values.items():
                entry[name] = summary(vals)
                print(f"{workload:13s} {name:42s} median {entry[name]['median']:14.6f} "
                      f"spread {entry[name]['spread']:.4f} n={len(vals)}")
        if args.record:
            traced = run(workload, seeds[0], args.seconds, 1)
            ok = ok and traced is not None and traced["correct"]
            record["workloads"][workload] = {
                "end_to_end": entry,
                "layer_shares": layer_shares(traced["metrics"]) if traced else None,
            }
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

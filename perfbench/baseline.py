#!/usr/bin/env python3
"""Run every workload on several seeds and write the results as a baseline.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each workload this makes one untraced run per seed (seeds 1..N) and
one traced run on seed 1, one after another.  For each end-to-end metric
it records every value, the median, the quartiles and the spread: the
distance between the quartiles as a share of the median.  It also records
the machine and Python version the runs were made on.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    result = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version(),
                    "system": platform.platform()},
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        metrics = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
            for m in spec["end_to_end"]
        }
        traced = run_once(workload, 1, seconds, 1)
        result["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, m in metrics.items():
            print(f"{workload:13s} {name:12s} median {m['median']:12.4f} spread {m['spread']:.4f}",
                  flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the per-layer baseline: two traced runs of every workload.

    python3 perfbench/baseline.py [--seconds 28] [--seed 1]

Writes ``perfbench/baseline.json`` with, for each workload, why it was
chosen, the metrics of two traced runs, whether every count repeated
exactly between them, and the map from each per-layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _traced_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s: traced run failed the gate:\n%s" % (workload, proc.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    counts = [n for n, (unit, _) in spans.LAYER_METRICS.items() if unit == "count"]
    workloads = {}
    for w in bench["workloads"]:
        runs = [_traced_run(w["name"], args.seed + i, args.seconds) for i in range(2)]
        workloads[w["name"]] = {
            "why": w["why"],
            "counts_identical": all(runs[0][n] == runs[1][n] for n in counts),
            "traced_runs": runs,
        }
    record = {
        "machine": "%s, %d CPUs, Python %s"
        % (platform.machine(), os.cpu_count(), platform.python_version()),
        "seconds": args.seconds,
        "moves": {name: moves for name, (_, moves) in spans.LAYER_METRICS.items()},
        "workloads": workloads,
    }
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()

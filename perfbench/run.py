"""wienerseq benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The load is a closed loop with one client: one verdict at a time,
each started after the previous one ended, with jobs=1 and shards=1.  The
workloads are exhaustive, so their inputs are fixed; the seed only orders
the suites inside each ``recheck`` pass.

Workloads:
  census   ``verify --suite order_size:7`` in a fresh process: labeling of
           all graphs on 7 vertices plus the connected filter.
  trees    ``verify --suite odd_trees:12`` in a fresh process: sparse-graph
           labeling along the tree chain, then the odd-tree filter.
  dense    ``explore --class maximal_planar:9``, the same with
           ``--apollonian-only``, then ``verify --suite
           k_degenerate:10,3,k_tree`` in one fresh process: flip closure,
           face insertion and 3-clique attachment, labeling dense graphs.
  recheck  one process warms the class caches, then each pass runs the
           deletion, order-size, connectivity and k-degenerate suites on 7
           vertices through the library: the check phase, no labeling.

With ``--trace 0`` it prints the end-to-end metrics: ``verdict_s`` (median
time from calling the suites to their reports being done), ``setup_s``
(median time from process start to the first timed verdict) and
``peak_rss_mb`` (median peak resident memory of a workload process).  With
``--trace 1`` untraced and traced verdicts take turns and it prints the
per-layer metrics of ``spans.LAYER_METRICS``, medians over the traced
verdicts; counts must repeat exactly between them.

Every verdict, traced or not, goes through the gate in ``gate.py``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when any verdict failed or the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# CLI commands that one fresh process of each cold workload runs, in order.
COLD = {
    "census": (["verify", "--suite", "order_size:7"],),
    "trees": (["verify", "--suite", "odd_trees:12"],),
    "dense": (
        ["explore", "--class", "maximal_planar:9"],
        ["explore", "--class", "maximal_planar:9", "--apollonian-only"],
        ["verify", "--suite", "k_degenerate:10,3,k_tree"],
    ),
}
WORKLOADS = tuple(COLD) + ("recheck",)

# Fewest timed verdicts per run, so a slow machine still yields a median.
MIN_SAMPLES = 3
# Fewest traced and untraced verdicts each per traced run, so that counts
# can be compared between two traced verdicts.
MIN_TRACED = 2
# Recheck processes per untimed run: each is one set-up sample.
RECHECK_PROCESSES = 3
# A worker that has not answered by then has hung.
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _spawn(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in %d s" % WORKER_TIMEOUT_S) from None
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def _run_cold(name: str, seconds: int, trace: bool, tmp: str) -> list:
    deadline = time.monotonic() + seconds
    need = 2 * MIN_TRACED if trace else MIN_SAMPLES
    workers: list[dict] = []
    walls: list[float] = []
    while True:
        i = len(workers)
        argvs = [
            argv + ["--out", os.path.join(tmp, "%d-%d.json" % (i, j))]
            for j, argv in enumerate(COLD[name])
        ]
        mode = "on" if trace and i % 2 else "off"
        start = time.monotonic()
        workers.append(_spawn({"argvs": argvs, "trace": mode, "probe": not trace}))
        walls.append(time.monotonic() - start)
        # Stop when the next worker of this kind would end past the deadline.
        if len(workers) >= need and time.monotonic() + walls[-2 if trace else -1] > deadline:
            return workers


def _run_recheck(seed: int, seconds: int, trace: bool) -> list:
    start = time.monotonic()
    if trace:
        spec = {"trace": "alternate", "probe": False, "until": start + seconds,
                "min": 2 * MIN_TRACED}
        return [_spawn(dict(spec, recheck=True, seed="%d/0" % seed))]
    workers = []
    for i in range(RECHECK_PROCESSES):
        until = start + seconds * (i + 1) / RECHECK_PROCESSES
        spec = {"trace": "off", "probe": True, "until": until, "min": 2}
        workers.append(_spawn(dict(spec, recheck=True, seed="%d/%d" % (seed, i))))
    return workers


def _end_to_end(workers: list) -> dict:
    samples = [s for w in workers for s in w["samples"]]
    rows = {
        "verdict_s": ([s["verdict_s"] for s in samples], [s["wall_s"] for s in samples]),
        "setup_s": ([w["setup_s"] for w in workers], [w["setup_wall_s"] for w in workers]),
    }
    metrics = {}
    for name, (values, walls) in rows.items():
        metrics[name] = {"value": statistics.median(values), "unit": "s"}
        print(
            "%-12s %.4f s  (median of %d; wall %.4f s; samples %s)"
            % (name, metrics[name]["value"], len(values), statistics.median(walls),
               " ".join("%.4f" % v for v in values))
        )
    rss = [w["rss_mb"] for w in workers]
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    print("peak_rss_mb  %.2f MB (median of %d)" % (statistics.median(rss), len(rss)))
    return metrics


def _per_layer(workers: list, problems: list) -> dict:
    samples = [s for w in workers for s in w["samples"]]
    traced = [s["layers"] for s in samples if s["traced"]]
    untraced = statistics.median(s["verdict_s"] for s in samples if not s["traced"])
    values = {}
    for name, (unit, _) in spans.LAYER_METRICS.items():
        if name in ("trace.untraced_verdict_s", "trace.overhead_share"):
            continue
        seen = [layers[name] for layers in traced]
        if unit == "count" and len(set(seen)) > 1:
            problems.append("%s differs between traced verdicts: %s" % (name, seen))
        values[name] = seen[0] if unit == "count" else statistics.median(seen)
    values["trace.untraced_verdict_s"] = untraced
    values["trace.overhead_share"] = values["trace.verdict_s"] / untraced - 1
    print("traced verdicts: %d, untraced: %d" % (len(traced), len(samples) - len(traced)))
    for name, value in values.items():
        print("%-36s %14.6g %s" % (name, value, spans.LAYER_METRICS[name][0]))
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in spans.LAYER_METRICS.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wienerseq" / "__init__.py").is_file():
        print("no package source at %s" % SRC, file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.workload == "recheck":
            workers = _run_recheck(args.seed, args.seconds, trace)
        else:
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
                workers = _run_cold(args.workload, args.seconds, trace, tmp)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    summaries = []
    for w in workers:
        summaries += w["setup_verdicts"]
        for sample in w["samples"]:
            summaries += sample["verdicts"]
    attempted, failed, problems = gate.tally(summaries)
    print(
        "workload %s, seed %d, trace %d: %d processes, %d verdicts attempted, "
        "%d failed, failed_share %.4g"
        % (args.workload, args.seed, args.trace, len(workers), attempted, failed,
           failed / attempted)
    )
    metrics = _per_layer(workers, problems) if trace else _end_to_end(workers)
    for problem in problems:
        print("FAIL %s" % problem)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

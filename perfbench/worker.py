"""One benchmark process: set up, run timed verdicts, print one JSON line.

``run.py`` starts this script with a JSON spec as its only argument and
with ``src`` on ``PYTHONPATH``.  Each process is one sample of set-up time
and peak memory.  Set-up runs from ``t_spawn``, read by the parent just
before it started this process on the system-wide monotonic clock, to
just before the first timed verdict.

Spec keys:
  t_spawn  the parent's monotonic time when it started this process
  argvs    CLI argument lists, run in one fresh process (cold workloads), or
  recheck  true: warm the class caches with one untimed pass of the recheck
           suites, then time passes until ``until``
  seed     orders the suites inside each recheck pass
  trace    "off", "on" (trace the one cold sample) or "alternate"
           (untraced and traced recheck passes take turns)
  probe    true: timings in reference seconds from the speed probe; false
           in traced runs, whose times are all wall seconds
  until    monotonic time after which no recheck pass starts
  min      fewest recheck passes
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time

import gate
import probe

SPEC = json.loads(sys.argv[1])
PROBE = probe.Probe() if SPEC["probe"] else None
if PROBE:
    PROBE.start()


def _timed(tracer, calls) -> tuple[list, float, float]:
    """Results of ``calls`` with their (start, end) on the monotonic clock."""
    start = time.monotonic()
    if tracer is None:
        results = [fn(*args) for fn, args in calls]
    else:
        with tracer.patched():
            results = [tracer.wrap("verdict", fn)(*args) for fn, args in calls]
    return results, start, time.monotonic()


def _seconds(start: float, end: float) -> float:
    return PROBE.reference_s(start, end) if PROBE else end - start


def _sample(tracer, start, end, verdicts) -> dict:
    return {
        "verdict_s": _seconds(start, end),
        "wall_s": end - start,
        "traced": tracer is not None,
        "verdicts": verdicts,
        "layers": tracer.metrics() if tracer else None,
    }


def _new_tracer(traced: bool):
    if not traced:
        return None
    import spans

    return spans.Tracer()


def cold() -> tuple[float, list, list]:
    from wienerseq import cli

    tracer = _new_tracer(SPEC["trace"] == "on")
    calls = [(cli.main, (argv,)) for argv in SPEC["argvs"]]
    with contextlib.redirect_stdout(io.StringIO()):
        rcs, start, end = _timed(tracer, calls)
    verdicts = []
    for argv, rc in zip(SPEC["argvs"], rcs):
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            verdicts.append(gate.summarize(json.load(fh), rc))
    return start, [], [_sample(tracer, start, end, verdicts)]


def recheck() -> tuple[float, list, list]:
    from wienerseq import verifier

    suites = [
        (verifier.verify_deletion_bound, (7,)),
        (verifier.verify_order_size, (7,)),
        (verifier.verify_connectivity, (7, 2)),
        (verifier.verify_k_degenerate, (7, 2)),
    ]
    rng = random.Random(SPEC["seed"])

    def summaries(reports):
        return [gate.summarize(r.to_dict(include_meta=False)) for r in reports]

    reports, _, ready = _timed(None, rng.sample(suites, len(suites)))
    setup_verdicts = summaries(reports)
    samples = []
    last = 0.0
    while len(samples) < SPEC["min"] or time.monotonic() + last <= SPEC["until"]:
        tracer = _new_tracer(SPEC["trace"] == "alternate" and len(samples) % 2 == 1)
        reports, start, end = _timed(tracer, rng.sample(suites, len(suites)))
        last = end - start
        samples.append(_sample(tracer, start, end, summaries(reports)))
    return ready, setup_verdicts, samples


def main() -> None:
    ready, setup_verdicts, samples = recheck() if SPEC.get("recheck") else cold()
    if PROBE:
        PROBE.stop()
    out = {
        "setup_s": _seconds(SPEC["t_spawn"], ready),
        "setup_wall_s": ready - SPEC["t_spawn"],
        "setup_verdicts": setup_verdicts,
        "samples": samples,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

"""Correctness gate: every verdict the benchmark times is checked here.

The expected values do not depend on the canonical labeling, so a labeler
change that rewrites the graph6 records of a report still passes:

- ``graphs_checked`` is the size of the class.  Where a published sequence
  exists it is named; the other counts were recorded from the unmodified
  package and match the tables in ``tests/test_enumeration.py``.
- ``equality_witnesses`` is the number of class members whose distance
  sequence equals the extremal one, recorded from the unmodified package.
- ``violations`` must be empty, the CLI exit code (when there is one) must
  be 0, and ``coverage`` must match (the flip search is complete).
"""

from __future__ import annotations

EXPECTED: dict[str, dict] = {
    # connected graphs on 7 vertices, OEIS A001349
    "order_size:n=7": {"graphs_checked": 853, "equality_witnesses": 51},
    "deletion:n=7": {"graphs_checked": 853, "equality_witnesses": 0},
    # 2-connected graphs on 7 vertices, OEIS A002218
    "connectivity:kappa=2,n=7": {"graphs_checked": 468, "equality_witnesses": 1},
    "k_degenerate:class=maximal_k_degenerate,k=2,n=7": {
        "graphs_checked": 61,
        "equality_witnesses": 1,
    },
    # odd trees on 12 vertices
    "odd_trees:n=12": {"graphs_checked": 13, "equality_witnesses": 1},
    # sphere triangulations on 9 vertices, OEIS A000109
    "maximal_planar:mode=flip,n=9": {
        "graphs_checked": 50,
        "equality_witnesses": 1,
        "coverage": "complete",
    },
    # planar 3-trees (Apollonian networks) on 9 vertices
    "maximal_planar:mode=apollonian,n=9": {
        "graphs_checked": 24,
        "equality_witnesses": 1,
        "coverage": "partial",
    },
    # 3-trees on 10 vertices
    "k_degenerate:class=k_tree,k=3,n=10": {
        "graphs_checked": 275,
        "equality_witnesses": 1,
    },
}


def summarize(report: dict, rc: int | None = None) -> dict:
    """The labeling-independent part of a ``VerificationReport`` dict."""
    params = report["params"]
    return {
        "key": "%s:%s"
        % (report["suite"], ",".join("%s=%s" % (k, params[k]) for k in sorted(params))),
        "graphs_checked": report["graphs_checked"],
        "violations": len(report["violations"]),
        "equality_witnesses": len(report["equality_witnesses"]),
        "coverage": report.get("coverage"),
        "rc": rc,
    }


def check(summary: dict, expected: dict[str, dict] = EXPECTED) -> list[str]:
    """Problems with one verdict; an empty list means it passed."""
    key = summary["key"]
    want = expected.get(key)
    if want is None:
        return ["%s: no expected values" % key]
    problems = []
    if summary["rc"] not in (None, 0):
        problems.append("%s: exit code %s" % (key, summary["rc"]))
    if summary["violations"]:
        problems.append("%s: %d violations" % (key, summary["violations"]))
    for field in ("graphs_checked", "equality_witnesses"):
        if summary[field] != want[field]:
            problems.append(
                "%s: %s is %s, expected %s" % (key, field, summary[field], want[field])
            )
    if summary["coverage"] != want.get("coverage"):
        problems.append(
            "%s: coverage is %s, expected %s"
            % (key, summary["coverage"], want.get("coverage"))
        )
    return problems


def tally(
    summaries: list[dict], expected: dict[str, dict] = EXPECTED
) -> tuple[int, int, list[str]]:
    """(verdicts attempted, verdicts failed, problems) over all summaries."""
    failed = 0
    problems: list[str] = []
    for summary in summaries:
        found = check(summary, expected)
        if found:
            failed += 1
            problems.extend(found)
    return len(summaries), failed, problems

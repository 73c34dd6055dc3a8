"""Diff two ``results.json`` runs and fail on performance regressions.

Usage::

    python benchmarks/compare.py BASELINE.json CURRENT.json \
        [--threshold 0.2] [--experiments e18_server_load,e22_optimizer_v2]

``--experiments`` also accepts short ids: a name that matches no
experiment exactly selects every experiment it prefixes, so
``--experiments e13,e22`` tracks ``e13_wal_durability`` and
``e22_optimizer_v2`` without spelling the full ids.

Every structured metric is keyed by ``(experiment, op, variant, rows)``;
for each key present in *both* files the wall-time ratio
``current / baseline`` is computed, and any tracked metric slower by
more than the threshold (default 20%) makes the tool exit non-zero with
a per-metric report.  Keys present in only one file are reported but
never fail the run — a quick smoke writing small sizes cannot be judged
against a full sweep's sizes, and new experiments have no baseline yet.

The intended uses: locally, ``cp benchmarks/results.json /tmp/base.json``
before an optimisation, rerun the relevant benchmark, compare; in CI, a
self-comparison smoke plus back-to-back quick runs guard against
catastrophic (orders-of-magnitude) slowdowns without gating on noisy
shared-runner timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

MetricKey = Tuple[str, str, str, object]


def load_metrics(path: str) -> Dict[MetricKey, float]:
    """The wall-time seconds of every structured metric in a results file,
    keyed by (experiment, op, variant, rows).

    Only the ``experiments`` block participates; document-level metadata
    (the ``machine`` stamp — CPU count, interpreter, timestamp) is
    deliberately ignored, so two runs differing only in *when* or *where*
    they were measured diff clean.  Non-mapping entries under
    ``experiments`` are likewise skipped rather than crashing the diff.
    """
    with open(path) as handle:
        document = json.load(handle)
    experiments = document.get("experiments", {})
    metrics: Dict[MetricKey, float] = {}
    for experiment, entry in experiments.items():
        if not isinstance(entry, dict):
            continue
        for metric in entry.get("metrics", []):
            if "op" not in metric or "seconds" not in metric:
                continue
            key = (
                experiment,
                metric["op"],
                str(metric.get("variant", "")),
                metric.get("rows"),
            )
            metrics[key] = float(metric["seconds"])
    return metrics


def compare(
    baseline: Dict[MetricKey, float],
    current: Dict[MetricKey, float],
    threshold: float,
    experiments: Optional[List[str]] = None,
) -> Tuple[List[str], List[str]]:
    """Compare two metric maps; returns (report lines, regression lines).

    A regression is a shared key whose current wall time exceeds the
    baseline by more than *threshold* (0.2 = 20% slower).

    *experiments* entries match an experiment id exactly, or — when no
    id equals the entry — by prefix (``e22`` selects
    ``e22_optimizer_v2``), so the CLI accepts the short ids the bench
    modules print.
    """
    wanted = set(experiments) if experiments else None
    report: List[str] = []
    regressions: List[str] = []
    shared = sorted(set(baseline) & set(current))
    known = {experiment for experiment, _, _, _ in set(baseline) | set(current)}

    def tracked(experiment: str) -> bool:
        if wanted is None or experiment in wanted:
            return True
        return any(
            name not in known and experiment.startswith(name)
            for name in wanted
        )

    for key in shared:
        experiment, op, variant, rows = key
        if not tracked(experiment):
            continue
        old, new = baseline[key], current[key]
        ratio = (new / old) if old > 0 else float("inf")
        line = (
            f"{experiment} {op} [{variant}, rows={rows}]: "
            f"{old:.4f}s -> {new:.4f}s ({ratio:.2f}x)"
        )
        if ratio > 1.0 + threshold:
            regressions.append(line)
            report.append("REGRESSION  " + line)
        else:
            report.append("ok          " + line)
    only_baseline = set(baseline) - set(current)
    only_current = set(current) - set(baseline)
    if only_baseline:
        report.append(f"({len(only_baseline)} metric(s) only in the baseline run)")
    if only_current:
        report.append(f"({len(only_current)} metric(s) only in the current run)")
    if not shared:
        report.append("no overlapping metrics to compare")
    return report, regressions


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two benchmark results.json runs; fail on regressions."
    )
    parser.add_argument("baseline", help="results.json of the reference run")
    parser.add_argument("current", help="results.json of the run under test")
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="allowed slowdown fraction before failing (default 0.2 = 20%%)",
    )
    parser.add_argument(
        "--experiments", default=None,
        help="comma-separated experiment ids to track (default: all shared)",
    )
    args = parser.parse_args(argv)
    experiments = (
        [name.strip() for name in args.experiments.split(",") if name.strip()]
        if args.experiments else None
    )
    report, regressions = compare(
        load_metrics(args.baseline), load_metrics(args.current),
        args.threshold, experiments,
    )
    for line in report:
        print(line)
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed beyond "
            f"{args.threshold:.0%}", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

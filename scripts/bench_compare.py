#!/usr/bin/env python
"""Diff two ``BENCH_engine.json`` reports and flag regressions.

Usage::

    python scripts/bench_compare.py BASELINE.json CANDIDATE.json \
        [--threshold 0.10] [--tolerance serving=0.25] [--fail-on-regression]

Every numeric metric of every benchmark section present in *both* reports is
compared; sections that exist in only one report (perfbench grows new
sections over time, so an old baseline is expected to miss some) are listed
as skipped instead of silently ignored or treated as regressions.  Metrics
measured in seconds (``seconds``, ``*_s``) regress when they grow;
rate/ratio metrics (``speedup``, ``*_per_s``) regress when they shrink.

A relative change beyond the threshold (default 10%) is flagged.
``--tolerance`` overrides the threshold for one section
(``--tolerance serving=0.25``) or one metric
(``--tolerance serving.latency_p99_s=0.5``); pass it repeatedly for several
overrides.  Noisy metrics (latency tails on a shared core) get a wider
budget this way without loosening the gate on everything else.

By default the script only *reports* and exits 0 (2 when nothing was
comparable); with ``--fail-on-regression`` a flagged metric makes the exit
code 1, which is the mode CI gates on.  Reports with different
``config_id`` values measure different workloads; they are still diffed,
but a warning is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

#: Metrics that only describe the workload, not its performance, plus the
#: figures ``benchmarks/test_perf_engine.py`` gates against absolute bounds:
#: ``max_abs_diff`` (an accuracy figure; a relative diff of two rounding
#: errors measures nothing) and the deterministic ``tape_nodes`` counts
#: (lower is better, unlike the rates this script compares).
_INFORMATIONAL = {"iterations", "steps", "sequences", "requests", "ticks", "units",
                  "workers", "trajectories", "poisson_rate_hz", "max_abs_diff",
                  "tape_nodes", "reference_tape_nodes"}
#: Metric-name prefixes that are workload descriptions (histogram buckets).
_INFORMATIONAL_PREFIXES = ("batch_occ_", "queue_depth_")


def _is_informational(name: str) -> bool:
    return name in _INFORMATIONAL or name.startswith(_INFORMATIONAL_PREFIXES)


def _is_time_metric(name: str) -> bool:
    # Rate metrics like ``sequences_per_s`` also end in ``_s`` — exclude them.
    if name.endswith("_per_s") or name == "speedup":
        return False
    return name == "seconds" or name.endswith("_s")


def _iter_metrics(results: Dict) -> Iterator[Tuple[str, str, float]]:
    for bench_name, metrics in sorted(results.items()):
        for metric_name, value in sorted(metrics.items()):
            if _is_informational(metric_name) or not isinstance(value, (int, float)):
                continue
            yield bench_name, metric_name, float(value)


def parse_tolerances(specs) -> Dict[str, float]:
    """Parse repeated ``--tolerance`` values into ``{key: threshold}``.

    Keys are ``"section"`` or ``"section.metric"``; a bare float (no ``=``)
    becomes the global override under key ``"*"``.
    """
    tolerances: Dict[str, float] = {}
    for spec in specs or ():
        if "=" in spec:
            key, _, raw = spec.partition("=")
            key = key.strip()
        else:
            key, raw = "*", spec
        try:
            value = float(raw)
        except ValueError:
            raise SystemExit(f"invalid --tolerance {spec!r}: expected FLOAT or NAME=FLOAT")
        if value < 0:
            raise SystemExit(f"invalid --tolerance {spec!r}: must be >= 0")
        tolerances[key] = value
    return tolerances


def _threshold_for(bench: str, metric: str, default: float, tolerances: Dict[str, float]) -> float:
    for key in (f"{bench}.{metric}", bench, "*"):
        if key in tolerances:
            return tolerances[key]
    return default


def compare(
    baseline: Dict,
    candidate: Dict,
    threshold: float,
    tolerances: Dict[str, float] = None,
) -> Tuple[list, list, Dict[str, list]]:
    """Return ``(rows, regressions, skipped)`` comparing the two report dicts.

    ``skipped`` maps ``"baseline_only"`` / ``"candidate_only"`` to the sorted
    benchmark sections that appear in just one report and are therefore not
    compared.
    """
    tolerances = tolerances or {}
    baseline_results = baseline.get("results", {})
    candidate_results = candidate.get("results", {})
    shared = {name: metrics for name, metrics in baseline_results.items() if name in candidate_results}
    skipped = {
        "baseline_only": sorted(set(baseline_results) - set(candidate_results)),
        "candidate_only": sorted(set(candidate_results) - set(baseline_results)),
    }
    rows, regressions = [], []
    for bench, metric, base_value in _iter_metrics(shared):
        cand_value = candidate_results.get(bench, {}).get(metric)
        if not isinstance(cand_value, (int, float)):
            continue
        if base_value == 0:
            change = 0.0
        elif _is_time_metric(metric):
            change = (cand_value - base_value) / base_value
        else:
            change = (base_value - cand_value) / base_value
        flagged = change > _threshold_for(bench, metric, threshold, tolerances)
        rows.append((bench, metric, base_value, float(cand_value), change, flagged))
        if flagged:
            regressions.append((bench, metric, change))
    return rows, regressions, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="older BENCH_engine.json")
    parser.add_argument("candidate", type=Path, help="newer BENCH_engine.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="relative regression beyond which a metric is flagged (default 0.10)",
    )
    parser.add_argument(
        "--tolerance",
        action="append",
        default=None,
        metavar="[SECTION[.METRIC]=]FLOAT",
        help="override the threshold globally (FLOAT), for one section "
        "(serving=0.25) or one metric (serving.latency_p99_s=0.5); repeatable",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when any metric regresses beyond its threshold (CI gate)",
    )
    args = parser.parse_args(argv)
    tolerances = parse_tolerances(args.tolerance)

    baseline = json.loads(args.baseline.read_text())
    candidate = json.loads(args.candidate.read_text())
    if baseline.get("config_id") != candidate.get("config_id"):
        print(
            f"WARNING: config_id mismatch ({baseline.get('config_id')} vs "
            f"{candidate.get('config_id')}); the reports measure different workloads",
            file=sys.stderr,
        )

    rows, regressions, skipped = compare(baseline, candidate, args.threshold, tolerances)
    for origin, sections in sorted(skipped.items()):
        if sections:
            print(
                f"skipped sections ({origin.replace('_', ' ')}, not compared): "
                + ", ".join(sections)
            )
    if not rows:
        print("no comparable metrics found", file=sys.stderr)
        return 2

    width = max(len(f"{bench}.{metric}") for bench, metric, *_ in rows)
    print(f"{'metric'.ljust(width)}  {'baseline':>12}  {'candidate':>12}  {'change':>8}")
    for bench, metric, base_value, cand_value, change, flagged in rows:
        marker = "  << REGRESSION" if flagged else ""
        direction = "+" if change >= 0 else "-"
        print(
            f"{f'{bench}.{metric}'.ljust(width)}  {base_value:>12.5g}  {cand_value:>12.5g}  "
            f"{direction}{abs(change) * 100:>6.1f}%{marker}"
        )

    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed beyond tolerance",
            file=sys.stderr,
        )
        return 1 if args.fail_on_regression else 0
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""A/A check: two interleaved sets of runs of the same tree must agree.

    PYTHONPATH=src python -m benchmarks.e2e.aa_check [--runs N] [--workload NAME]

Runs A, B, A, B, ... (``--runs`` of each, per workload; run *i* of both
sets uses seed ``--seed + i``) and prints, per workload and end-to-end
metric, how much worse set B's median is than set A's, against the
metric's bound, and each set's spread (q3 - q1 over the median, as
``statistics.quantiles(values, n=4)`` gives them).  Exits non-zero when a
median moved by more than its bound, or a spread other than ``setup_s``'s
exceeds it: then the benchmark, not the program, is what changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from benchmarks.e2e.metrics import END_TO_END
from benchmarks.e2e.run import run_workload
from benchmarks.e2e.workloads import RUN_SECONDS, WORKLOADS

__all__ = ["compare", "main"]


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(name: str, set_a: list, set_b: list) -> "tuple[list, bool]":
    """Table rows for one workload and whether every metric agreed."""
    rows, agreed = [], True
    for metric in END_TO_END:
        a = [report["metrics"][metric.name]["value"] for report in set_a]
        b = [report["metrics"][metric.name]["value"] for report in set_b]
        median_a, median_b = statistics.median(a), statistics.median(b)
        shift = abs(median_a - median_b) / median_a
        spreads = (_spread(a), _spread(b))
        ok = shift <= metric.bound and (
            metric.name == "setup_s" or max(spreads) <= metric.bound)
        agreed &= ok
        rows.append(
            f"{name:14s} {metric.name:22s} {median_a:>12.6g} {median_b:>12.6g}"
            f" {100 * shift:>7.3f}% {100 * spreads[0]:>7.3f}%"
            f" {100 * spreads[1]:>7.3f}% {100 * metric.bound:>6.1f}%"
            f"  {'ok' if ok else 'EXCEEDED'}")
    return rows, agreed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.aa_check",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per set and workload (at least 3)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--json", metavar="PATH",
                        help="also write every run's metric values to PATH")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    print(f"{'workload':14s} {'metric':22s} {'median A':>12s} {'median B':>12s}"
          f" {'|A-B|/A':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>7s}")
    agreed = True
    values: dict = {}
    for name in [args.workload] if args.workload else list(WORKLOADS):
        sets: tuple = ([], [])
        for i in range(args.runs):
            for reports in sets:
                report = run_workload(name, args.seed + i, args.seconds)
                if report["problems"]:
                    print(f"{name}: seed {args.seed + i} failed its checks: "
                          f"{report['problems']}", file=sys.stderr)
                    agreed = False
                reports.append(report)
        values[name] = [
            [{metric: m["value"] for metric, m in report["metrics"].items()}
             for report in reports] for reports in sets]
        rows, ok = compare(name, *sets)
        agreed &= ok
        print("\n".join(rows), flush=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(values, stream, indent=1)
    return 0 if agreed else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark command: spawn one fresh subprocess per workload, report.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME] [--seed N] [--trace] [--json PATH]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, checks the outputs, and exits
non-zero on any failed check.  The last line printed for a workload is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics`` — the
end-to-end metrics, or with ``--trace`` the per-layer ones.  This process
measures nothing itself: every number comes from a child that runs alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path[0] = str(ROOT)

from benchmarks.e2e.metrics import END_TO_END, summarize  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    RUN_SECONDS,
    SETUP_PROBES,
    WORKLOADS,
)

__all__ = ["run_workload", "end_to_end_report", "result_line", "exit_status",
           "main"]

CHILD_TIMEOUT_S = 170


def _child_env(workdir: str) -> dict:
    """The pinned environment every measuring subprocess runs in."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env.update(
        PYTHONPATH=os.pathsep.join(paths),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=workdir,  # nothing is written outside the checkout
    )
    return env


def _spawn(mode: str, name: str, seed: int, seconds: float, scale: float,
           workdir: str, spans: bool = False) -> dict:
    """Run one child to completion and return the report it wrote.

    The child leads its own process group, so a timeout or an interrupt
    here also stops the fleet workers its one ``workers=2`` run starts.
    """
    child_dir = tempfile.mkdtemp(prefix=f"{name}-{mode}-", dir=workdir)
    out = os.path.join(child_dir, "report.json")
    command = [
        sys.executable, "-m", "benchmarks.e2e.runner", "--workload", name,
        "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
        "--scale", repr(scale), "--workdir", child_dir, "--out", out,
        "--spans", str(int(spans)),
    ]
    child = subprocess.Popen(command, cwd=ROOT, env=_child_env(child_dir),
                             start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"{name}: {mode} subprocess exited {code}")
        with open(out, encoding="utf-8") as stream:
            return json.load(stream)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        shutil.rmtree(child_dir, ignore_errors=True)


def run_workload(name: str, seed: int = 7, seconds: float = RUN_SECONDS,
                 trace: bool = False, scale: float = 1.0,
                 spans: bool = False) -> dict:
    """Measure one workload; the Python entry point (``scale`` is test-only).

    Untraced: ``SETUP_PROBES - 1`` set-up-only children, then the measuring
    child, one after another; ``setup_s`` is the median of all their set-up
    times, every other number is the measuring child's.  Artifacts, fleet
    run directories and manifests all live in one directory under the
    checkout root, removed on every exit path.
    """
    workdir = tempfile.mkdtemp(prefix=".e2e-tmp-", dir=ROOT)
    try:
        if trace:
            child = _spawn("trace", name, seed, seconds, scale, workdir, spans)
            return {
                "workload": name, "why": WORKLOADS[name].why, "seed": seed,
                "traced": True, "ops_attempted": child["rows"],
                "ops_failed": child["rows"] if child["problems"] else 0,
                "problems": child["problems"], "metrics": child["metrics"],
                "host": child["host"], "sha256": child["sha256"],
                "counts": child["counts"], "spans": child.get("spans"),
            }
        setups = [
            _spawn("setup", name, seed, seconds, scale, workdir)["setup_s"]
            for _ in range(SETUP_PROBES - 1)
        ]
        child = _spawn("measure", name, seed, seconds, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return end_to_end_report(name, seed, setups + [child["setup_s"]], child)


def end_to_end_report(name: str, seed: int, setups: list,
                      child: dict) -> dict:
    """The workload's report from the measuring child's repetitions.

    ``e2e_ops_per_s`` is the fastest repetition's: interference on this
    box only ever slows a repetition down, so the fastest one is the
    steadiest estimate of the program's own speed (README.md,
    "Steadiness"); the median and quartiles are printed beside it.  A
    failed repetition counts all its rows as failed and is excluded from
    timing; if none passed, the (incorrect) run still reports the figure
    it measured.
    """
    reps = child["reps"]
    good = [rep for rep in reps if not rep["problems"]]
    first = reps[0]
    stats = {
        "setup_s": summarize(setups),
        "e2e_ops_per_s": summarize(
            rep["rows"] / rep["wall_s"] for rep in good or reps),
        "peak_rss_mib": summarize([child["peak_rss_kib"] / 1024.0]),
        "artifact_bytes_per_op": summarize(
            [first["artifact_bytes"] / first["artifact_rows"]]),
    }
    values = {name: stat["median"] for name, stat in stats.items()}
    values["e2e_ops_per_s"] = stats["e2e_ops_per_s"]["max"]
    return {
        "workload": name, "why": WORKLOADS[name].why, "seed": seed,
        "traced": False,
        "ops_attempted": sum(rep["rows"] for rep in reps),
        "ops_failed": sum(rep["rows"] for rep in reps if rep["problems"]),
        "problems": [f"repetition {i}: {problem}"
                     for i, rep in enumerate(reps)
                     for problem in rep["problems"]],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit,
                             **stats[m.name]} for m in END_TO_END},
        "host": child["host"], "sha256": first["sha256"],
        "repetitions": reps,
    }


def result_line(report: dict) -> str:
    """The driver's contract: one JSON object, printed last."""
    return json.dumps({
        "correct": not report["problems"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()},
    })


def exit_status(reports) -> int:
    """0 only when every workload ran and every check passed."""
    return int(any(r is None or r["problems"] or r["ops_failed"]
                   for r in reports))


def _print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}"
          f"{', traced' if report['traced'] else ''}) ==")
    for name, metric in report["metrics"].items():
        line = f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}"
        if metric.get("n", 1) > 1:
            line += ("   [min {min:.6g}  q1 {q1:.6g}  median {median:.6g}  "
                     "q3 {q3:.6g}  max {max:.6g}  n {n}]".format(**metric))
        print(line)
    host = report["host"]
    print(f"  ops_attempted {report['ops_attempted']}  "
          f"ops_failed {report['ops_failed']}")
    print("  host: spin {median:.2f} ms (q1 {q1:.2f}, q3 {q3:.2f}, n {n}), "
          .format(**host["spin_ms"])
          + f"loadavg {host['loadavg'][0]:.2f}, nproc {host['nproc']}")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7,
                        help="the only input: the scenario spec's seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed repetitions continue until this much "
                             "time is measured (never fewer than the "
                             "workload's floor)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="run the traced pass and report the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full report (repetitions, "
                             "spans, env) to PATH")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              "runs from a checkout of the repository", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds,
                                  trace=bool(args.trace),
                                  spans=args.json is not None)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            # A failing workload does not stop the others; it fails the
            # command, and prints no result line.
            print(f"error: {exc}", file=sys.stderr)
            reports.append(None)
            continue
        reports.append(report)
        _print_report(report)
        print(result_line(report), flush=True)
    if args.json:
        from benchmarks.e2e.host import env_block

        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump({"benchmark": "e2e", "env": env_block(str(ROOT)),
                       "workloads": [r for r in reports if r is not None]},
                      stream, indent=1)
            stream.write("\n")
    return exit_status(reports)


if __name__ == "__main__":
    raise SystemExit(main())

"""The measuring subprocess: one workload, one process, one thread.

``run.py`` starts this module afresh for every workload (and for every
extra set-up probe), so ``ru_maxrss`` is the workload's own peak and
``setup_s`` includes the imports a CLI user pays.  The clock below is read
before ``repro`` is imported for that reason; keep it the first statement.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from benchmarks.e2e.workloads import WORKLOADS, Workload  # noqa: E402

__all__ = ["measure", "main"]


def measure(workload: Workload, seed: int, seconds: float, scale: float,
            workdir: str, t0: "float | None" = None,
            setup_only: bool = False) -> dict:
    """Set up, then time repetitions of the workload's region.

    At least ``workload.reps`` repetitions run, and more until ``seconds``
    of timed region have been measured.  Each gets ``gc.collect()`` first
    and a fresh artifact path; its checks and the host spin run outside the
    timed region.
    """
    from benchmarks.e2e import host, regions

    t0 = time.perf_counter() if t0 is None else t0
    inputs = regions.set_up(workload, seed, scale, workdir)
    out = {
        "workload": workload.name, "seed": seed, "scale": scale,
        "setup_s": time.perf_counter() - t0,
        "spec_build_s": inputs.spec_build_s,
    }
    if setup_only:
        return out
    region = regions.REGIONS[workload.region]
    source = inputs.source
    spins = [host.spin_ms()]
    reps: list = []
    first_sha = None
    timed_s = 0.0
    while len(reps) < workload.reps or timed_s < seconds:
        path = (source.path if source is not None
                else os.path.join(workdir, f"rep{len(reps)}.opstream"))
        gc.collect()
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = region(inputs, path)
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        sha, problems = regions.check_repetition(inputs, path, result,
                                                 first_sha)
        first_sha = first_sha or sha
        reps.append({
            "wall_s": wall_s, "cpu_s": cpu_s, "rows": result.rows,
            "artifact_bytes": os.path.getsize(path),
            "artifact_rows": source.rows if source is not None
            else result.rows,
            "sha256": sha, "problems": problems,
        })
        timed_s += wall_s
        if source is None:
            os.unlink(path)
        spins.append(host.spin_ms())
    out["reps"] = reps
    out["host"] = host.host_block(spins)
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", type=int, default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "trace":
        from benchmarks.e2e import tracepass

        out = tracepass.trace(workload, args.seed, args.scale, args.workdir,
                              keep_spans=bool(args.spans))
    else:
        out = measure(workload, args.seed, args.seconds, args.scale,
                      args.workdir, t0=T0, setup_only=args.mode == "setup")
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(out, stream)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

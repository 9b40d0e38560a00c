"""The spec -> verified-artifact benchmark (see README.md in this directory).

Four workloads, four end-to-end metrics, one process and one thread behind
every gated number.  Entry points::

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME] [--seed N] [--trace] [--json PATH]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

"""``python -m benchmarks.e2e``: the same command as ``run.py``."""

from benchmarks.e2e.run import main

raise SystemExit(main())

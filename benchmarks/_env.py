"""The machine fingerprint stamped into benchmark results.

``benchmarks/e2e/host.py`` extends it with nproc and the git SHA, so a
recorded number can always be traced back to the machine that produced
it.
"""

import os
import platform
import socket


def bench_env() -> dict:
    """The machine/toolchain fingerprint stamped into every result."""
    import numpy

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }

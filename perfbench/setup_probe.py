"""Time one cold set-up of a workload in a fresh process and print it.

    python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before anything is imported and stops after the workload's
warm-up call, so the time covers importing fraclab, building the domains,
data and kernels, and filling the lazy caches: what a CLI user pays on every
invocation.  ``run.py`` runs this several times and reports the median.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

workloads.setup(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - T0}))

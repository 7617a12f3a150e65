"""Set-up probe: what every ``magschro <kind>`` invocation pays before numerics.

    python3 bench/setup_probe.py WORKLOAD SEED

Imports ``magschro.cli``, parses the workload's configs and prints
``time.perf_counter()`` (a system-wide monotonic clock on Linux), so the
caller can time the fresh interpreter up to that point.  It imports nothing
of the benchmark's own but the config table, so no harness work is timed.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from magschro import cli  # noqa: E402

for _, vals in workloads.WORKLOADS[sys.argv[1]]:
    cli.ExperimentConfig.parse(workloads.config_text(vals, int(sys.argv[2])))
print(repr(time.perf_counter()))

"""One set-up as a user pays it: import the CLI in a fresh interpreter, then
write the workload's input file. Prints the two durations as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work dir>
(run.py starts it with ``src`` and ``perfbench`` on PYTHONPATH).
"""
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import trustsat.cli  # noqa: E402,F401  (the import is what is timed)

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.write_input(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "input_s": t2 - t1}))

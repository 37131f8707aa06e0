"""One timed set-up in a fresh interpreter: import, build the complexes,
write the input files.  Prints {"setup_s": seconds} as its last line.

    python3 perfbench/setup_once.py <workload> <workdir>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.setup(sys.argv[1], Path(sys.argv[2]))
print(json.dumps({"setup_s": time.perf_counter() - T0}))

"""One fresh start: import blockgraph and load one workload's inputs.

Prints {"import_s": ..., "setup_s": ...} measured from just before the
import.  Parsing and validation are not part of set-up, so the inputs are
loaded as bytes, typed generators or descriptor tuples.

    PYTHONPATH=src python3 perfbench/setup_probe.py graph_tables
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (the benchmark's own code, before the clock starts)

start = time.perf_counter()
import blockgraph  # noqa: E402,F401
import blockgraph.cli  # noqa: E402,F401

imported = time.perf_counter()
inputs = workloads.WORKLOADS[sys.argv[1]].load()
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": loaded - start, "inputs": len(inputs)}))

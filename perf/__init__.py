"""Host-CPU benchmark for the ALPHA stack.

Run ``python3 -m perf run --workload NAME`` from the repository root;
see ``perf/README.md`` for the workloads, the metrics and how to trace
and compare runs. The benchmark drives the library in ``src/`` through
its public API, so the package puts ``src/`` on the import path when it
sits next to it.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

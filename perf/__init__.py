"""The repository benchmark: workloads, load driver, layer probes, comparison.

``python3 -m perf run --workload NAME --seed N --seconds S --trace 0|1``
is the contract ``BENCHMARK.json`` names; ``python3 -m perf run`` with no
workload runs all seven and prints a table. See ``perf/README.md``.

The system under test is the checkout's own ``src/repro``: importing
this package puts that directory first on ``sys.path`` (and
:data:`CHILD_ENV` does the same for the server processes it launches),
so an installed copy of ``repro`` can never be measured by mistake.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: environment for every child process (servers, set-up probes)
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ),
)

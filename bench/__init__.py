"""The repo benchmark: end-to-end and per-layer numbers, measured from outside.

See ``bench/README.md`` for the metric catalogue, the workloads and the method.
Entry points: ``python -m bench.run`` and ``python -m bench.compare``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The socket workloads' system under test, shared by the generator
# (bench.fleet) and the process it spawns (bench.fleet_child).
FLEET_SHARDS = 2
FLEET_EXECUTORS = 10

# The matrices in this system are 8-32 wide; BLAS worker threads only add
# spin-wait noise on a 2-cpu box, and the fleet already runs four processes.
# Must be set before numpy is first imported; child processes inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

if (SRC / "repro").is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

"""One benchmark set-up: import gridram, then generate and write a workload's inputs.

    python3 perfbench/setup_inputs.py <workload> <seed> <work-dir>

`run.py` runs this in a fresh interpreter several times and reports the
median wall time as `setup_s`, so import cost and input generation are both
counted, and the generator's memory never reaches a job's worker.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gridram.cli  # noqa: E402,F401  (import cost is part of set-up)

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    work.mkdir(parents=True, exist_ok=True)
    workloads.build(name, seed, work).write_inputs()

"""Shared helpers for the benchmark harness (imported by every bench_*.py).

Every benchmark regenerates one of the paper's tables or figures and prints
the resulting rows (so the numbers can be copied into EXPERIMENTS.md and
compared against the paper).  Because full-size workloads — especially the
Table 1 problem (≈79,600 nodes × 3.47 s, up to 100 processors) — are too heavy
for a routine pure-Python benchmark run, the harness scales the workloads
down by default and reports the effective size.  Environment variables:

* ``REPRO_BENCH_SCALE`` — global multiplier applied to the per-benchmark
  default scales (default 1.0; e.g. 0.5 halves every workload).
* ``REPRO_FULL_SCALE=1`` — run every experiment at the paper's full size
  (slow; expect tens of minutes).

Every file asserts the shape of the result it reproduces (monotone times,
rising communication and storage, the B&B share of the run, ...), so
``REPRO_BENCH_SCALE=0.2 PYTHONPATH=src python -m pytest -q benchmarks/bench_*.py
--benchmark-disable`` checks the reproductions quickly.  Performance is
tracked by the ledger (``benchmarks/ledger/``), not here.
"""

import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def scale_factor() -> float:
    """Global workload scale multiplier from the environment."""
    if os.environ.get("REPRO_FULL_SCALE") == "1":
        return -1.0  # sentinel: full scale
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def effective_scale(default: float) -> float:
    """Scale to use for one experiment given its default."""
    factor = scale_factor()
    if factor < 0:
        return 1.0
    return max(0.005, default * factor)


def print_experiment(title: str, body: str) -> None:
    """Print a benchmark's reproduction output in a recognisable block."""
    line = "=" * 78
    print(f"\n{line}\n{title}\n{line}\n{body}\n")

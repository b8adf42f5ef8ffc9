"""repro — reproduction of Iamnitchi & Foster, "A Problem-Specific
Fault-Tolerance Mechanism for Asynchronous, Distributed Systems" (ICPP 2000).

The library implements the paper's decentralised, fault-tolerant parallel
branch-and-bound algorithm and everything it stands on:

* :mod:`repro.core` — the tree-code fault-tolerance mechanism (subproblem
  encoding, completed-code contraction, complement/recovery, termination
  detection, work reports);
* :mod:`repro.bnb` — the branch-and-bound substrate (problem interface,
  knapsack, pools, sequential solver, basic trees);
* :mod:`repro.simulation` — the discrete-event simulation substrate (engine,
  network model, crash failures, metrics, timeline tracing);
* :mod:`repro.gossip` — the epidemic heartbeat failure detector that drives
  membership under churn;
* :mod:`repro.distributed` — the distributed algorithm itself (workers, load
  balancing, runner, statistics);
* :mod:`repro.baselines` — centralised manager/worker and DIB-style
  comparison baselines;
* :mod:`repro.realexec` — a small real ``multiprocessing`` backend whose
  workers exchange wire frames over TCP;
* :mod:`repro.analysis` — experiment sweeps and table/figure builders for the
  paper's evaluation;
* :mod:`repro.scenario` — the unified Scenario API: one declarative
  experiment spec, four backends (``simulated``, ``central``, ``dib``,
  ``realexec``), one normalised result, and the ``python -m repro`` CLI.

Quickstart::

    from repro.scenario import get_scenario, run_scenario

    result = run_scenario(get_scenario("quickstart"), backend="simulated")
    print(result.report())
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

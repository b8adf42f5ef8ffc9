#!/usr/bin/env python3
"""Dynamic membership as a scenario: a late joiner, then a crash storm.

The registered ``late-joiner`` scenario isolates worker-03 behind a network
partition for the first simulated second — it joins the running computation
late, knowing nothing — then heals and catches up via work reports and
first-contact table deltas.  A second variant adds two crashes on top.  (Under
churn, the heartbeat failure detector in ``repro.gossip`` evicts and readmits
peers; those same first-contact deltas catch a returning peer up.)

Run it with::  PYTHONPATH=src python examples/membership_gossip.py
"""

from repro.scenario import FailureSpec, get_scenario, run_scenario

joiner = get_scenario("late-joiner")
calm = run_scenario(joiner, backend="simulated")
print(calm.report(title="--- worker-03 joins late (partitioned 1 s) ---"), "\n")
stormy = joiner.with_overrides(
    name="late-joiner+crashes", failures=(FailureSpec(victims=(1, 2), at_fraction=0.6),)
)
churn = run_scenario(stormy, backend="simulated")
print(churn.report(title="--- same, plus two crashes at 60% ---"))
assert calm.solved_correctly and churn.solved_correctly
print("\nJoin-late plus crash-early churn: the group still terminates on the optimum.")

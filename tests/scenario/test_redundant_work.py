"""One redundancy definition on every simulated backend.

Redundant work — the measure of what faults cost in the accounting of
Dwork, Halpern & Waarts — is the sum of all expansions minus the number of
distinct subproblem codes expanded anywhere in the run.  A worker that
re-expands its own code after a restart does redundant work too, and the
baselines count it the same way as the paper's mechanism.
"""

import pytest

from repro.scenario import get_scenario, run_scenario


@pytest.mark.parametrize(
    "name, seed, backend, redundant, total",
    [
        # Counting per-worker distinct codes instead read 13 here: it missed
        # the re-expansions of a churned worker's own codes.
        ("campus-churn", 3, "simulated", 28, 329),
        ("crash-storm", 2, "simulated", 33, 434),
        ("crash-storm", 3, "dib", 111, 512),
        ("crash-storm", 3, "central", 0, 401),
    ],
)
def test_redundant_work_is_expansions_minus_distinct_codes(name, seed, backend, redundant, total):
    result = run_scenario(get_scenario(name).with_overrides(seed=seed), backend)
    assert result.solved_correctly
    assert (result.redundant_nodes_expanded, result.total_nodes_expanded) == (redundant, total)


@pytest.mark.parametrize("backend", ["simulated", "central", "dib"])
@pytest.mark.parametrize("name", ["crash-storm", "campus-churn"])
def test_unpruned_solved_run_redoes_what_exceeds_the_tree(name, backend):
    """Without pruning a solved run expands every node, so the distinct
    codes are exactly the tree's nodes and the two counts must agree."""
    scenario = get_scenario(name)
    assert not scenario.prune
    result = run_scenario(scenario, backend)
    assert result.terminated and result.solved_correctly
    tree_nodes = len(scenario.build_tree())
    assert result.redundant_nodes_expanded == result.total_nodes_expanded - tree_nodes

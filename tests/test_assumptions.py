"""Negative controls: a breached assumption of the paper must be reported.

The paper's claims are conditional.  Timelock safety needs every message
within Δ, so a checker, a state key or a quiescence cut that went blind
would still pass every SAFE exploration.  Each control here breaks one
assumption in a test-built world, requires the property it names to fail
for a compliant party, and explores with stopping at visited states and
without: a key that merged a violating state into a safe one would show
as a difference.
"""

from dealsim.adversary import ExplorationBound, exhaustive_explore
from dealsim.scenario import load_scenario

from test_adversary import check_stopping_changes_no_schedule


def test_one_latency_above_delta_breaks_timelock_safety(monkeypatch):
    # Δ is 5, and one latency option of Δ + 1 is enough: compliant ben's
    # y-coin commits to ann while ann's x-coin refunds.
    scenario = load_scenario("explore_swap_timelock")
    assert scenario["network"]["delta"] == 5
    scenario["network"].update(latency_menu=[1, 5, 6], allow_model_violation=True)
    result = exhaustive_explore(scenario, ExplorationBound())
    assert (result.verdict, result.complete) == ("VIOLATION", True)
    assert (result.runs, result.branch_points) == (2_139, 979)

    witness = result.violations[0]
    assert witness["resolutions"] == {"xchain/ann": ["aborted", 30], "ychain/ben": ["committed", 24]}
    assert result.witness_traces[0].metadata["compliant"] == ["ben"]
    (failure,) = witness["failures"]
    assert failure["property"] == "safety"
    (harmed,) = failure["witness"]
    assert harmed["party"] == "ben"
    assert harmed["payoff"] == {
        "incoming": {"fungible": [], "tokens": []},
        "outgoing": {"fungible": [["ychain", "y-coin", 20]], "tokens": []},
    }

    assert check_stopping_changes_no_schedule(scenario, ExplorationBound(), monkeypatch) == {
        "verdict": "VIOLATION", "runs": 2_139, "branch_points": 979, "complete": True,
    }

"""Negative controls: a breached assumption of the paper must be reported.

The paper's claims are conditional.  Timelock safety needs every message
within Δ, so a checker, a state key or a quiescence cut that went blind
would still pass every SAFE exploration.  Each control here breaks one
assumption in a test-built world, requires the property it names to fail
for a compliant party, and explores with stopping at visited states and
without: a key that merged a violating state into a safe one would show
as a difference.
"""

import collections

from dealsim import properties
from dealsim.adversary import ExplorationBound, exhaustive_explore
from dealsim.scenario import load_scenario, swap_deal

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


def test_a_latency_above_delta_breaks_strong_liveness(monkeypatch):
    # Every party complies, and one latency option of 2Δ leaves some party
    # short of its full payoff.  `evaluate_run` reports strong liveness as a
    # verdict only, so this search reads every failed verdict.
    scenario = swap_deal("timelock")
    assert scenario["strategies"] == {} and scenario["network"]["delta"] == 5
    scenario["network"].update(latency_menu=[1, 10], allow_model_violation=True)
    judged = []

    def evaluate(trace):
        judged.append(trace.digest())
        return [v.prop for v in properties.run_verdicts(trace) if v.passed is False]

    result = exhaustive_explore(scenario, ExplorationBound(), evaluate=evaluate)
    assert (result.verdict, result.complete) == ("VIOLATION", True)
    assert (result.runs, result.branch_points, len(judged)) == (26, 25, 6)
    failed = collections.Counter(prop for v in result.violations for prop in v["failures"])
    assert failed == {"strong-liveness": 3, "safety": 2}

    assert check_stopping_changes_no_schedule(scenario, ExplorationBound(), monkeypatch) == {
        "verdict": "VIOLATION", "runs": 26, "branch_points": 25, "complete": True,
    }

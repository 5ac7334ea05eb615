"""Negative controls: a breached assumption of the paper must be reported.

The paper's claims are conditional.  Timelock safety needs every message
within Δ, and CBC agreement and liveness need at most f corrupt
validators, so a checker, a state key or a quiescence cut that went blind
would still pass every SAFE exploration.  Each control here breaks one
assumption in a test-built world, requires the property it names to fail
for a compliant party, and explores with stopping at visited states and
without: a key that merged a violating state into a safe one would show
as a difference.  Every property a run is judged by has a control.
"""

import collections

from dealsim import properties
from dealsim.adversary import ExplorationBound, exhaustive_explore
from dealsim.cbc import ValidatorService
from dealsim.scenario import load_scenario, swap_deal

from test_adversary import check_stopping_changes_no_schedule

CONTROLS = {}  # control test name -> the properties its breach must fail


def control(*props):
    """Record a control test and the properties it shows failing."""

    def record(test):
        CONTROLS[test.__name__] = props
        return test

    return record


def widen_corrupt(monkeypatch, count):
    """Make the first `count(f)` validators of every built service corrupt.
    Validation admits only corrupt <= f, so the service is widened after
    `ValidatorService.for_scenario` builds it."""
    build = ValidatorService.for_scenario.__func__

    def widened(cls, scheme, cbc):
        service = build(cls, scheme, cbc)
        service.corrupt_ids = frozenset(service.members(0)[: count(service.f)])
        return service

    monkeypatch.setattr(ValidatorService, "for_scenario", classmethod(widened))


def cbc_swap():
    """The CBC swap, semi-synchronous until tick 30 with pre-GST delays of 1 or 2."""
    scenario = swap_deal("cbc")
    scenario["network"].update({"mode": "semi-synchronous", "gst": 30, "pre_gst_cap": 2})
    return scenario


@control("safety")
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


@control("strong-liveness", "safety")
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


@control("agreement", "safety")
def test_f_plus_one_corrupt_validators_break_cbc_agreement(monkeypatch):
    # CBC agreement holds while at most f validators deviate.  Ann asks the
    # corrupt ones to sign a contradictory status; with f + 1 = 2 of them her
    # forged certificate reaches a quorum.
    widen_corrupt(monkeypatch, lambda f: f + 1)
    scenario = cbc_swap()
    scenario["strategies"]["ann"] = {"name": "fake_certificate", "params": {}}
    scenario["cbc"]["corrupt"] = 1
    result = exhaustive_explore(scenario, ExplorationBound())
    assert (result.verdict, result.complete) == ("VIOLATION", True)

    witness = result.violations[0]
    assert witness["resolutions"] == {"xchain/ann": ["aborted", 2], "ychain/ben": ["committed", 2]}
    assert result.witness_traces[0].metadata["compliant"] == ["ben"]
    safety, agreement = witness["failures"]
    assert (safety["property"], agreement["property"]) == ("safety", "agreement")
    assert [harmed["party"] for harmed in safety["witness"]] == ["ben"]
    assert agreement["witness"][0]["statuses"] == ["aborted", "committed"]

    assert check_stopping_changes_no_schedule(scenario, ExplorationBound(), monkeypatch) == {
        "verdict": "VIOLATION", "runs": 657, "branch_points": 656, "complete": True,
    }


@control("weak-liveness", "safety")
def test_two_f_plus_one_corrupt_validators_break_cbc_weak_liveness(monkeypatch):
    # Every party complies.  A certificate is signed by honest validators
    # alone, f + 1 of them; with 2f + 1 = 3 of the 4 corrupt, one honest
    # member is left, so every settle is rejected below threshold and both
    # lots stay active past the weak-liveness bound.
    widen_corrupt(monkeypatch, lambda f: 2 * f + 1)
    scenario = cbc_swap()
    assert scenario["strategies"] == {} and scenario["cbc"]["f"] == 1
    judged = []

    def evaluate(trace):
        failed = {v.prop for v in properties.run_verdicts(trace) if v.passed is False}
        judged.append((failed, {res for res, _ in trace.resolutions.values()}))
        settles = {
            (e.status, e.reason)
            for e in trace.events
            if e.kind == "publish" and e.payload["op"] == "settle"
        }
        assert settles == {("rejected", "below-threshold")}
        return properties.evaluate_run(trace)["failures"]

    result = exhaustive_explore(scenario, ExplorationBound(), evaluate=evaluate)
    assert (result.verdict, result.complete) == ("VIOLATION", True)
    assert (result.runs, result.branch_points, len(judged)) == (125, 124, 44)
    for failed, resolutions in judged:
        assert {"weak-liveness", "safety"} <= failed and resolutions == {"active"}

    assert check_stopping_changes_no_schedule(scenario, ExplorationBound(), monkeypatch) == {
        "verdict": "VIOLATION", "runs": 125, "branch_points": 124, "complete": True,
    }


def test_two_f_corrupt_validators_keep_cbc_weak_liveness(monkeypatch):
    # The bound is tight: with 2f = 2 corrupt, f + 1 = 2 honest members
    # still certify, and the same search is SAFE.
    widen_corrupt(monkeypatch, lambda f: 2 * f)
    result = exhaustive_explore(cbc_swap(), ExplorationBound())
    assert (result.verdict, result.complete) == ("SAFE", True)
    assert (result.runs, result.branch_points) == (125, 124)


def test_every_judged_property_has_a_control(ticket_cbc_run):
    _, trace = ticket_cbc_run  # a CBC run is judged by every property
    judged = {v.prop for v in properties.run_verdicts(trace)}
    assert judged == {"safety", "weak-liveness", "strong-liveness", "agreement"}
    assert judged <= {prop for props in CONTROLS.values() for prop in props}

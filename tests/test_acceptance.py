"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to watch the criterion
lines stream; a summary block also prints at the end of any session that
executed them.
"""

import hashlib
import time

import pytest

from dealsim.adversary import ExplorationBound, exhaustive_explore, random_campaign
from dealsim.assets import AssetBundle, Payoff
from dealsim.cbc import ABORTED, COMMITTED, UNDECIDED, Decision
from dealsim.costs import meter
from dealsim.deals import payoff_of_run
from dealsim.properties import (
    check_safety,
    check_strong_liveness,
    check_weak_liveness,
    evaluate_run,
)
from dealsim.replay import replay_trace
from dealsim.scenario import (
    bundled_scenarios,
    build_world,
    cycle_deal,
    dual_broker_deal,
    list_bundled,
    load_scenario,
    swap_deal,
    ticket_deal,
)
from dealsim.trace import canonical_json, payload_digest

RESULTS = []


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def run_once(scenario, seed=None):
    built = build_world(scenario, seed=seed)
    return built, built.world.run()


# -- shared expensive artifacts ----------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return bundled_scenarios()


@pytest.fixture(scope="module")
def timelock_campaign():
    bases = [
        swap_deal("timelock"),
        ticket_deal("timelock"),
        dual_broker_deal("timelock"),
        cycle_deal(4, "timelock"),
    ]
    mix = [
        "silent_crash",
        "selective_communication",
        "overpay",
        "withhold_vote",
        "vote_no_forward",
        "replay_votes",
        "late_claim",
        "forged_signature",
        "offline_window",
    ]
    return random_campaign(bases, mix, runs=10_000, seed=20260808, max_adversaries=2)


@pytest.fixture(scope="module")
def cbc_campaign():
    bases = []
    for builder in (swap_deal, ticket_deal, dual_broker_deal):
        scenario = builder("cbc")
        scenario["cbc"]["corrupt"] = 1  # up to f deviating validators, f = 1
        bases.append(scenario)
    mix = [
        "silent_crash",
        "withhold_vote",
        "overpay",
        "fake_certificate",
        "abort_after_commit",
        "offline_window",
    ]
    return random_campaign(bases, mix, runs=10_000, seed=41, max_adversaries=2)


@pytest.fixture(scope="module")
def swap_exploration(corpus):
    return exhaustive_explore(corpus["explore_swap_timelock"], ExplorationBound())


@pytest.fixture(scope="module")
def cycle_outcomes():
    """The distinct terminal resolutions of `cycle_exploration`'s schedules,
    as canonical JSON; filled as that fixture explores."""
    return set()


@pytest.fixture(scope="module")
def cycle_exploration(corpus, cycle_outcomes):
    def evaluate(trace):
        cycle_outcomes.add(canonical_json(trace.resolutions))
        return evaluate_run(trace)["failures"]

    return exhaustive_explore(corpus["explore_cycle3_timelock"], ExplorationBound(), evaluate=evaluate)


@pytest.fixture(scope="module")
def naive_exploration(corpus):
    return exhaustive_explore(corpus["explore_swap_naive"], ExplorationBound())


# -- criteria ---------------------------------------------------------------------


def test_c01_happy_path_both_protocols(corpus):
    details = []
    for name in ("ticket_deal_timelock", "ticket_deal_cbc"):
        start = time.perf_counter()
        built, trace = run_once(corpus[name])
        elapsed = time.perf_counter() - start
        tickets = trace.terminal_wallets["ticket"]["tokens"]
        assert tickets == {"tkt1": "carol", "tkt2": "carol"}
        assert payoff_of_run(trace, "bob") == Payoff(
            AssetBundle.coins("coin", "coin", 100),
            AssetBundle(tokens=[("ticket", "tkt1"), ("ticket", "tkt2")]),
        )
        assert payoff_of_run(trace, "alice") == Payoff(
            AssetBundle.coins("coin", "coin", 1), AssetBundle.empty()
        )
        assert check_safety(trace).passed
        assert check_strong_liveness(trace).passed
        assert elapsed < 1.0
        details.append(f"{name} {elapsed * 1000:.0f}ms")
    report(1, True, "Carol tickets / Bob +100 / Alice +1; " + "; ".join(details))


def test_c02_timelock_safety_campaign_and_exploration(
    timelock_campaign, swap_exploration, cycle_exploration
):
    safety_violations = [
        v for v in timelock_campaign.violations if v["property"] == "safety"
    ]
    ok = (
        not safety_violations
        and swap_exploration.verdict == "SAFE"
        and swap_exploration.complete
        and cycle_exploration.verdict == "SAFE"
        and cycle_exploration.complete
    )
    report(
        2,
        ok,
        f"10^4 adversarial runs: {len(safety_violations)} safety violations; "
        f"2-party space SAFE over {swap_exploration.runs} schedules; "
        f"3-party space SAFE over {cycle_exploration.runs} schedules",
    )


def test_cycle3_exploration_reaches_the_unpruned_outcome_set(cycle_exploration, cycle_outcomes):
    # The unpruned search (a fresh state key at every branch point) runs
    # 371,120 schedules, too many for this suite, to exactly these outcomes.
    assert cycle_exploration.complete
    # Schedules and branch points, each run stopping at quiescence.
    assert (cycle_exploration.runs, cycle_exploration.branch_points) == (8_925, 7_407)
    assert len(cycle_outcomes) == 213
    digest = hashlib.sha256("\n".join(sorted(cycle_outcomes)).encode()).hexdigest()
    assert digest == "eaadf73934d859205f351b3107e42bb44b2eef95fb261e35bd87a358ea972a30"


def test_c03_naive_timeout_counterexample(naive_exploration):
    ok = naive_exploration.verdict == "VIOLATION"
    witness_ok = False
    detail = "no witness"
    if naive_exploration.violations:
        witness = naive_exploration.violations[0]
        statuses = {v[0] for v in witness["resolutions"].values()}
        harmed = {
            w["party"]
            for f in witness["failures"]
            if f["property"] == "safety"
            for w in f["witness"]
        }
        witness_ok = statuses == {"committed", "aborted"} and "ben" in harmed
        detail = (
            f"{len(naive_exploration.violations)} violating schedules; sample tape "
            f"{witness['tape']}: compliant ben's outgoing committed, incoming refunded"
        )
    report(3, ok and witness_ok, detail)


def test_c04_weak_liveness_never_violated(
    corpus, timelock_campaign, swap_exploration, cycle_exploration, naive_exploration
):
    for name in ("ticket_deal_timelock", "ticket_deal_cbc"):
        built, trace = run_once(corpus[name])
        assert check_weak_liveness(trace).passed
    campaign_failures = [
        v for v in timelock_campaign.violations if v["property"] == "weak-liveness"
    ]
    # the explorations' evaluators include weak-liveness in their failure set
    explored_failures = [
        f
        for result in (swap_exploration, cycle_exploration, naive_exploration)
        for violation in result.violations
        for f in violation["failures"]
        if f["property"] == "weak-liveness"
    ]
    ok = not campaign_failures and not explored_failures
    report(
        4,
        ok,
        "all compliant escrows resolved within t0+N*delta+delta / vote+G+settle "
        f"(campaign {timelock_campaign.runs} runs, explorations "
        f"{swap_exploration.runs + cycle_exploration.runs + naive_exploration.runs} schedules)",
    )


def test_c05_all_compliant_exploration_commits(corpus):
    scenario = corpus["explore_ticket_allcompliant"]
    t0 = scenario["deal"]["t0"]
    delta = scenario["deal"]["delta"]
    deadline = t0 + 3 * delta

    def committed_in_time(trace):
        failures = []
        for lot, (res, tick) in trace.resolutions.items():
            if res != COMMITTED:
                failures.append({"property": "commit-outcome", "details": f"{lot} {res}", "witness": []})
            elif tick > deadline:
                failures.append({"property": "commit-deadline", "details": f"{lot} @{tick}", "witness": []})
        return failures

    result = exhaustive_explore(scenario, ExplorationBound(), evaluate=committed_in_time)
    assert (result.runs, result.branch_points) == (1_957, 1_956)  # stopping at quiescence
    ok = result.verdict == "SAFE" and result.complete
    report(
        5,
        ok,
        f"100% of {result.runs} schedules committed by t0+3*delta={deadline}",
    )


def test_c06_virus_broker_reproduction(corpus):
    built, trace = run_once(corpus["virus_alice_timelock"])
    bob = payoff_of_run(trace, "bob")
    carol = payoff_of_run(trace, "carol")
    alice = payoff_of_run(trace, "alice")
    ok = (
        bob == Payoff(AssetBundle.empty(), AssetBundle.empty())
        and carol
        == Payoff(
            AssetBundle.coins("bcoin", "b-coin", 100),
            AssetBundle.coins("ccoin", "c-coin", 101),
        )
        and alice
        == Payoff(
            AssetBundle.coins("ccoin", "c-coin", 101),
            AssetBundle.coins("bcoin", "b-coin", 100),
        )
        and check_safety(trace, compliant=["bob", "carol"]).passed
    )
    report(6, ok, "Bob refunded (nothing), Carol full payoff, deviating broker -100 b / +101 c")


def test_c07_overpay_reproduction(corpus):
    built, trace = run_once(corpus["overpay_carol_cbc"])
    alice = payoff_of_run(trace, "alice")
    ok = (
        alice == Payoff(AssetBundle.coins("coin", "coin", 901), AssetBundle.empty())
        and check_safety(trace, compliant=["alice", "bob"]).passed
        and {res for res, _ in trace.resolutions.values()} == {COMMITTED}
    )
    report(7, ok, "all-commit overpay run leaves the broker a 901-coin commission")


def test_c08_certified_ledger_agreement(cbc_campaign, corpus):
    agreement_failures = [
        v for v in cbc_campaign.violations if v["property"] == "agreement"
    ]
    forged_attempts = 0
    forged_accepted = 0
    for seed in range(40):
        built, trace = run_once(corpus["corrupt_validator_cbc"], seed=1000 + seed)
        for event in trace.publishes():
            if event.payload.get("op") != "settle":
                continue
            cert = event.payload["cert"]
            signers = [v for v, _ in cert["signatures"]]
            under_quorum = len(signers) < trace.scenario["cbc"]["f"] + 1
            outsider = any(not v.startswith("val-") for v in signers)
            if under_quorum or outsider or len(set(signers)) != len(signers):
                forged_attempts += 1
                if event.status == "accepted":
                    forged_accepted += 1
    ok = not agreement_failures and forged_attempts > 0 and forged_accepted == 0
    report(
        8,
        ok,
        f"10^4 runs with <=f corrupt validators: 0 conflicting certificates; "
        f"{forged_attempts} forged certificates all rejected",
    )


def test_campaign_reports_are_unchanged(timelock_campaign, cbc_campaign):
    # The c02 and c08 10^4-run reports, outcome counts and every violation
    # included: no speedup or refactor may change a campaign report.
    assert payload_digest(timelock_campaign.to_json()) == "586bc9448f13ba4d"
    assert payload_digest(cbc_campaign.to_json()) == "1f999620ada68048"


def test_c09_decide_matches_prefix_oracle_exhaustively():
    def decide_oracle(votes, members, n):
        """Literal prefix enumeration of the commit/abort proof definitions."""
        first_commit = {}
        aborts = []
        for q in range(1, len(votes) + 1):
            kind, voter = votes[q - 1]
            if voter in members:
                if kind == "commit":
                    first_commit.setdefault(voter, q - 1)
                else:
                    aborts.append(q - 1)
            if len(first_commit) == n:
                completion = max(first_commit.values())
                if all(a > completion for a in aborts):
                    return (COMMITTED, completion)
            for a in aborts:
                committed_before = {
                    votes[i][1]
                    for i in range(a)
                    if votes[i][0] == "commit" and votes[i][1] in members
                }
                if len(committed_before) < n:
                    return (ABORTED, a)
        return (UNDECIDED, None)

    def check(votes, record, decided, members, actions):
        """Check `votes` and each of its extensions up to length 8, depth
        first on the one list; return how many logs were checked.

        `record` is the log's record after `votes`: its parent's, advanced
        by `Decision.after` with the last vote at its index as position.
        `decided` is the oracle's answer at the nearest deciding prefix,
        if there is one.  The oracle returns at that prefix and reads
        nothing after it, so its answer holds for the whole subtree.
        """
        expected = decided or decide_oracle(votes, members, len(members))
        assert (record.status, record.position) == expected
        if len(votes) == 8:
            return 1
        if expected[0] != UNDECIDED:
            decided = expected
        count = 1
        position = len(votes)
        for action in actions:
            votes.append(action)
            count += check(votes, record.after(*action, position), decided, members, actions)
            votes.pop()
        return count

    total = 0
    start = time.perf_counter()
    for n in range(1, 5):
        members = frozenset(f"p{i}" for i in range(n))
        actions = [(kind, p) for p in sorted(members) for kind in ("commit", "abort")]
        total += check([], Decision("d", members), None, members, actions)
    elapsed = time.perf_counter() - start
    report(
        9,
        total == 21_277_392,
        f"{total} vote logs (length <= 8, <= 4 parties): the log's record agrees with "
        f"the prefix oracle in {elapsed:.0f}s",
    )


def test_c10_gas_constants_and_bounds(corpus):
    built, tl_trace = run_once(corpus["ticket_deal_timelock"])
    tl = meter(tl_trace)
    assert tl.phases["escrow"].writes == 4 * tl.escrow_calls
    assert tl.phase_gas("escrow") == tl.escrow_calls * 20_000
    assert tl.phases["transfer"].writes == 2 * tl.params["t"]
    assert tl.params["t"] * 10_000 == tl.phases["transfer"].writes * 5000
    m, n = tl.params["m"], tl.params["n"]
    assert tl.total("verifications") <= m * n * n == 18

    built, cbc_trace = run_once(corpus["ticket_deal_cbc"])
    cbc = meter(cbc_trace)
    f = cbc_trace.scenario["cbc"]["f"]
    assert cbc.total("verifications") == cbc.params["m"] * (f + 1) == 4

    _, zero_trace = run_once(corpus["abort_zero_cost_timelock"])
    zero = meter(zero_trace)
    assert {res for res, _ in zero_trace.resolutions.values()} == {ABORTED}
    assert zero.total("verifications") == 0

    _, near_trace = run_once(corpus["abort_near_commit_cost_timelock"])
    near = meter(near_trace)
    assert {res for res, _ in near_trace.resolutions.values()} == {ABORTED}
    commit_costs = tl.per_contract
    near_costs = near.per_contract
    within_one_vote = [
        chain
        for chain in near_costs
        if commit_costs[chain].verifications - near_costs[chain].verifications <= n
    ]
    assert within_one_vote
    report(
        10,
        True,
        f"escrow 4 writes (20000 gas), transfer 2 writes (10000 gas); timelock "
        f"{tl.total('verifications')} <= 18 sig ver; certified total exactly 4; "
        f"zero-verification abort and near-commit-cost abort exhibited",
    )


def test_c11_delay_bounds_across_corpus():
    checked = 0
    for name in list_bundled():
        scenario = load_scenario(name)
        if name.startswith("explore_") or scenario["network"]["mode"] != "synchronous":
            continue
        built, trace = run_once(scenario)
        costs = meter(trace)
        delta = costs.params["delta"]
        n, k = costs.params["n"], max(costs.params["k"], 1)
        assert costs.durations["escrow"] <= delta, name
        assert costs.durations["transfer"] <= k * delta, name
        if costs.protocol == "cbc":
            assert costs.durations["commit"] <= 3 * delta, name
        else:
            assert costs.durations["commit"] <= n * delta, name
        checked += 1
    report(
        11,
        checked >= 10,
        f"{checked} bundled scenarios within escrow<=d, transfer<=k*d, "
        "commit<=n*d (timelock) / 3*d (certified)",
    )


def test_c12_determinism_and_replay(corpus, tmp_path):
    from dealsim.cli import build_report
    from dealsim.costs import GasSchedule
    from dealsim.properties import run_verdicts

    names = list_bundled()
    for name in names:
        scenario = load_scenario(name)
        if name.startswith("explore_"):
            continue
        _, t1 = run_once(scenario)
        _, t2 = run_once(scenario)
        assert t1.export_lines() == t2.export_lines(), name
        assert t1.digest() == t2.digest(), name
        r1 = build_report(t1, run_verdicts(t1), meter(t1, GasSchedule()))
        r2 = build_report(t2, run_verdicts(t2), meter(t2, GasSchedule()))
        assert r1 == r2, name
        replayed = replay_trace(t1)
        assert [v.to_json() for v in replayed.verdicts] == r1["verdicts"], name
    report(12, True, f"byte-identical traces and reports for {len(names)} scenarios; replay agrees")


def teardown_module(module):
    print()
    print("=" * 72)
    print("acceptance summary")
    for line in RESULTS:
        print(" ", line)
    print("=" * 72)

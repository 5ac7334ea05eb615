"""Strategy catalog behaviors, campaigns, exploration, and witness replay."""

import collections
import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import pickle
import random

import pytest

from dealsim import adversary, properties
from dealsim.adversary import (
    ExplorationBound,
    builtin_strategies,
    exhaustive_explore,
    random_campaign,
)
from dealsim.assets import AssetBundle, Payoff
from dealsim.crypto import KeyPair
from dealsim.deals import payoff_of_run
from dealsim.ledger import (
    Chain, KnownContinuation, PartyContext, SeededChoices, TapeChoices, World,
)
from dealsim.parties import PROTOCOLS, STRATEGIES, TimelockParty, controller_class
from dealsim.properties import check_safety
from dealsim.replay import replay_trace
from dealsim.scenario import (
    ScenarioError,
    build_world,
    cycle_deal,
    dual_broker_deal,
    swap_deal,
    ticket_deal,
    validate_scenario,
)
from dealsim.timelock import refund_deadline
from dealsim.trace import RunTrace, canonical_json

from conftest import run_scenario_dict


class TestCatalog:
    def test_catalog_covers_required_strategies(self):
        catalog = builtin_strategies()
        for name in (
            "silent_crash",
            "selective_communication",
            "overpay",
            "withhold_vote",
            "vote_no_forward",
            "replay_votes",
            "forged_signature",
            "fake_certificate",
            "abort_after_commit",
            "late_claim",
        ):
            assert name in catalog

    def test_virus_outcome_matches_expected_split(self, virus_run):
        built, trace = virus_run
        assert payoff_of_run(trace, "bob") == Payoff(AssetBundle.empty(), AssetBundle.empty())
        assert payoff_of_run(trace, "carol") == Payoff(
            AssetBundle.coins("bcoin", "b-coin", 100),
            AssetBundle.coins("ccoin", "c-coin", 101),
        )
        assert payoff_of_run(trace, "alice") == Payoff(
            AssetBundle.coins("ccoin", "c-coin", 101),
            AssetBundle.coins("bcoin", "b-coin", 100),
        )
        assert check_safety(trace, compliant=["bob", "carol"]).passed

    def test_overpay_gives_broker_the_excess(self, corpus):
        built, trace = run_scenario_dict(corpus["overpay_carol_cbc"])
        assert payoff_of_run(trace, "alice") == Payoff(
            AssetBundle.coins("coin", "coin", 901), AssetBundle.empty()
        )
        assert check_safety(trace, compliant=["alice", "bob"]).passed

    def test_overpay_sums_repeated_extra_coins(self):
        scenario = ticket_deal("timelock")
        params = {"step": 2, "extra": [["coin", "coin", 5], ["coin", "coin", 7]]}
        scenario["strategies"] = {"carol": {"name": "overpay", "params": params}}
        built, trace = run_scenario_dict(scenario)
        escrows = [
            e.payload["bundle"] for e in trace.publishes("coin")
            if e.payload.get("op") == "escrow" and e.publisher == "carol"
        ]
        assert escrows == [AssetBundle.coins("coin", "coin", 113).to_json()]

    def test_forged_signatures_never_accepted(self):
        scenario = ticket_deal("timelock", seed=55)
        scenario["strategies"] = {
            "bob": {"name": "forged_signature", "params": {"victim": "carol", "attempts": 12}}
        }
        built, trace = run_scenario_dict(scenario)
        forgeries = [
            e for e in trace.publishes()
            if e.payload.get("op") == "commit"
            and e.publisher == "bob"
            and e.payload["path"]["vote"]["voter"] == "carol"
        ]
        assert forgeries
        assert all(e.status == "rejected" for e in forgeries)
        assert built.world.controllers["bob"].forgeries_accepted == 0

    def test_replayed_votes_are_rejected_as_duplicates(self):
        scenario = ticket_deal("timelock", seed=56)
        scenario["strategies"] = {"bob": {"name": "replay_votes", "params": {}}}
        built, trace = run_scenario_dict(scenario)
        replays = [
            e for e in trace.publishes()
            if e.payload.get("op") == "commit" and e.publisher == "bob"
            and e.payload["path"]["links"][-1][0] != "bob"
        ]
        assert replays
        assert {res for res, _ in trace.resolutions.values()} == {"committed"}

    def test_vote_then_ignore_forwarding_still_safe(self):
        scenario = ticket_deal("timelock", seed=57)
        scenario["strategies"] = {"alice": {"name": "vote_no_forward", "params": {}}}
        built, trace = run_scenario_dict(scenario)
        assert check_safety(trace, compliant=["bob", "carol"]).passed

    def test_fake_certificate_attempts_all_rejected(self, corpus):
        built, trace = run_scenario_dict(corpus["corrupt_validator_cbc"])
        attempts = [
            e for e in trace.publishes()
            if e.payload.get("op") == "settle" and e.publisher == "carol"
            and e.payload["cert"]["status"] == "aborted"
        ]
        assert attempts
        assert all(e.status == "rejected" for e in attempts)
        assert built.world.controllers["carol"].fakes_accepted == 0

    def test_offline_window_recovers_after_resume(self):
        scenario = ticket_deal("timelock", seed=58)
        t0 = scenario["deal"]["t0"]
        scenario["strategies"] = {
            "carol": {"name": "offline_window", "params": {"from": 0, "until": t0 + 4}}
        }
        built, trace = run_scenario_dict(scenario)
        # carol comes back inside her own direct-vote window and the deal
        # can still commit; her payoff stays acceptable either way
        assert check_safety(trace, compliant=["alice", "bob"]).passed


class TestSandboxing:
    def test_controllers_only_hold_plain_state(self, virus_run):
        """No strategy object may capture the world, chains, or other keys."""
        from dealsim.ledger import Chain, World

        built, trace = virus_run
        for controller in built.world.controllers.values():
            for value in vars(controller).values():
                assert not isinstance(value, (World, Chain))

    def test_keypair_access_is_own_party_only(self, ticket_timelock_run):
        """Controllers fetch their own key per signature and keep none."""
        built, trace = ticket_timelock_run
        for controller in built.world.controllers.values():
            for value in vars(controller).values():
                assert not isinstance(value, KeyPair)

    def test_a_controller_may_not_escrow_after_it_finished_escrowing(self):
        """The explorer's quiescence test counts on it (`World.quiescent`)."""

        class EscrowsTwice(controller_class("compliant", "timelock")):
            def try_escrow(self, ctx):
                finished = self.escrow_published
                super().try_escrow(ctx)
                if not finished:
                    chain, bundle = next(iter(self.escrow_bundles().items()))
                    ctx.publish(chain, {
                        "op": "escrow", "deal": self.deal.deal_id, "party": self.me,
                        "bundle": bundle.to_json(),
                    })

        world = build_world(ticket_deal("timelock")).world
        carol = world.controllers["carol"]
        world.controllers["carol"] = EscrowsTwice(carol.me, carol.deal, carol.plan, carol.cfg, {})
        with pytest.raises(RuntimeError, match="carol escrows again"):
            world.run()


class TestCampaigns:
    def test_same_seed_identical_reports(self):
        bases = [swap_deal("timelock"), ticket_deal("timelock")]
        mix = ["silent_crash", "withhold_vote", "late_claim"]
        a = random_campaign(bases, mix, runs=60, seed=5)
        b = random_campaign(bases, mix, runs=60, seed=5)
        assert a.to_json() == b.to_json()

    def test_mixed_timelock_campaign_is_safe(self):
        bases = [swap_deal("timelock"), ticket_deal("timelock")]
        mix = ["silent_crash", "selective_communication", "late_claim", "forged_signature"]
        report = random_campaign(bases, mix, runs=150, seed=11)
        assert report.violation_count == 0
        assert sum(report.outcomes.values()) == 150

    def test_unknown_strategy_in_mix_is_rejected(self):
        with pytest.raises(ScenarioError, match="no_such_strategy"):
            random_campaign([swap_deal("timelock")], ["no_such_strategy"], runs=1, seed=0)

    def test_naive_campaign_finds_violations_with_witness(self):
        base = swap_deal("naive")
        report = random_campaign([base], ["late_claim"], runs=200, seed=13)
        assert report.violation_count > 0
        witness = report.witness_traces[0]
        replayed = replay_trace(witness)
        safety = [v for v in replayed.verdicts if v.prop == "safety"]
        assert safety[0].passed is False  # the violation replays


class TestPreparedCampaigns:
    """Campaign runs share each base's validated scenario, deal and plan."""

    @staticmethod
    def bases(protocol):
        return [
            swap_deal(protocol),
            ticket_deal(protocol),
            dual_broker_deal(protocol),
            cycle_deal(3, protocol),
        ]

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_run_matches_a_fully_validated_run(self, protocol, monkeypatch):
        traces = []
        original = properties.evaluate_run

        def recording(trace):
            traces.append(trace)
            return original(trace)

        monkeypatch.setattr(properties, "evaluate_run", recording)
        bases = self.bases(protocol)
        random_campaign(bases, sorted(STRATEGIES), runs=300, seed=8, max_adversaries=2)
        assert len(traces) == 300
        for trace in traces:
            assert validate_scenario(trace.scenario) == trace.scenario
            _, fresh = run_scenario_dict(trace.scenario)
            assert fresh.digest() == trace.digest(), trace.scenario["strategies"]
        # Some runs had a broker overpay with coins added to its wallet, so
        # their plan was rebuilt rather than shared.
        wallets = {sc["name"]: sc["wallets"] for sc in map(validate_scenario, bases)}
        assert any(
            trace.scenario["name"] in (f"ticket_deal_{protocol}", f"dual_broker_{protocol}")
            and trace.scenario["strategies"].get("alice", {}).get("name") == "overpay"
            and trace.scenario["wallets"] != wallets[trace.scenario["name"]]
            for trace in traces
        )

    def test_campaign_leaves_its_bases_unchanged(self, corpus):
        bases = self.bases("timelock") + [corpus["virus_alice_timelock"]]
        before = copy.deepcopy(bases)
        random_campaign(bases, ["overpay", "selective_communication"], runs=100, seed=4, max_adversaries=2)
        assert bases == before


class TestExploration:
    def test_two_party_space_is_safe_under_path_deadlines(self, corpus):
        result = exhaustive_explore(corpus["explore_swap_timelock"], ExplorationBound())
        assert result.verdict == "SAFE" and result.complete

    def test_naive_variant_yields_concrete_witness(self, corpus):
        result = exhaustive_explore(corpus["explore_swap_naive"], ExplorationBound())
        assert result.verdict == "VIOLATION"
        witness = result.violations[0]
        outcome = witness["resolutions"]
        assert set(v[0] for v in outcome.values()) == {"committed", "aborted"}
        trace = result.witness_traces[0]
        replayed = replay_trace(trace)
        assert any(v.prop == "safety" and v.passed is False for v in replayed.verdicts)

    def test_budget_exhaustion_reports_partial(self, corpus):
        result = exhaustive_explore(
            corpus["explore_swap_timelock"], ExplorationBound(max_runs=10)
        )
        assert result.verdict == "PARTIAL"
        assert not result.complete
        assert result.runs == 10

    def test_party_bound_enforced(self, corpus, monkeypatch):
        monkeypatch.setattr(adversary, "MAX_PARTIES", 1)
        with pytest.raises(ValueError):
            exhaustive_explore(corpus["explore_swap_timelock"], ExplorationBound())

    def test_lot_bound_is_a_scenario_error(self, corpus, monkeypatch):
        monkeypatch.setattr(adversary, "MAX_LOTS", 1)
        with pytest.raises(ScenarioError, match="exceeds exploration lot bound"):
            exhaustive_explore(corpus["explore_swap_timelock"], ExplorationBound())

    def test_a_cbc_exploration_runs_every_schedule_to_its_end(self):
        # The CBC log is never quiescent: votes and certified settles reach
        # the trace after the lots resolve, and the agreement check reads
        # them.  Counts and result are those of the search without the cut.
        scenario = swap_deal("cbc")
        scenario["network"].update({"mode": "semi-synchronous", "gst": 30, "pre_gst_cap": 2})
        result = exhaustive_explore(scenario, ExplorationBound())
        assert (result.verdict, result.runs, result.branch_points) == ("SAFE", 125, 124)
        text = json.dumps(result.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "6d12179291d86eed699f606307f83de40aa95ee0a715f9245bcb63806936a7a7"
        )

    def test_exploration_is_deterministic(self, corpus):
        a = exhaustive_explore(corpus["explore_swap_naive"], ExplorationBound())
        b = exhaustive_explore(corpus["explore_swap_naive"], ExplorationBound())
        assert a.to_json() == b.to_json()


# The distinct terminal resolutions (ticks included) of the swap
# explorations, recorded from the search that still keyed pending events by
# their insertion counter: count and sha256 of the sorted set, and the
# violating ones.
SWAP_OUTCOMES = [
    (
        "explore_swap_timelock",
        28,
        "ad0324cbb4504006dcd9ae649889b7fccd6ac03a7348b3e5266de3dc9508477b",
        [],
    ),
    (
        "explore_swap_naive",
        29,
        "bb8994b066ee1fb4bee47969b4d24f95aaf6f89d5e53c1a6c7e7a55f33bf4e6d",
        ['{"xchain/ann":["aborted",30],"ychain/ben":["committed",29]}'],
    ),
]


def explore_outcomes(scenario, rename=lambda key: key):
    """Explore `scenario`; return the result, its distinct terminal
    resolutions and its violating ones, each as canonical JSON with every
    lot key passed through `rename`."""
    seen = set()

    def canonical(resolutions):
        return canonical_json({rename(k): v for k, v in resolutions.items()})

    def evaluate(trace):
        seen.add(canonical(trace.resolutions))
        return properties.evaluate_run(trace)["failures"]

    result = exhaustive_explore(scenario, ExplorationBound(), evaluate=evaluate)
    return result, seen, sorted({canonical(v["resolutions"]) for v in result.violations})


def check_outcomes(result, seen, found, outcomes, digest, violating):
    assert result.complete
    assert result.verdict == ("VIOLATION" if violating else "SAFE")
    assert len(seen) == outcomes
    assert hashlib.sha256("\n".join(sorted(seen)).encode()).hexdigest() == digest
    assert found == violating


def check_stopping_changes_no_schedule(scenario, bound, monkeypatch) -> dict:
    """Explore `scenario` with and without stopping at visited states.  Runs,
    branch points, depths, verdict, outcome set and violating set must be
    equal, each trace judged with stopping must be one the full search
    judged, and some run must have stopped.  Returns the result's JSON."""

    def explore(stop):
        made, judged, outcomes = [], [], set()

        def recorded(tape, known=()):
            made.append(TapeChoices(tape, known if stop else ()))
            return made[-1]

        def evaluate(trace):
            judged.append((trace.digest(), canonical_json(trace.to_json())))
            outcomes.add(canonical_json(trace.resolutions))
            return properties.evaluate_run(trace)["failures"]

        monkeypatch.setattr(adversary, "TapeChoices", recorded)
        result = exhaustive_explore(scenario, bound, evaluate=evaluate).to_json()
        violating = {canonical_json(v["resolutions"]) for v in result.pop("violations")}
        depths = [(choices.tape, choices.depth) for choices in made]
        return result, depths, outcomes, violating, judged

    *stopped, judged = explore(True)
    *full, judged_full = explore(False)
    assert stopped == full
    assert set(judged) <= set(judged_full) and len(judged) < len(judged_full)
    return stopped[0]


class EscrowAfterDeadline(TimelockParty):
    """Escrows at its first event at or past the refund deadline: a notify,
    so the lot opens, and at once refunds, at a tick the latencies set."""

    strategy_name = "escrow_after_deadline"

    def ready_to_escrow(self, ctx):
        deal = self.deal
        return ctx.now >= refund_deadline(deal.t0, deal.delta, len(deal.parties))


class TestSuffixResumption:
    """The explorer resumes branches from event-boundary snapshots; every
    schedule must equal a from-scratch run of its whole tape."""

    @pytest.mark.parametrize(
        "name, judged", [("explore_swap_timelock", 33), ("explore_swap_naive", 41)]
    )
    def test_every_schedule_matches_a_fresh_run_of_its_tape(self, corpus, name, judged):
        # Reporting every judged run as a failure records its absolute tape;
        # a run that stops at a visited state is not judged.
        def evaluate(trace):
            return [{"property": "probe", "digest": trace.digest()}]

        result = exhaustive_explore(corpus[name], ExplorationBound(), evaluate=evaluate)
        assert result.complete and len(result.violations) == judged
        for violation in result.violations:
            fresh = build_world(corpus[name], choices=TapeChoices(violation["tape"]))
            assert fresh.world.run().digest() == violation["failures"][0]["digest"]

    @pytest.mark.parametrize(
        "name, runs, branch_points",
        [("explore_swap_timelock", 601, 421), ("explore_swap_naive", 555, 375)],
    )
    def test_schedule_and_branch_point_counts(self, corpus, name, runs, branch_points):
        out = exhaustive_explore(corpus[name], ExplorationBound()).to_json()
        assert (out["runs"], out["branch_points"]) == (runs, branch_points)
        assert out["complete"]

    @pytest.mark.parametrize("name", ["explore_swap_timelock", "explore_swap_naive"])
    def test_each_branch_resumes_at_the_start_of_its_event(self, corpus, monkeypatch, name):
        # A resumed schedule replays only the picks of its branch point's
        # event, so its tape is used up before the next event starts.
        late = []
        event_start = TapeChoices.event_start

        def checked(choices, world):
            if choices.log and choices.pos < len(choices.tape):
                late.append(choices.tape)
            event_start(choices, world)

        monkeypatch.setattr(TapeChoices, "event_start", checked)
        assert exhaustive_explore(corpus[name], ExplorationBound()).complete
        assert late == []

    @pytest.mark.parametrize("name", ["explore_swap_timelock", "explore_swap_naive"])
    def test_a_latency_branch_reruns_no_controller_work(self, corpus, monkeypatch, name):
        # A resumed schedule's last tape entry is its branch pick.  A latency
        # drawn at a send phase resumes there, after the controller's work.
        # Only one that `choose` draws first, mid-event, resumes at the
        # event's start and re-runs the controller up to it.
        calls = [0]  # controller calls in the current schedule
        in_choose = [False]
        branches = {False: [], True: []}  # drawn in `choose` -> calls before each

        def counted(method):
            def wrapper(*args):
                calls[0] += 1
                return method(*args)
            return wrapper

        classes = {
            cls for controller in build_world(corpus[name]).world.controllers.values()
            for cls in type(controller).__mro__
        }
        for cls in classes:
            for method in ("step", "handle_wake"):
                if method in vars(cls):
                    monkeypatch.setattr(cls, method, counted(vars(cls)[method]))
        run, pick, choose = World.run, TapeChoices.pick, PartyContext.choose

        def fresh_run(world):
            calls[0] = 0
            return run(world)

        def checked_pick(choices, label, options, world=None):
            if label[0] == "lat" and choices.pos == len(choices.tape) - 1:
                branches[in_choose[0]].append(calls[0])
            return pick(choices, label, options, world)

        def flagged_choose(ctx, label, options):
            in_choose[0] = True
            try:
                return choose(ctx, label, options)
            finally:
                in_choose[0] = False

        monkeypatch.setattr(World, "run", fresh_run)
        monkeypatch.setattr(TapeChoices, "pick", checked_pick)
        monkeypatch.setattr(PartyContext, "choose", flagged_choose)
        assert exhaustive_explore(corpus[name], ExplorationBound()).complete
        at_send_phase, in_an_event = branches[False], branches[True]
        assert at_send_phase and not any(at_send_phase)
        assert all(in_an_event) and len(in_an_event) < len(at_send_phase) / 10

    @pytest.mark.parametrize(
        "name, stops",
        [
            ("explore_swap_timelock", {"boundary": 276, "quiescent": 292}),
            ("explore_swap_naive", {"boundary": 272, "quiescent": 242}),
        ],
    )
    def test_a_run_stops_at_a_visited_event_start(self, corpus, monkeypatch, name, stops):
        # A run past its tape that reaches a boundary some earlier run went
        # on from stops there: at a choosing event's start, before that
        # event runs, at a send phase, before its picks, or at its first
        # quiescent boundary.
        found = collections.Counter()
        run = World.run

        def recorded_run(world):
            try:
                return run(world)
            except KnownContinuation as stop:
                key = stop.args[0]
                assert world.choices.pos >= len(world.choices.tape)
                if key[0] == "quiescent":
                    found["quiescent"] += 1
                else:
                    found["boundary"] += 1
                    assert key == world.state_key()
                raise

        monkeypatch.setattr(World, "run", recorded_run)
        result = exhaustive_explore(corpus[name], ExplorationBound())
        assert result.complete and found == stops

    def test_a_run_replaying_its_tape_does_not_stop_at_a_visited_event_start(self, corpus):
        # The boundaries a run reaches past its tape are made visited.  A
        # run that replays a tape through a choosing event's start runs on;
        # one whose tape ends just before it stops there, with the key's
        # count (0) added.  An event start's state key holds no queued sends.
        scenario = corpus["explore_swap_timelock"]
        first = TapeChoices([])
        trace = build_world(scenario, choices=first).world.run()
        key, depth = next((key, depth) for key, depth in first.keys if depth and key[2] == ())
        tape = first.chosen_prefix(len(first.log))
        assert depth < len(tape)
        replayed = TapeChoices(tape, {key: 0})
        assert build_world(scenario, choices=replayed).world.run().digest() == trace.digest()
        past_its_tape = TapeChoices(tape[:depth], {key: 0})
        with pytest.raises(KnownContinuation):
            build_world(scenario, choices=past_its_tape).world.run()
        assert (past_its_tape.pos, past_its_tape.depth) == (depth, depth)

    @pytest.mark.parametrize(
        "name, judged", [("explore_swap_timelock", 33), ("explore_swap_naive", 41)]
    )
    def test_known_holds_only_boundary_and_quiescent_keys(self, corpus, monkeypatch, name, judged):
        # A visited key is a boundary's state key, or the quiescent key of a
        # judged run's first quiescent boundary, which no pick follows.
        made, state_keys = [], set()
        state_key = World.state_key

        def recorded(tape, known=()):
            made.append(TapeChoices(tape, known))
            return made[-1]

        def recorded_key(world, *args):
            key = state_key(world, *args)
            state_keys.add(key)
            return key

        monkeypatch.setattr(adversary, "TapeChoices", recorded)
        monkeypatch.setattr(World, "state_key", recorded_key)
        assert exhaustive_explore(corpus[name], ExplorationBound()).complete
        known = made[-1].known
        quiescent = {key: n for key, n in known.items() if key[0] == "quiescent"}
        assert len(quiescent) == judged and set(quiescent.values()) == {0}
        assert known.keys() - quiescent.keys() <= state_keys

    @pytest.mark.parametrize(
        "name, branch_points", [("explore_swap_timelock", 421), ("explore_swap_naive", 375)]
    )
    def test_the_pick_log_marks_each_branch_point_once(
        self, corpus, monkeypatch, name, branch_points
    ):
        # perfbench/tracing.py patches each choice source's own `pick` and
        # counts an exploration's branch points as the distinct index-3 keys
        # of the log entry each pick appends.
        assert "pick" in vars(SeededChoices) and "pick" in vars(TapeChoices)
        made = []

        def recorded(tape, known=()):
            made.append(TapeChoices(tape, known))
            return made[-1]

        monkeypatch.setattr(adversary, "TapeChoices", recorded)
        result = exhaustive_explore(corpus[name], ExplorationBound())
        runs = made[1:]  # made[0] is the one `build_world` takes, which runs nothing
        assert len(runs) == result.runs
        assert all(len(entry) == 5 for choices in runs for entry in choices.log)
        keys = [entry[3] for choices in runs for entry in choices.log if entry[3] is not None]
        assert len(set(keys)) == len(keys) == result.branch_points == branch_points

    @pytest.mark.parametrize("name", ["explore_swap_timelock", "explore_swap_naive"])
    def test_a_branch_resumes_on_its_own_snapshot_and_key(self, corpus, monkeypatch, name):
        # Until its next boundary, a restored branch reuses the snapshot it
        # was restored to and that snapshot's state key: it takes no
        # snapshot, checks no quiescence and computes no key.
        boundaries = {}  # each resumed run's choices -> boundaries reached
        extra = []
        resume_at = TapeChoices.resume_at

        def recorded_resume(choices, snap, key):
            boundaries[choices] = 0
            resume_at(choices, snap, key)

        def counted_boundary(method):
            def wrapper(choices, world):
                if choices in boundaries:
                    boundaries[choices] += 1
                return method(choices, world)
            return wrapper

        def checked(method):
            def wrapper(world, *args):
                # A run that was not resumed reads as past its first boundary.
                if boundaries.get(world.choices, 2) < 2:
                    extra.append(method.__name__)
                return method(world, *args)
            return wrapper

        monkeypatch.setattr(TapeChoices, "resume_at", recorded_resume)
        for hook in ("event_start", "send_phase"):
            monkeypatch.setattr(TapeChoices, hook, counted_boundary(getattr(TapeChoices, hook)))
        for method in ("snapshot", "quiescent", "state_key"):
            monkeypatch.setattr(World, method, checked(getattr(World, method)))
        result = exhaustive_explore(corpus[name], ExplorationBound())
        assert result.complete and len(boundaries) == result.runs - 1
        assert extra == []

    def test_witness_traces_survive_later_schedules(self, corpus):
        digests = []

        def evaluate(trace):
            failures = properties.evaluate_run(trace)["failures"]
            if failures:
                digests.append(trace.digest())
            return failures

        result = exhaustive_explore(
            corpus["explore_swap_naive"], ExplorationBound(), evaluate=evaluate, keep_witnesses=10
        )
        # Only judged runs give witnesses: one per violating state.
        assert digests and len(result.witness_traces) == min(10, len(digests))
        assert [w.digest() for w in result.witness_traces] == digests[:10]

    def test_max_choice_points_counts_absolute_picks(self, corpus):
        # A resumed schedule logs only its own event's picks onward; the cap
        # applies to the whole schedule, so 10 cuts schedules that counting
        # from the resumed event would let through (as a complete SAFE over
        # 601 schedules and 421 branch points).
        result = exhaustive_explore(
            corpus["explore_swap_timelock"], ExplorationBound(max_choice_points=10)
        )
        assert (result.verdict, result.complete) == ("PARTIAL", False)
        assert (result.runs, result.branch_points) == (468, 302)

    def test_max_choice_points_counts_no_pick_after_quiescence(self, corpus):
        # Every ticket schedule makes at most 12 picks before it is quiescent
        # and more than 15 in all; counting the later ones would make this
        # PARTIAL after one run.
        result = exhaustive_explore(
            corpus["explore_ticket_allcompliant"], ExplorationBound(max_choice_points=15)
        )
        assert (result.verdict, result.complete) == ("SAFE", True)
        assert (result.runs, result.branch_points) == (1957, 1956)

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("explore_swap_timelock", ExplorationBound()),
            ("explore_swap_naive", ExplorationBound()),
            ("explore_swap_timelock", ExplorationBound(max_choice_points=10)),
        ],
        ids=["timelock", "naive", "timelock-cap10"],
    )
    def test_reusing_a_known_continuation_changes_no_schedule(
        self, corpus, monkeypatch, name, bound
    ):
        check_stopping_changes_no_schedule(corpus[name], bound, monkeypatch)

    @pytest.mark.parametrize(
        "strategies, cbc, runs",
        [
            ({}, {}, 125),
            ({"ann": {"name": "fake_certificate", "params": {}}}, {"corrupt": 1}, 727),
            ({"ben": {"name": "abort_after_commit", "params": {}}}, {}, 391),
        ],
        ids=["compliant", "fake-certificate", "abort-after-commit"],
    )
    def test_stopping_changes_no_cbc_schedule(self, monkeypatch, strategies, cbc, runs):
        # A CBC world is never quiescent, so only branch keys stop runs there,
        # and its judges read the past that the key adds.
        scenario = swap_deal("cbc")
        scenario["network"].update({"mode": "semi-synchronous", "gst": 30, "pre_gst_cap": 2})
        scenario["strategies"].update(strategies)
        scenario["cbc"].update(cbc)
        result = check_stopping_changes_no_schedule(scenario, ExplorationBound(), monkeypatch)
        assert result["runs"] == runs

    def test_stopping_changes_no_schedule_when_a_lot_opens_late(self, monkeypatch):
        # Ben's lot opens past its refund deadline, at a tick set by the
        # latency of the notify that wakes him, so the quiescent contract
        # states are the same for every refund tick: the key's late refunds
        # tell them apart.
        monkeypatch.setitem(STRATEGIES, EscrowAfterDeadline.strategy_name, EscrowAfterDeadline)
        scenario = swap_deal("timelock")
        scenario["network"]["explore_from"] = 25
        scenario["strategies"]["ben"] = {"name": EscrowAfterDeadline.strategy_name, "params": {}}
        check_stopping_changes_no_schedule(scenario, ExplorationBound(), monkeypatch)
        _, seen, _ = explore_outcomes(scenario)
        assert len({tuple(json.loads(o)["ychain/ben"]) for o in seen}) > 1

    def test_a_cbc_key_holds_the_last_vote_tick_and_every_certificate(self):
        world = build_world(swap_deal("cbc")).world
        world.run()
        key = world.state_key()
        events = world.trace_events
        votes = [
            i for i, e in enumerate(events)
            if e.kind == "publish" and e.where == "cbc" and e.status == "accepted"
            and e.payload["op"] in ("commit", "abort")
        ]
        settle = next(e for e in events if e.kind == "publish" and "cert" in e.payload)
        last_vote = events[votes[-1]]
        events[votes[-1]] = dataclasses.replace(last_vote, tick=last_vote.tick + 1)
        assert world.state_key() != key
        events[votes[-1]] = last_vote
        assert world.state_key() == key
        events.append(dataclasses.replace(settle, status="rejected", reason="already-resolved"))
        assert world.state_key() != key

    @pytest.mark.parametrize(
        "name", ["explore_swap_timelock", "explore_swap_naive", "explore_ticket_allcompliant"]
    )
    def test_the_explorer_keeps_no_whole_run(self, corpus, name):
        # A visited key keeps a pick count, not a trace: the live traces are
        # the run being judged and the kept witnesses, however many keys the
        # search holds.
        def live_traces():
            return sum(isinstance(obj, RunTrace) for obj in gc.get_objects())

        gc.collect()
        before = live_traces()
        counts = []

        def evaluate(trace):
            counts.append(live_traces() - before)
            return properties.evaluate_run(trace)["failures"]

        keep = 3
        result = exhaustive_explore(
            corpus[name], ExplorationBound(), evaluate=evaluate, keep_witnesses=keep
        )
        assert result.complete and 0 < len(counts) < result.runs
        assert max(counts) <= keep + 1

    @pytest.mark.parametrize("name, outcomes, digest, violating", SWAP_OUTCOMES)
    def test_outcome_sets_are_unchanged_by_state_merging(
        self, corpus, name, outcomes, digest, violating
    ):
        check_outcomes(*explore_outcomes(corpus[name]), outcomes, digest, violating)

    def test_unpruned_search_reaches_the_pinned_outcomes(self, corpus, monkeypatch):
        # A fresh key at every branch point merges nothing, and a world that
        # is never quiescent keeps branching to the end of every run, so
        # this search runs every schedule: the pinned set is the complete set.
        name, outcomes, digest, violating = SWAP_OUTCOMES[1]
        fresh = itertools.count()
        monkeypatch.setattr(World, "state_key", lambda world, snap: next(fresh))
        monkeypatch.setattr(World, "quiescent", lambda world: False)
        result, seen, found = explore_outcomes(corpus[name])
        check_outcomes(result, seen, found, outcomes, digest, violating)
        assert result.runs == 23_896

    @pytest.mark.parametrize("name, outcomes, digest, violating", SWAP_OUTCOMES)
    def test_renaming_the_chains_keeps_every_outcome(
        self, corpus, name, outcomes, digest, violating
    ):
        # zchain and achain sort the other way round from xchain and ychain.
        text = canonical_json(corpus[name])
        renamed = json.loads(text.replace('"xchain"', '"zchain"').replace('"ychain"', '"achain"'))
        old_names = {"zchain": "xchain", "achain": "ychain"}

        def original(key):
            chain, lot = key.split("/")
            return f"{old_names[chain]}/{lot}"

        check_outcomes(*explore_outcomes(renamed, original), outcomes, digest, violating)


class _MidpointSnapshot(SeededChoices):
    """Seeded scheduling that snapshots the world at the start of one event
    and, independently of `snapshot()`, copies each controller's fields
    there."""

    def __init__(self, seed, at_event):
        super().__init__(seed)
        self.at_event = at_event
        self.events = 0
        self.snap = None
        self.fields = None

    def event_start(self, world):
        if self.events == self.at_event:
            self.snap = world.snapshot()
            self.fields = {
                party: {
                    k: copy.copy(v) if isinstance(v, (dict, set, list)) else v
                    for k, v in vars(controller).items()
                }
                for party, controller in world.controllers.items()
            }
        self.events += 1


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_restore_rewinds_every_controller_field(name, protocol):
    scenario = ticket_deal(protocol, seed=61)
    params = STRATEGIES[name].random_params(scenario, random.Random(name))
    scenario["strategies"] = {"bob": {"name": name, "params": params}}
    counted = build_world(scenario, choices=_MidpointSnapshot(0, -1)).world
    counted.run()
    choices = _MidpointSnapshot(0, counted.choices.events // 2)
    world = build_world(scenario, choices=choices).world
    assert type(world.controllers["bob"]) is controller_class(name, protocol)
    world.run()
    assert world.snapshot() != choices.snap
    world.restore(choices.snap)
    for party, controller in world.controllers.items():
        assert vars(controller) == choices.fields[party]
    assert world.snapshot() == choices.snap


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_fields_outside_state_are_run_constants(name, protocol):
    """Snapshot, restore and the state key read only the declared `state`,
    so no run may rebind or mutate any other controller field."""
    scenario = ticket_deal(protocol, seed=61)
    params = STRATEGIES[name].random_params(scenario, random.Random(name))
    scenario["strategies"] = {"bob": {"name": name, "params": params}}
    world = build_world(scenario).world
    # Pickled bytes fingerprint each value deeply, the deal's cached bases included.
    constants = {
        party: {
            k: (v, pickle.dumps(v)) for k, v in vars(controller).items()
            if k not in controller.state
        }
        for party, controller in world.controllers.items()
    }
    world.run()
    for party, controller in world.controllers.items():
        fields = vars(controller)
        assert fields.keys() - controller.state.keys() == constants[party].keys()
        for k, (value, pickled) in constants[party].items():
            assert fields[k] is value and pickle.dumps(value) == pickled, (party, k)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_recorded_views_are_never_mutated(name, protocol, monkeypatch):
    """A chain records its contract's state without copying it, and
    controllers read those views, so no contract or controller may change a
    view once it is recorded."""
    scenario = ticket_deal(protocol, seed=61)
    params = STRATEGIES[name].random_params(scenario, random.Random(name))
    scenario["strategies"] = {"bob": {"name": name, "params": params}}
    world = build_world(scenario).world
    recorded = [(c.view_at(-1), copy.deepcopy(c.view_at(-1))) for c in world.chains.values()]
    append = Chain.append

    def recording(chain, *args):
        out = append(chain, *args)
        assert chain.views[-1] is chain.contract.state
        recorded.append((chain.views[-1], copy.deepcopy(chain.views[-1])))
        return out

    monkeypatch.setattr(Chain, "append", recording)
    world.run()
    assert len(recorded) > len(world.chains)
    for view, before in recorded:
        assert view == before


class _MidpointRewind(_MidpointSnapshot):
    """Also keeps, at the snapshot, the state key, every contract's view
    and the scheduler's generator state, so a restored run can re-finish."""

    def event_start(self, world):
        if self.events == self.at_event:
            self.key = world.state_key()
            self.contract_views = {cid: c.contract.state for cid, c in world.chains.items()}
            self.wallets = world.wallet_snapshots()
            self.rng_state = self.rng.getstate()
        super().event_start(world)


# A quarter of the way in, lots still take transfers; halfway, votes and settles.
@pytest.mark.parametrize("part", [4, 2], ids=["quarter", "half"])
@pytest.mark.parametrize(
    "name", ["timelock", "naive", "cbc", "corrupt_validator_cbc", "reconfigured_cbc"]
)
def test_contracts_rewind_from_recorded_views(corpus, name, part):
    # A protocol name stands for that protocol's ticket deal.
    scenario = corpus[name] if name in corpus else ticket_deal(name)
    counted = build_world(scenario, choices=_MidpointRewind(scenario["seed"], -1)).world
    counted.run()
    choices = _MidpointRewind(scenario["seed"], counted.choices.events // part)
    world = build_world(scenario, choices=choices).world
    first = world.run().digest()
    recorded = {cid: copy.deepcopy(chain.views) for cid, chain in world.chains.items()}
    assert world.snapshot() != choices.snap
    world.restore(choices.snap)
    for cid, chain in world.chains.items():
        assert chain.contract.state == chain.view_at(len(chain.views) - 1)
        assert chain.contract.state == choices.contract_views[cid]
    assert world.state_key() == choices.key
    choices.rng.setstate(choices.rng_state)
    assert world.run().digest() == first
    # Re-running from restored contracts leaves every recorded view as it was.
    assert {cid: chain.views for cid, chain in world.chains.items()} == recorded


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_restored_contract_holds_its_recorded_view(protocol):
    scenario = ticket_deal(protocol)
    counted = build_world(scenario, choices=_MidpointRewind(scenario["seed"], -1)).world
    counted.run()
    choices = _MidpointRewind(scenario["seed"], counted.choices.events // 2)
    world = build_world(scenario, choices=choices).world
    world.run()
    end = world.wallet_snapshots()
    world.restore(choices.snap)
    for cid, chain in world.chains.items():
        assert chain.contract.state is chain.view_at(len(chain.views) - 1)
        assert chain.contract.state is choices.contract_views[cid]
    # Each chain's balances are back to those recorded at that length.
    assert world.wallet_snapshots() == choices.wallets != end


class _SendPhaseRewind(SeededChoices):
    """Seeded scheduling that keeps, at one send phase with at least two
    queued sends, the world's snapshot, its state key and the generator
    state, so a restored run can re-finish from there."""

    def __init__(self, seed, at_phase):
        super().__init__(seed)
        self.at_phase = at_phase
        self.phases = 0

    def send_phase(self, world):
        if len(world._sends) < 2:
            return
        if self.phases == self.at_phase:
            self.snap = world.snapshot()
            self.key = world.state_key()
            self.rng_state = self.rng.getstate()
        self.phases += 1


@pytest.mark.parametrize(
    "name", ["ticket_deal_timelock", "ticket_deal_cbc", "explore_cycle3_timelock"]
)
def test_a_run_rewinds_to_a_send_phase(corpus, name):
    scenario = corpus[name]
    counted = build_world(scenario, choices=_SendPhaseRewind(scenario["seed"], -1)).world
    counted.run()
    assert counted.choices.phases > 1
    choices = _SendPhaseRewind(scenario["seed"], counted.choices.phases // 2)
    world = build_world(scenario, choices=choices).world
    first = world.run().digest()
    assert world.snapshot() != choices.snap
    world.restore(choices.snap)
    assert len(world._sends) >= 2
    assert world.state_key() == choices.key
    choices.rng.setstate(choices.rng_state)
    assert world.run().digest() == first

"""The event loop: ordering, observation bounds, determinism, network modes."""

import copy

import pytest

from dealsim.deals import DealSpec
from dealsim.ledger import TIMER_SENDER, PartyContext, SeededChoices, World
from dealsim.scenario import ScenarioError, build_world, ticket_deal
from dealsim.timelock import refund_deadline

from conftest import idle_scenario, run_scenario_dict


class RecordingContract:
    """Minimal contract accepting everything; notes application order.  Its
    chain holds no assets."""

    def __init__(self):
        self.applied = []
        self.state = {"count": 0, "wallets": {"fungible": {}, "tokens": {}}}

    def apply(self, payload, publisher, local_now, scheme):
        self.applied.append((payload.get("n"), local_now))
        self.state = {**self.state, "count": len(self.applied)}
        return "accepted", None, {}

    def state_key(self):
        return (len(self.applied),)


# A world hands its deal to each trace; these worlds run no transfers.
IDLE_DEAL = DealSpec(deal_id="idle", parties=("m1", "m2"), transfers=(), t0=0, delta=5)


class IdleParty:
    def handle_wake(self, ctx, tag):
        pass

    def step(self, ctx):
        pass


def tiny_world(delta=5, monitors=("m1", "m2")):
    world = World(idle_scenario(100, delta=delta), IDLE_DEAL, seed=1)
    world.add_chain("c", RecordingContract())
    for party in monitors:
        world.add_party(party, IdleParty(), ["c"])
    return world


class TestPublish:
    def test_sequence_numbers_dense_and_ordered(self):
        world = tiny_world()
        for i in range(3):
            world.publish("c", "m1", {"n": i})
        assert [e.seq for e in world.trace_events if e.kind == "publish"] == [0, 1, 2]

    def test_same_tick_publishes_keep_insertion_order(self):
        world = tiny_world()
        world.publish("c", "m1", {"n": "first"})
        world.publish("c", "m2", {"n": "second"})
        entries = [e for e in world.trace_events if e.kind == "publish"]
        assert [e.seq for e in entries] == [0, 1]
        assert entries[0].payload["n"] == "first"
        assert entries[1].payload["n"] == "second"
        assert entries[0].tick == entries[1].tick

    def test_unknown_chain_raises(self):
        world = tiny_world()
        with pytest.raises(ValueError):
            world.publish("nope", "m1", {})

    def test_rejected_entries_still_recorded(self, ticket_timelock_run):
        # racing forwards produce duplicate-vote rejections; the ledger
        # keeps them (public on-chain failure visibility)
        built, trace = ticket_timelock_run
        rejected = [e for e in trace.publishes() if e.status == "rejected"]
        assert rejected
        assert all(e.seq is not None and e.reason for e in rejected)
        for event in rejected:
            ledger_seqs = [x.seq for x in trace.publishes(event.where)]
            assert event.seq in ledger_seqs

    def test_notifications_within_delta(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        delta = built.deal.delta
        published_at = {}
        for event in trace.events:
            if event.kind == "publish":
                published_at[(event.where, event.seq)] = event.tick
            elif event.kind == "notify":
                key = (event.payload["chain"], event.payload["seq"])
                assert event.tick <= published_at[key] + delta
                assert event.tick >= published_at[key] + 1


class TestReadState:
    def test_observer_sees_nothing_before_notification(self):
        world = tiny_world()
        world.publish("c", "m1", {"n": 0})
        # m2 has not been notified yet: its view is still the initial state
        assert PartyContext(world, "m2").view("c")["count"] == 0
        assert PartyContext(world, "m1").view("c")["count"] == 1  # publisher sees its own entry


class TestDeterminism:
    def test_same_seed_bitwise_identical_trace(self, corpus):
        for name in ("ticket_deal_timelock", "ticket_deal_cbc", "virus_alice_timelock"):
            _, t1 = run_scenario_dict(corpus[name])
            _, t2 = run_scenario_dict(corpus[name])
            assert t1.export_lines() == t2.export_lines()
            assert t1.digest() == t2.digest()

    def test_different_seed_changes_schedule_not_outcome(self, corpus):
        _, t1 = run_scenario_dict(corpus["ticket_deal_timelock"], seed=1)
        _, t2 = run_scenario_dict(corpus["ticket_deal_timelock"], seed=2)
        assert {r for r, _ in t1.resolutions.values()} == {"committed"}
        assert {r for r, _ in t2.resolutions.values()} == {"committed"}

    def test_per_chain_total_order_immutable_in_trace(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        for chain in ("ticket", "coin"):
            seqs = [e.seq for e in trace.publishes(chain)]
            assert seqs == sorted(seqs) == list(range(len(seqs)))


class TestNetworkModel:
    def test_latency_menu_beyond_delta_is_a_scenario_error_at_load(self):
        scenario = ticket_deal("timelock")
        scenario["network"]["latency_menu"] = [1, 10]
        with pytest.raises(ScenarioError, match="exceeds delta"):
            build_world(scenario)

    def test_declared_model_violation_class_is_allowed(self):
        scenario = ticket_deal("timelock")
        scenario["network"].update(latency_menu=[1, 10], allow_model_violation=True)
        assert build_world(scenario).world.sync_menu == [1, 10]

    def test_pre_gst_deliveries_clamped_to_gst_plus_delta(self, corpus):
        built, trace = run_scenario_dict(corpus["pre_gst_delay_storm_cbc"])
        gst = corpus["pre_gst_delay_storm_cbc"]["network"]["gst"]
        delta = built.deal.delta
        published_at = {}
        for event in trace.events:
            if event.kind == "publish":
                published_at[(event.where, event.seq)] = event.tick
            elif event.kind == "notify":
                key = (event.payload["chain"], event.payload["seq"])
                pub = published_at[key]
                if pub < gst:
                    assert event.tick <= gst + delta
                else:
                    assert event.tick <= pub + delta

    def test_storm_aborts_before_stabilization(self, corpus):
        built, trace = run_scenario_dict(corpus["pre_gst_delay_storm_cbc"])
        gst = corpus["pre_gst_delay_storm_cbc"]["network"]["gst"]
        assert {res for res, _ in trace.resolutions.values()} == {"aborted"}
        assert all(t < gst for _, t in trace.resolutions.values())


class TestQuiescence:
    def test_empty_world_produces_empty_trace(self):
        world = World(idle_scenario(50), IDLE_DEAL, seed=1)
        trace = world.run()
        assert trace.events == []
        assert trace.resolutions == {}

    def test_liveness_flag_on_truncated_all_compliant_run(self, corpus):
        scenario = dict(corpus["ticket_deal_timelock"])
        scenario = ticket_deal("timelock", seed=5)
        scenario["horizon"] = scenario["deal"]["t0"] + 5 * scenario["deal"]["delta"] + 1
        built, trace = run_scenario_dict(scenario)
        assert not trace.metadata["liveness_failure"]  # quiescent well before horizon

    def test_contracts_never_see_other_chains(self):
        """Structural isolation: a contract call gets only its recorded state
        and the entry, not even its own chain."""
        import inspect

        from dealsim.cbc import CbcLogContract
        from dealsim.escrow import EscrowContract

        for contract in (EscrowContract, CbcLogContract):
            apply = list(inspect.signature(contract.apply).parameters)
            assert apply == ["self", "payload", "publisher", "local_now", "scheme"]
            quiescent = list(inspect.signature(contract.quiescent).parameters)
            assert quiescent == ["self", "finished", "local_now"]


class TestRecordedBalances:
    """A chain's balances are part of the state its contract records."""

    def test_a_cbc_trace_lists_the_certified_chain_with_empty_wallets(self):
        _, trace = run_scenario_dict(ticket_deal("cbc"))
        empty = {"fungible": {}, "tokens": {}}
        assert trace.initial_wallets["cbc"] == trace.terminal_wallets["cbc"] == empty

    def test_no_trace_field_aliases_a_recorded_state(self):
        world = build_world(ticket_deal("timelock")).world
        trace = world.run()
        recorded = {
            cid: copy.deepcopy([chain.view_at(-1), *chain.views]) for cid, chain in world.chains.items()
        }
        for wallets in (*trace.initial_wallets.values(), *trace.terminal_wallets.values()):
            for kinds in wallets["fungible"].values():
                kinds["coin"] = -1
            wallets["fungible"]["mallory"] = {"coin": 1}
            wallets["tokens"]["tkt1"] = "mallory"
        for cid, chain in world.chains.items():
            assert [chain.view_at(-1), *chain.views] == recorded[cid]

    def test_a_wallet_on_the_certified_chain_is_a_scenario_error(self):
        # The certified chain holds no assets, so no party starts with any there.
        scenario = ticket_deal("cbc")
        scenario["wallets"]["carol"]["fungible"].append(["cbc", "gas", 5])
        with pytest.raises(ScenarioError, match="unknown chain 'cbc'"):
            build_world(scenario)


class SnapshotLoggingParty(IdleParty):
    """An idle party that logs its own snapshots and restores."""

    def __init__(self, log):
        self.log = log

    def snapshot(self):
        self.log.append("snapshot")
        return len(self.log)

    def restore(self, snap):
        self.log.append("restore")


class SnapshotEveryEvent(SeededChoices):
    def __init__(self):
        super().__init__(1)
        self.snaps = []

    def event_start(self, world):
        self.snaps.append(world.snapshot())


class TestExplorationSupport:
    """The state key and snapshots that the exhaustive explorer relies on."""

    @staticmethod
    def two_worlds():
        scenario = ticket_deal("timelock")
        return build_world(scenario).world, build_world(scenario).world

    def test_state_key_ignores_the_push_order_of_pending_events(self):
        a, b = self.two_worlds()
        a.schedule_wake("alice", 40, "x")
        a.schedule_wake("bob", 45, "y")
        b.schedule_wake("bob", 45, "y")
        b.schedule_wake("alice", 40, "x")
        assert a.state_key() == b.state_key()

    def test_state_key_keeps_the_pop_order_of_equal_due_events(self):
        a, b = self.two_worlds()
        a.schedule_wake("alice", 40, "x")
        a.schedule_wake("bob", 40, "y")
        b.schedule_wake("bob", 40, "y")
        b.schedule_wake("alice", 40, "x")
        assert a.state_key() != b.state_key()

    def test_send_phase_key_holds_where_a_wake_was_pushed_among_the_sends(self):
        # A notify pops before a same-due wake only if it was published
        # first, so a wake pushed before the publish and one pushed after it
        # leave send phases with different futures.
        a, b = self.two_worlds()
        a.publish("coin", "carol", self.escrow(a, 100))
        for world in (a, b):
            world.schedule_wake("alice", 1, "x")
        b.publish("coin", "carol", self.escrow(b, 100))
        assert len(a._sends) == len(b._sends) >= 1
        assert a.state_key() != b.state_key()

    def test_state_key_holds_the_tick_the_next_event_runs_at(self):
        # Both worlds' next events are the start wakes due at 0; a world
        # whose clock has passed that due runs them at its own tick.
        a, b = self.two_worlds()
        b.now = 7
        assert a.state_key() != b.state_key()

    @staticmethod
    def escrow(world, amount):
        bundle = {"fungible": [["coin", "coin", amount]], "tokens": []}
        return {"op": "escrow", "deal": world.deal.deal_id, "party": "carol", "bundle": bundle}

    def test_state_key_holds_the_tick_a_lot_resolved_at(self):
        a, b = self.two_worlds()
        deadline = refund_deadline(30, 5, 3)  # ticket_deal's t0, delta and parties
        for world, tick in ((a, deadline), (b, deadline + 1)):
            chain = world.chains["coin"]
            timeout = {"op": "timeout", "deal": world.deal.deal_id, "lot": "carol"}
            assert chain.append("carol", self.escrow(world, 101), 0, world.scheme)[1] == "accepted"
            assert chain.append(TIMER_SENDER, timeout, tick, world.scheme)[1] == "accepted"
        assert a.resolutions() == {"coin/carol": ("aborted", deadline)}
        assert b.resolutions() == {"coin/carol": ("aborted", deadline + 1)}
        assert a.state_key() != b.state_key()

    def test_quiescence_is_read_afresh_after_a_restore(self):
        world = build_world(ticket_deal("timelock")).world
        start = world.snapshot()
        world.run()
        end = world.snapshot()
        assert world.quiescent()  # every lot committed; every party finished escrowing
        world.restore(start)
        assert not world.quiescent()
        world.restore(end)
        assert world.quiescent()
        # The same entries, but carol, who holds the tickets without a lot
        # on their chain, could still escrow them.
        world.controllers["carol"].escrow_published = False
        assert not world.quiescent()

    def test_only_a_controller_that_declares_chooses_may_choose(self):
        # The explorer snapshots only the events of declared choosers, so an
        # undeclared choice would have no snapshot to resume its branch from.
        world = build_world(ticket_deal("timelock")).world
        with pytest.raises(TypeError, match="chooses"):
            PartyContext(world, "alice").choose(("x",), [1, 2])

    def test_an_escrow_that_tops_up_an_open_lot_pushes_no_second_timer(self):
        world = build_world(ticket_deal("timelock")).world
        for amount in (100, 1):
            assert world.publish("coin", "carol", self.escrow(world, amount))[0] == "accepted"
        timers = [(due, data) for due, _, kind, data in world._heap if kind == "timer"]
        assert timers == [(refund_deadline(30, 5, 3), ("coin", "carol"))]

    def test_party_snapshot_is_reused_until_its_next_event(self):
        logs = {"m1": [], "m2": []}
        choices = SnapshotEveryEvent()
        world = World(idle_scenario(100), IDLE_DEAL, seed=1, choices=choices)
        world.add_chain("c", RecordingContract())
        for party, log in logs.items():
            world.add_party(party, SnapshotLoggingParty(log), ["c"])
        world.run()  # two events: m1's start wake, then m2's
        first, second = choices.snaps
        assert logs == {"m1": ["snapshot"] * 2, "m2": ["snapshot"]}
        world.restore(first)  # both parties had an event since
        assert logs == {"m1": ["snapshot"] * 2 + ["restore"], "m2": ["snapshot", "restore"]}
        world.restore(first)
        world.restore(second)  # m2 had no event between the two snapshots
        assert logs == {"m1": ["snapshot"] * 2 + ["restore"] * 2, "m2": ["snapshot", "restore"]}

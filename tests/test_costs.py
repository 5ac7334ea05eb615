"""Gas metering constants, closed-form bounds, and delay accounting."""

import copy
import dataclasses

import pytest

from dealsim.cbc import CBC_CHAIN
from dealsim.costs import GasSchedule, check_asymptotics, meter, render_text
from dealsim.scenario import build_world, list_bundled, load_scenario, ticket_deal, validate_scenario
from dealsim.trace import RunTrace, TraceEvent

from conftest import run_scenario_dict


class TestGasConstants:
    def test_escrow_call_is_four_writes(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        report = meter(trace)
        assert report.escrow_calls == 2
        assert report.phases["escrow"].writes == 8
        assert report.phase_gas("escrow") == 8 * 5000  # 20000 per call

    def test_transfer_call_is_two_writes(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        report = meter(trace)
        assert report.params["t"] == 4
        assert report.phases["transfer"].writes == 8
        assert report.phase_gas("transfer") == 8 * 5000  # 10000 per call

    def test_vote_costs_scale_with_path_length(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        report = meter(trace)
        expected = sum(
            len(e.payload["path"]["links"])
            for e in trace.publishes()
            if e.payload.get("op") == "commit" and e.status == "accepted"
        )
        assert report.total("verifications") == expected

    def test_cbc_settle_verifies_quorum_exactly(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        report = meter(trace)
        f = trace.scenario["cbc"]["f"]
        m = report.params["m"]
        assert report.total("verifications") == m * (f + 1) == 4
        assert report.phase_gas("commit") >= m * (f + 1) * 3000

    def test_alternate_schedule_rescales(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        default = meter(trace)
        doubled = meter(trace, GasSchedule(storage_write=10000, signature_verification=6000))
        assert doubled.gas_total() == 2 * default.gas_total()
        assert doubled.total("writes") == default.total("writes")

    def test_metering_is_idempotent(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        assert meter(trace).to_json() == meter(trace).to_json()


class TestBounds:
    def test_timelock_verification_bound(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        report = meter(trace)
        n, m = report.params["n"], report.params["m"]
        assert (n, m) == (3, 2)
        verdicts = {v.name: v for v in check_asymptotics(report)}
        bound = verdicts["sig-verifications <= m*n^2"]
        assert bound.ok and bound.bound == 18

    def test_all_bundled_scenarios_within_bounds(self, corpus):
        for name in list_bundled():
            scenario = load_scenario(name)
            if name.startswith("explore_"):
                continue
            built, trace = run_scenario_dict(scenario)
            report = meter(trace)
            for verdict in check_asymptotics(report):
                assert verdict.ok, f"{name}: {verdict.name} {verdict.measured} > {verdict.bound}"

    def test_zero_verification_abort_exists(self, corpus):
        built, trace = run_scenario_dict(corpus["abort_zero_cost_timelock"])
        report = meter(trace)
        assert {res for res, _ in trace.resolutions.values()} == {"aborted"}
        assert report.total("verifications") == 0

    def test_abort_can_cost_almost_a_commit(self, corpus, ticket_timelock_run):
        built, trace = run_scenario_dict(corpus["abort_near_commit_cost_timelock"])
        report = meter(trace)
        assert {res for res, _ in trace.resolutions.values()} == {"aborted"}
        _, commit_trace = ticket_timelock_run
        commit_per_contract = meter(commit_trace).per_contract
        abort_per_contract = report.per_contract
        # some aborted contract paid within one vote of its committing run
        close = [
            chain
            for chain in abort_per_contract
            if chain in commit_per_contract
            and commit_per_contract[chain].verifications
            - abort_per_contract[chain].verifications
            <= report.params["n"]
        ]
        assert close

    def test_reconfigured_settle_counts_chain_hops(self, corpus):
        built, trace = run_scenario_dict(corpus["reconfigured_cbc"])
        report = meter(trace)
        f = trace.scenario["cbc"]["f"]
        m = report.params["m"]
        assert report.total("verifications") == m * 2 * (f + 1)  # one hop + statement

    def test_rejected_settle_is_charged_its_rulings_verifications(self, corpus):
        # A settle whose reconfiguration hop verifies (f+1 checks) but whose
        # certificate's first signature is bad (one more check).
        scenario = corpus["reconfigured_cbc"]
        built, trace = run_scenario_dict(scenario)
        index, settle = next(
            (i, e) for i, e in enumerate(trace.events)
            if e.kind == "publish" and e.payload.get("op") == "settle"
        )
        world = build_world(scenario).world
        for event in trace.events[:index]:
            if event.kind == "publish":
                world.chains[event.where].append(
                    event.publisher, event.payload, event.tick, world.scheme
                )
        payload = copy.deepcopy(settle.payload)
        signatures = payload["cert"]["signatures"]
        signatures[0][1] = signatures[1][1]
        _, status, reason, info = world.chains[settle.where].append(
            settle.publisher, payload, settle.tick, world.scheme
        )
        f = scenario["cbc"]["f"]
        assert (status, reason, info["verifications"]) == ("rejected", "bad-signature@0", f + 2)
        rejected = TraceEvent(
            settle.tick, settle.where, "publish", status, payload,
            settle.seq, settle.publisher, reason, info,
        )
        events = list(trace.events)
        events[index] = rejected
        tampered = dataclasses.replace(trace, events=events)
        before = meter(trace).per_contract[settle.where].verifications
        after = meter(tampered).per_contract[settle.where].verifications
        assert after == before - 2 * (f + 1) + (f + 2)  # the accepted settle's charge replaced


# Every op, accepted and rejected, on an escrow chain and on the certified
# log: (tick, chain, op, status, info as the contract would record it).
CALLS = [
    (1, "coin", "escrow", "accepted", {"lot": "carol"}),
    (2, "coin", "escrow", "rejected", {}),
    (3, CBC_CHAIN, "escrow", "accepted", {}),
    (4, CBC_CHAIN, "escrow", "rejected", {}),
    (5, "coin", "transfer", "accepted", {"lot": "carol"}),
    (6, "coin", "transfer", "rejected", {}),
    (7, CBC_CHAIN, "transfer", "accepted", {}),
    (8, CBC_CHAIN, "transfer", "rejected", {}),
    (9, "coin", "transfer", "accepted", {"lot": "carol"}),
    (30, CBC_CHAIN, "start_deal", "accepted", {"h": "h0", "position": 0}),
    (31, CBC_CHAIN, "start_deal", "rejected", {}),
    (32, "coin", "start_deal", "accepted", {}),
    (33, "coin", "start_deal", "rejected", {}),
    (34, CBC_CHAIN, "commit", "accepted", {"position": 1}),
    (35, CBC_CHAIN, "commit", "rejected", {}),
    (36, CBC_CHAIN, "abort", "accepted", {"position": 2}),
    (37, CBC_CHAIN, "abort", "rejected", {}),
    (38, "coin", "commit", "accepted", {"lot": "carol", "verifications": 2}),
    (39, "coin", "commit", "accepted", {"lot": "carol", "verifications": 3, "finalized": "committed"}),
    (40, "coin", "commit", "rejected", {"lot": "carol", "verifications": 1}),
    (41, "coin", "commit", "rejected", {}),  # refused before the vote is judged
    (42, "coin", "abort", "accepted", {}),
    (43, "coin", "abort", "rejected", {}),
    (44, "coin", "timeout", "accepted", {"lot": "carol", "finalized": "aborted"}),
    (45, "coin", "timeout", "rejected", {}),
    (46, CBC_CHAIN, "timeout", "accepted", {"finalized": "aborted"}),
    (47, CBC_CHAIN, "timeout", "rejected", {}),
    (48, "coin", "settle", "accepted", {"lot": "carol", "verifications": 4, "finalized": "committed"}),
    (49, "coin", "settle", "rejected", {"lot": "carol", "verifications": 3}),
    (50, "coin", "settle", "rejected", {}),  # refused before any verification
    (51, CBC_CHAIN, "settle", "accepted", {"finalized": "committed"}),
    (52, CBC_CHAIN, "settle", "rejected", {}),
    (53, "coin", "frobnicate", "accepted", {}),
    (54, "coin", "frobnicate", "rejected", {}),
    (55, CBC_CHAIN, "frobnicate", "accepted", {}),
    (56, CBC_CHAIN, "frobnicate", "rejected", {}),
    (57, "idle", "frobnicate", "accepted", {}),
]


def hand_built_trace(protocol: str, mode: str) -> RunTrace:
    scenario = validate_scenario(ticket_deal("cbc"))
    scenario["protocol"] = protocol
    scenario["network"]["mode"] = mode
    events = [TraceEvent(0, "alice", "wake", "info", {"tag": "start"})]
    for seq, (tick, chain, op, status, info) in enumerate(CALLS):
        payload = {"op": op, "deal": "ticket-deal", "lot": "carol"}
        events.append(TraceEvent(tick, chain, "publish", status, payload, seq, "carol", None, info))
    events.append(TraceEvent(58, "bob", "notify", "info", {"chain": "coin"}))
    resolutions = {
        "coin/carol": ("committed", 60),
        "ticket/bob": ("aborted", 58),
        "coin/alice": ("active", None),
    }
    return RunTrace(scenario, 1, events, {}, {}, resolutions, scenario.deal)


GAS_ROWS = {
    "escrow calls == m": (False, 2, 3),  # one escrow on the log; two lots have none
}
DELAY_ROWS = {
    "escrow duration <= delta": (True, 3, 5),
    "transfer duration <= k*delta": (True, 4, 10),
}


class TestChargeRules:
    """Which calls the meter charges, in which phase and on which contract.

    Accepted escrow, transfer and vote calls pay their writes, and a call
    that finalizes a lot pays the finalization too.  A rejected vote judged
    on an escrow chain, and any rejected settle, still pays the verifications
    its ruling made.  Every accepted certified-log entry is one write.  An op
    no branch knows costs nothing on an escrow chain and is ignored for the
    phase spans."""

    @pytest.mark.parametrize(
        "protocol, mode, commit_ticks, bounds",
        [
            ("cbc", "synchronous", 26, {
                "sig-verifications <= m*(k_r+1)*(f+1)": (False, 13, 6),
                "commit duration <= 3*delta": (False, 26, 15),
                **GAS_ROWS, **DELAY_ROWS,
            }),
            ("timelock", "synchronous", 30, {
                "sig-verifications <= m*n^2": (True, 13, 27),
                "commit duration <= n*delta": (False, 30, 15),
                **GAS_ROWS, **DELAY_ROWS,
            }),
            ("cbc", "semi-synchronous", 26, {
                "sig-verifications <= m*(k_r+1)*(f+1)": (False, 13, 6),
                **GAS_ROWS,
            }),
        ],
    )
    def test_every_op_on_either_kind_of_chain(self, protocol, mode, commit_ticks, bounds):
        report = meter(hand_built_trace(protocol, mode))
        phases = {
            name: (pc.writes, pc.verifications, pc.calls) for name, pc in report.phases.items()
        }
        assert phases == {"escrow": (8, 0, 2), "transfer": (6, 0, 3), "commit": (16, 13, 15)}
        contracts = {
            chain: (pc.writes, pc.verifications, pc.calls)
            for chain, pc in report.per_contract.items()
        }
        assert contracts == {"coin": (16, 13, 11), CBC_CHAIN: (14, 0, 9), "idle": (0, 0, 0)}
        assert report.escrow_calls == 2
        assert report.durations == {"escrow": 3, "transfer": 4, "commit": commit_ticks}
        assert report.params == {
            "n": 3, "m": 3, "t": 3, "k": 2, "f": 1, "delta": 5, "reconfigurations": 0,
            "synchronous": int(mode == "synchronous"),
        }
        assert report.gas_total() == 30 * 5000 + 13 * 3000
        verdicts = [(b.name, (b.ok, b.measured, b.bound)) for b in check_asymptotics(report)]
        assert verdicts == list(bounds.items())


class TestDurations:
    def test_phase_durations_within_network_bounds(self, corpus):
        for name in ("ticket_deal_timelock", "ticket_deal_cbc", "virus_alice_timelock"):
            built, trace = run_scenario_dict(corpus[name])
            report = meter(trace)
            delta = report.params["delta"]
            n, k = report.params["n"], max(report.params["k"], 1)
            assert report.durations["escrow"] <= delta
            assert report.durations["transfer"] <= k * delta
            if report.protocol == "cbc":
                assert report.durations["commit"] <= 3 * delta
            else:
                assert report.durations["commit"] <= n * delta


class TestRendering:
    def test_text_table_mentions_totals_and_bounds(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        report = meter(trace)
        text = render_text(report.to_json(), [b.to_json() for b in check_asymptotics(report)])
        assert "phase" in text and "total" in text and "bound" in text
        assert str(report.gas_total()) in text

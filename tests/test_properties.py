"""Safety, liveness, and agreement checkers, with constructed negative controls."""

import copy
import json

import pytest

from dealsim.cbc import ABORTED, COMMITTED, Certificate, ValidatorService
from dealsim.crypto import SignatureScheme, certificate_message
from dealsim.deals import DealSpec, wallet_delta_payoff
from dealsim.properties import (
    check_agreement,
    check_safety,
    check_strong_liveness,
    check_weak_liveness,
    evaluate_run,
    run_verdicts,
    weak_liveness_bound,
)
from dealsim.scenario import bundled_scenarios
from dealsim.trace import RunTrace, TraceEvent

from conftest import run_scenario_dict


class TestSafety:
    def test_all_compliant_commit_passes(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        verdict = check_safety(trace)
        assert verdict.passed

    def test_split_outcome_still_safe_for_compliant(self, virus_run):
        built, trace = virus_run
        verdict = check_safety(trace, compliant=["bob", "carol"])
        assert verdict.passed

    def test_corrupted_trace_fails_with_witness(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        bad = copy.deepcopy(trace)
        # rob compliant carol of the tickets she paid for
        bad.terminal_wallets["ticket"]["tokens"]["tkt1"] = "mallory"
        bad.terminal_wallets["ticket"]["tokens"]["tkt2"] = "mallory"
        verdict = check_safety(bad)
        assert verdict.passed is False
        assert verdict.witness and verdict.witness[0]["party"] == "carol"

    def test_a_payoff_at_an_acceptable_base_passes_and_one_coin_less_fails(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        assert wallet_delta_payoff(trace, "bob") == trace.deal.acceptable_base("bob")[0]
        assert check_safety(trace).passed
        short = copy.deepcopy(trace)
        short.terminal_wallets["coin"]["fungible"]["bob"]["coin"] -= 1
        verdict = check_safety(short)
        assert verdict.passed is False
        assert [w["party"] for w in verdict.witness] == ["bob"]

    def test_no_finalize_means_everyone_nothing(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_timelock"])
        verdict = check_safety(trace)
        assert verdict.passed

    def test_unresolved_compliant_escrow_is_an_error(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_cbc"])
        bad = copy.deepcopy(trace)
        bad.metadata["compliant"] = ["alice", "bob", "carol"]  # pretend carol complied
        with pytest.raises(ValueError):
            check_safety(bad)


class TestWeakLiveness:
    def test_timeout_refund_within_bound(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_timelock"])
        verdict = check_weak_liveness(trace)
        assert verdict.passed

    def test_cbc_grace_abort_within_bound(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_cbc"])
        verdict = check_weak_liveness(trace)
        assert verdict.passed

    def test_truncated_unresolved_escrow_fails(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        bad = copy.deepcopy(trace)
        bad.resolutions["ticket/bob"] = ("active", None)
        verdict = check_weak_liveness(bad)
        assert verdict.passed is False
        assert verdict.witness[0]["lot"] == "ticket/bob"

    @pytest.mark.parametrize(
        "name, lot, bound",
        [("ticket_deal_timelock", "ticket/bob", 50), ("ticket_deal_cbc", "ticket/bob", 31)],
    )
    def test_resolution_at_the_bound_passes_and_one_past_fails(self, corpus, name, lot, bound):
        built, trace = run_scenario_dict(corpus[name])
        assert weak_liveness_bound(trace) == bound
        for tick, passed in ((bound, True), (bound + 1, False)):
            edited = copy.deepcopy(trace)
            edited.resolutions[lot] = (edited.resolutions[lot][0], tick)
            verdict = check_weak_liveness(edited)
            assert verdict.passed is passed, tick
        assert verdict.witness == [{"lot": lot, "resolved_at": bound + 1, "bound": bound}]

    def test_late_resolution_fails_bound(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        bad = copy.deepcopy(trace)
        bad.resolutions["ticket/bob"] = ("committed", 10_000)
        assert check_weak_liveness(bad).passed is False


class TestStrongLiveness:
    def test_all_compliant_synchronous_run_passes(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        assert check_strong_liveness(trace).passed

    def test_declared_adversary_is_inapplicable(self, virus_run):
        built, trace = virus_run
        verdict = check_strong_liveness(trace)
        assert verdict.passed is None

    def test_pre_stabilization_abort_reported_distinctly(self, corpus):
        built, trace = run_scenario_dict(corpus["pre_gst_delay_storm_cbc"])
        verdict = check_strong_liveness(trace)
        assert verdict.passed is None
        assert "stabilization" in verdict.details

    def test_partial_payoff_fails(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        bad = copy.deepcopy(trace)
        del bad.terminal_wallets["coin"]["fungible"]["alice"]
        verdict = check_strong_liveness(bad)
        assert verdict.passed is False

    def test_unresolved_lots_are_read_from_the_resolutions(self, ticket_timelock_run):
        # Not from the run metadata, which a trace file could forge.
        built, trace = ticket_timelock_run
        bad = copy.deepcopy(trace)
        bad.resolutions["coin/carol"] = ("active", None)
        bad.metadata["unresolved"] = []
        expected = [{"unresolved": ["coin/carol"]}]
        assert check_strong_liveness(bad).witness == expected
        assert run_verdicts(bad)[0].witness == expected


class TestAgreement:
    def test_cbc_run_single_status(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        assert check_agreement(trace).passed

    def test_inapplicable_for_timelock(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        assert check_agreement(trace).passed is None

    def test_split_resolutions_fail(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        bad = copy.deepcopy(trace)
        bad.resolutions["ticket/bob"] = ("aborted", 20)
        assert check_agreement(bad).passed is False

    @staticmethod
    def with_opposite_certificate(trace, signers: int, h=None):
        """A copy of `trace` with a settle appended whose certificate claims
        the opposite of its settles' status, signed by `signers` epoch-0
        validators."""
        settled = next(e.payload["cert"] for e in trace.publishes() if "cert" in e.payload)
        status = ABORTED if settled["status"] == COMMITTED else COMMITTED
        h = h or settled["h"]
        scheme = SignatureScheme.for_run(trace.seed)
        members = ValidatorService.for_scenario(scheme, trace.scenario["cbc"]).members(0)
        message = certificate_message(settled["deal"], h, status, 0)
        sigs = tuple(sorted((v, scheme.sign(scheme.keypair(v), message)) for v in members[:signers]))
        cert = Certificate(settled["deal"], h, status, 0, sigs)
        bad = copy.deepcopy(trace)
        payload = {"op": "settle", "deal": cert.deal, "party": "bob", "lot": "bob",
                   "cert": cert.to_json()}
        bad.events.append(TraceEvent(60, "ticket", "publish", "rejected", payload, publisher="bob"))
        return bad

    def test_an_opposite_certificate_at_quorum_fails(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        f = trace.scenario["cbc"]["f"]
        verdict = check_agreement(self.with_opposite_certificate(trace, f + 1))
        assert verdict.passed is False
        assert [w["statuses"] for w in verdict.witness] == [[ABORTED, COMMITTED]]

    def test_an_opposite_certificate_below_quorum_passes(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        f = trace.scenario["cbc"]["f"]
        assert check_agreement(self.with_opposite_certificate(trace, f)).passed

    def test_an_opposite_certificate_of_another_start_ref_passes(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        f = trace.scenario["cbc"]["f"]
        assert check_agreement(self.with_opposite_certificate(trace, f + 1, h="0" * 16)).passed

    def test_forged_certificates_are_not_verifiable(self, corpus):
        built, trace = run_scenario_dict(corpus["corrupt_validator_cbc"])
        assert check_agreement(trace).passed
        fakes = [
            e for e in trace.publishes()
            if e.payload.get("op") == "settle" and e.status == "rejected"
        ]
        assert fakes  # the corrupt-validator strategy did try


class TestCheckerDiscipline:
    def test_checkers_are_pure(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        first = [v.to_json() for v in run_verdicts(trace)]
        second = [v.to_json() for v in run_verdicts(trace)]
        assert first == second

    def test_failing_verdicts_always_carry_witnesses(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        bad = copy.deepcopy(trace)
        bad.terminal_wallets["ticket"]["tokens"]["tkt1"] = "mallory"
        bad.terminal_wallets["ticket"]["tokens"]["tkt2"] = "mallory"
        bad.resolutions["coin/carol"] = ("committed", 9_999)
        for verdict in run_verdicts(bad):
            if verdict.passed is False:
                assert verdict.witness

    def test_evaluate_run_outcome_labels(self, corpus, ticket_timelock_run):
        built, trace = ticket_timelock_run
        assert evaluate_run(trace)["outcome"] == "committed"
        _, aborted = run_scenario_dict(corpus["silent_party_timelock"])
        assert evaluate_run(aborted)["outcome"] == "aborted"
        _, split = run_scenario_dict(corpus["virus_alice_timelock"])
        assert evaluate_run(split)["outcome"] == "mixed"


def judged(trace) -> tuple:
    report = evaluate_run(trace)
    return report["outcome"], [v.to_json() for v in report["verdicts"]], report["failures"]


class TestLiveAndLoadedTraces:
    """A live trace holds its world's deal, a loaded one the deal parsed from its scenario."""

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_round_trip_keeps_verdicts_and_failures(self, corpus, name):
        scenario = corpus[name]
        for seed in (scenario["seed"], scenario["seed"] + 1000):
            built, live = run_scenario_dict(scenario, seed=seed)
            assert live.deal is built.deal
            loaded = RunTrace.from_json(json.loads(json.dumps(live.to_json())))
            assert loaded.deal == live.deal and loaded == live
            assert judged(loaded) == judged(live)

    def test_deepcopy_keeps_verdicts(self, virus_run):
        built, trace = virus_run
        copied = copy.deepcopy(trace)
        assert copied.deal == trace.deal
        assert judged(copied) == judged(trace)

    def test_a_judged_run_parses_its_deal_once(self, corpus, monkeypatch):
        parsed = []
        parse = DealSpec.from_json.__func__

        def counting(cls, data):
            parsed.append(data["id"])
            return parse(cls, data)

        monkeypatch.setattr(DealSpec, "from_json", classmethod(counting))
        built, trace = run_scenario_dict(corpus["ticket_deal_timelock"])
        evaluate_run(trace)
        assert parsed == ["ticket-deal"]

"""Shared-ledger decisions, certificates, quorum checks, and settlement."""

import copy
import itertools
from types import SimpleNamespace

import pytest

from dealsim.assets import AssetBundle
from dealsim.cbc import (
    ABORTED,
    CBC_CHAIN,
    COMMITTED,
    UNDECIDED,
    CbcError,
    CbcLogContract,
    Certificate,
    Decision,
    ReconfigHop,
    ValidatorService,
    check_signature_quorum,
    verify_certificate,
)
from dealsim.crypto import SignatureScheme, certificate_message, validator_set_message
from dealsim.escrow import EscrowContract
from dealsim.ledger import PartyContext
from dealsim.parties import STRATEGIES, CbcParty
from dealsim.properties import evaluate_run
from dealsim.scenario import (
    build_world, bundled_scenarios, dual_broker_deal, swap_deal, ticket_deal,
)

from conftest import run_scenario_dict


def decide_oracle(votes, parties):
    """Brute-force prefix oracle, evaluating each prefix literally.

    A prefix proves commit when every party's first commit precedes every
    abort; it proves abort when some abort position precedes a commit from
    every party.  The decision is the first prefix that is a proof.
    """
    n = len(set(parties))
    members = set(parties)
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
                v for k2, v in
                ((votes[i][0], votes[i][1]) for i in range(a))
                if k2 == "commit" and v in members
            }
            if len(committed_before) < n:
                return (ABORTED, a)
    return (UNDECIDED, None)


PARTIES3 = ("a", "b", "c")


def decide(votes, parties):
    """(status, position) of a start's record after `votes`, each folded in
    through `Decision.after` at its index as position."""
    record = Decision("d", frozenset(parties))
    for position, (kind, voter) in enumerate(votes):
        record = record.after(kind, voter, position)
    return record.status, record.position


class TestDecideRule:
    def test_unanimous_commits_decide_at_last_commit(self):
        votes = [("commit", "a"), ("commit", "b"), ("commit", "c")]
        assert decide(votes, PARTIES3) == (COMMITTED, 2)

    def test_any_early_abort_decides(self):
        votes = [("commit", "a"), ("abort", "b")]
        assert decide(votes, PARTIES3) == (ABORTED, 1)

    def test_rescinded_commit_counts_as_abort(self):
        votes = [("commit", "a"), ("commit", "b"), ("abort", "a"), ("commit", "c")]
        assert decide(votes, PARTIES3) == (ABORTED, 2)

    def test_abort_after_completion_is_too_late(self):
        votes = [("commit", "a"), ("commit", "b"), ("commit", "c"), ("abort", "a")]
        assert decide(votes, PARTIES3) == (COMMITTED, 2)

    def test_matches_oracle_on_short_logs(self):
        parties = ("a", "b", "c")
        actions = [(k, p) for p in parties for k in ("commit", "abort")]
        for length in range(0, 5):
            for votes in itertools.product(actions, repeat=length):
                assert decide(list(votes), parties) == decide_oracle(list(votes), parties)


class TestStartDeal:
    def test_a_party_adopts_the_earliest_start_of_exactly_its_deal_parties(self):
        built = build_world(ticket_deal("cbc"))
        party = built.world.controllers["bob"]
        deal, parties = built.deal.deal_id, list(built.deal.parties)
        log = CbcLogContract()
        ctx = SimpleNamespace(view=lambda chain: log.state)
        assert not party.ready_to_escrow(ctx)
        starts = [
            ("other-deal", parties),
            (deal, parties[:1]),  # leaves parties out
            (deal, [*parties, "mallory"]),  # lists an outsider
            (deal, parties[::-1]),  # the deal's parties, in another order
            (deal, parties),
        ]
        refs = [
            log.apply({"op": "start_deal", "deal": d, "plist": plist}, plist[0], 0, None)[2]["h"]
            for d, plist in starts
        ]
        assert party.ready_to_escrow(ctx) and party.h == refs[3]

    def test_reordering_duplicates_changes_resolution_deterministically(self):
        from dealsim.cbc import start_ref

        assert start_ref("d", ["a", "b"], 0) != start_ref("d", ["a", "b"], 1)

    def test_vote_requires_existing_start(self):
        log = CbcLogContract()
        status, reason, _ = log.apply(
            {"op": "commit", "deal": "d", "h": "junk", "voter": "a"}, "a", 0, None
        )
        assert (status, reason) == ("rejected", "unknown-start")

    def test_outsider_start_and_vote_rejected(self):
        log = CbcLogContract()
        status, reason, _ = log.apply(
            {"op": "start_deal", "deal": "d", "plist": ["a", "b"]}, "mallory", 0, None
        )
        assert (status, reason) == ("rejected", "caller-not-in-plist")
        _, _, info = log.apply({"op": "start_deal", "deal": "d", "plist": ["a", "b"]}, "a", 0, None)
        status, reason, _ = log.apply(
            {"op": "commit", "deal": "d", "h": info["h"], "voter": "mallory"}, "mallory", 0, None
        )
        assert (status, reason) == ("rejected", "unknown-voter")


@pytest.fixture
def decided_log():
    scheme = SignatureScheme("v")
    service = ValidatorService(scheme, f=1)
    log = CbcLogContract()
    plist = ["a", "b", "c"]
    _, _, info = log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", 0, None)
    for voter in plist:
        log.apply({"op": "commit", "deal": "d", "h": info["h"], "voter": voter}, voter, 1, None)
    return scheme, service, log, info["h"]


class TestCertificates:

    def test_certificate_has_quorum_of_signatures(self, decided_log):
        scheme, service, log, h = decided_log
        cert = service.issue_certificate(log.state, "d", h)
        assert cert.status == COMMITTED
        assert len(cert.signatures) == service.f + 1 == 2
        ruling = verify_certificate(cert, 0, service.members(0), service.f, scheme)
        assert ruling.ok and ruling.verifications == 2

    def test_undecided_deal_has_no_certificate(self):
        scheme = SignatureScheme("v")
        service = ValidatorService(scheme, f=1)
        log = CbcLogContract()
        _, _, info = log.apply(
            {"op": "start_deal", "deal": "d", "plist": ["a", "b"]}, "a", 0, None
        )
        with pytest.raises(CbcError):
            service.issue_certificate(log.state, "d", info["h"])

    def test_corrupt_minority_cannot_reach_quorum(self, decided_log):
        scheme, _, log, h = decided_log
        service = ValidatorService(scheme, f=1, corrupt=1)
        msg = certificate_message("d", h, ABORTED, 0)
        sigs = tuple(service.corrupt_signatures(msg))
        assert len(sigs) == 1  # at most f deviating validators exist
        cert = Certificate("d", h, ABORTED, 0, sigs)
        ruling = verify_certificate(cert, 0, service.members(0), service.f, scheme)
        assert not ruling.ok and ruling.reason == "below-threshold"

    def test_duplicate_signer_rejected(self, decided_log):
        scheme, service, log, h = decided_log
        cert = service.issue_certificate(log.state, "d", h)
        padded = Certificate(
            cert.deal, cert.h, cert.status, cert.epoch, (cert.signatures[0], cert.signatures[0])
        )
        ruling = verify_certificate(padded, 0, service.members(0), service.f, scheme)
        assert not ruling.ok and ruling.reason == "duplicate-signer"

    def test_non_validator_signer_rejected(self, decided_log):
        scheme, service, log, h = decided_log
        outsider = scheme.keypair("intruder")
        msg = certificate_message("d", h, COMMITTED, 0)
        sigs = (
            service.issue_certificate(log.state, "d", h).signatures[0],
            ("intruder", scheme.sign(outsider, msg)),
        )
        cert = Certificate("d", h, COMMITTED, 0, tuple(sorted(sigs)))
        ruling = verify_certificate(cert, 0, service.members(0), service.f, scheme)
        assert not ruling.ok and ruling.reason == "non-validator-signer"

    def test_bad_signature_detected_and_counted(self, decided_log):
        scheme, service, log, h = decided_log
        cert = service.issue_certificate(log.state, "d", h)
        (v0, s0), (v1, s1) = cert.signatures
        broken = Certificate(cert.deal, cert.h, cert.status, cert.epoch, ((v0, s0), (v1, s0)))
        ruling = verify_certificate(broken, 0, service.members(0), service.f, scheme)
        assert not ruling.ok
        assert ruling.reason == "bad-signature@1"
        assert ruling.verifications == 2

    def test_stale_epoch_needs_reconfiguration_chain(self, decided_log):
        scheme, service, log, h = decided_log
        hop = service.reconfigure()
        cert = service.issue_certificate(log.state, "d", h)
        assert cert.epoch == 1
        without_chain = verify_certificate(cert, 0, service.members(0), service.f, scheme)
        assert not without_chain.ok and without_chain.reason == "stale-epoch"
        with_chain = verify_certificate(
            cert, 0, service.members(0), service.f, scheme, (hop,)
        )
        assert with_chain.ok
        assert with_chain.verifications == 2 * (service.f + 1)  # one hop + the statement

    def test_a_validator_key_is_derived_only_when_it_signs(self):
        class CountingScheme(SignatureScheme):
            def __init__(self):
                super().__init__("v")
                self.asked = set()

            def keypair(self, party):
                self.asked.add(party)
                return super().keypair(party)

        scheme = CountingScheme()
        service = ValidatorService(scheme, f=2, corrupt=1)
        assert scheme.asked == set()
        service.corrupt_signatures(b"lie")
        assert scheme.asked == set(service.corrupt_ids)
        hop = service.reconfigure()
        assert scheme.asked == set(service.corrupt_ids) | {v for v, _ in hop.signatures}
        log = CbcLogContract()
        h = log.apply({"op": "start_deal", "deal": "d", "plist": ["a"]}, "a", 0, None)[2]["h"]
        log.apply({"op": "commit", "deal": "d", "h": h, "voter": "a"}, "a", 1, None)
        scheme.asked.clear()
        cert = service.issue_certificate(log.state, "d", h)
        assert scheme.asked == {v for v, _ in cert.signatures}
        assert len(cert.signatures) == service.f + 1 < len(service.members())
        assert verify_certificate(cert, 0, service.members(0), service.f, scheme, (hop,)).ok


def assert_decisions_recorded(states):
    """Each log state holds, in start order, a record for every start ref in
    its entries, and for no other: the start's deal and party set, and the
    prefix oracle's decision of the votes on it."""
    for state in states:
        starts = [e for e in state["entries"] if e["op"] == "start_deal"]
        assert list(state["decisions"]) == [e["h"] for e in starts]
        for start in starts:
            votes = [e for e in state["entries"] if e["op"] != "start_deal" and e["h"] == start["h"]]
            status, index = decide_oracle([(e["op"], e["voter"]) for e in votes], start["plist"])
            decided = votes if index is None else votes[: index + 1]
            assert state["decisions"][start["h"]] == Decision(
                start["deal"],
                frozenset(start["plist"]),
                status,
                None if index is None else votes[index]["position"],
                frozenset(e["voter"] for e in decided if e["op"] == "commit"),
            )


CBC_SCENARIOS = sorted(n for n, sc in bundled_scenarios().items() if sc["protocol"] == "cbc")


class TestRecordedDecisions:
    @pytest.mark.parametrize("seed", [None, 7, 1001], ids=["own-seed", "seed-7", "seed-1001"])
    @pytest.mark.parametrize("name", CBC_SCENARIOS)
    def test_every_recorded_view_holds_the_decision_of_its_entries(self, corpus, name, seed):
        built, _ = run_scenario_dict(corpus[name], seed)
        views = built.world.chains[CBC_CHAIN].views
        assert views and views[-1]["decisions"]
        assert_decisions_recorded(views)

    def test_a_hand_built_log_records_the_decision_of_its_entries(self):
        log = CbcLogContract()
        seen = [(log.state, copy.deepcopy(log.state))]  # each state, with a deep copy

        def apply(payload, publisher, expected):
            status, reason, info = log.apply(payload, publisher, 0, None)
            assert status == expected, (payload, reason)
            seen.append((log.state, copy.deepcopy(log.state)))
            return info

        plist = ["a", "b", "c"]
        first = apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", "accepted")["h"]
        second = apply({"op": "start_deal", "deal": "d", "plist": plist}, "b", "accepted")["h"]
        other = apply({"op": "start_deal", "deal": "e", "plist": ["a", "b"]}, "a", "accepted")["h"]
        apply({"op": "commit", "deal": "d", "h": "unknown", "voter": "a"}, "a", "rejected")
        apply({"op": "commit", "deal": "e", "h": first, "voter": "a"}, "a", "rejected")
        for voter in plist:
            apply({"op": "commit", "deal": "d", "h": first, "voter": voter}, voter, "accepted")
        apply({"op": "abort", "deal": "d", "h": first, "voter": "b"}, "b", "accepted")
        apply({"op": "abort", "deal": "d", "h": second, "voter": "c"}, "c", "accepted")
        apply({"op": "commit", "deal": "d", "h": second, "voter": "a"}, "a", "accepted")
        apply({"op": "abort", "deal": "e", "h": other, "voter": "c"}, "c", "rejected")

        members = frozenset(plist)
        assert log.state["decisions"] == {
            first: Decision("d", members, COMMITTED, 5, members),  # votes after it change nothing
            second: Decision("d", members, ABORTED, 7, frozenset()),
            other: Decision("e", frozenset(["a", "b"]), UNDECIDED, None, frozenset()),
        }
        assert_decisions_recorded([state for state, _ in seen])
        for state, before in seen:
            assert state == before  # no later entry mutated an earlier state

    def test_every_short_vote_sequence_is_decided_without_rescanning_the_log(self):
        votes = itertools.product(("commit", "abort"), "abc", (0, 1))  # op, voter, start
        for sequence in itertools.product(list(votes), repeat=3):
            log = CbcLogContract()
            refs = []
            for plist in (["a", "b"], ["a", "b", "c"]):
                start = {"op": "start_deal", "deal": "d", "plist": plist}
                refs.append(log.apply(start, "a", 0, None)[2]["h"])
            states = [log.state]
            for op, voter, start in sequence:
                payload = {"op": op, "deal": "d", "h": refs[start], "voter": voter}
                log.apply(payload, voter, 0, None)
                states.append(log.state)
            assert_decisions_recorded(states)

    def test_an_unknown_or_undecided_start_ref_has_no_certificate(self):
        service = ValidatorService(SignatureScheme("v"), f=1)
        log = CbcLogContract()
        plist = ["a", "b"]
        decided = log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", 0, None)[2]["h"]
        undecided = log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", 0, None)[2]["h"]
        log.apply({"op": "abort", "deal": "d", "h": decided, "voter": "b"}, "b", 1, None)
        assert service.issue_certificate(log.state, "d", decided).status == ABORTED
        for deal, h in (("d", undecided), ("d", "unknown"), ("e", decided)):
            with pytest.raises(CbcError):
                service.issue_certificate(log.state, deal, h)


class TestPlantedCertificateDefects:
    """Each test fails under one planted one-line defect of the certificate
    checks: a settle without the start-ref check, a stale epoch accepted
    after a hop, and a gapped hop chain accepted."""

    def test_a_certificate_of_another_start_ref_is_refused(self):
        scheme = SignatureScheme("t")
        service = ValidatorService(scheme, f=1)
        log = CbcLogContract()
        start = {"op": "start_deal", "deal": "deal-1", "plist": ["alice", "bob"]}
        h = log.apply(start, "alice", 0, None)[2]["h"]
        second = log.apply(start, "bob", 0, None)[2]["h"]
        log.apply({"op": "abort", "deal": "deal-1", "h": second, "voter": "bob"}, "bob", 1, None)
        cert = service.issue_certificate(log.state, "deal-1", second)
        assert verify_certificate(cert, 0, service.members(0), 1, scheme).ok

        wallets = {"fungible": {"bob": {"coin": 5}}, "tokens": {}}
        contract = EscrowContract("coin", "deal-1", ("alice", "bob"), 30, 5, "cbc", wallets)
        config = {"h": h, "epoch": 0, "validators": list(service.members(0)), "f": 1}
        escrow = {"op": "escrow", "deal": "deal-1", "party": "bob",
                  "bundle": AssetBundle.coins("coin", "coin", 5).to_json(), **config}
        assert contract.apply(escrow, "bob", 0, scheme)[0] == "accepted"
        settle = {"op": "settle", "deal": "deal-1", "party": "bob", "lot": "bob",
                  "cert": cert.to_json()}
        assert contract.apply(settle, "bob", 2, scheme)[:2] == ("rejected", "wrong-deal-ref")
        assert contract.state["lots"]["bob"]["resolution"] == "active"

    def test_an_old_epochs_certificate_is_stale_after_a_hop(self, decided_log):
        scheme, service, log, h = decided_log
        old = service.issue_certificate(log.state, "d", h)
        assert old.epoch == 0
        hop = service.reconfigure()
        assert verify_certificate(old, 0, service.members(0), 1, scheme).ok
        ruling = verify_certificate(old, 0, service.members(0), 1, scheme, (hop,))
        assert (ruling.ok, ruling.reason) == (False, "stale-epoch")
        assert ruling.verifications == service.f + 1  # the hop's quorum was checked

    def test_a_hop_chain_may_not_skip_an_epoch(self, decided_log):
        scheme, service, log, h = decided_log
        epoch0 = service.honest_members(0)[: service.f + 1]
        service.reconfigure()
        service.reconfigure()
        members = service.members(2)
        message = validator_set_message(2, members)
        sigs = tuple(sorted((v, scheme.sign(scheme.keypair(v), message)) for v in epoch0))
        assert check_signature_quorum(message, sigs, frozenset(service.members(0)), 1, scheme).ok
        skip = ReconfigHop(2, members, sigs)
        cert = service.issue_certificate(log.state, "d", h)
        assert cert.epoch == 2
        ruling = verify_certificate(cert, 0, service.members(0), 1, scheme, (skip,))
        assert (ruling.ok, ruling.reason) == (False, "epoch-gap")


class TestCbcRuns:
    def test_all_compliant_run_votes_then_settles(self, ticket_cbc_run):
        built, trace = ticket_cbc_run
        cbc_ops = [e.payload["op"] for e in trace.publishes("cbc") if e.status == "accepted"]
        assert cbc_ops[0] == "start_deal"
        assert cbc_ops.count("commit") == 3
        assert "abort" not in cbc_ops
        settles = [e for e in trace.publishes() if e.payload.get("op") == "settle"]
        assert {e.where for e in settles} == {"ticket", "coin"}
        assert {res for res, _ in trace.resolutions.values()} == {COMMITTED}

    def test_silent_party_makes_others_abort_after_grace(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_cbc"])
        cbc_votes = [
            (e.payload["op"], e.payload["voter"])
            for e in trace.publishes("cbc")
            if e.payload.get("op") in ("commit", "abort") and e.status == "accepted"
        ]
        commits = [v for op, v in cbc_votes if op == "commit"]
        aborts = [v for op, v in cbc_votes if op == "abort"]
        assert "carol" not in commits
        assert set(aborts) <= {"alice", "bob"} and aborts
        assert trace.resolutions["ticket/bob"][0] == ABORTED

    def test_failed_validation_aborts_immediately(self):
        scenario = ticket_deal("cbc", seed=88)
        scenario["strategies"] = {
            "carol": {"name": "compliant", "params": {"validation_verdict": "reject"}},
        }
        built, trace = run_scenario_dict(scenario)
        votes = [
            (e.payload["op"], e.payload["voter"], e.tick)
            for e in trace.publishes("cbc")
            if e.payload.get("op") in ("commit", "abort") and e.status == "accepted"
        ]
        carol_aborts = [t for op, v, t in votes if v == "carol" and op == "abort"]
        grace = scenario["cbc"]["grace"]
        assert carol_aborts and carol_aborts[0] < built.deal.t0 + grace
        assert {res for res, _ in trace.resolutions.values()} == {ABORTED}

    def test_abort_rescinds_own_commit(self, corpus):
        scenario = ticket_deal("cbc", seed=91)
        scenario["strategies"] = {"carol": {"name": "abort_after_commit", "params": {}}}
        built, trace = run_scenario_dict(scenario)
        outcomes = {res for res, _ in trace.resolutions.items()}
        statuses = {res for res, _ in trace.resolutions.values() if res != "active"}
        assert len(statuses) == 1  # agreement regardless of the rescind race

    def test_reconfigured_epoch_settles_with_chain_proof(self, corpus):
        built, trace = run_scenario_dict(corpus["reconfigured_cbc"])
        settles = [
            e for e in trace.publishes()
            if e.payload.get("op") == "settle" and e.status == "accepted"
        ]
        assert settles
        for event in settles:
            assert event.payload["cert"]["epoch"] == 1
            assert len(event.payload["reconfig"]) == 1
        assert {res for res, _ in trace.resolutions.values()} == {COMMITTED}


@pytest.mark.parametrize(
    "name", sorted(n for n, sc in bundled_scenarios().items() if sc["protocol"] == "cbc")
)
def test_no_certificate_once_every_settle_target_is_settled(corpus, name, monkeypatch):
    # Per request: were the requester's settle targets already all settled?
    requests = []
    original = PartyContext.request_certificate

    def recording(ctx, deal_id, h):
        controller = ctx._world.controllers[ctx.me]
        cert = original(ctx, deal_id, h)
        requests.append(controller.settled.issuperset(controller.settle_targets(cert.status)))
        return cert

    monkeypatch.setattr(PartyContext, "request_certificate", recording)
    run_scenario_dict(corpus[name])
    assert requests and not any(requests)


class RogueStart(CbcParty):
    """The deal's first party starts it once listing only itself, before its
    real start, and commits under that start as soon as it adopts it."""

    strategy_name = "rogue_start"

    def __init__(self, me, deal, plan, cfg, params):
        super().__init__(me, deal, plan, cfg, params)
        self.members = frozenset([me])  # the start it adopts is its own

    def on_start(self, ctx):
        ctx.publish(CBC_CHAIN, {"op": "start_deal", "deal": self.deal.deal_id, "plist": [self.me]})
        super().on_start(ctx)

    def ready_to_escrow(self, ctx) -> bool:
        ready = super().ready_to_escrow(ctx)
        if ready:
            self.publish_cbc_vote(ctx, "commit")
        return ready


def test_no_compliant_party_escrows_under_a_start_that_leaves_parties_out(monkeypatch):
    # Over seeds 0-19 of the swap, ticket and dual-broker CBC deals with the
    # first party bound to RogueStart, no run fails safety, weak liveness or
    # agreement: the compliant parties adopt the real start, and the rogue's
    # lone commit decides only its own start, under which none escrowed.
    monkeypatch.setitem(STRATEGIES, RogueStart.strategy_name, RogueStart)
    violating = []
    for builder in (swap_deal, ticket_deal, dual_broker_deal):
        for seed in range(20):
            scenario = builder("cbc", seed=seed)
            starter = scenario["deal"]["parties"][0]
            scenario["strategies"][starter] = {"name": RogueStart.strategy_name, "params": {}}
            _, trace = run_scenario_dict(scenario)
            if evaluate_run(trace)["failures"]:
                violating.append((scenario["name"], seed))
    assert violating == []

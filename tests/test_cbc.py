"""Shared-ledger decisions, certificates, quorum checks, and settlement."""

import itertools

import pytest

from dealsim.cbc import (
    ABORTED,
    COMMITTED,
    UNDECIDED,
    CbcError,
    CbcLogContract,
    Certificate,
    ValidatorService,
    cbc_decide,
    decide_votes,
    verify_certificate,
)
from dealsim.crypto import SignatureScheme, certificate_message
from dealsim.ledger import PartyContext
from dealsim.scenario import bundled_scenarios, ticket_deal

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


class TestDecideRule:
    def test_unanimous_commits_decide_at_last_commit(self):
        votes = [("commit", "a"), ("commit", "b"), ("commit", "c")]
        assert decide_votes(votes, PARTIES3) == (COMMITTED, 2)

    def test_any_early_abort_decides(self):
        votes = [("commit", "a"), ("abort", "b")]
        assert decide_votes(votes, PARTIES3) == (ABORTED, 1)

    def test_rescinded_commit_counts_as_abort(self):
        votes = [("commit", "a"), ("commit", "b"), ("abort", "a"), ("commit", "c")]
        assert decide_votes(votes, PARTIES3) == (ABORTED, 2)

    def test_abort_after_completion_is_too_late(self):
        votes = [("commit", "a"), ("commit", "b"), ("commit", "c"), ("abort", "a")]
        assert decide_votes(votes, PARTIES3) == (COMMITTED, 2)

    def test_matches_oracle_on_short_logs(self):
        parties = ("a", "b", "c")
        actions = [(k, p) for p in parties for k in ("commit", "abort")]
        for length in range(0, 5):
            for votes in itertools.product(actions, repeat=length):
                assert decide_votes(list(votes), parties) == decide_oracle(list(votes), parties)

    def test_decide_over_log_entries(self):
        log = CbcLogContract()
        plist = ["a", "b", "c"]
        _, _, info = log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", 0, None)
        h = info["h"]
        for voter in plist:
            log.apply({"op": "commit", "deal": "d", "h": h, "voter": voter}, voter, 1, None)
        decision = cbc_decide(log.entries, "d", h)
        assert decision.status == COMMITTED
        assert decision.position == 3  # start entry occupies position 0

    def test_missing_start_raises(self):
        with pytest.raises(CbcError):
            cbc_decide([], "d", "nope")


class TestStartDeal:
    def test_earliest_duplicate_is_definitive(self):
        log = CbcLogContract()
        plist = ["a", "b"]
        log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", 0, None)
        log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "b", 1, None)
        from dealsim.cbc import definitive_start

        assert definitive_start(log.entries, "d")["position"] == 0

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


class TestCertificates:
    @pytest.fixture
    def decided_log(self):
        scheme = SignatureScheme("v")
        service = ValidatorService(scheme, f=1)
        log = CbcLogContract()
        plist = ["a", "b", "c"]
        _, _, info = log.apply({"op": "start_deal", "deal": "d", "plist": plist}, "a", 0, None)
        for voter in plist:
            log.apply({"op": "commit", "deal": "d", "h": info["h"], "voter": voter}, voter, 1, None)
        return scheme, service, log, info["h"]

    def test_certificate_has_quorum_of_signatures(self, decided_log):
        scheme, service, log, h = decided_log
        cert = service.issue_certificate(log.entries, "d", h)
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
            service.issue_certificate(log.entries, "d", info["h"])

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
        cert = service.issue_certificate(log.entries, "d", h)
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
            service.issue_certificate(log.entries, "d", h).signatures[0],
            ("intruder", scheme.sign(outsider, msg)),
        )
        cert = Certificate("d", h, COMMITTED, 0, tuple(sorted(sigs)))
        ruling = verify_certificate(cert, 0, service.members(0), service.f, scheme)
        assert not ruling.ok and ruling.reason == "non-validator-signer"

    def test_bad_signature_detected_and_counted(self, decided_log):
        scheme, service, log, h = decided_log
        cert = service.issue_certificate(log.entries, "d", h)
        (v0, s0), (v1, s1) = cert.signatures
        broken = Certificate(cert.deal, cert.h, cert.status, cert.epoch, ((v0, s0), (v1, s0)))
        ruling = verify_certificate(broken, 0, service.members(0), service.f, scheme)
        assert not ruling.ok
        assert ruling.reason == "bad-signature@1"
        assert ruling.verifications == 2

    def test_stale_epoch_needs_reconfiguration_chain(self, decided_log):
        scheme, service, log, h = decided_log
        hop = service.reconfigure()
        cert = service.issue_certificate(log.entries, "d", h)
        assert cert.epoch == 1
        without_chain = verify_certificate(cert, 0, service.members(0), service.f, scheme)
        assert not without_chain.ok and without_chain.reason == "stale-epoch"
        with_chain = verify_certificate(
            cert, 0, service.members(0), service.f, scheme, (hop,)
        )
        assert with_chain.ok
        assert with_chain.verifications == 2 * (service.f + 1)  # one hop + the statement


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

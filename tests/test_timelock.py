"""Path-length-scaled vote deadlines, refund timeouts, and party behavior."""

import pytest

from dealsim.assets import AssetBundle
from dealsim.crypto import (
    PathSignature,
    SignatureScheme,
    Vote,
    direct_vote,
    extend_path,
    link_message,
    path_defect,
)
from dealsim.escrow import EscrowContract
from dealsim.scenario import ticket_deal
from dealsim.timelock import VoteRuling, judge_vote, vote_payload

from conftest import run_scenario_dict

T0, DELTA = 30, 5
PARTIES = ("alice", "bob", "carol")


WALLETS = {"fungible": {"carol": {"coin": 101}}, "tokens": {}}  # the coin chain's balances


@pytest.fixture
def voting_setup():
    scheme = SignatureScheme("t")
    contract = EscrowContract("coin", "deal-1", PARTIES, T0, DELTA, "timelock", WALLETS)
    contract.apply(
        {"op": "escrow", "deal": "deal-1", "party": "carol",
         "bundle": AssetBundle.coins("coin", "coin", 101).to_json()},
        "carol", 0, scheme,
    )
    return scheme, contract


def vote_of(scheme, voter, forwarders=()):
    path = direct_vote(scheme, scheme.keypair(voter), Vote("deal-1", voter, f"n-{voter}"))
    for forwarder in forwarders:
        path = extend_path(scheme, scheme.keypair(forwarder), path)
    return path


def submit(contract, scheme, path, now):
    return contract.apply(vote_payload("carol", path, "deal-1"), path.signers()[-1], now, scheme)


class TestVoteDeadlines:
    def test_direct_vote_just_inside_window(self, voting_setup):
        scheme, contract = voting_setup
        status, _, _ = submit(contract, scheme, vote_of(scheme, "bob"), T0 + DELTA - 1)
        assert status == "accepted"

    def test_direct_vote_at_window_edge_rejected(self, voting_setup):
        scheme, contract = voting_setup
        status, reason, _ = submit(contract, scheme, vote_of(scheme, "bob"), T0 + DELTA)
        assert (status, reason) == ("rejected", "timeout")

    def test_single_forward_extends_deadline(self, voting_setup):
        scheme, contract = voting_setup
        path = vote_of(scheme, "bob", ["alice"])
        assert submit(contract, scheme, path, T0 + 2 * DELTA - 1)[0] == "accepted"

    def test_single_forward_at_extended_edge_rejected(self, voting_setup):
        scheme, contract = voting_setup
        path = vote_of(scheme, "bob", ["alice"])
        status, reason, _ = submit(contract, scheme, path, T0 + 2 * DELTA)
        assert (status, reason) == ("rejected", "timeout")

    def test_early_votes_accepted_before_start(self, voting_setup):
        scheme, contract = voting_setup
        assert submit(contract, scheme, vote_of(scheme, "bob"), T0 - 3)[0] == "accepted"

    def test_duplicate_voter_rejected_idempotently(self, voting_setup):
        scheme, contract = voting_setup
        submit(contract, scheme, vote_of(scheme, "bob"), T0)
        before = contract.state["lots"]["carol"]["voted"].copy()
        status, reason, _ = submit(
            contract, scheme, vote_of(scheme, "bob", ["alice"]), T0 + 1
        )
        assert (status, reason) == ("rejected", "duplicate")
        assert contract.state["lots"]["carol"]["voted"] == before

    def test_accepted_vote_verifies_each_link_once(self, voting_setup):
        scheme, contract = voting_setup
        path = vote_of(scheme, "bob", ["alice"])
        calls = []
        verify = scheme.verify
        scheme.verify = lambda *args: calls.append(args) or verify(*args)
        status, _, _ = submit(contract, scheme, path, T0)
        assert status == "accepted"
        assert len(calls) == path.path_len

    def test_duplicate_signer_path_rejected(self, voting_setup):
        scheme, contract = voting_setup
        path = vote_of(scheme, "bob", ["alice"])
        doubled = type(path)(path.vote, path.links + (path.links[0],))
        status, reason, _ = contract.apply(
            vote_payload("carol", doubled, "deal-1"), "bob", T0, scheme
        )
        assert (status, reason) == ("rejected", "invalid-path")

    def test_impersonated_vote_rejected_before_any_verification(self, voting_setup):
        # Bob signs alice's vote under his own name, as if he could cast it.
        scheme, contract = voting_setup
        vote = Vote("deal-1", "alice", "n-alice")
        forged = PathSignature(
            vote, (("bob", scheme.sign(scheme.keypair("bob"), link_message(vote, ()))),)
        )
        assert path_defect(scheme, forged, PARTIES) == ("invalid-path", 0)
        ruling = judge_vote(
            forged, deal_id="deal-1", plist=PARTIES, voted={}, t0=T0, delta=DELTA,
            local_now=T0, naive=False, scheme=scheme,
        )
        assert ruling == VoteRuling("rejected", "invalid-path", 0)
        status, reason, info = submit(contract, scheme, forged, T0)
        assert (status, reason, info["verifications"]) == ("rejected", "invalid-path", 0)
        assert contract.state["lots"]["carol"]["voted"] == {}

    def test_vote_for_other_deal_rejected(self, voting_setup):
        scheme, contract = voting_setup
        foreign = direct_vote(scheme, scheme.keypair("bob"), Vote("deal-2", "bob", "n"))
        status, reason, _ = contract.apply(
            vote_payload("carol", foreign, "deal-1"), "bob", T0, scheme
        )
        assert (status, reason) == ("rejected", "wrong-deal")

    def test_all_votes_finalize_committed(self, voting_setup):
        scheme, contract = voting_setup
        submit(contract, scheme, vote_of(scheme, "carol"), T0)
        submit(contract, scheme, vote_of(scheme, "alice"), T0 + 1)
        status, _, info = submit(contract, scheme, vote_of(scheme, "bob", ["alice"]), T0 + 2)
        assert status == "accepted"
        assert info.get("finalized") == "committed"
        assert contract.state["wallets"]["fungible"]["carol"]["coin"] == 101

    def test_forward_window_arithmetic_chains(self, voting_setup):
        """A vote accepted at tick < t0+k*delta forwards in time for k+1."""
        scheme, contract = voting_setup
        accepted_at = T0 + DELTA - 1
        assert submit(contract, scheme, vote_of(scheme, "bob"), accepted_at)[0] == "accepted"
        arrival = accepted_at + DELTA  # worst-case observation latency
        assert arrival < T0 + 2 * DELTA
        other = EscrowContract("coin", "deal-1", PARTIES, T0, DELTA, "timelock", WALLETS)
        other.apply(
            {"op": "escrow", "deal": "deal-1", "party": "carol",
             "bundle": AssetBundle.coins("coin", "coin", 101).to_json()},
            "carol", 0, scheme,
        )
        path = vote_of(scheme, "bob", ["alice"])
        assert submit(other, scheme, path, arrival)[0] == "accepted"


class TestRefundTimeout:
    def test_missing_vote_refunds_at_deadline(self, voting_setup):
        scheme, contract = voting_setup
        submit(contract, scheme, vote_of(scheme, "alice"), T0)
        submit(contract, scheme, vote_of(scheme, "bob"), T0)
        status, _, info = contract.apply(
            {"op": "timeout", "deal": "deal-1", "lot": "carol"},
            "@timer", T0 + 3 * DELTA, scheme,
        )
        assert status == "accepted"
        assert info["finalized"] == "aborted"
        assert contract.state["wallets"]["fungible"]["carol"]["coin"] == 101

    def test_committed_lot_ignores_timeout(self, voting_setup):
        scheme, contract = voting_setup
        for voter in PARTIES:
            submit(contract, scheme, vote_of(scheme, voter), T0)
        status, reason, _ = contract.apply(
            {"op": "timeout", "deal": "deal-1", "lot": "carol"},
            "@timer", T0 + 3 * DELTA, scheme,
        )
        assert (status, reason) == ("rejected", "already-resolved")


class TestCompliantBehavior:
    def test_parties_vote_at_their_receiving_lots_only(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        direct = {}
        for event in trace.publishes():
            if event.payload.get("op") == "commit" and event.status == "accepted":
                path = event.payload["path"]
                if len(path["links"]) == 1:
                    direct.setdefault(path["vote"]["voter"], set()).add(event.where)
        assert direct["bob"] == {"coin"}       # incoming assets on the coin chain only
        assert direct["carol"] == {"ticket"}
        assert direct["alice"] == {"coin", "ticket"}  # relays through both

    def test_forwarding_carries_votes_across_chains(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        forwarded = {}
        for event in trace.publishes():
            if event.payload.get("op") == "commit" and event.status == "accepted":
                path = event.payload["path"]
                if len(path["links"]) > 1:
                    forwarded.setdefault(event.where, []).append(
                        (path["vote"]["voter"], path["links"][-1][0])
                    )
        # Bob never votes on the ticket chain himself; a motivated relay
        # (Carol claiming there, or Alice passing through) carries his vote.
        bob_relays = [fw for v, fw in forwarded.get("ticket", []) if v == "bob"]
        assert bob_relays and set(bob_relays) <= {"alice", "carol"}
        carol_relays = [fw for v, fw in forwarded.get("coin", []) if v == "carol"]
        assert carol_relays and set(carol_relays) <= {"alice", "bob"}

    def test_happy_path_commits_both_lots(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        assert {res for res, _ in trace.resolutions.values()} == {"committed"}
        deadline = built.deal.t0 + len(built.deal.parties) * built.deal.delta
        assert all(t <= deadline for _, t in trace.resolutions.values())

    def test_failed_validation_withholds_votes_and_timeouts_resolve(self):
        scenario = ticket_deal("timelock", seed=77)
        scenario["strategies"] = {
            "carol": {"name": "compliant", "params": {"validation_verdict": "reject"}},
        }
        built, trace = run_scenario_dict(scenario)
        carol_votes = [
            e for e in trace.publishes()
            if e.payload.get("op") == "commit" and e.publisher == "carol"
        ]
        assert not carol_votes  # rejection means silence, not an abort vote
        assert {res for res, _ in trace.resolutions.values()} == {"aborted"}


class TestScenarioKnobs:
    def test_altruistic_party_votes_everywhere(self):
        scenario = ticket_deal("timelock", seed=61)
        scenario["strategies"] = {
            "bob": {"name": "compliant", "params": {"altruistic": True}},
        }
        built, trace = run_scenario_dict(scenario)
        bob_direct = {
            e.where
            for e in trace.publishes()
            if e.payload.get("op") == "commit"
            and e.status == "accepted"
            and e.payload["path"]["vote"]["voter"] == "bob"
            and len(e.payload["path"]["links"]) == 1
        }
        assert bob_direct == {"coin", "ticket"}  # not just his incoming chain
        assert {res for res, _ in trace.resolutions.values()} == {"committed"}

    def test_contract_clock_skew_still_commits_with_ample_delta(self):
        scenario = ticket_deal("timelock", seed=62)
        scenario["network"]["skew_max"] = 2
        built, trace = run_scenario_dict(scenario)
        assert {res for res, _ in trace.resolutions.values()} == {"committed"}


class TestNaiveVariantContract:
    def test_fixed_deadline_accepts_stale_direct_votes(self):
        scheme = SignatureScheme("t")
        contract = EscrowContract("coin", "deal-1", PARTIES, T0, DELTA, "naive", WALLETS)
        contract.apply(
            {"op": "escrow", "deal": "deal-1", "party": "carol",
             "bundle": AssetBundle.coins("coin", "coin", 101).to_json()},
            "carol", 0, scheme,
        )
        late = T0 + 3 * DELTA - 1
        status, _, _ = submit(contract, scheme, vote_of(scheme, "bob"), late)
        assert status == "accepted"  # the flaw the path rule exists to fix

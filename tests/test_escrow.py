"""Escrow lot state machine: escrow, tentative transfer, finalize."""

import copy
import os
import random
import subprocess
import sys
import textwrap

import pytest

from dealsim.assets import AssetBundle
from dealsim.cbc import CbcError, CbcLogContract, ValidatorService
from dealsim.crypto import SignatureScheme, Vote, direct_vote
from dealsim.escrow import EscrowContract, EscrowInvariantError, check_invariants
from dealsim.ledger import World
from dealsim.timelock import vote_payload

from conftest import idle_scenario


PARTIES = ("alice", "bob", "carol")


def wallets(tokens=None, **coins):
    """Balances: `tokens` (token -> owner) and each named party's "coin" amount."""
    return {
        "fungible": {party: {"coin": amount} for party, amount in coins.items()},
        "tokens": dict(tokens or {}),
    }


@pytest.fixture
def setup():
    contract = EscrowContract(
        "ticket", "deal-1", PARTIES, t0=30, delta=5, protocol="timelock",
        wallets=wallets({"tkt1": "bob", "tkt2": "bob"}),
    )
    return contract, SignatureScheme("t")


def escrow_payload(party, bundle):
    return {"op": "escrow", "deal": "deal-1", "party": party, "bundle": bundle.to_json()}


def transfer_payload(party, lot, to, bundle):
    return {
        "op": "transfer",
        "deal": "deal-1",
        "party": party,
        "lot": lot,
        "to": to,
        "bundle": bundle.to_json(),
    }


TICKETS = AssetBundle(tokens=[("ticket", "tkt1"), ("ticket", "tkt2")])


class TestEscrow:
    def test_escrow_moves_ownership_to_contract(self, setup):
        contract, scheme = setup
        status, reason, info = contract.apply(
            escrow_payload("bob", TICKETS), "bob", 0, scheme
        )
        assert status == "accepted"
        lot = contract.state["lots"]["bob"]
        assert contract.state["wallets"]["tokens"] == {}
        assert lot["tokens"] == ["tkt1", "tkt2"]
        assert lot["c_tok"] == {"tkt1": "bob", "tkt2": "bob"}
        assert lot["escrower"] == "bob"  # abort side always refunds the escrower

    def test_non_owner_escrow_rejected(self, setup):
        contract, scheme = setup
        status, reason, _ = contract.apply(
            escrow_payload("carol", TICKETS), "carol", 0, scheme
        )
        assert (status, reason) == ("rejected", "not-owner")
        assert contract.state["wallets"]["tokens"]["tkt1"] == "bob"

    def test_outsider_escrow_rejected(self):
        scheme = SignatureScheme("t")
        contract = EscrowContract(
            "ticket", "deal-1", PARTIES, 30, 5, "timelock", wallets({"tkt9": "mallory"})
        )
        status, reason, _ = contract.apply(
            {"op": "escrow", "deal": "deal-1", "party": "mallory",
             "bundle": AssetBundle.token("ticket", "tkt9").to_json()},
            "mallory", 0, scheme,
        )
        assert (status, reason) == ("rejected", "not-in-plist")

    def test_partial_balance_escrow(self):
        contract = EscrowContract("coin", "deal-1", PARTIES, 30, 5, "timelock", wallets(carol=150))
        status, _, _ = contract.apply(
            escrow_payload("carol", AssetBundle.coins("coin", "coin", 101)),
            "carol", 0, SignatureScheme("t"),
        )
        assert status == "accepted"
        assert contract.state["wallets"]["fungible"]["carol"]["coin"] == 49
        assert contract.state["lots"]["carol"]["fungible"] == {"coin": 101}


class TestTentativeTransfer:
    def test_relay_chain_updates_commit_owner_only(self, setup):
        contract, scheme = setup
        contract.apply(escrow_payload("bob", TICKETS), "bob", 0, scheme)
        s1, _, _ = contract.apply(
            transfer_payload("bob", "bob", "alice", TICKETS), "bob", 1, scheme
        )
        s2, _, _ = contract.apply(
            transfer_payload("alice", "bob", "carol", TICKETS), "alice", 2, scheme
        )
        assert s1 == s2 == "accepted"
        lot = contract.state["lots"]["bob"]
        assert lot["c_tok"] == {"tkt1": "carol", "tkt2": "carol"}
        assert lot["escrower"] == "bob"

    def test_fungible_split(self):
        contract = EscrowContract("coin", "deal-1", PARTIES, 30, 5, "timelock", wallets(carol=101))
        scheme = SignatureScheme("t")
        contract.apply(
            escrow_payload("carol", AssetBundle.coins("coin", "coin", 101)),
            "carol", 0, scheme,
        )
        contract.apply(
            transfer_payload("carol", "carol", "alice", AssetBundle.coins("coin", "coin", 101)),
            "carol", 1, scheme,
        )
        contract.apply(
            transfer_payload("alice", "carol", "bob", AssetBundle.coins("coin", "coin", 100)),
            "alice", 2, scheme,
        )
        lot = contract.state["lots"]["carol"]
        assert lot["c_fun"]["alice"] == {"coin": 1}
        assert lot["c_fun"]["bob"] == {"coin": 100}

    def test_transfer_without_commit_balance_rejected(self, setup):
        contract, scheme = setup
        contract.apply(escrow_payload("bob", TICKETS), "bob", 0, scheme)
        status, reason, _ = contract.apply(
            transfer_payload("carol", "bob", "alice", TICKETS), "carol", 1, scheme
        )
        assert (status, reason) == ("rejected", "insufficient-commit-balance")

    def test_transfer_to_outsider_rejected(self, setup):
        contract, scheme = setup
        contract.apply(escrow_payload("bob", TICKETS), "bob", 0, scheme)
        status, reason, _ = contract.apply(
            transfer_payload("bob", "bob", "mallory", TICKETS), "bob", 1, scheme
        )
        assert (status, reason) == ("rejected", "not-in-plist")


class TestFinalize:
    def _staged(self, setup):
        contract, scheme = setup
        contract.apply(escrow_payload("bob", TICKETS), "bob", 0, scheme)
        contract.apply(transfer_payload("bob", "bob", "alice", TICKETS), "bob", 1, scheme)
        contract.apply(transfer_payload("alice", "bob", "carol", TICKETS), "alice", 2, scheme)
        return contract

    def test_commit_hands_assets_to_commit_owners(self, setup):
        contract = self._staged(setup)
        contract._finalize("bob", "committed", 40)
        assert contract.state["wallets"]["tokens"] == {"tkt1": "carol", "tkt2": "carol"}

    def test_abort_refunds_the_escrower(self, setup):
        contract = self._staged(setup)
        contract._finalize("bob", "aborted", 45)
        assert contract.state["wallets"]["tokens"] == {"tkt1": "bob", "tkt2": "bob"}

    def test_without_finalize_owners_unchanged(self, setup):
        contract = self._staged(setup)
        lot = contract.state["lots"]["bob"]
        assert lot["resolution"] == "active"
        assert contract.state["wallets"]["tokens"] == {}  # still the contract's property

    def test_double_finalize_rejected_via_timeout_op(self, setup):
        contract = self._staged(setup)
        s1, _, _ = contract.apply(
            {"op": "timeout", "deal": "deal-1", "lot": "bob"}, "@timer", 45, scheme := SignatureScheme("t")
        )
        s2, reason, _ = contract.apply(
            {"op": "timeout", "deal": "deal-1", "lot": "bob"}, "@timer", 46, scheme
        )
        assert s1 == "accepted"
        assert (s2, reason) == ("rejected", "already-resolved")

    def test_premature_timeout_rejected(self, setup):
        contract = self._staged(setup)
        status, reason, _ = contract.apply(
            {"op": "timeout", "deal": "deal-1", "lot": "bob"}, "@timer", 44, SignatureScheme("t")
        )
        assert (status, reason) == ("rejected", "not-due")

    def test_quiescent_once_no_entry_can_move_an_asset(self, setup):
        contract = self._staged(setup)
        assert not contract.quiescent(set(PARTIES), 40)  # bob's lot is active
        contract._finalize("bob", "committed", 40)
        # carol holds the tickets here without a lot, so could still escrow them
        assert not contract.quiescent({"alice", "bob"}, 40)
        assert contract.quiescent({"carol"}, 40)

    def test_the_cbc_log_is_never_quiescent(self):
        assert not CbcLogContract().quiescent(set(PARTIES), 10**6)


@pytest.mark.parametrize("protocol", ["timelock", "naive"])
class TestDoomedLots:
    """From the local tick a lot's refund is due (t0 + N * delta = 45 here)
    no vote is accepted, so an active timelock or naive lot can only refund,
    at its timer's fixed tick: it no longer keeps the contract from being
    quiescent."""

    def _active(self, protocol, **coins):
        contract = EscrowContract(
            "ticket", "deal-1", PARTIES, 30, 5, protocol, wallets({"tkt1": "bob"}, **coins)
        )
        bundle = AssetBundle(tokens=[("ticket", "tkt1")])
        contract.apply(escrow_payload("bob", bundle), "bob", 0, SignatureScheme("t"))
        return contract

    def test_an_active_lot_is_settled_from_its_refund_deadline(self, protocol):
        contract = self._active(protocol)
        assert contract.unresolved_lots() == ["bob"]
        assert not contract.quiescent(set(), 44)
        assert contract.quiescent(set(), 45)

    def test_the_chain_skew_shifts_the_deadline(self, protocol):
        contract = self._active(protocol)
        world = World(idle_scenario(100), None, 0)
        world.add_chain("ticket", contract, skew=3)
        world.now = 41
        assert not world.quiescent()
        world.now = 42  # local tick 45
        assert world.quiescent()

    def test_a_holder_without_a_lot_still_blocks_quiescence(self, protocol):
        contract = self._active(protocol, carol=5)
        # carol could still escrow here and open a lot with its own refund
        assert not contract.quiescent(set(), 45)
        assert contract.quiescent({"carol"}, 45)


def test_a_cbc_escrow_lot_is_never_doomed():
    contract = EscrowContract("ticket", "deal-1", PARTIES, 30, 5, "cbc", wallets({"tkt1": "bob"}))
    config = {"h": "h", "epoch": 0, "validators": ["v0"], "f": 0}
    escrow = escrow_payload("bob", AssetBundle(tokens=[("ticket", "tkt1")]))
    status, _, _ = contract.apply({**escrow, **config}, "bob", 0, SignatureScheme("t"))
    assert status == "accepted"
    # A certificate can settle the lot either way at any tick.
    assert not contract.quiescent(set(), 10**6)


class TestConservation:
    def test_random_operation_sequences_conserve_assets(self):
        """Total supply per kind is invariant across any op sequence."""
        rng = random.Random(99)
        scheme = SignatureScheme("t")
        for trial in range(60):
            supply = {party: rng.randint(0, 100) for party in PARTIES}
            total = sum(supply.values())
            contract = EscrowContract("coin", "deal-1", PARTIES, 30, 5, "timelock", wallets(**supply))

            def total_now():
                in_wallets = sum(
                    kinds.get("coin", 0) for kinds in contract.state["wallets"]["fungible"].values()
                )
                in_lots = sum(
                    lot["fungible"].get("coin", 0)
                    for lot in contract.state["lots"].values()
                    if lot["resolution"] == "active"
                )
                return in_wallets + in_lots

            for step in range(30):
                op = rng.choice(["escrow", "transfer", "finalize"])
                party = rng.choice(PARTIES)
                if op == "escrow":
                    contract.apply(
                        escrow_payload(party, AssetBundle.coins("coin", "coin", rng.randint(1, 40))),
                        party, step, scheme,
                    )
                elif op == "transfer":
                    contract.apply(
                        transfer_payload(
                            party, rng.choice(PARTIES), rng.choice(PARTIES),
                            AssetBundle.coins("coin", "coin", rng.randint(1, 40)),
                        ),
                        party, step, scheme,
                    )
                else:
                    lot = contract.state["lots"].get(rng.choice(PARTIES))
                    if lot is not None and lot["resolution"] == "active":
                        contract._finalize(
                            lot["escrower"], rng.choice(["committed", "aborted"]), step
                        )
                assert total_now() == total
                for lot in contract.state["lots"].values():
                    check_invariants(lot)


class TestRecordedStates:
    """A contract's state is the view its chain records, so no call, accepted
    or rejected, may change a state the contract had before it."""

    @staticmethod
    def applier(contract, scheme):
        seen = []  # every state the contract has had, with a deep copy

        def apply(payload, publisher, now, expected):
            seen.append((contract.state, copy.deepcopy(contract.state)))
            status, reason, _ = contract.apply(payload, publisher, now, scheme)
            assert status == expected, (payload, reason)
            for state, before in seen:
                assert state == before, payload

        return apply

    def test_timelock_calls_leave_earlier_states_unchanged(self):
        scheme = SignatureScheme("t")
        contract = EscrowContract(
            "coin", "deal-1", PARTIES, 30, 5, "timelock", wallets(carol=101, alice=5)
        )
        apply = self.applier(contract, scheme)
        coins = AssetBundle.coins("coin", "coin", 101)
        apply(escrow_payload("carol", coins), "carol", 0, "accepted")
        apply(escrow_payload("bob", coins), "bob", 0, "rejected")
        apply(escrow_payload("alice", AssetBundle.coins("coin", "coin", 5)), "alice", 0, "accepted")
        apply(transfer_payload("carol", "carol", "alice", coins), "carol", 1, "accepted")
        apply(transfer_payload("carol", "carol", "bob", coins), "carol", 2, "rejected")
        for voter in PARTIES:  # carol's vote, the last, commits her lot
            path = direct_vote(scheme, scheme.keypair(voter), Vote("deal-1", voter, f"n-{voter}"))
            apply(vote_payload("carol", path, "deal-1"), voter, 31, "accepted")
            apply(vote_payload("carol", path, "deal-1"), voter, 32, "rejected")
        timeout = {"op": "timeout", "deal": "deal-1", "lot": "alice"}
        apply(timeout, "@timer", 44, "rejected")
        apply(timeout, "@timer", 45, "accepted")
        apply({**timeout, "lot": "carol"}, "@timer", 45, "rejected")
        settle = {"op": "settle", "deal": "deal-1", "lot": "alice", "cert": {}}
        apply(settle, "alice", 46, "rejected")
        assert contract.state["lots"]["carol"]["resolution"] == "committed"
        assert contract.state["lots"]["alice"]["resolution"] == "aborted"

    def test_cbc_calls_leave_earlier_states_unchanged(self):
        scheme = SignatureScheme("t")
        service = ValidatorService(scheme, f=1)
        log = CbcLogContract()
        log_apply = self.applier(log, scheme)
        start = {"op": "start_deal", "deal": "deal-1", "plist": list(PARTIES)}
        log_apply(start, "mallory", 0, "rejected")
        log_apply(start, "alice", 0, "accepted")
        h = log.entries[0]["h"]
        vote = {"deal": "deal-1", "h": h}
        log_apply({**vote, "op": "abort", "voter": "bob"}, "alice", 1, "rejected")
        for voter in PARTIES:
            log_apply({**vote, "op": "commit", "voter": voter}, voter, 1, "accepted")
        log_apply({**vote, "op": "abort", "voter": "bob"}, "bob", 2, "accepted")
        cert = service.issue_certificate(log.state, "deal-1", h).to_json()

        contract = EscrowContract("coin", "deal-1", PARTIES, 30, 5, "cbc", wallets(carol=150))
        apply = self.applier(contract, scheme)
        config = {"h": h, "epoch": 0, "validators": list(service.members(0)), "f": 1}
        escrow = escrow_payload("carol", AssetBundle.coins("coin", "coin", 101))
        apply({**escrow, **config}, "carol", 0, "accepted")
        apply({**escrow, **config, "f": 2}, "carol", 1, "rejected")
        settle = {"op": "settle", "deal": "deal-1", "lot": "carol", "cert": cert}
        apply({**settle, "cert": {**cert, "h": "other"}}, "bob", 5, "rejected")
        apply(settle, "bob", 5, "accepted")
        assert contract.state["lots"]["carol"]["resolution"] == "committed"


def timelock_lot(scheme):
    """A timelock contract where bob has escrowed one ticket and holds another."""
    contract = EscrowContract(
        "ticket", "deal-1", PARTIES, 30, 5, "timelock", wallets({"tkt1": "bob", "tkt2": "bob"})
    )
    contract.apply(escrow_payload("bob", TKT1), "bob", 0, scheme)
    return contract


def cbc_lot(scheme):
    """A CBC contract where bob has escrowed one ticket, configured with
    epoch 0 of a one-fault validator service, and holds another."""
    contract = EscrowContract(
        "ticket", "deal-1", PARTIES, 30, 5, "cbc", wallets({"tkt1": "bob", "tkt2": "bob"})
    )
    contract.apply({**escrow_payload("bob", TKT1), **cbc_config(scheme)}, "bob", 0, scheme)
    return contract


def cbc_config(scheme, **changes):
    members = ValidatorService(scheme, f=1).members(0)
    return {"h": "h0", "epoch": 0, "validators": list(members), "f": 1, **changes}


def settle(status="committed", epoch=0, reconfig=()):
    cert = {"deal": "deal-1", "h": "h0", "status": status, "epoch": epoch, "signatures": []}
    return {"op": "settle", "deal": "deal-1", "lot": "bob", "cert": cert, "reconfig": reconfig}


def mallory_vote(scheme):
    path = direct_vote(scheme, scheme.keypair("mallory"), Vote("deal-1", "mallory", "n"))
    return vote_payload("bob", path, "deal-1")


TKT1 = AssetBundle(tokens=[("ticket", "tkt1")])
TKT2 = AssetBundle(tokens=[("ticket", "tkt2")])
UNSIGNED_HOP = {"new_epoch": 1, "new_members": ["v"], "signatures": []}

# Each rejection a contract gives at tick 31: (contract builder, payload or
# its builder, publisher, reason); the builders take the run's scheme.
REJECTIONS = {
    "wrong-deal": (
        timelock_lot, {**escrow_payload("bob", TKT2), "deal": "deal-2"}, "bob", "wrong-deal"
    ),
    "unknown-op": (timelock_lot, {"op": "refund", "deal": "deal-1"}, "bob", "unknown-op"),
    "escrow-caller": (timelock_lot, escrow_payload("bob", TKT2), "alice", "caller-mismatch"),
    "transfer-caller": (
        timelock_lot, transfer_payload("bob", "bob", "alice", TKT1), "alice", "caller-mismatch"
    ),
    "empty-escrow": (timelock_lot, escrow_payload("bob", AssetBundle()), "bob", "bad-bundle"),
    "outsider-vote": (timelock_lot, mallory_vote, "mallory", "unknown-voter"),
    "second-config": (
        cbc_lot,
        lambda scheme: {**escrow_payload("bob", TKT2), **cbc_config(scheme, h="h1")},
        "bob",
        "config-mismatch",
    ),
    "cbc-commit": (cbc_lot, mallory_vote, "mallory", "wrong-protocol"),
    "cbc-timeout": (
        cbc_lot, {"op": "timeout", "deal": "deal-1", "lot": "bob"}, "@timer", "wrong-protocol"
    ),
    "undecided-certificate": (cbc_lot, settle(status="undecided"), "alice", "bad-status"),
    "unsigned-hop": (
        cbc_lot, settle(epoch=1, reconfig=[UNSIGNED_HOP]), "alice", "reconfig-below-threshold"
    ),
    "log-unknown-op": (lambda scheme: CbcLogContract(), {"op": "vote"}, "alice", "unknown-op"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_a_malformed_entry_is_rejected_with_its_reason(case):
    scheme = SignatureScheme("t")
    build, payload, publisher, reason = REJECTIONS[case]
    payload = payload(scheme) if callable(payload) else payload
    assert build(scheme).apply(payload, publisher, 31, scheme)[:2] == ("rejected", reason)


def test_a_service_with_more_than_f_corrupt_validators_is_refused():
    with pytest.raises(CbcError, match="at most f"):
        ValidatorService(SignatureScheme("t"), f=1, corrupt=2)


class TestInvariantErrors:
    def test_corrupted_commit_view_raises(self, setup):
        contract, scheme = setup
        contract.apply(escrow_payload("bob", TICKETS), "bob", 0, scheme)
        lot = {**contract.state["lots"]["bob"], "c_fun": {"bob": {"coin": 1}}}
        with pytest.raises(EscrowInvariantError):
            check_invariants(lot)

    def test_finalizing_a_resolved_lot_raises(self, setup):
        contract, scheme = setup
        contract.apply(escrow_payload("bob", TICKETS), "bob", 0, scheme)
        contract._finalize("bob", "aborted", 1)
        with pytest.raises(EscrowInvariantError):
            contract._finalize("bob", "committed", 2)

    def test_invariants_fire_under_python_O(self):
        script = textwrap.dedent(
            """
            from dealsim.assets import AssetBundle
            from dealsim.escrow import EscrowInvariantError, check_invariants, escrowed, new_lot

            assert False, "asserts must be stripped under -O"
            lot = escrowed(new_lot("alice"), AssetBundle.coins("c", "coin", 5))
            lot = {**lot, "c_fun": {"alice": {"coin": 6}}}
            try:
                check_invariants(lot)
            except EscrowInvariantError:
                print("raised")
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

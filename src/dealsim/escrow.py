"""Escrow contracts: per-deal asset lots with commit/abort ownership views.

One contract instance manages a deal's escrows on one chain.  Every
escrowing party gets its own lot with an independent vote set, timeout,
and resolution; its abort-owner map always points back at the escrower,
while tentative transfers reassign commit-owners.  Committing a lot hands
its assets to the commit-owners, aborting refunds the escrower.

A contract's `state` is the view its chain records after each entry,
and it holds the chain's balances: an escrow takes its assets out of
them, and resolving a lot pays its assets back in.  Lots and balances
are plain dicts, and the functions below build a changed copy instead
of mutating one, so a recorded view stays as it was, a chain rewinds its
contract by handing back the view it recorded, and a contract call reads
only its state and the entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .assets import AssetBundle
from .cbc import ABORTED, COMMITTED, Certificate, ReconfigHop, verify_certificate
from .crypto import PathSignature
from .timelock import judge_vote, refund_deadline, refund_due

ACTIVE = "active"


class EscrowInvariantError(ValueError):
    """A lot's bookkeeping broke an invariant the contract relies on."""


def new_lot(escrower: str) -> dict:
    """An empty lot: one escrow call's assets, with commit-owner and
    abort-owner views.  The escrower is the only abort-owner."""
    return {
        "escrower": escrower,
        "resolution": ACTIVE,
        "resolved_tick": None,
        "fungible": {},  # kind -> escrowed amount
        "tokens": [],  # sorted
        "c_fun": {},  # commit-owner -> kind -> amount
        "c_tok": {},  # token -> commit-owner
        "voted": {},  # voter -> accepted path (as json)
    }


def escrowed(lot: dict, bundle: AssetBundle) -> dict:
    """`lot` with `bundle` added, committed to its escrower."""
    escrower = lot["escrower"]
    fungible, c_fun, c_tok = dict(lot["fungible"]), dict(lot["c_fun"]), dict(lot["c_tok"])
    for (_, kind), amount in bundle.fungible.items():  # tokens add no `c_fun` entry
        fungible[kind] = fungible.get(kind, 0) + amount
        own = c_fun[escrower] = dict(c_fun.get(escrower, {}))
        own[kind] = own.get(kind, 0) + amount
    for _, token in bundle.tokens:
        c_tok[token] = escrower
    tokens = sorted({*lot["tokens"], *(token for _, token in bundle.tokens)})
    return {**lot, "fungible": fungible, "tokens": tokens, "c_fun": c_fun, "c_tok": c_tok}


def transferred(lot: dict, sender: str, receiver: str, bundle: AssetBundle) -> Optional[dict]:
    """`lot` with `bundle`'s commit-ownership moved from `sender` to
    `receiver`, or None if `sender` does not commit-own all of it."""
    c_fun, c_tok = dict(lot["c_fun"]), dict(lot["c_tok"])
    for (_, kind), amount in bundle.fungible.items():
        if c_fun.get(sender, {}).get(kind, 0) < amount:
            return None
        src = c_fun[sender] = dict(c_fun[sender])
        src[kind] -= amount
        if src[kind] == 0:
            del src[kind]
        dst = c_fun[receiver] = dict(c_fun.get(receiver, {}))
        dst[kind] = dst.get(kind, 0) + amount
    for _, token in bundle.tokens:
        if c_tok.get(token) != sender:
            return None
        c_tok[token] = receiver
    return {**lot, "c_fun": c_fun, "c_tok": c_tok}


def rebalanced(wallets: dict, fungible: dict, tokens: dict) -> dict:
    """`wallets` plus `fungible` (party -> kind -> amount, negative to take
    out), with each token in `tokens` given to its owner (None: taken out).
    An emptied party keeps its entry, which the state key tells apart."""
    balances = dict(wallets["fungible"])
    for party, kinds in fungible.items():
        if kinds:  # none for a tokens-only escrow or a commit-owner that passed all on
            held = balances[party] = dict(balances.get(party, {}))
            for kind, amount in kinds.items():
                held[kind] = held.get(kind, 0) + amount
                if not held[kind]:
                    del held[kind]
    owners = {**wallets["tokens"], **tokens}
    return {"fungible": balances, "tokens": {t: o for t, o in owners.items() if o is not None}}


def check_invariants(lot: dict):
    """Escrowed totals and commit views must agree; tokens singly owned."""
    if lot["resolution"] != ACTIVE:
        return
    escrower = lot["escrower"]
    per_kind: Dict[str, int] = {}
    for owner, kinds in lot["c_fun"].items():
        for kind, amount in kinds.items():
            if amount < 0:
                raise EscrowInvariantError(
                    f"lot {escrower!r}: negative commit balance {owner}/{kind}"
                )
            per_kind[kind] = per_kind.get(kind, 0) + amount
    fungible = lot["fungible"]
    if per_kind != {k: v for k, v in fungible.items() if v}:
        raise EscrowInvariantError(
            f"lot {escrower!r}: commit view {per_kind} != escrowed {fungible}"
        )
    if set(lot["c_tok"]) != set(lot["tokens"]):
        raise EscrowInvariantError(f"lot {escrower!r}: token commit view differs")


def lot_key(lot: dict) -> tuple:
    return (
        lot["resolution"],
        lot["resolved_tick"],
        tuple(sorted(lot["fungible"].items())),
        tuple(lot["tokens"]),
        tuple((p, tuple(sorted(k.items()))) for p, k in sorted(lot["c_fun"].items())),
        tuple(sorted(lot["c_tok"].items())),
        tuple(
            (v, tuple(tuple(l) for l in path["links"]))
            for v, path in sorted(lot["voted"].items())
        ),
    )


class EscrowContract:
    """A deal's escrow manager on one chain; applies published entries.
    Its `state` holds the deal's terms, `lots` by escrower, the chain's
    `wallets` in a trace's shape ({"fungible": {party: {kind: amount}},
    "tokens": {token: owner}}), and `cbc` once an escrow configures it;
    a new state shares every lot and balance it leaves as is."""

    def __init__(
        self,
        chain_id: str,
        deal_id: str,
        plist: Tuple[str, ...],
        t0: int,
        delta: int,
        protocol: str,  # "timelock" | "naive" | "cbc"
        wallets: dict,  # the chain's starting balances
    ):
        self.chain_id = chain_id
        self.state = dict(
            deal=deal_id, plist=list(plist), t0=t0, delta=delta, protocol=protocol, lots={},
            wallets=wallets,
        )

    def _record(self, lot: dict, **changes):
        """Make `lot` (and any other `changes`) part of a new state."""
        lots = {**self.state["lots"], lot["escrower"]: lot}
        self.state = {**self.state, "lots": lots, **changes}

    def _active_lot(self, payload: dict):
        """The active lot `payload` names, or the reason there is none."""
        lot = self.state["lots"].get(payload["lot"])
        if lot is None:
            return None, "no-such-lot"
        if lot["resolution"] != ACTIVE:
            return None, "already-resolved"
        return lot, None

    # -- entry application -------------------------------------------------

    def apply(self, payload: dict, publisher: str, local_now: int, scheme) -> tuple:
        op = payload.get("op")
        if payload.get("deal") != self.state["deal"]:
            return "rejected", "wrong-deal", {}
        handler = {
            "escrow": self._op_escrow,
            "transfer": self._op_transfer,
            "commit": self._op_commit,
            "timeout": self._op_timeout,
            "settle": self._op_settle,
        }.get(op)
        if handler is None:
            return "rejected", "unknown-op", {}
        return handler(payload, publisher, local_now, scheme)

    def _op_escrow(self, payload, publisher, local_now, scheme):
        party = payload["party"]
        if party != publisher:
            return "rejected", "caller-mismatch", {}
        if party not in self.state["plist"]:
            return "rejected", "not-in-plist", {}
        bundle = AssetBundle.from_json(payload["bundle"])
        if bundle.is_empty() or bundle.chains() != {self.chain_id}:
            return "rejected", "bad-bundle", {}
        wallets = self.state["wallets"]
        held = wallets["fungible"].get(party, {})
        if any(held.get(kind, 0) < n for (_, kind), n in bundle.fungible.items()) or any(
            wallets["tokens"].get(token) != party for _, token in bundle.tokens
        ):
            return "rejected", "not-owner", {}
        changes = {}
        if self.state["protocol"] == "cbc":  # every escrow repeats the first one's config
            changes["cbc"] = cfg = {
                "h": payload["h"],
                "epoch": payload["epoch"],
                "validators": list(payload["validators"]),
                "f": payload["f"],
            }
            if cfg != self.state.get("cbc", cfg):
                return "rejected", "config-mismatch", {}
        lot = self.state["lots"].get(party) or new_lot(party)
        if lot["resolution"] != ACTIVE:
            return "rejected", "already-resolved", {}
        lot = escrowed(lot, bundle)
        check_invariants(lot)
        taken = {party: {kind: -n for (_, kind), n in bundle.fungible.items()}}
        wallets = rebalanced(wallets, taken, dict.fromkeys(token for _, token in bundle.tokens))
        self._record(lot, wallets=wallets, **changes)
        return "accepted", None, {"lot": party}

    def _op_transfer(self, payload, publisher, local_now, scheme):
        party = payload["party"]
        if party != publisher:
            return "rejected", "caller-mismatch", {}
        lot, reason = self._active_lot(payload)
        if lot is None:
            return "rejected", reason, {}
        receiver = payload["to"]
        if receiver not in self.state["plist"]:
            return "rejected", "not-in-plist", {}
        bundle = AssetBundle.from_json(payload["bundle"])
        if bundle.is_empty() or bundle.chains() != {self.chain_id}:
            return "rejected", "bad-bundle", {}
        lot = transferred(lot, party, receiver, bundle)
        if lot is None:
            return "rejected", "insufficient-commit-balance", {}
        check_invariants(lot)
        self._record(lot)
        return "accepted", None, {"lot": lot["escrower"]}

    def _op_commit(self, payload, publisher, local_now, scheme):
        state = self.state
        if state["protocol"] not in ("timelock", "naive"):
            return "rejected", "wrong-protocol", {}
        lot, reason = self._active_lot(payload)
        if lot is None:
            return "rejected", reason, {}
        path = PathSignature.from_json(payload["path"])
        ruling = judge_vote(
            path,
            deal_id=state["deal"],
            plist=state["plist"],
            voted=lot["voted"],
            t0=state["t0"],
            delta=state["delta"],
            local_now=local_now,
            naive=state["protocol"] == "naive",
            scheme=scheme,
        )
        escrower = lot["escrower"]
        info = {"lot": escrower, "verifications": ruling.verifications}
        if ruling.status != "accepted":
            return "rejected", ruling.reason, info
        voted = {**lot["voted"], path.vote.voter: path.to_json()}
        self._record({**lot, "voted": voted})
        info["voter"] = path.vote.voter
        if len(voted) == len(state["plist"]):
            self._finalize(escrower, COMMITTED, local_now)
            info["finalized"] = COMMITTED
        return "accepted", None, info

    def _op_timeout(self, payload, publisher, local_now, scheme):
        state = self.state
        if state["protocol"] not in ("timelock", "naive"):
            return "rejected", "wrong-protocol", {}
        lot, reason = self._active_lot(payload)
        if lot is None:
            return "rejected", reason, {}
        n = len(state["plist"])
        if not refund_due(state["t0"], state["delta"], n, lot["voted"], local_now):
            return "rejected", "not-due", {}
        self._finalize(lot["escrower"], ABORTED, local_now)
        return "accepted", None, {"lot": lot["escrower"], "finalized": ABORTED}

    def _op_settle(self, payload, publisher, local_now, scheme):
        if self.state["protocol"] != "cbc":
            return "rejected", "wrong-protocol", {}
        lot, reason = self._active_lot(payload)
        if lot is None:
            return "rejected", reason, {}
        cbc = self.state["cbc"]  # recorded by the escrow that opened the lot
        cert = Certificate.from_json(payload["cert"])
        if cert.deal != self.state["deal"] or cert.h != cbc["h"]:
            return "rejected", "wrong-deal-ref", {}
        hops = tuple(ReconfigHop.from_json(h) for h in payload.get("reconfig", []))
        ruling = verify_certificate(cert, cbc["epoch"], cbc["validators"], cbc["f"], scheme, hops)
        info = {"lot": lot["escrower"], "verifications": ruling.verifications}
        if not ruling.ok:
            return "rejected", ruling.reason, info
        self._finalize(lot["escrower"], cert.status, local_now)
        info["finalized"] = cert.status
        return "accepted", None, info

    # -- resolution ----------------------------------------------------------

    def _finalize(self, escrower: str, outcome: str, now: int):
        """Pay `escrower`'s lot to its commit- or abort-owners and record it
        resolved."""
        lot = self.state["lots"][escrower]
        if lot["resolution"] != ACTIVE:
            raise EscrowInvariantError(f"lot {escrower!r} is already {lot['resolution']}")
        if outcome == COMMITTED:
            fungible, tokens = lot["c_fun"], lot["c_tok"]
        else:
            fungible, tokens = {escrower: lot["fungible"]}, dict.fromkeys(lot["tokens"], escrower)
        self._record(
            {**lot, "fungible": {}, "tokens": [], "resolution": outcome, "resolved_tick": now},
            wallets=rebalanced(self.state["wallets"], fungible, tokens),
        )

    # -- observation ---------------------------------------------------------

    def state_key(self) -> tuple:
        # A run never changes the deal's terms; each lot is keyed under its escrower.
        cbc = self.state.get("cbc")
        wallets = self.state["wallets"]
        return (
            cbc and (cbc["h"], cbc["epoch"], tuple(cbc["validators"]), cbc["f"]),
            tuple((e, lot_key(lot)) for e, lot in sorted(self.state["lots"].items())),
            frozenset((p, frozenset(kinds.items())) for p, kinds in wallets["fungible"].items()),
            frozenset(wallets["tokens"].items()),
        )

    def quiescent(self, finished: Set[str], local_now: int) -> bool:
        """Whether, at chain-local tick `local_now`, no choice can change
        any lot's resolution here, its tick, or the chain's balances.

        Transfers, votes, timeouts and settles need an active lot, and a
        party whose lot has resolved cannot escrow again.  A timelock or
        naive lot is doomed from the local tick its refund is due: from
        then on `judge_vote` rejects every vote (a path has at most N
        signers), a transfer only moves commit ownership, which a refund
        ignores, a further escrow into it is refunded with it, and its
        pending refund timer resolves it at a fixed tick.  So once every
        lot has resolved or is doomed, only a plist party without a lot
        here can still move an asset, by escrowing what it holds here; it
        cannot once it holds nothing here or has finished escrowing (is in
        `finished`).
        """
        state = self.state
        lots = state["lots"]
        doomed = state["protocol"] != "cbc" and local_now >= refund_deadline(
            state["t0"], state["delta"], len(state["plist"])
        )
        if not doomed and any(lot["resolution"] == ACTIVE for lot in lots.values()):
            return False
        fungible, tokens = state["wallets"]["fungible"], state["wallets"]["tokens"]
        return all(
            party in lots or party in finished
            or not (any(fungible.get(party, {}).values()) or party in tokens.values())
            for party in state["plist"]
        )

    def unresolved_lots(self) -> List[str]:
        return sorted(e for e, lot in self.state["lots"].items() if lot["resolution"] == ACTIVE)

    def resolutions(self) -> Dict[str, Tuple[str, Optional[int]]]:
        return {
            e: (lot["resolution"], lot["resolved_tick"])
            for e, lot in sorted(self.state["lots"].items())
        }

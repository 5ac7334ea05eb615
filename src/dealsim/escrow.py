"""Escrow contracts: per-deal asset lots with commit/abort ownership views.

One contract instance manages a deal's escrows on one chain.  Every
escrowing party gets its own lot with an independent vote set, timeout,
and resolution; its abort-owner map always points back at the escrower,
while tentative transfers reassign commit-owners.  Committing a lot hands
its assets to the commit-owners, aborting refunds the escrower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .assets import AssetBundle
from .cbc import ABORTED, COMMITTED, Certificate, ReconfigHop, verify_certificate
from .crypto import PathSignature
from .timelock import judge_vote, refund_due

ACTIVE = "active"


class EscrowInvariantError(ValueError):
    """A lot's bookkeeping broke an invariant the contract relies on."""


class Lot:
    """One escrow call's assets, with commit-owner and abort-owner views."""

    def __init__(self, escrower: str):
        self.escrower = escrower
        self.fungible: Dict[str, int] = {}          # kind -> escrowed amount
        self.tokens: Set[str] = set()
        self.c_fun: Dict[str, Dict[str, int]] = {}  # commit-owner -> kind -> amount
        self.c_tok: Dict[str, str] = {}             # token -> commit-owner
        self.voted: Dict[str, dict] = {}            # voter -> accepted path (as json)
        self.resolution = ACTIVE
        self.resolved_tick: Optional[int] = None

    def add_escrow(self, bundle: AssetBundle):
        for (c, kind), amount in bundle.fungible.items():
            self.fungible[kind] = self.fungible.get(kind, 0) + amount
            own = self.c_fun.setdefault(self.escrower, {})
            own[kind] = own.get(kind, 0) + amount
        for c, token in bundle.tokens:
            self.tokens.add(token)
            self.c_tok[token] = self.escrower

    def c_balance(self, party: str, kind: str) -> int:
        return self.c_fun.get(party, {}).get(kind, 0)

    def can_transfer(self, party: str, bundle: AssetBundle) -> bool:
        for (_, kind), amount in bundle.fungible.items():
            if self.c_balance(party, kind) < amount:
                return False
        for _, token in bundle.tokens:
            if self.c_tok.get(token) != party:
                return False
        return True

    def move_c(self, sender: str, receiver: str, bundle: AssetBundle):
        for (_, kind), amount in bundle.fungible.items():
            self.c_fun[sender][kind] -= amount
            if self.c_fun[sender][kind] == 0:
                del self.c_fun[sender][kind]
            dst = self.c_fun.setdefault(receiver, {})
            dst[kind] = dst.get(kind, 0) + amount
        for _, token in bundle.tokens:
            self.c_tok[token] = receiver

    def check_invariants(self):
        """Escrowed totals and commit views must agree; tokens singly owned."""
        if self.resolution != ACTIVE:
            return
        per_kind: Dict[str, int] = {}
        for owner, kinds in self.c_fun.items():
            for kind, amount in kinds.items():
                if amount < 0:
                    raise EscrowInvariantError(
                        f"lot {self.escrower!r}: negative commit balance {owner}/{kind}"
                    )
                per_kind[kind] = per_kind.get(kind, 0) + amount
        if per_kind != {k: v for k, v in self.fungible.items() if v}:
            raise EscrowInvariantError(
                f"lot {self.escrower!r}: commit view {per_kind} != escrowed {self.fungible}"
            )
        if set(self.c_tok) != self.tokens:
            raise EscrowInvariantError(f"lot {self.escrower!r}: token commit view differs")

    def view(self) -> dict:
        return {
            "escrower": self.escrower,
            "resolution": self.resolution,
            "resolved_tick": self.resolved_tick,
            "fungible": dict(self.fungible),
            "tokens": sorted(self.tokens),
            "c_fun": {p: dict(kinds) for p, kinds in self.c_fun.items()},
            "c_tok": dict(self.c_tok),
            "voted": dict(self.voted),  # accepted paths are never mutated
        }

    @classmethod
    def from_view(cls, view: dict) -> "Lot":
        """The lot a recorded `view()` describes, copying every container it mutates."""
        lot = cls(view["escrower"])
        lot.fungible = dict(view["fungible"])
        lot.tokens = set(view["tokens"])
        lot.c_fun = {p: dict(kinds) for p, kinds in view["c_fun"].items()}
        lot.c_tok = dict(view["c_tok"])
        lot.voted = dict(view["voted"])
        lot.resolution = view["resolution"]
        lot.resolved_tick = view["resolved_tick"]
        return lot

    def state_key(self) -> tuple:
        return (
            self.resolution,
            self.resolved_tick,
            tuple(sorted(self.fungible.items())),
            tuple(sorted(self.tokens)),
            tuple((p, tuple(sorted(k.items()))) for p, k in sorted(self.c_fun.items())),
            tuple(sorted(self.c_tok.items())),
            tuple(
                (v, tuple(tuple(l) for l in path["links"]))
                for v, path in sorted(self.voted.items())
            ),
        )


@dataclass(frozen=True)
class CbcConfig:
    h: str
    epoch: int
    members: Tuple[str, ...]
    f: int


class EscrowContract:
    """A deal's escrow manager on one chain; applies published entries."""

    def __init__(
        self,
        chain_id: str,
        deal_id: str,
        plist: Tuple[str, ...],
        t0: int,
        delta: int,
        protocol: str,  # "timelock" | "naive" | "cbc"
    ):
        self.chain_id = chain_id
        self.deal_id = deal_id
        self.plist = tuple(plist)
        self.t0 = t0
        self.delta = delta
        self.protocol = protocol
        self.lots: Dict[str, Lot] = {}
        self.cbc: Optional[CbcConfig] = None

    # -- entry application -------------------------------------------------

    def apply(self, payload: dict, publisher: str, chain, local_now: int, scheme) -> tuple:
        op = payload.get("op")
        if payload.get("deal") != self.deal_id:
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
        return handler(payload, publisher, chain, local_now, scheme)

    def _op_escrow(self, payload, publisher, chain, local_now, scheme):
        party = payload["party"]
        if party != publisher:
            return "rejected", "caller-mismatch", {}
        if party not in self.plist:
            return "rejected", "not-in-plist", {}
        bundle = AssetBundle.from_json(payload["bundle"])
        if bundle.is_empty() or bundle.chains() != {self.chain_id}:
            return "rejected", "bad-bundle", {}
        if not chain.wallets.holds(party, bundle):
            return "rejected", "not-owner", {}
        if self.protocol == "cbc":
            cfg = CbcConfig(
                h=payload["h"],
                epoch=payload["epoch"],
                members=tuple(payload["validators"]),
                f=payload["f"],
            )
            if self.cbc is None:
                self.cbc = cfg
            elif (cfg.h, cfg.epoch, cfg.members, cfg.f) != (
                self.cbc.h,
                self.cbc.epoch,
                self.cbc.members,
                self.cbc.f,
            ):
                return "rejected", "config-mismatch", {}
        lot = self.lots.get(party)
        if lot is None:
            lot = Lot(party)
            self.lots[party] = lot
        elif lot.resolution != ACTIVE:
            return "rejected", "already-resolved", {}
        chain.wallets.withdraw(party, bundle)
        lot.add_escrow(bundle)
        lot.check_invariants()
        return "accepted", None, {"lot": party}

    def _op_transfer(self, payload, publisher, chain, local_now, scheme):
        party = payload["party"]
        if party != publisher:
            return "rejected", "caller-mismatch", {}
        lot = self.lots.get(payload["lot"])
        if lot is None:
            return "rejected", "no-such-lot", {}
        if lot.resolution != ACTIVE:
            return "rejected", "already-resolved", {}
        receiver = payload["to"]
        if receiver not in self.plist:
            return "rejected", "not-in-plist", {}
        bundle = AssetBundle.from_json(payload["bundle"])
        if bundle.is_empty() or bundle.chains() != {self.chain_id}:
            return "rejected", "bad-bundle", {}
        if not lot.can_transfer(party, bundle):
            return "rejected", "insufficient-commit-balance", {}
        lot.move_c(party, receiver, bundle)
        lot.check_invariants()
        return "accepted", None, {"lot": lot.escrower}

    def _op_commit(self, payload, publisher, chain, local_now, scheme):
        if self.protocol not in ("timelock", "naive"):
            return "rejected", "wrong-protocol", {}
        lot = self.lots.get(payload["lot"])
        if lot is None:
            return "rejected", "no-such-lot", {}
        if lot.resolution != ACTIVE:
            return "rejected", "already-resolved", {}
        path = PathSignature.from_json(payload["path"])
        ruling = judge_vote(
            path,
            deal_id=self.deal_id,
            plist=self.plist,
            voted=lot.voted,
            t0=self.t0,
            delta=self.delta,
            local_now=local_now,
            naive=self.protocol == "naive",
            scheme=scheme,
        )
        info = {"lot": lot.escrower, "verifications": ruling.verifications}
        if ruling.status != "accepted":
            return "rejected", ruling.reason, info
        lot.voted[path.vote.voter] = path.to_json()
        info["voter"] = path.vote.voter
        if len(lot.voted) == len(self.plist):
            self._finalize(lot, COMMITTED, chain, local_now)
            info["finalized"] = COMMITTED
        return "accepted", None, info

    def _op_timeout(self, payload, publisher, chain, local_now, scheme):
        if self.protocol not in ("timelock", "naive"):
            return "rejected", "wrong-protocol", {}
        lot = self.lots.get(payload["lot"])
        if lot is None:
            return "rejected", "no-such-lot", {}
        if lot.resolution != ACTIVE:
            return "rejected", "already-resolved", {}
        if not refund_due(self.t0, self.delta, len(self.plist), lot.voted, local_now):
            return "rejected", "not-due", {}
        self._finalize(lot, ABORTED, chain, local_now)
        return "accepted", None, {"lot": lot.escrower, "finalized": ABORTED}

    def _op_settle(self, payload, publisher, chain, local_now, scheme):
        if self.protocol != "cbc":
            return "rejected", "wrong-protocol", {}
        lot = self.lots.get(payload["lot"])
        if lot is None:
            return "rejected", "no-such-lot", {}
        if lot.resolution != ACTIVE:
            return "rejected", "already-resolved", {}
        if self.cbc is None:
            return "rejected", "unconfigured", {}
        cert = Certificate.from_json(payload["cert"])
        if cert.deal != self.deal_id or cert.h != self.cbc.h:
            return "rejected", "wrong-deal-ref", {}
        hops = tuple(ReconfigHop.from_json(h) for h in payload.get("reconfig", []))
        ruling = verify_certificate(
            cert, self.cbc.epoch, self.cbc.members, self.cbc.f, scheme, hops
        )
        info = {"lot": lot.escrower, "verifications": ruling.verifications}
        if not ruling.ok:
            return "rejected", ruling.reason, info
        self._finalize(lot, cert.status, chain, local_now)
        info["finalized"] = cert.status
        return "accepted", None, info

    # -- resolution ----------------------------------------------------------

    def _finalize(self, lot: Lot, outcome: str, chain, now: int):
        if lot.resolution != ACTIVE:
            raise EscrowInvariantError(f"lot {lot.escrower!r} is already {lot.resolution}")
        if outcome == COMMITTED:
            for party, kinds in lot.c_fun.items():
                for kind, amount in kinds.items():
                    if amount:
                        chain.wallets.deposit_fungible(party, kind, amount)
            for token, party in lot.c_tok.items():
                chain.wallets.set_token_owner(token, party)
        else:
            for kind, amount in lot.fungible.items():
                if amount:
                    chain.wallets.deposit_fungible(lot.escrower, kind, amount)
            for token in lot.tokens:
                chain.wallets.set_token_owner(token, lot.escrower)
        lot.fungible = {}
        lot.tokens = set()
        lot.resolution = outcome
        lot.resolved_tick = now

    # -- observation ---------------------------------------------------------

    def view(self) -> dict:
        out = {
            "deal": self.deal_id,
            "plist": list(self.plist),
            "t0": self.t0,
            "delta": self.delta,
            "protocol": self.protocol,
            "lots": {escrower: lot.view() for escrower, lot in self.lots.items()},
        }
        if self.cbc is not None:
            out["cbc"] = {
                "h": self.cbc.h,
                "epoch": self.cbc.epoch,
                "validators": list(self.cbc.members),
                "f": self.cbc.f,
            }
        return out

    def state_key(self) -> tuple:
        # A run never changes the deal's terms; each lot is keyed under its escrower.
        return self.cbc, tuple((e, lot.state_key()) for e, lot in sorted(self.lots.items()))

    def restore(self, view: dict):
        """Rewind to the state a recorded `view()` describes."""
        cbc = view.get("cbc")
        self.cbc = (
            None
            if cbc is None
            else CbcConfig(cbc["h"], cbc["epoch"], tuple(cbc["validators"]), cbc["f"])
        )
        self.lots = {e: Lot.from_view(lot) for e, lot in view["lots"].items()}

    def quiescent(self, wallets, finished: Set[str]) -> bool:
        """Whether no entry can change this chain's lots or `wallets` again.

        Transfers, votes, timeouts and settles need an active lot, and a
        party whose lot has resolved cannot escrow again.  So with no lot
        active, only a plist party without a lot here can still move an
        asset, by escrowing what it holds here; it cannot once it holds
        nothing here or has finished escrowing (is in `finished`).
        """
        if any(lot.resolution == ACTIVE for lot in self.lots.values()):
            return False
        return all(
            party in self.lots or party in finished or not wallets.holds_any(party)
            for party in self.plist
        )

    def unresolved_lots(self) -> List[str]:
        return sorted(e for e, lot in self.lots.items() if lot.resolution == ACTIVE)

    def resolutions(self) -> Dict[str, Tuple[str, Optional[int]]]:
        return {
            e: (lot.resolution, lot.resolved_tick) for e, lot in sorted(self.lots.items())
        }

"""Party controllers: the compliant protocols and the deviating strategies.

A controller reacts to delivered notifications and its own timers, and
acts only through the PartyContext: publishing entries and scheduling
wakeups.  All parties share the clearing-phase output (the deal and its
execution plan); each trusts only what it observes on chain.

The timelock party follows the minimum incentive-compatible behavior:
it escrows its outgoing assets, runs its scripted transfers, votes at the
lots it receives assets through, monitors the chains carrying its
outgoing assets, and forwards any vote it observes there to its own lots,
extending the path signature with its own signature.

Deviating strategies override the compliant controllers' hooks; they act
only through the party context, so they can publish, schedule wakeups,
and sign with their own key, but cannot touch other parties' keys or
wallets or any contract state directly.  Each strategy class carries its
own catalog entry: its name, its `params` declaring each parameter's
default and accepted values, a campaign sampler for those parameters,
and -- through its base class -- the protocols it covers.  Scenario
validation (`check_args`) and construction (`args`) read only that
declaration and `PARTY_OPTIONS`, which declares every binding's options
alike.  The catalog is necessarily a finite under-approximation of
"arbitrary deviation"; the exhaustive explorer quantifies over its
decision points plus scheduler delay choices, nothing more.

A controller class declares the fields a run changes, with their initial
values, in its `state` class attribute.  Construction initialises them,
and `snapshot` and `restore` read only them; every other field (deal,
plan, config, parameters) is a run constant.  A snapshot is a frozen,
hashable value and is also the controller's part of the explorer's state
key: sets become frozensets, dicts frozensets of their items, and
`restore` thaws each field by the type of its declared initial value.  So
a container field is declared as a dict or a set and read only by
membership or through `sorted(...)`, because a restore may reorder it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .assets import AssetBundle, Payoff, net_payoff
from .cbc import (
    ABORTED,
    CBC_CHAIN,
    COMMITTED,
    UNDECIDED,
    Certificate,
)
from .crypto import (
    PathSignature,
    Vote,
    certificate_message,
    digest_hex,
    direct_vote,
    encode_message,
    extend_path,
    link_message,
)
from .deals import DealSpec, is_acceptable
from .planning import DealPlan, LotId
from .timelock import vote_payload

PROTOCOLS = ("timelock", "naive", "cbc")

_CONTAINERS = frozenset((dict, set))  # their items are never mutated in place


REQUIRED = object()  # the default of a param every binding must give


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_bool(value) -> bool:
    return isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def at_least(low, most=None):
    """A test admitting integers from `low` up, to `most` if given."""
    return lambda value: is_int(value) and value >= low and (most is None or value <= most)


def list_of(test):
    """A test admitting lists whose every item passes `test`."""
    return lambda value: isinstance(value, list) and all(map(test, value))


def _is_coin(value) -> bool:  # [chain, kind, amount >= 0]
    return (
        isinstance(value, list) and len(value) == 3
        and _is_str(value[0]) and _is_str(value[1]) and is_int(value[2]) and value[2] >= 0
    )


PARTY_OPTIONS = {
    "altruistic": (False, is_bool),  # vote at every lot, not only those I receive through
    "validation_verdict": ("accept-if-acceptable", ("accept-if-acceptable", "reject")),
}


def check_args(declared: dict, given: dict):
    """Raise ValueError on a key of `given` that `declared` lacks, a missing
    REQUIRED one, or a value not in its declared (default, accepts): one of
    an `accepts` tuple, or passing an `accepts` test; a None default admits null."""
    unknown = given.keys() - declared.keys()
    if unknown:
        raise ValueError(f"takes no {sorted(unknown)}")
    for name, (default, accepts) in declared.items():
        value = given.get(name, default)
        if value is REQUIRED:
            raise ValueError(f"needs {name!r}")
        ok = value in accepts if isinstance(accepts, tuple) else accepts(value)
        if not ok and not (value is None and default is None):
            raise ValueError(f"does not accept {name}={value!r}")


@dataclass
class PartyConfig:
    # Shared-ledger settings; escrows are configured with epoch 0's validators.
    grace: int
    patience: int
    validators: Tuple[str, ...]
    f: int


class CompliantParty:
    """Shared escrow / transfer / validation phases; protocols specialize commit."""

    strategy_name = "compliant"
    protocols: Tuple[str, ...] = PROTOCOLS
    chooses = False  # whether it draws decisions through `ctx.choose`
    params: dict = {}  # name -> (default, accepts), beside PARTY_OPTIONS
    # The fields a run changes and their initial values; each class adds
    # its own, merged along the MRO by __init_subclass__.  A container is a
    # set or a dict, read only by membership or through sorted(...).
    state = {
        "moves_done": 0,
        "escrow_published": False,
        "validated": False,
        "validation_rejected": False,
    }

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        merged = {}
        for klass in reversed(cls.__mro__):
            merged.update(vars(klass).get("state", {}))
        cls.state = merged

    def __init__(self, me: str, deal: DealSpec, plan: DealPlan, cfg: PartyConfig, params: dict):
        self.me = me
        self.deal = deal
        self.plan = plan
        self.cfg = cfg
        self.my_moves = plan.moves_by(me)
        # Keys no declaration names are ignored: under a protocol the bound
        # strategy does not cover, the party plays the compliant base.
        self.args = {n: params.get(n, d) for n, (d, _) in {**PARTY_OPTIONS, **self.params}.items()}
        # setattr, not vars(self).update: materialising the instance dict
        # slows every later attribute access in the run.
        for name, value in self.state.items():
            setattr(self, name, value.copy() if type(value) in _CONTAINERS else value)

    @classmethod
    def random_params(cls, scenario: dict, rng) -> dict:
        """Campaign draw of this strategy's params for a validated scenario."""
        return {}

    # -- identity ------------------------------------------------------------

    def keypair(self, ctx):
        return ctx.scheme.keypair(self.me)

    def my_vote(self) -> Vote:
        nonce = digest_hex(encode_message("NONCE", self.deal.deal_id, self.me))[:16]
        return Vote(self.deal.deal_id, self.me, nonce)

    # -- hooks a strategy may override -----------------------------------------

    def escrow_bundles(self) -> Dict[str, AssetBundle]:
        out = {}
        for chain in sorted(self.deal.chains()):
            bundle = self.plan.escrow_for(self.me, chain)
            if not bundle.is_empty():
                out[chain] = bundle
        return out

    def voting_targets(self, ctx) -> List[LotId]:
        if self.args["altruistic"]:
            return self.plan.lots()
        return self.plan.voting_lots(self.me)

    def forward_targets(self, ctx) -> List[LotId]:
        return self.plan.voting_lots(self.me)

    def acceptability_ok(self, ctx, payoff: Payoff) -> bool:
        return is_acceptable(self.me, payoff, self.deal)

    def on_validated(self, ctx):
        pass

    def on_validation_failed(self, ctx):
        pass

    @staticmethod
    def active_lot(ctx, lot: LotId) -> Optional[dict]:
        """`lot`'s view as the party sees it, or None unless it is escrowed and active."""
        chain, escrower = lot
        lot_view = ctx.view(chain)["lots"].get(escrower)
        if lot_view is None or lot_view["resolution"] != "active":
            return None
        return lot_view

    # -- lifecycle -------------------------------------------------------------

    def handle_wake(self, ctx, tag: str):
        if tag == "start":
            self.on_start(ctx)
        self.step(ctx)

    def on_start(self, ctx):
        pass

    def step(self, ctx):
        self.try_escrow(ctx)
        self.try_transfers(ctx)
        self.try_validate(ctx)

    # -- escrow phase ------------------------------------------------------------

    def ready_to_escrow(self, ctx) -> bool:
        return True

    def escrow_extras(self) -> dict:
        return {}

    def try_escrow(self, ctx):
        if self.escrow_published or not self.ready_to_escrow(ctx):
            return
        for chain, bundle in self.escrow_bundles().items():
            payload = {
                "op": "escrow",
                "deal": self.deal.deal_id,
                "party": self.me,
                "bundle": bundle.to_json(),
            }
            payload.update(self.escrow_extras())
            ctx.publish(chain, payload)
        # Finished escrowing: `ctx.publish` refuses any later escrow, and the
        # explorer's quiescence test (`World.quiescent`) counts on it.
        self.escrow_published = True

    # -- transfer phase ------------------------------------------------------------

    def try_transfers(self, ctx):
        while self.moves_done < len(self.my_moves):
            move = self.my_moves[self.moves_done]
            chain, escrower = move.lot
            lot_view = self.active_lot(ctx, move.lot)
            if lot_view is None or not self._c_bundle(chain, lot_view, self.me).covers(move.bundle):
                return
            ctx.publish(
                chain,
                {
                    "op": "transfer",
                    "deal": self.deal.deal_id,
                    "party": self.me,
                    "lot": escrower,
                    "to": move.receiver,
                    "bundle": move.bundle.to_json(),
                },
            )
            self.moves_done += 1

    @staticmethod
    def _c_bundle(chain: str, lot_view: dict, party: str) -> AssetBundle:
        fun = {
            (chain, kind): amount
            for kind, amount in lot_view["c_fun"].get(party, {}).items()
            if amount
        }
        toks = [(chain, t) for t, owner in lot_view["c_tok"].items() if owner == party]
        return AssetBundle(fun, toks)

    # -- validation phase ------------------------------------------------------------

    def deal_config_ok(self, ctx, view: dict) -> bool:
        return (
            view.get("deal") == self.deal.deal_id
            and tuple(view.get("plist", ())) == self.deal.parties
            and view.get("t0") == self.deal.t0
            and view.get("delta") == self.deal.delta
        )

    def try_validate(self, ctx):
        """Validate once my own transfers are done and my incoming assets sit
        properly escrowed; the prospective payoff must be acceptable.

        Only chains the party actually receives through are consulted: a
        deal participant need never observe legs of the deal it has no
        stake in.
        """
        if self.validated or self.validation_rejected:
            return
        if not self.escrow_published or self.moves_done < len(self.my_moves):
            return
        entitled = self.plan.entitlement_lots(self.me)
        incoming_chains = sorted({lot[0] for lot in entitled})
        for lot in entitled:
            chain = lot[0]
            if not self.deal_config_ok(ctx, ctx.view(chain)):
                return
            lot_view = self.active_lot(ctx, lot)
            if lot_view is None or not self._c_bundle(chain, lot_view, self.me).covers(
                self.plan.entitlement(self.me, lot)
            ):
                return
        gross_in = AssetBundle.empty()
        for chain in incoming_chains:
            for escrower, lot_view in sorted(ctx.view(chain).get("lots", {}).items()):
                if lot_view["resolution"] == "active":
                    gross_in = gross_in.plus(self._c_bundle(chain, lot_view, self.me))
        gross_out = AssetBundle.empty()
        for chain, bundle in self.escrow_bundles().items():
            gross_out = gross_out.plus(bundle)
        payoff = net_payoff(gross_in, gross_out)
        if self.args["validation_verdict"] == "reject" or not self.acceptability_ok(ctx, payoff):
            self.validation_rejected = True
            self.on_validation_failed(ctx)
            return
        self.validated = True
        self.on_validated(ctx)

    # -- exploration support ------------------------------------------------------------

    def snapshot(self) -> tuple:
        """The state fields' values in declaration order, sets and dicts
        frozen: hashable, so the explorer keys on it as it stands."""
        fields = vars(self)
        snap = []
        for name in self.state:
            value = fields[name]
            kind = type(value)
            if kind is set:
                value = frozenset(value)
            elif kind is dict:
                value = frozenset(value.items())
            snap.append(value)
        return tuple(snap)

    def restore(self, snap: tuple):
        fields = vars(self)
        for (name, initial), value in zip(self.state.items(), snap):
            kind = type(initial)
            fields[name] = kind(value) if kind in _CONTAINERS else value


class TimelockParty(CompliantParty):
    """Votes at the lots it receives through; forwards observed votes there."""

    protocols = ("timelock", "naive")
    state = {"voted_lots": set(), "forwarded": set()}  # lots; (voter, lot) pairs

    def on_validated(self, ctx):
        ctx.wake_at(max(ctx.now, self.deal.t0), "vote")

    def step(self, ctx):
        super().step(ctx)
        self.publish_votes(ctx)
        self.forward_votes(ctx)

    def should_vote(self, ctx) -> bool:
        return self.validated and ctx.now >= self.deal.t0

    def publish_votes(self, ctx):
        if not self.should_vote(ctx):
            return
        for lot in self.voting_targets(ctx):
            if lot not in self.voted_lots:
                self.publish_vote_at(ctx, lot)

    def publish_vote_at(self, ctx, lot: LotId):
        """Publish my direct vote at `lot` unless it is resolved or has it."""
        lot_view = self.active_lot(ctx, lot)
        if lot_view is None:
            return
        chain, escrower = lot
        if self.me not in lot_view["voted"]:
            path = direct_vote(ctx.scheme, self.keypair(ctx), self.my_vote())
            ctx.publish(chain, vote_payload(escrower, path, self.deal.deal_id))
        self.voted_lots.add(lot)

    def observed_votes(self, ctx) -> Dict[str, dict]:
        """Shortest-path version of each voter's accepted vote at watched lots."""
        seen: Dict[str, tuple] = {}
        for chain, escrower in self.plan.source_lots(self.me):
            lot_view = ctx.view(chain).get("lots", {}).get(escrower)
            if lot_view is None:
                continue
            for voter, path_json in sorted(lot_view["voted"].items()):
                plen = len(path_json["links"])
                if voter not in seen or plen < seen[voter][0]:
                    seen[voter] = (plen, path_json)
        return {voter: pj for voter, (_, pj) in seen.items()}

    def forward_votes(self, ctx):
        if not self.validated:
            return
        targets = self.forward_targets(ctx)
        if not targets:
            return
        for voter, path_json in sorted(self.observed_votes(ctx).items()):
            if voter == self.me or any(s == self.me for s, _ in path_json["links"]):
                continue  # my own vote, or a path I already signed
            for lot in targets:
                if (voter, lot) not in self.forwarded:
                    self.publish_forward(ctx, voter, path_json, lot)

    def publish_forward(self, ctx, voter: str, path: PathSignature | dict, lot: LotId):
        """Publish `path` extended by my signature at `lot` unless it is
        resolved or already holds the voter's vote.  A path in JSON form is
        parsed only when the forward is published."""
        lot_view = self.active_lot(ctx, lot)
        if lot_view is None:
            return
        chain, escrower = lot
        if voter not in lot_view["voted"]:
            if not isinstance(path, PathSignature):
                path = PathSignature.from_json(path)
            extended = extend_path(ctx.scheme, self.keypair(ctx), path)
            ctx.publish(chain, vote_payload(escrower, extended, self.deal.deal_id))
        self.forwarded.add((voter, lot))


class CbcParty(CompliantParty):
    """Votes once on the shared ledger, then settles escrows with certificates.
    Its start ref `h` and the log's decision of it come from its view."""

    protocols = ("cbc",)
    state = {"h": None, "vote_sent": None, "settled": set()}

    def __init__(self, me, deal, plan, cfg, params):
        super().__init__(me, deal, plan, cfg, params)
        self.members = frozenset(deal.parties)

    def on_start(self, ctx):
        ctx.wake_at(self.cfg.patience, "patience")
        if self.deal.parties[0] == self.me:
            ctx.publish(
                CBC_CHAIN,
                {"op": "start_deal", "deal": self.deal.deal_id, "plist": list(self.deal.parties)},
            )

    def ready_to_escrow(self, ctx) -> bool:
        # Adopt the earliest start listing exactly the deal's parties: under
        # a start that leaves a party out, the others could commit without it.
        if self.h is None:
            records = ctx.view(CBC_CHAIN)["decisions"].items()
            mine = (h for h, r in records if r.deal == self.deal.deal_id and r.members == self.members)
            self.h = next(mine, None)
        return self.h is not None

    def escrow_extras(self) -> dict:
        return {
            "h": self.h,
            "validators": list(self.cfg.validators),
            "epoch": 0,
            "f": self.cfg.f,
        }

    def deal_config_ok(self, ctx, view: dict) -> bool:
        if not super().deal_config_ok(ctx, view):
            return False
        cbc = view.get("cbc")
        if cbc is None:
            return False
        return (
            cbc["h"] == self.h
            and tuple(cbc["validators"]) == tuple(self.cfg.validators)
            and cbc["f"] == self.cfg.f
        )

    def on_validated(self, ctx):
        self.publish_cbc_vote(ctx, "commit")
        ctx.wake_at(ctx.now + self.cfg.grace, "grace")

    def on_validation_failed(self, ctx):
        self.publish_cbc_vote(ctx, "abort")

    def publish_cbc_vote(self, ctx, kind: str):
        if self.h is None or self.vote_sent in (kind, "abort"):
            return
        ctx.publish(
            CBC_CHAIN,
            {
                "op": kind,
                "deal": self.deal.deal_id,
                "h": self.h,
                "voter": self.me,
            },
        )
        self.vote_sent = kind

    def handle_wake(self, ctx, tag: str):
        if tag == "grace":
            self.on_grace(ctx)
        elif tag == "patience":
            self.on_patience(ctx)
        super().handle_wake(ctx, tag)

    def on_grace(self, ctx):
        decisions = ctx.view(CBC_CHAIN)["decisions"]
        if self.vote_sent == "commit" and decisions[self.h].status == UNDECIDED:
            self.publish_cbc_vote(ctx, "abort")

    def on_patience(self, ctx):
        if self.vote_sent is None:
            self.publish_cbc_vote(ctx, "abort")

    def step(self, ctx):
        super().step(ctx)
        self.try_settle(ctx)

    def settle_targets(self, status: str) -> List[LotId]:
        if status == "committed":
            return self.plan.entitlement_lots(self.me)
        return self.plan.escrowed_lots(self.me)

    def try_settle(self, ctx):
        if self.h is None:
            return
        decision = ctx.view(CBC_CHAIN)["decisions"][self.h]
        if decision.status == UNDECIDED:
            return
        # My view is a prefix of the shared log and a decided status never
        # changes, so the certificate would certify this same decision: with
        # its targets all settled, it could settle nothing.
        if self.settled.issuperset(self.settle_targets(decision.status)):
            return
        cert = ctx.request_certificate(self.deal.deal_id, self.h)
        hops = ()
        if cert.epoch > 0:
            hops = ctx.reconfig_chain()
        for lot in self.settle_targets(cert.status):
            if lot in self.settled:
                continue
            if self.active_lot(ctx, lot) is None:
                self.settled.add(lot)
                continue
            chain, escrower = lot
            payload = {
                "op": "settle",
                "deal": self.deal.deal_id,
                "party": self.me,
                "lot": escrower,
                "cert": cert.to_json(),
            }
            if hops:
                payload["reconfig"] = [h.to_json() for h in hops]
            ctx.publish(chain, payload)
            self.settled.add(lot)


# -- deviating strategies -------------------------------------------------------
#
# A strategy derived from CompliantParty itself covers every protocol and is
# composed with the protocol's base by `controller_class`; one derived from
# TimelockParty or CbcParty covers only that protocol.


class SilentCrash(CompliantParty):
    """Stops acting for good at a tick or on entering a phase."""

    strategy_name = "silent_crash"
    params = {"at": (None, is_int), "phase": (None, ("escrow", "transfer", "commit"))}

    @classmethod
    def random_params(cls, scenario, rng):
        return {"phase": rng.choice(["escrow", "transfer", "commit"])}

    def _crashed(self, now: int) -> bool:
        at = self.args["at"]
        if at is not None and now >= at:
            return True
        phase = self.args["phase"]
        if phase == "escrow":
            return True
        if phase == "transfer" and self.escrow_published:
            return True
        if phase == "commit" and self.escrow_published and self.moves_done >= len(
            self.my_moves
        ):
            return True
        return False

    def handle_wake(self, ctx, tag):
        if self._crashed(ctx.now):
            return
        super().handle_wake(ctx, tag)

    def step(self, ctx):
        if self._crashed(ctx.now):
            return
        super().step(ctx)

    def on_validated(self, ctx):
        if self._crashed(ctx.now):
            return
        super().on_validated(ctx)


class OfflineWindow(CompliantParty):
    """Ignores every notification and timer inside a window, then resumes."""

    strategy_name = "offline_window"
    params = {"from": (0, is_int), "until": (0, is_int)}
    state = {"_resume_scheduled": False}

    @classmethod
    def random_params(cls, scenario, rng):
        deal = scenario["deal"]
        t0, d, n = deal["t0"], deal["delta"], len(deal["parties"])
        start = rng.randrange(0, t0 + n * d)
        return {"from": start, "until": start + rng.randrange(1, 3 * d)}

    def _offline(self, now: int) -> bool:
        return self.args["from"] <= now < self.args["until"]

    def handle_wake(self, ctx, tag):
        if self._offline(ctx.now):
            self._schedule_resume(ctx)
            return
        super().handle_wake(ctx, tag)

    def step(self, ctx):
        if self._offline(ctx.now):
            self._schedule_resume(ctx)
            return
        super().step(ctx)

    def _schedule_resume(self, ctx):
        if not self._resume_scheduled:
            ctx.wake_at(self.args["until"], "resume")
            self._resume_scheduled = True


class Overpay(CompliantParty):
    """Pays extra coins at one transfer step and accepts any payoff."""

    strategy_name = "overpay"
    params = {"step": (REQUIRED, is_int), "extra": (REQUIRED, list_of(_is_coin))}

    def __init__(self, me, deal, plan, cfg, params):
        super().__init__(me, deal, plan, cfg, params)
        self.extra = AssetBundle.from_json({"fungible": self.args["extra"]})
        self.my_moves = [
            replace(move, bundle=move.bundle.plus(self.extra))
            if move.step == self.args["step"] else move
            for move in self.my_moves
        ]

    @classmethod
    def random_params(cls, scenario, rng):
        transfers = scenario["deal"]["transfers"]
        fungible_steps = [t for t in transfers if t["bundle"]["fungible"]]
        if not fungible_steps:
            return {"step": transfers[0]["step"], "extra": []}
        pick = rng.choice(fungible_steps)
        chain, kind, _ = pick["bundle"]["fungible"][0]
        return {"step": pick["step"], "extra": [[chain, kind, rng.randrange(1, 1000)]]}

    def escrow_bundles(self):
        out = super().escrow_bundles()
        for chain in sorted(self.extra.chains()):
            cur = out.get(chain, AssetBundle.empty())
            out[chain] = cur.plus(self.extra.restrict(chain))
        return out

    def acceptability_ok(self, ctx, payoff):
        return True


class WithholdVote(CompliantParty):
    """Never publishes a vote of its own (under CBC neither commit nor
    abort); under timelock it still forwards everyone else's."""

    strategy_name = "withhold_vote"

    def publish_votes(self, ctx):
        return

    def publish_cbc_vote(self, ctx, kind):
        return


# -- timelock deviations ----------------------------------------------------------


class SelectiveCommunication(TimelockParty):
    """Acts compliant toward everyone except the ignored parties: never votes
    at or forwards to lots that hold their escrows or pay them out."""

    strategy_name = "selective_communication"
    params = {"ignore": ([], list_of(_is_str))}

    @classmethod
    def random_params(cls, scenario, rng):
        return {"ignore": [rng.choice(list(scenario["deal"]["parties"]))]}

    def _touches_ignored(self, lot) -> bool:
        ignore = self.args["ignore"]
        return lot[1] in ignore or any(p in ignore for p in self.plan.final_c.get(lot, {}))

    def voting_targets(self, ctx):
        return [l for l in super().voting_targets(ctx) if not self._touches_ignored(l)]

    def forward_targets(self, ctx):
        return [l for l in super().forward_targets(ctx) if not self._touches_ignored(l)]


class VoteNoForward(TimelockParty):
    """Votes for itself, then free-rides on everyone else's forwarding."""

    strategy_name = "vote_no_forward"

    def forward_votes(self, ctx):
        return


class ReplayVotes(TimelockParty):
    """Re-submits observed votes verbatim (and its own twice) instead of
    extending path signatures; exercises duplicate and replay rejection."""

    strategy_name = "replay_votes"
    state = {"replayed": set()}  # (voter, lot) pairs

    def forward_votes(self, ctx):
        if not self.validated:
            return
        for voter, path_json in sorted(self.observed_votes(ctx).items()):
            for lot in self.forward_targets(ctx):
                key = (voter, lot)
                if key in self.replayed:
                    continue
                chain, escrower = lot
                path = PathSignature.from_json(path_json)
                ctx.publish(chain, vote_payload(escrower, path, self.deal.deal_id))
                self.replayed.add(key)


class LateClaim(TimelockParty):
    """Delays its own votes (and optionally its forwards) to a chosen tick."""

    strategy_name = "late_claim"
    params = {  # a None vote_at means t0
        "vote_at": (None, is_int), "forward_at": (None, is_int), "forward_with_vote": (False, is_bool),
    }

    def __init__(self, me, deal, plan, cfg, params):
        super().__init__(me, deal, plan, cfg, params)
        if self.args["vote_at"] is None:
            self.args["vote_at"] = deal.t0

    @classmethod
    def random_params(cls, scenario, rng):
        deal = scenario["deal"]
        t0, d, n = deal["t0"], deal["delta"], len(deal["parties"])
        return {
            "vote_at": rng.choice([t0 + d - 1, t0 + 2 * d - 1, t0 + n * d - 1]),
            "forward_with_vote": rng.random() < 0.5,
        }

    def on_validated(self, ctx):
        ctx.wake_at(self.args["vote_at"], "vote")
        if self.args["forward_at"] is not None:
            ctx.wake_at(self.args["forward_at"], "late-forward")

    def should_vote(self, ctx) -> bool:
        return self.validated and ctx.now >= self.args["vote_at"]

    def forward_votes(self, ctx):
        args = self.args
        due = False
        if args["forward_with_vote"] and ctx.now >= args["vote_at"]:
            due = True
        if args["forward_at"] is not None and ctx.now >= args["forward_at"]:
            due = True
        if due:
            super().forward_votes(ctx)


class ForgedSignature(TimelockParty):
    """Attempts votes on a victim's behalf with fabricated signatures."""

    strategy_name = "forged_signature"
    params = {  # a None victim means the first other party
        "victim": (None, _is_str), "attempts": (6, is_int),
        "salt": (0, lambda value: is_int(value) or _is_str(value)),
    }
    state = {"forgeries_sent": 0, "forgeries_accepted": 0}

    def __init__(self, me, deal, plan, cfg, params):
        super().__init__(me, deal, plan, cfg, params)
        if self.args["victim"] is None:
            self.args["victim"] = next(p for p in deal.parties if p != me)

    @classmethod
    def random_params(cls, scenario, rng):
        return {"attempts": 6, "salt": rng.randrange(1 << 16)}

    def _forged_paths(self, ctx) -> List[PathSignature]:
        out = []
        deal_id = self.deal.deal_id
        victim, salt = self.args["victim"], str(self.args["salt"])
        for i in range(self.args["attempts"]):
            nonce = digest_hex(encode_message("FNONCE", deal_id, victim, str(i), salt))[:16]
            vote = Vote(deal_id, victim, nonce)
            kind = i % 3
            if kind == 0:
                sig = digest_hex(encode_message("FORGE", deal_id, victim, str(i), salt))
            elif kind == 1:
                observed = self.observed_votes(ctx)
                base_sig = None
                for voter, pj in sorted(observed.items()):
                    base_sig = pj["links"][0][1]
                    break
                if base_sig is None:
                    sig = digest_hex(encode_message("FORGE2", deal_id, str(i), salt))
                else:
                    flipped = format(int(base_sig[-1], 16) ^ 1, "x")
                    sig = base_sig[:-1] + flipped
            else:
                sig = ctx.scheme.sign(self.keypair(ctx), link_message(vote, ()))
            out.append(PathSignature(vote, ((victim, sig),)))
        return out

    def publish_votes(self, ctx):
        super().publish_votes(ctx)
        if self.forgeries_sent:
            return
        targets = self.voting_targets(ctx) or self.plan.lots()
        for path in self._forged_paths(ctx):
            for lot in targets[:1]:
                chain, escrower = lot
                status, reason, _ = ctx.publish(
                    chain, vote_payload(escrower, path, self.deal.deal_id)
                )
                self.forgeries_sent += 1
                if status == "accepted":
                    self.forgeries_accepted += 1


class Explored(TimelockParty):
    """An adversary whose vote and forward timings are exploration choices.

    Per target lot the own-vote menu is {t0, t0+d-1, t0+N*d-1, never}; per
    observed vote and target lot the forward menu is {on observation,
    t0+N*d-1, never}.  Targets are the lots the party receives through or
    escrowed into; together with scheduler delays this is the explored
    schedule space.
    """

    strategy_name = "explored"
    chooses = True
    # lot -> chosen tick (None: never); (voter, lot) -> chosen tick
    state = {"vote_choice": {}, "fwd_choice": {}}

    def _target_lots(self) -> List[tuple]:
        lots = set(self.plan.voting_lots(self.me)) | set(self.plan.escrowed_lots(self.me))
        return sorted(lots)

    def _forward_target_lots(self) -> List[tuple]:
        # Forwarding only pays at the lots this party claims through; votes
        # elsewhere are covered by other parties' own forwarding.
        return sorted(self.plan.voting_lots(self.me))

    def _vote_menu(self) -> List[Optional[int]]:
        t0, d, n = self.deal.t0, self.deal.delta, len(self.deal.parties)
        return [t0, t0 + d - 1, t0 + n * d - 1, None]

    def _fwd_menu(self, observed_at: int) -> List[Optional[int]]:
        t0, d, n = self.deal.t0, self.deal.delta, len(self.deal.parties)
        return [observed_at, t0 + n * d - 1, None]

    def on_validated(self, ctx):
        for lot in self._target_lots():
            when = ctx.choose(("adv-vote", self.me, lot), self._vote_menu())
            self.vote_choice[lot] = when
            if when is not None:
                ctx.wake_at(when, "adv")

    def publish_votes(self, ctx):
        if not self.validated:
            return
        for lot, when in sorted(
            self.vote_choice.items(), key=lambda kv: (kv[1] is None, kv[1], kv[0])
        ):
            if when is not None and ctx.now >= when and lot not in self.voted_lots:
                self.publish_vote_at(ctx, lot)

    def forward_votes(self, ctx):
        if not self.validated:
            return
        observed = self.observed_votes(ctx)
        for voter, path_json in sorted(observed.items()):
            if voter == self.me:
                continue
            for lot in self._forward_target_lots():
                key = (voter, lot)
                if key not in self.fwd_choice:
                    when = ctx.choose(("adv-fwd", self.me, voter, lot), self._fwd_menu(ctx.now))
                    self.fwd_choice[key] = when
                    if when is not None and when > ctx.now:
                        ctx.wake_at(when, "adv")
        for (voter, lot), when in sorted(
            self.fwd_choice.items(), key=lambda kv: (kv[1] is None, kv[1], kv[0])
        ):
            if when is None or ctx.now < when or (voter, lot) in self.forwarded:
                continue
            path_json = self.observed_votes(ctx).get(voter)
            if path_json is None:
                continue
            path = PathSignature.from_json(path_json)
            if self.me not in path.signers():
                self.publish_forward(ctx, voter, path, lot)


# -- cbc deviations -----------------------------------------------------------------


class FakeCertificate(CbcParty):
    """Asks corrupt validators to sign a contradictory status and tries to
    settle its own escrows with the resulting under-quorum certificates."""

    strategy_name = "fake_certificate"
    params = {"status": (ABORTED, _is_str)}
    state = {"attempted": False, "fakes_accepted": 0}

    @classmethod
    def random_params(cls, scenario, rng):
        return {"status": rng.choice([COMMITTED, ABORTED])}

    def on_validated(self, ctx):
        super().on_validated(ctx)
        self._attempt_forgery(ctx)

    def step(self, ctx):
        super().step(ctx)
        if self.h is not None and self.validated:
            self._attempt_forgery(ctx)

    def _attempt_forgery(self, ctx):
        if self.attempted or self.h is None:
            return
        self.attempted = True
        msg = certificate_message(self.deal.deal_id, self.h, self.args["status"], 0)
        corrupt = tuple(ctx.corrupt_signatures(msg))
        own_sig = ctx.scheme.sign(self.keypair(ctx), msg)
        variants = [corrupt]
        variants.append(tuple(sorted(corrupt + ((self.me, own_sig),))))
        if corrupt:
            variants.append(tuple(sorted(corrupt + (corrupt[0],))))
        targets = self.plan.escrowed_lots(self.me) or self.plan.lots()
        for sigs in variants:
            cert = Certificate(self.deal.deal_id, self.h, self.args["status"], 0, sigs)
            for lot in targets:
                chain, escrower = lot
                status, reason, _ = ctx.publish(
                    chain,
                    {
                        "op": "settle",
                        "deal": self.deal.deal_id,
                        "party": self.me,
                        "lot": escrower,
                        "cert": cert.to_json(),
                    },
                )
                if status == "accepted":
                    self.fakes_accepted += 1


class AbortAfterCommit(CbcParty):
    """Votes commit and rescinds immediately, skipping the grace wait."""

    strategy_name = "abort_after_commit"

    def on_validated(self, ctx):
        self.publish_cbc_vote(ctx, "commit")
        self.publish_cbc_vote(ctx, "abort")


# -- the registry -------------------------------------------------------------------

STRATEGIES: Dict[str, type] = {
    cls.strategy_name: cls
    for cls in (
        CompliantParty,
        SilentCrash,
        OfflineWindow,
        SelectiveCommunication,
        Overpay,
        WithholdVote,
        VoteNoForward,
        ReplayVotes,
        LateClaim,
        ForgedSignature,
        FakeCertificate,
        AbortAfterCommit,
        Explored,
    )
}


@functools.cache
def controller_class(name: str, protocol: str) -> type:
    """The controller class that plays strategy `name` under `protocol`.

    A protocol-generic strategy is composed with the protocol's compliant
    base; under a protocol the strategy does not cover, the party plays
    the compliant base.
    """
    strategy = STRATEGIES[name]
    base = CbcParty if protocol == "cbc" else TimelockParty
    if protocol not in strategy.protocols or issubclass(base, strategy):
        return base
    if issubclass(strategy, base):
        return strategy
    return type(strategy.__name__, (strategy, base), {})

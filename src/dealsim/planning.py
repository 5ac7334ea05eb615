"""Execution plans for a deal script.

A plan answers, for given starting wallets: which assets each party
escrows on which chain, through which escrow lot every scripted transfer
routes, what the commit-owner maps look like once the script has run,
which parties end up relying on each lot (its beneficiaries), and which
chains each party has to watch.

Lots are identified by (chain, escrower): each escrow call creates or
tops up the caller's lot on that chain.

`build_plan` does its arithmetic on plain dicts and sets: each owner's
commit balance in each lot, and what is left of each transfer to route.
It builds an `AssetBundle` only for what the plan hands out: the escrows,
the moves and the final commit-owner entitlements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

from .assets import AssetBundle, FungibleKey, TokenKey
from .deals import DealSpec

LotId = Tuple[str, str]  # (chain id, escrower party)


class PlanError(ValueError):
    """The script cannot be executed from the given starting wallets."""


@dataclass(frozen=True)
class PlannedMove:
    """One on-chain transfer call: part of a scripted transfer, drawn from one lot."""

    step: int
    lot: LotId
    sender: str
    receiver: str
    bundle: AssetBundle


@dataclass
class DealPlan:
    """The plan for one deal and one set of starting wallets.

    A plan is never changed once built, so every run from the same wallets
    can share it; the lot queries are answered once, in `__post_init__`,
    and each call hands out a fresh list.
    """

    deal: DealSpec
    escrows: Dict[Tuple[str, str], AssetBundle]     # (party, chain) -> bundle
    moves: List[PlannedMove]
    final_c: Dict[LotId, Dict[str, AssetBundle]]    # lot -> commit-owner entitlements, none empty
    beneficiaries: Dict[LotId, frozenset]           # lot -> parties receiving through it
    # The query answers, in lot order; per party, keyed by party.
    _lots: Tuple[LotId, ...] = field(init=False, repr=False)
    _voting: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _escrowed: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _source: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _entitled: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _interest: Dict[str, Tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        lots = self._lots = tuple(sorted(self.final_c))
        moved: Dict[str, set] = {}
        for m in self.moves:
            moved.setdefault(m.sender, set()).add(m.lot)
        self._voting, self._escrowed, self._source, self._entitled = {}, {}, {}, {}
        self._interest = {}
        for party in self.deal.parties:
            escrowed = self._escrowed[party] = tuple(lot for lot in lots if lot[1] == party)
            voting = self._voting[party] = tuple(
                lot for lot in lots if party in self.beneficiaries[lot]
            )
            source = self._source[party] = tuple(sorted(moved.get(party, set()).union(escrowed)))
            entitled = self._entitled[party] = tuple(
                lot for lot in lots if party in self.final_c[lot]
            )
            self._interest[party] = tuple(sorted({lot[0] for lot in source + voting + entitled}))

    def lots(self) -> List[LotId]:
        return list(self._lots)

    def escrow_for(self, party: str, chain: str) -> AssetBundle:
        return self.escrows.get((party, chain), AssetBundle.empty())

    def moves_by(self, party: str) -> List[PlannedMove]:
        return [m for m in self.moves if m.sender == party]

    def voting_lots(self, party: str) -> List[LotId]:
        """Lots the party receives assets through: where its commit vote matters."""
        return list(self._voting.get(party, ()))

    def escrowed_lots(self, party: str) -> List[LotId]:
        return list(self._escrowed.get(party, ()))

    def source_lots(self, party: str) -> List[LotId]:
        """Lots holding the party's outgoing assets: what it watches for votes.

        That is its own escrows plus any lot it relays assets through; a
        vote accepted there releases something of the party's, so the party
        is motivated to carry that vote onward to the lots paying it.
        """
        return list(self._source.get(party, ()))

    def entitlement_lots(self, party: str) -> List[LotId]:
        """Lots the script leaves something to the party in."""
        return list(self._entitled.get(party, ()))

    def chains_of_interest(self, party: str) -> List[str]:
        """Chains of the lots the party escrows, relays through, votes on
        or is entitled in: the deal chains it watches."""
        return list(self._interest.get(party, ()))

    def entitlement(self, party: str, lot: LotId) -> AssetBundle:
        return self.final_c.get(lot, {}).get(party, AssetBundle.empty())


# An owner's commit balance in one lot: fungible amounts and tokens, both on
# the lot's chain.  The planner updates balances in place.
_Balance = Tuple[Dict[FungibleKey, int], Set[TokenKey]]


def _deduct(amounts: Dict[FungibleKey, int], key: FungibleKey, amount: int):
    """Take `amount` off `amounts[key]`, dropping the key at zero."""
    left = amounts[key] - amount
    if left:
        amounts[key] = left
    else:
        del amounts[key]


def build_plan(deal: DealSpec, holdings: Mapping[str, AssetBundle]) -> DealPlan:
    """Plan escrows and per-lot transfer routing for the deal script.

    Each party escrows, per chain, the part of its scripted outgoing assets
    it already owns; the rest must arrive through the deal (broker pattern).
    Transfers then draw from the sender's commit balances, preferring the
    sender's own lot, splitting across lots when needed.
    """
    escrows: Dict[Tuple[str, str], AssetBundle] = {}
    # Commit-owner balances per lot while replaying the script.
    balances: Dict[LotId, Dict[str, _Balance]] = {}
    for party in deal.parties:
        wallet = holdings.get(party, AssetBundle.empty())
        _, out = deal.gross_flows(party)
        owned = out.tokens & wallet.tokens
        for chain in sorted(out.chains()):
            fun = {
                k: min(v, wallet.fungible[k])
                for k, v in out.fungible.items()
                if k[0] == chain and wallet.fungible.get(k, 0)
            }
            toks = {t for t in owned if t[0] == chain}
            if fun or toks:
                escrows[(party, chain)] = AssetBundle(fun, toks)
                balances[(chain, party)] = {party: (fun, toks)}
    received: Dict[LotId, set] = {lot: set() for lot in balances}

    moves: List[PlannedMove] = []
    for ts in deal.transfers:
        sender = ts.sender
        for chain in sorted(ts.bundle.chains()):
            # What is still to be drawn from some lot on this chain.
            want_fun = {k: v for k, v in ts.bundle.fungible.items() if k[0] == chain}
            want_toks = {t for t in ts.bundle.tokens if t[0] == chain}
            own_first = [(chain, sender)] + [
                lot for lot in sorted(balances) if lot[0] == chain and lot[1] != sender
            ]
            for lot in own_first:
                if not want_fun and not want_toks:
                    break
                owners = balances.get(lot)
                if owners is None or sender not in owners:
                    continue
                avail_fun, avail_toks = owners[sender]
                take_fun = {k: min(v, avail_fun[k]) for k, v in want_fun.items() if k in avail_fun}
                take_toks = want_toks & avail_toks
                if not take_fun and not take_toks:
                    continue
                gain_fun, gain_toks = owners.setdefault(ts.receiver, ({}, set()))
                for k, v in take_fun.items():
                    _deduct(avail_fun, k, v)
                    _deduct(want_fun, k, v)
                    gain_fun[k] = gain_fun.get(k, 0) + v
                avail_toks -= take_toks
                want_toks -= take_toks
                gain_toks |= take_toks
                received[lot].add(ts.receiver)
                moves.append(
                    PlannedMove(ts.step, lot, sender, ts.receiver, AssetBundle(take_fun, take_toks))
                )
            if want_fun or want_toks:
                remaining = AssetBundle(want_fun, want_toks)
                raise PlanError(f"step {ts.step}: {sender} cannot cover {remaining!r} on {chain}")

    final_c = {
        lot: {p: AssetBundle(f, t) for p, (f, t) in owners.items() if f or t}
        for lot, owners in balances.items()
    }
    beneficiaries = {lot: frozenset(received[lot]) for lot in balances}
    return DealPlan(deal, escrows, moves, final_c, beneficiaries)


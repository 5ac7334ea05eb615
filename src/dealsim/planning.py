"""Execution plans for a deal script.

A plan answers, for given starting wallets: which assets each party
escrows on which chain, through which escrow lot every scripted transfer
routes, what the commit-owner maps look like once the script has run, and
which parties end up relying on each lot (its beneficiaries).

Lots are identified by (chain, escrower): each escrow call creates or
tops up the caller's lot on that chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from .assets import AssetBundle
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
    final_c: Dict[LotId, Dict[str, AssetBundle]]    # lot -> commit-owner entitlements
    beneficiaries: Dict[LotId, frozenset]           # lot -> parties receiving through it
    # The query answers, in lot order; per party, keyed by party.
    _lots: Tuple[LotId, ...] = field(init=False, repr=False)
    _voting: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _escrowed: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _source: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)
    _entitled: Dict[str, Tuple[LotId, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        lots = self._lots = tuple(sorted(self.final_c))
        self._voting, self._escrowed, self._source, self._entitled = {}, {}, {}, {}
        for party in self.deal.parties:
            escrowed = tuple(lot for lot in lots if lot[1] == party)
            moved = {m.lot for m in self.moves_by(party)}
            self._voting[party] = tuple(lot for lot in lots if party in self.beneficiaries[lot])
            self._escrowed[party] = escrowed
            self._source[party] = tuple(sorted(moved.union(escrowed)))
            self._entitled[party] = tuple(
                lot for lot in lots if not self.entitlement(party, lot).is_empty()
            )

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

    def entitlement(self, party: str, lot: LotId) -> AssetBundle:
        return self.final_c.get(lot, {}).get(party, AssetBundle.empty())


def build_plan(deal: DealSpec, holdings: Mapping[str, AssetBundle]) -> DealPlan:
    """Plan escrows and per-lot transfer routing for the deal script.

    Each party escrows, per chain, the part of its scripted outgoing assets
    it already owns; the rest must arrive through the deal (broker pattern).
    Transfers then draw from the sender's commit balances, preferring the
    sender's own lot, splitting across lots when needed.
    """
    escrows: Dict[Tuple[str, str], AssetBundle] = {}
    for party in deal.parties:
        wallet = holdings.get(party, AssetBundle.empty())
        _, out = deal.gross_flows(party)
        for chain in sorted(out.chains()):
            need = out.restrict(chain)
            have = wallet.restrict(chain)
            fun = {
                k: min(v, have.fungible.get(k, 0))
                for k, v in need.fungible.items()
                if have.fungible.get(k, 0)
            }
            bundle = AssetBundle(fun, need.tokens & have.tokens)
            if not bundle.is_empty():
                escrows[(party, chain)] = bundle

    # Commit-owner state per lot while replaying the script.
    c_state: Dict[LotId, Dict[str, AssetBundle]] = {}
    received: Dict[LotId, set] = {}
    for (party, chain), bundle in escrows.items():
        lot = (chain, party)
        c_state[lot] = {party: bundle}
        received[lot] = set()

    moves: List[PlannedMove] = []
    for ts in deal.transfers:
        for chain in sorted(ts.bundle.chains()):
            part = ts.bundle.restrict(chain)
            remaining = part
            own_first = [(chain, ts.sender)] + [
                lot for lot in sorted(c_state) if lot[0] == chain and lot[1] != ts.sender
            ]
            for lot in own_first:
                if remaining.is_empty():
                    break
                avail = c_state.get(lot, {}).get(ts.sender, AssetBundle.empty())
                if avail.is_empty():
                    continue
                take_fun = {
                    k: min(v, avail.fungible.get(k, 0))
                    for k, v in remaining.fungible.items()
                    if avail.fungible.get(k, 0)
                }
                take_toks = remaining.tokens & avail.tokens
                taken = AssetBundle(take_fun, take_toks)
                if taken.is_empty():
                    continue
                c_state[lot][ts.sender] = avail.minus(taken)
                cur = c_state[lot].get(ts.receiver, AssetBundle.empty())
                c_state[lot][ts.receiver] = cur.plus(taken)
                received[lot].add(ts.receiver)
                moves.append(PlannedMove(ts.step, lot, ts.sender, ts.receiver, taken))
                remaining = remaining.minus(taken)
            if not remaining.is_empty():
                raise PlanError(
                    f"step {ts.step}: {ts.sender} cannot cover {remaining!r} on {chain}"
                )

    final_c = {
        lot: {p: b for p, b in owners.items() if not b.is_empty()}
        for lot, owners in c_state.items()
    }
    beneficiaries = {lot: frozenset(received[lot]) for lot in c_state}
    return DealPlan(deal, escrows, moves, final_c, beneficiaries)

"""Deal specifications: transfer scripts, digraphs, acceptability, payoffs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from .assets import NOTHING, AssetBundle, Payoff, net_payoff


class DealError(ValueError):
    """A deal specification violates its invariants."""


@dataclass(frozen=True)
class TransferSpec:
    """One planned transfer: `sender` relinquishes `bundle` to `receiver`."""

    sender: str
    receiver: str
    bundle: AssetBundle
    step: int

    def __post_init__(self):
        if self.sender == self.receiver:
            raise DealError("transfer endpoints must differ")
        if self.bundle.is_empty():
            raise DealError("transfer bundle must be non-empty")


@dataclass(frozen=True)
class DealSpec:
    """A multi-party exchange: parties, transfer script, and timing.

    `t0` is the commit-phase reference time and `delta` the network latency
    bound used for all timeout arithmetic.  `extra_acceptable` widens a
    party's acceptability base set beyond the default {all, nothing}.

    `cache_derived` stores the deal's chains and every party's gross
    flows and base set, which `chains`, `gross_flows`, `acceptable_base`
    and `all_payoff` then answer from.  Call it before a run, never during
    one: a run's controllers share the deal.
    """

    deal_id: str
    parties: Tuple[str, ...]
    transfers: Tuple[TransferSpec, ...]
    t0: int
    delta: int
    extra_acceptable: Mapping[str, Tuple[Payoff, ...]] = field(default_factory=dict)
    _chains: Optional[Tuple[str, ...]] = field(default=None, init=False, repr=False, compare=False)
    _flows: Dict[str, Tuple[AssetBundle, AssetBundle]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _bases: Dict[str, Tuple[Payoff, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(set(self.parties)) != len(self.parties) or not self.parties:
            raise DealError("parties must be a non-empty list of distinct ids")
        for ts in self.transfers:
            if ts.sender not in self.parties or ts.receiver not in self.parties:
                raise DealError(f"transfer endpoint outside plist: {ts}")
        steps = [ts.step for ts in self.transfers]
        if steps != sorted(steps):
            raise DealError("transfers must be listed in step order")
        if self.delta <= 0:
            raise DealError("delta must be positive")
        for party in self.extra_acceptable:
            if party not in self.parties:
                raise DealError(f"acceptability entry for unknown party {party!r}")

    # -- derived structure ---------------------------------------------------

    def chains(self) -> Tuple[str, ...]:
        if self._chains is not None:
            return self._chains
        seen: List[str] = []
        for ts in self.transfers:
            for chain in sorted(ts.bundle.chains()):
                if chain not in seen:
                    seen.append(chain)
        return tuple(seen)

    def gross_flows(self, party: str) -> Tuple[AssetBundle, AssetBundle]:
        """Gross (incoming, outgoing) bundles for a party over the full script."""
        cached = self._flows.get(party)
        if cached is not None:
            return cached
        inc = AssetBundle.empty()
        out = AssetBundle.empty()
        for ts in self.transfers:
            if ts.receiver == party:
                inc = inc.plus(ts.bundle)
            if ts.sender == party:
                out = out.plus(ts.bundle)
        return inc, out

    def all_payoff(self, party: str) -> Payoff:
        """The net payoff when every agreed transfer takes place."""
        cached = self._bases.get(party)
        if cached is not None:
            return cached[0]
        inc, out = self.gross_flows(party)
        return net_payoff(inc, out)

    def acceptable_base(self, party: str) -> Tuple[Payoff, ...]:
        cached = self._bases.get(party)
        if cached is not None:
            return cached
        if party not in self.parties:
            raise DealError(f"unknown party {party!r}")
        return (self.all_payoff(party), NOTHING) + tuple(self.extra_acceptable.get(party, ()))

    def cache_derived(self):
        object.__setattr__(self, "_chains", self.chains())
        for party in self.parties:
            self._flows[party] = self.gross_flows(party)
            self._bases[party] = self.acceptable_base(party)

    def to_json(self) -> dict:
        return {
            "id": self.deal_id,
            "parties": list(self.parties),
            "transfers": [
                {
                    "from": ts.sender,
                    "to": ts.receiver,
                    "bundle": ts.bundle.to_json(),
                    "step": ts.step,
                }
                for ts in self.transfers
            ],
            "t0": self.t0,
            "delta": self.delta,
            "extra_acceptable": {
                p: [po.to_json() for po in pos] for p, pos in self.extra_acceptable.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "DealSpec":
        names = [data["id"], *data["parties"]]
        if not all(isinstance(name, str) for name in names):
            raise DealError(f"deal id and parties must be strings, got {names!r}")
        numbers = [data["t0"], data["delta"], *(t["step"] for t in data["transfers"])]
        if not all(type(number) is int for number in numbers):
            raise DealError(f"deal t0, delta and transfer steps must be integers, got {numbers!r}")
        return cls(
            deal_id=data["id"],
            parties=tuple(data["parties"]),
            transfers=tuple(
                TransferSpec(
                    sender=t["from"],
                    receiver=t["to"],
                    bundle=AssetBundle.from_json(t["bundle"]),
                    step=t["step"],
                )
                for t in data["transfers"]
            ),
            t0=data["t0"],
            delta=data["delta"],
            extra_acceptable={
                p: tuple(Payoff.from_json(po) for po in pos)
                for p, pos in data.get("extra_acceptable", {}).items()
            },
        )


@dataclass(frozen=True)
class Digraph:
    vertices: Tuple[str, ...]
    arcs: frozenset  # of (from, to) pairs


def build_digraph(deal: DealSpec) -> Digraph:
    """One vertex per party, one arc per distinct transfer direction."""
    arcs = frozenset((ts.sender, ts.receiver) for ts in deal.transfers)
    return Digraph(deal.parties, arcs)


def is_well_formed(deal: DealSpec) -> bool:
    """True iff the deal digraph is strongly connected (no free riders)."""
    graph = build_digraph(deal)
    verts = graph.vertices
    if len(verts) <= 1:
        return True
    fwd: Dict[str, set] = {v: set() for v in verts}
    rev: Dict[str, set] = {v: set() for v in verts}
    for a, b in graph.arcs:
        fwd[a].add(b)
        rev[b].add(a)

    def reach(adj, start):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    root = verts[0]
    return len(reach(fwd, root)) == len(verts) and len(reach(rev, root)) == len(verts)


def is_acceptable(party: str, payoff: Payoff, deal: DealSpec) -> bool:
    """True iff the payoff dominates some payoff in the party's base set."""
    return any(payoff.dominates(base) for base in deal.acceptable_base(party))


def payoff_of_run(trace, party: str) -> Payoff:
    """Net payoff extracted from a terminated run trace.

    Incoming is what the party owns at the end but not at the start;
    outgoing the reverse.  Raises if any escrow is still unresolved.
    """
    if not trace.all_resolved:
        raise DealError("payoff undefined: run has unresolved escrows")
    return wallet_delta_payoff(trace, party)


def wallet_delta_payoff(trace, party: str) -> Payoff:
    """Payoff as the raw start-to-end wallet difference (no termination check).

    Assets still locked in an unresolved escrow count as relinquished;
    checkers use this when only a deviating party's own escrow is stuck.
    """
    start = trace.initial_wallets
    end = trace.terminal_wallets
    inc: Dict[Tuple[str, str], int] = {}
    out: Dict[Tuple[str, str], int] = {}
    gained_tokens = []
    lost_tokens = []
    chains = sorted(set(start) | set(end))
    for chain in chains:
        s = start.get(chain, {"fungible": {}, "tokens": {}})
        e = end.get(chain, {"fungible": {}, "tokens": {}})
        kinds = set(s["fungible"].get(party, {})) | set(e["fungible"].get(party, {}))
        for kind in kinds:
            delta = e["fungible"].get(party, {}).get(kind, 0) - s["fungible"].get(party, {}).get(kind, 0)
            if delta > 0:
                inc[(chain, kind)] = delta
            elif delta < 0:
                out[(chain, kind)] = -delta
        before = {t for t, owner in s["tokens"].items() if owner == party}
        after = {t for t, owner in e["tokens"].items() if owner == party}
        gained_tokens += [(chain, t) for t in after - before]
        lost_tokens += [(chain, t) for t in before - after]
    return Payoff(AssetBundle(inc, gained_tokens), AssetBundle(out, lost_tokens))

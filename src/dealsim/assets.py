"""Asset bundles and payoff values.

Assets live on named chains.  A bundle mixes fungible amounts, keyed by
(chain, kind), with non-fungible tokens, keyed by (chain, token id).
Bundles are normalized: zero amounts are dropped and a token appears at
most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

FungibleKey = Tuple[str, str]  # (chain id, asset kind)
TokenKey = Tuple[str, str]     # (chain id, token id)


class AssetError(ValueError):
    """Malformed bundle or impossible asset arithmetic."""


def _checked_key(chain, name) -> Tuple[str, str]:
    """(chain, name), once both are known to be strings."""
    if not isinstance(chain, str) or not isinstance(name, str):
        raise AssetError(f"chain, kind and token ids must be strings, got {[chain, name]!r}")
    return chain, name


def _checked_amount(key: FungibleKey, amount) -> int:
    """`amount`, once it is known to be a non-negative integer."""
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise AssetError(f"amount for {key!r} must be an integer")
    if amount < 0:
        raise AssetError(f"negative amount for {key!r}")
    return amount


class AssetBundle:
    """Immutable collection of fungible amounts and tokens."""

    __slots__ = ("fungible", "tokens")

    def __init__(
        self,
        fungible: Mapping[FungibleKey, int] | None = None,
        tokens: Iterable[TokenKey] = (),
    ):
        fun: Dict[FungibleKey, int] = {}
        for key, amount in dict(fungible or {}).items():
            chain, kind = key
            if _checked_amount(key, amount):
                fun[(chain, kind)] = amount
        toks = set()
        for chain, token in tokens:
            key = (chain, token)
            if key in toks:
                raise AssetError(f"token {key!r} listed twice")
            toks.add(key)
        object.__setattr__(self, "fungible", fun)
        object.__setattr__(self, "tokens", frozenset(toks))

    def __setattr__(self, name, value):
        raise AttributeError("AssetBundle is immutable")

    # Immutable, so a copy may share the original.
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def coins(cls, chain: str, kind: str, amount: int) -> "AssetBundle":
        return cls({(chain, kind): amount})

    @classmethod
    def token(cls, chain: str, token_id: str) -> "AssetBundle":
        return cls(tokens=[(chain, token_id)])

    @classmethod
    def empty(cls) -> "AssetBundle":
        return _EMPTY

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.fungible and not self.tokens

    def amount(self, chain: str, kind: str) -> int:
        return self.fungible.get((chain, kind), 0)

    def covers(self, other: "AssetBundle") -> bool:
        """True if this bundle contains at least everything in `other`."""
        if not other.tokens <= self.tokens:
            return False
        return all(self.fungible.get(k, 0) >= v for k, v in other.fungible.items())

    def chains(self) -> frozenset:
        return frozenset(c for c, _ in self.fungible) | frozenset(c for c, _ in self.tokens)

    def restrict(self, chain: str) -> "AssetBundle":
        """The sub-bundle living on one chain."""
        return AssetBundle(
            {k: v for k, v in self.fungible.items() if k[0] == chain},
            [t for t in self.tokens if t[0] == chain],
        )

    # -- arithmetic --------------------------------------------------------

    def plus(self, other: "AssetBundle") -> "AssetBundle":
        fun = dict(self.fungible)
        for k, v in other.fungible.items():
            fun[k] = fun.get(k, 0) + v
        if self.tokens & other.tokens:
            raise AssetError("token collision in bundle union")
        return AssetBundle(fun, self.tokens | other.tokens)

    def minus(self, other: "AssetBundle") -> "AssetBundle":
        if not self.covers(other):
            raise AssetError("bundle subtraction would go negative")
        fun = dict(self.fungible)
        for k, v in other.fungible.items():
            fun[k] = fun[k] - v
        return AssetBundle(fun, self.tokens - other.tokens)

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> tuple:
        return (
            tuple(sorted(self.fungible.items())),
            tuple(sorted(self.tokens)),
        )

    def to_json(self) -> dict:
        return {
            "fungible": [[c, k, v] for (c, k), v in sorted(self.fungible.items())],
            "tokens": [[c, t] for c, t in sorted(self.tokens)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AssetBundle":
        """The bundle a `to_json()` describes; repeats of a (chain, kind) add up."""
        fungible: Dict[FungibleKey, int] = {}
        for c, k, v in data.get("fungible", []):
            key = _checked_key(c, k)
            # Each amount is checked on its own before the sum.
            fungible[key] = fungible.get(key, 0) + _checked_amount(key, v)
        return cls(fungible, [_checked_key(c, t) for c, t in data.get("tokens", [])])

    def __eq__(self, other):
        return isinstance(other, AssetBundle) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        parts = [f"{c}:{k}={v}" for (c, k), v in sorted(self.fungible.items())]
        parts += [f"{c}:{t}" for c, t in sorted(self.tokens)]
        return "AssetBundle(" + ", ".join(parts) + ")"


_EMPTY = AssetBundle()


@dataclass(frozen=True)
class Payoff:
    """Net incoming and outgoing assets a party experiences in a run."""

    incoming: AssetBundle
    outgoing: AssetBundle

    def dominates(self, base: "Payoff") -> bool:
        """More (or equal) in, less (or equal) out than `base`."""
        return self.incoming.covers(base.incoming) and base.outgoing.covers(self.outgoing)

    def to_json(self) -> dict:
        return {"incoming": self.incoming.to_json(), "outgoing": self.outgoing.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "Payoff":
        return cls(AssetBundle.from_json(data["incoming"]), AssetBundle.from_json(data["outgoing"]))


NOTHING = Payoff(AssetBundle.empty(), AssetBundle.empty())


def net_payoff(gross_in: AssetBundle, gross_out: AssetBundle) -> Payoff:
    """Cancel flows of identical fungible assets; tokens that pass through cancel too."""
    inc: Dict[FungibleKey, int] = {}
    out: Dict[FungibleKey, int] = {}
    for key in set(gross_in.fungible) | set(gross_out.fungible):
        delta = gross_in.fungible.get(key, 0) - gross_out.fungible.get(key, 0)
        if delta > 0:
            inc[key] = delta
        elif delta < 0:
            out[key] = -delta
    return Payoff(
        AssetBundle(inc, gross_in.tokens - gross_out.tokens),
        AssetBundle(out, gross_out.tokens - gross_in.tokens),
    )

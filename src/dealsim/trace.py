"""Run traces: the ordered event log of one simulation and its encodings.

The line export is the stable diff format: one tab-separated line per
event with fields (tick, where, kind, payload digest, status).  The JSON
form additionally embeds full payloads, wallet snapshots, and the
scenario, which is what replay consumes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .deals import DealSpec


# v2: judged commit and settle calls record `info["verifications"]`.
TRACE_FORMAT = "dealsim-trace-v2"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


@dataclass(slots=True)
class TraceEvent:
    tick: int
    where: str      # chain id or party id
    kind: str       # publish | notify | wake
    status: str     # accepted | rejected | info
    payload: dict = field(default_factory=dict)
    seq: Optional[int] = None     # ledger sequence for publish events
    publisher: Optional[str] = None
    reason: Optional[str] = None
    info: dict = field(default_factory=dict)

    def export_line(self) -> str:
        status = self.status if not self.reason else f"{self.status}({self.reason})"
        return "\t".join(
            [str(self.tick), self.where, self.kind, payload_digest(self.payload), status]
        )

    def to_json(self) -> dict:
        out = {
            "tick": self.tick,
            "where": self.where,
            "kind": self.kind,
            "status": self.status,
            "payload": self.payload,
        }
        if self.seq is not None:
            out["seq"] = self.seq
        if self.publisher is not None:
            out["publisher"] = self.publisher
        if self.reason is not None:
            out["reason"] = self.reason
        if self.info:
            out["info"] = self.info
        return out

    @classmethod
    def from_json(cls, data: dict) -> "TraceEvent":
        if type(data["tick"]) is not int:
            raise TypeError(f"event tick {data['tick']!r} is not an integer")
        # join() raises TypeError unless every name is a string.
        "".join((data["where"], data["kind"], data["status"], data.get("publisher", "")))
        return cls(
            tick=data["tick"],
            where=data["where"],
            kind=data["kind"],
            status=data["status"],
            payload=data.get("payload", {}),
            seq=data.get("seq"),
            publisher=data.get("publisher"),
            reason=data.get("reason"),
            info=data.get("info", {}),
        )


@dataclass
class RunTrace:
    """Everything one run produced, in deterministic order.

    `deal` is the `DealSpec` the checkers judge the run by: a live trace
    holds its world's, and `from_json` parses the embedded
    `scenario["deal"]`.  The JSON form leaves it out, since the scenario
    already embeds the deal's JSON.  Each judged contract call records
    the signature verifications its ruling performed as
    `info["verifications"]`, which is what the gas meter charges.
    """

    scenario: dict
    seed: int
    events: List[TraceEvent]
    initial_wallets: Dict[str, dict]    # chain -> {"fungible": {party: {kind: amt}}, "tokens": {token: owner}}
    terminal_wallets: Dict[str, dict]
    resolutions: Dict[str, Tuple[str, Optional[int]]]  # "chain/escrower" -> (resolution, tick)
    deal: DealSpec = field(compare=False, repr=False)
    metadata: dict = field(default_factory=dict)

    @property
    def all_resolved(self) -> bool:
        return all(res != "active" for res, _ in self.resolutions.values())

    @property
    def unresolved(self) -> List[str]:
        """The lots still active at the run's end, in `resolutions` order."""
        return [k for k, (res, _) in self.resolutions.items() if res == "active"]

    def publishes(self, chain: Optional[str] = None) -> List[TraceEvent]:
        return [
            e
            for e in self.events
            if e.kind == "publish" and (chain is None or e.where == chain)
        ]

    def export_lines(self) -> List[str]:
        return [e.export_line() for e in self.events]

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.export_lines()).encode()).hexdigest()

    def to_json(self) -> dict:
        return {
            "format": TRACE_FORMAT,
            "scenario": self.scenario,
            "seed": self.seed,
            "events": [e.to_json() for e in self.events],
            "initial_wallets": self.initial_wallets,
            "terminal_wallets": self.terminal_wallets,
            "resolutions": {k: list(v) for k, v in self.resolutions.items()},
            "metadata": self.metadata,
        }

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, data: dict) -> "RunTrace":
        if data.get("format") != TRACE_FORMAT:
            raise ValueError(f"not a {TRACE_FORMAT} trace file")
        try:
            deal = DealSpec.from_json(data["scenario"]["deal"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad scenario deal: {exc!r}") from exc
        if not isinstance(data.get("metadata", {}), dict):
            raise ValueError("malformed trace: metadata is not an object")
        try:
            return cls(
                scenario=data["scenario"],
                seed=data["seed"],
                events=[TraceEvent.from_json(e) for e in data["events"]],
                initial_wallets=data["initial_wallets"],
                terminal_wallets=data["terminal_wallets"],
                resolutions={k: (v[0], v[1]) for k, v in data["resolutions"].items()},
                metadata=data.get("metadata", {}),
                deal=deal,
            )
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed trace: {exc!r}") from exc

    @classmethod
    def load(cls, path: str) -> "RunTrace":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

"""Gas and delay accounting over run traces.

Costs are dominated by two operations: long-lived storage writes and
signature verifications.  Metering is a pure fold over the trace's
published entries, and `CHARGES` is the whole write model: each op's
phase, its writes per accepted call, and whether a rejected call is still
charged.  A call that finalizes a lot pays `FINALIZE_WRITES` more, and any
other accepted entry on the certified log is one bookkeeping write
(`LOG_ENTRY`).

Verifications are not recomputed here.  Every vote or settle call the
escrow contract judges, accepted or rejected, records the signature
verifications its ruling made, in on-chain order up to any failing check,
as `info["verifications"]` (see `timelock.judge_vote` and
`cbc.verify_certificate`), and the meter charges that count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import eq, le
from typing import Dict, Iterable, List

from .cbc import CBC_CHAIN

FINALIZE_WRITES = 2  # outcome + ownership update
PHASES = ("escrow", "transfer", "commit")


@dataclass(frozen=True)
class Charge:
    """How the meter charges one op: the phase it counts in, its storage
    writes per accepted call, and whether a rejected call still counts
    (with the verifications its ruling made)."""

    phase: str
    writes: int
    rejected: bool = False


CHARGES = {
    "escrow": Charge("escrow", 4),
    "transfer": Charge("transfer", 2),
    "commit": Charge("commit", 1, rejected=True),  # a vote an escrow contract judges
    "timeout": Charge("commit", 0),
    "settle": Charge("commit", 0, rejected=True),
}
# The certified log's startDeal / commit / abort bookkeeping, and any op
# the table does not name there.
LOG_ENTRY = Charge("commit", 1)
LOG_CHARGES = {**CHARGES, "commit": LOG_ENTRY}
VOTE_OPS = ("commit", "abort")  # the earliest accepted one starts a CBC commit phase


@dataclass(frozen=True)
class GasSchedule:
    storage_write: int = 5000
    signature_verification: int = 3000

    def gas(self, writes: int, verifications: int) -> int:
        return writes * self.storage_write + verifications * self.signature_verification


@dataclass
class PhaseCost:
    writes: int = 0
    verifications: int = 0
    calls: int = 0

    def charge(self, writes: int, verifications: int):
        """Count one charged call."""
        self.writes += writes
        self.verifications += verifications
        self.calls += 1


@dataclass
class CostReport:
    protocol: str
    params: Dict[str, int]                  # n, m, t, k, f, delta, reconfigurations
    phases: Dict[str, PhaseCost]
    per_contract: Dict[str, PhaseCost]      # chain id -> totals
    durations: Dict[str, int]               # phase -> ticks
    schedule: GasSchedule

    @property
    def escrow_calls(self) -> int:
        return self.phases["escrow"].calls

    def total(self, field_name: str) -> int:
        return sum(getattr(pc, field_name) for pc in self.phases.values())

    def gas_total(self) -> int:
        return self.schedule.gas(self.total("writes"), self.total("verifications"))

    def phase_gas(self, phase: str) -> int:
        pc = self.phases[phase]
        return self.schedule.gas(pc.writes, pc.verifications)

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "params": dict(self.params),
            "phases": {
                name: {**asdict(pc), "gas": self.phase_gas(name)}
                for name, pc in self.phases.items()
            },
            "per_contract": {
                chain: {"writes": pc.writes, "verifications": pc.verifications}
                for chain, pc in sorted(self.per_contract.items())
            },
            "durations": dict(self.durations),
            "gas_total": self.gas_total(),
            "schedule": asdict(self.schedule),
        }


def meter(trace, schedule: GasSchedule = GasSchedule()) -> CostReport:
    """Fold gas charges and phase durations out of a complete trace."""
    scenario = trace.scenario
    deal = trace.deal
    phases = {name: PhaseCost() for name in PHASES}
    per_contract: Dict[str, PhaseCost] = {}
    transfers_per_lot: Dict[str, int] = {}
    spans: Dict[str, List[int]] = {name: [] for name in PHASES}
    vote_ticks: List[int] = []

    for event in trace.events:
        if event.kind != "publish":
            continue
        contract = per_contract.setdefault(event.where, PhaseCost())
        op = event.payload.get("op")
        if event.where == CBC_CHAIN:
            rule = LOG_CHARGES.get(op, LOG_ENTRY)
        else:
            rule = CHARGES.get(op)
        if rule is None:
            continue
        spans[rule.phase].append(event.tick)
        accepted = event.status == "accepted"
        if not (accepted or rule.rejected):
            continue
        writes = 0
        if accepted:
            writes = rule.writes + (FINALIZE_WRITES if event.info.get("finalized") else 0)
            if op == "transfer":
                lot = f"{event.where}/{event.payload['lot']}"
                transfers_per_lot[lot] = transfers_per_lot.get(lot, 0) + 1
            elif op in VOTE_OPS:
                vote_ticks.append(event.tick)
        verifications = event.info.get("verifications", 0)
        phases[rule.phase].charge(writes, verifications)
        contract.charge(writes, verifications)

    durations = {name: (max(ticks) - min(ticks)) if ticks else 0 for name, ticks in spans.items()}
    # Commit time runs from t0, or under CBC from the first vote on the log.
    start = min(vote_ticks) if scenario["protocol"] == "cbc" and vote_ticks else deal.t0
    resolved = [t for _, t in trace.resolutions.values() if t is not None]
    durations["commit"] = max(0, max(resolved, default=start) - start)

    cbc = scenario.get("cbc", {})
    params = {
        "n": len(deal.parties),
        "m": len(trace.resolutions),
        "t": phases["transfer"].calls,
        "k": max(transfers_per_lot.values(), default=0),
        "f": cbc.get("f", 0),
        "delta": deal.delta,
        "reconfigurations": cbc.get("reconfigurations", 0),
        "synchronous": 1 if scenario["network"]["mode"] == "synchronous" else 0,
    }
    return CostReport(scenario["protocol"], params, phases, per_contract, durations, schedule)


@dataclass
class BoundVerdict:
    name: str
    ok: bool
    measured: int
    bound: int

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "measured": self.measured, "bound": self.bound}


def check_asymptotics(report: CostReport) -> List[BoundVerdict]:
    """Measured totals against the closed-form per-protocol bounds.

    Delay bounds describe synchronous communication; semi-synchronous runs
    get gas verdicts only.
    """
    p = report.params
    n, m, k, f, delta = p["n"], p["m"], p["k"], p["f"], p["delta"]
    verifications, spent = report.total("verifications"), report.durations
    # name, measured, bound, relation, whether it bounds a delay
    if report.protocol in ("timelock", "naive"):
        rows = [
            ("sig-verifications <= m*n^2", verifications, m * n * n, le, False),
            ("commit duration <= n*delta", spent["commit"], n * delta, le, True),
        ]
    else:
        quorums = m * (p["reconfigurations"] + 1) * (f + 1)
        rows = [
            ("sig-verifications <= m*(k_r+1)*(f+1)", verifications, quorums, le, False),
            ("commit duration <= 3*delta", spent["commit"], 3 * delta, le, True),
        ]
    # One accepted escrow opens each lot: a controller escrows once per chain,
    # and `PartyContext.publish` refuses an escrow after it finished escrowing.
    rows += [
        ("escrow calls == m", report.escrow_calls, m, eq, False),
        ("escrow duration <= delta", spent["escrow"], delta, le, True),
        ("transfer duration <= k*delta", spent["transfer"], max(k, 1) * delta, le, True),
    ]
    return [
        BoundVerdict(name, relation(measured, bound), measured, bound)
        for name, measured, bound, relation, delay in rows
        if p["synchronous"] or not delay
    ]


def render_text(costs: dict, bounds: Iterable[dict] = ()) -> str:
    """Aligned text table of a cost report and its bound verdicts, both in
    JSON form (`CostReport.to_json()`, `BoundVerdict.to_json()`)."""
    schedule = costs["schedule"]
    header = f"{'phase':<10} {'writes':>7} {'sig.ver':>8} {'gas':>10} {'ticks':>6}"
    lines = [
        f"gas model: write={schedule['storage_write']} sigver={schedule['signature_verification']}",
        header,
        "-" * len(header),
    ]
    for name, pc in costs["phases"].items():
        lines.append(
            f"{name:<10} {pc['writes']:>7} {pc['verifications']:>8} {pc['gas']:>10}"
            f" {costs['durations'][name]:>6}"
        )
    writes, verifications = (sum(pc[key] for pc in costs["phases"].values())
                             for key in ("writes", "verifications"))
    lines.append(f"{'total':<10} {writes:>7} {verifications:>8} {costs['gas_total']:>10}")
    lines.append("params: " + " ".join(f"{key}={costs['params'][key]}" for key in "nmtkf"))
    for verdict in bounds:
        flag = "ok" if verdict["ok"] else "VIOLATED"
        lines.append(f"bound {verdict['name']}: {verdict['measured']} vs {verdict['bound']} [{flag}]")
    return "\n".join(lines)

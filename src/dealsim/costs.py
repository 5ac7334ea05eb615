"""Gas and delay accounting over run traces.

Costs are dominated by two operations: long-lived storage writes and
signature verifications.  Metering is a pure fold over the trace's
published entries.  Writes are charged by constant:

    escrow call            4 writes
    tentative transfer     2 writes
    accepted vote          1 write
    lot finalization       2 writes (outcome + ownership update)
    shared-ledger entry    1 write (startDeal / commit / abort bookkeeping)

Verifications are not recomputed here.  Every vote or settle call the
escrow contract judges, accepted or rejected, records its ruling's
signature-verification count as `info["verifications"]`, and the meter
charges that count: |path| for an accepted vote, f+1 per reconfiguration
hop plus f+1 for the certificate on an accepted settle, and on a rejected
call only the checks made before the failing one, in on-chain
require-order (so a settle whose hop verifies but whose certificate's
first signature is bad costs f+1 + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .cbc import CBC_CHAIN

FINALIZE_WRITES = 2
PHASES = ("escrow", "transfer", "commit")


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

    def add(self, writes=0, verifications=0, calls=0):
        self.writes += writes
        self.verifications += verifications
        self.calls += calls


@dataclass
class CostReport:
    protocol: str
    params: Dict[str, int]                  # n, m, t, k, f, delta, reconfigurations
    phases: Dict[str, PhaseCost]
    per_contract: Dict[str, PhaseCost]      # chain id -> totals
    durations: Dict[str, int]               # phase -> ticks
    schedule: GasSchedule
    escrow_calls: int = 0

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
                name: {
                    "writes": pc.writes,
                    "verifications": pc.verifications,
                    "calls": pc.calls,
                    "gas": self.phase_gas(name),
                }
                for name, pc in self.phases.items()
            },
            "per_contract": {
                chain: {"writes": pc.writes, "verifications": pc.verifications}
                for chain, pc in sorted(self.per_contract.items())
            },
            "durations": dict(self.durations),
            "gas_total": self.gas_total(),
            "schedule": {
                "storage_write": self.schedule.storage_write,
                "signature_verification": self.schedule.signature_verification,
            },
        }


def meter(trace, schedule: GasSchedule = GasSchedule()) -> CostReport:
    """Fold gas charges and phase durations out of a complete trace."""
    scenario = trace.scenario
    protocol = scenario["protocol"]
    deal = trace.deal
    f = scenario.get("cbc", {}).get("f", 0)
    phases = {name: PhaseCost() for name in PHASES}
    per_contract: Dict[str, PhaseCost] = {}
    escrow_calls = 0
    transfers = 0
    transfers_per_lot: Dict[str, int] = {}
    spans: Dict[str, List[int]] = {name: [] for name in PHASES}
    vote_ticks: List[int] = []

    def charge(phase: str, contract: PhaseCost, writes: int = 0, verifications: int = 0):
        """One call's cost, counted in its phase and on its contract."""
        phases[phase].add(writes, verifications, calls=1)
        contract.add(writes, verifications, calls=1)

    for event in trace.events:
        if event.kind != "publish":
            continue
        op = event.payload.get("op")
        accepted = event.status == "accepted"
        contract = per_contract.setdefault(event.where, PhaseCost())
        if op == "escrow":
            if accepted:
                escrow_calls += 1
                charge("escrow", contract, writes=4)
            spans["escrow"].append(event.tick)
        elif op == "transfer":
            if accepted:
                transfers += 1
                lot = f"{event.where}/{event.payload['lot']}"
                transfers_per_lot[lot] = transfers_per_lot.get(lot, 0) + 1
                charge("transfer", contract, writes=2)
            spans["transfer"].append(event.tick)
        elif op == "timeout":
            spans["commit"].append(event.tick)
            if accepted:
                charge("commit", contract, writes=FINALIZE_WRITES)
        elif op == "commit" and event.where != CBC_CHAIN:
            spans["commit"].append(event.tick)
            writes = 0
            if accepted:
                writes = 1 + (FINALIZE_WRITES if event.info.get("finalized") else 0)
                vote_ticks.append(event.tick)
            charge("commit", contract, writes, event.info.get("verifications", 0))
        elif op == "settle":
            spans["commit"].append(event.tick)
            writes = FINALIZE_WRITES if accepted else 0
            charge("commit", contract, writes, event.info.get("verifications", 0))
        elif event.where == CBC_CHAIN:
            spans["commit"].append(event.tick)
            if accepted:
                charge("commit", contract, writes=1)
                if op in ("commit", "abort"):
                    vote_ticks.append(event.tick)

    resolution_ticks = [t for res, t in trace.resolutions.values() if t is not None]
    durations = {}
    for name in ("escrow", "transfer"):
        ticks = spans[name]
        durations[name] = (max(ticks) - min(ticks)) if ticks else 0
    if resolution_ticks:
        if protocol in ("timelock", "naive"):
            start = deal.t0
        else:
            start = min(vote_ticks) if vote_ticks else deal.t0
        durations["commit"] = max(0, max(resolution_ticks) - start)
    else:
        durations["commit"] = 0

    lots = {key for key in trace.resolutions}
    params = {
        "n": len(deal.parties),
        "m": len(lots),
        "t": transfers,
        "k": max(transfers_per_lot.values(), default=0),
        "f": f,
        "delta": deal.delta,
        "reconfigurations": scenario.get("cbc", {}).get("reconfigurations", 0),
        "synchronous": 1 if scenario["network"]["mode"] == "synchronous" else 0,
    }
    return CostReport(protocol, params, phases, per_contract, durations, schedule, escrow_calls)


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
    n, m, t, k, f, delta = p["n"], p["m"], p["t"], p["k"], p["f"], p["delta"]
    synchronous = bool(p.get("synchronous", 1))
    verdicts = []
    total_ver = report.total("verifications")
    if report.protocol in ("timelock", "naive"):
        verdicts.append(BoundVerdict("sig-verifications <= m*n^2", total_ver <= m * n * n, total_ver, m * n * n))
        if synchronous:
            verdicts.append(
                BoundVerdict(
                    "commit duration <= n*delta",
                    report.durations["commit"] <= n * delta,
                    report.durations["commit"],
                    n * delta,
                )
            )
    else:
        reconf = p["reconfigurations"]
        bound = m * (reconf + 1) * (f + 1)
        verdicts.append(
            BoundVerdict("sig-verifications <= m*(k_r+1)*(f+1)", total_ver <= bound, total_ver, bound)
        )
        if synchronous:
            verdicts.append(
                BoundVerdict(
                    "commit duration <= 3*delta",
                    report.durations["commit"] <= 3 * delta,
                    report.durations["commit"],
                    3 * delta,
                )
            )
    escrow_writes = report.phases["escrow"].writes
    verdicts.append(
        BoundVerdict("escrow writes == 4*calls", escrow_writes == 4 * report.escrow_calls,
                     escrow_writes, 4 * report.escrow_calls)
    )
    transfer_writes = report.phases["transfer"].writes
    verdicts.append(
        BoundVerdict("transfer writes == 2*t", transfer_writes == 2 * t, transfer_writes, 2 * t)
    )
    if synchronous:
        verdicts.append(
            BoundVerdict(
                "escrow duration <= delta", report.durations["escrow"] <= delta,
                report.durations["escrow"], delta,
            )
        )
        verdicts.append(
            BoundVerdict(
                "transfer duration <= k*delta",
                report.durations["transfer"] <= max(k, 1) * delta,
                report.durations["transfer"],
                max(k, 1) * delta,
            )
        )
    return verdicts


def render_text(report: CostReport, bounds: Optional[List[BoundVerdict]] = None) -> str:
    """Aligned text table mirroring the analysis summary."""
    lines = []
    lines.append(f"gas model: write={report.schedule.storage_write} sigver={report.schedule.signature_verification}")
    header = f"{'phase':<10} {'writes':>7} {'sig.ver':>8} {'gas':>10} {'ticks':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for name in PHASES:
        pc = report.phases[name]
        lines.append(
            f"{name:<10} {pc.writes:>7} {pc.verifications:>8} {report.phase_gas(name):>10} {report.durations[name]:>6}"
        )
    lines.append(
        f"{'total':<10} {report.total('writes'):>7} {report.total('verifications'):>8} {report.gas_total():>10}"
    )
    lines.append(
        "params: "
        + " ".join(f"{key}={report.params[key]}" for key in ("n", "m", "t", "k", "f"))
    )
    if bounds:
        for verdict in bounds:
            flag = "ok" if verdict.ok else "VIOLATED"
            lines.append(f"bound {verdict.name}: {verdict.measured} vs {verdict.bound} [{flag}]")
    return "\n".join(lines)

"""Replay a recorded trace through fresh contract state machines.

Replay applies the trace's published entries, in order, to contracts
rebuilt from the embedded scenario.  Every entry must produce the status,
rejection reason and info the trace recorded; the initial and terminal
ownership, every escrow resolution and its tick, and the set of
compliant parties must match as well.  The first inconsistency is reported by record index
where it has one.  Verdicts and costs are then re-derived from the
replayed trace, so a faithful replay yields the original report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .costs import CostReport, GasSchedule, meter
from .properties import Verdict, run_verdicts
from .scenario import build_world
from .trace import RunTrace


class ReplayError(ValueError):
    """The trace is internally inconsistent; names the first bad record."""


@dataclass
class ReplayReport:
    trace: RunTrace
    verdicts: List[Verdict]
    costs: CostReport
    entries_checked: int


def replay_trace(trace: RunTrace, schedule: GasSchedule = GasSchedule()) -> ReplayReport:
    world = build_world(trace.scenario, seed=trace.seed).world
    if world.wallet_snapshots() != trace.initial_wallets:
        raise ReplayError("initial ownership does not match the scenario's wallets")
    checked = 0
    for index, event in enumerate(trace.events):
        if event.kind != "publish":
            continue
        chain = world.chains.get(event.where)
        if chain is None:
            raise ReplayError(f"record {index}: unknown chain {event.where!r}")
        if event.seq != len(chain.views):
            raise ReplayError(
                f"record {index}: sequence {event.seq} does not follow ledger order"
            )
        _, status, reason, info = chain.append(
            event.publisher, event.payload, event.tick, world.scheme
        )
        checked += 1
        if status != event.status:
            raise ReplayError(
                f"record {index}: recorded {event.status} but replay produced {status}"
                + (f" ({reason})" if reason else "")
            )
        if reason != event.reason:
            raise ReplayError(
                f"record {index}: recorded reason {event.reason!r} but replay produced {reason!r}"
            )
        if info != event.info:
            raise ReplayError(
                f"record {index}: recorded info {event.info!r} but replay produced {info!r}"
            )
    if world.wallet_snapshots() != trace.terminal_wallets:
        raise ReplayError("terminal ownership does not match the recorded snapshot")
    recorded = {k: tuple(v) for k, v in trace.resolutions.items()}
    if recorded != world.resolutions():
        raise ReplayError("escrow resolutions do not match the recorded trace")
    if trace.metadata.get("compliant") != sorted(world.compliant):
        raise ReplayError("compliant parties do not match the scenario's strategies")
    verdicts = run_verdicts(trace)
    costs = meter(trace, schedule)
    return ReplayReport(trace, verdicts, costs, checked)

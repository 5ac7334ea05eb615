"""Replay a recorded trace through fresh contract state machines.

Replay applies the trace's published entries, in order, to contracts
rebuilt from the embedded scenario and the trace's own parsed `deal`,
which is not parsed a second time.  The embedded scenario is validated
again, and its digest must match the recorded `scenario_digest`, so a
scenario edited after loading is still rejected.  Every entry must
produce the status, rejection reason and info the trace recorded; the
initial and terminal ownership, every escrow resolution and its tick,
and the metadata's `compliant` parties, `scenario_digest`, `unresolved`
and `liveness_failure` must match as well, and each wake and notify must
be one the world makes.  The metadata's `truncated` and `final_tick` are
not re-derived: they describe the event heap and clock of the recorded
run, which replay does not run.  The first inconsistency is reported by
record index where it has one.  Verdicts and costs are then re-derived
from the replayed trace, so a faithful replay yields the original report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .costs import CostReport, GasSchedule, meter
from .escrow import EscrowInvariantError
from .properties import Verdict, run_verdicts
from .scenario import assemble_world, prepare
from .trace import RunTrace


class ReplayError(ValueError):
    """The trace is internally inconsistent; names the first bad record."""


@dataclass
class ReplayReport:
    trace: RunTrace
    verdicts: List[Verdict]
    costs: CostReport


def replay_trace(trace: RunTrace, schedule: GasSchedule = GasSchedule()) -> ReplayReport:
    world = assemble_world(*prepare(trace.scenario, trace.deal), seed=trace.seed).world
    if world.wallet_snapshots() != trace.initial_wallets:
        raise ReplayError("initial ownership does not match the scenario's wallets")
    published = {}  # (chain, seq) -> (tick, monitors not yet notified) of each publish
    tick = 0
    for index, event in enumerate(trace.events):
        if event.tick < tick:
            raise ReplayError(f"record {index}: tick {event.tick} runs back from tick {tick}")
        tick = event.tick
        if event.kind != "publish":
            problem = _delivery_problem(event, world, published)
            if problem:
                raise ReplayError(f"record {index}: {problem}")
            continue
        chain = world.chains.get(event.where)
        if chain is None:
            raise ReplayError(f"record {index}: unknown chain {event.where!r}")
        if event.seq != len(chain.views):
            raise ReplayError(f"record {index}: sequence {event.seq} does not follow ledger order")
        try:
            _, status, reason, info = chain.append(event.publisher, event.payload, tick, world.scheme)
        except EscrowInvariantError:
            raise  # a broken lot invariant is a contract fault, not a bad record
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ReplayError(f"record {index}: malformed publish {event.payload!r}: {exc}") from exc
        due = set(world.monitors[event.where]) - {event.publisher}
        published[event.where, event.seq] = (tick, due)
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
    resolutions = world.resolutions()
    if recorded != resolutions:
        raise ReplayError("escrow resolutions do not match the recorded trace")
    derived = world.metadata(resolutions)
    for name in ("compliant", "scenario_digest", "unresolved", "liveness_failure"):
        if trace.metadata.get(name) != derived[name]:
            raise ReplayError(
                f"recorded {name} {trace.metadata.get(name)!r} but replay derived {derived[name]!r}"
            )
    verdicts = run_verdicts(trace)
    costs = meter(trace, schedule)
    return ReplayReport(trace, verdicts, costs)


def _delivery_problem(event, world, published: dict) -> Optional[str]:
    """What a wake or notify record gets wrong, if anything: the world wakes
    a party with a tag, and notifies each monitor of an earlier publish but
    its publisher once, later than the publish."""
    party, payload = event.where, event.payload
    if event.kind not in ("wake", "notify"):
        return f"unknown event kind {event.kind!r}"
    ledger_fields = (event.status, event.seq, event.publisher, event.reason, event.info)
    if not isinstance(payload, dict) or ledger_fields != ("info", None, None, None, {}):
        return f"malformed {event.kind} {event.to_json()}"
    if event.kind == "wake":
        if party not in world.controllers:
            return f"wake for {party!r}, who is not a party"
        if payload.keys() != {"tag"} or type(payload["tag"]) is not str:
            return f"malformed wake {event.to_json()}"
        return None
    try:
        publish_tick, due = published[payload["chain"], payload["seq"]]
    except (KeyError, TypeError):
        return f"notify {payload!r} names no earlier publish"
    if len(payload) != 2:
        return f"malformed notify {event.to_json()}"
    if party not in due:
        return f"{party!r} is not due a notify of {payload['chain']} entry {payload['seq']}"
    if event.tick <= publish_tick:
        return f"notify at tick {event.tick} of an entry published at {publish_tick}"
    due.remove(party)
    return None

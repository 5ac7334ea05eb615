"""Simulated chains and the deterministic event loop.

A world holds several independent chains, each an append-only ledger with
one resident contract, plus party controllers that react to delivered
notifications and timers.  A chain records its contract's immutable
`state`, balances included, after each entry, and that record is all
the state a chain has: parties read those views, a trace's wallets are
the balances of each chain's initial and final view, and rewinding a
chain hands its contract the view it recorded.  All scheduling randomness flows
through a single choice source, so a (scenario, seed) pair fixes the
entire run; swapping in a tape-driven choice source turns the same
machinery into an exhaustive explorer, and `World.snapshot`/`World.restore`
let it resume a run instead of re-running the events before it.  A publish queues its
notifies, and a send phase at the end of the event draws their delivery
latencies.  So a run resumes at one of two boundaries: the start of an
event, where a choosing controller (`Explored`) branches, or a send
phase, where a latency branches without re-running the event's
controller work.  Once the world is quiescent (`World.quiescent`), no
choice can change any lot's resolution, its tick, or a wallet, and the
explorer stops branching.  A run keys each boundary it reaches: by its
state key, or, at its first quiescent boundary, by the contract states
and late refunds.  A key is a flat tuple of small ints: each component
(the pending events, a chain's or a party's entry, a CBC world's judged
past) is interned once, when it is made, in the world's `component_ids`
table (collapse compression, as in SPIN), so keys share their components
instead of copying them.  A run that reaches a boundary some earlier run
went on from stops there (`KnownContinuation`), untraced: the explorer
has already judged that state.
"""

from __future__ import annotations

import bisect
import heapq
import random
from typing import Dict, List, Optional, Tuple

from .cbc import CBC_CHAIN
from .crypto import SignatureScheme
from .deals import DealSpec
from .timelock import refund_deadline
from .properties import judged_past
from .trace import RunTrace, TraceEvent, canonical_json, payload_digest

TIMER_SENDER = "@timer"


class SeededChoices:
    """Uniform choices from a seeded generator; the default scheduler."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def event_start(self, world):
        pass

    def send_phase(self, world):
        pass

    def pick(self, label: tuple, options: list, world=None):
        if len(options) == 1:
            return options[0]
        return options[self.rng.randrange(len(options))]


class KnownContinuation(Exception):
    """Stops a `TapeChoices` run that reaches a visited boundary past its
    tape.  Its arg is the boundary's key: a state key, or a quiescent key.
    See `TapeChoices`."""


class TapeChoices:
    """Replays a recorded choice prefix, then takes first options.

    A run has a boundary where a fresh pick (beyond the tape) can happen:
    the start of an event delivered to a controller that chooses, and a
    send phase whose latency picks go past the tape.  Each new boundary is
    snapshotted and keyed at once with `World.state_key`; the state fixes
    the rest of the run, so the key is exact.  A run resumed at a restored
    boundary (`resume_at`) reuses that boundary's snapshot and key.  Every
    pick is logged with its option count and, at fresh branch points, its
    boundary's key with the choices made since, and the boundary the
    exhaustive explorer resumes the branch from.  Once the world is
    quiescent, no choice can change any lot's resolution, its tick, or a
    wallet, so there is no snapshot and no branch point: the run finishes
    on first options.  Its first quiescent boundary is keyed by the id of
    each chain's contract state key, which fixes every final resolution,
    its tick and every balance, with that of `World.late_refunds`: a
    doomed lot refunds at its deadline plus the chain's skew, or, if it
    opened after that deadline, at once, a tick no contract state holds.
    The ids come from the world's `component_ids`, so keys compare only
    within one world's table.

    `known` maps visited boundary keys to the picks the run that went on
    from each made before quiescence, from that boundary on (0 for a
    quiescent key).  A run past its tape that reaches a known key stops
    there and raises `KnownContinuation`, with its depth set to its picks
    so far plus the key's count.  Stopping is exact, since the run that
    added the key took first options from it, so every later boundary of
    that run has a known key too.  `keys` lists each boundary the run
    reached past its tape unvisited, with its picks so far, for the
    explorer to add once the run ends.
    """

    def __init__(self, tape: List[int], known=()):
        self.tape = list(tape)
        self.pos = 0
        self.known = known
        # (label, n_options, chosen, (boundary key, choices since) | None, boundary | None)
        self.log: List[tuple] = []
        self.depth = 0  # picks made before the run was found quiescent
        self.keys: List[tuple] = []  # (boundary key, depth there)
        self._start: Optional[tuple] = None  # (len(log) there, its snapshot, its state key)
        self._resume: Optional[tuple] = None  # (restored snapshot, its state key)
        self._quiescent = False  # a run never leaves quiescence

    def resume_at(self, snap: tuple, state_key: tuple):
        """Make the run's first boundary, before its first pick, the
        non-quiescent one `snap` was taken at, whose state key is given."""
        self._resume = snap, state_key

    def event_start(self, world):
        if world.next_chooses():
            self._boundary(world)

    def send_phase(self, world):
        if self.pos + len(world._sends) > len(self.tape):
            self._boundary(world)

    def _boundary(self, world):
        if self._quiescent:
            return
        if self._resume is not None and not self.log:
            self._start = (0, *self._resume)
            return
        if world.quiescent():
            self._quiescent = True
            # Tagged: a state key starts with a tick.
            ids = world.component_ids
            contracts = (chain.snapshot(ids)[1] for chain in world.chains.values())
            key = ("quiescent", *contracts, intern(ids, world.late_refunds()))
        else:
            snap = world.snapshot()
            key = world.state_key(snap)
            self._start = (len(self.log), snap, key)
        if self.pos >= len(self.tape):
            if key in self.known:
                self.depth += self.known[key]
                raise KnownContinuation(key)
            self.keys.append((key, self.depth))

    def pick(self, label: tuple, options: list, world=None):
        n = len(options)
        replaying = self.pos < len(self.tape)
        chosen = self.tape[self.pos] if replaying else 0
        if chosen >= n:
            raise IndexError(f"tape choice {chosen} out of range for {label} ({n} options)")
        key = start = None
        if not self._quiescent:
            if n > 1 and not replaying:
                start = self._start
                key = (start[2], tuple(entry[2] for entry in self.log[start[0]:]))
            self.depth += 1
        self.log.append((label, n, chosen, key, start))
        self.pos += 1
        return options[chosen]

    def chosen_prefix(self, upto: int) -> List[int]:
        return [entry[2] for entry in self.log[:upto]]


def intern(ids: dict, component) -> int:
    """`component`'s id in the table `ids`: its insertion index, so two
    components of one table share an id exactly when they are equal."""
    return ids.setdefault(component, len(ids))


def wallets_json(view: dict) -> dict:
    """The balances a contract view records, in a trace's form: sorted,
    without emptied parties, and sharing nothing with the view."""
    fungible, tokens = view["wallets"]["fungible"], view["wallets"]["tokens"]
    return {
        "fungible": {p: dict(kinds) for p, kinds in sorted(fungible.items()) if kinds},
        "tokens": dict(sorted(tokens.items())),
    }


class Chain:
    """One ledger: totally ordered entries applied to a resident contract,
    whose state after each entry, balances included, is the whole record."""

    def __init__(self, contract, skew: int = 0):
        self.contract = contract
        self.skew = skew
        self.views: List[dict] = []  # contract state after each entry, the ledger's record
        self._initial_view = contract.state
        self._snapshot: Optional[tuple] = None

    def view_at(self, frontier: int) -> dict:
        """Contract state as of entry `frontier` (-1 for the initial state)."""
        if frontier < 0 or not self.views:
            return self._initial_view
        return self.views[min(frontier, len(self.views) - 1)]

    def append(
        self, publisher: str, payload: dict, tick: int, scheme: SignatureScheme
    ) -> Tuple[int, str, Optional[str], dict]:
        """Apply one entry published at `tick` and record the contract's
        state after it, shared, not copied; returns (seq, status, reason, info)."""
        self._snapshot = None
        seq = len(self.views)
        status, reason, info = self.contract.apply(payload, publisher, tick + self.skew, scheme)
        self.views.append(self.contract.state)
        return seq, status, reason, info

    def snapshot(self, ids: dict) -> tuple:
        """The chain's length, the id of its contract's state key, and the
        id of the two, each id from the table `ids` (see `intern`).

        A chain changes only by `append`, so one snapshot serves every
        event boundary and state key until the next entry, and its key is
        interned once.  The ids serve only the keys: the contract's state
        is the recorded view."""
        if self._snapshot is None:
            length = len(self.views)
            contract = intern(ids, self.contract.state_key())
            self._snapshot = (length, contract, intern(ids, (length, contract)))
        return self._snapshot

    def restore(self, snap: tuple):
        if snap is self._snapshot:
            return  # no entry since `snap` was taken or restored
        length = snap[0]
        del self.views[length:]
        self.contract.state = self.view_at(length - 1)
        self._snapshot = snap


class PartyContext:
    """The only surface a party controller may act through."""

    def __init__(self, world: "World", party: str):
        self._world = world
        self.me = party

    @property
    def now(self) -> int:
        return self._world.now

    @property
    def scheme(self):
        return self._world.scheme

    def view(self, chain_id: str) -> dict:
        world = self._world
        frontier = world.frontiers[self.me].get(chain_id, -1)
        return world.chains[chain_id].view_at(frontier)

    def publish(self, chain_id: str, payload: dict) -> Tuple[str, Optional[str], dict]:
        """Publish as this party.  A controller that has finished escrowing
        (`escrow_published`) may not escrow again: `World.quiescent` relies
        on it."""
        world = self._world
        if payload.get("op") == "escrow" and world.controllers[self.me].escrow_published:
            raise RuntimeError(f"{self.me} escrows again after it finished escrowing")
        return world.publish(chain_id, self.me, payload)

    def wake_at(self, tick: int, tag: str):
        self._world.schedule_wake(self.me, tick, tag)

    def choose(self, label: tuple, options: list):
        """Draw a strategy decision from the run's choice source.  The
        latencies of the event's earlier publishes are drawn first, so the
        draws keep publish order.  Only a controller that declares
        `chooses` may choose: the explorer snapshots its events alone."""
        world = self._world
        if not world.controllers[self.me].chooses:
            raise TypeError(f"{self.me}'s controller chooses but does not declare `chooses`")
        world._send()
        return world.choices.pick(label, options, world)

    def request_certificate(self, deal_id: str, h: str):
        log_state = self._world.chains[CBC_CHAIN].contract.state
        return self._world.validator_service.issue_certificate(log_state, deal_id, h)

    def corrupt_signatures(self, message: bytes):
        return self._world.validator_service.corrupt_signatures(message)

    def reconfig_chain(self):
        return self._world.validator_service.reconfig_chain()


class World:
    """One simulation run: chains, parties, clock, and the event heap."""

    def __init__(self, scenario: dict, deal: DealSpec, seed: int, choices=None):
        """`scenario` is checked (`scenario.validate_scenario`): its network
        and horizon are read as they are."""
        self.scenario = scenario
        self.deal = deal  # the parsed scenario["deal"], handed to each trace
        self.network = network = scenario["network"]
        self.horizon = scenario["horizon"]
        delta = network["delta"]
        self.sync_menu = network["latency_menu"] or list(range(1, delta + 1))
        self.pre_gst_menu = list(range(1, (network["pre_gst_cap"] or 4 * delta) + 1))
        self.seed = seed
        self.scenario_digest = payload_digest(scenario)
        self.choices = choices if choices is not None else SeededChoices(seed)
        self.now = 0
        self.chains: Dict[str, Chain] = {}
        self.controllers: Dict[str, object] = {}
        self.monitors: Dict[str, List[str]] = {}
        self.frontiers: Dict[str, Dict[str, int]] = {}
        self.trace_events: List[TraceEvent] = []
        self.compliant: set = set()
        self.validator_service = None
        # (due, seq, kind, data); `seq` counts pushes (a notify's is reserved at
        # its publish), so kind and data are never compared.
        self._heap: List[tuple] = []
        self._seq = 0
        # (reserved seq, monitor, chain, entry seq) of each notify the current
        # event's publishes owe; its send phase draws their latencies.
        self._sends: List[tuple] = []
        # party -> ((frontier items, controller snapshot), its id), valid
        # until the next event delivered to that party; see `snapshot`.
        self._party_snaps: Dict[str, tuple] = {}
        # Each key component -> its id (see `intern`); filled only by
        # `snapshot` and `state_key`, so it lives as long as an exploration.
        self.component_ids: Dict[object, int] = {}
        self.scheme = SignatureScheme.for_run(seed)

    # -- construction --------------------------------------------------------

    def add_chain(self, chain_id: str, contract, skew: int = 0) -> Chain:
        chain = Chain(contract, skew)
        self.chains[chain_id] = chain
        self.monitors[chain_id] = []
        return chain

    def add_party(self, party: str, controller, monitored: List[str]):
        self.controllers[party] = controller
        self.frontiers[party] = {c: -1 for c in sorted(self.chains)}
        for chain_id in monitored:
            if party not in self.monitors[chain_id]:
                self.monitors[chain_id].append(party)
        self.schedule_wake(party, 0, "start")

    # -- scheduling ----------------------------------------------------------

    def _push(self, due: int, kind: str, data: tuple):
        self._seq += 1
        heapq.heappush(self._heap, (due, self._seq, kind, data))

    def schedule_wake(self, party: str, tick: int, tag: str):
        self._push(max(tick, self.now), "wake", (party, tag))

    def _send(self):
        """Draw the queued notifies' latencies in publish order and push
        each with the counter its publish reserved."""
        sends, self._sends = self._sends, []
        for counter, monitor, chain_id, seq in sends:
            lat = self._latency(chain_id, seq, monitor, self.now)
            heapq.heappush(
                self._heap, (self.now + lat, counter, "notify", (monitor, chain_id, seq))
            )

    def quiescent(self) -> bool:
        """Whether no choice can change any lot's resolution, its tick, or a
        wallet, so that every continuation ends with the same resolutions
        and wallets.  Each chain's contract judges at its local tick.  Read
        afresh each call: a restore can undo it."""
        finished = {p for p, c in self.controllers.items() if c.escrow_published}
        return all(
            chain.contract.quiescent(finished, self.now + chain.skew)
            for chain in self.chains.values()
        )

    def next_chooses(self) -> bool:
        """Whether the next event goes to a controller that makes choices."""
        _, _, kind, data = self._heap[0]
        return kind != "timer" and self.controllers[data[0]].chooses

    def _latency(self, chain_id: str, seq: int, monitor: str, publish_tick: int) -> int:
        net = self.network
        if net["mode"] == "semi-synchronous" and publish_tick < net["gst"]:
            lat = self.choices.pick(("lat", chain_id, seq, monitor), self.pre_gst_menu, self)
            return min(publish_tick + lat, net["gst"] + net["delta"]) - publish_tick
        # Exploration knob, written only when given: before this tick, latency is
        # pinned to the menu's worst case instead of branching.
        explore_from = net.get("explore_from")
        if explore_from is not None and publish_tick < explore_from:
            return max(self.sync_menu)
        return self.choices.pick(("lat", chain_id, seq, monitor), self.sync_menu, self)

    # -- the ledger operation ------------------------------------------------

    def publish(self, chain_id: str, publisher: str, payload: dict) -> Tuple[str, Optional[str], dict]:
        chain = self.chains.get(chain_id)
        if chain is None:
            raise ValueError(f"unknown chain {chain_id!r}")
        seq, status, reason, info = chain.append(publisher, payload, self.now, self.scheme)
        self.trace_events.append(
            TraceEvent(
                tick=self.now,
                where=chain_id,
                kind="publish",
                status=status,
                payload=payload,
                seq=seq,
                publisher=publisher,
                reason=reason,
                info=info,
            )
        )
        if publisher in self.frontiers:
            self.frontiers[publisher][chain_id] = seq
        for monitor in self.monitors[chain_id]:
            if monitor != publisher:
                self._seq += 1
                self._sends.append((self._seq, monitor, chain_id, seq))
        # Only escrow contracts accept an escrow.  The one that opens a lot,
        # absent from the view before it, pushes the lot's refund timer.
        if status == "accepted" and payload.get("op") == "escrow":
            state, lot = chain.contract.state, info["lot"]
            opens = lot not in chain.view_at(seq - 1)["lots"]
            if opens and state["protocol"] in ("timelock", "naive"):
                due = refund_deadline(state["t0"], state["delta"], len(state["plist"]))
                self._push(due, "timer", (chain_id, lot))
        return status, reason, info

    # -- the loop --------------------------------------------------------------

    def run(self) -> RunTrace:
        """Process events until the heap drains or passes the horizon; a
        run that leaves events past the horizon is truncated.

        After `restore`, the run resumes from the restored event start or
        send phase; the trace still starts from each chain's initial view.
        """
        while True:
            # Each event ends with its send phase; a restored one runs first.
            if self._sends:
                self.choices.send_phase(self)
                self._send()
            if not self._heap or self._heap[0][0] > self.horizon:
                break
            self.choices.event_start(self)
            due, _, kind, data = heapq.heappop(self._heap)
            self.now = max(self.now, due)
            if kind == "wake":
                party, tag = data
                self._party_snaps.pop(party, None)
                self.trace_events.append(
                    TraceEvent(self.now, party, "wake", "info", {"tag": tag})
                )
                self.controllers[party].handle_wake(PartyContext(self, party), tag)
            elif kind == "notify":
                party, chain_id, seq = data
                self._party_snaps.pop(party, None)
                front = self.frontiers[party]
                front[chain_id] = max(front[chain_id], seq)
                self.trace_events.append(
                    TraceEvent(
                        self.now, party, "notify", "info", {"chain": chain_id, "seq": seq}
                    )
                )
                self.controllers[party].step(PartyContext(self, party))
            elif kind == "timer":
                chain_id, lot = data
                contract = self.chains[chain_id].contract
                if lot in contract.unresolved_lots():
                    self.publish(
                        chain_id,
                        TIMER_SENDER,
                        {"op": "timeout", "deal": contract.state["deal"], "lot": lot},
                    )
        return self._build_trace()

    def wallet_snapshots(self) -> Dict[str, dict]:
        """Each chain's balances now, in the trace's form."""
        return {cid: wallets_json(self.chains[cid].contract.state) for cid in sorted(self.chains)}

    def resolutions(self) -> Dict[str, Tuple[str, Optional[int]]]:
        """Every escrow lot's (resolution, tick), keyed "chain/escrower"."""
        out = {}
        for cid in sorted(self.chains):
            contract = self.chains[cid].contract
            if hasattr(contract, "resolutions"):
                for lot, res in contract.resolutions().items():
                    out[f"{cid}/{lot}"] = res
        return out

    def metadata(self, resolutions: Dict[str, tuple]) -> dict:
        """The run facts a trace records beside its events, given the run's
        `resolutions`; `truncated` and `final_tick` are read from the heap
        and the clock as they are now."""
        unresolved = [k for k, (res, _) in resolutions.items() if res == "active"]
        return {
            "scenario_digest": self.scenario_digest,
            "truncated": bool(self._heap),
            "unresolved": unresolved,
            "compliant": sorted(self.compliant),
            "liveness_failure": bool(
                unresolved
                and self.network["mode"] == "synchronous"
                and self.compliant == set(self.scenario.get("deal", {}).get("parties", []))
            ),
            "final_tick": self.now,
        }

    def _build_trace(self) -> RunTrace:
        resolutions = self.resolutions()
        return RunTrace(
            scenario=self.scenario,
            seed=self.seed,
            events=list(self.trace_events),
            initial_wallets={
                cid: wallets_json(self.chains[cid].view_at(-1)) for cid in sorted(self.chains)
            },
            terminal_wallets=self.wallet_snapshots(),
            resolutions=resolutions,
            metadata=self.metadata(resolutions),
            deal=self.deal,
        )

    # -- exploration support ----------------------------------------------------

    def state_key(self, snap: Optional[tuple] = None) -> tuple:
        """The key of a boundary snapshot (by default, one taken now):
        `(tick, pending id, *chain ids, *party ids, past id or None)`.

        At an event start: the tick its next event runs at, which is all the
        loop reads of its tick; its pending events in pop order without
        their push counter, since every later push outranks them all; its
        chain and party entries.  At a send phase the tick is `now`, each
        pending event also holds how many queued sends were published
        before it, and the pending events are interned with the sends in
        publish order: a notify pops before a pending event of the same due
        exactly when it was published first, so that count and the sends
        fix how ties pop under every latency.

        The state fixes the rest of the run, but a CBC run's judges also
        read two facts of its past that no state holds, so a world with a
        certified log adds them (`properties.judged_past`): the last accepted
        vote's tick and every certificate published so far.

        Each part but the tick is an id from `component_ids`.  The chain and
        party ids were interned when the snapshot built their entries, so
        only the pending events (and a CBC world's past) are hashed here.
        Two keys of one table are equal exactly when their components are.
        """
        now, heap, n_events, chains, parties, sends = snap or self.snapshot()
        ids = self.component_ids
        past = None
        if CBC_CHAIN in self.chains:
            past = intern(ids, canonical_json(judged_past(self.trace_events[:n_events])))
        pending = sorted(heap)
        if sends:
            counters = [send[0] for send in sends]
            pending = tuple(
                (due, kind, data, bisect.bisect(counters, seq)) for due, seq, kind, data in pending
            )
            tick, events = now, (pending, tuple(send[1:] for send in sends))
        else:
            tick = max(now, pending[0][0]) if pending else now
            events = tuple((due, kind, data) for due, _, kind, data in pending)
        return (
            tick,
            intern(ids, events),
            *(chain[2] for chain in chains),
            *(party[1] for party in parties),
            past,
        )

    def late_refunds(self) -> tuple:
        """`now` and the lots of the pending refund timers past due, which
        fire at `now` (a lot opened after its deadline has one); () if none."""
        late = sorted(data for due, _, kind, data in self._heap if kind == "timer" and due < self.now)
        return (self.now, tuple(late)) if late else ()

    def snapshot(self) -> tuple:
        """The tick, a heap copy, the trace length, each chain's and
        party's entry and the queued sends at an event start or a send
        phase, for `restore`.

        Chain and party entries are frozen values, each interned in
        `component_ids` when it is built and carrying its id for the state
        key.  Only the party an event is delivered to changes its controller
        or its frontier, so each party's entry serves every boundary until
        its next event, as a chain's snapshot does until its next entry.  A
        frontier never gains a chain after `add_party`, so its items keep
        one order.
        """
        ids = self.component_ids
        parties = self._party_snaps
        for party, controller in self.controllers.items():
            if party not in parties:
                entry = tuple(self.frontiers[party].items()), controller.snapshot()
                parties[party] = entry, intern(ids, entry)
        return (
            self.now,
            list(self._heap),
            len(self.trace_events),
            tuple(chain.snapshot(ids) for chain in self.chains.values()),
            tuple(parties[party] for party in self.controllers),
            tuple(self._sends),
        )

    def restore(self, snap: tuple):
        """Rewind to `snap`; the snapshot stays valid for further restores.
        The push count runs on, as every later push still outranks the
        restored events."""
        self.now, heap, n_events, chains, parties, sends = snap
        self._heap = list(heap)
        self._sends = list(sends)
        del self.trace_events[n_events:]
        for chain, chain_snap in zip(self.chains.values(), chains):
            chain.restore(chain_snap)
        cached = self._party_snaps
        for (party, controller), entry in zip(self.controllers.items(), parties):
            if cached.get(party) is entry:
                continue  # no event delivered to `party` since `entry`
            (frontier, controller_snap), _ = entry
            self.frontiers[party] = dict(frontier)
            controller.restore(controller_snap)
            cached[party] = entry

"""Per-layer tracing of dealsim from outside the package.

`Tracer` replaces the public entry points of each `dealsim` module (module
functions and class methods) with wrappers while it is active, and puts the
originals back when it exits.  Each wrapper records one span -- layer,
start, end and the enclosing span -- into flat in-memory arrays, and a few
wrappers also count outcomes (rejected publishes, replayed choice picks,
charged signature verifications).  Self time is computed after the run as a
span's duration minus the durations of its direct child spans.

Nothing here changes what the wrapped code computes: a wrapper calls the
original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

clock = time.perf_counter

MODULES = (
    "dealsim",
    "dealsim.adversary",
    "dealsim.cbc",
    "dealsim.cli",
    "dealsim.costs",
    "dealsim.crypto",
    "dealsim.escrow",
    "dealsim.ledger",
    "dealsim.parties",
    "dealsim.planning",
    "dealsim.properties",
    "dealsim.replay",
    "dealsim.scenario",
    "dealsim.timelock",
    "dealsim.trace",
)

ESCROW_OPS = ("escrow", "transfer", "commit", "timeout", "settle")

# Every layer the tracer reports, in output order.
LAYERS = (
    "scenario.validate",
    "planning.build_plan",
    "scenario.build_world",
    "ledger.run",
    "ledger.publish",
    "ledger.pick",
    "ledger.state_key",
    *(f"escrow.apply.{op}" for op in ESCROW_OPS),
    "cbc.apply",
    "timelock.judge_vote",
    "cbc.verify_certificate",
    "crypto.verify",
    "crypto.sign",
    "parties.step",
    "parties.handle_wake",
    "properties.evaluate_run",
    "costs.meter",
    "trace.to_json",
    "trace.from_json",
    "replay.replay_trace",
    "adversary.random_campaign",
    "adversary.exhaustive_explore",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

RATIOS = (
    "crypto.verify.per_charged",
    "parties.step.useful_share",
    "ledger.publish.rejected_share",
)
EXPLORE_COUNTS = (
    "adversary.explore.schedules",
    "adversary.explore.branch_points",
    "adversary.explore.picks",
    "adversary.explore.replayed_pick_share",
    "adversary.explore.prune_hits",
)


def _modules():
    return [importlib.import_module(name) for name in MODULES]


def _party_classes() -> list:
    """Every controller class, including adversary strategies built by factories."""
    from dealsim.parties import CompliantParty

    seen = []
    for module in (sys.modules["dealsim.parties"], sys.modules["dealsim.adversary"]):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, CompliantParty) and value not in seen:
                seen.append(value)
    return seen


class Tracer:
    """Context manager: wrap dealsim's entry points, record spans and counts."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.rejected_publishes = 0
        self.useful_steps: set = set()
        self.verify_in_escrow = 0
        self.charged_verifications = 0
        self.picks = 0
        self.replayed_picks = 0
        self.schedules = 0
        self.branch_points = 0
        self.prune_hits = 0
        self._seen_keys: set = set()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _patch(self, owner, name: str, replacement):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def _patch_function(self, fn, layer: str, hook=None):
        """Replace `fn` wherever a dealsim module binds it by name."""
        wrapped = self._wrap(fn, LAYER_ID[layer], hook)
        for module in _modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, name, wrapped)

    def _patch_method(self, cls, name: str, layer: str, hook=None):
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            self._patch(cls, name, classmethod(self._wrap(raw.__func__, LAYER_ID[layer], hook)))
        else:
            self._patch(cls, name, self._wrap(raw, LAYER_ID[layer], hook))

    def _install(self):
        import dealsim.adversary as adversary
        import dealsim.cbc as cbc
        import dealsim.costs as costs
        import dealsim.crypto as crypto
        import dealsim.escrow as escrow
        import dealsim.ledger as ledger
        import dealsim.planning as planning
        import dealsim.properties as properties
        import dealsim.replay as replay
        import dealsim.scenario as scenario
        import dealsim.timelock as timelock
        import dealsim.trace as trace

        self._patch_function(scenario.validate_scenario, "scenario.validate")
        self._patch_function(planning.build_plan, "planning.build_plan")
        self._patch_function(scenario.build_world, "scenario.build_world")
        self._patch_method(ledger.World, "run", "ledger.run")
        self._patch_method(ledger.World, "publish", "ledger.publish", self._on_publish)
        self._patch_method(ledger.World, "state_key", "ledger.state_key")
        self._patch_method(ledger.TapeChoices, "pick", "ledger.pick", self._on_tape_pick)
        self._patch_method(ledger.SeededChoices, "pick", "ledger.pick")
        self._patch(escrow.EscrowContract, "apply", self._wrap_escrow_apply(escrow.EscrowContract.apply))
        self._patch_method(cbc.CbcLogContract, "apply", "cbc.apply")
        self._patch_function(timelock.judge_vote, "timelock.judge_vote", self._on_ruling)
        self._patch_function(cbc.verify_certificate, "cbc.verify_certificate", self._on_ruling)
        self._patch_method(crypto.SignatureScheme, "verify", "crypto.verify", self._on_verify)
        self._patch_method(crypto.SignatureScheme, "sign", "crypto.sign")
        for cls in _party_classes():
            for name in ("step", "handle_wake"):
                if name in vars(cls):
                    self._patch_method(cls, name, f"parties.{name}")
        self._patch_function(properties.evaluate_run, "properties.evaluate_run")
        self._patch_function(costs.meter, "costs.meter")
        self._patch_method(trace.RunTrace, "to_json", "trace.to_json")
        self._patch_method(trace.RunTrace, "from_json", "trace.from_json")
        self._patch_function(replay.replay_trace, "replay.replay_trace")
        self._patch_function(adversary.random_campaign, "adversary.random_campaign")
        self._patch_function(adversary.exhaustive_explore, "adversary.exhaustive_explore")

    def _uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- spans -----------------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(clock())
        return index

    def _close(self, index: int):
        self.end[index] = clock()
        self.stack.pop()

    def _wrap(self, fn, layer_id: int, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            # A method overridden in a subclass calls super(): count the
            # outermost call only.
            if stack and tracer.layer[stack[-1]] == layer_id:
                return fn(*args, **kwargs)
            index = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_escrow_apply(self, fn):
        tracer = self
        op_layers = {op: LAYER_ID[f"escrow.apply.{op}"] for op in ESCROW_OPS}

        def apply(contract, payload, *args, **kwargs):
            layer_id = op_layers.get(payload.get("op"))
            if layer_id is None:
                return fn(contract, payload, *args, **kwargs)
            index = tracer._open(layer_id)
            try:
                return fn(contract, payload, *args, **kwargs)
            finally:
                tracer._close(index)

        return functools.update_wrapper(apply, fn)

    def _inside(self, layer_ids) -> Optional[int]:
        """Index of the innermost open span whose layer is in `layer_ids`."""
        for index in reversed(self.stack):
            if self.layer[index] in layer_ids:
                return index
        return None

    # -- counting hooks (run after the wrapped call returns) ------------------

    _ESCROW_IDS = frozenset(LAYER_ID[f"escrow.apply.{op}"] for op in ESCROW_OPS)
    _STEP_ID = frozenset([LAYER_ID["parties.step"]])

    def _on_publish(self, args, result):
        if result[0] != "accepted":
            self.rejected_publishes += 1
        step = self._inside(self._STEP_ID)
        if step is not None:
            self.useful_steps.add(step)

    def _on_verify(self, args, result):
        if self._inside(self._ESCROW_IDS) is not None:
            self.verify_in_escrow += 1

    def _on_ruling(self, args, result):
        if self._inside(self._ESCROW_IDS) is not None:
            self.charged_verifications += result.verifications

    def _on_tape_pick(self, args, result):
        tape = args[0]
        self.picks += 1
        if tape.pos == 1:
            self.schedules += 1
            if not tape.tape:
                # The empty tape is an exploration's first schedule.
                self._seen_keys = set()
        if tape.pos <= len(tape.tape):
            self.replayed_picks += 1
        key = tape.log[-1][3]
        if key is not None:
            if key in self._seen_keys:
                self.prune_hits += 1
            else:
                self._seen_keys.add(key)
                self.branch_points += 1

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """Per layer: (calls, self seconds)."""
        n = len(self.layer)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_s[lid] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(LAYERS)}

    def counts(self) -> Dict[str, float]:
        """Deterministic counts: calls per layer plus the ratios built from them."""
        totals = self.layer_totals()
        out: Dict[str, float] = {f"{name}.calls": calls for name, (calls, _) in totals.items()}
        steps = totals["parties.step"][0]
        publishes = totals["ledger.publish"][0]
        out["crypto.verify.per_charged"] = _share(self.verify_in_escrow, self.charged_verifications)
        out["parties.step.useful_share"] = _share(len(self.useful_steps), steps)
        out["ledger.publish.rejected_share"] = _share(self.rejected_publishes, publishes)
        out["adversary.explore.schedules"] = self.schedules
        out["adversary.explore.branch_points"] = self.branch_points
        out["adversary.explore.picks"] = self.picks
        out["adversary.explore.replayed_pick_share"] = _share(self.replayed_picks, self.picks)
        out["adversary.explore.prune_hits"] = self.prune_hits
        return out

    def self_ms(self) -> Dict[str, float]:
        return {f"{name}.self_ms": s * 1000.0 for name, (_, s) in self.layer_totals().items()}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

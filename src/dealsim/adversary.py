"""Adversary drivers: randomized campaigns and exhaustive exploration.

Both drivers run scenarios whose parties play strategies from the catalog
in `parties.STRATEGIES`; this module only draws and enumerates those
runs and judges them with `properties.evaluate_run`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from . import properties
from .assets import AssetBundle
from .ledger import KnownContinuation, TapeChoices
from .parties import STRATEGIES
from .planning import build_plan
from .scenario import ScenarioError, assemble_world, build_world, prepare, wallet_holdings


def builtin_strategies() -> Dict[str, dict]:
    """Catalog of deviating-party strategies with their parameters."""
    return {
        name: {"params": list(cls.params), "protocols": list(cls.protocols)}
        for name, cls in STRATEGIES.items()
    }


# -- randomized campaigns ----------------------------------------------------------


@dataclass
class CampaignReport:
    runs: int
    seed: int
    strategy_mix: List[str]
    outcomes: Dict[str, int]
    violations: List[dict]
    witness_traces: list = field(default_factory=list, repr=False)

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "seed": self.seed,
            "strategy_mix": list(self.strategy_mix),
            "outcomes": dict(sorted(self.outcomes.items())),
            "violations": self.violations,
        }


def random_campaign(
    base_scenarios: List[dict],
    strategy_mix: List[str],
    runs: int,
    seed: int,
    max_adversaries: int = 1,
    keep_witnesses: int = 5,
) -> CampaignReport:
    """Run seeded simulations with randomized adversary assignments.

    Deterministic for fixed (scenarios, mix, runs, seed): the report and
    every violation witness come out identical on re-run.  Each base is
    prepared once.  A run's scenario is a shallow copy of its base with its
    own seed and strategy bindings, plus its own wallets and plan when an
    overpaying party brings extra coins.
    """
    if runs < 1:
        raise ValueError("a campaign needs at least one run")
    for name in strategy_mix:
        if name not in STRATEGIES:
            raise ScenarioError(f"unknown strategy {name!r}")
    rng = random.Random(f"campaign-{seed}")
    outcomes: Dict[str, int] = {}
    violations: List[dict] = []
    witnesses = []
    bases = [prepare(raw) for raw in base_scenarios]
    for i in range(runs):
        base, deal, holdings, plan = bases[rng.randrange(len(bases))]
        scenario = dict(base)
        scenario["seed"] = rng.randrange(1 << 30)
        scenario["strategies"] = dict(base["strategies"])
        parties = list(scenario["deal"]["parties"])
        n_adv = rng.randrange(0, max_adversaries + 1)
        adversaries = rng.sample(parties, min(n_adv, len(parties) - 1)) if n_adv else []
        wallet_extra = {}
        for party in adversaries:
            name = strategy_mix[rng.randrange(len(strategy_mix))]
            params = STRATEGIES[name].random_params(scenario, rng)
            scenario["strategies"][party] = {"name": name, "params": params}
            if name == "overpay" and params.get("extra"):
                wallet_extra[party] = params["extra"]
        if wallet_extra:
            # The overpayer may now escrow coins of its own: a new plan.
            scenario["wallets"] = wallets = dict(base["wallets"])
            for party, extra in wallet_extra.items():
                wallet = AssetBundle.from_json(wallets.get(party, {"fungible": [], "tokens": []}))
                wallets[party] = wallet.plus(AssetBundle.from_json({"fungible": extra})).to_json()
            holdings = wallet_holdings(scenario)
            plan = build_plan(deal, holdings)
        trace = assemble_world(scenario, deal, holdings, plan).world.run()
        report = properties.evaluate_run(trace)
        outcomes[report["outcome"]] = outcomes.get(report["outcome"], 0) + 1
        for failure in report["failures"]:
            violations.append(
                {
                    "run": i,
                    "seed": scenario["seed"],
                    "scenario": scenario["name"],
                    "strategies": {p: s["name"] for p, s in scenario["strategies"].items()},
                    "property": failure["property"],
                    "details": failure["details"],
                }
            )
            if len(witnesses) < keep_witnesses:
                witnesses.append(trace)
    return CampaignReport(runs, seed, list(strategy_mix), outcomes, violations, witnesses)


# -- bounded exhaustive exploration ---------------------------------------------------


# The largest deal the explorer takes on; a larger one is a scenario error.
MAX_PARTIES = 4
MAX_LOTS = 6


@dataclass
class ExplorationBound:
    """Budget for the explorer; exceeding either cap yields a partial
    verdict.  `max_choice_points` caps the picks a schedule makes before
    the world is quiescent (no choice can change any lot's resolution, its
    tick, or a wallet); the picks after it are not choice points.  A
    run that stops at a visited state counts the picks of the run that went
    on from it too."""

    max_runs: int = 100000
    max_choice_points: int = 600


@dataclass
class ExploreResult:
    verdict: str  # "SAFE" | "VIOLATION" | "PARTIAL"
    runs: int
    branch_points: int
    complete: bool
    violations: List[dict]
    witness_traces: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "runs": self.runs,
            "branch_points": self.branch_points,
            "complete": self.complete,
            "violations": self.violations,
        }


def exhaustive_explore(
    scenario: dict,
    bound: ExplorationBound = ExplorationBound(),
    evaluate=None,
    keep_witnesses: int = 3,
) -> ExploreResult:
    """Enumerate every schedule in the scenario's choice space, up to
    quiescence, and judge each explored state once.

    A schedule is a sequence of choice-point decisions: every choice of
    delivery latency and of the `explored` adversary's action timings,
    made before the world is quiescent (`World.quiescent`: no choice can
    change any lot's resolution, its tick, or a wallet; a timelock or naive
    lot past its local refund deadline can only refund).  After that a run
    takes first options and has no branch points, since every continuation
    ends with the same resolutions and wallets, and the depth cap counts
    only the picks made before quiescence.
    Same-tick events pop in push order and parties act in name order;
    neither order is a choice point, so renaming the chains keeps every
    outcome but renaming the parties may not (ROADMAP item 3(b) measured
    one outcome that differs each way).  Schedules run depth first, and
    none re-runs its prefix: one world is built per exploration, and each
    branch resumes from the world's snapshot where its branch point's
    choice is made.  A latency resumes at its event's send phase, after the
    controller's work; a controller's choice, and a latency it draws
    first, resume at the start of its event.  Only the picks since that
    snapshot are replayed, and the branch reuses the snapshot's state key.

    A visited key is the state key of a boundary, or the quiescent key of
    a run's first quiescent boundary, that an earlier run reached past its
    tape (see `TapeChoices`).  It is a flat tuple of ids from the world's
    `component_ids` table, which holds each key component once and lives
    and goes with `known`.  A run that reaches a visited key past its
    tape stops there unjudged, but counts in `runs`.  A pick past the tape
    is a branch point unless its boundary's key was visited, and a
    branch's own resume boundary is never pruned.  The key fixes what the
    default judges read (for a CBC world it adds the last accepted vote's
    tick and the certificates published so far), so `evaluate` is called
    once per run that reaches its end, and a custom `evaluate` may judge
    only what the key fixes.
    """
    built = build_world(scenario, choices=TapeChoices([]))
    if len(built.deal.parties) > MAX_PARTIES:
        raise ScenarioError("scenario exceeds exploration party bound")
    if len(built.plan.lots()) > MAX_LOTS:
        raise ScenarioError("scenario exceeds exploration lot bound")
    if evaluate is None:
        def evaluate(trace):
            return properties.evaluate_run(trace)["failures"]

    world = built.world
    # (absolute tape, picks made before the resume point, its snapshot, the
    # snapshot's state key; None for the first run)
    stack: List[tuple] = [([], 0, world.snapshot(), None)]
    # Each visited boundary's key -> the picks before quiescence of the run
    # that went on from it, from that boundary on (see `TapeChoices`).
    known: Dict[tuple, int] = {}
    runs = 0
    branch_points = 0
    violations: List[dict] = []
    witnesses = []
    complete = True
    while stack:
        if runs >= bound.max_runs:
            complete = False
            break
        tape, base, snap, snap_key = stack.pop()
        world.restore(snap)
        choices = world.choices = TapeChoices(tape[base:], known)
        if snap_key is not None:
            choices.resume_at(snap, snap_key)
        runs += 1
        try:
            trace = world.run()
        except KnownContinuation:
            pass  # a run that went on from this state was judged
        else:
            failures = evaluate(trace)
            if failures:
                violations.append(
                    {
                        "tape": list(tape),
                        "failures": failures,
                        "resolutions": {k: list(v) for k, v in trace.resolutions.items()},
                    }
                )
                if len(witnesses) < keep_witnesses:
                    witnesses.append(trace)
        log = choices.log
        if base + choices.depth > bound.max_choice_points:
            complete = False
            continue
        for j in range(len(tape) - base, len(log)):
            label, n, chosen, key, start = log[j]
            if key is None or (key[0] in known and key[0] != snap_key):
                continue  # an earlier run went on from this pick's boundary
            branch_points += 1
            first, event_snap, event_key = start
            prefix = tape[:base] + choices.chosen_prefix(j)
            for k in range(n - 1, 0, -1):
                stack.append((prefix + [k], base + first, event_snap, event_key))
        for key, depth in choices.keys:
            known.setdefault(key, choices.depth - depth)
    if violations:
        verdict = "VIOLATION"
    elif complete:
        verdict = "SAFE"
    else:
        verdict = "PARTIAL"
    return ExploreResult(verdict, runs, branch_points, complete, violations, witnesses)

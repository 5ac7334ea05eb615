"""The benchmark's workloads: inputs, one operation, and its correctness checks.

Each workload is a closed loop of operations (the next starts when the
previous one ends) on inputs derived only from the workload seed:

* ``campaign_timelock`` / ``campaign_cbc`` -- randomized adversary campaigns
  with the acceptance mixes.  An operation is one simulated run; runs are
  issued in batches of ``CAMPAIGN_BATCH`` through ``random_campaign`` and a
  sample is the batch's wall time per run.
* ``explore_swap`` -- a complete ``exhaustive_explore`` of the timelock swap
  (expected SAFE) and then of the naive swap (expected VIOLATION).  An
  operation is the pair; the seed does not apply.
* ``corpus_replay`` -- every bundled scenario once per pass: a live run
  judged by ``evaluate_run``, ``meter`` and ``check_asymptotics``, then a
  ``to_json``/``from_json`` round trip and ``replay_trace``.  An operation is
  one scenario; pass 0 runs at the workload seed.

Every operation is checked; a failed check or a raised error counts the
operation as failed.  ``golden`` compares against digests recorded from the
code in ``goldens.json`` at the acceptance/bundled seeds, independent of the
workload seed, so every benchmark run checks them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import dealsim.adversary as adversary
import dealsim.costs as costs
import dealsim.properties as properties
import dealsim.replay as replay
import dealsim.scenario as scenario
import dealsim.trace as trace
from reference import PROBES

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

CAMPAIGN_BATCH = 20          # simulated runs per timed sample
GOLDEN_CAMPAIGN_RUNS = 100   # runs in the golden campaign at the fixture seed
MAX_ADVERSARIES = 2

TIMELOCK_MIX = [
    "silent_crash",
    "selective_communication",
    "overpay",
    "withhold_vote",
    "vote_no_forward",
    "replay_votes",
    "late_claim",
    "forged_signature",
    "offline_window",
]
CBC_MIX = [
    "silent_crash",
    "withhold_vote",
    "overpay",
    "fake_certificate",
    "abort_after_commit",
    "offline_window",
]
EXPLORATIONS = ("explore_swap_timelock", "explore_swap_naive")
PROBE_EVERY = 50             # explored schedules between machine-speed probes

clock = time.perf_counter


def digest(obj) -> str:
    return hashlib.sha256(trace.canonical_json(obj).encode()).hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


@dataclass
class Tally:
    """Operations attempted and failed, plus what the benchmark measured."""

    attempted: int = 0
    failed: int = 0
    digests: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def sample(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, value: int):
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, ops: int, problem: str):
        self.failed += ops
        self.problems.append(problem)

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.digests.extend(other.digests)
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)
        for name, value in other.counts.items():
            self.count(name, value)
        self.problems.extend(other.problems)


@dataclass
class Workload:
    name: str
    primary: str                            # the sample op_ms is the median of
    to_ms: float                            # its scale to milliseconds
    ops_per_call: int                       # operations one `op` call attempts
    trace_calls: int                        # `op` calls in one traced batch
    setup: Callable[[], object]
    golden: Callable[[object, dict], Tally]
    op: Callable[[object, dict, int, int], Tally]  # (inputs, goldens, seed, index)


# -- campaigns ------------------------------------------------------------------


def _timelock_bases() -> list:
    return [
        scenario.validate_scenario(sc)
        for sc in (
            scenario.swap_deal("timelock"),
            scenario.ticket_deal("timelock"),
            scenario.dual_broker_deal("timelock"),
            scenario.cycle_deal(4, "timelock"),
        )
    ]


def _cbc_bases() -> list:
    bases = []
    for builder in (scenario.swap_deal, scenario.ticket_deal, scenario.dual_broker_deal):
        sc = builder("cbc")
        sc["cbc"]["corrupt"] = 1
        bases.append(scenario.validate_scenario(sc))
    return bases


def _campaign(bases, mix, forbidden: str, runs: int, seed: int) -> tuple:
    report = adversary.random_campaign(bases, mix, runs=runs, seed=seed, max_adversaries=MAX_ADVERSARIES)
    tally = Tally(attempted=runs)
    if report.runs != runs or sum(report.outcomes.values()) != runs:
        tally.fail(runs, f"campaign seed {seed}: outcome counts do not add up to {runs}")
        return report, tally
    bad = {v["run"] for v in report.violations if v["property"] == forbidden}
    if bad:
        tally.fail(len(bad), f"campaign seed {seed}: {forbidden} violated in runs {sorted(bad)}")
    return report, tally


# name -> (bases, strategy mix, property no run may violate, acceptance fixture seed)
CAMPAIGNS = {
    "campaign_timelock": (_timelock_bases, TIMELOCK_MIX, "safety", 20260808),
    "campaign_cbc": (_cbc_bases, CBC_MIX, "agreement", 41),
}


def _golden_campaign(name: str, bases) -> tuple:
    _, mix, forbidden, fixture_seed = CAMPAIGNS[name]
    return _campaign(bases, mix, forbidden, GOLDEN_CAMPAIGN_RUNS, fixture_seed)


def _campaign_workload(name: str) -> Workload:
    make_bases, mix, forbidden, _ = CAMPAIGNS[name]

    def golden(inputs, goldens):
        report, tally = _golden_campaign(name, inputs)
        if digest(report.to_json()) != goldens[name]["report_digest"]:
            tally.fail(GOLDEN_CAMPAIGN_RUNS, f"{name}: fixture-seed report differs from golden")
        return tally

    def op(inputs, goldens, seed, index):
        batch_seed = seed * 1_000_000 + index
        start = clock()
        report, tally = _campaign(inputs, mix, forbidden, CAMPAIGN_BATCH, batch_seed)
        elapsed = clock() - start
        tally.sample("run_ms", elapsed * 1000.0 / CAMPAIGN_BATCH)
        tally.digests.append(digest(report.to_json()))
        return tally

    return Workload(
        name=name,
        primary="run_ms",
        to_ms=1.0,
        ops_per_call=CAMPAIGN_BATCH,
        trace_calls=48,
        setup=make_bases,
        golden=golden,
        op=op,
    )


# -- exploration ------------------------------------------------------------------


def _explore_setup() -> list:
    return [scenario.load_scenario(name) for name in EXPLORATIONS]


def _explore_summary(result) -> dict:
    """What a correct reduction must preserve: not the schedule counts."""
    return {
        "verdict": result.verdict,
        "complete": result.complete,
        "violating_resolutions": sorted(
            {trace.canonical_json(v["resolutions"]) for v in result.violations}
        ),
    }


def _explore(sc) -> tuple:
    """One complete exploration with the explorer's default evaluator.

    When probing is on, the `properties.evaluate_run` that the default
    evaluator looks up is wrapped for the call, so that it takes a probe
    every PROBE_EVERY schedules.  Returns the result and its wall time
    without the probes.
    """
    original = properties.evaluate_run
    schedules = 0
    probing = 0.0

    def evaluate_run(run_trace):
        nonlocal schedules, probing
        schedules += 1
        if schedules % PROBE_EVERY == 0:
            probing += PROBES.take()
        return original(run_trace)

    if PROBES.on:
        properties.evaluate_run = evaluate_run
    try:
        start = clock()
        result = adversary.exhaustive_explore(sc, adversary.ExplorationBound())
        elapsed = clock() - start
    finally:
        properties.evaluate_run = original
    return result, elapsed - probing


def _explore_op(inputs, goldens, seed, index) -> Tally:
    tally = Tally(attempted=1)
    total = 0.0
    problems = []
    for name, sc in zip(EXPLORATIONS, inputs):
        result, elapsed = _explore(sc)
        total += elapsed
        tally.sample(f"{name}_s", elapsed)
        tally.count("schedules", result.runs)
        tally.count("branch_points", result.branch_points)
        tally.digests.append(digest(result.to_json()))
        summary = _explore_summary(result)
        if summary != goldens["explore_swap"][name]:
            problems.append(f"{name}: {summary}")
    tally.sample("explore_s", total)
    if problems:
        tally.fail(1, "; ".join(problems))
    return tally


# -- corpus -------------------------------------------------------------------------


def _corpus_setup() -> Dict[str, dict]:
    return {name: scenario.load_scenario(name) for name in scenario.list_bundled()}


def corpus_seed(seed: int, corpus_pass: int) -> int:
    if corpus_pass == 0:
        return seed
    return random.Random(f"corpus-{seed}-{corpus_pass}").randrange(1 << 30)


def _allowed_failures(sc: dict) -> set:
    """Properties a bundled scenario may fail at some seed.

    The naive deadline rule is the protocol the paper shows unsafe, and the
    weak-liveness bound assumes synchronous delivery.
    """
    allowed = set()
    if sc["protocol"] == "naive":
        allowed.add("safety")
    if sc["network"]["mode"] != "synchronous":
        allowed.add("weak-liveness")
    return allowed


def _corpus_run(name: str, sc: dict, seed) -> tuple:
    """One scenario: live run, judgement, round trip and replay, then checks.

    Returns the tally, the live trace digest and the run's outcome."""
    tally = Tally(attempted=1)
    start = clock()
    _, live = scenario.run_scenario(sc, seed=seed)
    ran = clock()
    report = properties.evaluate_run(live)
    cost = costs.meter(live)
    bounds = costs.check_asymptotics(cost)
    judged = clock()
    restored = trace.RunTrace.from_json(live.to_json())
    replayed = replay.replay_trace(restored)
    done = clock()
    tally.sample("scenario_ms", (done - start) * 1000.0)
    tally.sample("single_run_ms", (ran - start) * 1000.0)
    tally.sample("replay_ms", (done - judged) * 1000.0)

    verdicts = [v.to_json() for v in report["verdicts"]]
    tally.digests.append(live.digest())
    tally.digests.append(digest({"verdicts": verdicts, "costs": cost.to_json()}))
    problems = []
    broken = [b.name for b in bounds if not b.ok]
    if broken:
        problems.append(f"bounds {broken}")
    unexpected = {f["property"] for f in report["failures"]} - _allowed_failures(sc)
    if unexpected:
        problems.append(f"failed {sorted(unexpected)}")
    if restored.digest() != live.digest():
        problems.append("trace digest changed in the JSON round trip")
    if [v.to_json() for v in replayed.verdicts] != verdicts:
        problems.append("replay verdicts differ from the live verdicts")
    if replayed.costs.to_json() != cost.to_json():
        problems.append("replay costs differ from the live costs")
    if problems:
        tally.fail(1, f"{name} seed {seed}: " + "; ".join(problems))
    return tally, live.digest(), report["outcome"]


def _corpus_golden(inputs, goldens) -> Tally:
    want = goldens["corpus_replay"]
    tally = Tally()
    for name, sc in inputs.items():
        run, trace_digest, outcome = _corpus_run(name, sc, None)
        got = {"trace_digest": trace_digest, "outcome": outcome}
        if got != want.get(name) and not run.failed:
            run.fail(1, f"{name}: {got} differs from golden {want.get(name)}")
        tally.merge(run)
    if sorted(inputs) != sorted(want):
        tally.fail(1, "bundled scenario names differ from golden")
    return tally


def _corpus_op(inputs, goldens, seed, index) -> Tally:
    names = sorted(inputs)
    name = names[index % len(names)]
    return _corpus_run(name, inputs[name], corpus_seed(seed, index // len(names)))[0]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _campaign_workload("campaign_timelock"),
        _campaign_workload("campaign_cbc"),
        Workload(
            name="explore_swap",
            primary="explore_s",
            to_ms=1000.0,
            ops_per_call=1,
            trace_calls=1,
            setup=_explore_setup,
            golden=lambda inputs, goldens: Tally(),  # each operation checks its goldens
            op=_explore_op,
        ),
        Workload(
            name="corpus_replay",
            primary="scenario_ms",
            to_ms=1.0,
            ops_per_call=1,
            trace_calls=320,
            setup=_corpus_setup,
            golden=_corpus_golden,
            op=_corpus_op,
        ),
    )
}


def record_goldens() -> dict:
    """Goldens from the code as it stands (see record_goldens.py)."""
    out = {}
    for name, (make_bases, *_) in CAMPAIGNS.items():
        report, _ = _golden_campaign(name, make_bases())
        out[name] = {"report_digest": digest(report.to_json())}
    out["explore_swap"] = {
        name: _explore_summary(adversary.exhaustive_explore(sc, adversary.ExplorationBound()))
        for name, sc in zip(EXPLORATIONS, _explore_setup())
    }
    out["corpus_replay"] = {}
    for name, sc in _corpus_setup().items():
        _, trace_digest, outcome = _corpus_run(name, sc, None)
        out["corpus_replay"][name] = {"trace_digest": trace_digest, "outcome": outcome}
    return out

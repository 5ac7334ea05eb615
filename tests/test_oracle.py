"""A differential oracle for the explorer: every seeded run is a schedule
it covers.

A seeded run draws its picks from an rng; logged as indices, they form a
tape.  So, with no pinned count:
- replaying the tape through `TapeChoices` reruns the same trace;
- cutting the tape where the world turns quiescent and finishing on first
  options keeps every resolution, its tick and the wallets (the explorer
  stops branching there);
- a seeded run's resolutions are among the explored outcomes.
"""

import random

import pytest

from dealsim.adversary import ExplorationBound, exhaustive_explore
from dealsim.ledger import SeededChoices, TapeChoices
from dealsim.parties import STRATEGIES
from dealsim.scenario import (
    build_world,
    bundled_scenarios,
    cycle_deal,
    dual_broker_deal,
    swap_deal,
    ticket_deal,
)

# The catalog without `overpay`, whose extra coins need a new plan.
MIX = sorted(set(STRATEGIES) - {"compliant", "overpay"})
RUNS = 300


class LoggedChoices(SeededChoices):
    """Seeded picks, each logged as its index; `cut` is the tape length at
    the first boundary where the world is quiescent."""

    def __init__(self, seed):
        super().__init__(seed)
        self.tape = []
        self.cut = None

    def event_start(self, world):
        if self.cut is None and world.quiescent():
            self.cut = len(self.tape)

    send_phase = event_start

    def pick(self, label, options, world=None):
        index = self.rng.randrange(len(options)) if len(options) > 1 else 0
        self.tape.append(index)
        return options[index]


def bases():
    out = list(bundled_scenarios().values())
    for protocol in ("timelock", "naive", "cbc"):
        for builder in (swap_deal, ticket_deal, dual_broker_deal):
            out.append(builder(protocol))
        if protocol != "cbc":
            out.append(cycle_deal(4, protocol))
    return out


def catalog_runs():
    """(scenario, seed) of each seeded run: a random base, at most two
    adversaries drawn from `MIX`."""
    rng = random.Random("oracle")
    pool = bases()
    runs = []
    for _ in range(RUNS):
        scenario = dict(pool[rng.randrange(len(pool))])
        parties = scenario["deal"]["parties"]
        strategies = dict(scenario.get("strategies", {}))
        for party in rng.sample(parties, rng.randrange(0, 3)):
            name = MIX[rng.randrange(len(MIX))]
            strategies[party] = {"name": name, "params": STRATEGIES[name].random_params(scenario, rng)}
        scenario["strategies"] = strategies
        runs.append((scenario, rng.randrange(1 << 30)))
    return runs


def run(scenario, seed, choices):
    return build_world(scenario, seed=seed, choices=choices).world.run()


def outcome(trace):
    return tuple(sorted(trace.resolutions.items()))


@pytest.fixture(scope="module")
def seeded():
    out = []
    for scenario, seed in catalog_runs():
        choices = LoggedChoices(seed)
        out.append((scenario, seed, choices, run(scenario, seed, choices)))
    return out


def test_the_runs_cover_every_protocol_and_strategy(seeded):
    protocols = {scenario["protocol"] for scenario, *_ in seeded}
    played = {b["name"] for scenario, *_ in seeded for b in scenario["strategies"].values()}
    assert protocols == {"timelock", "naive", "cbc"}
    assert set(MIX) <= played


def test_replaying_a_seeded_tape_reruns_the_trace(seeded):
    for scenario, seed, choices, trace in seeded:
        replayed = run(scenario, seed, TapeChoices(choices.tape))
        assert replayed.digest() == trace.digest(), (scenario["name"], seed)


def test_first_options_after_quiescence_keep_the_outcome(seeded):
    cuts = 0
    for scenario, seed, choices, trace in seeded:
        # A world with a certified log is never quiescent, nor is one where
        # a party without a lot holds assets it never escrows.
        if choices.cut is None or choices.cut == len(choices.tape):
            continue
        cuts += 1
        rest = run(scenario, seed, TapeChoices(choices.tape[: choices.cut]))
        assert outcome(rest) == outcome(trace), (scenario["name"], seed)
        assert rest.terminal_wallets == trace.terminal_wallets, (scenario["name"], seed)
    assert cuts > RUNS // 3


@pytest.mark.parametrize("name", ["explore_swap_timelock", "explore_swap_naive"])
def test_seeded_outcomes_are_explored(corpus, name):
    explored = set()

    def evaluate(trace):
        explored.add(outcome(trace))
        return []

    result = exhaustive_explore(corpus[name], ExplorationBound(), evaluate=evaluate)
    assert result.complete
    for seed in range(500):
        trace = run(corpus[name], seed, None)
        assert outcome(trace) in explored, seed

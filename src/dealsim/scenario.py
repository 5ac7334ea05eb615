"""Scenario files: the single input describing one simulation.

A scenario is a JSON document with the deal, starting wallets, network
model, protocol choice, per-party strategy bindings, and the seed that
drives every random choice in the run.  `build_world` turns a scenario
into a ready-to-run world.  `scenario_for` turns a deal's JSON and its
parties' wallets into an all-compliant scenario; the deal builders at the
bottom use it, and their variants make up the bundled corpus.

Schema (all times are integer ticks):

    {
      "name": "ticket_deal_timelock",
      "protocol": "timelock",            // timelock | naive | cbc
      "seed": 42,
      "network": {
        "mode": "synchronous",           // or "semi-synchronous"
        "delta": 5,
        "gst": 0,                        // semi-synchronous only
        "pre_gst_cap": null,             // max pre-GST delay (default 4*delta)
        "skew_max": 0,                   // per-chain contract clock skew
        "latency_menu": null,            // e.g. [1, 5] to explore boundaries
        "allow_model_violation": false
      },
      "horizon": 200,                    // optional; derived when omitted
      "wallets": {"bob": {"fungible": [["ticket-chain", "kind", 10]], "tokens": []}},
      "deal": {
        "id": "deal-1", "parties": ["alice", "bob"], "t0": 30, "delta": 5,
        "transfers": [{"from": "bob", "to": "alice", "step": 0,
                        "bundle": {"fungible": [], "tokens": [["tchain", "tkt1"]]}}]
      },
      "strategies": {"alice": {"name": "selective_communication",
                                "params": {"ignore": ["bob"]}}},
      "cbc": {"f": 1, "corrupt": 0, "grace": 10, "patience": 60,
               "reconfigurations": 0}
    }
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .assets import AssetBundle, AssetError
from .cbc import CBC_CHAIN, CbcLogContract, ValidatorService
from .deals import DealSpec
from .escrow import EscrowContract
from .ledger import World
from .parties import (
    PARTY_OPTIONS, PROTOCOLS, STRATEGIES, PartyConfig, at_least, check_args, controller_class,
    is_bool, is_int, list_of,
)
from .planning import DealPlan, PlanError, build_plan


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


# Network key -> (default, accepts), as `parties.check_args` reads it.
_NETWORK = {
    "mode": ("synchronous", ("synchronous", "semi-synchronous")),
    "delta": (5, at_least(1)),
    "gst": (0, is_int),
    "pre_gst_cap": (None, at_least(1)),  # None: 4*delta
    "skew_max": (0, at_least(0)),
    "latency_menu": (None, list_of(at_least(1))),  # None: 1..delta
    "allow_model_violation": (False, is_bool),
}

_CBC = {
    "f": (1, at_least(0)),
    "corrupt": (0, at_least(0)),
    "grace": (10, at_least(0)),
    "patience": (60, at_least(0)),
    "reconfigurations": (0, at_least(0, most=1)),
}

# The schema's top-level keys; any other is a scenario error.
_KEYS = {"name", "protocol", "seed", "network", "horizon", "wallets", "deal", "strategies", "cbc"}


class _Validated(dict):
    """A scenario `validate_scenario` returned; `deal` is its deal's `DealSpec`."""

    deal: DealSpec


def validate_scenario(raw: dict, deal: Optional[DealSpec] = None) -> dict:
    """Fill defaults and reject inconsistent scenarios; returns a new dict.

    The dict's `deal` attribute is the `DealSpec` parsed from its deal, which
    `prepare` reuses.  A `deal` already parsed from `raw["deal"]`, such as a
    loaded trace's, is taken as it is instead."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = raw.keys() - _KEYS
    if unknown:
        raise ScenarioError(f"scenario takes no {sorted(unknown)}")
    sc = _Validated(_copy_json(raw))
    for key in ("protocol", "deal"):
        if key not in sc:
            raise ScenarioError(f"scenario missing {key!r}")
    if sc["protocol"] not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {sc['protocol']!r}")
    sc.setdefault("name", "unnamed")
    sc.setdefault("seed", 0)
    if not is_int(sc["seed"]):
        raise ScenarioError("seed must be an integer")
    network = _section(sc, "network", _NETWORK)
    try:
        # The exploration knob explore_from is written into a scenario only when given.
        check_args({**_NETWORK, "explore_from": (None, is_int)}, network)
    except ValueError as exc:
        raise ScenarioError(f"network {exc}") from exc
    menu = network["latency_menu"] or []
    if max(menu, default=0) > network["delta"] and not network["allow_model_violation"]:
        raise ScenarioError("latency_menu exceeds delta without allow_model_violation")
    if deal is None:
        try:
            deal = DealSpec.from_json(sc["deal"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad deal: {exc}") from exc
    sc.deal = deal
    if deal.delta != network["delta"]:
        raise ScenarioError("deal delta and network delta must agree")
    for party, wallet in _section(sc, "wallets").items():
        if party not in deal.parties:
            raise ScenarioError(f"wallet for unknown party {party!r}")
        try:
            AssetBundle.from_json(wallet)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad wallet for {party!r}: {exc}") from exc
    for party, binding in _section(sc, "strategies").items():
        if party not in deal.parties:
            raise ScenarioError(f"strategy bound to unknown party {party!r}")
        if not isinstance(binding, dict) or not isinstance(binding.get("params", {}), dict):
            raise ScenarioError(f"strategy for {party!r} must be an object with object params")
        name = binding.get("name", "compliant")
        if not isinstance(name, str) or name not in STRATEGIES:
            raise ScenarioError(f"unknown strategy {name!r}")
        try:
            check_args({**PARTY_OPTIONS, **STRATEGIES[name].params}, binding.get("params", {}))
        except ValueError as exc:
            raise ScenarioError(f"strategy {name!r} for {party!r} {exc}") from exc
        if name == "overpay":
            outside = {chain for chain, _, _ in binding["params"]["extra"]} - set(deal.chains())
            if outside:
                raise ScenarioError(f"overpay for {party!r} pays on {min(outside)!r}, no deal chain")
    cbc = _section(sc, "cbc", _CBC)
    try:
        check_args(_CBC, cbc)
    except ValueError as exc:
        raise ScenarioError(f"cbc {exc}") from exc
    if sc["protocol"] == "cbc":
        if cbc["corrupt"] > cbc["f"]:
            raise ScenarioError("need corrupt <= f")
        if CBC_CHAIN in deal.chains():
            raise ScenarioError(f"chain {CBC_CHAIN!r} is the certified log's; no transfer may use it")
    n = len(deal.parties)
    default_horizon = deal.t0 + (n + 4) * deal.delta + 5
    if sc["protocol"] == "cbc":
        default_horizon = max(default_horizon, cbc["patience"] + cbc["grace"] + 6 * deal.delta)
    sc.setdefault("horizon", default_horizon)
    if not is_int(sc["horizon"]):
        raise ScenarioError("horizon must be an integer")
    if sc["horizon"] <= deal.t0 + (n + 2) * deal.delta:
        raise ScenarioError("horizon too small for the deal's timeout structure")
    return sc


def _copy_json(value):
    """A copy of JSON-shaped data sharing no dict or list with `value`."""
    if isinstance(value, dict):
        return {key: _copy_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_json(item) for item in value]
    return value


def _section(sc: dict, key: str, declared: Optional[dict] = None) -> dict:
    """Set `sc[key]` to the scenario's own object over the `declared`
    {key: (default, accepts)} defaults."""
    given = sc.get(key, {})
    if not isinstance(given, dict):
        raise ScenarioError(f"{key} must be an object")
    sc[key] = section = {name: default for name, (default, _) in (declared or {}).items()}
    section.update(given)
    return section


def load_scenario(path_or_name: str) -> dict:
    """Load a scenario file, or a bundled scenario by bare name."""
    path = path_or_name
    if not os.path.exists(path):
        candidate = bundled_path(path_or_name)
        if candidate is None:
            raise ScenarioError(f"no such scenario file or bundled name: {path_or_name!r}")
        path = candidate
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return validate_scenario(raw)


def bundled_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "scenarios")


def bundled_path(name: str) -> Optional[str]:
    candidate = os.path.join(bundled_dir(), f"{name}.json")
    return candidate if os.path.exists(candidate) else None


def list_bundled() -> List[str]:
    names = []
    for fn in sorted(os.listdir(bundled_dir())):
        if fn.endswith(".json"):
            names.append(fn[: -len(".json")])
    return names


@dataclass
class Built:
    world: World
    deal: DealSpec
    plan: DealPlan
    scenario: dict


def build_world(scenario: dict, seed: Optional[int] = None, choices=None) -> Built:
    """Validate the scenario, plan its deal, and construct its world."""
    return assemble_world(*prepare(scenario), seed, choices)


def prepare(
    scenario: dict, deal: Optional[DealSpec] = None
) -> Tuple[dict, DealSpec, Dict[str, AssetBundle], DealPlan]:
    """The validated scenario with its deal, starting holdings and plan.

    `deal`, if given, is the scenario's deal already parsed (see
    `validate_scenario`).  The deal answers its derived structure from a
    cache, filled here, before any run.  A deal whose gross flows hold one
    token twice, and wallets that cannot fund the script, raise
    `ScenarioError`."""
    sc = validate_scenario(scenario, deal)
    deal = sc.deal
    try:
        deal.cache_derived()
    except AssetError as exc:  # a party sends or receives one token twice
        raise ScenarioError(f"bad deal: {exc}") from exc
    holdings = wallet_holdings(sc)
    try:
        plan = build_plan(deal, holdings)
    except PlanError as exc:
        raise ScenarioError(f"infeasible deal: {exc}") from exc
    return sc, deal, holdings, plan


def wallet_holdings(sc: dict) -> Dict[str, AssetBundle]:
    """Each party's starting wallet in a validated scenario."""
    return {party: AssetBundle.from_json(wallet) for party, wallet in sc["wallets"].items()}


def assemble_world(
    sc: dict,
    deal: DealSpec,
    holdings: Dict[str, AssetBundle],
    plan: DealPlan,
    seed: Optional[int] = None,
    choices=None,
) -> Built:
    """Construct chains, contracts, validator service, and controllers.

    `sc`, `deal`, `holdings` and `plan` are what `prepare` returns;
    callers running many worlds from one scenario prepare it once.
    """
    run_seed = sc["seed"] if seed is None else seed
    world = World(sc, deal, run_seed, choices)

    # Each deal chain's starting balances; the certified chain holds no assets.
    chains = deal.chains()
    wallets = {chain_id: {"fungible": {}, "tokens": {}} for chain_id in chains}
    for party, bundle in holdings.items():
        unknown = bundle.chains() - wallets.keys()
        if unknown:
            raise ScenarioError(f"wallet references unknown chain {min(unknown)!r}")
        for (chain_id, kind), amount in bundle.fungible.items():
            wallets[chain_id]["fungible"].setdefault(party, {})[kind] = amount
        for chain_id, token in bundle.tokens:
            wallets[chain_id]["tokens"][token] = party

    skew_max = sc["network"]["skew_max"]
    skew_rng = random.Random(f"skew-{run_seed}") if skew_max else None
    protocol = sc["protocol"]
    for chain_id in chains:
        skew = skew_rng.randint(0, skew_max) if skew_rng else 0
        contract = EscrowContract(
            chain_id, deal.deal_id, deal.parties, deal.t0, deal.delta, protocol, wallets[chain_id]
        )
        world.add_chain(chain_id, contract, skew)

    validators: Tuple[str, ...] = ()
    if protocol == "cbc":
        world.add_chain(CBC_CHAIN, CbcLogContract())
        world.validator_service = ValidatorService.for_scenario(world.scheme, sc["cbc"])
        validators = world.validator_service.members(0)

    cfg = PartyConfig(sc["cbc"]["grace"], sc["cbc"]["patience"], validators, sc["cbc"]["f"])
    for party in deal.parties:
        binding = sc["strategies"].get(party, {"name": "compliant"})
        name = binding.get("name", "compliant")
        controller = controller_class(name, protocol)(party, deal, plan, cfg, binding.get("params", {}))
        watched = plan.chains_of_interest(party)
        if protocol == "cbc":
            watched = sorted([*watched, CBC_CHAIN])  # no deal chain of a CBC run is CBC_CHAIN
        world.add_party(party, controller, watched)
        if name == "compliant":
            world.compliant.add(party)
    return Built(world, deal, plan, sc)


def run_scenario(scenario: dict, seed: Optional[int] = None, choices=None):
    built = build_world(scenario, seed=seed, choices=choices)
    trace = built.world.run()
    return built, trace


# ---------------------------------------------------------------------------
# Bundled scenario builders.  The JSON files under scenarios/ are generated
# from these; tests and campaigns use the builders directly for variants.
# ---------------------------------------------------------------------------


def scenario_for(deal: dict, wallets: dict, protocol: str, seed: int, name: str) -> dict:
    """A synchronous, all-compliant scenario running `deal` from `wallets`.

    `deal` and each wallet are JSON, as `DealSpec.to_json` and `AssetBundle.to_json`
    give them.  CBC validators tolerate one fault, and none is corrupt.
    """
    delta = deal["delta"]
    return {
        "name": name,
        "protocol": protocol,
        "seed": seed,
        "network": {"mode": "synchronous", "delta": delta},
        "wallets": wallets,
        "deal": deal,
        "strategies": {},
        "cbc": {"f": 1, "corrupt": 0, "grace": 2 * delta, "patience": deal["t0"] + 4 * delta},
    }


def _bundle(*coins, tokens=()) -> dict:
    """Bundle JSON of (chain, kind, amount) coins and (chain, token) tokens, in sorted order."""
    return {"fungible": [list(c) for c in coins], "tokens": [list(t) for t in tokens]}


def _deal(deal_id: str, parties: list, t0: int, delta: int, *script) -> dict:
    """Deal JSON whose i-th (sender, receiver, bundle) transfer runs at step i."""
    transfers = [
        {"from": sender, "to": receiver, "step": i, "bundle": bundle}
        for i, (sender, receiver, bundle) in enumerate(script)
    ]
    return {"id": deal_id, "parties": parties, "t0": t0, "delta": delta, "transfers": transfers}


def ticket_deal(protocol: str = "timelock", seed: int = 42, delta: int = 5, t0: int = 30) -> dict:
    """The three-party broker deal: tickets for coins with a 1-coin commission."""
    tickets = (("ticket", "tkt1"), ("ticket", "tkt2"))
    deal = _deal(
        "ticket-deal", ["alice", "bob", "carol"], t0, delta,
        ("bob", "alice", _bundle(tokens=tickets)),
        ("alice", "carol", _bundle(tokens=tickets)),
        ("carol", "alice", _bundle(("coin", "coin", 101))),
        ("alice", "bob", _bundle(("coin", "coin", 100))),
    )
    # alice only brokers, and carol holds more than the 101 coins she pays.
    wallets = {"bob": _bundle(tokens=tickets), "carol": _bundle(("coin", "coin", 150))}
    return scenario_for(deal, wallets, protocol, seed, f"ticket_deal_{protocol}")


def dual_broker_deal(protocol: str = "timelock", seed: int = 7, delta: int = 5, t0: int = 30) -> dict:
    """Two coin kinds brokered through a middle party holding inventory of both."""
    deal = _deal(
        "dual-broker", ["alice", "bob", "carol"], t0, delta,
        ("bob", "alice", _bundle(("bcoin", "b-coin", 101))),
        ("alice", "carol", _bundle(("bcoin", "b-coin", 100))),
        ("carol", "alice", _bundle(("ccoin", "c-coin", 101))),
        ("alice", "bob", _bundle(("ccoin", "c-coin", 100))),
    )
    wallets = {
        "bob": _bundle(("bcoin", "b-coin", 101)),
        "carol": _bundle(("ccoin", "c-coin", 101)),
        "alice": _bundle(("bcoin", "b-coin", 100), ("ccoin", "c-coin", 100)),
    }
    return scenario_for(deal, wallets, protocol, seed, f"dual_broker_{protocol}")


def swap_deal(protocol: str = "timelock", seed: int = 3, delta: int = 5, t0: int = 20) -> dict:
    """Two-party swap: one x-coin lot against one y-coin lot."""
    deal = _deal(
        "swap-deal", ["ann", "ben"], t0, delta,
        ("ann", "ben", _bundle(("xchain", "x-coin", 10))),
        ("ben", "ann", _bundle(("ychain", "y-coin", 20))),
    )
    wallets = {"ann": _bundle(("xchain", "x-coin", 10)), "ben": _bundle(("ychain", "y-coin", 20))}
    return scenario_for(deal, wallets, protocol, seed, f"swap_{protocol}")


def cycle_deal(n: int = 3, protocol: str = "timelock", seed: int = 5, delta: int = 5, t0: int = 20) -> dict:
    """n-party cycle: party i pays 10 coins of its own chain to party i+1."""
    parties = [f"p{i}" for i in range(n)]
    coins = [(f"chain{i}", f"kind{i}", 10) for i in range(n)]
    deal = _deal(
        f"cycle-{n}", parties, t0, delta,
        *[(parties[i], parties[(i + 1) % n], _bundle(coins[i])) for i in range(n)],
    )
    wallets = {parties[i]: _bundle(coins[i]) for i in range(n)}
    return scenario_for(deal, wallets, protocol, seed, f"cycle{n}_{protocol}")


def _variant(sc: dict, name: str, **sections: dict) -> dict:
    """`sc` renamed to `name`, with each named section updated."""
    sc["name"] = name
    for key, changes in sections.items():
        sc[key].update(changes)
    return sc


def _play(strategy: str, **params) -> dict:
    return {"name": strategy, "params": params}


def bundled_scenarios() -> Dict[str, dict]:
    """The corpus shipped as scenario files (name -> scenario dict)."""
    delta = 5
    swap_t0 = 20
    corpus = [
        ticket_deal("timelock", seed=42),
        ticket_deal("cbc", seed=43),
        _variant(
            dual_broker_deal("timelock", seed=7), "virus_alice_timelock",
            strategies={"alice": _play("selective_communication", ignore=["bob"])},
        ),
        _variant(
            ticket_deal("cbc", seed=11), "overpay_carol_cbc",
            wallets={"carol": _bundle(("coin", "coin", 1100))},
            strategies={"carol": _play("overpay", step=2, extra=[["coin", "coin", 900]])},
        ),
        _variant(
            ticket_deal("timelock", seed=13), "silent_party_timelock",
            strategies={"carol": _play("silent_crash", phase="commit")},
        ),
        _variant(
            ticket_deal("cbc", seed=14), "silent_party_cbc",
            strategies={"carol": _play("silent_crash", phase="commit")},
        ),
        _variant(
            swap_deal("naive", seed=17, t0=swap_t0), "naive_timeout_regression",
            strategies={
                "ann": _play("late_claim", vote_at=swap_t0 + 2 * delta - 1, forward_with_vote=True)
            },
        ),
        _variant(
            ticket_deal("cbc", seed=19), "corrupt_validator_cbc",
            cbc={"corrupt": 1},
            strategies={"carol": _play("fake_certificate", status="aborted")},
        ),
        _variant(
            ticket_deal("cbc", seed=23), "pre_gst_delay_storm_cbc",
            network={"mode": "semi-synchronous", "gst": 400, "pre_gst_cap": 120},
        ) | {"horizon": 700},
        _variant(
            swap_deal("timelock", seed=29), "abort_zero_cost_timelock",
            strategies={"ann": _play("withhold_vote"), "ben": _play("withhold_vote")},
        ),
        _variant(
            ticket_deal("timelock", seed=31), "abort_near_commit_cost_timelock",
            strategies={"carol": _play("withhold_vote")},
        ),
        _variant(ticket_deal("cbc", seed=37), "reconfigured_cbc", cbc={"reconfigurations": 1}),
        _variant(
            swap_deal("timelock", seed=1), "explore_swap_timelock",
            network={"latency_menu": [1, delta]},
            strategies={"ann": _play("explored")},
        ),
        _variant(
            swap_deal("naive", seed=1), "explore_swap_naive",
            network={"latency_menu": [1, delta]},
            strategies={"ann": _play("explored")},
        ),
        _variant(
            cycle_deal(3, "timelock", seed=2, t0=20), "explore_cycle3_timelock",
            network={"latency_menu": [1, delta], "explore_from": 20},
            strategies={"p0": _play("explored")},
        ),
        _variant(
            ticket_deal("timelock", seed=4, t0=30), "explore_ticket_allcompliant",
            network={"latency_menu": [1, delta], "explore_from": 30},
        ),
    ]
    return {sc["name"]: sc for sc in corpus}


def write_bundled_files(target_dir: Optional[str] = None):
    """Regenerate the scenario corpus on disk (used at packaging time)."""
    target = target_dir or bundled_dir()
    os.makedirs(target, exist_ok=True)
    for name, sc in bundled_scenarios().items():
        sc = validate_scenario(sc)
        with open(os.path.join(target, f"{name}.json"), "w") as fh:
            json.dump(sc, fh, indent=1, sort_keys=True)
            fh.write("\n")

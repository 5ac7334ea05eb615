"""Scenario files: the single input describing one simulation.

A scenario is a JSON document with the deal, starting wallets, network
model, protocol choice, per-party strategy bindings, and the seed that
drives every random choice in the run.  `build_world` turns a scenario
into a ready-to-run world; the builders at the bottom generate the
bundled corpus.

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
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from .assets import AssetBundle
from .cbc import CBC_CHAIN, CbcLogContract, ValidatorService
from .deals import DealSpec
from .escrow import EscrowContract
from .ledger import NetworkModel, World
from .parties import PROTOCOLS, STRATEGIES, PartyConfig, controller_class
from .planning import DealPlan, build_plan
from .trace import payload_digest


class ScenarioError(ValueError):
    """The scenario file is malformed or inconsistent."""


_NETWORK_DEFAULTS = {
    "mode": "synchronous",
    "delta": 5,
    "gst": 0,
    "pre_gst_cap": None,
    "skew_max": 0,
    "latency_menu": None,
    "allow_model_violation": False,
}

_NETWORK_KEYS = frozenset(f.name for f in fields(NetworkModel) if f.init)

_CBC_DEFAULTS = {"f": 1, "corrupt": 0, "grace": 10, "patience": 60, "reconfigurations": 0}


def validate_scenario(raw: dict) -> dict:
    """Fill defaults and reject inconsistent scenarios; returns a new dict."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    sc = _copy_json(raw)
    for key in ("protocol", "deal"):
        if key not in sc:
            raise ScenarioError(f"scenario missing {key!r}")
    if sc["protocol"] not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {sc['protocol']!r}")
    sc.setdefault("name", "unnamed")
    sc.setdefault("seed", 0)
    if not isinstance(sc["seed"], int):
        raise ScenarioError("seed must be an integer")
    network = _section(sc, "network", _NETWORK_DEFAULTS)
    unknown = network.keys() - _NETWORK_KEYS
    if unknown:
        raise ScenarioError(f"unknown network keys {sorted(unknown)}")
    if network["mode"] not in ("synchronous", "semi-synchronous"):
        raise ScenarioError(f"unknown network mode {network['mode']!r}")
    _require_ints("network", network, ("delta", "gst", "skew_max"), ("pre_gst_cap", "explore_from"))
    menu = network["latency_menu"]
    if menu is not None and not (isinstance(menu, list) and all(_is_int(l) for l in menu)):
        raise ScenarioError("network latency_menu must be a list of integers")
    if network["delta"] <= 0:
        raise ScenarioError("delta must be positive")
    try:
        deal = DealSpec.from_json(sc["deal"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad deal: {exc}") from exc
    if deal.delta != network["delta"]:
        raise ScenarioError("deal delta and network delta must agree")
    for party, wallet in _section(sc, "wallets", {}).items():
        if party not in deal.parties:
            raise ScenarioError(f"wallet for unknown party {party!r}")
        try:
            AssetBundle.from_json(wallet)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad wallet for {party!r}: {exc}") from exc
    for party, binding in _section(sc, "strategies", {}).items():
        if party not in deal.parties:
            raise ScenarioError(f"strategy bound to unknown party {party!r}")
        if not isinstance(binding, dict) or not isinstance(binding.get("params", {}), dict):
            raise ScenarioError(f"strategy for {party!r} must be an object with object params")
        if binding.get("name", "compliant") not in STRATEGIES:
            raise ScenarioError(f"unknown strategy {binding.get('name')!r}")
    cbc = _section(sc, "cbc", _CBC_DEFAULTS)
    _require_ints("cbc", cbc, tuple(_CBC_DEFAULTS))
    if sc["protocol"] == "cbc":
        if cbc["f"] < 0 or cbc["corrupt"] > cbc["f"]:
            raise ScenarioError("need 0 <= corrupt <= f")
        if cbc["reconfigurations"] not in (0, 1):
            raise ScenarioError("at most one reconfiguration step is supported")
    n = len(deal.parties)
    default_horizon = deal.t0 + (n + 4) * deal.delta + 5
    if sc["protocol"] == "cbc":
        default_horizon = max(default_horizon, cbc["patience"] + cbc["grace"] + 6 * deal.delta)
    sc.setdefault("horizon", default_horizon)
    if not _is_int(sc["horizon"]):
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


def _section(sc: dict, key: str, defaults: dict) -> dict:
    """Set `sc[key]` to the defaults updated by the scenario's own object."""
    given = sc.get(key, {})
    if not isinstance(given, dict):
        raise ScenarioError(f"{key} must be an object")
    sc[key] = section = dict(defaults)
    section.update(given)
    return section


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_ints(name: str, section: dict, keys, optional=()):
    for key in keys:
        if not _is_int(section[key]):
            raise ScenarioError(f"{name} {key} must be an integer")
    for key in optional:
        if section.get(key) is not None and not _is_int(section[key]):
            raise ScenarioError(f"{name} {key} must be an integer or null")


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
    sc = validate_scenario(scenario)
    deal = DealSpec.from_json(sc["deal"])
    holdings = wallet_holdings(sc)
    return assemble_world(sc, deal, holdings, build_plan(deal, holdings), seed, choices)


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

    `sc` must be validated, and `deal`, `holdings` and `plan` derived from
    it as `build_world` derives them; callers running many worlds from one
    scenario derive them once.
    """
    run_seed = sc["seed"] if seed is None else seed
    network = NetworkModel(**sc["network"])
    world = World(sc, network, run_seed, sc["horizon"], choices, payload_digest(sc))
    world.register_deal(deal.deal_id)

    skew_rng = random.Random(f"skew-{run_seed}")
    protocol = sc["protocol"]
    for chain_id in deal.chains():
        skew = skew_rng.randint(0, network.skew_max) if network.skew_max else 0
        contract = EscrowContract(
            chain_id, deal.deal_id, deal.parties, deal.t0, deal.delta, protocol
        )
        world.add_chain(chain_id, contract, skew)

    validators: Tuple[str, ...] = ()
    if protocol == "cbc":
        world.add_chain(CBC_CHAIN, CbcLogContract())
        service = ValidatorService(world.scheme, sc["cbc"]["f"], sc["cbc"]["corrupt"])
        for _ in range(sc["cbc"]["reconfigurations"]):
            service.reconfigure()
        world.validator_service = service
        validators = service.members(0)

    for party, bundle in holdings.items():
        for (chain_id, kind), amount in bundle.fungible.items():
            if chain_id not in world.chains:
                raise ScenarioError(f"wallet references unknown chain {chain_id!r}")
            world.chains[chain_id].wallets.deposit_fungible(party, kind, amount)
        for chain_id, token in bundle.tokens:
            if chain_id not in world.chains:
                raise ScenarioError(f"wallet references unknown chain {chain_id!r}")
            world.chains[chain_id].wallets.set_token_owner(token, party)

    def chains_of_interest(party: str) -> List[str]:
        lots = set(plan.source_lots(party)) | set(plan.voting_lots(party))
        lots |= set(plan.escrowed_lots(party)) | set(plan.entitlement_lots(party))
        chains = {lot[0] for lot in lots}
        if protocol == "cbc":
            chains.add(CBC_CHAIN)
        return sorted(chains)

    for party in deal.parties:
        binding = sc["strategies"].get(party, {"name": "compliant"})
        name = binding.get("name", "compliant")
        params = binding.get("params", {})
        cfg = PartyConfig(
            altruistic=bool(params.get("altruistic", False)),
            validation_verdict=params.get("validation_verdict", "accept-if-acceptable"),
            grace=sc["cbc"]["grace"],
            patience=sc["cbc"]["patience"],
            validators=validators,
            f=sc["cbc"]["f"],
        )
        controller = controller_class(name, protocol)(party, deal, plan, cfg, params)
        world.add_party(party, controller, chains_of_interest(party))
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


def _bundle_json(fungible=None, tokens=None) -> dict:
    return AssetBundle(fungible or {}, tokens or []).to_json()


def ticket_deal(protocol: str = "timelock", seed: int = 42, delta: int = 5, t0: int = 30) -> dict:
    """The three-party broker deal: tickets for coins with a 1-coin commission."""
    return {
        "name": f"ticket_deal_{protocol}",
        "protocol": protocol,
        "seed": seed,
        "network": {"mode": "synchronous", "delta": delta},
        "wallets": {
            "bob": _bundle_json(tokens=[["ticket", "tkt1"], ["ticket", "tkt2"]]),
            "carol": _bundle_json({("coin", "coin"): 150}),
        },
        "deal": {
            "id": "ticket-deal",
            "parties": ["alice", "bob", "carol"],
            "t0": t0,
            "delta": delta,
            "transfers": [
                {
                    "from": "bob",
                    "to": "alice",
                    "step": 0,
                    "bundle": _bundle_json(tokens=[["ticket", "tkt1"], ["ticket", "tkt2"]]),
                },
                {
                    "from": "alice",
                    "to": "carol",
                    "step": 1,
                    "bundle": _bundle_json(tokens=[["ticket", "tkt1"], ["ticket", "tkt2"]]),
                },
                {
                    "from": "carol",
                    "to": "alice",
                    "step": 2,
                    "bundle": _bundle_json({("coin", "coin"): 101}),
                },
                {
                    "from": "alice",
                    "to": "bob",
                    "step": 3,
                    "bundle": _bundle_json({("coin", "coin"): 100}),
                },
            ],
        },
        "strategies": {},
        "cbc": {"f": 1, "corrupt": 0, "grace": 2 * delta, "patience": t0 + 4 * delta},
    }


def dual_broker_deal(protocol: str = "timelock", seed: int = 7, delta: int = 5, t0: int = 30) -> dict:
    """Two coin kinds brokered through a middle party holding inventory of both."""
    return {
        "name": f"dual_broker_{protocol}",
        "protocol": protocol,
        "seed": seed,
        "network": {"mode": "synchronous", "delta": delta},
        "wallets": {
            "bob": _bundle_json({("bcoin", "b-coin"): 101}),
            "carol": _bundle_json({("ccoin", "c-coin"): 101}),
            "alice": _bundle_json({("bcoin", "b-coin"): 100, ("ccoin", "c-coin"): 100}),
        },
        "deal": {
            "id": "dual-broker",
            "parties": ["alice", "bob", "carol"],
            "t0": t0,
            "delta": delta,
            "transfers": [
                {
                    "from": "bob",
                    "to": "alice",
                    "step": 0,
                    "bundle": _bundle_json({("bcoin", "b-coin"): 101}),
                },
                {
                    "from": "alice",
                    "to": "carol",
                    "step": 1,
                    "bundle": _bundle_json({("bcoin", "b-coin"): 100}),
                },
                {
                    "from": "carol",
                    "to": "alice",
                    "step": 2,
                    "bundle": _bundle_json({("ccoin", "c-coin"): 101}),
                },
                {
                    "from": "alice",
                    "to": "bob",
                    "step": 3,
                    "bundle": _bundle_json({("ccoin", "c-coin"): 100}),
                },
            ],
        },
        "strategies": {},
        "cbc": {"f": 1, "corrupt": 0, "grace": 2 * delta, "patience": t0 + 4 * delta},
    }


def swap_deal(protocol: str = "timelock", seed: int = 3, delta: int = 5, t0: int = 20) -> dict:
    """Two-party swap: one x-coin lot against one y-coin lot."""
    return {
        "name": f"swap_{protocol}",
        "protocol": protocol,
        "seed": seed,
        "network": {"mode": "synchronous", "delta": delta},
        "wallets": {
            "ann": _bundle_json({("xchain", "x-coin"): 10}),
            "ben": _bundle_json({("ychain", "y-coin"): 20}),
        },
        "deal": {
            "id": "swap-deal",
            "parties": ["ann", "ben"],
            "t0": t0,
            "delta": delta,
            "transfers": [
                {
                    "from": "ann",
                    "to": "ben",
                    "step": 0,
                    "bundle": _bundle_json({("xchain", "x-coin"): 10}),
                },
                {
                    "from": "ben",
                    "to": "ann",
                    "step": 1,
                    "bundle": _bundle_json({("ychain", "y-coin"): 20}),
                },
            ],
        },
        "strategies": {},
        "cbc": {"f": 1, "corrupt": 0, "grace": 2 * delta, "patience": t0 + 4 * delta},
    }


def cycle_deal(n: int = 3, protocol: str = "timelock", seed: int = 5, delta: int = 5, t0: int = 20) -> dict:
    """n-party cycle: party i pays 10 coins of its own chain to party i+1."""
    parties = [f"p{i}" for i in range(n)]
    wallets = {
        parties[i]: _bundle_json({(f"chain{i}", f"kind{i}"): 10}) for i in range(n)
    }
    transfers = [
        {
            "from": parties[i],
            "to": parties[(i + 1) % n],
            "step": i,
            "bundle": _bundle_json({(f"chain{i}", f"kind{i}"): 10}),
        }
        for i in range(n)
    ]
    return {
        "name": f"cycle{n}_{protocol}",
        "protocol": protocol,
        "seed": seed,
        "network": {"mode": "synchronous", "delta": delta},
        "wallets": wallets,
        "deal": {
            "id": f"cycle-{n}",
            "parties": parties,
            "t0": t0,
            "delta": delta,
            "transfers": transfers,
        },
        "strategies": {},
        "cbc": {"f": 1, "corrupt": 0, "grace": 2 * delta, "patience": t0 + 4 * delta},
    }


def bundled_scenarios() -> Dict[str, dict]:
    """The corpus shipped as scenario files (name -> scenario dict)."""
    delta = 5
    out: Dict[str, dict] = {}

    out["ticket_deal_timelock"] = ticket_deal("timelock", seed=42)
    out["ticket_deal_cbc"] = ticket_deal("cbc", seed=43)

    virus = dual_broker_deal("timelock", seed=7)
    virus["name"] = "virus_alice_timelock"
    virus["strategies"] = {
        "alice": {"name": "selective_communication", "params": {"ignore": ["bob"]}}
    }
    out["virus_alice_timelock"] = virus

    overpay = ticket_deal("cbc", seed=11)
    overpay["name"] = "overpay_carol_cbc"
    overpay["wallets"]["carol"] = _bundle_json({("coin", "coin"): 1100})
    overpay["strategies"] = {
        "carol": {"name": "overpay", "params": {"step": 2, "extra": [["coin", "coin", 900]]}}
    }
    out["overpay_carol_cbc"] = overpay

    silent_tl = ticket_deal("timelock", seed=13)
    silent_tl["name"] = "silent_party_timelock"
    silent_tl["strategies"] = {"carol": {"name": "silent_crash", "params": {"phase": "commit"}}}
    out["silent_party_timelock"] = silent_tl

    silent_cbc = ticket_deal("cbc", seed=14)
    silent_cbc["name"] = "silent_party_cbc"
    silent_cbc["strategies"] = {"carol": {"name": "silent_crash", "params": {"phase": "commit"}}}
    out["silent_party_cbc"] = silent_cbc

    naive = swap_deal("naive", seed=17)
    naive["name"] = "naive_timeout_regression"
    naive["strategies"] = {
        "ann": {
            "name": "late_claim",
            "params": {"vote_at": naive["deal"]["t0"] + 2 * delta - 1, "forward_with_vote": True},
        }
    }
    out["naive_timeout_regression"] = naive

    corrupt = ticket_deal("cbc", seed=19)
    corrupt["name"] = "corrupt_validator_cbc"
    corrupt["cbc"]["corrupt"] = 1
    corrupt["strategies"] = {
        "carol": {"name": "fake_certificate", "params": {"status": "aborted"}}
    }
    out["corrupt_validator_cbc"] = corrupt

    storm = ticket_deal("cbc", seed=23)
    storm["name"] = "pre_gst_delay_storm_cbc"
    storm["network"] = {
        "mode": "semi-synchronous",
        "delta": delta,
        "gst": 400,
        "pre_gst_cap": 120,
    }
    storm["horizon"] = 700
    out["pre_gst_delay_storm_cbc"] = storm

    zero = swap_deal("timelock", seed=29)
    zero["name"] = "abort_zero_cost_timelock"
    zero["strategies"] = {
        "ann": {"name": "withhold_vote", "params": {}},
        "ben": {"name": "withhold_vote", "params": {}},
    }
    out["abort_zero_cost_timelock"] = zero

    near = ticket_deal("timelock", seed=31)
    near["name"] = "abort_near_commit_cost_timelock"
    near["strategies"] = {"carol": {"name": "withhold_vote", "params": {}}}
    out["abort_near_commit_cost_timelock"] = near

    reconf = ticket_deal("cbc", seed=37)
    reconf["name"] = "reconfigured_cbc"
    reconf["cbc"]["reconfigurations"] = 1
    out["reconfigured_cbc"] = reconf

    explore_swap = swap_deal("timelock", seed=1)
    explore_swap["name"] = "explore_swap_timelock"
    explore_swap["network"]["latency_menu"] = [1, delta]
    explore_swap["strategies"] = {"ann": {"name": "explored", "params": {}}}
    out["explore_swap_timelock"] = explore_swap

    explore_naive = swap_deal("naive", seed=1)
    explore_naive["name"] = "explore_swap_naive"
    explore_naive["network"]["latency_menu"] = [1, delta]
    explore_naive["strategies"] = {"ann": {"name": "explored", "params": {}}}
    out["explore_swap_naive"] = explore_naive

    explore_cycle = cycle_deal(3, "timelock", seed=2)
    explore_cycle["name"] = "explore_cycle3_timelock"
    explore_cycle["network"]["latency_menu"] = [1, delta]
    explore_cycle["network"]["explore_from"] = explore_cycle["deal"]["t0"]
    explore_cycle["strategies"] = {"p0": {"name": "explored", "params": {}}}
    out["explore_cycle3_timelock"] = explore_cycle

    explore_ticket = ticket_deal("timelock", seed=4, t0=30)
    explore_ticket["name"] = "explore_ticket_allcompliant"
    explore_ticket["network"]["latency_menu"] = [1, delta]
    explore_ticket["network"]["explore_from"] = explore_ticket["deal"]["t0"]
    out["explore_ticket_allcompliant"] = explore_ticket

    return out


def write_bundled_files(target_dir: Optional[str] = None):
    """Regenerate the scenario corpus on disk (used at packaging time)."""
    target = target_dir or bundled_dir()
    os.makedirs(target, exist_ok=True)
    for name, sc in bundled_scenarios().items():
        sc = validate_scenario(sc)
        with open(os.path.join(target, f"{name}.json"), "w") as fh:
            json.dump(sc, fh, indent=1, sort_keys=True)
            fh.write("\n")

"""Package structure and the strategy registry.

The module graph must stay acyclic with every package import at module
level, and the strategy registry must describe and build the same catalog
the hand-kept tables used to.
"""

import ast
import graphlib
import pathlib
import random

import pytest

import dealsim
from dealsim import parties
from dealsim.adversary import builtin_strategies
from dealsim.parties import (
    PARTY_OPTIONS, PROTOCOLS, REQUIRED, STRATEGIES, CbcParty, CompliantParty, TimelockParty,
    check_args,
)
from dealsim.scenario import (
    build_world, bundled_scenarios, cycle_deal, dual_broker_deal, swap_deal, ticket_deal,
    validate_scenario,
)

from conftest import run_scenario_dict

PACKAGE = pathlib.Path(dealsim.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

ALL = ["timelock", "naive", "cbc"]
TIMELOCK = ["timelock", "naive"]
CATALOG = {
    "compliant": {"params": [], "protocols": ALL},
    "silent_crash": {"params": ["at", "phase"], "protocols": ALL},
    "offline_window": {"params": ["from", "until"], "protocols": ALL},
    "selective_communication": {"params": ["ignore"], "protocols": TIMELOCK},
    "overpay": {"params": ["step", "extra"], "protocols": ALL},
    "withhold_vote": {"params": [], "protocols": ALL},
    "vote_no_forward": {"params": [], "protocols": TIMELOCK},
    "replay_votes": {"params": [], "protocols": TIMELOCK},
    "late_claim": {"params": ["vote_at", "forward_at", "forward_with_vote"], "protocols": TIMELOCK},
    "forged_signature": {"params": ["victim", "attempts", "salt"], "protocols": TIMELOCK},
    "fake_certificate": {"params": ["status"], "protocols": ["cbc"]},
    "abort_after_commit": {"params": [], "protocols": ["cbc"]},
    "explored": {"params": [], "protocols": TIMELOCK},
}


def package_imports(node):
    """Names of the dealsim modules imported anywhere under `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.level == 1:
            if sub.module:
                yield sub.module
            else:
                yield from (alias.name for alias in sub.names if alias.name in MODULES)
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").startswith("dealsim"):
            yield sub.module.removeprefix("dealsim").lstrip(".") or "__init__"
        elif isinstance(sub, ast.Import):
            for alias in sub.names:
                if alias.name.startswith("dealsim"):
                    yield alias.name.removeprefix("dealsim").lstrip(".") or "__init__"


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


class TestModuleGraph:
    def test_import_graph_is_acyclic(self):
        graph = {module: set(package_imports(parse(module))) for module in MODULES}
        for module, deps in graph.items():
            assert deps <= set(MODULES), (module, deps)
        graphlib.TopologicalSorter(graph).prepare()  # raises CycleError

    @pytest.mark.parametrize("module", MODULES)
    def test_no_function_imports_a_package_module(self, module):
        for node in ast.walk(parse(module)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not list(package_imports(node)), (module, node.name)

    @pytest.mark.parametrize("module", MODULES + ["__init__"])
    def test_no_broad_exception_handler(self, module):
        """A handler names the errors it expects: no bare `except:`, and no
        `Exception` or `BaseException`, alone or in a tuple."""
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                names = {c.id for c in caught if isinstance(c, ast.Name)}
                assert node.type is not None, (module, node.lineno, "bare except")
                assert not names & {"Exception", "BaseException"}, (module, node.lineno)


class TestRegistry:
    def test_catalog_matches_the_strategy_table(self):
        assert builtin_strategies() == CATALOG

    def test_strategies_are_module_level_controllers(self):
        for name, cls in STRATEGIES.items():
            assert issubclass(cls, CompliantParty)
            assert getattr(parties, cls.__name__) is cls

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_built_controller_plays_strategy_where_covered(self, name, protocol):
        scenario = ticket_deal(protocol)
        params = STRATEGIES[name].random_params(scenario, random.Random(0))
        scenario["strategies"] = {"bob": {"name": name, "params": params}}
        controller = build_world(scenario).world.controllers["bob"]
        covered = protocol in CATALOG[name]["protocols"]
        assert controller.strategy_name == (name if covered else "compliant")
        assert isinstance(controller, CbcParty if protocol == "cbc" else TimelockParty)

    def test_timelock_only_strategy_plays_compliant_under_cbc(self):
        scenario = ticket_deal("cbc")
        scenario["strategies"] = {"bob": {"name": "vote_no_forward", "params": {}}}
        built, trace = run_scenario_dict(scenario)
        assert type(built.world.controllers["bob"]) is CbcParty
        assert {res for res, _ in trace.resolutions.values()} == {"committed"}


class TestParamDeclarations:
    """Every value the program itself writes passes the declaration that
    validation checks bindings against."""

    def test_defaults_bundled_bindings_and_campaign_draws_are_accepted(self):
        for cls in STRATEGIES.values():
            for name, declaration in {**PARTY_OPTIONS, **cls.params}.items():
                if declaration[0] is not REQUIRED:
                    check_args({name: declaration}, {name: declaration[0]})
        for scenario in bundled_scenarios().values():
            for binding in scenario["strategies"].values():
                declared = {**PARTY_OPTIONS, **STRATEGIES[binding["name"]].params}
                check_args(declared, binding.get("params", {}))
        for builder in (ticket_deal, dual_broker_deal, swap_deal, lambda p: cycle_deal(4, p)):
            for protocol in PROTOCOLS:
                scenario = validate_scenario(builder(protocol))
                for cls in STRATEGIES.values():
                    for seed in range(8):
                        params = cls.random_params(scenario, random.Random(seed))
                        check_args({**PARTY_OPTIONS, **cls.params}, params)

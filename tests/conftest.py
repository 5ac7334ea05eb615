import pytest

from dealsim.scenario import _NETWORK, build_world, bundled_scenarios


@pytest.fixture(scope="session")
def corpus():
    return bundled_scenarios()


def idle_scenario(horizon, **network):
    """The part of a checked scenario a test-built `World` reads: the
    declared network defaults, updated by `network`, and `horizon`."""
    defaults = {key: default for key, (default, _) in _NETWORK.items()}
    return {"deal": {"parties": []}, "network": {**defaults, **network}, "horizon": horizon}


def run_scenario_dict(scenario, seed=None):
    built = build_world(scenario, seed=seed)
    trace = built.world.run()
    return built, trace


@pytest.fixture(scope="session")
def ticket_timelock_run(corpus):
    return run_scenario_dict(corpus["ticket_deal_timelock"])


@pytest.fixture(scope="session")
def ticket_cbc_run(corpus):
    return run_scenario_dict(corpus["ticket_deal_cbc"])


@pytest.fixture(scope="session")
def virus_run(corpus):
    return run_scenario_dict(corpus["virus_alice_timelock"])

"""Scenario schema validation, bundled corpus integrity, and planning."""

import copy
import hashlib
import json
import pathlib

import pytest

from dealsim.adversary import exhaustive_explore
from dealsim.assets import AssetBundle
from dealsim.deals import DealSpec, TransferSpec, payoff_of_run
from dealsim.planning import PlanError, build_plan
from dealsim.scenario import (
    ScenarioError,
    bundled_dir,
    bundled_scenarios,
    build_world,
    list_bundled,
    load_scenario,
    prepare,
    run_scenario,
    scenario_for,
    swap_deal,
    ticket_deal,
    validate_scenario,
    write_bundled_files,
)


class TestValidation:
    def test_defaults_filled(self):
        sc = validate_scenario(ticket_deal("timelock"))
        assert sc["network"]["mode"] == "synchronous"
        assert sc["horizon"] > sc["deal"]["t0"]

    def test_unknown_protocol_rejected(self):
        sc = ticket_deal("timelock")
        sc["protocol"] = "quantum"
        with pytest.raises(ScenarioError):
            validate_scenario(sc)

    def test_unknown_strategy_rejected(self):
        sc = ticket_deal("timelock")
        sc["strategies"] = {"alice": {"name": "not_a_strategy"}}
        with pytest.raises(ScenarioError):
            validate_scenario(sc)

    def test_deal_without_id_rejected(self):
        sc = ticket_deal("timelock")
        del sc["deal"]["id"]
        with pytest.raises(ScenarioError, match="bad deal"):
            validate_scenario(sc)

    def test_deal_with_non_integer_amount_rejected(self):
        sc = ticket_deal("timelock")
        transfer = next(t for t in sc["deal"]["transfers"] if t["bundle"]["fungible"])
        chain, kind, amount = transfer["bundle"]["fungible"][0]
        transfer["bundle"]["fungible"][0] = [chain, kind, str(amount)]
        with pytest.raises(ScenarioError, match="bad deal"):
            validate_scenario(sc)

    def test_strategy_for_unknown_party_rejected(self):
        sc = ticket_deal("timelock")
        sc["strategies"] = {"mallory": {"name": "compliant"}}
        with pytest.raises(ScenarioError):
            validate_scenario(sc)

    def test_horizon_must_clear_timeout_structure(self):
        sc = ticket_deal("timelock")
        sc["horizon"] = sc["deal"]["t0"] + 1
        with pytest.raises(ScenarioError):
            validate_scenario(sc)

    def test_corrupt_bounded_by_f(self):
        sc = ticket_deal("cbc")
        sc["cbc"]["corrupt"] = 2  # f is 1
        with pytest.raises(ScenarioError):
            validate_scenario(sc)

    @pytest.mark.parametrize("protocol", ["timelock", "naive", "cbc"])
    def test_the_certified_chain_name_is_reserved_under_cbc(self, protocol):
        sc = json.loads(json.dumps(swap_deal(protocol)).replace('"xchain"', '"cbc"'))
        if protocol == "cbc":
            with pytest.raises(ScenarioError, match="'cbc' is the certified log's"):
                validate_scenario(sc)
        else:  # without a certified log, the name is an ordinary chain's
            _, trace = run_scenario(sc)
            assert {res for res, _ in trace.resolutions.values()} == {"committed"}
            assert sorted(trace.resolutions) == ["cbc/ann", "ychain/ben"]

    def test_deal_and_network_delta_must_agree(self):
        sc = ticket_deal("timelock")
        sc["network"]["delta"] = 7
        with pytest.raises(ScenarioError):
            validate_scenario(sc)

    def test_unknown_network_key_rejected(self):
        sc = ticket_deal("timelock")
        sc["network"]["latency_jitter"] = 2  # not a declared network key
        with pytest.raises(ScenarioError, match="latency_jitter"):
            validate_scenario(sc)

    def test_repeated_wallet_coins_add_up(self):
        sc = ticket_deal("timelock")
        sc["wallets"]["carol"]["fungible"] = [["coin", "coin", 150], ["coin", "coin", 7]]
        _, _, holdings, plan = prepare(sc)
        assert holdings["carol"].amount("coin", "coin") == 157
        assert plan.lots()

    @pytest.mark.parametrize("name", ["ticket_deal_cbc", "virus_alice_timelock"])
    def test_any_value_at_any_field_is_built_or_a_scenario_error(self, corpus, name):
        # Small values only: a huge pre_gst_cap builds a huge latency menu.
        values = [None, True, 0, -1, 7, "", "x", [], [1], ["x"], {}, {"a": 1}, 1.5]

        def paths(node, prefix=()):
            if isinstance(node, (dict, list)):
                items = node.items() if isinstance(node, dict) else enumerate(node)
            else:
                items = ()
            for key, item in items:
                yield prefix + (key,)
                yield from paths(item, prefix + (key,))

        for *parents, key in paths(corpus[name]):
            for value in values:
                scenario = copy.deepcopy(corpus[name])
                node = scenario
                for parent in parents:
                    node = node[parent]
                node[key] = value
                try:
                    build_world(scenario)
                except ScenarioError:
                    pass


class TestBundledCorpus:
    def test_files_match_builders(self):
        for name, scenario in bundled_scenarios().items():
            on_disk = load_scenario(name)
            assert on_disk == validate_scenario(scenario), name

    def test_regenerated_files_are_byte_identical(self, tmp_path):
        write_bundled_files(str(tmp_path))
        committed = pathlib.Path(bundled_dir())
        names = sorted(p.name for p in committed.glob("*.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name

    def test_corpus_contains_the_required_scenarios(self):
        names = set(list_bundled())
        assert {
            "ticket_deal_timelock",
            "ticket_deal_cbc",
            "virus_alice_timelock",
            "overpay_carol_cbc",
            "silent_party_timelock",
            "silent_party_cbc",
            "naive_timeout_regression",
            "corrupt_validator_cbc",
            "pre_gst_delay_storm_cbc",
        } <= names

    def test_seeded_traces_are_pinned(self, corpus):
        # One sha256 over every bundled scenario's trace digest at its own
        # seed.  It pins the order of the seeded draws: drawing latencies at
        # the send phase keeps them in publish order, before any choice.
        lines = [
            f"{name} {build_world(corpus[name]).world.run().digest()}" for name in sorted(corpus)
        ]
        assert len(lines) == 16
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "14212ebe14297de1bb2bd636e578bc50a0139dcee4bd2b0a424da90fe849081b"
        )


class TestScenarioFor:
    """`scenario_for` runs deals that none of the builders makes."""

    PAINTING = AssetBundle.token("art", "painting")
    GOLD = AssetBundle.coins("metals", "gold", 40)
    SILVER = AssetBundle.coins("metals", "silver", 25)
    DEAL = DealSpec(  # two coin kinds on one chain, a token on another
        "metals-for-art",
        ("ada", "bo", "cy"),
        (
            TransferSpec("ada", "bo", PAINTING, 0),
            TransferSpec("bo", "cy", GOLD, 1),
            TransferSpec("cy", "ada", SILVER, 2),
        ),
        t0=25,
        delta=5,
    )

    def scenario(self, protocol, seed=0):
        wallets = {
            "ada": self.PAINTING.to_json(), "bo": self.GOLD.to_json(), "cy": self.SILVER.to_json()
        }
        return scenario_for(self.DEAL.to_json(), wallets, protocol, seed, f"metals_{protocol}")

    @pytest.mark.parametrize("protocol", ["timelock", "cbc"])
    def test_all_compliant_runs_commit_with_full_payoffs(self, protocol):
        sc = validate_scenario(self.scenario(protocol))
        assert sc["network"]["delta"] == 5 and sc["strategies"] == {}
        for seed in range(5):
            built, trace = run_scenario(sc, seed=seed)
            assert len(trace.resolutions) == 3
            assert {res for res, _ in trace.resolutions.values()} == {"committed"}
            for party in self.DEAL.parties:
                assert payoff_of_run(trace, party) == self.DEAL.all_payoff(party), (seed, party)

    def test_unfunded_wallets_are_a_scenario_error(self):
        sc = self.scenario("timelock")
        del sc["wallets"]["bo"]
        with pytest.raises(ScenarioError, match="infeasible"):
            build_world(sc)


def _attributes(obj) -> dict:
    """Each attribute of `obj` by identity, and of each dict its items by identity."""
    return {
        name: (id(value), isinstance(value, dict) and [(k, id(v)) for k, v in value.items()])
        for name, value in vars(obj).items()
    }


class TestPlanning:
    def test_broker_escrows_nothing(self):
        sc = validate_scenario(ticket_deal("timelock"))
        deal = DealSpec.from_json(sc["deal"])
        holdings = {
            p: AssetBundle.from_json(w) for p, w in sc["wallets"].items()
        }
        plan = build_plan(deal, holdings)
        assert plan.escrow_for("alice", "coin").is_empty()
        assert plan.escrow_for("bob", "ticket") == AssetBundle(
            tokens=[("ticket", "tkt1"), ("ticket", "tkt2")]
        )
        assert plan.escrow_for("carol", "coin") == AssetBundle.coins("coin", "coin", 101)

    def test_voting_lots_are_receiving_lots(self):
        sc = validate_scenario(ticket_deal("timelock"))
        deal = DealSpec.from_json(sc["deal"])
        holdings = {p: AssetBundle.from_json(w) for p, w in sc["wallets"].items()}
        plan = build_plan(deal, holdings)
        assert plan.voting_lots("bob") == [("coin", "carol")]
        assert plan.voting_lots("carol") == [("ticket", "bob")]
        assert plan.voting_lots("alice") == [("coin", "carol"), ("ticket", "bob")]

    def test_source_lots_are_outgoing_asset_lots(self):
        sc = validate_scenario(ticket_deal("timelock"))
        deal = DealSpec.from_json(sc["deal"])
        holdings = {p: AssetBundle.from_json(w) for p, w in sc["wallets"].items()}
        plan = build_plan(deal, holdings)
        assert plan.source_lots("bob") == [("ticket", "bob")]
        assert plan.source_lots("carol") == [("coin", "carol")]
        assert set(plan.source_lots("alice")) == {("coin", "carol"), ("ticket", "bob")}

    def test_precomputed_queries_match_scans_of_the_lots(self):
        for name, scenario in bundled_scenarios().items():
            built = build_world(scenario)
            plan = built.plan
            lots = sorted(plan.final_c)
            assert plan.lots() == lots, name
            for party in built.deal.parties:
                escrowed = [lot for lot in lots if lot[1] == party]
                moved = {m.lot for m in plan.moves_by(party)}
                assert plan.escrowed_lots(party) == escrowed, (name, party)
                assert plan.source_lots(party) == sorted(moved | set(escrowed)), (name, party)
                assert plan.voting_lots(party) == [
                    lot for lot in lots if party in plan.beneficiaries[lot]
                ], (name, party)
                assert plan.entitlement_lots(party) == [
                    lot for lot in lots if not plan.entitlement(party, lot).is_empty()
                ], (name, party)
                watched = set(plan.source_lots(party)) | set(plan.voting_lots(party))
                watched |= set(plan.escrowed_lots(party)) | set(plan.entitlement_lots(party))
                assert plan.chains_of_interest(party) == sorted({c for c, _ in watched})
                # Callers get their own list; the shared plan stays as built.
                plan.voting_lots(party).append(("nowhere", party))
                assert ("nowhere", party) not in plan.voting_lots(party)

    @pytest.mark.parametrize(
        "name", ["ticket_deal_timelock", "ticket_deal_cbc", "explore_swap_timelock"]
    )
    def test_runs_leave_the_deal_and_plan_as_prepare_left_them(self, corpus, monkeypatch, name):
        prepared = []

        def recording_prepare(*args):
            sc, deal, holdings, plan = prepare(*args)
            prepared.extend((deal, _attributes(deal), plan, _attributes(plan)))
            return sc, deal, holdings, plan

        monkeypatch.setattr("dealsim.scenario.prepare", recording_prepare)
        if name.startswith("explore"):
            assert exhaustive_explore(corpus[name]).runs > 1
        else:
            build_world(corpus[name], seed=7).world.run()
        deal, deal_before, plan, plan_before = prepared
        assert deal._chains and deal._flows and deal._bases  # filled before the run
        assert _attributes(deal) == deal_before
        assert _attributes(plan) == plan_before

    def test_infeasible_script_rejected(self):
        deal = DealSpec(
            "d",
            ("a", "b"),
            (  # a promises assets nobody ever gives it
                __import__("dealsim.deals", fromlist=["TransferSpec"]).TransferSpec(
                    "a", "b", AssetBundle.coins("x", "c", 5), 0
                ),
            ),
            t0=20,
            delta=5,
        )
        with pytest.raises(PlanError):
            build_plan(deal, {"a": AssetBundle.empty()})

    def test_final_commit_state_matches_script(self):
        sc = validate_scenario(ticket_deal("timelock"))
        deal = DealSpec.from_json(sc["deal"])
        holdings = {p: AssetBundle.from_json(w) for p, w in sc["wallets"].items()}
        plan = build_plan(deal, holdings)
        coin_final = plan.final_c[("coin", "carol")]
        assert coin_final["alice"] == AssetBundle.coins("coin", "coin", 1)
        assert coin_final["bob"] == AssetBundle.coins("coin", "coin", 100)
        ticket_final = plan.final_c[("ticket", "bob")]
        assert ticket_final["carol"] == AssetBundle(
            tokens=[("ticket", "tkt1"), ("ticket", "tkt2")]
        )

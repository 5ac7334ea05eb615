"""Scenario runner interface: exit codes, reports, traces, replay."""

import json

import pytest

from dealsim.adversary import ExplorationBound, exhaustive_explore
from dealsim.cli import main
from dealsim.costs import meter
from dealsim.deals import DealSpec
from dealsim.escrow import EscrowContract, EscrowInvariantError
from dealsim.properties import check_safety, check_weak_liveness
from dealsim.replay import ReplayError, replay_trace
from dealsim.scenario import ScenarioError, cycle_deal, swap_deal, ticket_deal, validate_scenario
from dealsim.trace import RunTrace

from conftest import run_scenario_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bind(party, strategy, **params):
    """A scenario edit that binds `party` to `strategy` with `params`."""
    return lambda sc: sc["strategies"].update({party: {"name": strategy, "params": params}})


def bind_bob(strategy, **params):
    return bind("bob", strategy, **params)


# Mistyped strategy params and the party and param each names.
MISTYPED_PARAMS = {
    "crash-at-string": (bind_bob("silent_crash", at="x"), "bob", "at"),
    "vote-at-string": (bind_bob("late_claim", vote_at="40"), "bob", "vote_at"),
    "until-string": (bind_bob("offline_window", until="9"), "bob", "until"),
    "extra-short-coin": (bind("carol", "overpay", step=0, extra=[["coin", "coin"]]), "carol", "extra"),
    "attempts-string": (bind_bob("forged_signature", attempts="3"), "bob", "attempts"),
    "ignore-string": (bind_bob("selective_communication", ignore="bob"), "bob", "ignore"),
    "forward-with-vote-string": (bind_bob("late_claim", forward_with_vote="no"), "bob", "forward_with_vote"),
    "phase-typo": (bind_bob("silent_crash", phase="validate"), "bob", "phase"),
}


def under_cbc(**cbc):
    """A scenario edit that runs the deal under CBC with `cbc` settings."""

    def edit(sc):
        sc["protocol"] = "cbc"
        sc["cbc"].update(cbc)

    return edit


# Scenarios whose timing model, overpayment, CBC settings or keys no run may
# use, each found at load, and a word of the error it raises.
LOAD_TIME_ERRORS = {
    "overpay-outside-chain": (bind("carol", "overpay", step=2, extra=[["nochain", "coin", 5]]), "nochain"),
    "pre-gst-cap-zero": (
        lambda sc: sc["network"].update(mode="semi-synchronous", gst=30, pre_gst_cap=0), "pre_gst_cap"
    ),
    "skew-negative": (lambda sc: sc["network"].update(skew_max=-2), "skew_max"),
    "latency-zero": (lambda sc: sc["network"].update(latency_menu=[0, 5]), "latency_menu"),
    "latency-above-delta": (
        lambda sc: sc["network"].update(latency_menu=[1, 9], allow_model_violation=False), "exceeds delta"
    ),
    "strategies-misspelled": (lambda sc: sc.update(stratgies=sc.pop("strategies")), "stratgies"),
    "corrupt-negative": (under_cbc(corrupt=-1), "corrupt"),
    "grace-negative": (under_cbc(grace=-5), "grace"),
    "patience-negative": (under_cbc(patience=-5), "patience"),
}


def without(key):
    def edit(sc):
        del sc[key]

    return edit


def first_transfer(**changes):
    """A scenario edit of the deal's first transfer, bob's tickets to alice."""
    return lambda sc: sc["deal"]["transfers"][0].update(changes)


# Deals whose own checks refuse them, and a word of the refusal.
MALFORMED_DEALS = {
    "self-transfer": (first_transfer(to="bob"), "endpoints must differ"),
    "empty-transfer": (first_transfer(bundle={"fungible": [], "tokens": []}), "non-empty"),
    "duplicate-party": (lambda sc: sc["deal"]["parties"].append("bob"), "distinct ids"),
    "no-parties": (lambda sc: sc["deal"].update(parties=[]), "non-empty list"),
    "endpoint-outsider": (first_transfer(to="mallory"), "endpoint outside plist"),
    "steps-unordered": (first_transfer(step=9), "step order"),
    "acceptable-outsider": (
        lambda sc: sc["deal"].update(extra_acceptable={"mallory": []}), "for unknown party"
    ),
    "deal-delta-zero": (lambda sc: sc["deal"].update(delta=0), "delta must be positive"),
}


def receive_tickets_twice(sc):
    """alice receives bob's two tickets, passes them to carol, and receives
    them again from carol: one token twice in her gross flows."""
    tickets = sc["deal"]["transfers"][0]["bundle"]
    sc["deal"]["transfers"] += [
        {"from": "carol", "to": "alice", "step": 4, "bundle": tickets},
        {"from": "alice", "to": "carol", "step": 5, "bundle": tickets},
    ]


class TestRunCommand:
    def test_happy_path_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "ticket_deal_timelock")
        assert code == 0
        assert "COMMITTED" in out
        assert "safety: PASS" in out

    def test_virus_scenario_split_outcome_still_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "virus_alice_timelock")
        assert code == 0
        assert "ABORTED" in out and "COMMITTED" in out

    def test_unknown_scenario_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "no_such_scenario")
        assert code == 2
        assert "scenario error" in err

    def test_invalid_file_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, "run", "--scenario", str(bad))
        assert code == 2

    def test_unknown_network_key_is_a_parse_error(self, tmp_path, capsys, corpus):
        scenario = dict(corpus["ticket_deal_timelock"])
        scenario["network"] = dict(scenario["network"], latency_jitter=2)
        path = tmp_path / "jitter.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 2
        assert "scenario error" in err and "latency_jitter" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda sc: sc.update(network=5),
            lambda sc: sc.update(cbc=5),
            lambda sc: sc["network"].update(delta="5"),
            lambda sc: sc.update(strategies=["x"]),
            lambda sc: sc["wallets"].update(carol={"fungible": "x", "tokens": []}),
            bind_bob("late_claim", vote_a=40),
            bind_bob("compliant", validation_verdict="rejct"),
            bind_bob("compliant", altruistic="false"),
            bind_bob("overpay", extra=[["coin", "coin", 1]]),
            bind_bob("overpay", step=0),
            lambda sc: sc["network"].update(allow_model_violation="false"),
            lambda sc: sc["cbc"].update(corupt=1),
            lambda sc: sc["cbc"].update(grace="10"),
            lambda sc: sc["deal"].update(t0="30"),
            lambda sc: sc["deal"].update(t0=None),
            lambda sc: sc["deal"].update(id=7),
            receive_tickets_twice,
            lambda sc: sc.update(seed=True),
            lambda sc: [sc],
            without("protocol"),
            without("deal"),
            lambda sc: sc["wallets"].update(mallory={"fungible": [], "tokens": []}),
            lambda sc: sc["strategies"].update(bob="compliant"),
            lambda sc: sc.update(horizon="200"),
            *(edit for edit, _ in MALFORMED_DEALS.values()),
            *(edit for edit, _, _ in MISTYPED_PARAMS.values()),
            *(edit for edit, _ in LOAD_TIME_ERRORS.values()),
        ],
        ids=["network", "cbc", "network-delta", "strategies", "wallet", "undeclared-param",
             "verdict-typo", "altruistic-string", "overpay-no-step", "overpay-no-extra",
             "model-violation-string", "cbc-corupt", "cbc-grace-string", "deal-t0-string",
             "deal-t0-null", "deal-id-int", "token-received-twice", "seed-bool",
             "not-an-object", "no-protocol", "no-deal", "wallet-unknown-party", "binding-string",
             "horizon-string", *MALFORMED_DEALS, *MISTYPED_PARAMS, *LOAD_TIME_ERRORS],
    )
    def test_malformed_section_is_a_parse_error(self, tmp_path, capsys, edit):
        scenario = ticket_deal("timelock")
        document = edit(scenario)  # an edit changes `scenario` or returns a new document
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(scenario if document is None else document))
        code, out, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 2
        assert "scenario error" in err

    def test_a_transfer_on_the_certified_chain_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "cbc_named.json"
        path.write_text(json.dumps(swap_deal("cbc")).replace('"xchain"', '"cbc"'))
        code, out, err = run_cli(capsys, "run", "--scenario", str(path))
        assert code == 2
        assert "scenario error" in err and "certified log" in err

    @pytest.mark.parametrize(
        "argv",
        [["--runs", "0"], ["--runs", "-4"], ["--explore", "--max-runs", "0"],
         ["--explore", "--max-depth", "0"], ["--runs", "two"]],
        ids=["runs-zero", "runs-negative", "max-runs-zero", "max-depth-zero", "runs-word"],
    )
    def test_non_positive_count_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "explore_swap_timelock", *argv])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gas-write", "-5"], "expected a non-negative integer"),
            (["--gas-sig", "-1"], "expected a non-negative integer"),
            (["--gas-write", "2.5"], "expected a non-negative integer"),
            (["--runs", "3", "--explore"], "--explore runs every schedule once"),
        ],
        ids=["gas-write-negative", "gas-sig-negative", "gas-write-fraction", "explore-with-runs"],
    )
    def test_a_value_the_mode_cannot_honour_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", "explore_swap_timelock", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_free_gas_prices_are_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "ticket_deal_timelock", "--gas-write", "0", "--gas-sig", "0"
        )
        assert code == 0 and "gas model: write=0 sigver=0" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED_DEALS))
    def test_a_malformed_deal_error_names_its_fault(self, case):
        edit, word = MALFORMED_DEALS[case]
        scenario = ticket_deal("timelock")
        edit(scenario)
        with pytest.raises(ScenarioError, match=f"bad deal: .*{word}"):
            validate_scenario(scenario)

    @pytest.mark.parametrize("case", sorted(MISTYPED_PARAMS))
    def test_mistyped_param_error_names_party_and_param(self, case):
        edit, party, param = MISTYPED_PARAMS[case]
        scenario = ticket_deal("timelock")
        edit(scenario)
        with pytest.raises(ScenarioError, match=f"for '{party}' does not accept {param}="):
            validate_scenario(scenario)

    @pytest.mark.parametrize(
        "mode", [[], ["--runs", "3"], ["--explore"]], ids=["run", "campaign", "explore"]
    )
    @pytest.mark.parametrize("case", sorted(LOAD_TIME_ERRORS))
    def test_a_model_no_run_may_use_is_a_parse_error(self, tmp_path, capsys, mode, case):
        edit, word = LOAD_TIME_ERRORS[case]
        scenario = ticket_deal("timelock")
        edit(scenario)
        path = tmp_path / "violation.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(capsys, "run", "--scenario", str(path), *mode)
        assert code == 2
        assert "scenario error" in err and word in err

    @pytest.mark.parametrize(
        "mode", [[], ["--runs", "3"], ["--explore"]], ids=["run", "campaign", "explore"]
    )
    @pytest.mark.parametrize(
        "carol_coins",
        [
            [["nochain", "coin", 150]],  # carol cannot fund her step: no plan
            [["coin", "coin", 150], ["nochain", "coin", 5]],  # a chain no transfer uses
        ],
        ids=["infeasible", "unknown-chain"],
    )
    def test_inconsistent_scenario_is_a_parse_error(self, tmp_path, capsys, mode, carol_coins):
        scenario = ticket_deal("timelock")
        scenario["wallets"]["carol"]["fungible"] = carol_coins
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(capsys, "run", "--scenario", str(path), *mode)
        assert code == 2
        assert "scenario error" in err

    def test_exploration_bound_overrun_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "cycle5.json"
        path.write_text(json.dumps(cycle_deal(5, "timelock")))
        code, out, err = run_cli(
            capsys, "run", "--scenario", str(path), "--explore", "--max-runs", "1"
        )
        assert code == 2
        assert "exceeds exploration party bound" in err

    def test_a_bare_explore_passes_the_default_bound(self, capsys, monkeypatch):
        passed = []

        def explore(scenario, bound):
            passed.append(bound)
            return exhaustive_explore(scenario, bound)

        monkeypatch.setattr("dealsim.cli.exhaustive_explore", explore)
        code, out, err = run_cli(capsys, "run", "--scenario", "explore_swap_timelock", "--explore")
        assert code == 0 and passed == [ExplorationBound()]

    def test_structured_report_is_json(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scenario", "ticket_deal_cbc", "--report", "structured"
        )
        assert code == 0
        report = json.loads(out)
        assert report["protocol"] == "cbc"
        assert {v["property"] for v in report["verdicts"]} >= {"safety", "agreement"}

    def test_golden_reports_are_byte_stable(self, capsys):
        outputs = set()
        for _ in range(2):
            code, out, err = run_cli(capsys, "run", "--scenario", "ticket_deal_timelock")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_explore_flag_on_regression_scenario_fails(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scenario", "explore_swap_naive", "--explore"
        )
        assert code == 3
        assert "VIOLATION" in out
        assert "witness" in out

    def test_explore_flag_on_sound_protocol_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scenario", "explore_swap_timelock", "--explore"
        )
        assert code == 0
        assert "SAFE" in out

    def test_campaign_mode_exits_zero_when_clean(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--scenario", "ticket_deal_timelock", "--runs", "5"
        )
        assert code == 0
        assert "campaign: 5 runs, 0 violations" in out

    def test_campaign_mode_keeps_the_scenario_strategies(self, capsys, monkeypatch):
        from dealsim import properties
        from dealsim.scenario import load_scenario

        declared = load_scenario("virus_alice_timelock")["strategies"]
        seen = []
        original = properties.evaluate_run

        def recording(trace, *args, **kwargs):
            seen.append(trace.scenario["strategies"])
            return original(trace, *args, **kwargs)

        monkeypatch.setattr(properties, "evaluate_run", recording)
        run_cli(capsys, "run", "--scenario", "virus_alice_timelock", "--runs", "20", "--seed", "0")
        assert len(seen) == 20
        assert all(strategies == declared for strategies in seen)

    def test_naive_regression_run_reports_property_failure(self, capsys):
        code, out, err = run_cli(capsys, "run", "--scenario", "naive_timeout_regression")
        assert code == 3
        assert "safety: FAIL" in out

    def test_list_command(self, capsys):
        code, out, err = run_cli(capsys, "list")
        assert code == 0
        names = out.split()
        assert "ticket_deal_timelock" in names and "virus_alice_timelock" in names


def first_event(trace, kind, status="accepted"):
    return next(e for e in trace.events if (e.kind, e.status) == (kind, status))


class TestTraceAndReplay:
    def test_trace_round_trip_reproduces_report(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        code, out1, _ = run_cli(
            capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path)
        )
        assert code == 0 and trace_path.exists()
        code, out2, _ = run_cli(capsys, "replay", str(trace_path))
        assert code == 0
        assert "consistent" in out2
        # the replayed report body matches the original
        body1 = out1.strip().splitlines()
        body2 = out2.strip().splitlines()[1:]
        assert body1 == body2

    def test_a_campaign_writes_its_first_witness_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "witness.trace.json"
        code, out, _ = run_cli(
            capsys, "run", "--scenario", "naive_timeout_regression", "--runs", "50",
            "--trace", str(trace_path),
        )
        assert code == 3 and "50 violations" in out
        assert f"witness trace written to {trace_path}" in out
        code, out, _ = run_cli(capsys, "replay", str(trace_path))
        assert code == 3 and "consistent" in out.splitlines()[0]

    @pytest.mark.parametrize(
        "scenario, mode",
        [("naive_timeout_regression", ["--runs", "50"]), ("explore_swap_naive", ["--explore"])],
        ids=["campaign", "explore"],
    )
    def test_a_structured_report_stays_one_json_document(self, tmp_path, capsys, scenario, mode):
        trace_path = tmp_path / "witness.trace.json"
        code, out, err = run_cli(
            capsys, "run", "--scenario", scenario, *mode, "--report", "structured",
            "--trace", str(trace_path),
        )
        assert code == 3 and json.loads(out)["violations"]
        assert f"witness trace written to {trace_path}" in err and trace_path.exists()

    def test_replay_judges_and_meters_once(self, tmp_path, capsys, monkeypatch):
        import dealsim.cli as cli
        import dealsim.replay as replay

        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path))
        calls = []
        for module in (cli, replay):
            for name in ("run_verdicts", "meter"):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
        code, out, _ = run_cli(capsys, "replay", str(trace_path))
        assert code == 0 and "consistent" in out
        assert sorted(calls) == ["meter", "run_verdicts"]

    def test_replay_detects_tampered_finalize(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "silent_party_timelock", "--trace", str(trace_path))
        data = json.loads(trace_path.read_text())
        for event in data["events"]:
            if event["kind"] == "publish" and event["payload"].get("op") == "timeout":
                event["tick"] = 1  # pretend the refund fired early
                break
        tampered = tmp_path / "tampered.trace.json"
        tampered.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "replay", str(tampered))
        assert code == 2
        assert "record" in err

    def test_loading_and_replaying_a_trace_parses_its_deal_once(
        self, corpus, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.trace.json"
        run_scenario_dict(corpus["ticket_deal_timelock"])[1].dump(str(path))
        parse = DealSpec.from_json.__func__
        parses = []

        def counted(cls, data):
            parses.append(data["id"])
            return parse(cls, data)

        monkeypatch.setattr(DealSpec, "from_json", classmethod(counted))
        replay_trace(RunTrace.load(str(path)))
        assert parses == ["ticket-deal"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda deal: deal.update(t0=deal["t0"] + 1),
            lambda deal: deal["transfers"][2]["bundle"].update(fungible=[["coin", "coin", 150]]),
            lambda deal: deal.update(parties=["alice", "bob"]),
        ],
        ids=["t0", "amount", "parties"],
    )
    def test_replay_rejects_a_deal_edited_after_loading(self, corpus, edit):
        trace = self.ticket_trace(corpus)
        edit(trace.scenario["deal"])
        with pytest.raises(ReplayError, match="recorded scenario_digest"):
            replay_trace(trace)

    def test_replay_names_first_inconsistent_record(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path))
        trace = RunTrace.load(str(trace_path))
        for index, event in enumerate(trace.events):
            if event.kind == "publish" and event.payload.get("op") == "transfer":
                event.payload["bundle"]["fungible"] = [["coin", "coin", 99999]]
                expected_index = index
                break
        with pytest.raises(ReplayError) as err:
            replay_trace(trace)
        assert f"record {expected_index}" in str(err.value)

    @staticmethod
    def ticket_trace(corpus):
        _, trace = run_scenario_dict(corpus["ticket_deal_timelock"])
        return RunTrace.from_json(json.loads(json.dumps(trace.to_json())))

    def test_replay_rejects_tampered_info(self, corpus):
        trace = self.ticket_trace(corpus)
        for index, event in enumerate(trace.events):
            commit = event.payload.get("op") == "commit" and event.status == "accepted"
            if commit and "finalized" not in event.info:
                event.info["finalized"] = "committed"  # charges finalize writes
                break
        assert meter(trace).gas_total() != meter(self.ticket_trace(corpus)).gas_total()
        with pytest.raises(ReplayError) as err:
            replay_trace(trace)
        assert f"record {index}: recorded info" in str(err.value)

    def test_replay_rejects_tampered_verification_count(self, corpus):
        trace = self.ticket_trace(corpus)
        for index, event in enumerate(trace.events):
            if event.payload.get("op") == "commit" and event.status == "accepted":
                event.info["verifications"] += 1
                break
        assert meter(trace).gas_total() == meter(self.ticket_trace(corpus)).gas_total() + 3000
        with pytest.raises(ReplayError) as err:
            replay_trace(trace)
        assert f"record {index}: recorded info" in str(err.value)

    def test_replay_rejects_tampered_resolution_ticks(self, corpus):
        trace = self.ticket_trace(corpus)
        trace.resolutions = {k: (res, tick + 1000) for k, (res, tick) in trace.resolutions.items()}
        assert not check_weak_liveness(trace).passed
        with pytest.raises(ReplayError, match="resolutions"):
            replay_trace(trace)

    def test_replay_rejects_tampered_compliant_set(self, corpus):
        trace = self.ticket_trace(corpus)
        trace.metadata["compliant"] = trace.metadata["compliant"][:1]
        with pytest.raises(ReplayError, match="compliant"):
            replay_trace(trace)

    # In the ticket trace, records 0 and 1 wake alice and bob, record 2 is
    # bob's escrow, record 7 is the first notify and record 8 notifies carol
    # of bob's first ticket entry.
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda t: setattr(first_event(t, "publish"), "where", "nochain"), "unknown chain"),
            (lambda t: setattr(first_event(t, "publish"), "seq", 5), "follow ledger order"),
            (
                lambda t: setattr(first_event(t, "publish", "rejected"), "reason", "not-due"),
                "recorded reason 'not-due'",
            ),
            (
                lambda t: t.terminal_wallets["coin"]["fungible"].update(carol={"coin": 150}),
                "terminal ownership",
            ),
            (lambda t: setattr(t.events[10], "tick", 0), "record 10: tick 0 runs back"),
            (lambda t: setattr(t.events[0], "kind", "timer"), "record 0: unknown event kind"),
            (lambda t: setattr(t.events[0], "where", "mallory"), "record 0: wake for 'mallory'"),
            (lambda t: t.events[0].payload.update(at=3), "record 0: malformed wake"),
            (lambda t: setattr(t.events[7], "status", "accepted"), "record 7: malformed notify"),
            (lambda t: t.events[7].payload.update(at=3), "record 7: malformed notify"),
            (lambda t: t.events[7].payload.update(chain="nochain"), "names no earlier publish"),
            (lambda t: setattr(t.events[7], "tick", 0), "record 7: notify at tick 0"),
            (lambda t: setattr(t.events[8], "where", "bob"), "record 8: 'bob' is not due"),
            (lambda t: setattr(t.events[8], "where", "mallory"), "'mallory' is not due"),
            (lambda t: setattr(t.events[2], "payload", 5), "record 2: malformed publish"),
            (
                lambda t: t.events[2].payload.update(
                    bundle={"fungible": [["coin", "coin", -3]], "tokens": []}
                ),
                "record 2: malformed publish",
            ),
            (lambda t: t.events[2].payload.update(bundle=5), "record 2: malformed publish"),
        ],
        ids=[
            "unknown-chain", "sequence", "reason", "terminal-wallets", "tick-back", "kind",
            "wake-party", "wake-payload", "notify-status", "notify-payload", "notify-chain",
            "notify-tick", "notify-publisher", "notify-party", "publish-payload",
            "publish-negative-bundle", "publish-bundle",
        ],
    )
    def test_replay_rejects_each_tampering(self, corpus, tamper, message):
        trace = self.ticket_trace(corpus)
        tamper(trace)
        with pytest.raises(ReplayError, match=message):
            replay_trace(trace)

    @pytest.mark.parametrize(
        "field, forged",
        [("scenario_digest", "0" * 16), ("unresolved", ["coin/zzz"]), ("liveness_failure", True)],
    )
    def test_replay_rejects_forged_run_metadata(self, corpus, tmp_path, field, forged):
        path = tmp_path / "run.trace.json"
        run_scenario_dict(corpus["silent_party_timelock"])[1].dump(str(path))
        trace = RunTrace.load(str(path))
        replay_trace(trace)
        trace.metadata[field] = forged
        with pytest.raises(ReplayError, match=f"recorded {field}"):
            replay_trace(trace)

    def test_replay_lets_a_broken_lot_invariant_propagate(self, corpus, monkeypatch):
        # A ValueError, but a fault of the contract, not of the record.
        trace = self.ticket_trace(corpus)

        def broken(*args):
            raise EscrowInvariantError("lot 'bob': token commit view differs")

        monkeypatch.setattr(EscrowContract, "apply", broken)
        with pytest.raises(EscrowInvariantError):
            replay_trace(trace)

    def test_replay_rejects_tampered_initial_wallets(self, corpus):
        trace = self.ticket_trace(corpus)
        trace.initial_wallets["coin"]["fungible"]["bob"] = {"coin": 200}
        assert not check_safety(trace).passed
        with pytest.raises(ReplayError, match="initial ownership"):
            replay_trace(trace)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("protocol", "bogus"),
            ("network", {"delta": 5, "latency_jitter": 2}),
            ("wallets", {"carol": {"fungible": [["nochain", "coin", 150]], "tokens": []}}),
            ("deal", {"id": "ticket-deal", "parties": []}),
        ],
        ids=["protocol", "network-key", "infeasible", "deal"],
    )
    def test_replay_of_invalid_embedded_scenario_is_parse_error(
        self, tmp_path, capsys, field, value
    ):
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path))
        data = json.loads(trace_path.read_text())
        data["scenario"][field] = value
        tampered = tmp_path / "invalid.trace.json"
        tampered.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "replay", str(tampered))
        assert code == 2
        # A trace's deal is parsed as it loads; the rest of its scenario on replay.
        assert ("trace error: bad scenario deal" if field == "deal" else "scenario error") in err

    def test_replay_of_older_trace_format_is_parse_error(self, tmp_path, capsys):
        # v1 traces recorded no verification counts; they cannot be replayed.
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path))
        data = json.loads(trace_path.read_text())
        data["format"] = "dealsim-trace-v1"
        trace_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "replay", str(trace_path))
        assert code == 2
        assert "not a dealsim-trace-v2 trace file" in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.pop("events"),
            lambda data: data.pop("seed"),
            lambda data: data.pop("resolutions"),
            lambda data: data["events"][0].pop("tick"),
            lambda data: data.update(events=5),
            lambda data: data.update(metadata=5),
            lambda data: data["events"][0].update(tick="0"),
            lambda data: data["events"][2].update(publisher=["bob"]),
        ],
        ids=[
            "no-events", "no-seed", "no-resolutions", "event-without-tick", "events-not-a-list",
            "metadata-not-an-object", "tick-not-an-int", "publisher-not-a-name",
        ],
    )
    def test_malformed_trace_is_parse_error(self, tmp_path, capsys, edit):
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path))
        data = json.loads(trace_path.read_text())
        edit(data)
        trace_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "replay", str(trace_path))
        assert code == 2
        assert "trace error: malformed trace" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda events: events[0].update(payload=5), "record 0: malformed wake"),
            # Record 7 is the first notify.
            (lambda events: events[7]["payload"].update(seq=99), "record 7: notify"),
            (lambda events: events.insert(7, events[7]), "record 8: 'alice' is not due"),
        ],
        ids=["wake-payload", "notify-seq", "repeated-notify"],
    )
    def test_tampered_delivery_is_replay_inconsistency(self, tmp_path, capsys, edit, message):
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_timelock", "--trace", str(trace_path))
        data = json.loads(trace_path.read_text())
        edit(data["events"])
        trace_path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "replay", str(trace_path))
        assert code == 2
        assert "replay inconsistency: " in err and message in err

    def test_missing_trace_file_is_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "replay", "/nonexistent/trace.json")
        assert code == 2

    def test_alternate_gas_schedule_same_verdicts_rescaled_costs(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        run_cli(capsys, "run", "--scenario", "ticket_deal_cbc", "--trace", str(trace_path))
        code, out_default, _ = run_cli(
            capsys, "replay", str(trace_path), "--report", "structured"
        )
        code2, out_double, _ = run_cli(
            capsys, "replay", str(trace_path), "--report", "structured",
            "--gas-write", "10000", "--gas-sig", "6000",
        )
        assert code == code2 == 0
        a, b = json.loads(out_default), json.loads(out_double)
        assert a["verdicts"] == b["verdicts"]
        assert b["costs"]["gas_total"] == 2 * a["costs"]["gas_total"]

    def test_exploration_witness_trace_dump(self, tmp_path, capsys):
        trace_path = tmp_path / "witness.trace.json"
        code, out, err = run_cli(
            capsys, "run", "--scenario", "explore_swap_naive", "--explore",
            "--trace", str(trace_path),
        )
        assert code == 3
        witness = RunTrace.load(str(trace_path))
        resolutions = {res for res, _ in witness.resolutions.values()}
        assert resolutions == {"committed", "aborted"}

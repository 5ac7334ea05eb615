"""The benchmark's own tests: run with `python3 -m pytest perfbench/tests -q`.

Each workload runs at its smallest size (one operation, a one-call traced
batch) and must print every metric BENCHMARK.json names, with its unit,
and pass its correctness checks; the tracer must leave dealsim exactly as
it found it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check_result(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_prints_end_to_end_metrics(capsys, workload):
    lines, result = _run(capsys, workload, 0)
    _check_result(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_per_layer_metrics(capsys, monkeypatch, workload):
    monkeypatch.setattr(workloads.WORKLOADS[workload], "trace_calls", 1)
    lines, result = _run(capsys, workload, 1)
    _check_result(lines, result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["ledger.run.calls"]["value"] > 0
    assert metrics["parties.step.calls"]["value"] > 0


def _bindings():
    """Every attribute of every dealsim module and of the classes they define."""
    out = {}
    for module in tracing._modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("dealsim"):
                for attr, raw in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = raw
    return out


def test_tracer_restores_every_attribute():
    before = _bindings()
    with tracing.Tracer():
        during = _bindings()
    after = _bindings()
    assert any(during[k] is not before[k] for k in before)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_keeps_results():
    import dealsim.scenario as scenario

    cbc_deal = scenario.load_scenario("ticket_deal_cbc")
    expected = scenario.build_world(cbc_deal).world.run().digest()
    with tracing.Tracer() as tracer:
        # Looked up through the module, as dealsim's own callers do.
        assert scenario.build_world(cbc_deal).world.run().digest() == expected
    totals = tracer.layer_totals()
    assert totals["scenario.build_world"][0] == 1
    assert totals["cbc.apply"][0] > 0
    assert all(self_s >= -1e-6 for _, self_s in totals.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "campaign_cbc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reports_failures_when_no_operation_completes(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.WORKLOADS["corpus_replay"], "op", broken)
    lines, result = _run(capsys, "corpus_replay", 0)
    assert result["correct"] is False
    assert result["failed"] == 1  # the one operation; the golden checks still pass
    assert "op_ms" not in result["metrics"]


def test_exploration_probes_keep_the_default_evaluator(monkeypatch):
    import dealsim.properties as properties

    original = properties.evaluate_run
    monkeypatch.setattr(workloads.PROBES, "on", True)
    monkeypatch.setattr(workloads.PROBES, "times", [])
    sc = workloads.scenario.load_scenario("explore_swap_naive")
    result, elapsed = workloads._explore(sc)
    assert properties.evaluate_run is original
    assert len(workloads.PROBES.times) == result.runs // workloads.PROBE_EVERY > 0
    assert 0 < elapsed

"""Scenario runner: single runs, campaigns, exploration, and trace replay.

Exit codes partition cleanly:

    0   every applicable property passed
    2   scenario / trace parse or validation error
    3   a property failed (or exploration / campaign found a violation)
    4   no property was applicable to the run
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .adversary import ExplorationBound, exhaustive_explore, random_campaign
from .costs import CostReport, GasSchedule, check_asymptotics, meter, render_text
from .deals import payoff_of_run
from .properties import Verdict, run_verdicts
from .replay import ReplayError, replay_trace
from .scenario import ScenarioError, build_world, list_bundled, load_scenario
from .trace import RunTrace

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PROPERTY = 3
EXIT_INAPPLICABLE = 4


def build_report(trace: RunTrace, verdicts: List[Verdict], costs: CostReport) -> dict:
    bounds = check_asymptotics(costs)
    payoffs = {}
    if trace.all_resolved:
        payoffs = {p: payoff_of_run(trace, p).to_json() for p in trace.deal.parties}
    return {
        "scenario": trace.scenario.get("name", "unnamed"),
        "protocol": trace.scenario["protocol"],
        "seed": trace.seed,
        "resolutions": {k: list(v) for k, v in sorted(trace.resolutions.items())},
        "payoffs": payoffs,
        "verdicts": [v.to_json() for v in verdicts],
        "costs": costs.to_json(),
        "bounds": [b.to_json() for b in bounds],
        "trace_digest": trace.digest(),
        "metadata": trace.metadata,
    }


def report_exit_code(report: dict) -> int:
    verdicts = report["verdicts"]
    if any(v["status"] == "fail" for v in verdicts):
        return EXIT_PROPERTY
    if all(v["status"] == "inapplicable" for v in verdicts):
        return EXIT_INAPPLICABLE
    return EXIT_OK


def render_report(report: dict) -> str:
    lines = []
    lines.append(f"scenario: {report['scenario']} ({report['protocol']}, seed {report['seed']})")
    lines.append("resolutions:")
    for lot, (res, tick) in sorted(report["resolutions"].items()):
        when = f" @ {tick}" if tick is not None else ""
        lines.append(f"  {lot}: {res.upper()}{when}")
    if report["payoffs"]:
        lines.append("payoffs:")
        for party, payoff in sorted(report["payoffs"].items()):
            inc = _bundle_str(payoff["incoming"])
            out = _bundle_str(payoff["outgoing"])
            lines.append(f"  {party}: in {inc} / out {out}")
    lines.append("properties:")
    for verdict in report["verdicts"]:
        lines.append(
            f"  {verdict['property']}: {verdict['status'].upper()} ({verdict['details']})"
        )
    lines.append("costs:")
    lines += ["  " + line for line in render_text(report["costs"], report["bounds"]).splitlines()]
    lines.append(f"trace digest: {report['trace_digest']}")
    return "\n".join(lines)


def _bundle_str(bundle_json: dict) -> str:
    parts = [f"{c}:{k}={v}" for c, k, v in bundle_json["fungible"]]
    parts += [f"{c}:{t}" for c, t in bundle_json["tokens"]]
    return "{" + ", ".join(parts) + "}" if parts else "{}"


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.explore:
            return _explore(args, scenario)
        if args.runs > 1:
            return _campaign(args, scenario)
        return _single_run(args, scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _explore(args, scenario: dict) -> int:
    bound = ExplorationBound(max_runs=args.max_runs, max_choice_points=args.max_depth)
    result = exhaustive_explore(scenario, bound)
    if args.report == "structured":
        print(json.dumps(result.to_json(), indent=1, sort_keys=True))
    else:
        print(f"exploration: {result.verdict}")
        print(
            f"  runs={result.runs} branch_points={result.branch_points}"
            f" complete={result.complete}"
        )
        for violation in result.violations[:3]:
            print(f"  violation tape={violation['tape']}")
            for failure in violation["failures"]:
                print(f"    {failure['property']}: {failure['details']}")
                for item in failure["witness"]:
                    print(f"      witness: {json.dumps(item, sort_keys=True)}")
    _write_witness(args, result.witness_traces)
    return EXIT_PROPERTY if result.verdict == "VIOLATION" else EXIT_OK


def _write_witness(args, witness_traces: list):
    """Write the first violation witness to the `--trace` path, if both
    exist.  Under `--report structured` the notice goes to stderr, so that
    stdout stays one JSON document."""
    if args.trace and witness_traces:
        witness_traces[0].dump(args.trace)
        notice = sys.stderr if args.report == "structured" else sys.stdout
        print(f"witness trace written to {args.trace}", file=notice)


def _campaign(args, scenario: dict) -> int:
    # Every run keeps the file's strategy bindings; only the seed varies.
    report = random_campaign([scenario], ["compliant"], args.runs, args.seed or 0, max_adversaries=0)
    if args.report == "structured":
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        print(f"campaign: {report.runs} runs, {report.violation_count} violations")
        for name, count in sorted(report.outcomes.items()):
            print(f"  {name}: {count}")
    _write_witness(args, report.witness_traces)
    return EXIT_PROPERTY if report.violations else EXIT_OK


def _single_run(args, scenario: dict) -> int:
    trace = build_world(scenario, seed=args.seed).world.run()
    costs = meter(trace, GasSchedule(args.gas_write, args.gas_sig))
    report = build_report(trace, run_verdicts(trace), costs)
    if args.trace:
        trace.dump(args.trace)
    if args.report == "structured":
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_report(report))
    return report_exit_code(report)


def cmd_replay(args) -> int:
    try:
        trace = RunTrace.load(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        replayed = replay_trace(trace, GasSchedule(args.gas_write, args.gas_sig))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ReplayError as exc:
        print(f"replay inconsistency: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = build_report(trace, replayed.verdicts, replayed.costs)
    if args.report == "structured":
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(f"replayed {len(trace.publishes())} ledger entries: consistent")
        print(render_report(report))
    return report_exit_code(report)


def cmd_list(args) -> int:
    for name in list_bundled():
        print(name)
    return EXIT_OK


def _int_from(least: int, kind: str):
    """The argparse type of an integer option: anything but an integer of
    at least `least` is a usage error."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return int(text)
    return parse


_positive_int = _int_from(1, "positive")  # a count
_price = _int_from(0, "non-negative")  # a gas price


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dealsim",
        description="Deterministic simulator for multi-chain escrowed asset deals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The report options `run` and `replay` share; the gas prices default to `GasSchedule`'s.
    prices = GasSchedule()
    reporting = argparse.ArgumentParser(add_help=False)
    reporting.add_argument("--report", choices=("text", "structured"), default="text")
    reporting.add_argument("--gas-write", type=_price, default=prices.storage_write)
    reporting.add_argument("--gas-sig", type=_price, default=prices.signature_verification)

    run_p = sub.add_parser(
        "run", parents=[reporting], help="run one scenario (or a campaign / exploration)"
    )
    run_p.add_argument("--scenario", required=True, help="scenario file path or bundled name")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument(
        "--runs", type=_positive_int, default=1, help="campaign mode: number of seeded runs"
    )
    run_p.add_argument("--explore", action="store_true", help="exhaustive schedule exploration")
    bound = ExplorationBound()  # the exploration caps default to its own
    run_p.add_argument(
        "--max-depth", type=_positive_int, default=bound.max_choice_points,
        help="exploration choice-point cap",
    )
    run_p.add_argument(
        "--max-runs", type=_positive_int, default=bound.max_runs, help="exploration run cap"
    )
    run_p.add_argument("--trace", default=None, help="write the run trace to this path")
    run_p.set_defaults(func=cmd_run)

    replay_p = sub.add_parser(
        "replay", parents=[reporting], help="re-derive verdicts from a trace file"
    )
    replay_p.add_argument("trace_file")
    replay_p.set_defaults(func=cmd_replay)

    list_p = sub.add_parser("list", help="list bundled scenarios")
    list_p.set_defaults(func=cmd_list)

    args = parser.parse_args(argv)
    if args.command == "run" and args.explore and args.runs > 1:
        run_p.error("--explore runs every schedule once; it takes no --runs")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""dealsim benchmark: one workload per invocation, result as JSON on the last line.

    python3 perfbench/run.py --workload campaign_timelock --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory and nowhere else.  Workloads are defined in ``workloads.py``.

With ``--trace 0`` the workload runs as a closed loop for ``--seconds`` and
reports the end-to-end metrics:

* ``op_ms`` -- time per operation.  Each operation's wall time is divided by
  the wall time of the fixed loop in ``reference.py`` measured right beside
  it, and the median ratio is quoted in units of REFERENCE_MS (see that
  module for why).  So the unit is milliseconds of the reference loop, not
  wall milliseconds; the raw wall times are printed among the details.
* ``setup_s`` -- the workload's input set-up, repeated through the run and
  quoted the same way, in seconds of the reference loop.
* ``peak_rss_mb`` -- the process's peak resident memory.

With ``--trace 1`` a fixed batch of operations runs four times in this
process, twice untraced and twice under ``tracing.Tracer``, alternating
call by call.  It reports
``<layer>.calls`` and ``<layer>.self_ms`` for every layer, the ratios and
explorer counts, and ``tracing_overhead`` against the untraced wall time.
The traced passes must reproduce the untraced digests and each other's
counts exactly.

Every operation is checked for correctness; the result's ``failed`` counts
operations that raised or failed a check, and ``correct`` is true only when
none did.  Human-readable lines precede the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

from reference import PROBES, REFERENCE_MS, time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_INTERVAL_S = 0.5   # take set-up samples this often through a run
SETUP_BURST = 3          # set-ups per sampling point
MAX_PROBLEMS_SHOWN = 10
clock = time.perf_counter


def import_package():
    """Import dealsim from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "dealsim", "__init__.py")):
        raise SystemExit(f"error: no dealsim package under {SRC}")
    sys.path.insert(0, SRC)
    import dealsim

    if os.path.dirname(os.path.dirname(os.path.abspath(dealsim.__file__))) != SRC:
        raise SystemExit(f"error: dealsim imported from {dealsim.__file__}, not {SRC}")


def quantile(values, q: int):
    """The q-th percentile of the samples (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def guarded(workload, fn, *args):
    """Run one call; a raised error fails every operation the call attempts."""
    from workloads import Tally

    try:
        return fn(*args)
    except Exception:  # the benchmark must count the failure and go on
        traceback.print_exc(limit=8, file=sys.stderr)
        tally = Tally(attempted=workload.ops_per_call)
        tally.fail(workload.ops_per_call, f"{fn.__name__} raised")
        return tally


def timed_call(workload, inputs, goldens, seed, index, batch) -> float:
    start = clock()
    batch.merge(guarded(workload, workload.op, inputs, goldens, seed, index))
    return clock() - start


def time_setup(workload, setup_ratios):
    """Set the inputs up SETUP_BURST times, each timed over a reference loop."""
    for _ in range(SETUP_BURST):
        start = clock()
        inputs = workload.setup()
        elapsed = clock() - start
        setup_ratios.append(elapsed / time_reference())
    return inputs


def measure_untraced(workload, inputs, goldens, seed, seconds, tally, setup_ratios) -> dict:
    """Closed loop for `seconds`, each operation bracketed by reference loops.

    A sample is the operation's wall time over the mean of the reference
    times just before and after it and of any probes the operation took
    (see reference.Probes).  Set-up is re-timed every SETUP_INTERVAL_S, so
    its samples, like the operations', span the run.
    If no operation completed, `op_ms` is left out: there is no time to
    report, and the failures show in the result.
    """
    op_ratios = []
    PROBES.on = True
    start = clock()
    next_setup = start + SETUP_INTERVAL_S
    before = time_reference()
    index = 0
    while index == 0 or clock() - start < seconds:
        PROBES.times.clear()
        call = guarded(workload, workload.op, inputs, goldens, seed, index)
        after = time_reference()
        references = [before, after] + PROBES.times
        reference_s = sum(references) / len(references)
        for raw in call.samples.get(workload.primary, []):
            op_ratios.append(raw * workload.to_ms / 1000.0 / reference_s)
        call.sample("reference_ms", after * 1000.0)
        tally.merge(call)
        index += 1
        before = after
        if clock() >= next_setup:
            time_setup(workload, setup_ratios)
            next_setup = clock() + SETUP_INTERVAL_S
            before = time_reference()
    PROBES.on = False
    metrics = {}
    if op_ratios:
        metrics["op_ms"] = (statistics.median(op_ratios) * REFERENCE_MS, "ms")
    metrics["setup_s"] = (statistics.median(setup_ratios) * REFERENCE_MS / 1000.0, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def measure_traced(workload, inputs, goldens, seed, tally) -> dict:
    from tracing import EXPLORE_COUNTS, LAYERS, RATIOS, Tracer

    from workloads import Tally

    calls = workload.trace_calls
    tracers = [Tracer(), Tracer()]
    untraced = [Tally(), Tally()]
    traced = [Tally(), Tally()]
    untraced_s = traced_s = 0.0
    # Two traced passes over the same batch, each call preceded by the same
    # call untraced, so drift in machine speed lands on both sides of the
    # overhead alike.
    for index in range(calls):
        for tracer, plain, batch in zip(tracers, untraced, traced):
            untraced_s += timed_call(workload, inputs, goldens, seed, index, plain)
            with tracer:
                traced_s += timed_call(workload, inputs, goldens, seed, index, batch)
    for batch in untraced + traced:
        tally.merge(batch)
        if batch.digests != untraced[0].digests:
            tally.fail(calls * workload.ops_per_call, "a traced pass changed the outputs")

    counts = [tracer.counts() for tracer in tracers]
    for number, (tracer, batch) in enumerate(zip(tracers, traced), 1):
        explorer = {"schedules": tracer.schedules, "branch_points": tracer.branch_points}
        expected = {name: batch.counts.get(name, 0) for name in explorer}
        if explorer != expected:
            tally.fail(1, f"traced pass {number}: explorer counts {explorer} != reported {expected}")
    if counts[0] != counts[1]:
        changed = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        tally.fail(1, f"counts differ between the traced passes: {changed}")

    self_ms = [tracer.self_ms() for tracer in tracers]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (counts[0][f"{layer}.calls"], "count")
        metrics[f"{layer}.self_ms"] = ((self_ms[0][f"{layer}.self_ms"] + self_ms[1][f"{layer}.self_ms"]) / 2, "ms")
    for name in RATIOS + EXPLORE_COUNTS:
        unit = "ratio" if name in RATIOS or name.endswith("_share") else "count"
        metrics[name] = (counts[0][name], unit)
    metrics["tracing.untraced_ms"] = (untraced_s / 2 * 1000.0, "ms")
    metrics["tracing.traced_ms"] = (traced_s / 2 * 1000.0, "ms")
    metrics["tracing_overhead"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return metrics


def details(tally) -> list:
    """Human-readable figures under the names each workload is known by."""
    lines = []
    samples = tally.samples
    for name in sorted(samples):
        values = samples[name]
        line = f"  {name}: n={len(values)} p50={statistics.median(values):.6g}"
        if len(values) >= 100:
            line += f" p90={quantile(values, 90):.6g}"
        lines.append(line)
    for name in sorted(tally.counts):
        lines.append(f"  {name}: {tally.counts[name]}")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    lines.append(f"  failed_share: {share:.6g} ({tally.failed} of {tally.attempted} operations)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, Tally, load_goldens

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    goldens = load_goldens()

    setup_ratios = []
    inputs = time_setup(workload, setup_ratios)
    tally = Tally()
    tally.merge(guarded(workload, workload.golden, inputs, goldens))
    if args.trace:
        metrics = measure_traced(workload, inputs, goldens, args.seed, tally)
    else:
        metrics = measure_untraced(workload, inputs, goldens, args.seed, args.seconds, tally, setup_ratios)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("details:")
    for line in details(tally):
        print(line)
    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

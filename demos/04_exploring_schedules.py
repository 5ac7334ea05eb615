#!/usr/bin/env python3
# Model checking the commit rules.  The explorer enumerates every schedule
# in a bounded space, up to quiescence: message delivery latencies in
# {1, delta} plus one adversary's vote/forward timing menu, until no choice
# can change any lot's resolution, its tick, or a wallet (a lot past its
# refund deadline can only refund); a run that reaches an already-explored
# branch point reuses the known tail.  Under path-scaled deadlines the
# two-party swap space is safe; under a single fixed deadline the same
# space contains a concrete theft schedule.

from dealsim.adversary import ExplorationBound, exhaustive_explore
from dealsim.deals import payoff_of_run
from dealsim.scenario import load_scenario

print("exploring the two-party swap under path-scaled deadlines...")
safe = exhaustive_explore(load_scenario("explore_swap_timelock"), ExplorationBound())
print(f"  verdict: {safe.verdict} over {safe.runs} complete schedules "
      f"({safe.branch_points} branch points)")

print()
print("same swap, same adversary, one fixed deadline per party per asset...")
broken = exhaustive_explore(load_scenario("explore_swap_naive"), ExplorationBound())
print(f"  verdict: {broken.verdict} ({len(broken.violations)} violating schedules)")

witness = broken.violations[0]
print(f"  sample witness tape: {witness['tape']}")
for lot, (resolution, tick) in sorted(witness["resolutions"].items()):
    print(f"    {lot}: {resolution} at {tick}")

trace = broken.witness_traces[0]
print("  payoffs in the witness run:")
for party in trace.scenario["deal"]["parties"]:
    print(f"    {party}: {payoff_of_run(trace, party)}")

print()
print("The schedule: the adversary votes at its counterparty's escrow at")
print("the last tick inside the fixed window and relays the counterparty's")
print("vote there in the same breath.  That escrow commits; the observing")
print("counterparty relays the adversary's vote back, but its arrival")
print("falls outside the fixed window, so the other escrow refunds the")
print("adversary.  Scaled deadlines reject the adversary's stale direct")
print("vote instead, and the explorer confirms no schedule leaks value.")

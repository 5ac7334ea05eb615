#!/usr/bin/env python3
# A broker deal end to end: Bob sells two theater tickets for 100 coins,
# Carol pays 101, and Alice the broker keeps the 1-coin spread without
# owning either asset up front.  We run the same deal under both commit
# protocols and read the payoffs out of the trace.

from dealsim.costs import meter, render_text, check_asymptotics
from dealsim.deals import payoff_of_run
from dealsim.properties import run_verdicts
from dealsim.scenario import build_world, ticket_deal

for protocol in ("timelock", "cbc"):
    print("=" * 64)
    print(f"protocol: {protocol}")
    built = build_world(ticket_deal(protocol))
    trace = built.world.run()

    # The deal has two escrow lots: Bob's tickets on the ticket chain and
    # Carol's 101 coins on the coin chain.  Both must end committed.
    for lot, (resolution, tick) in sorted(trace.resolutions.items()):
        print(f"  {lot}: {resolution} at tick {tick}")

    # Net payoffs: pass-through assets cancel, so Alice's payoff is a
    # clean +1 coin even though 201 coins and two tickets moved through
    # commit-ownership under her name.
    for party in built.deal.parties:
        print(f"  {party:>6}: {payoff_of_run(trace, party)}")

    for verdict in run_verdicts(trace):
        status = "n/a" if verdict.passed is None else ("pass" if verdict.passed else "FAIL")
        print(f"  {verdict.prop:>16}: {status}")

    print()
    costs = meter(trace)
    print(render_text(costs.to_json(), [b.to_json() for b in check_asymptotics(costs)]))

print("=" * 64)
print("Note how the timelock run needs a vote from every party at every")
print("lot (forwarded votes carry growing signature paths), while the")
print("certified run records three votes on the shared ledger and settles")
print("each lot with one two-signature certificate.")

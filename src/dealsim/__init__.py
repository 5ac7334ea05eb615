"""dealsim: deterministic simulation of multi-chain escrowed asset deals.

The library models independent append-only chains hosting escrow
contracts, parties that follow (or deviate from) two commit protocols --
a fully decentralized timelock protocol with path-signature deadlines and
a certified shared-ledger protocol with validator certificates -- plus
post-hoc checkers for safety, liveness, and agreement, and a gas/delay
cost model.
"""

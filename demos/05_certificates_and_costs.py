#!/usr/bin/env python3
# Certificates: how an escrow contract that can't read the shared ledger
# learns the deal's fate, and what it costs.  A quorum of f+1 out of 3f+1
# validators vouches for the decided status; the contract checks signer
# uniqueness, membership, count, then f+1 signatures.

from dealsim.cbc import (
    CbcLogContract,
    Certificate,
    ValidatorService,
    cbc_decide,
    verify_certificate,
)
from dealsim.costs import meter
from dealsim.crypto import SignatureScheme, certificate_message
from dealsim.scenario import build_world, load_scenario

scheme = SignatureScheme("demo")
service = ValidatorService(scheme, f=1, corrupt=1)
print(f"validator set (3f+1 = {len(service.members(0))}):", ", ".join(service.members(0)))
print(f"of which secretly corrupt: {sorted(service.corrupt_ids)}")

log = CbcLogContract()
_, _, info = log.apply({"op": "start_deal", "deal": "demo", "plist": ["a", "b", "c"]}, "a", 0, None)
h = info["h"]
for voter in ("a", "b", "c"):
    log.apply({"op": "commit", "deal": "demo", "h": h, "voter": voter}, voter, 1, None)
# The log records its decision when the decisive vote lands.
decision = log.state["decisions"][h]
print(f"recorded decision: {decision.status} at ledger position {decision.position}")
print("  re-deciding from the raw entries agrees:", decision == cbc_decide(log.entries, "demo", h))

cert = service.issue_certificate(log.state, "demo", h)
print(f"certificate: {cert.status} epoch {cert.epoch}, {len(cert.signatures)} signatures")
ruling = verify_certificate(cert, 0, service.members(0), 1, scheme)
print(f"contract verdict: ok={ruling.ok}, {ruling.verifications} signature checks")

# The corrupt minority tries to certify the opposite. f signatures cannot
# reach the f+1 threshold, and padding with a non-validator is caught.
lie = certificate_message("demo", h, "aborted", 0)
forged = Certificate("demo", h, "aborted", 0, tuple(service.corrupt_signatures(lie)))
print("forged abort certificate:", verify_certificate(forged, 0, service.members(0), 1, scheme))

padded = Certificate(
    "demo", h, "aborted", 0,
    tuple(sorted(service.corrupt_signatures(lie) + [("outsider", scheme.sign(scheme.keypair("outsider"), lie))])),
)
print("padded with an outsider:  ", verify_certificate(padded, 0, service.members(0), 1, scheme))

# After a reconfiguration the old set vouches for the new one, and settling
# costs one extra quorum of signature checks per epoch hop.
print()
print("running the brokerage deal on a reconfigured ledger...")
built = build_world(load_scenario("reconfigured_cbc"))
trace = built.world.run()
report = meter(trace)
f = trace.scenario["cbc"]["f"]
print(f"  settled lots: {sorted(trace.resolutions)}")
print(f"  signature verifications: {report.total('verifications')} "
      f"= m * (hops+1) * (f+1) = {report.params['m']} * 2 * {f + 1}")

"""Timelock commit rules: path-length-scaled vote deadlines and timeouts.

A vote carried by a path signature p is accepted strictly before
t0 + |p| * delta.  A lot that has not accepted a vote from every party by
t0 + N * delta refunds its escrow.  The `naive` variant (a regression
target, not a usable protocol) gives every vote the same fixed deadline
t0 + N * delta regardless of path length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import PathSignature, SignatureScheme, path_defect

ACCEPT = "accepted"
REJECT = "rejected"


@dataclass(frozen=True)
class VoteRuling:
    status: str
    reason: str | None
    verifications: int  # signature checks the contract performed


def refund_deadline(t0: int, delta: int, n_parties: int) -> int:
    """The tick from which a lot still missing some party's vote refunds."""
    return t0 + n_parties * delta


def vote_deadline(t0: int, delta: int, path_len: int, n_parties: int, naive: bool) -> int:
    if naive:
        return refund_deadline(t0, delta, n_parties)
    return t0 + path_len * delta


def judge_vote(
    path: PathSignature,
    *,
    deal_id: str,
    plist: tuple,
    voted: dict,
    t0: int,
    delta: int,
    local_now: int,
    naive: bool,
    scheme: SignatureScheme,
) -> VoteRuling:
    """Apply the contract-side acceptance checks in on-chain order.

    Cheap structural checks run before any signature verification, so the
    ruling's verification count is what a gas meter should charge.
    """
    n = len(plist)
    if local_now >= vote_deadline(t0, delta, path.path_len, n, naive):
        return VoteRuling(REJECT, "timeout", 0)
    if path.vote.deal != deal_id:
        return VoteRuling(REJECT, "wrong-deal", 0)
    if path.vote.voter not in plist:
        return VoteRuling(REJECT, "unknown-voter", 0)
    if path.vote.voter in voted:
        return VoteRuling(REJECT, "duplicate", 0)
    defect = path_defect(scheme, path, plist)
    if defect is not None:
        return VoteRuling(REJECT, *defect)
    return VoteRuling(ACCEPT, None, path.path_len)


def refund_due(t0: int, delta: int, n_parties: int, voted: dict, local_now: int) -> bool:
    return local_now >= refund_deadline(t0, delta, n_parties) and len(voted) < n_parties


def vote_payload(lot_escrower: str, path: PathSignature, deal_id: str) -> dict:
    return {"op": "commit", "deal": deal_id, "lot": lot_escrower, "path": path.to_json()}

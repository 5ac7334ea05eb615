"""Certified-ledger commit protocol: shared log, decisions, certificates.

The shared certified chain (CBC) records startDeal / commit / abort
entries in a single total order.  A deal commits at the position where the
last distinct party's commit lands with no abort anywhere before it, and
aborts at the first abort that lands while some party has still not
committed.  Validators of the chain attest to a decided status with
certificates carrying f+1 signatures out of a 3f+1 member set.  The
log contract's state is its entry list, the chain's balances (always
empty) and each start ref's decision, which parties and validators read;
the chain records it after each entry, and no entry mutates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .crypto import (
    SignatureScheme,
    certificate_message,
    digest_hex,
    encode_message,
    validator_set_message,
)

UNDECIDED = "undecided"
COMMITTED = "committed"
ABORTED = "aborted"

CBC_CHAIN = "cbc"  # the shared certified chain's id in every world


class CbcError(ValueError):
    pass


def start_ref(deal_id: str, plist: Sequence[str], position: int) -> str:
    """Hash identifying one startDeal entry (duplicates differ by position)."""
    return digest_hex(encode_message("START", deal_id, *plist, str(position)))[:16]


def definitive_start(entries: Sequence[dict], deal_id: str, h: str | None = None):
    """Earliest startDeal entry for the deal (with start ref `h`, if given), or None."""
    for entry in entries:
        if (
            entry["op"] == "start_deal"
            and entry["deal"] == deal_id
            and (h is None or entry["h"] == h)
        ):
            return entry
    return None


@dataclass(frozen=True)
class Decision:
    status: str
    position: int | None  # position of the decisive vote


def decide_votes(votes: Sequence[tuple], parties: Sequence[str]) -> tuple:
    """Decide from an ordered list of (kind, voter) pairs.

    Any abort is decisive while some party has yet to commit; the commit
    completing the party set is decisive if no abort came first.  Votes
    after the decisive index cannot change the outcome.  Returns
    (status, decisive index or None).
    """
    members = frozenset(parties)
    needed = len(members)
    committed = set()
    for i, (kind, voter) in enumerate(votes):
        if voter not in members:
            continue
        if kind == "abort":
            return (ABORTED, i)
        committed.add(voter)
        if len(committed) == needed:
            return (COMMITTED, i)
    return (UNDECIDED, None)


def cbc_decide(entries: Sequence[dict], deal_id: str, h: str) -> Decision:
    """Decide a deal's outcome from the shared log, in position order."""
    start = definitive_start(entries, deal_id, h)
    if start is None:
        raise CbcError(f"no startDeal with h={h!r} for deal {deal_id!r}")
    votes = []
    positions = []
    for entry in entries:
        if entry["op"] in ("commit", "abort") and entry["deal"] == deal_id and entry["h"] == h:
            votes.append((entry["op"], entry["voter"]))
            positions.append(entry["position"])
    status, index = decide_votes(votes, start["plist"])
    return Decision(status, positions[index] if index is not None else None)


class CbcLogContract:
    """The shared chain's deal registry: validates and orders vote entries.
    Its `state` holds the `entries`, the chain's empty `wallets` and the
    `decisions` (start ref -> `Decision` of the entries so far); an
    accepted entry builds a new state."""

    def __init__(self):
        self.state = {"entries": [], "wallets": {"fungible": {}, "tokens": {}}, "decisions": {}}

    @property
    def entries(self) -> List[dict]:
        return self.state["entries"]

    def apply(self, payload: dict, publisher: str, local_now: int, scheme) -> tuple:
        op = payload.get("op")
        if op == "start_deal":
            if publisher not in payload["plist"]:
                return "rejected", "caller-not-in-plist", {}
            position = len(self.entries)
            entry = {
                "op": "start_deal",
                "deal": payload["deal"],
                "plist": list(payload["plist"]),
                "position": position,
                "h": start_ref(payload["deal"], payload["plist"], position),
            }
            decisions = {**self.state["decisions"], entry["h"]: Decision(UNDECIDED, None)}
            self.state = {**self.state, "entries": [*self.entries, entry], "decisions": decisions}
            return "accepted", None, {"h": entry["h"], "position": position}
        if op in ("commit", "abort"):
            start = definitive_start(self.entries, payload["deal"], payload["h"])
            if start is None:
                return "rejected", "unknown-start", {}
            if payload["voter"] not in start["plist"]:
                return "rejected", "unknown-voter", {}
            if publisher != payload["voter"]:
                return "rejected", "voter-mismatch", {}
            position = len(self.entries)
            entry = {
                "op": op,
                "deal": payload["deal"],
                "h": payload["h"],
                "voter": payload["voter"],
                "position": position,
            }
            entries = [*self.entries, entry]
            decisions = self.state["decisions"]
            h = entry["h"]
            # A decided status never changes.  An undecided one has only
            # commits before this vote (a member's abort is decisive), so
            # this vote decides it if it aborts or completes the commits.
            if decisions[h].status == UNDECIDED:
                committed = {e["voter"] for e in entries if e["op"] == "commit" and e["h"] == h}
                if op == "abort" or committed >= set(start["plist"]):
                    status = ABORTED if op == "abort" else COMMITTED
                    decisions = {**decisions, h: Decision(status, position)}
            self.state = {**self.state, "entries": entries, "decisions": decisions}
            return "accepted", None, {"position": position}
        return "rejected", "unknown-op", {}

    def state_key(self) -> tuple:
        # The balances never change and the decisions are those of the
        # entries, so the entries fix the state.
        return tuple(
            tuple(sorted((k, tuple(v) if isinstance(v, list) else v) for k, v in e.items()))
            for e in self.entries
        )

    def quiescent(self, finished, local_now) -> bool:
        """Never: votes and the settles whose certificates they back still
        reach the trace, and the agreement check reads them."""
        return False


@dataclass(frozen=True)
class Certificate:
    """A status attestation signed by at least f+1 validators of one epoch."""

    deal: str
    h: str
    status: str
    epoch: int
    signatures: Tuple[Tuple[str, str], ...]  # (validator id, signature), sorted

    def to_json(self) -> dict:
        return {
            "deal": self.deal,
            "h": self.h,
            "status": self.status,
            "epoch": self.epoch,
            "signatures": [[v, s] for v, s in self.signatures],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        return cls(
            data["deal"],
            data["h"],
            data["status"],
            data["epoch"],
            tuple((v, s) for v, s in data["signatures"]),
        )


@dataclass(frozen=True)
class ReconfigHop:
    """Epoch handover: the previous epoch's validators sign the next set."""

    new_epoch: int
    new_members: Tuple[str, ...]
    signatures: Tuple[Tuple[str, str], ...]

    def to_json(self) -> dict:
        return {
            "new_epoch": self.new_epoch,
            "new_members": list(self.new_members),
            "signatures": [[v, s] for v, s in self.signatures],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ReconfigHop":
        return cls(
            data["new_epoch"],
            tuple(data["new_members"]),
            tuple((v, s) for v, s in data["signatures"]),
        )


@dataclass(frozen=True)
class CertRuling:
    ok: bool
    reason: str | None
    verifications: int


def check_signature_quorum(
    message: bytes,
    signatures: Sequence[Tuple[str, str]],
    members: frozenset,
    f: int,
    scheme: SignatureScheme,
) -> CertRuling:
    """Contract-side quorum check: uniqueness, membership, count, then f+1 sig checks."""
    signers = [v for v, _ in signatures]
    if len(set(signers)) != len(signers):
        return CertRuling(False, "duplicate-signer", 0)
    if not set(signers) <= members:
        return CertRuling(False, "non-validator-signer", 0)
    if len(signers) < f + 1:
        return CertRuling(False, "below-threshold", 0)
    for i, (vid, sig) in enumerate(signatures[: f + 1]):
        if not scheme.verify(vid, message, sig):
            return CertRuling(False, f"bad-signature@{i}", i + 1)
    return CertRuling(True, None, f + 1)


def verify_certificate(
    cert: Certificate,
    known_epoch: int,
    known_members: Sequence[str],
    f: int,
    scheme: SignatureScheme,
    reconfig: Sequence[ReconfigHop] = (),
) -> CertRuling:
    """Verify a certificate against the member set a contract was configured with.

    A certificate from a later epoch must come with the chain of
    reconfiguration hops; each hop costs another f+1 verifications.
    """
    if cert.status not in (COMMITTED, ABORTED):
        return CertRuling(False, "bad-status", 0)
    members = frozenset(known_members)
    epoch = known_epoch
    total = 0
    for hop in reconfig:
        if hop.new_epoch != epoch + 1:
            return CertRuling(False, "epoch-gap", total)
        ruling = check_signature_quorum(
            validator_set_message(hop.new_epoch, hop.new_members),
            hop.signatures,
            members,
            f,
            scheme,
        )
        total += ruling.verifications
        if not ruling.ok:
            return CertRuling(False, f"reconfig-{ruling.reason}", total)
        members = frozenset(hop.new_members)
        epoch = hop.new_epoch
    if cert.epoch != epoch:
        return CertRuling(False, "stale-epoch", total)
    ruling = check_signature_quorum(
        certificate_message(cert.deal, cert.h, cert.status, cert.epoch),
        cert.signatures,
        members,
        f,
        scheme,
    )
    return CertRuling(ruling.ok, ruling.reason, total + ruling.verifications)


class ValidatorService:
    """The CBC's validator overlay: 3f+1 members, at most f of them corrupt.

    Honest members sign only statements that the shared log actually
    supports.  Corrupt members sign whatever an adversary asks, which is
    exactly what the f+1 counting argument must survive.
    """

    def __init__(self, scheme: SignatureScheme, f: int, corrupt: int = 0, seed: str = "val"):
        if corrupt > f:
            raise CbcError("at most f validators may deviate")
        self.scheme = scheme
        self.f = f
        self._seed = seed
        self.epochs: List[Tuple[str, ...]] = []
        self._hops: List[ReconfigHop] = []
        members = self._fresh_members(0)
        self.epochs.append(members)
        self.corrupt_ids = frozenset(members[:corrupt])

    @classmethod
    def for_scenario(cls, scheme: SignatureScheme, cbc: dict) -> "ValidatorService":
        """The service a scenario's `cbc` section describes, with its
        reconfigurations already made."""
        service = cls(scheme, cbc["f"], cbc["corrupt"])
        for _ in range(cbc.get("reconfigurations", 0)):
            service.reconfigure()
        return service

    def _fresh_members(self, epoch: int) -> Tuple[str, ...]:
        return tuple(f"{self._seed}-e{epoch}-v{i}" for i in range(3 * self.f + 1))

    def _sign(self, validator: str, message: bytes) -> str:
        # The scheme derives a validator's key when it first signs.
        return self.scheme.sign(self.scheme.keypair(validator), message)

    @property
    def epoch(self) -> int:
        return len(self.epochs) - 1

    def members(self, epoch: int | None = None) -> Tuple[str, ...]:
        return self.epochs[self.epoch if epoch is None else epoch]

    def honest_members(self, epoch: int | None = None) -> List[str]:
        return [v for v in self.members(epoch) if v not in self.corrupt_ids]

    def reconfigure(self) -> ReconfigHop:
        """Elect a fresh member set; the old epoch's honest members vouch for it."""
        new_epoch = self.epoch + 1
        new_members = self._fresh_members(new_epoch)
        msg = validator_set_message(new_epoch, new_members)
        signers = self.honest_members()[: self.f + 1]
        sigs = tuple(sorted((v, self._sign(v, msg)) for v in signers))
        self.epochs.append(new_members)
        hop = ReconfigHop(new_epoch, new_members, sigs)
        self._hops.append(hop)
        return hop

    def reconfig_chain(self) -> Tuple[ReconfigHop, ...]:
        return tuple(self._hops)

    def issue_certificate(self, log_state: dict, deal_id: str, h: str) -> Certificate:
        """Certify the status a `CbcLogContract` state records for the
        deal's start ref `h`; an unknown or undecided one cannot be certified."""
        if definitive_start(log_state["entries"], deal_id, h) is None:
            raise CbcError(f"no startDeal with h={h!r} for deal {deal_id!r}")
        status = log_state["decisions"][h].status
        if status == UNDECIDED:
            raise CbcError(f"deal {deal_id!r} is undecided; no certificate")
        msg = certificate_message(deal_id, h, status, self.epoch)
        signers = self.honest_members()[: self.f + 1]
        sigs = tuple(sorted((v, self._sign(v, msg)) for v in signers))
        return Certificate(deal_id, h, status, self.epoch, sigs)

    def corrupt_signatures(self, message: bytes) -> List[Tuple[str, str]]:
        """Corrupt members sign an arbitrary statement on request."""
        return sorted(
            (v, self._sign(v, message)) for v in sorted(self.corrupt_ids)
        )

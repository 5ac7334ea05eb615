"""Signing, verification, and vote path signatures.

The default scheme is a deterministic keyed hash: a signature is
sha256(private key || message).  Verification recomputes it through a
registry that holds every party's private key, so this is a trusted
verifier MAC, not real asymmetric cryptography; it is reproducible and
fast, which is what a protocol simulation needs.  Any scheme exposing
keypair/sign/verify can be slotted in behind the same interface.

Message encoding is canonical and bit-exact: a message is a tag followed
by length-prefixed UTF-8 fields in declaration order (4-byte big-endian
lengths), so independent implementations can interoperate on traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple


class CryptoError(ValueError):
    pass


def _field(part: str) -> bytes:
    data = part.encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def encode_message(tag: str, *parts: str) -> bytes:
    return tag.encode("ascii") + b"".join(_field(p) for p in parts)


def digest_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class KeyPair:
    """A party's signing handle; the private half stays with its owner."""

    party: str
    private: str


class SignatureScheme:
    """Keyed-hash signatures with a registry of every party's key."""

    def __init__(self, seed: str = "keys"):
        self._seed = seed
        self._keypairs: dict[str, KeyPair] = {}
        self._key_bytes: dict[str, bytes] = {}  # party -> decoded private key

    @classmethod
    def for_run(cls, seed: int) -> "SignatureScheme":
        """The keys of the run with this seed; checkers re-derive them from a trace."""
        return cls(seed=f"run-{seed}")

    def keypair(self, party: str) -> KeyPair:
        pair = self._keypairs.get(party)
        if pair is None:
            priv = digest_hex(encode_message("PRIV", self._seed, party))
            pair = self._keypairs[party] = KeyPair(party, priv)
        return pair

    def sign(self, keypair: KeyPair, message: bytes) -> str:
        return digest_hex(bytes.fromhex(keypair.private) + message)

    def verify(self, party: str, message: bytes, signature: str) -> bool:
        # Key derivation is deterministic, so the verifier derives the
        # signer's key on demand; it holds every party's key (a trusted
        # verifier MAC, see the module docstring).
        key = self._key_bytes.get(party)
        if key is None:
            key = self._key_bytes[party] = bytes.fromhex(self.keypair(party).private)
        return digest_hex(key + message) == signature


@dataclass(frozen=True)
class Vote:
    """A commit vote: deal, voter, and a single-use nonce against replay."""

    deal: str
    voter: str
    nonce: str


@dataclass(frozen=True)
class PathSignature:
    """A vote wrapped in an ordered chain of signatures.

    links[0] is the voter's own signature over the vote; each later link
    signs the vote plus every link before it.
    """

    vote: Vote
    links: Tuple[Tuple[str, str], ...]  # (signer, signature)

    @property
    def path_len(self) -> int:
        return len(self.links)

    def signers(self) -> Tuple[str, ...]:
        return tuple(s for s, _ in self.links)

    def to_json(self) -> dict:
        return {
            "vote": {"deal": self.vote.deal, "voter": self.vote.voter, "nonce": self.vote.nonce},
            "links": [[s, sig] for s, sig in self.links],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PathSignature":
        v = data["vote"]
        return cls(
            Vote(v["deal"], v["voter"], v["nonce"]),
            tuple((s, sig) for s, sig in data["links"]),
        )


def vote_message(vote: Vote) -> bytes:
    return encode_message("VOTE", vote.deal, vote.voter, vote.nonce)


def link_message(vote: Vote, prior_links: Sequence[Tuple[str, str]]) -> bytes:
    """What the next signer attests to: the vote plus the existing chain."""
    msg = vote_message(vote)
    for signer, sig in prior_links:
        msg += _field(signer) + _field(sig)
    return msg


def direct_vote(scheme: SignatureScheme, keypair: KeyPair, vote: Vote) -> PathSignature:
    if keypair.party != vote.voter:
        raise CryptoError("a direct vote must be signed by its voter")
    sig = scheme.sign(keypair, link_message(vote, ()))
    return PathSignature(vote, ((keypair.party, sig),))


def extend_path(scheme: SignatureScheme, keypair: KeyPair, path: PathSignature) -> PathSignature:
    if keypair.party in path.signers():
        raise CryptoError(f"{keypair.party} already signed this path")
    sig = scheme.sign(keypair, link_message(path.vote, path.links))
    return PathSignature(path.vote, path.links + ((keypair.party, sig),))


def path_defect(
    scheme: SignatureScheme, path: PathSignature, plist: Iterable[str]
) -> Optional[Tuple[str, int]]:
    """The first defect of a path signature, or None if it is valid.

    A defect is (reason, signature verifications made to find it).  The
    structure is checked before any signature, and signatures in link
    order, so a valid path costs exactly one verification per link.
    """
    members = set(plist)
    signers = path.signers()
    if (
        not signers
        or signers[0] != path.vote.voter
        or len(set(signers)) != len(signers)
        or not set(signers) <= members
        or path.vote.voter not in members
    ):
        return "invalid-path", 0
    message = vote_message(path.vote)
    for i, (signer, sig) in enumerate(path.links):
        # Link i signs the vote plus links 0..i-1: `link_message` built
        # up one link at a time.
        if not scheme.verify(signer, message, sig):
            return f"bad-signature@{i}", i + 1
        message += _field(signer) + _field(sig)
    return None


def verify_path(scheme: SignatureScheme, path: PathSignature, plist: Iterable[str]) -> bool:
    """Check structure and every signature; False on any defect."""
    return path_defect(scheme, path, plist) is None


def certificate_message(deal: str, start_ref: str, status: str, epoch: int) -> bytes:
    return encode_message("CERT", deal, start_ref, status, str(epoch))


def validator_set_message(epoch: int, members: Sequence[str]) -> bytes:
    return encode_message("VSET", str(epoch), *sorted(members))

"""Post-hoc property checkers over run traces.

Checkers are pure functions of a trace, judged by the deal it holds
(`RunTrace.deal`, live or loaded): safety asks whether every
compliant party ended with an acceptable payoff; weak liveness whether
every compliant escrow resolved within the protocol's timeout structure;
strong liveness whether an all-compliant synchronous run delivered every
party its full payoff.  Failing verdicts always carry a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .cbc import ABORTED, CBC_CHAIN, COMMITTED, Certificate, ValidatorService, verify_certificate
from .crypto import SignatureScheme
from .deals import is_acceptable, payoff_of_run, wallet_delta_payoff
from .timelock import refund_deadline


@dataclass
class Verdict:
    prop: str
    passed: Optional[bool]  # None = inapplicable
    details: str = ""
    witness: list = field(default_factory=list)

    @property
    def applicable(self) -> bool:
        return self.passed is not None

    def to_json(self) -> dict:
        status = "inapplicable" if self.passed is None else ("pass" if self.passed else "fail")
        return {"property": self.prop, "status": status, "details": self.details, "witness": self.witness}


def _compliant_of(trace) -> List[str]:
    return list(trace.metadata.get("compliant", []))


def compliant_terminated(trace, compliant: Iterable[str]) -> bool:
    """True when every escrow created by a compliant party has resolved.

    A deviating party's own escrow may stay locked forever (nobody else is
    obliged to settle it); that does not keep payoffs of compliant parties
    from being final.
    """
    compliant = set(compliant)
    for key, (resolution, _) in trace.resolutions.items():
        if resolution == "active" and key.split("/", 1)[1] in compliant:
            return False
    return True


def check_safety(trace, compliant: Optional[Iterable[str]] = None) -> Verdict:
    """Every compliant party's net payoff must be acceptable to it."""
    compliant = list(compliant) if compliant is not None else _compliant_of(trace)
    if not compliant_terminated(trace, compliant):
        raise ValueError("safety undefined: compliant escrows still unresolved")
    witness = []
    for party in compliant:
        payoff = wallet_delta_payoff(trace, party)
        if not is_acceptable(party, payoff, trace.deal):
            witness.append({"party": party, "payoff": payoff.to_json()})
    if witness:
        return Verdict("safety", False, "compliant party with unacceptable payoff", witness)
    return Verdict("safety", True, f"{len(compliant)} compliant parties acceptable")


def weak_liveness_bound(trace) -> int:
    """The resolution deadline implied by the protocol's timeout structure."""
    deal = trace.deal
    protocol = trace.scenario["protocol"]
    n = len(deal.parties)
    if protocol in ("timelock", "naive"):
        return refund_deadline(deal.t0, deal.delta, n) + deal.delta
    grace = trace.scenario["cbc"]["grace"]
    vote_ticks = [
        e.tick
        for e in trace.events
        if e.kind == "publish" and e.where == CBC_CHAIN and e.status == "accepted"
        and e.payload.get("op") in ("commit", "abort")
    ]
    last_vote = max(vote_ticks, default=trace.scenario["cbc"]["patience"])
    return last_vote + grace + 2 * deal.delta


def check_weak_liveness(trace) -> Verdict:
    """No compliant party's escrow stays unresolved past the bound."""
    compliant = set(_compliant_of(trace))
    bound = weak_liveness_bound(trace)
    witness = []
    checked = 0
    for key, (resolution, tick) in sorted(trace.resolutions.items()):
        escrower = key.split("/", 1)[1]
        if escrower not in compliant:
            continue
        checked += 1
        if resolution == "active":
            witness.append({"lot": key, "unresolved": True})
        elif tick is not None and tick > bound:
            witness.append({"lot": key, "resolved_at": tick, "bound": bound})
    if witness:
        return Verdict("weak-liveness", False, f"escrow past bound {bound}", witness)
    return Verdict("weak-liveness", True, f"{checked} compliant escrows resolved by {bound}")


def check_strong_liveness(trace) -> Verdict:
    """All-compliant synchronous runs must realize every party's full payoff."""
    deal = trace.deal
    parties = set(deal.parties)
    compliant = set(_compliant_of(trace))
    if compliant != parties:
        return Verdict("strong-liveness", None, "inapplicable: deviating parties declared")
    if not trace.all_resolved:
        return Verdict("strong-liveness", False, "unresolved escrows at horizon",
                       [{"unresolved": trace.unresolved}])
    witness = []
    for party in deal.parties:
        payoff = payoff_of_run(trace, party)
        if payoff != deal.all_payoff(party):
            witness.append({"party": party, "payoff": payoff.to_json(),
                            "expected": deal.all_payoff(party).to_json()})
    network = trace.scenario["network"]
    if witness and network["mode"] == "semi-synchronous":
        decisive = _decision_tick(trace)
        if decisive is None or decisive < network["gst"]:
            return Verdict(
                "strong-liveness",
                None,
                "inapplicable: schedule resolved before global stabilization (expected abort)",
            )
    if witness:
        return Verdict("strong-liveness", False, "party short of full payoff", witness)
    return Verdict("strong-liveness", True, "all parties realized their full payoff")


def _decision_tick(trace) -> Optional[int]:
    """Tick of the last escrow resolution, if every lot resolved."""
    ticks = [tick for res, tick in trace.resolutions.values() if tick is not None]
    if not trace.all_resolved or not ticks:
        return None
    return max(ticks)


def check_agreement(trace) -> Verdict:
    """No (deal, start ref) may have both statuses backed by verifiable
    certificates, and compliant escrows must all resolve the same way."""
    if trace.scenario["protocol"] != "cbc":
        return Verdict("agreement", None, "inapplicable: not a certified-ledger run")
    scheme = SignatureScheme.for_run(trace.seed)
    cbc_cfg = trace.scenario["cbc"]
    service = ValidatorService.for_scenario(scheme, cbc_cfg)
    hops = service.reconfig_chain()
    verified: Dict[tuple, set] = {}
    for event in trace.events:
        if event.kind != "publish" or "cert" not in event.payload:
            continue
        cert = Certificate.from_json(event.payload["cert"])
        use_hops = hops if cert.epoch > 0 else ()
        ruling = verify_certificate(
            cert, 0, service.members(0), cbc_cfg["f"], scheme, use_hops
        )
        if ruling.ok:
            verified.setdefault((cert.deal, cert.h), set()).add(cert.status)
    witness = [
        {"deal": deal, "h": h, "statuses": sorted(statuses)}
        for (deal, h), statuses in verified.items()
        if len(statuses) > 1
    ]
    outcomes = {res for res, _ in trace.resolutions.values() if res != "active"}
    if len(outcomes) > 1:
        witness.append({"split-resolutions": {k: list(v) for k, v in trace.resolutions.items()}})
    if witness:
        return Verdict("agreement", False, "conflicting certified statuses", witness)
    return Verdict("agreement", True, "single certified status per deal")


def run_verdicts(trace) -> List[Verdict]:
    compliant = _compliant_of(trace)
    verdicts = []
    if compliant_terminated(trace, compliant):
        verdicts.append(check_safety(trace, compliant))
    else:
        verdicts.append(Verdict("safety", False, "compliant escrows unresolved at horizon",
                                [{"unresolved": trace.unresolved}]))
    verdicts.append(check_weak_liveness(trace))
    verdicts.append(check_strong_liveness(trace))
    if trace.scenario["protocol"] == "cbc":
        verdicts.append(check_agreement(trace))
    return verdicts


def evaluate_run(trace) -> dict:
    """Summarize a run for campaign and exploration reports."""
    verdicts = run_verdicts(trace)
    resolved = {res for res, _ in trace.resolutions.values() if res != "active"}
    if not compliant_terminated(trace, _compliant_of(trace)):
        outcome = "unresolved"
    elif resolved == {COMMITTED}:
        outcome = "committed"
    elif resolved == {ABORTED} or not resolved:
        outcome = "aborted"
    else:
        outcome = "mixed"
    failures = [
        {"property": v.prop, "details": v.details, "witness": v.witness}
        for v in verdicts
        if v.passed is False and v.prop in ("safety", "weak-liveness", "agreement")
    ]
    return {"outcome": outcome, "verdicts": verdicts, "failures": failures}

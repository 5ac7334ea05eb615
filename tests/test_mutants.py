"""Planted defects: each must fail a fast named check.

A mutant is one small edit of one function's source, compiled in its
module and monkeypatched in.  The test then runs the named check and
expects it to fail: a defect that no check notices would show a hole in
the suite.  The exhaustive criterion 9 is left out on purpose, so that
each defect is caught by a test that runs in well under a second.
"""

import __future__
import inspect
import textwrap

import pytest

from dealsim.cbc import CbcLogContract, Decision
from dealsim.parties import CbcParty

import test_cbc


def mutant(function, old, new):
    """`function` compiled with its one occurrence of `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__qualname__, old)
    code = compile(
        source.replace(old, new),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, function.__globals__, namespace)
    return namespace[function.__name__]


def hand_built_log(monkeypatch):
    test_cbc.TestRecordedDecisions().test_a_hand_built_log_records_the_decision_of_its_entries()


def decide_rule(monkeypatch):
    test_cbc.TestDecideRule().test_matches_oracle_on_short_logs()


def outsider_vote(monkeypatch):
    test_cbc.TestStartDeal().test_outsider_start_and_vote_rejected()


def adopted_start(monkeypatch):
    test_cbc.TestStartDeal().test_a_party_adopts_the_earliest_start_of_exactly_its_deal_parties()


def rogue_start(monkeypatch):
    test_cbc.test_no_compliant_party_escrows_under_a_start_that_leaves_parties_out(monkeypatch)


MUTANTS = {
    "a-later-abort-redecides": (
        Decision, "after", "if self.status != UNDECIDED:",
        'if self.status != UNDECIDED and kind != "abort":',
        [hand_built_log, decide_rule],
    ),
    "decisive-position-one-early": (
        Decision, "after", "COMMITTED, position,", "COMMITTED, position - 1,",
        [hand_built_log, decide_rule],
    ),
    "non-member-vote-accepted": (
        CbcLogContract, "apply", 'if payload["voter"] not in record.members:', "if False:",
        [outsider_vote, hand_built_log],
    ),
    "any-start-adopted": (
        CbcParty, "ready_to_escrow", " and r.members == self.members", "",
        [adopted_start, rogue_start],
    ),
}


@pytest.mark.parametrize("case", sorted(MUTANTS))
def test_a_planted_defect_fails_its_checks(monkeypatch, case):
    owner, name, old, new, checks = MUTANTS[case]
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name), old, new))
    for check in checks:
        with pytest.raises(AssertionError):
            check(monkeypatch)

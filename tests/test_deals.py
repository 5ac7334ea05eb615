"""Deal structure: digraphs, well-formedness, acceptability, run payoffs."""

import random
from dataclasses import replace

import pytest

from dealsim.assets import NOTHING, AssetBundle, Payoff
from dealsim.deals import (
    DealError,
    DealSpec,
    TransferSpec,
    build_digraph,
    is_acceptable,
    is_well_formed,
    payoff_of_run,
)
from dealsim.scenario import prepare, ticket_deal

from conftest import run_scenario_dict


def simple_deal(arcs, parties=None, amount=1):
    """One fungible transfer per arc, each on its own chain."""
    parties = parties or sorted({p for arc in arcs for p in arc})
    transfers = tuple(
        TransferSpec(a, b, AssetBundle.coins(f"ch{i}", "c", amount), i)
        for i, (a, b) in enumerate(arcs)
    )
    return DealSpec("d", tuple(parties), transfers, t0=20, delta=5)


TICKET_DEAL = DealSpec.from_json(ticket_deal("timelock")["deal"])


class TestDigraph:
    def test_broker_deal_arcs(self):
        graph = build_digraph(TICKET_DEAL)
        assert set(graph.vertices) == {"alice", "bob", "carol"}
        assert graph.arcs == {
            ("alice", "bob"),
            ("alice", "carol"),
            ("bob", "alice"),
            ("carol", "alice"),
        }

    def test_single_transfer_single_arc(self):
        graph = build_digraph(simple_deal([("a", "b")]))
        assert graph.arcs == {("a", "b")}

    def test_three_cycle(self):
        graph = build_digraph(simple_deal([("a", "b"), ("b", "c"), ("c", "a")]))
        assert graph.arcs == {("a", "b"), ("b", "c"), ("c", "a")}


class TestWellFormed:
    def test_broker_deal_is_well_formed(self):
        assert is_well_formed(TICKET_DEAL)

    def test_one_way_transfer_leaves_free_rider(self):
        assert not is_well_formed(simple_deal([("a", "b")]))

    def test_cycle_is_well_formed(self):
        assert is_well_formed(simple_deal([("a", "b"), ("b", "c"), ("c", "a")]))

    def test_matches_brute_force_reachability(self):
        """Strong connectivity agrees with all-pairs path existence, n <= 6."""

        def oracle(n, arcs):
            # Floyd-Warshall boolean closure
            reach = [[i == j for j in range(n)] for i in range(n)]
            for a, b in arcs:
                reach[a][b] = True
            for k in range(n):
                for i in range(n):
                    if reach[i][k]:
                        for j in range(n):
                            if reach[k][j]:
                                reach[i][j] = True
            return all(reach[i][j] for i in range(n) for j in range(n))

        rng = random.Random(20260808)
        for _ in range(400):
            n = rng.randint(1, 6)
            names = [f"p{i}" for i in range(n)]
            possible = [(i, j) for i in range(n) for j in range(n) if i != j]
            arcs = [a for a in possible if rng.random() < 0.35]
            # parties must appear in some transfer; pad isolated vertices
            arc_names = [(names[i], names[j]) for i, j in arcs]
            if not arc_names:
                continue
            used = {p for arc in arc_names for p in arc}
            if used != set(names):
                continue
            deal = simple_deal(arc_names, parties=names)
            assert is_well_formed(deal) == oracle(n, arcs)


class TestAcceptability:
    def test_full_payoff_is_acceptable(self):
        carol_all = TICKET_DEAL.all_payoff("carol")
        assert carol_all == Payoff(
            AssetBundle(tokens=[("ticket", "tkt1"), ("ticket", "tkt2")]),
            AssetBundle.coins("coin", "coin", 101),
        )
        assert is_acceptable("carol", carol_all, TICKET_DEAL)

    def test_nothing_is_acceptable_for_everyone(self):
        for party in TICKET_DEAL.parties:
            assert is_acceptable(party, NOTHING, TICKET_DEAL)

    def test_discount_dominates_full_payoff(self):
        free_tickets = Payoff(
            AssetBundle(tokens=[("ticket", "tkt1"), ("ticket", "tkt2")]),
            AssetBundle.empty(),
        )
        assert is_acceptable("carol", free_tickets, TICKET_DEAL)

    def test_pay_without_receiving_is_not_acceptable(self):
        pay_only = Payoff(AssetBundle.empty(), AssetBundle.coins("coin", "coin", 101))
        assert not is_acceptable("carol", pay_only, TICKET_DEAL)

    def test_unknown_party_raises(self):
        with pytest.raises(DealError):
            is_acceptable("mallory", NOTHING, TICKET_DEAL)

    def test_cached_bases_equal_a_fresh_parse(self, corpus):
        paid = Payoff(AssetBundle.coins("ch1", "c", 1), AssetBundle.empty())
        widened = replace(simple_deal([("a", "b"), ("b", "a")]), extra_acceptable={"a": (paid,)})
        widened.cache_derived()
        for deal in [prepare(scenario)[1] for scenario in corpus.values()] + [widened]:
            fresh = DealSpec.from_json(deal.to_json())
            assert deal == fresh
            for party in deal.parties:
                # A cached base set is the same object on every call.
                assert deal.acceptable_base(party) is deal.acceptable_base(party)
                assert deal.acceptable_base(party) == fresh.acceptable_base(party)
                assert deal.all_payoff(party) == fresh.all_payoff(party)
                assert deal.gross_flows(party) is deal.gross_flows(party)
                assert deal.gross_flows(party) == fresh.gross_flows(party)
            assert deal.chains() is deal.chains()
            assert deal.chains() == fresh.chains()
            with pytest.raises(DealError):
                deal.acceptable_base("nobody")
        assert widened.acceptable_base("a")[2] == paid

    def test_monotone_in_dominance(self):
        rng = random.Random(7)
        for _ in range(200):
            inc = AssetBundle.coins("coin", "coin", rng.randint(0, 5))
            out = AssetBundle.coins("coin", "coin", rng.randint(0, 120))
            payoff = Payoff(inc, out)
            if not is_acceptable("bob", payoff, TICKET_DEAL):
                continue
            richer = Payoff(inc.plus(AssetBundle.coins("x", "y", 1)), out)
            assert is_acceptable("bob", richer, TICKET_DEAL)

    def test_broker_full_payoff_is_net_one_coin(self):
        assert TICKET_DEAL.all_payoff("alice") == Payoff(
            AssetBundle.coins("coin", "coin", 1), AssetBundle.empty()
        )

    def test_extra_base_payoffs_extend_the_set(self):
        tickets = AssetBundle(tokens=[("ticket", "tkt1"), ("ticket", "tkt2")])
        discounted = Payoff(AssetBundle.coins("coin", "coin", 50), tickets)
        assert not is_acceptable("bob", discounted, TICKET_DEAL)
        deal = DealSpec(
            "d2",
            TICKET_DEAL.parties,
            TICKET_DEAL.transfers,
            t0=20,
            delta=5,
            extra_acceptable={"bob": (discounted,)},
        )
        assert is_acceptable("bob", discounted, deal)
        assert is_acceptable(
            "bob", Payoff(AssetBundle.coins("coin", "coin", 60), tickets), deal
        )


def replay_ownership_oracle(trace):
    """Independent ownership interpreter over the recorded ledger entries.

    Walks publishes only, maintaining its own wallet and per-lot commit /
    abort views, and returns terminal wallets; used to cross-check the
    payoff extraction path.
    """
    wallets = {}  # (chain, party) -> {kind: amount}; tokens: (chain, token) -> owner
    tokens = {}
    for chain, snap in trace.initial_wallets.items():
        for party, kinds in snap["fungible"].items():
            wallets[(chain, party)] = dict(kinds)
        for token, owner in snap["tokens"].items():
            tokens[(chain, token)] = owner

    lots = {}  # (chain, escrower) -> {"fun": {kind: amt}, "toks": set, "c_fun": {...}, "c_tok": {...}}

    def wallet(chain, party):
        return wallets.setdefault((chain, party), {})

    for event in trace.events:
        if event.kind != "publish" or event.status != "accepted":
            continue
        payload = event.payload
        op = payload.get("op")
        chain = event.where
        if op == "escrow":
            party = payload["party"]
            bundle = AssetBundle.from_json(payload["bundle"])
            lot = lots.setdefault(
                (chain, party), {"fun": {}, "toks": set(), "c_fun": {}, "c_tok": {}}
            )
            for (c, kind), amount in bundle.fungible.items():
                wallet(chain, party)[kind] = wallet(chain, party).get(kind, 0) - amount
                lot["fun"][kind] = lot["fun"].get(kind, 0) + amount
                owner = lot["c_fun"].setdefault(party, {})
                owner[kind] = owner.get(kind, 0) + amount
            for c, token in bundle.tokens:
                del tokens[(chain, token)]
                lot["toks"].add(token)
                lot["c_tok"][token] = party
        elif op == "transfer":
            lot = lots[(chain, payload["lot"])]
            bundle = AssetBundle.from_json(payload["bundle"])
            sender, receiver = payload["party"], payload["to"]
            for (c, kind), amount in bundle.fungible.items():
                lot["c_fun"][sender][kind] -= amount
                dst = lot["c_fun"].setdefault(receiver, {})
                dst[kind] = dst.get(kind, 0) + amount
            for c, token in bundle.tokens:
                lot["c_tok"][token] = receiver
        elif op in ("commit", "settle", "timeout") and "lot" in payload:
            outcome = event.info.get("finalized")
            if not outcome:
                continue
            lot = lots[(chain, payload["lot"])]
            if outcome == "committed":
                for party, kinds in lot["c_fun"].items():
                    for kind, amount in kinds.items():
                        wallet(chain, party)[kind] = wallet(chain, party).get(kind, 0) + amount
                for token, party in lot["c_tok"].items():
                    tokens[(chain, token)] = party
            else:
                escrower = payload["lot"]
                for kind, amount in lot["fun"].items():
                    wallet(chain, escrower)[kind] = wallet(chain, escrower).get(kind, 0) + amount
                for token in lot["toks"]:
                    tokens[(chain, token)] = escrower
            lot["fun"], lot["toks"] = {}, set()

    def payoff_for(party):
        inc, out = {}, {}
        gained, lost = [], []
        start_fun = {}
        for chain, snap in trace.initial_wallets.items():
            for kind, amount in snap["fungible"].get(party, {}).items():
                start_fun[(chain, kind)] = amount
        end_fun = {}
        for (chain, p), kinds in wallets.items():
            if p != party:
                continue
            for kind, amount in kinds.items():
                end_fun[(chain, kind)] = end_fun.get((chain, kind), 0) + amount
        for key in set(start_fun) | set(end_fun):
            delta = end_fun.get(key, 0) - start_fun.get(key, 0)
            if delta > 0:
                inc[key] = delta
            elif delta < 0:
                out[key] = -delta
        start_toks = {
            (chain, token)
            for chain, snap in trace.initial_wallets.items()
            for token, owner in snap["tokens"].items()
            if owner == party
        }
        end_toks = {key for key, owner in tokens.items() if owner == party}
        gained = sorted(end_toks - start_toks)
        lost = sorted(start_toks - end_toks)
        return Payoff(AssetBundle(inc, gained), AssetBundle(out, lost))

    return payoff_for


class TestPayoffOfRun:
    def test_broker_nets_one_coin_on_full_commit(self, ticket_timelock_run):
        built, trace = ticket_timelock_run
        oracle = replay_ownership_oracle(trace)
        for party in ("alice", "bob", "carol"):
            assert payoff_of_run(trace, party) == oracle(party)
        assert payoff_of_run(trace, "alice") == Payoff(
            AssetBundle.coins("coin", "coin", 1), AssetBundle.empty()
        )

    def test_all_abort_gives_everyone_nothing(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_timelock"])
        for party in ("alice", "bob", "carol"):
            assert payoff_of_run(trace, party) == NOTHING

    def test_split_outcome_payoffs(self, virus_run):
        built, trace = virus_run
        oracle = replay_ownership_oracle(trace)
        carol = payoff_of_run(trace, "carol")
        assert carol == oracle("carol")
        assert carol == Payoff(
            AssetBundle.coins("bcoin", "b-coin", 100),
            AssetBundle.coins("ccoin", "c-coin", 101),
        )

    def test_unresolved_run_raises(self, corpus):
        built, trace = run_scenario_dict(corpus["silent_party_cbc"])
        assert not trace.all_resolved
        with pytest.raises(DealError):
            payoff_of_run(trace, "alice")

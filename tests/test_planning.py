"""The planner against a reference: the bundle-arithmetic planner it replaced.

`reference_plan` computes every balance with `AssetBundle` arithmetic, as
`build_plan` once did.  `build_plan` must give the same plan, down to the
order of every dict it hands out, and the same `PlanError` text, on the
bundled scenarios, the campaign bases and generated deals.
"""

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from dealsim.assets import AssetBundle, AssetError, net_payoff
from dealsim.deals import DealSpec, TransferSpec
from dealsim.planning import DealPlan, PlanError, PlannedMove, build_plan
from dealsim.scenario import (
    cycle_deal, dual_broker_deal, prepare, swap_deal, ticket_deal, wallet_holdings,
)


def reference_plan(deal: DealSpec, holdings) -> DealPlan:
    """The planner as it was, with a bundle for every intermediate balance."""
    escrows: Dict[Tuple[str, str], AssetBundle] = {}
    for party in deal.parties:
        wallet = holdings.get(party, AssetBundle.empty())
        _, out = deal.gross_flows(party)
        for chain in sorted(out.chains()):
            need = out.restrict(chain)
            have = wallet.restrict(chain)
            fun = {
                k: min(v, have.fungible.get(k, 0))
                for k, v in need.fungible.items()
                if have.fungible.get(k, 0)
            }
            bundle = AssetBundle(fun, need.tokens & have.tokens)
            if not bundle.is_empty():
                escrows[(party, chain)] = bundle

    c_state: Dict[tuple, Dict[str, AssetBundle]] = {}
    received: Dict[tuple, set] = {}
    for (party, chain), bundle in escrows.items():
        lot = (chain, party)
        c_state[lot] = {party: bundle}
        received[lot] = set()

    moves: List[PlannedMove] = []
    for ts in deal.transfers:
        for chain in sorted(ts.bundle.chains()):
            remaining = ts.bundle.restrict(chain)
            own_first = [(chain, ts.sender)] + [
                lot for lot in sorted(c_state) if lot[0] == chain and lot[1] != ts.sender
            ]
            for lot in own_first:
                if remaining.is_empty():
                    break
                avail = c_state.get(lot, {}).get(ts.sender, AssetBundle.empty())
                if avail.is_empty():
                    continue
                take_fun = {
                    k: min(v, avail.fungible.get(k, 0))
                    for k, v in remaining.fungible.items()
                    if avail.fungible.get(k, 0)
                }
                taken = AssetBundle(take_fun, remaining.tokens & avail.tokens)
                if taken.is_empty():
                    continue
                c_state[lot][ts.sender] = avail.minus(taken)
                cur = c_state[lot].get(ts.receiver, AssetBundle.empty())
                c_state[lot][ts.receiver] = cur.plus(taken)
                received[lot].add(ts.receiver)
                moves.append(PlannedMove(ts.step, lot, ts.sender, ts.receiver, taken))
                remaining = remaining.minus(taken)
            if not remaining.is_empty():
                raise PlanError(
                    f"step {ts.step}: {ts.sender} cannot cover {remaining!r} on {chain}"
                )

    final_c = {
        lot: {p: b for p, b in owners.items() if not b.is_empty()}
        for lot, owners in c_state.items()
    }
    beneficiaries = {lot: frozenset(received[lot]) for lot in c_state}
    return DealPlan(deal, escrows, moves, final_c, beneficiaries)


def _ordered(bundle: AssetBundle) -> tuple:
    """A bundle with its amounts in the order its dict holds them."""
    return list(bundle.fungible.items()), sorted(bundle.tokens)


def plan_parts(plan: DealPlan) -> tuple:
    """Everything a plan hands out, in the order it hands it out."""
    return (
        [(key, _ordered(b)) for key, b in plan.escrows.items()],
        [(m.step, m.lot, m.sender, m.receiver, _ordered(m.bundle)) for m in plan.moves],
        [(lot, [(p, _ordered(b)) for p, b in c.items()]) for lot, c in plan.final_c.items()],
        [(lot, sorted(parties)) for lot, parties in plan.beneficiaries.items()],
    )


def outcome(planner, deal: DealSpec, holdings) -> tuple:
    """The plan's parts, or the type and text of the error planning raised."""
    try:
        return ("plan", plan_parts(planner(deal, holdings)))
    except (AssetError, PlanError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_plans(deal: DealSpec, holdings) -> tuple:
    expected = outcome(reference_plan, deal, holdings)
    assert outcome(build_plan, deal, holdings) == expected
    return expected


def campaign_bases() -> List[dict]:
    """The campaign benchmarks' bases, under every protocol."""
    return [
        builder(protocol)
        for protocol in ("timelock", "naive", "cbc")
        for builder in (swap_deal, ticket_deal, dual_broker_deal, lambda p: cycle_deal(4, p))
    ]


def test_bundled_scenarios_plan_as_the_reference_does(corpus):
    for name, scenario in corpus.items():
        _, deal, holdings, plan = prepare(scenario)
        assert plan_parts(plan) == plan_parts(reference_plan(deal, holdings)), name


def test_campaign_bases_plan_as_the_reference_does():
    for base in campaign_bases():
        sc, deal, holdings, _ = prepare(base)
        assert_same_plans(deal, holdings)
        # An overpayer brings extra coins of every kind the deal moves, as
        # campaigns re-plan it; a party without its wallet leaves the script short.
        extra = AssetBundle({key: 7 for ts in deal.transfers for key in ts.bundle.fungible})
        for party in deal.parties:
            richer = {**holdings, party: holdings.get(party, AssetBundle.empty()).plus(extra)}
            assert assert_same_plans(deal, richer)[0] == "plan", (sc["name"], party)
            poorer = {p: w for p, w in holdings.items() if p != party}
            assert_same_plans(deal, poorer)


def test_an_infeasible_wallet_fails_with_the_reference_text():
    sc = ticket_deal("timelock")
    sc["wallets"]["carol"]["fungible"] = [["coin", "coin", 60]]
    deal = DealSpec.from_json(sc["deal"])
    kind, text = assert_same_plans(deal, wallet_holdings(sc))
    assert (kind, text) == (
        "PlanError", "step 2: carol cannot cover AssetBundle(coin:coin=41) on coin"
    )


PARTIES = ("p0", "p1", "p2", "p3")
COINS = (("c0", "k0"), ("c0", "k1"), ("c1", "k0"), ("c2", "k0"))
TOKENS = (("c0", "t0"), ("c1", "t1"), ("c1", "t2"), ("c2", "t3"))


@st.composite
def bundles(draw, min_size: int = 0) -> AssetBundle:
    coins = draw(st.dictionaries(st.sampled_from(COINS), st.integers(1, 12), max_size=3))
    tokens = draw(st.sets(st.sampled_from(TOKENS), max_size=2))
    if min_size and not coins and not tokens:
        coins = {draw(st.sampled_from(COINS)): draw(st.integers(1, 12))}
    return AssetBundle(coins, tokens)


@st.composite
def deals_and_wallets(draw) -> tuple:
    """A deal over up to four parties and three chains, and starting wallets.

    A transfer may relay part of an earlier one onward (its receiver
    brokers it).  A wallet is empty, the party's net or gross scripted
    outgoing assets, or any bundle at all, so many cannot fund the script."""
    parties = PARTIES[: draw(st.integers(2, 4))]
    transfers: List[TransferSpec] = []
    for step in range(draw(st.integers(1, 5))):
        if transfers and draw(st.booleans()):
            earlier = draw(st.sampled_from(transfers))
            sender = earlier.receiver
            receiver = draw(st.sampled_from([p for p in parties if p != sender]))
            coins = {k: draw(st.integers(1, v)) for k, v in earlier.bundle.fungible.items()}
            bundle = AssetBundle(coins, earlier.bundle.tokens)
        else:
            sender, receiver = draw(st.permutations(parties))[:2]
            bundle = draw(bundles(min_size=1))
        transfers.append(TransferSpec(sender, receiver, bundle, step))
    deal = DealSpec("generated", parties, tuple(transfers), t0=20, delta=5)
    holdings = {}
    for party in parties:
        kind = draw(st.sampled_from(("net", "gross", "broker", "any")))
        try:
            gross_in, gross_out = deal.gross_flows(party)
        except AssetError:  # the party receives or sends one token twice
            kind = "any"
        if kind == "net":
            holdings[party] = net_payoff(gross_in, gross_out).outgoing
        elif kind == "gross":
            holdings[party] = gross_out
        elif kind == "any":
            holdings[party] = draw(bundles())
    return deal, holdings


@settings(
    derandomize=True, max_examples=150, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(deals_and_wallets())
def test_generated_deals_plan_as_the_reference_does(case):
    deal, holdings = case
    assert_same_plans(deal, holdings)
    try:
        deal.cache_derived()
    except AssetError:  # a party receives or sends one token twice
        return
    assert_same_plans(deal, holdings)


def test_build_plan_constructs_one_bundle_per_bundle_it_hands_out(corpus, monkeypatch):
    built = []
    init = AssetBundle.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    for base in [*corpus.values(), *campaign_bases()]:
        _, deal, holdings, _ = prepare(base)  # fills the deal's derived structure
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(AssetBundle, "__init__", counting_init)
            plan = build_plan(deal, holdings)
        handed_out = [
            *plan.escrows.values(),
            *(m.bundle for m in plan.moves),
            *(b for owners in plan.final_c.values() for b in owners.values()),
        ]
        assert len(built) == len(handed_out), base["name"]
        assert {id(b) for b in built} == {id(b) for b in handed_out}, base["name"]

import pytest

from dealsim.assets import NOTHING, AssetBundle, AssetError, Payoff, net_payoff

COIN = ("coin", "coin")


def coins(n):
    return AssetBundle.coins("coin", "coin", n)


class TestAssetBundle:
    def test_zero_amounts_normalized_away(self):
        bundle = AssetBundle({COIN: 0, ("coin", "alt"): 3})
        assert COIN not in bundle.fungible
        assert bundle.amount("coin", "alt") == 3

    def test_negative_amount_rejected(self):
        with pytest.raises(AssetError):
            AssetBundle({COIN: -1})

    def test_non_integer_amount_rejected(self):
        with pytest.raises(AssetError):
            AssetBundle({COIN: 1.5})

    def test_duplicate_token_rejected(self):
        with pytest.raises(AssetError):
            AssetBundle(tokens=[("t", "x"), ("t", "x")])

    def test_covers_componentwise(self):
        big = AssetBundle({COIN: 5}, [("t", "a"), ("t", "b")])
        small = AssetBundle({COIN: 3}, [("t", "a")])
        assert big.covers(small)
        assert not small.covers(big)
        assert big.covers(AssetBundle.empty())

    def test_plus_minus_round_trip(self):
        a = AssetBundle({COIN: 5}, [("t", "a")])
        b = AssetBundle({COIN: 2})
        assert a.plus(b).minus(b) == a

    def test_minus_underflow_rejected(self):
        with pytest.raises(AssetError):
            coins(1).minus(coins(2))

    def test_repeated_coins_add_up_in_json(self):
        bundle = AssetBundle.from_json({"fungible": [["coin", "coin", 150], ["coin", "coin", 7]]})
        assert bundle == coins(157)

    @pytest.mark.parametrize("first, second", [(-5, 10), (True, 1), (1.5, 2)])
    def test_repeated_coins_are_checked_one_by_one(self, first, second):
        with pytest.raises(AssetError):
            AssetBundle.from_json({"fungible": [["coin", "coin", first], ["coin", "coin", second]]})

    def test_token_collision_on_plus(self):
        tok = AssetBundle.token("t", "x")
        with pytest.raises(AssetError):
            tok.plus(tok)

    def test_restrict_by_chain(self):
        mixed = AssetBundle({("a", "x"): 1, ("b", "y"): 2}, [("a", "t1")])
        only_a = mixed.restrict("a")
        assert only_a == AssetBundle({("a", "x"): 1}, [("a", "t1")])

    def test_json_round_trip(self):
        bundle = AssetBundle({COIN: 7, ("x", "y"): 1}, [("t", "a")])
        assert AssetBundle.from_json(bundle.to_json()) == bundle

    def test_equality_and_hash_canonical(self):
        a = AssetBundle({COIN: 1, ("x", "y"): 2})
        b = AssetBundle({("x", "y"): 2, COIN: 1})
        assert a == b and hash(a) == hash(b)


class TestPayoff:
    def test_dominates_more_in_less_out(self):
        base = Payoff(coins(10), coins(5))
        better = Payoff(coins(12), coins(4))
        worse = Payoff(coins(9), coins(5))
        assert better.dominates(base)
        assert not worse.dominates(base)
        assert base.dominates(base)

    def test_nothing_dominated_only_without_outgoing(self):
        assert Payoff(coins(1), AssetBundle.empty()).dominates(NOTHING)
        assert not Payoff(AssetBundle.empty(), coins(1)).dominates(NOTHING)

    def test_net_payoff_cancels_identical_fungibles(self):
        gross_in = AssetBundle({COIN: 101}, [("t", "tkt")])
        gross_out = AssetBundle({COIN: 100}, [("t", "tkt")])
        net = net_payoff(gross_in, gross_out)
        assert net == Payoff(coins(1), AssetBundle.empty())

    def test_net_payoff_keeps_distinct_kinds(self):
        net = net_payoff(AssetBundle({("b", "b"): 101}), AssetBundle({("c", "c"): 100}))
        assert net.incoming == AssetBundle({("b", "b"): 101})
        assert net.outgoing == AssetBundle({("c", "c"): 100})

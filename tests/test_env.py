import math

import numpy as np
import pytest

from mctg.env import (MIN_EPISODE_STEPS, EnvConfig, EnvError, PortfolioState, TradingEnv,
                      buy_and_hold, map_action)
from mctg.marketdata import split
from conftest import first_days


def make_env(dataset, **overrides):
    return TradingEnv(dataset, EnvConfig(**overrides))


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(EnvError):
            EnvConfig(initial_cash=0.0)
        with pytest.raises(EnvError):
            EnvConfig(tax_rate=1.0)
        with pytest.raises(EnvError):
            EnvConfig(lot_size=0)


class TestMapAction:
    CFG = EnvConfig(tax_rate=0.001, lot_size=100)

    def test_buy_hand_case(self):
        # 100000 * 0.3 / (10 * 1.001) = 2997.00... -> floor 2997 -> 2900 lots
        p = PortfolioState(cash=100_000.0, shares=0, day_index=0)
        order = map_action(0.3, p, 10.0, self.CFG)
        assert order.signed_shares == 2900
        assert order.tax_paid == pytest.approx(29.0)

    def test_buy_cost_never_exceeds_cash(self):
        p = PortfolioState(cash=100_000.0, shares=0, day_index=0)
        order = map_action(1.0, p, 10.0, self.CFG)
        cost = order.signed_shares * 10.0 * 1.001
        assert cost <= p.cash
        assert order.signed_shares == 9900

    def test_sell_hand_case(self):
        p = PortfolioState(cash=0.0, shares=1000, day_index=0)
        order = map_action(-0.5, p, 10.0, self.CFG)
        assert order.signed_shares == -500
        assert order.tax_paid == 0.0

    def test_sell_never_exceeds_holdings(self):
        p = PortfolioState(cash=0.0, shares=300, day_index=0)
        order = map_action(-1.0, p, 5.0, self.CFG)
        assert order.signed_shares == -300

    def test_zero_action_is_a_hold(self):
        p = PortfolioState(cash=50_000.0, shares=700, day_index=0)
        order = map_action(0.0, p, 12.0, self.CFG)
        assert order.signed_shares == 0 and order.tax_paid == 0.0

    def test_cannot_afford_one_lot(self):
        p = PortfolioState(cash=900.0, shares=0, day_index=0)
        order = map_action(1.0, p, 10.0, self.CFG)
        assert order.signed_shares == 0

    def test_sell_below_one_lot_rounds_to_zero(self):
        p = PortfolioState(cash=0.0, shares=150, day_index=0)
        order = map_action(-0.5, p, 10.0, self.CFG)
        assert order.signed_shares == 0

    def test_orders_are_lot_multiples(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = PortfolioState(cash=float(rng.uniform(0, 5e5)),
                               shares=int(rng.integers(0, 100)) * 100,
                               day_index=0)
            a = float(rng.uniform(-1, 1))
            order = map_action(a, p, float(rng.uniform(1, 50)), self.CFG)
            assert order.signed_shares % 100 == 0
            assert -p.shares <= order.signed_shares

    def test_bad_price_rejected(self):
        p = PortfolioState(cash=1.0, shares=0, day_index=0)
        with pytest.raises(EnvError):
            map_action(0.5, p, 0.0, self.CFG)


class TestRewards:
    def test_underperforming_cash_in_rally(self, small_dataset):
        # all-cash portfolio: reward = 0 - price return
        env = make_env(small_dataset)
        env.reset()
        i = env.state.day_index
        o0, o1 = env.opens[i], env.opens[i + 1]
        reward, _ = env.step(0.0)
        assert reward == pytest.approx(-(o1 - o0) / o0, abs=1e-12)

    def test_fully_invested_near_zero(self, small_dataset):
        env = make_env(small_dataset)
        env.reset()
        env.step(1.0)
        # after the buy, holding tracks the price; residual cash plus the
        # one-off tax keep the reward only approximately zero
        while not env.done:
            r, _ = env.step(0.0)
            assert abs(r) < 2e-3

    def test_hand_computed_two_step(self, small_dataset):
        env = make_env(small_dataset)
        state = env.reset()
        i = state.day_index
        o1 = env.opens[i + 1]
        reward, _ = env.step(1.0)
        # exact replay of the step's accounting
        raw = math.floor(1_000_000.0 / (o1 * 1.001))
        shares = (raw // 100) * 100
        cash = 1_000_000.0 - shares * o1 * 1.001
        value = cash + shares * o1
        expected = (value - 1_000_000.0) / 1_000_000.0 - (o1 - env.opens[i]) / env.opens[i]
        assert reward == pytest.approx(expected, abs=1e-12)
        assert env.state.shares == shares
        assert env.state.cash == pytest.approx(cash)

    def test_zero_sum_without_tax_at_exact_lots(self, small_dataset):
        # with no tax, trading at opens only redistributes between cash and
        # stock: value tracks price exactly while fully invested
        env = TradingEnv(small_dataset, EnvConfig(tax_rate=0.0))
        env.reset()
        env.step(1.0)
        p = env.state
        shares, cash = p.shares, p.cash
        while not env.done:
            env.step(0.0)
            opening = env.opens[p.day_index]
            assert p.value(opening) == pytest.approx(cash + shares * opening, abs=1e-9)


class TestEpisode:
    def test_conservation_identity(self, small_dataset):
        # cash_out + cost + tax == cash_in at every step
        rng = np.random.default_rng(1)
        env = make_env(small_dataset)
        env.reset()
        cash = env.state.cash
        total_tax = 0.0
        while not env.done:
            _, order = env.step(float(rng.uniform(-1, 1)))
            p = env.state
            price = env.opens[p.day_index]
            if order.signed_shares > 0:
                cash -= order.signed_shares * price + order.tax_paid
            else:
                cash += -order.signed_shares * price
            total_tax += order.tax_paid
            assert p.cash == pytest.approx(cash, rel=1e-11)
            assert p.cash >= 0.0
            assert p.shares >= 0
            assert p.shares % 100 == 0
        assert total_tax > 0.0

    def test_done_and_bounds(self, small_dataset):
        env = make_env(small_dataset)
        with pytest.raises(EnvError):
            env.step(0.0)
        env.reset()
        steps = 0
        while not env.done:
            env.step(0.0)
            steps += 1
        assert env.done and env.state.day_index == env.end
        assert steps == env.end == small_dataset.n_days - 1
        with pytest.raises(EnvError):
            env.step(0.0)

    def test_action_range_enforced(self, small_dataset):
        env = make_env(small_dataset)
        env.reset()
        with pytest.raises(EnvError):
            env.step(1.5)

    def test_deterministic_replay(self, small_dataset):
        def run():
            rng = np.random.default_rng(2)
            env = make_env(small_dataset)
            env.reset()
            rewards = []
            while not env.done:
                rewards.append(env.step(float(rng.uniform(-1, 1)))[0])
            return rewards

        assert run() == run()

    @pytest.mark.parametrize("random_start", [False, True])
    def test_reward_is_the_excess_return_between_portfolio_marks(self, small_dataset,
                                                                 random_start):
        # v and o are the portfolio's mark and the open on the day before and
        # the day after each step, read from the state alone
        env = TradingEnv(small_dataset, EnvConfig(random_start=random_start))
        rng = np.random.default_rng(6)
        steps = 0
        for _ in range(4):
            p = env.reset(rng)
            while not env.done:
                o0 = float(env.opens[p.day_index])
                v0 = p.value(o0)
                reward, _ = env.step(float(rng.uniform(-1, 1)))
                o1 = float(env.opens[p.day_index])
                v1 = p.value(o1)
                assert reward == (v1 - v0) / v0 - (o1 - o0) / o0
                steps += 1
        assert steps > 4

    def test_random_start_within_range(self, small_dataset):
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        rng = np.random.default_rng(3)
        starts = set()
        for _ in range(50):
            state = env.reset(rng)
            starts.add(state.day_index)
            assert 0 <= state.day_index <= env.end - MIN_EPISODE_STEPS
        assert len(starts) > 1
        with pytest.raises(EnvError):
            env.reset()  # rng required

    def test_random_start_is_one_integers_draw_per_reset(self, small_dataset):
        # start ~ integers(0, n_days - 1 - MIN_EPISODE_STEPS + 1), one draw per reset
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            state = env.reset(rng)
            assert state.day_index == int(twin.integers(0, small_dataset.n_days - 2))

    def test_dataset_shorter_than_two_days_rejected(self, small_dataset):
        with pytest.raises(EnvError, match="at least 2 days"):
            TradingEnv(first_days(small_dataset, 1), EnvConfig())
        env = TradingEnv(first_days(small_dataset, 2), EnvConfig())
        env.reset()
        env.step(0.0)
        assert env.done

    def test_random_start_needs_room_for_a_full_episode(self, small_dataset):
        env = TradingEnv(first_days(small_dataset, 2), EnvConfig(random_start=True))
        with pytest.raises(EnvError, match="too short for random starts"):
            env.reset(np.random.default_rng(0))
        env = TradingEnv(first_days(small_dataset, 3), EnvConfig(random_start=True))
        assert env.reset(np.random.default_rng(0)).day_index == 0

    def test_observation_cached_and_normalized(self, small_dataset, small_normalizer):
        env = TradingEnv(small_dataset, EnvConfig(), normalizer=small_normalizer)
        obs = env.observation(env.reset().day_index)
        direct = __import__("mctg.marketdata", fromlist=["window_at"]).window_at(
            small_normalizer.transform(small_dataset), 0)
        assert np.array_equal(obs["mid"], direct["mid"])
        assert env.observation(0) is obs

    def test_windows_are_every_days_observation(self, small_dataset, small_normalizer):
        env = TradingEnv(small_dataset, EnvConfig(), normalizer=small_normalizer)
        for day in range(small_dataset.n_days):
            obs = env.observation(day)
            for name in ("short", "mid", "long"):
                assert np.array_equal(env.windows[name][day], obs[name])


class TestBuyAndHold:
    def test_three_day_hand_accounting(self, small_dataset):
        cfg = EnvConfig(initial_cash=100_000.0)
        curve = buy_and_hold(first_days(small_dataset, 3), cfg)
        o = small_dataset.opens[:3]
        raw = math.floor(100_000.0 / (o[0] * 1.001))
        shares = (raw // 100) * 100
        cash = 100_000.0 - shares * o[0] * 1.001
        assert curve.shape == (3,)
        for k in range(3):
            assert curve[k] == pytest.approx(cash + shares * o[k], abs=1e-9)

    def test_matches_all_in_never_trade_agent(self, small_dataset):
        cfg = EnvConfig()
        env = TradingEnv(small_dataset, cfg)
        p = env.reset()
        env.step(1.0)
        values = [p.value(env.opens[p.day_index])]
        while not env.done:
            env.step(0.0)
            values.append(p.value(env.opens[p.day_index]))
        after_first = split(small_dataset, small_dataset.trading_days[1])[1]
        curve = buy_and_hold(after_first, cfg)
        # same shares and entry price, so identical curves
        assert np.allclose(values, curve, atol=1e-9)


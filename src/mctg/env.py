"""The trading MDP: portfolio accounting, action-to-order mapping with lot and
tax rules, the excess-return reward, episode control, and a Buy&Hold baseline.

Decisions are daily. The action chosen after observing day t executes at day
t+1's open; holdings are marked to consecutive execution-day opens. The reward
is the portfolio return minus the price return over the same pair of opens, so
a fully invested, never-trading agent accrues ~zero reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .marketdata import AlignedDataset, Observation, window_at


class EnvError(Exception):
    pass


@dataclass(frozen=True)
class EnvConfig:
    initial_cash: float = 1_000_000.0
    tax_rate: float = 0.001
    lot_size: int = 100
    start: int = 0
    end: int | None = None          # inclusive day index; None = last day
    random_start: bool = False
    min_episode_steps: int = 2      # shortest episode a random start may leave

    def __post_init__(self):
        if self.initial_cash <= 0:
            raise EnvError("initial_cash must be > 0")
        if not 0.0 <= self.tax_rate < 1.0:
            raise EnvError("tax_rate must be in [0, 1)")
        if self.lot_size < 1:
            raise EnvError("lot_size must be >= 1")


@dataclass
class PortfolioState:
    cash: float
    shares: int
    day_index: int

    def value(self, price: float) -> float:
        return self.cash + self.shares * price


@dataclass(frozen=True)
class Order:
    signed_shares: int       # positive buy, negative sell
    execution_price: float
    tax_paid: float


@dataclass
class StepResult:
    observation: Observation | None
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


def map_action(a: float, p: PortfolioState, opening: float, config: EnvConfig) -> Order:
    """Translate a continuous action in [-1, 1] into a lot-multiple order.

    Buys spend a fraction of cash at the opening price, tax included, floored
    to whole lots (so cash never goes negative); sells release the same
    fraction of current holdings and pay no tax.
    """
    if opening <= 0:
        raise EnvError(f"opening price must be > 0, got {opening}")
    lot = config.lot_size
    if a >= 0:
        raw = math.floor(p.cash * a / (opening * (1.0 + config.tax_rate)))
        shares = (raw // lot) * lot
        return Order(shares, opening, shares * opening * config.tax_rate)
    raw = math.floor(abs(p.shares * a))
    shares = min((raw // lot) * lot, p.shares)
    return Order(-shares, opening, 0.0)


class TradingEnv:
    """Single-owner mutable environment over an aligned dataset.

    Observations are normalized when a fitted normalizer is supplied and are
    cached per day, as they do not depend on the agent's actions.
    """

    def __init__(self, dataset: AlignedDataset, config: EnvConfig, normalizer=None):
        end = config.end if config.end is not None else dataset.n_days - 1
        if not 0 <= config.start < end < dataset.n_days:
            raise EnvError(
                f"episode range [{config.start}, {end}] invalid for {dataset.n_days} days")
        self.dataset = dataset
        self.config = config
        self.end = end
        self.normalizer = normalizer
        self.opens = dataset.opens
        self._obs_cache: dict[int, Observation] = {}
        self.state: PortfolioState | None = None
        self._prev_value = 0.0
        self._prev_open = 0.0

    def observation(self, day_index: int) -> Observation:
        obs = self._obs_cache.get(day_index)
        if obs is None:
            obs = window_at(self.dataset, day_index)
            if self.normalizer is not None:
                obs = self.normalizer.transform(obs)
            self._obs_cache[day_index] = obs
        return obs

    def reset(self, rng: np.random.Generator | None = None
              ) -> tuple[PortfolioState, Observation]:
        start = self.config.start
        if self.config.random_start:
            if rng is None:
                raise EnvError("random_start requires an rng")
            latest = self.end - self.config.min_episode_steps
            if latest < start:
                raise EnvError("episode range too short for random starts")
            start = int(rng.integers(start, latest + 1))
        self.state = PortfolioState(self.config.initial_cash, 0, start)
        self._prev_value = self.config.initial_cash
        self._prev_open = float(self.opens[start])
        return self.state, self.observation(start)

    @property
    def done(self) -> bool:
        return self.state is None or self.state.day_index >= self.end

    def step(self, action: float) -> StepResult:
        if self.state is None:
            raise EnvError("step before reset")
        if self.done:
            raise EnvError("step on a finished episode")
        if not -1.0 <= action <= 1.0:
            raise EnvError(f"action {action} outside [-1, 1]")

        p = self.state
        exec_day = p.day_index + 1
        opening = float(self.opens[exec_day])
        order = map_action(action, p, opening, self.config)
        if order.signed_shares > 0:
            p.cash -= order.signed_shares * opening * (1.0 + self.config.tax_rate)
            p.shares += order.signed_shares
        elif order.signed_shares < 0:
            p.cash += -order.signed_shares * opening
            p.shares += order.signed_shares
        p.day_index = exec_day

        value = p.value(opening)
        reward = (value - self._prev_value) / self._prev_value \
            - (opening - self._prev_open) / self._prev_open
        self._prev_value = value
        self._prev_open = opening

        done = exec_day >= self.end
        obs = None if done else self.observation(exec_day)
        info = {
            "date": self.dataset.date(exec_day),
            "day_index": exec_day,
            "open": opening,
            "order": order,
            "cash": p.cash,
            "shares": p.shares,
            "value": value,
            "tax_paid": order.tax_paid,
        }
        return StepResult(obs, reward, done, info)


def buy_and_hold(dataset: AlignedDataset, start: int, end: int,
                 config: EnvConfig) -> np.ndarray:
    """Equity curve of the all-in buy (``map_action`` at a = 1) at the first
    open, then holding.

    The curve is marked at daily opens over [start, end]; entry tax is paid at
    index ``start``.
    """
    if not 0 <= start <= end < dataset.n_days:
        raise EnvError(f"range [{start}, {end}] invalid for {dataset.n_days} days")
    opens = dataset.opens[start:end + 1]
    entry = opens[0]
    shares = map_action(1.0, PortfolioState(config.initial_cash, 0, start), entry,
                        config).signed_shares
    cash = config.initial_cash - shares * entry * (1.0 + config.tax_rate)
    return cash + shares * opens

"""The trading MDP: portfolio accounting, action-to-order mapping with lot and
tax rules, the excess-return reward, episode control, and a Buy&Hold baseline.

Decisions are daily. The action chosen after observing day t executes at day
t+1's open; holdings are marked to consecutive execution-day opens. The reward
is the portfolio return minus the price return over the same pair of opens, so
a fully invested, never-trading agent accrues ~zero reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marketdata import AlignedDataset, window_at

MIN_EPISODE_STEPS = 2   # shortest episode a random start may leave


class EnvError(Exception):
    pass


@dataclass(frozen=True)
class EnvConfig:
    initial_cash: float = 1_000_000.0
    tax_rate: float = 0.001
    lot_size: int = 100
    random_start: bool = False

    def __post_init__(self):
        if not 0.0 < self.initial_cash < math.inf:
            raise EnvError("initial_cash must be finite and > 0")
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
    """An order filled at the execution day's open (``TradingEnv.opens``)."""

    signed_shares: int       # positive buy, negative sell
    tax_paid: float


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
        return Order(shares, shares * opening * config.tax_rate)
    raw = math.floor(abs(p.shares * a))
    shares = min((raw // lot) * lot, p.shares)
    return Order(-shares, 0.0)


class TradingEnv:
    """Single-owner mutable environment over an aligned dataset. Its state is
    the portfolio alone: ``reset`` returns it, ``step`` trades it and returns
    the reward and the order, and ``done`` says when the episode has ended.

    An episode runs to the dataset's last day, from its first day or, with
    ``random_start``, from a random day at least ``MIN_EPISODE_STEPS`` before
    the last; ``split`` cuts a dataset to a sub-range. Observations are read
    from the dataset, normalized once here when a fitted normalizer is
    supplied, and cached per day, as they do not depend on the agent's actions;
    the caller asks ``observation(state.day_index)`` for the day it acts on.
    ``windows`` holds every day's observation at once, with a leading day axis,
    and ``opens`` the daily opens as a list of Python floats.
    """

    def __init__(self, dataset: AlignedDataset, config: EnvConfig, normalizer=None):
        if dataset.n_days < 2:
            raise EnvError(f"an episode needs at least 2 days, got {dataset.n_days}")
        self.dataset = dataset if normalizer is None else normalizer.transform(dataset)
        self.windows = self.dataset.windows
        self.config = config
        self.end = dataset.n_days - 1
        self.opens = dataset.opens.tolist()
        self._obs_cache: dict[int, dict[str, np.ndarray]] = {}
        self.state: PortfolioState | None = None

    def observation(self, day_index: int) -> dict[str, np.ndarray]:
        obs = self._obs_cache.get(day_index)
        if obs is None:
            obs = self._obs_cache[day_index] = window_at(self.dataset, day_index)
        return obs

    def reset(self, rng: np.random.Generator | None = None) -> PortfolioState:
        start = 0
        if self.config.random_start:
            if rng is None:
                raise EnvError("random_start requires an rng")
            latest = self.end - MIN_EPISODE_STEPS
            if latest < 0:
                raise EnvError("episode range too short for random starts")
            start = int(rng.integers(0, latest + 1))
        self.state = PortfolioState(self.config.initial_cash, 0, start)
        return self.state

    @property
    def done(self) -> bool:
        return self.state is None or self.state.day_index >= self.end

    def step(self, action: float) -> tuple[float, Order]:
        """Trade at the next day's open and mark the portfolio there; returns
        the reward and the order."""
        if self.state is None:
            raise EnvError("step before reset")
        if self.done:
            raise EnvError("step on a finished episode")
        if not -1.0 <= action <= 1.0:
            raise EnvError(f"action {action} outside [-1, 1]")

        p = self.state
        prev_open = self.opens[p.day_index]
        prev_value = p.value(prev_open)
        exec_day = p.day_index + 1
        opening = self.opens[exec_day]
        order = map_action(action, p, opening, self.config)
        if order.signed_shares > 0:
            p.cash -= order.signed_shares * opening * (1.0 + self.config.tax_rate)
            p.shares += order.signed_shares
        elif order.signed_shares < 0:
            p.cash += -order.signed_shares * opening
            p.shares += order.signed_shares
        p.day_index = exec_day

        reward = (p.value(opening) - prev_value) / prev_value \
            - (opening - prev_open) / prev_open
        return reward, order


def buy_and_hold(dataset: AlignedDataset, config: EnvConfig) -> np.ndarray:
    """Equity curve of the all-in buy (``map_action`` at a = 1) at the
    dataset's first open, then holding.

    The curve is marked at every daily open of the dataset; entry tax is paid
    at index 0.
    """
    opens = dataset.opens
    entry = opens[0]
    shares = map_action(1.0, PortfolioState(config.initial_cash, 0, 0), entry,
                        config).signed_shares
    cash = config.initial_cash - shares * entry * (1.0 + config.tax_rate)
    return cash + shares * opens

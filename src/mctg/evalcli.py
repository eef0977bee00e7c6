"""Backtesting, profit/tax metrics, ablation variants, checkpoint persistence,
and config-file plumbing shared by the command-line interface.

Profit rate (PR) is the annualized geometric return of the equity curve; tax
rate (TR) is annual tax paid over initial capital. Both use 252 trading days
per year.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ppo as ppo_mod
from .env import EnvConfig, TradingEnv, buy_and_hold
from .garch import REFIT_EVERY, WARMUP_FLOOR, WINDOW, rolling_forecast
from .marketdata import (AlignedDataset, BarSeries, MarketGenParams,
                         ObservationNormalizer, align, resample)
from .nn import AdamState
from .policy import Policy, PolicyConfig

TRADING_DAYS_PER_YEAR = 252
CHECKPOINT_VERSION = 1


class EvalError(Exception):
    pass


# -- variants ----------------------------------------------------------------

@dataclass(frozen=True)
class VariantConfig:
    name: str
    branches: tuple[str, ...]
    garch_feature: bool

    def policy_config(self, **overrides) -> PolicyConfig:
        return PolicyConfig(branches=self.branches,
                            garch_feature=self.garch_feature, **overrides)


VARIANTS = {
    "DNN": VariantConfig("DNN", ("mid",), False),
    "DNN-GARCH": VariantConfig("DNN-GARCH", ("mid",), True),
    "MCT": VariantConfig("MCT", ("short", "mid", "long"), False),
    "MCTG": VariantConfig("MCTG", ("short", "mid", "long"), True),
}


# -- metrics -----------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    profit_rate_annualized: float
    profit_rate_cumulative: float
    tax_rate_annualized: float
    n_trades: int
    final_value: float

    def to_dict(self) -> dict:
        return asdict(self)


def profit_rate(curve, trading_days_per_year: int = TRADING_DAYS_PER_YEAR
                ) -> tuple[float, float]:
    """(annualized, cumulative) return of an equity curve marked once per day."""
    curve = np.asarray(curve, dtype=np.float64)
    if len(curve) < 2:
        raise EvalError("equity curve needs at least 2 points")
    if np.any(curve <= 0):
        raise EvalError("equity curve must be strictly positive")
    growth = float(curve[-1] / curve[0])
    cumulative = growth - 1.0
    annualized = growth ** (trading_days_per_year / len(curve)) - 1.0
    return annualized, cumulative


def tax_rate(taxes_paid, initial_capital: float, n_days: int,
             trading_days_per_year: int = TRADING_DAYS_PER_YEAR) -> float:
    """Annualized tax paid as a fraction of initial capital."""
    if n_days < 1:
        raise EvalError("n_days must be >= 1")
    total = float(np.sum(np.asarray(taxes_paid, dtype=np.float64)))
    return total / initial_capital * (trading_days_per_year / n_days)


# -- backtest ----------------------------------------------------------------

def backtest(policy: Policy, dataset: AlignedDataset, env_config: EnvConfig,
             normalizer: ObservationNormalizer) -> tuple[Metrics, list[dict], list[dict]]:
    """Run the policy deterministically (clipped mean, no sampling) through the
    environment.

    Returns the metrics, per-day equity rows
    (``date,value,bh_value,action,shares,cash,tax_paid``), and trajectory rows
    (``date,open,action,order_shares,tax_paid,cash,shares,value,reward``).
    """
    if not normalizer.fitted_:
        raise EvalError("backtest requires fitted normalization statistics")
    env = TradingEnv(dataset, env_config, normalizer)
    bh = buy_and_hold(dataset, env_config.start, env.end, env_config)

    state, obs = env.reset()
    flat = policy.flatten_observation(obs)
    equity_rows = [{
        "date": dataset.date(env_config.start), "value": env_config.initial_cash,
        "bh_value": float(bh[0]), "action": 0.0, "shares": 0,
        "cash": env_config.initial_cash, "tax_paid": 0.0,
    }]
    trajectory_rows: list[dict] = []
    taxes: list[float] = []
    values = [env_config.initial_cash]
    n_trades = 0
    k = 1
    while not env.done:
        out, _ = policy.forward(flat, mode="eval")
        action = float(np.clip(out.action_mean[0], -1.0, 1.0))
        result = env.step(action)
        info = result.info
        if info["order"].signed_shares != 0:
            n_trades += 1
        taxes.append(info["tax_paid"])
        values.append(info["value"])
        equity_rows.append({
            "date": info["date"], "value": info["value"], "bh_value": float(bh[k]),
            "action": action, "shares": info["shares"], "cash": info["cash"],
            "tax_paid": info["tax_paid"],
        })
        trajectory_rows.append({
            "date": info["date"], "open": info["open"], "action": action,
            "order_shares": info["order"].signed_shares, "tax_paid": info["tax_paid"],
            "cash": info["cash"], "shares": info["shares"], "value": info["value"],
            "reward": result.reward,
        })
        if not result.done:
            flat = policy.flatten_observation(result.observation)
        k += 1

    annualized, cumulative = profit_rate(values)
    metrics = Metrics(
        profit_rate_annualized=annualized,
        profit_rate_cumulative=cumulative,
        tax_rate_annualized=tax_rate(taxes, env_config.initial_cash, len(values)),
        n_trades=n_trades,
        final_value=values[-1],
    )
    return metrics, equity_rows, trajectory_rows


# -- checkpoints ---------------------------------------------------------------

@dataclass
class Checkpoint:
    variant: str
    policy_config: PolicyConfig
    param_values: dict[str, np.ndarray]
    adam: dict | None
    training_step: int
    rng_state: dict | None
    norm_stats: dict
    metadata: dict

    def build_policy(self) -> Policy:
        policy = Policy(self.policy_config, np.random.default_rng(0))
        names = policy.parameter_names()
        missing = [n for n in names if n not in self.param_values]
        if missing:
            raise EvalError(f"checkpoint missing parameters: {missing[:3]}")
        policy.set_parameters([self.param_values[n] for n in names])
        return policy

    def build_adam(self, policy: Policy, learning_rate: float) -> AdamState:
        if self.adam is None:
            return AdamState(policy.parameters(), learning_rate)
        return AdamState.from_dict(self.adam, policy.parameters())

    def build_normalizer(self) -> ObservationNormalizer:
        return ObservationNormalizer.from_dict(self.norm_stats)


def save_checkpoint(path: str, variant: str, policy: Policy,
                    normalizer: ObservationNormalizer, adam: AdamState | None = None,
                    training_step: int = 0, rng: np.random.Generator | None = None,
                    metadata: dict | None = None) -> None:
    """Write a JSON checkpoint atomically (temp file + rename)."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "variant": variant,
        "policy_config": asdict(policy.config),
        "params": {name: np.asarray(p).tolist() for name, p in policy.named_parameters()},
        "adam": adam.to_dict() if adam is not None else None,
        "training_step": training_step,
        "rng_state": rng.bit_generator.state if rng is not None else None,
        "norm_stats": normalizer.to_dict(),
        "metadata": metadata or {},
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise EvalError(f"{path}: corrupt checkpoint: {e}") from None
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise EvalError(f"{path}: checkpoint format version {version}, "
                        f"this build reads version {CHECKPOINT_VERSION}")
    try:
        stored = {f.name: doc["policy_config"][f.name] for f in fields(PolicyConfig)}
        # JSON stores the config's tuples as lists.
        config = PolicyConfig(**{name: tuple(v) if isinstance(v, list) else v
                                 for name, v in stored.items()})
        params = {name: np.asarray(v, dtype=np.float64) for name, v in doc["params"].items()}
        return Checkpoint(
            variant=doc["variant"], policy_config=config, param_values=params,
            adam=doc["adam"], training_step=int(doc["training_step"]),
            rng_state=doc["rng_state"], norm_stats=doc["norm_stats"],
            metadata=doc.get("metadata", {}),
        )
    except KeyError as e:
        raise EvalError(f"{path}: checkpoint lacks field {e.args[0]!r}") from None


# -- report --------------------------------------------------------------------

def report(metrics_docs: list[dict]) -> list[dict]:
    """Aggregate backtest metrics documents into variant x {PR, TR} rows.

    Multiple documents for the same variant average arithmetically. Variants
    appear in the canonical DNN / DNN-GARCH / MCT / MCTG order first, then any
    others in input order.
    """
    groups: dict[str, list[tuple[float, float]]] = {}
    for n, doc in enumerate(metrics_docs, start=1):
        try:
            metrics = doc["metrics"]
            rates = (metrics["profit_rate_annualized"], metrics["tax_rate_annualized"])
            groups.setdefault(doc["variant"], []).append(rates)
        except KeyError as e:
            raise EvalError(f"metrics document {n} lacks field {e.args[0]!r}") from None
    order = [v for v in VARIANTS if v in groups]
    order += [v for v in groups if v not in order]
    return [{"variant": variant,
             "PR": float(np.mean([pr for pr, _ in groups[variant]])),
             "TR": float(np.mean([tr for _, tr in groups[variant]]))}
            for variant in order]


# -- flat key=value config -------------------------------------------------------

def load_config(path: str | None) -> dict[str, str]:
    """Flat ``key=value`` config; ``#`` starts a comment, blank lines ignored."""
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise EvalError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def config_get(cfg: dict, key: str, cast, default):
    if key not in cfg:
        return default
    raw = cfg[key]
    try:
        if cast is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return cast(raw)
    except ValueError as e:
        raise EvalError(f"config key {key}: {e}") from None


def _positive_or_none(raw: str) -> int | None:
    value = int(raw)
    return value if value > 0 else None


# Field type -> cast of its raw string, where the type itself is not the cast.
# An ``int | None`` field reads a non-positive value as None.
_CASTS = {int | None: _positive_or_none, dt.date: dt.date.fromisoformat}

# Dotted config section -> (dataclass it fills, fields a config file cannot
# set). Defaults live only on the dataclasses. The episode range is chosen by
# each command, never read from a file.
_SECTIONS = {
    "market": (MarketGenParams, ()),
    "ppo": (ppo_mod.PpoConfig, ()),
    "env": (EnvConfig, ("start", "end", "min_episode_steps")),
}

CONFIG_KEYS = tuple(
    f"{section}.{f.name}"
    for section, (cls, fixed) in _SECTIONS.items()
    for f in fields(cls) if f.name not in fixed
) + ("garch.window", "garch.refit_every", "data.split_boundary", "data.train_fraction")


def check_config_keys(cfg: dict) -> None:
    """One config file serves every command, so a key no command reads is a typo."""
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise EvalError(f"unknown config key {key!r}")


def section_from_config(cfg: dict, section: str, **overrides):
    """Build a section's dataclass from the keys present in ``cfg``; absent
    keys keep the dataclass defaults and ``overrides`` win over both."""
    cls, fixed = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if f.name not in fixed and key in cfg:
            kwargs[f.name] = config_get(cfg, key, _CASTS.get(hints[f.name], hints[f.name]),
                                        None)
    return cls(**{**kwargs, **overrides})


def garch_settings_from_config(cfg: dict) -> tuple[int, int]:
    """(window, refit_every) for the rolling volatility forecasts."""
    return (config_get(cfg, "garch.window", int, WINDOW),
            config_get(cfg, "garch.refit_every", int, REFIT_EVERY))


# -- dataset pipeline ------------------------------------------------------------

def build_dataset(five_min: BarSeries, garch_window: int,
                  garch_refit_every: int) -> AlignedDataset:
    """Resample a 5-minute feed, attach rolling volatility forecasts, align.

    Day i's volatility forecast is causal: it only sees close-to-close
    log-returns realized before day i.
    """
    daily, weekly = resample(five_min)
    closes = daily.values[:, 3]
    returns = np.diff(np.log(closes))
    sigma = rolling_forecast(returns, window=garch_window, refit_every=garch_refit_every)
    # returns[t] ends on day t+1, so its forecast belongs to day t+1; day 0
    # gets the positive warm-up floor.
    daily_vol = np.concatenate([[WARMUP_FLOOR], sigma])
    return align(five_min, daily, weekly, daily_vol)


def split_settings_from_config(cfg: dict) -> tuple[dt.date | None, float]:
    """(data.split_boundary or None, data.train_fraction), read and checked
    before any data is built."""
    boundary = config_get(cfg, "data.split_boundary", dt.date.fromisoformat, None)
    fraction = config_get(cfg, "data.train_fraction", float, 0.8)
    if not 0.0 < fraction < 1.0:
        raise EvalError("data.train_fraction must be in (0, 1)")
    return boundary, fraction


def split_boundary(dataset: AlignedDataset, boundary: dt.date | None,
                   fraction: float) -> dt.date:
    """``boundary`` when set, else the trading day ``fraction`` of the way in."""
    if boundary is not None:
        return boundary
    idx = min(max(int(dataset.n_days * fraction), 1), dataset.n_days - 1)
    return dataset.trading_days[idx]

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
from .env import EnvConfig, EnvError, TradingEnv, buy_and_hold
from .garch import WARMUP_FLOOR, FitReport, GarchConfig, GarchError, rolling_forecast
from .marketdata import (AlignedDataset, BarSeries, MarketDataError, MarketGenParams,
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


def profit_rate(curve) -> tuple[float, float]:
    """(annualized, cumulative) return of an equity curve marked once per day."""
    curve = np.asarray(curve, dtype=np.float64)
    if len(curve) < 2:
        raise EvalError("equity curve needs at least 2 points")
    if np.any(curve <= 0):
        raise EvalError("equity curve must be strictly positive")
    growth = float(curve[-1] / curve[0])
    cumulative = growth - 1.0
    annualized = growth ** (TRADING_DAYS_PER_YEAR / len(curve)) - 1.0
    return annualized, cumulative


def tax_rate(taxes_paid, initial_capital: float, n_days: int) -> float:
    """Annualized tax paid as a fraction of initial capital."""
    if n_days < 1:
        raise EvalError("n_days must be >= 1")
    total = float(np.sum(np.asarray(taxes_paid, dtype=np.float64)))
    return total / initial_capital * (TRADING_DAYS_PER_YEAR / n_days)


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
    bh = buy_and_hold(dataset, env_config)

    _, obs = env.reset()
    equity_rows = [{
        "date": dataset.date(0), "value": env_config.initial_cash,
        "bh_value": float(bh[0]), "action": 0.0, "shares": 0,
        "cash": env_config.initial_cash, "tax_paid": 0.0,
    }]
    trajectory_rows: list[dict] = []
    while not env.done:
        out, _ = policy.forward(policy.flatten_observation(obs), mode="eval")
        action = min(max(float(out.action_mean[0]), -1.0), 1.0)
        result = env.step(action)
        obs = result.observation
        info = result.info
        equity_rows.append({
            "date": info["date"], "value": info["value"],
            "bh_value": float(bh[len(equity_rows)]),
            "action": action, "shares": info["shares"], "cash": info["cash"],
            "tax_paid": info["tax_paid"],
        })
        trajectory_rows.append({
            "date": info["date"], "open": info["open"], "action": action,
            "order_shares": info["order"].signed_shares, "tax_paid": info["tax_paid"],
            "cash": info["cash"], "shares": info["shares"], "value": info["value"],
            "reward": result.reward,
        })

    values = [row["value"] for row in equity_rows]
    annualized, cumulative = profit_rate(values)
    metrics = Metrics(
        profit_rate_annualized=annualized,
        profit_rate_cumulative=cumulative,
        tax_rate_annualized=tax_rate([row["tax_paid"] for row in trajectory_rows],
                                     env_config.initial_cash, len(values)),
        n_trades=sum(row["order_shares"] != 0 for row in trajectory_rows),
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
    _check_object(doc, f"{path}: checkpoint")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise EvalError(f"{path}: checkpoint format version {version}, "
                        f"this build reads version {CHECKPOINT_VERSION}")
    try:
        doc.setdefault("metadata", {})
        # norm_stats is checked by ObservationNormalizer.from_dict.
        for name in ("policy_config", "params", "metadata"):
            _check_object(doc[name], f"{path}: checkpoint field {name!r}")
        stored = {f.name: doc["policy_config"][f.name] for f in fields(PolicyConfig)}
        # JSON stores the config's tuples as lists.
        config = PolicyConfig(**{name: tuple(v) if isinstance(v, list) else v
                                 for name, v in stored.items()})
        params = {name: np.asarray(v, dtype=np.float64) for name, v in doc["params"].items()}
        return Checkpoint(
            variant=doc["variant"], policy_config=config, param_values=params,
            adam=doc["adam"], training_step=int(doc["training_step"]),
            rng_state=doc["rng_state"], norm_stats=doc["norm_stats"],
            metadata=doc["metadata"],
        )
    except KeyError as e:
        raise EvalError(f"{path}: checkpoint lacks field {e.args[0]!r}") from None


def _check_object(value, what: str) -> None:
    """JSON read from a file can be valid yet of the wrong shape."""
    if not isinstance(value, dict):
        raise EvalError(f"{what} is not a JSON object")


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
            _check_object(doc, f"metrics document {n}")
            metrics = doc["metrics"]
            _check_object(metrics, f"metrics document {n} field 'metrics'")
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


def config_get(cfg: dict, key: str, cast):
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
_CASTS = {int | None: _positive_or_none, dt.date: dt.date.fromisoformat,
          dt.date | None: dt.date.fromisoformat}


@dataclass(frozen=True)
class SplitConfig:
    """Train/test split: ``split_boundary``, the first test day, when set; else
    the trading day ``train_fraction`` of the way in."""

    split_boundary: dt.date | None = None
    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise EvalError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


# Dotted config section -> the dataclass it fills; every field is a key.
# Defaults live only on the dataclasses.
_SECTIONS = {
    "market": MarketGenParams,
    "ppo": ppo_mod.PpoConfig,
    "env": EnvConfig,
    "garch": GarchConfig,
    "data": SplitConfig,
}

CONFIG_KEYS = tuple(f"{section}.{f.name}"
                    for section, cls in _SECTIONS.items() for f in fields(cls))


def check_config_keys(cfg: dict) -> None:
    """One config file serves every command, so a key no command reads is a typo."""
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise EvalError(f"unknown config key {key!r}")


def section_from_config(cfg: dict, section: str, **overrides):
    """Build a section's dataclass from the keys present in ``cfg``; absent
    keys keep the dataclass defaults and ``overrides`` win over both."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if key in cfg:
            kwargs[f.name] = config_get(cfg, key, _CASTS.get(hints[f.name], hints[f.name]))
    try:
        return cls(**{**kwargs, **overrides})
    except (MarketDataError, ppo_mod.PpoError, EnvError, GarchError, EvalError) as e:
        # Each section's checks start their message with the field's name, so
        # the section prefix turns it into the config key.
        raise EvalError(f"config {section}.{e}") from None


# -- dataset pipeline ------------------------------------------------------------

def build_dataset(five_min: BarSeries, garch_window: int, garch_refit_every: int,
                  on_fit=None) -> AlignedDataset:
    """Resample a 5-minute feed, attach rolling volatility forecasts, align.

    Day i's volatility forecast is causal: it only sees close-to-close
    log-returns realized before day i. ``on_fit`` goes to ``rolling_forecast``.
    """
    daily, weekly = resample(five_min)
    closes = daily.values[:, 3]
    returns = np.diff(np.log(closes))
    sigma = rolling_forecast(returns, window=garch_window, refit_every=garch_refit_every,
                             on_fit=on_fit)
    # returns[t] ends on day t+1, so its forecast belongs to day t+1; day 0
    # gets the positive warm-up floor.
    daily_vol = np.concatenate([[WARMUP_FLOOR], sigma])
    return align(five_min, daily, weekly, daily_vol)


def garch_fit_health(reports: list[FitReport]) -> dict[str, int]:
    """``garch_fits``: the rolling refits that returned a fit;
    ``garch_boundary_fits``: how many of them sit at a constraint boundary."""
    return {"garch_fits": len(reports),
            "garch_boundary_fits": sum(r.at_boundary for r in reports)}


def split_boundary(dataset: AlignedDataset, settings: SplitConfig) -> dt.date:
    """The first test day of ``dataset`` under ``settings``."""
    if settings.split_boundary is not None:
        return settings.split_boundary
    idx = min(max(int(dataset.n_days * settings.train_fraction), 1), dataset.n_days - 1)
    return dataset.trading_days[idx]

"""Backtesting, profit/tax metrics, ablation variants, checkpoint persistence,
and config-file plumbing shared by the command-line interface.

Profit rate (PR) is the annualized geometric return of the equity curve; tax
rate (TR) is annual tax paid over initial capital. Both use 252 trading days
per year.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ppo as ppo_mod
from .env import EnvConfig, EnvError, TradingEnv, buy_and_hold
from .garch import FitReport, GarchConfig, GarchError, rolling_forecast
from .marketdata import (AlignedDataset, BarSeries, MarketDataError, MarketGenParams,
                         ObservationNormalizer, align, resample)
from .nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState
from .policy import Policy, PolicyConfig, PolicyError

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

    def policy_config(self) -> PolicyConfig:
        return PolicyConfig(branches=self.branches, garch_feature=self.garch_feature)


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
    # The env normalizes and serves only the window kinds the policy reads.
    env = TradingEnv(AlignedDataset(dataset.trading_days,
                                    {kind: dataset.windows[kind] for kind in policy.input_dims},
                                    dataset.opens),
                     env_config, normalizer)
    bh = buy_and_hold(dataset, env_config).tolist()
    p = env.reset()

    def equity_row(action: float, tax_paid: float) -> dict:
        day = p.day_index
        return {"date": dataset.trading_days[day], "value": p.value(env.opens[day]),
                "bh_value": bh[day], "action": action, "shares": p.shares,
                "cash": p.cash, "tax_paid": tax_paid}

    equity_rows = [equity_row(0.0, 0.0)]
    trajectory_rows: list[dict] = []
    while not env.done:
        obs = env.observation(p.day_index)
        out, _ = policy.forward(policy.flatten_observation(obs), tape=False)
        action = min(max(float(out.action_mean[0]), -1.0), 1.0)
        reward, order = env.step(action)
        row = equity_row(action, order.tax_paid)
        equity_rows.append(row)
        trajectory_rows.append({
            "date": row["date"], "open": env.opens[p.day_index], "action": action,
            "order_shares": order.signed_shares, "tax_paid": order.tax_paid,
            "cash": row["cash"], "shares": row["shares"], "value": row["value"],
            "reward": reward,
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
    training_step: int
    norm_stats: dict
    metadata: dict

    def build_policy(self) -> Policy:
        policy = Policy.zeroed(self.policy_config)
        named = dict(policy.named_parameters())
        for name in self.param_values:
            if name not in named:
                raise EvalError(f"checkpoint has unknown parameter {name!r}")
        for name, param in named.items():
            if name not in self.param_values:
                raise EvalError(f"checkpoint missing parameter {name!r}")
            value = self.param_values[name]
            if value.shape != param.shape:
                raise EvalError(f"checkpoint parameter {name!r} has shape {value.shape}, "
                                f"expected {param.shape}")
            param[...] = value
        return policy

    def build_normalizer(self) -> ObservationNormalizer:
        return ObservationNormalizer.from_dict(self.norm_stats)


def save_checkpoint(path: str, variant: str, policy: Policy,
                    normalizer: ObservationNormalizer, adam: AdamState | None = None,
                    training_step: int = 0, rng: np.random.Generator | None = None,
                    metadata: dict | None = None) -> None:
    """Write a JSON checkpoint atomically (temp file + rename). The Adam
    moments are stored per parameter, shaped like it, in ``params`` order."""
    def per_parameter(vector: np.ndarray) -> list:
        return [vector[s].reshape(p.shape).tolist()
                for s, p in zip(policy.slices, policy.parameters())]

    doc = {
        "format_version": CHECKPOINT_VERSION,
        "variant": variant,
        "policy_config": asdict(policy.config),
        "params": {name: np.asarray(p).tolist() for name, p in policy.named_parameters()},
        "adam": None if adam is None else {
            "learning_rate": adam.learning_rate, "beta1": ADAM_BETA1,
            "beta2": ADAM_BETA2, "eps": ADAM_EPS, "step_count": adam.step_count,
            "m": per_parameter(adam.m_vector), "v": per_parameter(adam.v_vector),
        },
        "training_step": training_step,
        "rng_state": rng.bit_generator.state if rng is not None else None,
        "norm_stats": normalizer.to_dict(),
        "metadata": metadata or {},
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)  # streamed: one json.dumps is ~2x faster but +8% peak RSS
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise EvalError(f"{path}: corrupt checkpoint: {e}") from None
    check_json(doc, "object", f"{path}: checkpoint")
    try:
        version = doc["format_version"]
        check_json(version, "integer", f"{path}: checkpoint field 'format_version'")
        if version != CHECKPOINT_VERSION:
            raise EvalError(f"{path}: checkpoint format version {version}, "
                            f"this build reads version {CHECKPOINT_VERSION}")
        doc.setdefault("metadata", {})
        # The Adam and RNG state are written for the record; nothing reads them.
        for name, kind in (("variant", "string"), ("policy_config", "object"),
                           ("params", "object"), ("training_step", "integer"),
                           ("metadata", "object")):
            check_json(doc[name], kind, f"{path}: checkpoint field {name!r}")
        stored = {}
        for f in fields(PolicyConfig):
            value = doc["policy_config"][f.name]
            what = f"{path}: checkpoint policy_config {f.name!r}"
            if isinstance(f.default, tuple):
                # JSON stores the config's tuples as lists.
                check_json(value, "array", what)
                for item in value:
                    check_json(item, _JSON_KINDS[type(f.default[0])], f"{what} entry")
                value = tuple(value)
            else:
                check_json(value, _JSON_KINDS[type(f.default)], what)
            stored[f.name] = value
        try:
            policy_config = PolicyConfig(**stored)
        except PolicyError as e:
            raise EvalError(f"{path}: checkpoint policy_config {e}") from None
        params = {}
        for name, value in doc["params"].items():
            try:
                # JSON null converts to NaN, so the finiteness check rejects it.
                array = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                array = None
            if array is None or not np.isfinite(array).all():
                raise EvalError(f"{path}: checkpoint parameter {name!r} is not "
                                "an array of finite numbers")
            params[name] = array
        try:
            ObservationNormalizer.from_dict(doc["norm_stats"])
        except MarketDataError as e:
            raise EvalError(f"{path}: checkpoint norm_stats: {e}") from None
        return Checkpoint(
            variant=doc["variant"], policy_config=policy_config,
            param_values=params, training_step=doc["training_step"],
            norm_stats=doc["norm_stats"], metadata=doc["metadata"],
        )
    except KeyError as e:
        raise EvalError(f"{path}: checkpoint lacks field {e.args[0]!r}") from None


_JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
               "number": (int, float), "boolean": bool}
# Python type of a default value -> the JSON kind that stores it.
_JSON_KINDS = {str: "string", int: "integer", float: "number", bool: "boolean"}


def check_json(value, kind: str, what: str) -> None:
    """JSON read from a file can be valid yet of the wrong type; ``kind`` is a
    key of ``_JSON_TYPES``. Only a ``boolean`` may be a JSON boolean."""
    if isinstance(value, bool) != (kind == "boolean") \
            or not isinstance(value, _JSON_TYPES[kind]):
        raise EvalError(f"{what} is not a JSON {kind}")


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
            check_json(doc, "object", f"metrics document {n}")
            check_json(doc["variant"], "string", f"metrics document {n} field 'variant'")
            metrics = doc["metrics"]
            check_json(metrics, "object", f"metrics document {n} field 'metrics'")
            rates = (metrics["profit_rate_annualized"], metrics["tax_rate_annualized"])
            for name in ("profit_rate_annualized", "tax_rate_annualized"):
                check_json(metrics[name], "number", f"metrics document {n} field {name!r}")
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
    """Flat ``key=value`` config; ``#`` starts a comment, blank lines ignored.
    A key may appear once."""
    if path is None:
        return {}
    cfg: dict[str, str] = {}
    key_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise EvalError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in key_line:
                raise EvalError(f"{path}: line {lineno}: key {key!r} is already "
                                f"set on line {key_line[key]}")
            key_line[key] = lineno
            cfg[key] = value.strip()
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


def section_from_config(cfg: dict, section: str):
    """Build a section's dataclass from the keys present in ``cfg``; absent
    keys keep the dataclass defaults."""
    cls = _SECTIONS[section]
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        if key in cfg:
            kwargs[f.name] = config_get(cfg, key, _CASTS.get(hints[f.name], hints[f.name]))
    try:
        return cls(**kwargs)
    except (MarketDataError, ppo_mod.PpoError, EnvError, GarchError, EvalError) as e:
        # Each section's checks start their message with the field's name, so
        # the section prefix turns it into the config key.
        raise EvalError(f"config {section}.{e}") from None


# -- dataset pipeline ------------------------------------------------------------

def build_dataset(five_min: BarSeries, garch_window: int, garch_refit_every: int,
                  on_fit=None) -> AlignedDataset:
    """Resample a 5-minute feed, attach the causal rolling volatility forecast
    of each day's close, align. ``on_fit`` goes to ``rolling_forecast``."""
    daily, weekly = resample(five_min)
    return align(five_min, daily, weekly,
                 rolling_forecast(daily.values[:, 3], garch_window, garch_refit_every, on_fit))


def garch_fit_health(reports: list[FitReport]) -> dict[str, int]:
    """``garch_fits``: the rolling refits that returned a fit;
    ``garch_boundary_fits``: how many of them sit at a constraint boundary;
    ``garch_unconverged_fits``: how many stopped before the optimizer
    converged (their parameters are still used)."""
    return {"garch_fits": len(reports),
            "garch_boundary_fits": sum(r.at_boundary for r in reports),
            "garch_unconverged_fits": sum(not r.converged for r in reports)}


def split_boundary(dataset: AlignedDataset, settings: SplitConfig) -> dt.date:
    """The first test day of ``dataset`` under ``settings``."""
    if settings.split_boundary is not None:
        return settings.split_boundary
    idx = min(max(int(dataset.n_days * settings.train_fraction), 1), dataset.n_days - 1)
    return dataset.trading_days[idx]

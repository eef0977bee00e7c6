"""Command-line interface.

Subcommands: generate-data, fit-garch, train, backtest, report.
Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys

import numpy as np

from . import evalcli, ppo
from .env import EnvError, TradingEnv
from .garch import GarchError, rolling_forecast
from .marketdata import (CSV_HEADER, MarketDataError, ObservationNormalizer, load_bars,
                         resample, save_bars, simulate_market, split)
from .nn import AdamState, NetworkError
from .policy import Policy, PolicyError
from .ppo import PpoError

_ERRORS = (evalcli.EvalError, MarketDataError, GarchError, NetworkError,
           PolicyError, EnvError, PpoError, OSError, ValueError)


def _write_csv(path: str, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _fmt(value) -> str:
    # repr round-trips floats bit-exactly, which keeps logs reproducible.
    return repr(value) if isinstance(value, float) else str(value)


def _load_config(path: str | None) -> dict:
    cfg = evalcli.load_config(path)
    evalcli.check_config_keys(cfg)
    return cfg


def cmd_generate_data(args) -> int:
    gen = evalcli.section_from_config(_load_config(args.config), "market")
    series = simulate_market(gen, args.days, args.seed)
    save_bars(series, args.out)
    print(f"wrote {len(series)} five-minute bars ({args.days} days) to {args.out}")
    return 0


def cmd_fit_garch(args) -> int:
    garch = evalcli.section_from_config(_load_config(args.config), "garch")
    daily, _ = resample(load_bars(args.data))
    reports = []
    sigma = rolling_forecast(daily.values[:, 3], garch.window, garch.refit_every,
                             reports.append)
    columns = (*CSV_HEADER, "sigma")
    _write_csv(args.out, columns, [dict(zip(columns, [date, *row, s])) for date, row, s in zip(
        np.datetime_as_string(daily.timestamps, unit="D"), daily.values.tolist(), sigma.tolist())])
    health = evalcli.garch_fit_health(reports)
    print(f"wrote {len(daily)} daily bars with sigma to {args.out}")
    print(f"{health['garch_boundary_fits']} of {health['garch_fits']} "
          "GARCH refits at a constraint boundary")
    print(f"{health['garch_unconverged_fits']} of {health['garch_fits']} "
          "GARCH refits did not converge")
    return 0


# Training metadata field -> its JSON kind and the config keys that set it. Of
# several keys the first is named: data.split_boundary wins over data.train_fraction.
_PINNED = {
    "garch_window": ("integer", ("garch.window",)),
    "garch_refit_every": ("integer", ("garch.refit_every",)),
    "split_boundary": ("string", ("data.split_boundary", "data.train_fraction")),
}


def _pinned(cfg: dict, metadata: dict, field: str, resolved):
    """The checkpoint's ``metadata[field]``, the value it was trained with, when
    there is one; else ``resolved``, the config's. A config key that resolves to
    a different value than the checkpoint's is an error, since it would do
    nothing. A date is recorded as its ISO string."""
    if field not in metadata:
        return resolved
    kind, keys = _PINNED[field]
    pinned, what = metadata[field], f"checkpoint metadata {field!r}"
    evalcli.check_json(pinned, kind, what)
    try:
        pinned = dt.date.fromisoformat(pinned) if isinstance(resolved, dt.date) else pinned
    except ValueError as e:
        raise evalcli.EvalError(f"{what}: {e}") from None
    key = next((k for k in keys if k in cfg), None)
    if key is not None and resolved != pinned:
        raise evalcli.EvalError(f"config key {key} resolves to {resolved}, but the "
                                f"checkpoint was trained with {field} = {pinned}")
    return pinned


def _split_dataset(cfg: dict, path: str, metadata: dict, on_fit):
    """The train and test segments of the bar CSV at ``path``, and the
    ``_PINNED`` fields they were cut with, as a checkpoint records them.

    ``metadata`` is a checkpoint's, whose fields win over the config's;
    training passes ``{}``. ``on_fit`` goes to ``rolling_forecast``. Config
    errors come before any data is read."""
    garch = evalcli.section_from_config(cfg, "garch")
    split_config = evalcli.section_from_config(cfg, "data")
    window = _pinned(cfg, metadata, "garch_window", garch.window)
    refit_every = _pinned(cfg, metadata, "garch_refit_every", garch.refit_every)
    dataset = evalcli.build_dataset(load_bars(path), window, refit_every, on_fit)
    boundary = _pinned(cfg, metadata, "split_boundary",
                       evalcli.split_boundary(dataset, split_config))
    train_ds, test_ds = split(dataset, boundary)
    return train_ds, test_ds, {"garch_window": window, "garch_refit_every": refit_every,
                               "split_boundary": boundary.isoformat()}


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    variant = evalcli.VARIANTS[args.variant]
    overrides = {} if args.total_steps is None else {"total_steps": args.total_steps}
    ppo_config = evalcli.section_from_config(cfg, "ppo", **overrides)
    env_config = evalcli.section_from_config(cfg, "env")
    fit_reports = []
    train_ds, _, pinned = _split_dataset(cfg, args.data, {}, fit_reports.append)

    normalizer = ObservationNormalizer().fit(train_ds, range(train_ds.n_days))
    env = TradingEnv(train_ds, env_config, normalizer)

    rng = np.random.default_rng(args.seed)
    policy = Policy(variant.policy_config(), rng)
    adam = AdamState(policy.parameters(), ppo_config.learning_rate)

    os.makedirs(args.out_dir, exist_ok=True)
    metadata = {**pinned, "seed": args.seed, **evalcli.garch_fit_health(fit_reports)}

    def checkpoint_fn(update_index, pol, adam_state):
        path = os.path.join(args.out_dir, f"checkpoint_{update_index:05d}.json")
        evalcli.save_checkpoint(path, variant.name, pol, normalizer, adam_state,
                                training_step=update_index * ppo_config.rollout,
                                rng=rng, metadata=metadata)

    rows = ppo.train(policy, env, ppo_config, rng, adam=adam,
                     checkpoint_fn=checkpoint_fn)
    _write_csv(os.path.join(args.out_dir, "log.csv"), tuple(rows[0]), rows)
    # Whole rollouts only: a remainder of total_steps shorter than one is not run.
    steps = rows[-1]["steps"]
    final = os.path.join(args.out_dir, "checkpoint.json")
    evalcli.save_checkpoint(final, variant.name, policy, normalizer, adam,
                            training_step=steps, rng=rng, metadata=metadata)
    print(f"trained {variant.name} for {steps} steps; checkpoint at {final}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _load_config(args.config)
    checkpoint = evalcli.load_checkpoint(args.checkpoint)
    if args.variant is not None and args.variant != checkpoint.variant:
        raise evalcli.EvalError(
            f"checkpoint was trained as {checkpoint.variant} (state dimension "
            f"{checkpoint.policy_config.state_dim}); requested variant "
            f"{args.variant} has a different network shape")
    policy = checkpoint.build_policy()
    normalizer = checkpoint.build_normalizer()
    env_config = evalcli.section_from_config(cfg, "env", random_start=False)
    train_ds, test_ds, _ = _split_dataset(cfg, args.data, checkpoint.metadata, None)
    dataset = train_ds if args.segment == "train" else test_ds
    metrics, equity_rows, trajectory_rows = evalcli.backtest(
        policy, dataset, env_config, normalizer)

    bh_annualized, bh_cumulative = evalcli.profit_rate(
        [row["bh_value"] for row in equity_rows])
    doc = {
        "variant": checkpoint.variant,
        "segment": args.segment,
        "metrics": metrics.to_dict(),
        "buy_and_hold": {
            "profit_rate_annualized": bh_annualized,
            "profit_rate_cumulative": bh_cumulative,
        },
    }
    with open(args.out_metrics, "w") as fh:
        json.dump(doc, fh, indent=2)
    _write_csv(args.out_equity, tuple(equity_rows[0]), equity_rows)
    if args.out_trajectory:
        _write_csv(args.out_trajectory, tuple(trajectory_rows[0]), trajectory_rows)
    print(f"{checkpoint.variant} {args.segment}: "
          f"PR={metrics.profit_rate_annualized:.4f} "
          f"TR={metrics.tax_rate_annualized:.4f} "
          f"B&H PR={bh_annualized:.4f}")
    return 0


def cmd_report(args) -> int:
    docs = []
    for path in args.metrics:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = evalcli.report(docs)
    _write_csv(args.out, ("variant", "PR", "TR"), rows)
    print(f"wrote {len(rows)} variant rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mctg",
        description="Multi-frequency continuous-share trading engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="synthesize a 5-minute bar CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--days", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("fit-garch", help="emit daily bars with a sigma column")
    p.add_argument("--data", required=True, help="5-minute bar CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_fit_garch)

    p = sub.add_parser("train", help="train a variant with PPO")
    p.add_argument("--data", required=True, help="5-minute bar CSV")
    p.add_argument("--variant", choices=sorted(evalcli.VARIANTS), default="MCTG")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--total-steps", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="run a checkpoint through a data segment")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="5-minute bar CSV")
    p.add_argument("--segment", choices=("train", "test"), default="test")
    p.add_argument("--variant", default=None,
                   help="must match the checkpoint's variant when given")
    p.add_argument("--config", default=None)
    p.add_argument("--out-metrics", required=True)
    p.add_argument("--out-equity", required=True)
    p.add_argument("--out-trajectory", default=None)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="aggregate backtests into a PR/TR table")
    p.add_argument("--out", required=True)
    p.add_argument("metrics", nargs="+", help="metrics JSON files from backtest")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads, their output checks and their timings.

Every workload runs on the acceptance suite's "frozen market" (770 days of
5-minute bars, drift-sign regimes of 50 days; 625 aligned days, the last 220
held out), generated from the run's seed. A workload has a set-up and a
*round*: one complete training run followed by backtests of its result. A
round is a fixed amount of work and is deterministic for a seed, so every
round of a run must produce the same ``digest``; rounds repeat until the
run's time is up.

- ``train_mctg``: the MCTG variant (three branches, volatility column) with
  the default ``PpoConfig``, then deterministic backtests of the held-out
  segment. Five network forwards per env step; nn/policy dominate.
- ``train_dnn_random_start``: the DNN variant (one daily branch, no
  volatility column) with random episode starts. The network is about a
  third of the compute, so per-step Python in env/ppo and the observation
  path dominates, with many resets.
- ``cli_roundtrip``: ``mctg generate-data``, then ``mctg train`` (MCTG,
  checkpoint after every update), then ``mctg backtest --segment test`` with
  all three outputs, run in-process through ``mctg.cli.main``. Each command
  rebuilds the dataset (rolling GARCH) and goes through CSV and JSON I/O.
  Not gated (see README); the traced pass of ``train_*`` runs one.

mctg functions are called through module attributes (``evalcli.backtest``,
not a name imported from it), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from mctg import cli, evalcli, ppo
from mctg import marketdata as md
from mctg.env import EnvConfig, TradingEnv
from mctg.nn import AdamState
from mctg.policy import Policy


FROZEN_MARKET = dict(drift=0.004, alpha0=2.5e-6, alpha1=0.05, beta1=0.90,
                     regime_length=50)
# End-to-end metric -> (unit, higher is better); every workload reports each.
END_TO_END = {
    "setup_s": ("s", False),
    "train_steps_per_s": ("1/s", True),
    "backtest_days_per_s": ("1/s", True),
    "peak_rss_mb": ("MB", False),
}
# Printed with the end-to-end metrics but not in the result line: whole
# ``mctg train`` / ``mctg backtest`` commands on cli_roundtrip, and the
# in-process equivalents on train_*.
COMMAND_TIMES = {
    "train_cmd_s": ("s", False),
    "backtest_cmd_s": ("s", False),
}
LOG_FIELDS = ("update", "steps", "mean_ep_reward", "policy_loss", "value_loss",
              "entropy", "clip_frac", "approx_kl")


class CheckError(Exception):
    """An output check failed."""


@dataclass(frozen=True)
class Sizes:
    """Work per workload. The defaults are the benchmark; tests shrink them."""

    market_days: int = 770
    test_days: int = 220
    garch_window: int = 250
    garch_refit: int = 20
    rollout: int = ppo.PpoConfig.rollout
    minibatches: int = ppo.PpoConfig.minibatches
    train_updates: int = 8          # PPO updates per round on train_*
    cli_updates: int = 4            # PPO updates per `mctg train` on cli_roundtrip
    backtest_passes: int = 5        # timed backtests per round on train_*
    setup_repeats: int = 3          # set-up runs at least this often ...
    setup_seconds: float = 5.0      # ... and until this much time has passed


@dataclass
class Tally:
    """Operations attempted and failed, plus the timing samples of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def op(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def check_log_rows(rows, n_updates: int) -> int:
    """Number of failed updates: missing or extra rows plus rows with a
    non-finite field."""
    bad = sum(1 for row in rows
              if not all(math.isfinite(float(row[f])) for f in LOG_FIELDS))
    return bad + abs(n_updates - len(rows))


def check_equity(values) -> bool:
    return len(values) > 1 and all(math.isfinite(v) and v > 0 for v in values)


def market_params() -> md.MarketGenParams:
    return md.MarketGenParams(**FROZEN_MARKET)


def split_boundary(dataset: md.AlignedDataset, test_days: int):
    return dataset.trading_days[dataset.n_days - test_days]


class TrainWorkload:
    """``train_*``: in-process PPO training plus backtests through a checkpoint."""

    def __init__(self, variant: str, random_start: bool, seed: int, workdir: str,
                 sizes: Sizes):
        self.variant = evalcli.VARIANTS[variant]
        self.env_config = EnvConfig(random_start=random_start)
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.checkpoint = os.path.join(workdir, "checkpoint.json")
        # checkpoint_every=1 makes ppo.train call checkpoint_fn after every
        # update; the round uses that call to timestamp updates.
        self.ppo_config = ppo.PpoConfig(
            rollout=sizes.rollout, minibatches=sizes.minibatches,
            total_steps=sizes.train_updates * sizes.rollout, checkpoint_every=1)

    def setup(self, tally: Tally) -> None:
        """Market, dataset (rolling GARCH), split, normalizer, policy and env."""
        s = self.sizes
        five_min = md.simulate_market(market_params(), s.market_days, self.seed)
        dataset = evalcli.build_dataset(five_min, s.garch_window, s.garch_refit)
        self.train_ds, self.test_ds = md.split(dataset, split_boundary(dataset, s.test_days))
        self.normalizer = md.ObservationNormalizer().fit(
            self.train_ds, range(self.train_ds.n_days))
        self._new_policy_and_env()

    def _new_policy_and_env(self):
        self.rng = np.random.default_rng(self.seed)
        self.policy = Policy(self.variant.policy_config(), self.rng)
        self.env = TradingEnv(self.train_ds, self.env_config, self.normalizer)

    def round(self, tally: Tally) -> str:
        cfg = self.ppo_config
        n_updates = cfg.total_steps // cfg.rollout
        start = time.perf_counter()
        self._new_policy_and_env()
        adam = AdamState(self.policy.parameters(), cfg.learning_rate)
        stamps = [time.perf_counter()]
        rows = ppo.train(self.policy, self.env, cfg, self.rng, adam=adam,
                         checkpoint_fn=lambda k, pol, st: stamps.append(time.perf_counter()))
        evalcli.save_checkpoint(self.checkpoint, self.variant.name, self.policy,
                                self.normalizer, adam, training_step=cfg.total_steps,
                                rng=self.rng, metadata={"seed": self.seed})
        tally.add("train_cmd_s", time.perf_counter() - start)
        for dt_update in np.diff(stamps):
            tally.add("train_steps_per_s", cfg.rollout / dt_update)
        tally.record(n_updates, check_log_rows(rows, n_updates),
                     "train log rows missing or non-finite")

        # The in-memory policy is the reference every checkpoint backtest must match.
        reference, _, _ = evalcli.backtest(self.policy, self.test_ds, EnvConfig(),
                                           self.normalizer)
        for _ in range(self.sizes.backtest_passes):
            t0 = time.perf_counter()
            ck = evalcli.load_checkpoint(self.checkpoint)
            policy, normalizer = ck.build_policy(), ck.build_normalizer()
            t1 = time.perf_counter()
            metrics, equity, trajectory = evalcli.backtest(policy, self.test_ds,
                                                           EnvConfig(), normalizer)
            t2 = time.perf_counter()
            tally.add("backtest_cmd_s", t2 - t0)
            tally.add("backtest_days_per_s", len(trajectory) / (t2 - t1))
            values = [row["value"] for row in equity] + [row["bh_value"] for row in equity]
            tally.op(check_equity(values) and metrics == reference,
                     "backtest equity not finite and positive, or differs from the "
                     "in-memory policy's backtest")
        return _digest(rows, reference.to_dict())

    def traced_extra(self, tally: Tally) -> None:
        """One cli round-trip, so that a traced run of this workload also
        measures the cli layer and the CSV and checkpoint I/O."""
        workdir = os.path.join(self.workdir, "cli")
        os.makedirs(workdir, exist_ok=True)
        cli_run = CliWorkload(self.seed, workdir, self.sizes)
        cli_run.setup(tally)
        cli_run.round(tally)


class CliWorkload:
    """``cli_roundtrip``: generate-data, train, backtest through ``mctg.cli.main``."""

    def __init__(self, seed: int, workdir: str, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.steps = sizes.cli_updates * sizes.rollout
        p = lambda name: os.path.join(workdir, name)
        self.data, self.config, self.run_dir = p("bars.csv"), p("mctg.cfg"), p("run")
        self.out_metrics, self.out_equity, self.out_traj = (
            p("metrics.json"), p("equity.csv"), p("trades.csv"))
        self._setup_digest = None
        self._write_config()

    def _write_config(self) -> None:
        # The split date is part of the workload's definition, so it is worked
        # out here, outside the timed set-up: the last ``test_days`` aligned days.
        s = self.sizes
        five_min = md.simulate_market(market_params(), s.market_days, self.seed)
        daily, weekly = md.resample(five_min)
        aligned = md.align(five_min, daily, weekly, np.ones(len(daily)))
        lines = [f"market.{k} = {v}" for k, v in FROZEN_MARKET.items()] + [
            f"garch.window = {s.garch_window}",
            f"garch.refit_every = {s.garch_refit}",
            f"ppo.rollout = {s.rollout}",
            f"ppo.minibatches = {s.minibatches}",
            "ppo.checkpoint_every = 1",
            f"data.split_boundary = {split_boundary(aligned, s.test_days).isoformat()}",
        ]
        with open(self.config, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def _command(self, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CheckError(f"mctg {argv[0]} exited {code}: {err.getvalue().strip()}")

    def setup(self, tally: Tally) -> None:
        """The ``generate-data`` command; every repeat must write the same bytes."""
        self._command(["generate-data", "--out", self.data, "--days",
                       str(self.sizes.market_days), "--seed", str(self.seed),
                       "--config", self.config])
        with open(self.data, "rb") as fh:
            digest = _digest(fh.read())
        tally.op(self._setup_digest in (None, digest),
                 "mctg generate-data wrote different bytes for the same seed")
        self._setup_digest = digest

    def round(self, tally: Tally) -> str:
        n_updates = self.steps // self.sizes.rollout
        log_path = os.path.join(self.run_dir, "log.csv")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        self._command(["train", "--data", self.data, "--variant", "MCTG",
                       "--config", self.config, "--seed", str(self.seed),
                       "--total-steps", str(self.steps), "--out-dir", self.run_dir])
        t1 = time.perf_counter()
        self._command(["backtest", "--checkpoint",
                       os.path.join(self.run_dir, "checkpoint.json"),
                       "--data", self.data, "--segment", "test",
                       "--config", self.config, "--out-metrics", self.out_metrics,
                       "--out-equity", self.out_equity, "--out-trajectory", self.out_traj])
        t2 = time.perf_counter()
        tally.add("train_cmd_s", t1 - t0)
        tally.add("backtest_cmd_s", t2 - t1)
        tally.add("train_steps_per_s", self.steps / (t1 - t0))

        with open(log_path, newline="") as fh:
            bad = check_log_rows(list(csv.DictReader(fh)), n_updates)
        checkpoints = [os.path.join(self.run_dir, f"checkpoint_{k:05d}.json")
                       for k in range(1, n_updates + 1)]
        tally.op(bad == 0 and all(os.path.exists(c) for c in checkpoints),
                 f"mctg train: {bad} of {n_updates} log rows missing or non-finite, "
                 "or a per-update checkpoint is missing")

        with open(self.out_equity, newline="") as fh:
            equity = list(csv.DictReader(fh))
        with open(self.out_traj, newline="") as fh:
            n_days = sum(1 for _ in csv.DictReader(fh))
        tally.add("backtest_days_per_s", n_days / (t2 - t1))
        with open(self.out_metrics, "rb") as fh:
            metrics_bytes = fh.read()
        tally.op(metrics_match_equity(equity, json.loads(metrics_bytes)["metrics"]),
                 "mctg backtest: equity not finite and positive, or metrics differ "
                 "from those recomputed from the equity CSV")
        with open(log_path, "rb") as fh:
            return _digest(fh.read(), metrics_bytes)

    def traced_extra(self, tally: Tally) -> None:
        """Nothing: a cli round already enters every layer."""


def metrics_match_equity(equity_rows, metrics: dict) -> bool:
    """Profit and tax rates recomputed from the equity CSV equal the metrics JSON
    exactly (the CLI writes floats with ``repr``). The first row is the opening
    mark, before any trade, so its tax is not part of the sum."""
    values = [float(row["value"]) for row in equity_rows]
    if not check_equity(values):
        return False
    annualized, cumulative = evalcli.profit_rate(values)
    tax = evalcli.tax_rate([float(row["tax_paid"]) for row in equity_rows[1:]],
                           EnvConfig().initial_cash, len(values))
    return (annualized == metrics["profit_rate_annualized"]
            and cumulative == metrics["profit_rate_cumulative"]
            and tax == metrics["tax_rate_annualized"])


WORKLOADS = {
    "train_mctg": lambda seed, workdir, sizes: TrainWorkload("MCTG", False, seed,
                                                             workdir, sizes),
    "train_dnn_random_start": lambda seed, workdir, sizes: TrainWorkload("DNN", True, seed,
                                                                         workdir, sizes),
    "cli_roundtrip": CliWorkload,
}

import csv
import dataclasses
import datetime as dt
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mctg import cli, evalcli, garch
from mctg.env import EnvConfig, EnvError, TradingEnv, buy_and_hold
from mctg.evalcli import (EvalError, SplitConfig, backtest,
                          load_checkpoint, load_config, profit_rate, report,
                          save_checkpoint, tax_rate)
from mctg.garch import GarchConfig, rolling_forecast
from mctg.marketdata import (MID_DAYS, BarSeries, MarketGenParams, ObservationNormalizer,
                             load_bars, resample, save_bars, simulate_market)
from mctg.nn import AdamState
from mctg.policy import Policy, PolicyConfig
from mctg.ppo import PpoConfig

from helpers import bar_dates, tiny_policy_config

README = Path(__file__).resolve().parents[1] / "README.md"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CONFIG_TEXT = """\
# test configuration
garch.window = 120
garch.refit_every = 30
ppo.rollout = 64
ppo.minibatches = 2
ppo.epochs_per_update = 1
env.random_start = true
"""


def small_variant_policy(variant, seed):
    return Policy(tiny_policy_config(variant), np.random.default_rng(seed))


def inert_policy(variant="DNN", seed=0):
    """A policy whose action mean is identically zero (never trades)."""
    policy = small_variant_policy(variant, seed)
    params = dict(policy.named_parameters())
    params["policy_trunk.dense1.weights"][...] = 0.0
    params["policy_trunk.dense1.bias"][...] = 0.0
    return policy


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, small_five_min):
    """Data CSV, config file, and one trained DNN checkpoint for CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "bars.csv"
    save_bars(small_five_min, str(data))
    config = root / "config.txt"
    config.write_text(CONFIG_TEXT)
    out_dir = root / "run_dnn"
    rc = cli.main(["train", "--data", str(data), "--variant", "DNN",
                   "--config", str(config), "--seed", "3",
                   "--total-steps", "128", "--out-dir", str(out_dir)])
    assert rc == 0
    return {"root": root, "data": data, "config": config,
            "checkpoint": out_dir / "checkpoint.json", "out_dir": out_dir}


class TestProfitRate:
    def test_ten_percent_over_two_years(self):
        curve = np.linspace(1.0, 1.21, 504)
        annualized, cumulative = profit_rate(curve)
        assert annualized == pytest.approx(0.10, abs=1e-12)
        assert cumulative == pytest.approx(0.21, abs=1e-12)

    def test_flat_curve_is_zero(self):
        annualized, cumulative = profit_rate(np.full(100, 5.0))
        assert annualized == 0.0 and cumulative == 0.0

    def test_one_year_identity(self):
        annualized, cumulative = profit_rate(np.linspace(1.0, 1.3, 252))
        assert annualized == pytest.approx(cumulative, abs=1e-12)

    def test_invalid_curves(self):
        with pytest.raises(EvalError):
            profit_rate([1.0])
        with pytest.raises(EvalError):
            profit_rate([1.0, -1.0])


class TestTaxRate:
    def test_hand_case(self):
        assert tax_rate([2000.0], 1_000_000.0, 252) == pytest.approx(0.002)

    def test_linearity(self):
        base = tax_rate([100.0, 50.0], 1e6, 126)
        assert tax_rate([200.0, 100.0], 1e6, 126) == pytest.approx(2 * base)

    def test_no_trades_means_zero(self):
        assert tax_rate([], 1e6, 30) == 0.0

    def test_bad_horizon(self):
        with pytest.raises(EvalError):
            tax_rate([1.0], 1e6, 0)


class TestBacktest:
    def test_inert_policy_never_trades(self, small_dataset, small_normalizer):
        metrics, equity, trajectory = backtest(
            inert_policy(), small_dataset, EnvConfig(), small_normalizer)
        assert metrics.n_trades == 0
        assert metrics.tax_rate_annualized == 0.0
        assert metrics.final_value == pytest.approx(1_000_000.0)
        assert all(row["shares"] == 0 for row in equity)
        assert len(equity) == small_dataset.n_days
        assert len(trajectory) == small_dataset.n_days - 1

    def test_buy_and_hold_column(self, small_dataset, small_normalizer):
        _, equity, _ = backtest(inert_policy(), small_dataset, EnvConfig(),
                                small_normalizer)
        curve = buy_and_hold(small_dataset, EnvConfig())
        assert [row["bh_value"] for row in equity] == curve.tolist()

    def test_deterministic_action_clip_matches_np_clip(self, small_dataset,
                                                       small_normalizer, monkeypatch):
        means = [-1.5, -1.0, -0.0, 0.3, 1.0, 1.5, np.nextafter(1.0, 2.0), -np.inf]
        policy = inert_policy()
        forward = policy.forward
        calls = iter(range(len(means) + 1))

        def scripted_forward(flat, rng=None, tape=True):
            out, cache = forward(flat, rng, tape)
            k = next(calls)
            out.action_mean = np.array([means[k] if k < len(means) else np.nan])
            return out, cache

        monkeypatch.setattr(policy, "forward", scripted_forward)
        stepped = []
        step = TradingEnv.step
        monkeypatch.setattr(TradingEnv, "step",
                            lambda env, a: stepped.append(a) or step(env, a))
        # the NaN mean after the scripted ones still reaches env.step, which rejects it
        with pytest.raises(EnvError, match="outside"):
            backtest(policy, small_dataset, EnvConfig(), small_normalizer)
        want = [float(np.clip(m, -1.0, 1.0)) for m in means]
        assert [np.float64(a).tobytes() for a in stepped[:-1]] \
            == [np.float64(a).tobytes() for a in want]
        assert all(type(a) is float for a in stepped)
        assert len(stepped) == len(means) + 1 and np.isnan(stepped[-1])

    def test_requires_fitted_normalizer(self, small_dataset):
        with pytest.raises(EvalError, match="fitted"):
            backtest(inert_policy(), small_dataset, EnvConfig(),
                     ObservationNormalizer())

    def test_trading_policy_accounting_consistent(self, small_dataset,
                                                  small_normalizer):
        metrics, equity, trajectory = backtest(
            small_variant_policy("MCTG", 7), small_dataset, EnvConfig(),
            small_normalizer)
        values = [row["value"] for row in equity]
        annualized, cumulative = profit_rate(values)
        assert metrics.profit_rate_annualized == annualized
        assert metrics.profit_rate_cumulative == cumulative
        taxes = [row["tax_paid"] for row in trajectory]
        assert metrics.tax_rate_annualized == tax_rate(taxes, 1e6, len(values))
        assert metrics.n_trades == sum(r["order_shares"] != 0 for r in trajectory)


    @pytest.mark.parametrize("variant", list(evalcli.VARIANTS))
    def test_a_dataset_of_the_policy_kinds_backtests_like_the_full_one(
            self, variant, small_dataset, small_normalizer):
        policy = small_variant_policy(variant, 8)
        cut = dataclasses.replace(small_dataset, windows={
            kind: small_dataset.windows[kind] for kind in policy.input_dims})
        full = backtest(policy, small_dataset, EnvConfig(), small_normalizer)
        assert backtest(policy, cut, EnvConfig(), small_normalizer) == full
        # the reference: the env over every kind, stepped by the acting forward
        env = TradingEnv(small_dataset, EnvConfig(), small_normalizer)
        p = env.reset()
        actions = []
        while not env.done:
            flat = policy.flatten_observation(env.observation(p.day_index))
            out, _ = policy.forward(flat)
            actions.append(min(max(float(out.action_mean[0]), -1.0), 1.0))
            env.step(actions[-1])
        assert [row["action"] for row in full[2]] == actions
        assert full[1][-1]["value"] == p.value(float(small_dataset.opens[-1]))


class TestNoLookAhead:
    """Rewriting every 5-minute bar after trading day ``t`` leaves what the
    pipeline makes of days up to ``t`` as it was, bit for bit."""

    @pytest.fixture(scope="class")
    def market(self):
        gen = MarketGenParams(drift=0.004, alpha0=2.5e-6, alpha1=0.05, beta1=0.90,
                              regime_length=50)
        five_min = simulate_market(gen, 400, seed=2024)
        return five_min, evalcli.build_dataset(five_min, 120, 30)

    @staticmethod
    def replay(dataset, t):
        """Normalizer statistics fit on days ``0..t`` and the backtest's
        actions, in decision-day order."""
        normalizer = ObservationNormalizer().fit(dataset, range(t + 1))
        _, _, trajectory = backtest(small_variant_policy("MCTG", 7), dataset, EnvConfig(),
                                    normalizer)
        return normalizer, [row["action"] for row in trajectory]

    @pytest.mark.parametrize("t", [0, 85, 127, 253])
    def test_days_up_to_cut_ignore_later_bars(self, market, t):
        five_min, dataset = market
        later = np.array([d > dataset.trading_days[t] for d in bar_dates(five_min)])
        values = five_min.values.copy()
        values[later, :4] *= 1.37
        values[later, 4:] *= 2.0
        changed = evalcli.build_dataset(BarSeries(five_min.timestamps, values), 120, 30)

        assert changed.trading_days == dataset.trading_days
        for kind, windows in dataset.windows.items():
            assert np.array_equal(changed.windows[kind][:t + 1], windows[:t + 1]), kind
            assert not np.array_equal(changed.windows[kind], windows), kind
        assert np.array_equal(changed.opens[:t + 1], dataset.opens[:t + 1])
        norm, actions = self.replay(dataset, t)
        changed_norm, changed_actions = self.replay(changed, t)
        for kind in norm.mean_:
            assert np.array_equal(changed_norm.mean_[kind], norm.mean_[kind]), kind
            assert np.array_equal(changed_norm.std_[kind], norm.std_[kind]), kind
        assert np.array_equal(changed_actions[:t + 1], actions[:t + 1])


class TestCheckpoint:
    def roundtrip(self, tmp_path, policy, variant="DNN"):
        norm = ObservationNormalizer.from_dict({
            kind: {"mean": [0.0] * width, "std": [1.0] * width}
            for kind, width in (("short", 6), ("mid", 7), ("long", 6))
        })
        path = tmp_path / "ckpt.json"
        adam = AdamState(policy.parameters(), 1e-3)
        rng = np.random.default_rng(5)
        save_checkpoint(str(path), variant, policy, norm, adam,
                        training_step=42, rng=rng, metadata={"seed": 5})
        return path, load_checkpoint(str(path))

    def test_bitwise_parameter_roundtrip(self, tmp_path):
        policy = small_variant_policy("DNN", 4)
        path, ckpt = self.roundtrip(tmp_path, policy)
        rebuilt = ckpt.build_policy()
        for a, b in zip(policy.parameters(), rebuilt.parameters()):
            assert np.array_equal(a, b)
        assert ckpt.variant == "DNN"
        assert ckpt.training_step == 42
        assert ckpt.metadata == {"seed": 5}
        assert json.loads(path.read_text())["rng_state"] is not None

    def test_nondefault_policy_config_roundtrip(self, tmp_path):
        cfg = PolicyConfig(branches=("long", "short"), garch_feature=False,
                           branch_hidden=(5, 3), branch_out=2, dropout=0.1,
                           trunk_hidden=7, init_log_std=-1.0, log_std_min=-3.0,
                           log_std_max=0.5)
        path, ckpt = self.roundtrip(tmp_path, Policy(cfg, np.random.default_rng(1)))
        assert ckpt.policy_config == cfg
        # the format_version 1 layout: every field, in field order, tuples as lists
        assert list(json.loads(path.read_text())["policy_config"].items()) == [
            ("branches", ["long", "short"]), ("garch_feature", False),
            ("branch_hidden", [5, 3]), ("branch_out", 2), ("dropout", 0.1),
            ("trunk_hidden", 7), ("init_log_std", -1.0), ("log_std_min", -3.0),
            ("log_std_max", 0.5)]

    def test_version_bump_names_both_versions(self, tmp_path):
        policy = small_variant_policy("DNN", 4)
        path, _ = self.roundtrip(tmp_path, policy)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match=r"version 2.*version 1"):
            load_checkpoint(str(path))

    def test_truncated_file_is_a_clean_error(self, tmp_path):
        policy = small_variant_policy("DNN", 4)
        path, _ = self.roundtrip(tmp_path, policy)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(EvalError, match="corrupt"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("field", ["variant", "policy_config", "params",
                                       "training_step", "norm_stats"])
    def test_missing_field_is_named(self, tmp_path, field):
        path, _ = self.roundtrip(tmp_path, small_variant_policy("DNN", 4))
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match=f"lacks field '{field}'"):
            load_checkpoint(str(path))

    def test_missing_policy_config_field_is_named(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, small_variant_policy("DNN", 4))
        doc = json.loads(path.read_text())
        del doc["policy_config"]["trunk_hidden"]
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match="lacks field 'trunk_hidden'"):
            load_checkpoint(str(path))

    def test_metadata_is_optional(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, small_variant_policy("DNN", 4))
        doc = json.loads(path.read_text())
        del doc["metadata"]
        path.write_text(json.dumps(doc))
        assert load_checkpoint(str(path)).metadata == {}

    def test_missing_parameter_detected(self, tmp_path):
        policy = small_variant_policy("DNN", 4)
        path, _ = self.roundtrip(tmp_path, policy)
        doc = json.loads(path.read_text())
        del doc["params"]["log_std"]
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match="missing parameter 'log_std'"):
            load_checkpoint(str(path)).build_policy()

    def test_unknown_parameter_detected(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, small_variant_policy("DNN", 4))
        doc = json.loads(path.read_text())
        doc["params"]["branch.short.dense0.weights"] = [[0.0]]
        doc["params"]["bogus"] = 0.0
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match="unknown parameter 'branch.short.dense0.weights'"):
            load_checkpoint(str(path)).build_policy()

    def test_mis_shaped_parameter_named(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, small_variant_policy("DNN", 4))
        doc = json.loads(path.read_text())
        doc["params"]["branch.mid.dense0.bias"].append(0.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match=re.escape(
                "parameter 'branch.mid.dense0.bias' has shape (5,), expected (4,)")):
            load_checkpoint(str(path)).build_policy()

    def test_boolean_format_version_rejected(self, tmp_path):
        path, _ = self.roundtrip(tmp_path, small_variant_policy("DNN", 4))
        doc = json.loads(path.read_text())
        doc["format_version"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(EvalError, match="'format_version' is not a JSON integer"):
            load_checkpoint(str(path))


class TestReport:
    def doc(self, variant, pr, tr):
        return {"variant": variant,
                "metrics": {"profit_rate_annualized": pr,
                            "tax_rate_annualized": tr}}

    def test_four_variant_table_in_canonical_order(self):
        docs = [self.doc("MCTG", 0.4, 0.04), self.doc("DNN", 0.1, 0.01),
                self.doc("MCT", 0.3, 0.03), self.doc("DNN-GARCH", 0.2, 0.02)]
        rows = report(docs)
        assert [r["variant"] for r in rows] == ["DNN", "DNN-GARCH", "MCT", "MCTG"]
        assert rows[0] == {"variant": "DNN", "PR": 0.1, "TR": 0.01}

    def test_duplicates_average(self):
        rows = report([self.doc("MCT", 0.2, 0.02), self.doc("MCT", 0.4, 0.06)])
        assert rows == [{"variant": "MCT", "PR": pytest.approx(0.3),
                         "TR": pytest.approx(0.04)}]

    @pytest.mark.parametrize("path", [("variant",), ("metrics",),
                                      ("metrics", "profit_rate_annualized"),
                                      ("metrics", "tax_rate_annualized")])
    def test_missing_field_is_named(self, path):
        doc = self.doc("MCT", 0.2, 0.02)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        with pytest.raises(EvalError, match=f"document 2.*lacks field '{path[-1]}'"):
            report([self.doc("DNN", 0.1, 0.01), doc])


class TestConfigFile:
    def test_parse_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a.b = 1  # trailing\n\n# full line\n c.d=x y \n")
        assert load_config(str(p)) == {"a.b": "1", "c.d": "x y"}

    def test_missing_equals_reports_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("ok = 1\nbroken line\n")
        with pytest.raises(EvalError, match="line 2"):
            load_config(str(p))

    def test_repeated_key_names_both_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("ppo.rollout = 64\n# comment\nenv.random_start = true\n"
                     " ppo.rollout=128\n")
        with pytest.raises(EvalError, match=r"line 4: key 'ppo.rollout' is already set "
                                            r"on line 1"):
            load_config(str(p))

    def test_config_get_casts(self):
        cfg = {"k.int": "7", "k.bool": "true", "k.bad": "x"}
        assert evalcli.config_get(cfg, "k.int", int) == 7
        assert evalcli.config_get(cfg, "k.bool", bool) is True
        with pytest.raises(EvalError, match="k.bad"):
            evalcli.config_get(cfg, "k.bad", int)


# (key, raw value, value its setting must hold): every accepted key at least
# once, plus the special casts.
CONFIG_CASES = [
    ("market.drift", "0.001", 0.001),
    ("market.alpha0", "3e-6", 3e-6),
    ("market.alpha1", "0.04", 0.04),
    ("market.beta1", "0.85", 0.85),
    ("market.intraday_noise", "0.2", 0.2),
    ("market.start_price", "12", 12.0),
    ("market.base_volume", "2e5", 2e5),
    ("market.regime_length", "50", 50),
    ("market.regime_length", "0", None),
    ("market.regime_length", "-3", None),
    ("market.start_date", "2016-03-07", dt.date(2016, 3, 7)),
    ("ppo.learning_rate", "1e-3", 1e-3),
    ("ppo.rollout", "32", 32),
    ("ppo.gamma", "0.9", 0.9),
    ("ppo.minibatches", "2", 2),
    ("ppo.clip_epsilon", "0.1", 0.1),
    ("ppo.gae_lambda", "0.9", 0.9),
    ("ppo.epochs_per_update", "2", 2),
    ("ppo.value_coef", "0.25", 0.25),
    ("ppo.entropy_coef", "0", 0.0),
    ("ppo.max_grad_norm", "1", 1.0),
    ("ppo.total_steps", "4096", 4096),
    ("ppo.checkpoint_every", "3", 3),
    ("env.initial_cash", "5e5", 5e5),
    ("env.tax_rate", "0.002", 0.002),
    ("env.lot_size", "10", 10),
    ("env.random_start", "true", True),
    ("env.random_start", "1", True),
    ("env.random_start", "yes", True),
    ("env.random_start", "false", False),
    ("env.random_start", "0", False),
    ("env.random_start", "no", False),
    ("garch.window", "60", 60),
    ("garch.refit_every", "10", 10),
    ("data.split_boundary", "2015-06-01", dt.date(2015, 6, 1)),
    ("data.train_fraction", "0.4", 0.4),
]


# (key, raw value, the check's message): a value each section rejects.
OUT_OF_RANGE_CASES = [
    ("env.initial_cash", "inf", "must be finite and > 0"),
    ("env.initial_cash", "nan", "must be finite and > 0"),
    ("ppo.learning_rate", "nan", "must be finite and > 0"),
    ("ppo.learning_rate", "-1", "must be finite and > 0"),
    ("ppo.gamma", "7", "must be in [0, 1]"),
    ("ppo.gae_lambda", "nan", "must be in [0, 1]"),
    ("ppo.value_coef", "-1", "must be finite and >= 0"),
    ("ppo.entropy_coef", "inf", "must be finite and >= 0"),
    ("ppo.max_grad_norm", "-1", "must be finite and > 0"),
    ("ppo.max_grad_norm", "0", "must be finite and > 0"),
    ("ppo.rollout", "0", "must be >= 1"),
    ("ppo.rollout", "-4", "must be >= 1"),
    ("ppo.minibatches", "0", "must be >= 1"),
    ("ppo.epochs_per_update", "0", "must be >= 1"),
    ("market.alpha1", "-0.1", "must be >= 0"),
    ("market.beta1", "-0.1", "must be >= 0"),
]


def config_setting(cfg, key):
    section, name = key.split(".")
    return getattr(evalcli.section_from_config(cfg, section), name)


class TestConfigMapping:
    def test_cases_cover_exactly_the_accepted_keys(self):
        assert len(evalcli.CONFIG_KEYS) == len(set(evalcli.CONFIG_KEYS)) == 29
        assert {key for key, _, _ in CONFIG_CASES} == set(evalcli.CONFIG_KEYS)

    def test_keys_are_every_field_of_every_section(self):
        sections = {"market": MarketGenParams, "ppo": PpoConfig, "env": EnvConfig,
                    "garch": GarchConfig, "data": SplitConfig}
        assert set(evalcli.CONFIG_KEYS) == {f"{section}.{f.name}"
                                            for section, cls in sections.items()
                                            for f in fields(cls)}

    @pytest.mark.parametrize("key,raw,want", CONFIG_CASES)
    def test_key_lands_in_its_setting(self, key, raw, want):
        got = config_setting({key: raw}, key)
        assert got == want and type(got) is type(want)

    def test_empty_config_gives_dataclass_defaults(self):
        assert evalcli.section_from_config({}, "market") == MarketGenParams()
        assert evalcli.section_from_config({}, "ppo") == PpoConfig()
        assert evalcli.section_from_config({}, "env") == EnvConfig()
        assert evalcli.section_from_config({}, "garch") == GarchConfig()
        assert evalcli.section_from_config({}, "data") == SplitConfig()

    def test_split_boundary_wins_over_train_fraction(self, small_dataset):
        days = small_dataset.trading_days
        # the fraction picks the boundary day by index
        assert evalcli.split_boundary(small_dataset, SplitConfig(train_fraction=0.4)) == \
            days[int(small_dataset.n_days * 0.4)]
        settings = SplitConfig(split_boundary=dt.date(2015, 6, 1), train_fraction=0.4)
        assert evalcli.split_boundary(small_dataset, settings) == dt.date(2015, 6, 1)

    @pytest.mark.parametrize("key", ["ppo.learning_rat", "env.start", "env.end",
                                     "env.min_episode_steps", "garch.alpha1", "seed"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(EvalError, match=re.escape(key)):
            evalcli.check_config_keys({key: "1"})

    @pytest.mark.parametrize("key,raw,what", OUT_OF_RANGE_CASES,
                             ids=[f"{key}={raw}" for key, raw, _ in OUT_OF_RANGE_CASES])
    def test_out_of_range_value_is_reported_with_its_key(self, key, raw, what):
        with pytest.raises(EvalError, match=re.escape(f"config {key} {what}")):
            config_setting({key: raw}, key)

    def test_out_of_range_value_fails_train_cleanly(self, tmp_path, capsys):
        config = tmp_path / "inf.cfg"
        config.write_text("env.initial_cash = inf\n")
        rc = cli.main(["train", "--variant", "DNN", "--data", str(tmp_path / "bars.csv"),
                       "--config", str(config), "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: config env.initial_cash must be finite and > 0")

    @pytest.mark.parametrize("line,what", [
        ("market.drift = nan", "drift must be finite"),
        ("market.start_price = inf", "start_price must be finite"),
        ("market.alpha0 = nan", "alpha0 must be finite"),
        ("market.intraday_noise = nan", "intraday_noise must be finite"),
        ("market.beta1 = nan", "beta1 must be finite"),
        ("market.base_volume = -5", "base_volume must be >= 0"),
    ], ids=["drift", "start_price", "alpha0", "intraday_noise", "beta1", "base_volume"])
    def test_bad_market_value_fails_generate_data_with_its_key(self, tmp_path, capsys,
                                                               line, what):
        config = tmp_path / "market.cfg"
        config.write_text(line + "\n")
        rc = cli.main(["generate-data", "--out", str(tmp_path / "bars.csv"),
                       "--days", "6", "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: config market.{what}")
        assert not (tmp_path / "bars.csv").exists()

    @pytest.mark.parametrize("lines,day,settings", [
        (["market.drift = 200"], "2015-01-08", "drift=200.0, alpha0=2.5e-06"),
        (["market.drift = -200"], "2015-01-08", "drift=-200.0, alpha0=2.5e-06"),
        (["market.alpha0 = 1e300", "market.alpha1 = 0", "market.beta1 = 0"],
         "2015-01-05", "drift=0.0005, alpha0=1e+300"),
    ], ids=["drift_up", "drift_down", "alpha0"])
    def test_extreme_market_fails_generate_data_naming_the_day(self, tmp_path, capsys,
                                                               lines, day, settings):
        config = tmp_path / "market.cfg"
        config.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["generate-data", "--out", str(tmp_path / "bars.csv"),
                           "--days", "6", "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: generated bars leave the float range on {day}; "
            f"the path is driven by {settings}, start_price=10.0\n")
        assert not (tmp_path / "bars.csv").exists()

    def test_huge_base_volume_fails_generate_data_naming_it(self, tmp_path, capsys):
        config = tmp_path / "market.cfg"
        config.write_text("market.base_volume = 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["generate-data", "--out", str(tmp_path / "bars.csv"),
                           "--days", "6", "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: generated bars leave the float range on 2015-01-05; "
            "the volume and amount scale with base_volume=1e+308\n")
        assert not (tmp_path / "bars.csv").exists()

    def test_overflowing_amount_fails_generate_data_naming_the_price_path(
            self, tmp_path, capsys):
        # prices near 1e304 stay finite, the volume too; their product does not
        config = tmp_path / "market.cfg"
        config.write_text("market.start_price = 1e300\nmarket.drift = 5.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["generate-data", "--out", str(tmp_path / "bars.csv"),
                           "--days", "6", "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: generated bars leave the float range on 2015-01-06; the amount is "
            "volume times a price driven by drift=5.0 from start_price=1e+300\n")
        assert not (tmp_path / "bars.csv").exists()

    def test_overflowing_daily_volume_fails_fit_garch_naming_the_day(self, tmp_path,
                                                                     capsys):
        config = tmp_path / "market.cfg"
        config.write_text("market.base_volume = 1e306\n")
        data = tmp_path / "bars.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["generate-data", "--out", str(data), "--days", "6",
                             "--config", str(config)]) == 0
            capsys.readouterr()
            rc = cli.main(["fit-garch", "--data", str(data),
                           "--out", str(tmp_path / "daily.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: day 2015-01-05: its summed volume or amount leaves the float range\n")

    def test_start_date_near_year_9999_fails_generate_data_naming_it(self, tmp_path, capsys):
        config = tmp_path / "market.cfg"
        config.write_text("market.start_date = 9999-12-29\n")
        out = tmp_path / "bars.csv"
        rc = cli.main(["generate-data", "--out", str(out), "--days", "5",
                       "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: 5 trading days from start_date=9999-12-29 pass 9999\n")
        assert not out.exists()
        # Wednesday to Friday still fit.
        assert cli.main(["generate-data", "--out", str(out), "--days", "3",
                         "--config", str(config)]) == 0
        assert out.read_text().splitlines()[-1].startswith("9999-12-31T13:25,")

    def test_timestamp_with_utc_offset_fails_fit_garch_naming_the_line(self, tmp_path,
                                                                       capsys):
        data = tmp_path / "bars.csv"
        assert cli.main(["generate-data", "--out", str(data), "--days", "6"]) == 0
        capsys.readouterr()
        lines = data.read_text().splitlines()
        lines[5] = lines[5].replace(",", "+08:00,", 1)   # line 6, the fifth bar
        data.write_text("\n".join(lines) + "\n")
        rc = cli.main(["fit-garch", "--data", str(data), "--out", str(tmp_path / "daily.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {data}: row 6: timestamp 2015-01-05T09:50+08:00 has a UTC offset; "
            "bar times are exchange-local\n")
        assert not (tmp_path / "daily.csv").exists()

    def test_unknown_key_fails_the_command(self, tmp_path, capsys):
        config = tmp_path / "typo.cfg"
        config.write_text("ppo.learning_rat = 1\n")
        rc = cli.main(["generate-data", "--out", str(tmp_path / "bars.csv"),
                       "--days", "6", "--config", str(config)])
        assert rc == 1
        assert "ppo.learning_rat" in capsys.readouterr().err
        assert not (tmp_path / "bars.csv").exists()

    def test_readme_lists_exactly_the_accepted_keys(self):
        text = README.read_text()
        section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
        listed = re.findall(r"`([a-z]+\.[a-z0-9_]+)`", section)
        assert sorted(listed) == sorted(evalcli.CONFIG_KEYS)

    def test_readme_walkthrough_commands_parse(self):
        block = README.read_text().split("## CLI walkthrough", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("mctg ")]
        parser = cli.build_parser()
        for argv in commands:
            parser.parse_args(argv)
        assert {argv[0] for argv in commands} == \
            {"generate-data", "fit-garch", "train", "backtest", "report"}


class TestCli:
    def test_generate_data_writes_expected_rows(self, tmp_path):
        out = tmp_path / "bars.csv"
        rc = cli.main(["generate-data", "--out", str(out), "--days", "6",
                       "--seed", "1"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6 * 48 + 1

    def test_fit_garch_emits_sigma_column(self, tmp_path, cli_workspace):
        out = tmp_path / "daily.csv"
        rc = cli.main(["fit-garch", "--data", str(cli_workspace["data"]),
                       "--out", str(out), "--config", str(cli_workspace["config"])])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        five_min = load_bars(str(cli_workspace["data"]))
        daily, _ = resample(five_min)
        assert [r["timestamp"] for r in rows] == [d.isoformat() for d in bar_dates(daily)]
        sigma = np.array([float(r["sigma"]) for r in rows])
        assert np.all(sigma > 0)
        # The config's garch.window = 120 and garch.refit_every = 30 give the
        # volatility that train and backtest build: each mid window's last
        # column is the sigma of the daily rows it holds.
        dataset = evalcli.build_dataset(five_min, 120, 30)
        dates = bar_dates(daily)
        for day, window in zip(dataset.trading_days, dataset.windows["mid"]):
            i = dates.index(day)
            assert np.array_equal(window[:, 6], sigma[i + 1 - MID_DAYS:i + 1])
        assert np.array_equal(sigma, rolling_forecast(daily.values[:, 3], 120, 30))

    def test_fit_garch_reports_boundary_fits(self, tmp_path, cli_workspace, capsys):
        rc = cli.main(["fit-garch", "--data", str(cli_workspace["data"]),
                       "--out", str(tmp_path / "daily.csv"),
                       "--config", str(cli_workspace["config"])])
        assert rc == 0
        daily, _ = resample(load_bars(str(cli_workspace["data"])))
        reports = []
        rolling_forecast(daily.values[:, 3], 120, 30, on_fit=reports.append)
        k = sum(r.at_boundary for r in reports)
        assert f"{k} of {len(reports)} GARCH refits at a constraint boundary\n" \
            in capsys.readouterr().out

    def test_fit_garch_reports_unconverged_fits(self, tmp_path, cli_workspace, capsys,
                                                monkeypatch):
        # Two BFGS iterations are too few for any of the refits to converge.
        monkeypatch.setattr(garch, "MAX_ITERATIONS", 2)
        rc = cli.main(["fit-garch", "--data", str(cli_workspace["data"]),
                       "--out", str(tmp_path / "daily.csv"),
                       "--config", str(cli_workspace["config"])])
        assert rc == 0
        daily, _ = resample(load_bars(str(cli_workspace["data"])))
        reports = []
        rolling_forecast(daily.values[:, 3], 120, 30, on_fit=reports.append)
        assert reports and not any(r.converged for r in reports)
        n = len(reports)
        assert f"{n} of {n} GARCH refits did not converge\n" in capsys.readouterr().out
        assert evalcli.garch_fit_health(reports)["garch_unconverged_fits"] == n

    def test_train_records_garch_fit_health(self, cli_workspace):
        daily, _ = resample(load_bars(str(cli_workspace["data"])))
        reports = []
        rolling_forecast(daily.values[:, 3], 120, 30, on_fit=reports.append)
        meta = load_checkpoint(str(cli_workspace["checkpoint"])).metadata
        assert meta["garch_fits"] == len(reports) > 0
        assert meta["garch_boundary_fits"] == sum(r.at_boundary for r in reports)
        assert meta["garch_unconverged_fits"] == sum(not r.converged for r in reports)
        assert evalcli.garch_fit_health(reports) == {
            "garch_fits": meta["garch_fits"],
            "garch_boundary_fits": meta["garch_boundary_fits"],
            "garch_unconverged_fits": meta["garch_unconverged_fits"]}

    def test_train_outputs(self, cli_workspace):
        out_dir = cli_workspace["out_dir"]
        assert (out_dir / "log.csv").exists()
        ckpt = load_checkpoint(str(cli_workspace["checkpoint"]))
        assert ckpt.variant == "DNN"
        assert ckpt.training_step == 128
        assert ckpt.metadata["seed"] == 3
        with open(out_dir / "log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["update"] for r in rows] == ["1", "2"]

    def test_default_run_writes_only_the_final_checkpoint(self, cli_workspace):
        # ppo.checkpoint_every defaults to 0: no per-update checkpoint_0NNNN.json
        names = sorted(p.name for p in cli_workspace["out_dir"].glob("checkpoint*.json"))
        assert names == ["checkpoint.json"]

    def test_training_step_counts_whole_rollouts(self, cli_workspace, tmp_path,
                                                  capsys):
        # the config's rollout is 64, so 130 requested steps run as 2 x 64
        out_dir = tmp_path / "partial"
        rc = cli.main(["train", "--data", str(cli_workspace["data"]),
                       "--variant", "DNN", "--config", str(cli_workspace["config"]),
                       "--seed", "3", "--total-steps", "130",
                       "--out-dir", str(out_dir)])
        assert rc == 0
        assert load_checkpoint(str(out_dir / "checkpoint.json")).training_step == 128
        assert "for 128 steps" in capsys.readouterr().out

    def test_total_steps_flag_wins_over_the_config_and_is_named(self, cli_workspace,
                                                                 tmp_path, capsys):
        config = tmp_path / "steps.cfg"
        config.write_text(CONFIG_TEXT + "ppo.total_steps = 4096\n")

        def train(steps):
            return cli.main(["train", "--data", str(cli_workspace["data"]),
                             "--variant", "DNN", "--config", str(config), "--seed", "3",
                             "--total-steps", steps, "--out-dir", str(tmp_path / steps)])

        assert train("64") == 0
        assert "for 64 steps" in capsys.readouterr().out
        assert train("10") == 1
        assert capsys.readouterr().err == \
            "error: --total-steps 10: total_steps must cover at least one rollout\n"

    def test_train_is_seed_deterministic(self, cli_workspace, tmp_path):
        out_dir = tmp_path / "rerun"
        rc = cli.main(["train", "--data", str(cli_workspace["data"]),
                       "--variant", "DNN", "--config", str(cli_workspace["config"]),
                       "--seed", "3", "--total-steps", "128",
                       "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "log.csv").read_bytes() == \
            (cli_workspace["out_dir"] / "log.csv").read_bytes()

    def test_train_bits_do_not_depend_on_blas_threads(self, cli_workspace, tmp_path):
        # MCTG's mid-branch weight gradient on a 256-row minibatch is a
        # (32, 256) x (256, 210) product, which OpenBLAS splits by thread count
        config = tmp_path / "mctg.cfg"
        config.write_text("garch.window = 120\ngarch.refit_every = 30\n")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        digests = {}
        for threads in (None, "1", "2"):
            out_dir = tmp_path / f"threads_{threads}"
            run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "mctg.cli", "train",
                            "--data", str(cli_workspace["data"]), "--variant", "MCTG",
                            "--config", str(config), "--seed", "1",
                            "--total-steps", "3072", "--out-dir", str(out_dir)],
                           env=run_env, capture_output=True, check=True, timeout=300)
            digests[threads] = [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                                for name in ("log.csv", "checkpoint.json")]
        assert digests[None] == digests["1"] == digests["2"]

    def test_backtest_end_to_end_metrics_recompute(self, cli_workspace, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        equity_path = tmp_path / "equity.csv"
        traj_path = tmp_path / "traj.csv"
        rc = cli.main(["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                       "--data", str(cli_workspace["data"]), "--segment", "test",
                       "--config", str(cli_workspace["config"]),
                       "--out-metrics", str(metrics_path),
                       "--out-equity", str(equity_path),
                       "--out-trajectory", str(traj_path)])
        assert rc == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["variant"] == "DNN" and doc["segment"] == "test"

        with open(equity_path) as fh:
            equity = list(csv.DictReader(fh))
        values = [float(r["value"]) for r in equity]
        annualized, cumulative = profit_rate(values)
        assert doc["metrics"]["profit_rate_annualized"] == annualized
        assert doc["metrics"]["profit_rate_cumulative"] == cumulative
        taxes = [float(r["tax_paid"]) for r in equity]
        assert doc["metrics"]["tax_rate_annualized"] == \
            tax_rate(taxes, 1e6, len(values))

        bh_annualized, _ = profit_rate([float(r["bh_value"]) for r in equity])
        assert doc["buy_and_hold"]["profit_rate_annualized"] == bh_annualized

        with open(traj_path) as fh:
            traj = list(csv.DictReader(fh))
        assert len(traj) == len(equity) - 1
        assert doc["metrics"]["n_trades"] == \
            sum(int(r["order_shares"]) != 0 for r in traj)

    @pytest.mark.parametrize("line,want", [
        ("garch.window = 100", ["garch.window", "100", "120"]),
        ("garch.refit_every = 31", ["garch.refit_every", "31", "30"]),
        ("data.split_boundary = 2015-06-01",
         ["data.split_boundary", "2015-06-01", "{boundary}"]),
        ("data.train_fraction = 0.5", ["data.train_fraction", "{boundary}"]),
    ], ids=["garch.window", "garch.refit_every", "data.split_boundary",
            "data.train_fraction"])
    def test_backtest_rejects_config_that_conflicts_with_checkpoint(
            self, cli_workspace, tmp_path, capsys, line, want):
        boundary = load_checkpoint(str(cli_workspace["checkpoint"])).metadata["split_boundary"]
        config = tmp_path / "conflict.cfg"
        # the conflicting line replaces the training config's line for its key
        key = line.split("=")[0].strip()
        kept = [kept_line for kept_line in CONFIG_TEXT.splitlines()
                if kept_line.split("=")[0].strip() != key]
        config.write_text("\n".join(kept + [line]) + "\n")
        rc = cli.main(["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                       "--data", str(cli_workspace["data"]), "--config", str(config),
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        for text in want:
            assert text.format(boundary=boundary) in err
        assert not (tmp_path / "m.json").exists()

    def test_backtest_accepts_config_equal_to_checkpoint(self, cli_workspace,
                                                         tmp_path):
        boundary = load_checkpoint(str(cli_workspace["checkpoint"])).metadata["split_boundary"]
        config = tmp_path / "same.cfg"
        config.write_text(CONFIG_TEXT + f"data.split_boundary = {boundary}\n"
                          "data.train_fraction = 0.8\n")
        rc = cli.main(["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                       "--data", str(cli_workspace["data"]), "--config", str(config),
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 0

    def test_backtest_variant_mismatch_exits_one(self, cli_workspace, tmp_path,
                                                 capsys):
        rc = cli.main(["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                       "--data", str(cli_workspace["data"]), "--variant", "MCTG",
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "DNN" in err and "MCTG" in err

    def test_backtest_variant_mismatch_names_the_inputs(self, cli_workspace, tmp_path,
                                                        capsys):
        # DNN and DNN-GARCH share a state dimension; their mid inputs differ
        rc = cli.main(["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                       "--data", str(cli_workspace["data"]), "--variant", "DNN-GARCH",
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: checkpoint was trained as DNN (inputs mid 180); requested variant "
            "DNN-GARCH has inputs mid 210\n")

    @pytest.mark.parametrize("variant", ["mctg", "MCTG-X", ""])
    def test_backtest_unknown_variant_is_usage_error(self, cli_workspace, tmp_path,
                                                     capsys, variant):
        rc = cli.main(["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                       "--data", str(cli_workspace["data"]), "--variant", variant,
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_report_cli(self, cli_workspace, tmp_path):
        docs = []
        for i, variant in enumerate(["DNN", "MCTG"]):
            p = tmp_path / f"m{i}.json"
            p.write_text(json.dumps({
                "variant": variant,
                "metrics": {"profit_rate_annualized": 0.1 * (i + 1),
                            "tax_rate_annualized": 0.01}}))
            docs.append(str(p))
        out = tmp_path / "table.csv"
        assert cli.main(["report", "--out", str(out), *docs]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["DNN", "MCTG"]
        assert float(rows[1]["PR"]) == pytest.approx(0.2)

    @staticmethod
    def run_without_reading_data(cli_workspace, tmp_path, monkeypatch, command, line):
        """Exit code of ``command`` with ``line`` added to the config, where
        reading the bar CSV fails the test."""
        def load_bars(*args, **kwargs):
            raise AssertionError("load_bars called")
        monkeypatch.setattr(cli, "load_bars", load_bars)
        config = tmp_path / "bad.cfg"
        config.write_text(CONFIG_TEXT + line + "\n")
        argv = {
            "train": ["train", "--out-dir", str(tmp_path / "run")],
            "backtest": ["backtest", "--checkpoint", str(cli_workspace["checkpoint"]),
                         "--out-metrics", str(tmp_path / "m.json"),
                         "--out-equity", str(tmp_path / "e.csv")],
            "fit-garch": ["fit-garch", "--out", str(tmp_path / "daily.csv")],
        }[command]
        return cli.main(argv + ["--data", str(cli_workspace["data"]),
                                "--config", str(config)])

    @pytest.mark.parametrize("command", ["train", "backtest"])
    @pytest.mark.parametrize("line,key", [
        ("data.split_boundary = 2015-13-01", "data.split_boundary"),
        ("data.split_boundary = soon", "data.split_boundary"),
        ("data.train_fraction = 1.5", "data.train_fraction"),
        ("data.train_fraction = 0", "data.train_fraction"),
        ("data.train_fraction = half", "data.train_fraction"),
    ])
    def test_bad_split_setting_fails_before_the_dataset_is_built(
            self, cli_workspace, tmp_path, capsys, monkeypatch, command, line, key):
        assert self.run_without_reading_data(
            cli_workspace, tmp_path, monkeypatch, command, line) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "backtest", "fit-garch"])
    @pytest.mark.parametrize("line,key", [
        ("garch.window = 10", "garch.window"),
        ("garch.window = x", "garch.window"),
        ("garch.refit_every = 0", "garch.refit_every"),
    ])
    def test_bad_garch_setting_fails_before_any_data_is_read(
            self, cli_workspace, tmp_path, capsys, monkeypatch, command, line, key):
        assert self.run_without_reading_data(
            cli_workspace, tmp_path, monkeypatch, command, line) == 1
        assert key in capsys.readouterr().err

    def test_checkpoint_missing_field_fails_backtest_cleanly(self, cli_workspace,
                                                             tmp_path, capsys):
        doc = json.loads(cli_workspace["checkpoint"].read_text())
        del doc["norm_stats"]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        rc = cli.main(["backtest", "--checkpoint", str(checkpoint),
                       "--data", str(cli_workspace["data"]),
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "lacks field 'norm_stats'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,what", [
        (lambda doc: [], "checkpoint is not a JSON object"),
        (lambda doc: {**doc, "policy_config": list(doc["policy_config"].values())},
         "'policy_config' is not a JSON object"),
        (lambda doc: {**doc, "params": list(doc["params"].values())},
         "'params' is not a JSON object"),
        (lambda doc: {**doc, "metadata": []}, "'metadata' is not a JSON object"),
        (lambda doc: {**doc, "norm_stats": []},
         "checkpoint.json: checkpoint norm_stats: normalizer statistics are not a JSON object"),
        (lambda doc: {**doc, "norm_stats": 5},
         "checkpoint.json: checkpoint norm_stats: normalizer statistics are not a JSON object"),
        (lambda doc: {**doc, "norm_stats": {**doc["norm_stats"], "mid": ["mean", "std"]}},
         "checkpoint.json: checkpoint norm_stats: normalizer mid is not a JSON object"),
        (lambda doc: {**doc, "norm_stats": {k: v for k, v in doc["norm_stats"].items()
                                            if k != "short"}},
         "checkpoint.json: checkpoint norm_stats: normalizer lacks short.mean"),
        (lambda doc: {**doc, "training_step": [1]},
         "field 'training_step' is not a JSON integer"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"], "branch_hidden": 5}},
         "policy_config 'branch_hidden' is not a JSON array"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"],
                                               "branch_hidden": ["16"]}},
         "policy_config 'branch_hidden' entry is not a JSON integer"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"], "branch_hidden": []}},
         "checkpoint policy_config 'branch_hidden' must list at least one layer width"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"], "branch_hidden": [0]}},
         "checkpoint policy_config 'branch_hidden' widths must be >= 1, got (0,)"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"], "garch_feature": 1}},
         "policy_config 'garch_feature' is not a JSON boolean"),
        (lambda doc: {**doc, "params": {**doc["params"], "log_std": {"value": 0.0}}},
         "parameter 'log_std' is not an array of finite numbers"),
        (lambda doc: {**doc, "params": {**doc["params"], "log_std": None}},
         "parameter 'log_std' is not an array of finite numbers"),
        (lambda doc: {**doc, "params": {**doc["params"], "log_std": [0.0, 0.0]}},
         "parameter 'log_std' has shape (2,), expected ()"),
        (lambda doc: {**doc, "variant": ["MCTG"]}, "field 'variant' is not a JSON string"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"], "dropout": 1.5}},
         "checkpoint.json: checkpoint policy_config 'dropout' must be in [0, 1), got 1.5"),
        (lambda doc: {**doc, "policy_config": {**doc["policy_config"], "dropout": -0.5}},
         "checkpoint.json: checkpoint policy_config 'dropout' must be in [0, 1), got -0.5"),
        (lambda doc: {**doc, "metadata": {**doc["metadata"], "split_boundary": 5}},
         "metadata 'split_boundary' is not a JSON string"),
        (lambda doc: {**doc, "metadata": {**doc["metadata"], "split_boundary": "2016-13-01"}},
         "metadata 'split_boundary': month must be in 1..12"),
        (lambda doc: {**doc, "metadata": {**doc["metadata"], "garch_window": "250"}},
         "metadata 'garch_window' is not a JSON integer"),
        (lambda doc: {**doc, "metadata": {**doc["metadata"], "garch_window": True}},
         "metadata 'garch_window' is not a JSON integer"),
        (lambda doc: {**doc, "metadata": {**doc["metadata"], "garch_refit_every": 2.5}},
         "metadata 'garch_refit_every' is not a JSON integer"),
        (lambda doc: {**doc, "metadata": {**doc["metadata"], "garch_window": None}},
         "metadata 'garch_window' is not a JSON integer"),
    ], ids=["document", "policy_config", "params", "metadata", "norm_stats",
            "norm_stats_number", "norm_stats.mid", "norm_stats_without_short",
            "training_step", "branch_hidden", "branch_hidden_entry",
            "branch_hidden_empty", "branch_hidden_zero",
            "garch_feature", "params_entry", "params_null", "params_shape", "variant",
            "dropout", "dropout_negative", "split_boundary_number",
            "split_boundary_not_a_date", "garch_window_string", "garch_window_boolean",
            "garch_refit_every_float", "garch_window_null"])
    def test_checkpoint_of_the_wrong_shape_fails_backtest_cleanly(
            self, cli_workspace, tmp_path, capsys, edit, what):
        doc = edit(json.loads(cli_workspace["checkpoint"].read_text()))
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        rc = cli.main(["backtest", "--checkpoint", str(checkpoint),
                       "--data", str(cli_workspace["data"]),
                       "--out-metrics", str(tmp_path / "m.json"),
                       "--out-equity", str(tmp_path / "e.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and what in err

    @pytest.mark.parametrize("doc,what", [
        ([1, 2], "metrics document 1 is not a JSON object"),
        ({"variant": "DNN", "metrics": [1, 2]},
         "metrics document 1 field 'metrics' is not a JSON object"),
        ({"variant": "DNN", "metrics": {"profit_rate_annualized": "0.1",
                                        "tax_rate_annualized": 0.01}},
         "metrics document 1 field 'profit_rate_annualized' is not a JSON number"),
        ({"variant": ["DNN"], "metrics": {"profit_rate_annualized": 0.1,
                                          "tax_rate_annualized": 0.01}},
         "metrics document 1 field 'variant' is not a JSON string"),
    ], ids=["document", "metrics", "profit_rate_annualized", "variant"])
    def test_report_of_the_wrong_shape_fails_cleanly(self, tmp_path, capsys, doc, what):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["report", "--out", str(tmp_path / "table.csv"), str(path)])
        assert rc == 1
        assert f"error: {what}" in capsys.readouterr().err

    def test_report_missing_variant_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"metrics": {"profit_rate_annualized": 0.1,
                                                "tax_rate_annualized": 0.01}}))
        rc = cli.main(["report", "--out", str(tmp_path / "table.csv"), str(path)])
        assert rc == 1
        assert "lacks field 'variant'" in capsys.readouterr().err

    def test_zero_ppo_loop_count_fails_cleanly(self, cli_workspace, tmp_path, capsys):
        config = tmp_path / "zero.cfg"
        config.write_text(CONFIG_TEXT + "ppo.epochs_per_update = 0\n")
        rc = cli.main(["train", "--data", str(cli_workspace["data"]),
                       "--config", str(config), "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        assert "epochs_per_update" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["backtest", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_file_is_operational_error(self, tmp_path, capsys):
        rc = cli.main(["fit-garch", "--data", str(tmp_path / "nope.csv"),
                       "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

"""Checks of the benchmark harness itself: wrapping, span counts, output checks.

They assert counts and correctness only, never timings, on workloads shrunk
to run in seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mctg
from mctg import cli, env, evalcli, garch, nn, ppo
from mctg import marketdata as md

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SMALL = workloads.Sizes(market_days=220, test_days=20, garch_window=100, garch_refit=60,
                        rollout=32, minibatches=4, train_updates=2, cli_updates=2,
                        backtest_passes=2, setup_repeats=1,
                        setup_seconds=0.0)


def _spans(tr: tracer.Tracer) -> tracer.SpanStats:
    return tracer.SpanStats(tr.spans)


def test_install_wraps_bindings_made_by_import_and_uninstall_restores():
    bindings = [(garch, "rolling_forecast"), (evalcli, "rolling_forecast"),
                (cli, "rolling_forecast"), (mctg, "rolling_forecast"),
                (md, "window_at"), (env, "window_at"), (mctg, "window_at"),
                (nn, "adam_step"), (ppo, "adam_step"), (mctg, "backtest")]
    before = [getattr(owner, name) for owner, name in bindings]
    method = md.ObservationNormalizer.fit
    with tracer.Tracer("t"):
        for (owner, name), orig in zip(bindings, before):
            assert getattr(owner, name) is not orig
            assert getattr(owner, name).__wrapped__ is orig
        assert evalcli.rolling_forecast is cli.rolling_forecast is mctg.rolling_forecast
        assert md.ObservationNormalizer.fit.__wrapped__ is method
    assert [getattr(owner, name) for owner, name in bindings] == before
    assert md.ObservationNormalizer.fit is method


def test_call_through_a_name_imported_elsewhere_records_a_child_span():
    five_min = md.simulate_market(workloads.market_params(), SMALL.market_days, 7)
    daily, weekly = md.resample(five_min)
    dataset = md.align(five_min, daily, weekly, np.ones(len(daily)))
    trading = env.TradingEnv(dataset, env.EnvConfig())
    with tracer.Tracer("t") as tr:
        trading.observation(3)
        trading.observation(3)
    stats = _spans(tr)
    assert stats.calls("env.observation") == 2
    assert stats.calls_under("marketdata.window_at", "env.observation") == 1
    assert tracer.layer_metrics(tr.spans)["env.obs_cache_hit_ratio"] == (0.5, "ratio")


def test_require_names_spans_that_never_fired():
    tr = tracer.Tracer("t")
    with pytest.raises(tracer.TraceError, match="nn.forward"):
        tr.require({"nn.forward"})


def test_self_time_excludes_children():
    spans = [(2, 1, "child", 10, 30, None), (1, 0, "parent", 0, 100, None)]
    stats = tracer.SpanStats(spans)
    assert stats.total_s("parent") == 100e-9
    assert stats.self_s("parent") == 80e-9


@pytest.mark.parametrize("name", ["train_mctg", "train_dnn_random_start"])
def test_train_workload_spans_counts_and_checks(name, tmp_path):
    s = SMALL
    workload = workloads.WORKLOADS[name](5, str(tmp_path), s)
    tally = workloads.Tally()
    with tracer.Tracer("t") as tr:
        workload.setup(tally)
        digest = workload.round(tally)
    assert workload.round(tally) == digest
    assert (tally.attempted, tally.failed, tally.problems) == (
        2 * (s.train_updates + s.backtest_passes), 0, [])
    assert len(tally.samples["train_steps_per_s"]) == 2 * s.train_updates
    with tracer.Tracer("t") as extra:
        workload.traced_extra(tally)
    extra.require(tracer.TARGETS)
    assert tally.failed == 0

    stats = _spans(tr)
    steps = s.train_updates * s.rollout
    backtest_days = (s.backtest_passes + 1) * (s.test_days - 1)
    assert stats.calls("env.step") == steps + backtest_days
    assert stats.calls("nn.adam_step") == s.train_updates * 4 * s.minibatches
    single = sum(1 for rows in stats.notes("policy.forward") if rows == 1)
    assert single == steps + s.train_updates + backtest_days
    # 219 daily returns, window 100, refit every 60: fits at days 100 and 160.
    assert stats.calls("garch.fit") == 2
    assert stats.calls("evalcli.save_checkpoint") == 1
    assert stats.calls("evalcli.load_checkpoint") == s.backtest_passes


def test_cli_workload_spans_counts_and_checks(tmp_path):
    s = SMALL
    workload = workloads.WORKLOADS["cli_roundtrip"](5, str(tmp_path), s)
    tally = workloads.Tally()
    with tracer.Tracer("t") as tr:
        workload.setup(tally)
        digest = workload.round(tally)
    tr.require(tracer.TARGETS)
    workload.setup(tally)
    assert workload.round(tally) == digest
    assert (tally.attempted, tally.failed, tally.problems) == (6, 0, [])

    stats = _spans(tr)
    for command in ("cli.generate_data", "cli.train", "cli.backtest"):
        assert stats.calls(command) == 1
    assert stats.calls("evalcli.build_dataset") == 2
    # One checkpoint per update, plus the final checkpoint.json.
    assert stats.calls("evalcli.save_checkpoint") == s.cli_updates + 1
    assert stats.calls("env.step") == s.cli_updates * s.rollout + s.test_days - 1


def test_output_checks_reject_bad_outputs():
    row = {f: 1.0 for f in workloads.LOG_FIELDS}
    assert workloads.check_log_rows([row, row], 2) == 0
    assert workloads.check_log_rows([row, dict(row, approx_kl="nan")], 2) == 1
    assert workloads.check_log_rows([row], 2) == 1
    assert workloads.check_equity([1.0, 2.0])
    assert not workloads.check_equity([1.0, 0.0])
    assert not workloads.check_equity([1.0, math.inf])

    equity = [{"value": repr(v), "tax_paid": repr(t)}
              for v, t in ((1e6, 0.0), (1.01e6, 12.5), (0.99e6, 0.0))]
    annualized, cumulative = evalcli.profit_rate([1e6, 1.01e6, 0.99e6])
    metrics = {"profit_rate_annualized": annualized, "profit_rate_cumulative": cumulative,
               "tax_rate_annualized": evalcli.tax_rate([12.5, 0.0], 1e6, 3)}
    assert workloads.metrics_match_equity(equity, metrics)
    tampered = dict(metrics, profit_rate_annualized=math.nextafter(annualized, 1.0))
    assert not workloads.metrics_match_equity(equity, tampered)


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (unit, _) in workloads.END_TO_END.items()}
    per_layer = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}
    per_layer["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer


def test_runner_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_mctg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

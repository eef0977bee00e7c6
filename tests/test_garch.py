import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mctg import garch
from mctg import marketdata as md
from mctg.garch import (ALPHA0_FLOOR, LOG2PI, FitReport, GarchError, GarchParams,
                        GarchState, filter_variances, fit, forecast_one_step,
                        log_likelihood, rolling_forecast, simulate_returns)
from conftest import TRUE_GARCH


def loop_filter_oracle(params, returns):
    """Independent re-implementation of the variance recursion."""
    out = []
    var = params.alpha0 / (1.0 - params.alpha1 - params.beta1)
    out.append(var)
    for t in range(1, len(returns)):
        a = returns[t - 1] - params.mu
        var = params.alpha0 + params.alpha1 * a * a + params.beta1 * var
        out.append(var)
    return np.array(out)


def indexed_loop_filter(params: GarchParams, returns) -> np.ndarray:
    """The variance recursion as a loop that indexes numpy arrays: the
    reference ``filter_variances`` must match bit for bit."""
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 1 or len(returns) < 1:
        raise GarchError("returns must be a non-empty 1-d series")
    resid = returns - params.mu
    var = np.empty(len(returns), dtype=np.float64)
    var[0] = params.unconditional_variance
    for t in range(1, len(returns)):
        var[t] = params.alpha0 + params.alpha1 * resid[t - 1] ** 2 + params.beta1 * var[t - 1]
    return var


def edge_params(rng, case):
    """Random parameters; every third case has beta1 within 1e-12..1e-3 of
    1 - alpha1, and every other case has alpha0 at its floor."""
    a1 = rng.uniform(0.0, 0.5)
    if case % 3 == 0:
        b1 = 1.0 - a1 - 10 ** rng.uniform(-12, -3)
    else:
        b1 = rng.uniform(0.0, 1.0 - a1) * 0.999
    a0 = ALPHA0_FLOOR if case % 2 == 0 else 10 ** rng.uniform(-11, -2)
    return GarchParams(rng.uniform(-0.01, 0.01), a0, a1, b1)


def frozen_market_returns(seed):
    """Daily close-to-close log-returns of the acceptance suite's frozen
    market (770 days, regimes of 50) under ``seed``."""
    gen = md.MarketGenParams(drift=0.004, alpha0=2.5e-6, alpha1=0.05,
                             beta1=0.90, regime_length=50)
    daily, _ = md.resample(md.simulate_market(gen, 770, seed=seed))
    return np.diff(np.log(daily.values[:, 3]))


def random_params(rng):
    a1 = rng.uniform(0.0, 0.4)
    b1 = rng.uniform(0.0, 0.95 - a1)
    return GarchParams(rng.uniform(-0.01, 0.01), 10 ** rng.uniform(-6, -2), a1, b1)


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(GarchError):
            GarchParams(0.0, 0.0, 0.1, 0.8)
        with pytest.raises(GarchError):
            GarchParams(0.0, 0.1, -0.1, 0.8)
        with pytest.raises(GarchError):
            GarchParams(0.0, 0.1, 0.5, 0.5)
        with pytest.raises(GarchError):
            GarchState(-1.0, 0.5)

    def test_unconditional_variance(self):
        p = GarchParams(0.0, 0.05, 0.10, 0.85)
        assert p.unconditional_variance == pytest.approx(1.0)


class TestFilterVariances:
    def test_arch_free_collapses_to_alpha0(self):
        p = GarchParams(0.0, 0.3, 0.0, 0.0)
        var = filter_variances(p, [0.1, -0.2, 0.3, 0.0])
        assert np.allclose(var, 0.3)

    def test_hand_recursion(self):
        p = GarchParams(0.0, 0.1, 0.2, 0.7)
        assert filter_variances(p, [0.5])[0] == pytest.approx(1.0)
        var = filter_variances(p, [0.5, 0.0])
        assert var[1] == pytest.approx(0.1 + 0.2 * 0.25 + 0.7 * 1.0)  # 0.85

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_params(rng)
            returns = rng.normal(0, 0.02, size=int(rng.integers(1, 40)))
            assert np.allclose(filter_variances(p, returns),
                               loop_filter_oracle(p, returns), rtol=0, atol=1e-12)

    def test_strictly_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_params(rng)
            returns = rng.normal(0, 0.05, size=30)
            assert np.all(filter_variances(p, returns) > 0)

    def test_empty_rejected(self):
        with pytest.raises(GarchError):
            filter_variances(GarchParams(0, 0.1, 0, 0), [])

    def test_bit_equal_to_indexed_loop(self):
        rng = np.random.default_rng(12)
        for case in range(2400):
            p = edge_params(rng, case)
            returns = rng.normal(0, 10 ** rng.uniform(-4, -1), size=int(rng.integers(1, 301)))
            var = filter_variances(p, returns)
            assert np.array_equal(var, indexed_loop_filter(p, returns)), (case, p)
            assert var.dtype == np.float64

    def test_cli_import_leaves_scipy_signal_out(self):
        # scipy.signal alone adds ~27 MB of resident memory to every command.
        code = "import sys, mctg.cli; print('scipy.signal' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(garch.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestLogLikelihood:
    def test_constant_variance_zeros(self):
        p = GarchParams(0.0, 1.0, 0.0, 0.0)
        assert log_likelihood(p, [0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi))

    def test_hand_single_point(self):
        p = GarchParams(0.0, 0.1, 0.2, 0.7)
        # sigma^2_1 = 1, residual 0.5
        expected = -0.5 * math.log(2 * math.pi) - 0.125
        assert log_likelihood(p, [0.5]) == pytest.approx(expected, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_params(rng)
            returns = rng.normal(0, 0.02, size=5)
            var = loop_filter_oracle(p, returns)
            resid = returns - p.mu
            direct = sum(-0.5 * math.log(2 * math.pi) - 0.5 * math.log(v)
                         - r * r / (2 * v) for r, v in zip(resid, var))
            assert log_likelihood(p, returns) == pytest.approx(direct, abs=1e-12)

    def test_bit_equal_on_indexed_loop_variances(self):
        rng = np.random.default_rng(13)
        for case in range(2000):
            p = edge_params(rng, case)
            returns = rng.normal(0, 10 ** rng.uniform(-4, -1), size=int(rng.integers(1, 301)))
            var = indexed_loop_filter(p, returns)
            resid = returns - p.mu
            expected = float(np.sum(-0.5 * LOG2PI - 0.5 * np.log(var) - resid ** 2 / (2.0 * var)))
            assert log_likelihood(p, returns) == expected, (case, p)

    def test_pure_function(self):
        p = GarchParams(0.001, 0.05, 0.1, 0.8)
        returns = np.random.default_rng(5).normal(0, 0.02, size=40)
        assert log_likelihood(p, returns) == log_likelihood(p, returns)


class TestFit:
    def test_too_short_refused(self):
        with pytest.raises(GarchError, match="at least 50"):
            fit(np.zeros(49))

    def test_constant_returns_do_not_crash(self):
        report = fit(np.full(100, 0.01))
        assert isinstance(report, FitReport)
        assert not report.converged or report.params.alpha0 <= 1e-10

    def test_recovery_on_10k_sample(self, garch_sample_10k, garch_fit_10k):
        p = garch_fit_10k.params
        assert abs(p.alpha1 - TRUE_GARCH.alpha1) < 0.05
        assert abs(p.beta1 - TRUE_GARCH.beta1) < 0.05
        assert abs(p.alpha0 / TRUE_GARCH.alpha0 - 1.0) < 0.5

    def test_mle_dominates_truth(self, garch_sample_10k, garch_fit_10k):
        assert garch_fit_10k.log_likelihood >= \
            log_likelihood(TRUE_GARCH, garch_sample_10k) - 1e-6

    def test_interior_fit_not_at_boundary(self, garch_fit_10k):
        assert not garch_fit_10k.at_boundary

    def test_integrated_fit_flagged_at_boundary(self):
        # The 14th refit of the frozen market's rolling forecast (seed 2024):
        # alpha0 lands on its floor and alpha1 + beta1 within 1e-7 of 1, yet
        # the optimizer reports success.
        report = fit(frozen_market_returns(2024)[260:510])
        p = report.params
        assert report.converged
        assert p.alpha1 + p.beta1 > 1.0 - 1e-6
        assert report.at_boundary

    def test_mle_dominates_coarse_grid(self, garch_sample_10k, garch_fit_10k):
        # independent coarse grid over (alpha1, beta1), alpha0 targeting the
        # sample variance and mu at the sample mean
        rs = garch_sample_10k
        mu = float(np.mean(rs))
        var = float(np.var(rs))
        best = -np.inf
        for a1 in np.linspace(0.02, 0.25, 6):
            for b1 in np.linspace(0.6, 0.95, 6):
                if a1 + b1 >= 1:
                    continue
                ll = log_likelihood(GarchParams(mu, var * (1 - a1 - b1), a1, b1), rs)
                best = max(best, ll)
        assert garch_fit_10k.log_likelihood >= best - 1e-6


class TestForecastOneStep:
    def test_zero_state(self):
        p = GarchParams(0.0, 0.04, 0.2, 0.7)
        assert forecast_one_step(p, GarchState(0.0, 0.0)) == pytest.approx(0.2)

    def test_hand_arithmetic(self):
        p = GarchParams(0.0, 0.1, 0.2, 0.7)
        sigma = forecast_one_step(p, GarchState(0.25, 1.0))
        assert sigma == pytest.approx(math.sqrt(0.85))

    def test_state_decoupled_when_coeffs_zero(self):
        p = GarchParams(0.0, 0.09, 0.0, 0.0)
        for state in (GarchState(0.0, 0.0), GarchState(5.0, 3.0)):
            assert forecast_one_step(p, state) == pytest.approx(0.3)


class TestRollingForecast:
    def test_iid_forecasts_near_true_std(self):
        rng = np.random.default_rng(6)
        true_std = 0.02
        returns = rng.normal(0, true_std, size=500)
        sigma = rolling_forecast(returns, window=250, refit_every=50)
        post = sigma[250:]
        hit = np.mean(np.abs(post / true_std - 1.0) < 0.20)
        assert hit >= 0.90

    def test_refit_counter(self):
        rng = np.random.default_rng(7)
        returns = rng.normal(0, 0.02, size=200)
        reports = []
        rolling_forecast(returns, window=100, refit_every=len(returns),
                         on_fit=reports.append)
        assert len(reports) == 1

    def test_causality(self):
        rng = np.random.default_rng(8)
        returns = rng.normal(0, 0.02, size=160)
        base = rolling_forecast(returns, window=100, refit_every=10)
        t = 130
        bumped = returns.copy()
        bumped[t] += 0.05
        alt = rolling_forecast(bumped, window=100, refit_every=10)
        assert alt[t] == base[t]
        assert not np.array_equal(alt[t + 1:], base[t + 1:])

    def test_output_length_and_positive(self):
        rng = np.random.default_rng(9)
        returns = rng.normal(0, 0.02, size=120)
        sigma = rolling_forecast(returns, window=100, refit_every=5)
        assert sigma.shape == returns.shape
        assert np.all(sigma > 0)

    @pytest.mark.parametrize("seed", [2024, 5])
    def test_frozen_market_equal_under_indexed_loop(self, seed, monkeypatch):
        returns = frozen_market_returns(seed)
        reports, oracle_reports = [], []
        sigma = rolling_forecast(returns, 250, 20, on_fit=reports.append)
        monkeypatch.setattr(garch, "filter_variances", indexed_loop_filter)
        oracle = rolling_forecast(returns, 250, 20, on_fit=oracle_reports.append)
        assert np.array_equal(sigma, oracle)
        assert len(reports) == 26
        assert reports == oracle_reports

    def test_bad_arguments(self):
        with pytest.raises(GarchError):
            rolling_forecast(np.zeros(100), window=10, refit_every=20)
        with pytest.raises(GarchError):
            rolling_forecast(np.zeros(100), window=60, refit_every=0)


class TestSimulateReturns:
    def test_deterministic(self):
        p = GarchParams(0.0, 0.05, 0.1, 0.85)
        a = simulate_returns(p, 100, np.random.default_rng(1))
        b = simulate_returns(p, 100, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_sample_variance_near_unconditional(self):
        p = GarchParams(0.0, 0.05, 0.1, 0.85)
        rs = simulate_returns(p, 20_000, np.random.default_rng(11))
        assert abs(np.var(rs) / p.unconditional_variance - 1.0) < 0.10

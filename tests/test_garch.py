import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mctg import garch
from mctg import marketdata as md
from mctg.garch import (ALPHA0_FLOOR, LOG2PI, WARMUP_FLOOR, FitReport, GarchError,
                        GarchParams, filter_variances, fit, log_likelihood,
                        rolling_forecast)
from conftest import TRUE_GARCH
from helpers import relative_error, simulate_returns


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


def frozen_market_closes(seed):
    """Daily closes of the acceptance suite's frozen market (770 days, regimes
    of 50) under ``seed``."""
    gen = md.MarketGenParams(drift=0.004, alpha0=2.5e-6, alpha1=0.05,
                             beta1=0.90, regime_length=50)
    daily, _ = md.resample(md.simulate_market(gen, 770, seed=seed))
    return daily.values[:, 3]


def frozen_market_returns(seed):
    """The frozen market's daily close-to-close log-returns under ``seed``."""
    return np.diff(np.log(frozen_market_closes(seed)))


def closes_of(returns):
    """Closes whose log-returns are ``returns[1:]``, up to rounding."""
    return np.exp(np.cumsum(returns))


def warm_up_oracle(returns, window):
    """Forecasts of the first ``window`` returns, the rest left to fill: the
    sample std of the returns before each, floored at ``WARMUP_FLOOR``."""
    out = np.empty(len(returns))
    for t in range(min(window, len(returns))):
        std = float(np.std(returns[:t], ddof=1)) if t >= 2 else 0.0
        out[t] = max(std, WARMUP_FLOOR)
    return out


def per_day_forecast_oracle(returns, window, refit_every, block_params):
    """Rolling forecasts with one filter per day: day t runs
    ``filter_variances`` over ``returns[t-window:t+1]`` with the parameters of
    its refit block."""
    out = warm_up_oracle(returns, window)
    for t in range(window, len(returns)):
        params = block_params[(t - window) // refit_every]
        out[t] = math.sqrt(filter_variances(params, returns[t - window:t + 1])[-1])
    return out


def state_forecast_oracle(returns, window, refit_every, reports):
    """Rolling forecasts recomputed from each refit's parameters with the
    state-based step: the squared last residual and the last filtered variance
    of ``returns[t-window:t]`` advanced by one recursion step."""
    out = warm_up_oracle(returns, window)
    for t in range(window, len(returns)):
        params = reports[(t - window) // refit_every].params
        segment = returns[t - window:t]
        last_residual_sq = (segment[-1] - params.mu) ** 2
        last_variance = indexed_loop_filter(params, segment)[-1]
        out[t] = math.sqrt(params.alpha0 + params.alpha1 * last_residual_sq
                           + params.beta1 * last_variance)
    return out


def random_params(rng):
    a1 = rng.uniform(0.0, 0.4)
    b1 = rng.uniform(0.0, 0.95 - a1)
    return GarchParams(rng.uniform(-0.01, 0.01), 10 ** rng.uniform(-6, -2), a1, b1)


def nelder_mead_bfgs_log_likelihood(returns) -> float:
    """The log-likelihood that the Nelder-Mead fit with a numeric-gradient BFGS
    polish, which ``fit`` replaced, reaches: an oracle for ``fit``."""
    optimize = pytest.importorskip("scipy.optimize")
    returns = np.asarray(returns, dtype=np.float64)
    var = float(np.var(returns))
    init = GarchParams(float(np.mean(returns)), max(0.1 * var, ALPHA0_FLOOR), 0.1, 0.8)
    x0 = garch._x_from_params(init)

    def objective(x):
        try:
            ll = log_likelihood(garch._params_from_x(x), returns)
        except (GarchError, OverflowError, FloatingPointError):
            return 1e300
        return -ll if math.isfinite(ll) else 1e300

    coarse = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-9, "fatol": 1e-9, "maxfev": 8000})
    best_x, best_fun = coarse.x, coarse.fun
    if objective(x0) < best_fun:
        best_x, best_fun = x0, objective(x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        polish = optimize.minimize(objective, best_x, method="BFGS",
                                   options={"maxiter": 2000, "gtol": 1e-7})
    return -min(polish.fun, best_fun)


def gradient_check(x, returns) -> tuple[np.ndarray, float]:
    """``fit``'s exact gradient of ``-log_likelihood`` at the unconstrained
    ``x``, and its largest relative error against central differences: the
    fourth-order stencil, with a step of 1e-6 in ``mu`` and 1e-3 elsewhere."""
    returns = np.asarray(returns, dtype=np.float64)
    params = garch._params_from_x(x)
    exact = garch._gradient(x, params, filter_variances(params, returns),
                            returns - params.mu)

    def objective(i, step):
        moved = np.array(x, dtype=np.float64)
        moved[i] += step
        return -log_likelihood(garch._params_from_x(moved), returns)

    worst = 0.0
    for i, h in enumerate((1e-6, 1e-3, 1e-3, 1e-3)):
        numeric = ((objective(i, -2 * h) - objective(i, 2 * h))
                   - 8.0 * (objective(i, -h) - objective(i, h))) / (12.0 * h)
        worst = max(worst, relative_error(float(exact[i]), numeric))
    return exact, worst


def gradient_case(rng, rest=None):
    """A point ``x`` with GARCH-scale parameters (``alpha1 + beta1 = 1 - rest``
    when ``rest`` is given) and a 250-day GARCH return series."""
    a1 = rng.uniform(0.02, 0.3)
    b1 = rng.uniform(0.3, 0.97 - a1) if rest is None else 1.0 - a1 - rest
    p = GarchParams(rng.uniform(-1e-3, 1e-3), 10 ** rng.uniform(-6, -4), a1, b1)
    returns = simulate_returns(GarchParams(0.0, 2e-5, 0.08, 0.88), 250, rng)
    return garch._x_from_params(p), returns


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(GarchError):
            GarchParams(0.0, 0.0, 0.1, 0.8)
        with pytest.raises(GarchError):
            GarchParams(0.0, 0.1, -0.1, 0.8)
        with pytest.raises(GarchError):
            GarchParams(0.0, 0.1, 0.5, 0.5)

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

    def test_cli_import_loads_no_scipy(self):
        # scipy.optimize alone adds ~48 MB of resident memory to every command,
        # and scipy.signal ~27 MB more.
        code = ("import sys, mctg.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        env = {**os.environ, "PYTHONPATH": str(Path(garch.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


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


class TestParamsFromX:
    def test_persistence_rounding_to_one_is_a_garch_error(self):
        # The softmax rounds alpha1 + beta1 to exactly 1.0 here.
        with pytest.raises(GarchError, match="stationarity"):
            garch._params_from_x(np.array([0.0, 0.0, 50.0, 50.0]))


class TestGradient:
    def test_interior_matches_central_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            _, worst = gradient_check(*gradient_case(rng))
            assert worst <= 1e-6

    def test_near_integrated_matches_central_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            x, returns = gradient_case(rng, rest=10 ** rng.uniform(-7.5, -6))
            p = garch._params_from_x(x)
            assert 1.0 - 1e-6 < p.alpha1 + p.beta1 < 1.0
            _, worst = gradient_check(x, returns)
            assert worst <= 1e-6

    def test_alpha0_at_floor_has_zero_component(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x, returns = gradient_case(rng)
            x[1] = math.log(ALPHA0_FLOOR) - 2.0
            assert garch._params_from_x(x).alpha0 == ALPHA0_FLOOR
            exact, worst = gradient_check(x, returns)
            assert exact[1] == 0.0
            assert worst <= 1e-6


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

    def test_reported_likelihood_is_that_of_the_params(self, garch_sample_10k,
                                                       garch_fit_10k):
        assert garch_fit_10k.log_likelihood == \
            log_likelihood(garch_fit_10k.params, garch_sample_10k)

    @pytest.mark.parametrize("seed", [2024, 41])
    def test_frozen_market_refits_reach_the_nelder_mead_oracle(self, seed):
        # Seed 41 has 20 of its 26 refits at the IGARCH boundary under the
        # oracle, where the likelihood surface is flat.
        returns = frozen_market_returns(seed)
        for start in range(0, len(returns) - 250, 20):
            window = returns[start:start + 250]
            assert (fit(window).log_likelihood
                    >= nelder_mead_bfgs_log_likelihood(window) - 1e-9), start

    @pytest.mark.parametrize("seed", [2024, 41])
    def test_frozen_market_refits_report_the_likelihood_of_their_params(self, seed):
        returns = frozen_market_returns(seed)
        for start in range(0, len(returns) - 250, 20):
            window = returns[start:start + 250]
            report = fit(window)
            assert report.log_likelihood == log_likelihood(report.params, window)

    def test_interior_fit_not_at_boundary(self, garch_fit_10k):
        assert not garch_fit_10k.at_boundary

    def test_integrated_fit_flagged_at_boundary(self):
        # The 11th refit of the frozen market's rolling forecast (seed 2024):
        # alpha0 lands on its floor and alpha1 + beta1 within 1e-7 of 1, yet
        # the optimizer reports success.
        report = fit(frozen_market_returns(2024)[200:450])
        p = report.params
        assert report.converged
        assert p.alpha1 + p.beta1 > 1.0 - 1e-6
        assert report.at_boundary

    def test_fit_without_arch_term_flagged_at_boundary(self):
        # The refit at t = 510 of the frozen market's rolling forecast (seed
        # 2024): alpha1 ends near 5e-13, inside the persistence and alpha0
        # bounds.
        report = fit(frozen_market_returns(2024)[260:510])
        p = report.params
        assert p.alpha1 < 1e-10
        assert p.alpha1 + p.beta1 < 1.0 - 1e-6 and p.alpha0 > 2e-12
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


class TestRollingForecast:
    def test_iid_forecasts_near_true_std(self):
        rng = np.random.default_rng(6)
        true_std = 0.02
        closes = closes_of(rng.normal(0, true_std, size=500))
        sigma = rolling_forecast(closes, window=250, refit_every=50)
        post = sigma[251:]
        hit = np.mean(np.abs(post / true_std - 1.0) < 0.20)
        assert hit >= 0.90

    def test_refit_counter(self):
        rng = np.random.default_rng(7)
        closes = closes_of(rng.normal(0, 0.02, size=200))
        reports = []
        rolling_forecast(closes, window=100, refit_every=len(closes),
                         on_fit=reports.append)
        assert len(reports) == 1

    def test_day_zero_gets_the_warm_up_floor(self):
        closes = closes_of(np.random.default_rng(16).normal(0, 0.02, size=120))
        assert rolling_forecast(closes, window=100, refit_every=5)[0] == WARMUP_FLOOR

    @pytest.mark.parametrize("t", [50, 130], ids=["warm-up", "fitted"])
    def test_causality(self, t):
        # Day t's sigma sees the closes before day t: bumping close t leaves
        # sigma[:t + 1] and changes day t + 1's.
        rng = np.random.default_rng(8)
        closes = closes_of(rng.normal(0, 0.02, size=161))
        base = rolling_forecast(closes, window=100, refit_every=10)
        bumped = closes.copy()
        bumped[t] *= math.exp(0.05)
        alt = rolling_forecast(bumped, window=100, refit_every=10)
        assert np.array_equal(alt[:t + 1], base[:t + 1])
        assert alt[t + 1] != base[t + 1]

    def test_output_length_and_positive(self):
        rng = np.random.default_rng(9)
        closes = closes_of(rng.normal(0, 0.02, size=121))
        sigma = rolling_forecast(closes, window=100, refit_every=5)
        assert sigma.shape == closes.shape
        assert np.all(sigma > 0)

    @pytest.mark.parametrize("seed", [2024, 5])
    def test_frozen_market_equal_under_indexed_loop(self, seed, monkeypatch):
        closes = frozen_market_closes(seed)
        reports, oracle_reports = [], []
        sigma = rolling_forecast(closes, 250, 20, on_fit=reports.append)
        monkeypatch.setattr(garch, "filter_variances", indexed_loop_filter)
        oracle = rolling_forecast(closes, 250, 20, on_fit=oracle_reports.append)
        assert np.array_equal(sigma, oracle)
        assert len(reports) == 26
        assert reports == oracle_reports

    @pytest.mark.parametrize("seed", [2024, 5])
    def test_frozen_market_equal_to_state_step(self, seed):
        closes = frozen_market_closes(seed)
        reports = []
        sigma = rolling_forecast(closes, 250, 20, on_fit=reports.append)
        assert len(reports) == 26
        assert np.array_equal(sigma[1:], state_forecast_oracle(frozen_market_returns(seed),
                                                               250, 20, reports))

    @pytest.mark.parametrize("n_closes, window, refit_every", [
        (131, 100, 1),   # a refit every day
        (102, 100, 7),   # one forecast day
        (101, 100, 7),   # window == returns: no fit
        (60, 100, 7),    # window > returns: no fit
    ], ids=["refit-every-day", "one-forecast-day", "window-equals-n", "window-exceeds-n"])
    def test_equal_to_per_day_filter(self, n_closes, window, refit_every):
        closes = closes_of(np.random.default_rng(17).normal(0, 0.02, size=n_closes))
        returns = np.diff(np.log(closes))
        reports = []
        sigma = rolling_forecast(closes, window, refit_every, on_fit=reports.append)
        assert len(reports) == len(range(window, len(returns), refit_every))
        oracle = per_day_forecast_oracle(returns, window, refit_every,
                                         [r.params for r in reports])
        assert sigma[0] == WARMUP_FLOOR
        assert np.array_equal(sigma[1:], oracle)

    def test_failed_refit_keeps_previous_parameters(self, monkeypatch):
        closes = closes_of(np.random.default_rng(18).normal(0, 0.02, size=136))
        returns = np.diff(np.log(closes))
        window, refit_every = 100, 10
        reports = []

        def fail_second_refit(segment):
            if len(reports) == 1:
                reports.append(None)
                raise GarchError("no fit")
            report = fit(segment)
            reports.append(report)
            return report

        monkeypatch.setattr(garch, "fit", fail_second_refit)
        with pytest.warns(UserWarning) as caught:
            sigma = rolling_forecast(closes, window, refit_every)
        # The second refit is for returns[110], which ends on day 111.
        assert [str(w.message) for w in caught] == [
            "rolling GARCH refit failed at day 111: no fit"]
        assert len(reports) == 4 and reports[1] is None
        block_params = [reports[0].params, reports[0].params, reports[2].params,
                        reports[3].params]
        oracle = per_day_forecast_oracle(returns, window, refit_every, block_params)
        assert np.array_equal(sigma[1:], oracle)

    def test_failed_first_refit_raises(self, monkeypatch):
        def fail(segment):
            raise GarchError("no fit")

        monkeypatch.setattr(garch, "fit", fail)
        closes = closes_of(np.random.default_rng(18).normal(0, 0.02, size=136))
        with pytest.raises(GarchError, match="no fit"):
            rolling_forecast(closes, 100, 10)

    def test_bad_arguments(self):
        with pytest.raises(GarchError):
            rolling_forecast(np.ones(100), window=10, refit_every=20)
        with pytest.raises(GarchError):
            rolling_forecast(np.ones(100), window=60, refit_every=0)


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

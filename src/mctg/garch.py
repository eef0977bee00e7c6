"""GARCH(1,1) variance filtering, Gaussian MLE, and rolling volatility forecasts.

The conditional variance follows the standard recursion

    sigma2_t = alpha0 + alpha1 * a_{t-1}^2 + beta1 * sigma2_{t-1},  a_t = R_t - mu,

initialized at the unconditional variance alpha0 / (1 - alpha1 - beta1).
Estimation maximizes the Gaussian quasi-likelihood over an unconstrained
reparameterization that keeps alpha1 + beta1 < 1 at every iterate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

ALPHA0_FLOOR = 1e-12
BOUNDARY_TOL = 1e-6  # relative distance from a constraint that counts as on it
LOG2PI = math.log(2.0 * math.pi)
WARMUP_FLOOR = 1e-8  # lowest volatility emitted before the first fit, so it stays > 0


class GarchError(Exception):
    """Invalid parameters or series too short to estimate."""


@dataclass(frozen=True)
class GarchConfig:
    """Rolling-forecast settings: days of returns behind each fit, and days
    between refits."""

    window: int = 250
    refit_every: int = 20

    def __post_init__(self):
        if self.window < 50:
            raise GarchError(f"window must be >= 50, got {self.window}")
        if self.refit_every < 1:
            raise GarchError(f"refit_every must be >= 1, got {self.refit_every}")


@dataclass(frozen=True)
class GarchParams:
    """Mean and variance-recursion coefficients of a stationary GARCH(1,1)."""

    mu: float
    alpha0: float
    alpha1: float
    beta1: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mu, self.alpha0, self.alpha1, self.beta1)):
            raise GarchError("non-finite GARCH parameter")
        if self.alpha0 <= 0:
            raise GarchError(f"alpha0 must be > 0, got {self.alpha0}")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise GarchError("alpha1 and beta1 must be >= 0")
        if self.alpha1 + self.beta1 >= 1:
            raise GarchError(
                f"alpha1 + beta1 = {self.alpha1 + self.beta1} violates stationarity")

    @property
    def unconditional_variance(self) -> float:
        return self.alpha0 / (1.0 - self.alpha1 - self.beta1)


@dataclass(frozen=True)
class FitReport:
    """A fit's parameters and optimizer outcome. ``at_boundary`` flags a fit
    pressed against a constraint: persistence ``alpha1 + beta1`` within
    ``BOUNDARY_TOL`` of 1 (integrated GARCH), or ``alpha0`` at its floor. The
    optimizer can report such a fit as converged."""

    params: GarchParams
    log_likelihood: float
    iterations: int
    converged: bool
    at_boundary: bool


def filter_variances(params: GarchParams, returns) -> np.ndarray:
    """Run the variance recursion over a return series.

    Output has the same length as the input and is strictly positive. The
    loop runs on Python floats; ``r ** 2`` squares through libm ``pow`` as
    numpy's scalar power does, where ``r * r`` or an array square would
    round differently in the last bit now and then.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 1 or len(returns) < 1:
        raise GarchError("returns must be a non-empty 1-d series")
    alpha0, alpha1, beta1 = params.alpha0, params.alpha1, params.beta1
    v = params.unconditional_variance
    var = [v]
    for r in (returns[:-1] - params.mu).tolist():
        v = alpha0 + alpha1 * r ** 2 + beta1 * v
        var.append(v)
    return np.array(var)


def log_likelihood(params: GarchParams, returns) -> float:
    """Gaussian log-likelihood of a return series under the filtered variances."""
    returns = np.asarray(returns, dtype=np.float64)
    var = filter_variances(params, returns)
    resid = returns - params.mu
    return float(np.sum(-0.5 * LOG2PI - 0.5 * np.log(var) - resid ** 2 / (2.0 * var)))


def _params_from_x(x: np.ndarray) -> GarchParams:
    # alpha1, beta1 share a softmax-style map so their sum stays below 1.
    mu, log_a0, xa, xb = x
    ea, eb = math.exp(min(xa, 50.0)), math.exp(min(xb, 50.0))
    denom = 1.0 + ea + eb
    alpha1 = ea / denom
    beta1 = eb / denom
    alpha0 = max(math.exp(min(log_a0, 50.0)), ALPHA0_FLOOR)
    assert alpha1 + beta1 < 1.0
    return GarchParams(mu, alpha0, alpha1, beta1)


def _x_from_params(p: GarchParams) -> np.ndarray:
    rest = max(1.0 - p.alpha1 - p.beta1, 1e-10)
    return np.array([
        p.mu,
        math.log(max(p.alpha0, ALPHA0_FLOOR)),
        math.log(max(p.alpha1, 1e-10) / rest),
        math.log(max(p.beta1, 1e-10) / rest),
    ])


def fit(returns) -> FitReport:
    """Maximum-likelihood fit of GARCH(1,1) on a return series.

    Refuses series shorter than 50 points. Never raises on hard data
    (e.g. constant returns); instead reports ``converged=False`` with the
    best parameters found.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 1 or len(returns) < 50:
        raise GarchError(f"need at least 50 returns to fit, got {returns.shape}")

    var = float(np.var(returns))
    init = GarchParams(float(np.mean(returns)), max(0.1 * var, ALPHA0_FLOOR), 0.1, 0.8)
    x0 = _x_from_params(init)

    def objective(x):
        try:
            ll = log_likelihood(_params_from_x(x), returns)
        except (OverflowError, FloatingPointError):
            return 1e300
        return -ll if math.isfinite(ll) else 1e300

    if not math.isfinite(log_likelihood(init, returns)):
        raise GarchError("non-finite likelihood at initial parameters")

    # Nelder-Mead finds the basin robustly; BFGS (numeric gradient) polishes.
    coarse = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-9, "fatol": 1e-9, "maxfev": 8000})
    iterations = int(coarse.nit)
    converged = bool(coarse.success)
    # An optimizer's ``fun`` is the objective at its ``x``: no point is evaluated twice.
    best_x, best_fun = coarse.x, coarse.fun
    start_fun = objective(x0)
    if best_fun > start_fun:
        best_x, best_fun = x0, start_fun
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        polish = optimize.minimize(objective, best_x, method="BFGS",
                                   options={"maxiter": 2000, "gtol": 1e-7})
    if polish.fun <= best_fun:
        best_x, best_fun = polish.x, polish.fun
        iterations += int(polish.nit)
        converged = converged or bool(polish.success)
    params = _params_from_x(best_x)
    return FitReport(
        params=params,
        log_likelihood=float(-best_fun),
        iterations=iterations,
        converged=converged,
        at_boundary=(params.alpha1 + params.beta1 > 1.0 - BOUNDARY_TOL
                     or params.alpha0 <= ALPHA0_FLOOR * (1.0 + BOUNDARY_TOL)),
    )


def simulate_returns(params: GarchParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a return series from the model with Gaussian innovations.

    The variance starts at its unconditional level, mirroring the filter.
    """
    if n < 1:
        raise GarchError("n must be >= 1")
    out = np.empty(n)
    var = params.unconditional_variance
    for t in range(n):
        a = rng.standard_normal() * math.sqrt(var)
        out[t] = params.mu + a
        var = params.alpha0 + params.alpha1 * a * a + params.beta1 * var
    return out


def rolling_forecast(daily_returns, window: int, refit_every: int,
                     on_fit=None) -> np.ndarray:
    """Causal rolling one-step-ahead volatility forecasts.

    Day ``t >= window`` gets a forecast from a fit on ``returns[t-window:t]``
    (re-fit every ``refit_every`` days, parameters reused in between). Warm-up
    days emit the sample std of the returns seen so far, floored at
    ``WARMUP_FLOOR`` so the output is always positive. A failed re-fit warns
    and falls back to the previous parameters. ``on_fit``, when given, receives
    each FitReport.
    """
    GarchConfig(window, refit_every)  # raises GarchError on an invalid setting
    returns = np.asarray(daily_returns, dtype=np.float64)

    n = len(returns)
    out = np.empty(n, dtype=np.float64)
    for t in range(min(window, n)):
        std = float(np.std(returns[:t], ddof=1)) if t >= 2 else 0.0
        out[t] = max(std, WARMUP_FLOOR)

    params: GarchParams | None = None
    for t in range(window, n):
        if params is None or (t - window) % refit_every == 0:
            try:
                report = fit(returns[t - window:t])
                params = report.params
                if on_fit is not None:
                    on_fit(report)
            except GarchError as e:
                if params is None:
                    raise
                warnings.warn(f"rolling GARCH refit failed at day {t}: {e}")
        # The filter never reads its last return, so this uses returns[:t] only.
        out[t] = math.sqrt(filter_variances(params, returns[t - window:t + 1])[-1])
    return out

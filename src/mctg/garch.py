"""GARCH(1,1) variance filtering, Gaussian MLE, and rolling volatility forecasts.

The conditional variance follows the standard recursion

    sigma2_t = alpha0 + alpha1 * a_{t-1}^2 + beta1 * sigma2_{t-1},  a_t = R_t - mu,

initialized at the unconditional variance alpha0 / (1 - alpha1 - beta1).
Estimation maximizes the Gaussian quasi-likelihood over an unconstrained
reparameterization that keeps alpha1 + beta1 < 1 at every iterate, by BFGS
with the exact gradient from the adjoint of the variance recursion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

ALPHA0_FLOOR = 1e-12
BOUNDARY_TOL = 1e-6  # distance from a constraint that counts as on it
LOG2PI = math.log(2.0 * math.pi)
WARMUP_FLOOR = 1e-8  # lowest volatility emitted before the first fit, so it stays > 0
X_CLAMP = 50.0  # largest exponent _params_from_x takes; beyond it a coordinate is inert

# BFGS stopping rules: the largest gradient component, the relative change of
# the objective over one iteration, and an iteration cap.
GRADIENT_TOL = 1e-7
OBJECTIVE_TOL = 1e-14
MAX_ITERATIONS = 400
ARMIJO = 1e-4  # sufficient decrease a line-search step must reach
MAX_HALVINGS = 60


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
    ``BOUNDARY_TOL`` of 1 (integrated GARCH), ``alpha1`` within
    ``BOUNDARY_TOL`` of 0 (no ARCH term), or ``alpha0`` at its floor. The
    optimizer can report such a fit as converged."""

    params: GarchParams
    log_likelihood: float
    iterations: int
    converged: bool
    at_boundary: bool


def _recursion(c, b, y0) -> list:
    """``y[0] = y0, y[t] = c[t-1] + b * y[t-1]``: the variance filter forwards
    and its adjoint backwards. Over Python floats, or elementwise over equal-
    length arrays, one series per element, which rounds the same."""
    y = y0
    out = [y]
    for ct in c:
        y = ct + b * y
        out.append(y)
    return out


def _shocks(alpha0, alpha1, mu, returns: np.ndarray) -> np.ndarray:
    """The recursion's inputs ``alpha0 + alpha1 * (R - mu)^2``. ``np.float_power``
    squares through libm ``pow``, as numpy's scalar power does, where
    ``r * r`` or ``np.square`` would round differently in the last bit now and
    then. The coefficients are floats or arrays that broadcast with ``returns``."""
    return alpha0 + alpha1 * np.float_power(returns - mu, 2.0)


def filter_variances(params: GarchParams, returns) -> np.ndarray:
    """Run the variance recursion over a return series.

    Output has the same length as the input and is strictly positive. The
    loop runs on Python floats.
    """
    returns = np.asarray(returns, dtype=np.float64)
    if returns.ndim != 1 or len(returns) < 1:
        raise GarchError("returns must be a non-empty 1-d series")
    shocks = _shocks(params.alpha0, params.alpha1, params.mu, returns[:-1])
    return np.array(_recursion(shocks.tolist(), params.beta1, params.unconditional_variance))


def _sum_log_density(var: np.ndarray, resid: np.ndarray) -> float:
    return float(np.sum(-0.5 * LOG2PI - 0.5 * np.log(var) - resid ** 2 / (2.0 * var)))


def log_likelihood(params: GarchParams, returns) -> float:
    """Gaussian log-likelihood of a return series under the filtered variances."""
    returns = np.asarray(returns, dtype=np.float64)
    return _sum_log_density(filter_variances(params, returns), returns - params.mu)


def _params_from_x(x: np.ndarray) -> GarchParams:
    """The parameters at the optimizer's unconstrained ``x = (mu, log alpha0,
    xa, xb)``. alpha1, beta1 share a softmax-style map so their sum stays
    below 1; where it rounds to 1, ``GarchParams`` raises ``GarchError``."""
    mu, log_a0, xa, xb = x
    ea, eb = math.exp(min(xa, X_CLAMP)), math.exp(min(xb, X_CLAMP))
    denom = 1.0 + ea + eb
    alpha1 = ea / denom
    beta1 = eb / denom
    alpha0 = max(math.exp(min(log_a0, X_CLAMP)), ALPHA0_FLOOR)
    return GarchParams(mu, alpha0, alpha1, beta1)


def _x_from_params(p: GarchParams) -> np.ndarray:
    rest = max(1.0 - p.alpha1 - p.beta1, 1e-10)
    return np.array([
        p.mu,
        math.log(max(p.alpha0, ALPHA0_FLOOR)),
        math.log(max(p.alpha1, 1e-10) / rest),
        math.log(max(p.beta1, 1e-10) / rest),
    ])


def _gradient(x: np.ndarray, params: GarchParams, var: np.ndarray,
              resid: np.ndarray) -> np.ndarray:
    """Gradient of ``-log_likelihood`` with respect to ``x``, exact.

    ``var`` and ``resid`` are the filtered variances and residuals at
    ``params = _params_from_x(x)``. The adjoint ``lam_t = dLL/dv_t`` obeys
    ``lam_t = g_t + beta1 * lam_{t+1}``, with ``g_t`` the derivative of the
    t-th log-density in ``v_t``: the variance recursion run backwards. The
    partials in the parameters are then dot products, chained through
    ``_params_from_x``; a coordinate that a clamp holds fixed gets zero.
    """
    alpha0, alpha1, beta1 = params.alpha0, params.alpha1, params.beta1
    sq = resid * resid
    g = 0.5 * (sq / var - 1.0) / var
    lam = np.array(_recursion(g[-2::-1].tolist(), beta1, float(g[-1]))[::-1])
    lam0, lam = lam[0], lam[1:]
    rest = 1.0 - alpha1 - beta1
    # v_0 = alpha0 / rest; v_t for t >= 1 is the recursion.
    d_persistence = lam0 * alpha0 / (rest * rest)
    d_alpha0 = float(np.sum(lam)) + lam0 / rest
    d_alpha1 = float(np.dot(lam, sq[:-1])) + d_persistence
    d_beta1 = float(np.dot(lam, var[:-1])) + d_persistence
    d_mu = float(np.sum(resid / var)) - 2.0 * alpha1 * float(np.dot(lam, resid[:-1]))
    _, log_a0, xa, xb = x
    free_a0 = log_a0 < X_CLAMP and alpha0 > ALPHA0_FLOOR
    return -np.array([
        d_mu,
        d_alpha0 * alpha0 if free_a0 else 0.0,
        alpha1 * (d_alpha1 * (1.0 - alpha1) - d_beta1 * beta1) if xa < X_CLAMP else 0.0,
        beta1 * (d_beta1 * (1.0 - beta1) - d_alpha1 * alpha1) if xb < X_CLAMP else 0.0,
    ])


def _bfgs(evaluate, x: np.ndarray):
    """Minimize by BFGS with a backtracking line search.

    ``evaluate(x)`` returns the objective and a function of no arguments that
    gives its gradient, or ``(inf, None)`` off the domain, so the line search
    backs off. The gradient is taken only at the points the search accepts.
    Returns ``(x, f, iterations, converged)``, ``f`` the objective at ``x``;
    convergence is a gradient below ``GRADIENT_TOL`` or an iteration that
    changed the objective by less than ``OBJECTIVE_TOL`` relative.
    """
    f, gradient = evaluate(x)
    g = gradient()
    h = None  # inverse Hessian estimate; None is the identity before any update
    for iteration in range(MAX_ITERATIONS):
        if float(np.max(np.abs(g))) < GRADIENT_TOL:
            return x, f, iteration, True
        d = -g if h is None else -(h @ g)
        slope = float(g @ d)
        if not slope < 0.0:  # lost descent: restart from steepest descent
            h, d, slope = None, -g, -float(g @ g)
        step = 1.0 if h is not None else min(1.0, 1.0 / float(np.max(np.abs(g))))
        for _ in range(MAX_HALVINGS):
            x_new = x + step * d
            f_new, gradient = evaluate(x_new)
            if f_new <= f + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            if h is None:
                return x, f, iteration, False
            h = None
            continue
        g_new = gradient()
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if h is None:
                h = np.eye(len(x))
            hy = h @ y
            h = (h + np.outer(s, s) * ((sy + float(y @ hy)) / (sy * sy))
                 - (np.outer(hy, s) + np.outer(s, hy)) / sy)
        change = f - f_new
        x, f, g = x_new, f_new, g_new
        if change <= OBJECTIVE_TOL * max(abs(f), 1.0):
            return x, f, iteration + 1, True
    return x, f, MAX_ITERATIONS, False


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
    if not math.isfinite(log_likelihood(init, returns)):
        raise GarchError("non-finite likelihood at initial parameters")

    def evaluate(x):
        try:
            params = _params_from_x(x)
        except GarchError:
            return math.inf, None
        variances = filter_variances(params, returns)
        resid = returns - params.mu
        value = -_sum_log_density(variances, resid)
        if not math.isfinite(value):
            return math.inf, None
        return value, lambda: _gradient(x, params, variances, resid)

    with np.errstate(all="ignore"):
        x, objective, iterations, converged = _bfgs(evaluate, _x_from_params(init))
    params = _params_from_x(x)
    return FitReport(
        params=params,
        log_likelihood=-objective,
        iterations=iterations,
        converged=converged,
        at_boundary=(params.alpha1 + params.beta1 > 1.0 - BOUNDARY_TOL
                     or params.alpha1 < BOUNDARY_TOL
                     or params.alpha0 <= ALPHA0_FLOOR * (1.0 + BOUNDARY_TOL)),
    )


def rolling_forecast(daily_closes, window: int, refit_every: int,
                     on_fit=None) -> np.ndarray:
    """Causal rolling one-step-ahead volatility forecasts, one per daily close.

    ``returns`` are the close-to-close log-returns; ``returns[t]`` ends on day
    ``t + 1`` and its forecast is day ``t + 1``'s, so day ``t`` sees only the
    closes before it, and day 0 gets ``WARMUP_FLOOR``. From ``t = window`` on,
    a fit on ``returns[t-window:t]`` (re-fit every ``refit_every`` returns,
    parameters reused in between) gives the forecast; before, it is the sample
    std of the returns seen so far, floored at ``WARMUP_FLOOR`` so the output
    is always positive. A failed re-fit warns and falls back to the previous
    parameters. ``on_fit``, when given, receives each FitReport.
    """
    GarchConfig(window, refit_every)  # raises GarchError on an invalid setting
    closes = np.asarray(daily_closes, dtype=np.float64)
    returns = np.diff(np.log(closes))

    n = len(returns)
    out = np.full(len(closes), WARMUP_FLOOR)
    sigma = out[1:]  # sigma[t] is the forecast for returns[t]
    for t in range(min(window, n)):
        std = float(np.std(returns[:t], ddof=1)) if t >= 2 else 0.0
        sigma[t] = max(std, WARMUP_FLOOR)

    blocks = []  # the parameters of each run of refit_every forecast days
    params: GarchParams | None = None
    for start in range(window, n, refit_every):
        try:
            report = fit(returns[start - window:start])
            params = report.params
            if on_fit is not None:
                on_fit(report)
        except GarchError as e:
            if params is None:
                raise
            warnings.warn(f"rolling GARCH refit failed at day {start + 1}: {e}")
        blocks.append(params)
    if blocks:
        # Every forecast day at once, one element per day: day t filters
        # returns[t-window:t] from its block's unconditional variance, so the
        # k-th step reads returns[k:k + days] across the days. The shocks are
        # made a step at a time, so only the recursion's output holds
        # days x window floats.
        days = n - window
        coefficients = np.array([(p.mu, p.alpha0, p.alpha1, p.beta1, p.unconditional_variance)
                                 for p in blocks])
        mu, alpha0, alpha1, beta1, start_variance = np.repeat(
            coefficients.T, refit_every, axis=1)[:, :days]
        shocks = (_shocks(alpha0, alpha1, mu, returns[k:k + days]) for k in range(window))
        sigma[window:] = np.sqrt(_recursion(shocks, beta1, start_variance)[-1])
    return out

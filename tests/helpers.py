"""Code only the tests run: a finite-difference gradient checker for
``mctg.nn`` networks, a GARCH(1,1) return simulator and the per-day market
generator."""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from mctg import marketdata as md
from mctg.garch import GarchError, GarchParams
from mctg.nn import Network, backward, forward


def network_parameters(net: Network) -> list[np.ndarray]:
    """The network's arrays in the order ``nn.backward`` returns their
    gradients: ``weights[0], biases[0], weights[1], ...``."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.append(w)
        out.append(b)
    return out


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def grad_check(net: Network, x, rng: np.random.Generator | None = None,
               step: float = 1e-5) -> float:
    """Max relative error between backward and central finite differences at
    the (rows, in_dim) input ``x``.

    Uses a random linear functional of the output as the scalar loss and a
    forward without an rng, so dropout cannot perturb the comparison.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    c = rng.normal(size=net.out_dim)

    def loss() -> float:
        y, _ = forward(net, x)
        return float(np.sum(y * c))

    y, cache = forward(net, x)
    grads, _ = backward(net, cache, np.broadcast_to(c, y.shape))

    worst = 0.0
    for p, g in zip(network_parameters(net), grads):
        flat = p.ravel()
        gflat = np.asarray(g).ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss()
            flat[i] = orig - step
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, relative_error(float(gflat[i]), numeric))
    return worst


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


def simulate_market_per_day(gen, n_days: int, seed: int):
    """``(timestamps, rows)`` of ``marketdata.simulate_market``, drawn and
    built one day at a time with scalar draws from the generator: the
    reference the whole-market draw must match bit for bit. No float-range
    check."""
    rng = np.random.default_rng(seed)
    dates = md._trading_dates(gen.start_date, n_days)
    persistence = gen.alpha1 + gen.beta1
    var = gen.alpha0 / (1.0 - persistence) if persistence > 0 else gen.alpha0

    timestamps: list[dt.datetime] = []
    rows = np.empty((n_days * md.BARS_PER_DAY, 6), dtype=np.float64)
    log_p = math.log(gen.start_price)
    frac = np.arange(md.BARS_PER_DAY + 1) / md.BARS_PER_DAY
    for d, date in enumerate(dates):
        drift = gen.drift
        if gen.regime_length is not None and (d // gen.regime_length) % 2 == 1:
            drift = -gen.drift
        sigma = math.sqrt(var)
        shock = rng.standard_normal() * sigma
        r = drift + shock
        var = gen.alpha0 + gen.alpha1 * shock * shock + gen.beta1 * var

        steps = rng.standard_normal(md.BARS_PER_DAY) * (sigma / math.sqrt(md.BARS_PER_DAY))
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        bridge = walk - frac * walk[-1]
        bounds = np.exp(log_p + frac * r + bridge)

        opens = bounds[:-1]
        closes = bounds[1:]
        pad = np.abs(rng.standard_normal(md.BARS_PER_DAY)) * gen.intraday_noise * sigma
        highs = np.maximum(opens, closes) * (1.0 + pad)
        lows = np.minimum(opens, closes) / (1.0 + pad)
        volume = gen.base_volume * rng.lognormal(0.0, 0.5, md.BARS_PER_DAY)
        amount = volume * 0.5 * (opens + closes)

        base = dt.datetime.combine(date, dt.time(9, 30))
        timestamps.extend(base + dt.timedelta(minutes=5 * k) for k in range(md.BARS_PER_DAY))
        rows[d * md.BARS_PER_DAY:(d + 1) * md.BARS_PER_DAY] = np.column_stack(
            [opens, highs, lows, closes, volume, amount])
        log_p += r
    return timestamps, rows

"""Code only the tests run: a finite-difference gradient checker for
``mctg.nn`` networks, a tiny policy configuration, a GARCH(1,1) return
simulator, and the references that
faster code must match bit for bit: the per-day market generator and day
grouping, the per-array Adam step, the policy backward through every input
gradient and the per-step rollout."""

from __future__ import annotations

import datetime as dt
import math

import numpy as np

from mctg import marketdata as md
from mctg import nn
from mctg.evalcli import VARIANTS
from mctg.garch import GarchError, GarchParams
from mctg.nn import Network, backward, forward
from mctg.policy import PolicyConfig, sample_action


def network_parameters(net: Network) -> list[np.ndarray]:
    """The network's arrays in the order ``nn.backward`` returns their
    gradients: ``weights[0], biases[0], weights[1], ...``."""
    out = []
    for w, b in zip(net.weights, net.biases):
        out.append(w)
        out.append(b)
    return out


def tiny_policy_config(variant: str = "MCTG", **overrides) -> PolicyConfig:
    """The ``VARIANTS`` entry's branches and GARCH feature with 4-unit hidden
    layers, 3-unit branch outputs and no dropout: small enough for finite
    differences. ``overrides`` win over all of these."""
    v = VARIANTS[variant]
    return PolicyConfig(**{"branches": v.branches, "garch_feature": v.garch_feature,
                           "branch_hidden": (4,), "branch_out": 3, "dropout": 0.0,
                           "trunk_hidden": 4, **overrides})


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
    dates = []
    date = gen.start_date
    while len(dates) < n_days:
        if date.weekday() < 5:
            dates.append(date)
        date += dt.timedelta(days=1)
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


def bar_dates(series) -> list[dt.date]:
    """Each bar's date, from its time as a ``datetime``."""
    return [t.date() for t in series.timestamps.tolist()]


def group_by_date_per_bar(series) -> dict:
    """Each date's slice of the bars, found in one pass over every bar's date:
    the reference for the day boundaries ``resample`` and ``align`` find."""
    groups = {}
    dates = bar_dates(series)
    start = 0
    for i in range(1, len(dates) + 1):
        if i == len(dates) or dates[i] != dates[start]:
            groups[dates[start]] = slice(start, i)
            start = i
    return groups


def adam_step_per_array(params, grads, m, v, t: int, learning_rate: float) -> None:
    """Step ``t`` (from 1) of Adam, one parameter array at a time, on the
    per-parameter moments ``m`` and ``v``: the reference for ``nn.adam_step``."""
    for p, g, m_p, v_p in zip(params, grads, m, v):
        m_p *= nn.ADAM_BETA1
        m_p += (1.0 - nn.ADAM_BETA1) * g
        v_p *= nn.ADAM_BETA2
        v_p += (1.0 - nn.ADAM_BETA2) * g * g
        m_hat = m_p / (1.0 - nn.ADAM_BETA1 ** t)
        v_hat = v_p / (1.0 - nn.ADAM_BETA2 ** t)
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)


def policy_backward_per_array(policy, cache, d_mean, d_value, d_log_std: float = 0.0):
    """``Policy.backward`` as a list of per-parameter gradients, each branch's
    taken from the full ``nn.backward``, input gradient included."""
    d_mean = np.asarray(d_mean, dtype=np.float64)[:, None]
    d_value = np.asarray(d_value, dtype=np.float64)[:, None]
    p_grads, d_state_p = backward(policy.policy_trunk, cache.policy_cache, d_mean)
    v_grads, d_state_v = backward(policy.value_trunk, cache.value_cache, d_value)
    d_state = d_state_p + d_state_v
    grads, width = [], policy.config.branch_out
    for k, name in enumerate(policy.config.branches):
        d_chunk = d_state[:, k * width:(k + 1) * width]
        b_cache = cache.branch_caches[name]
        b_grads, _ = backward(policy.branches[name], b_cache,
                              d_chunk * policy.branch_weights[name])
        grads.extend(b_grads)
        grads.append((d_chunk * b_cache.acts[-1]).sum(axis=0))
    grads.extend(p_grads)
    grads.extend(v_grads)
    raw = float(policy.log_std)
    inside = policy.config.log_std_min < raw < policy.config.log_std_max
    grads.append(np.array(d_log_std if inside else 0.0, dtype=np.float64))
    return grads


def collect_rollout_per_step(env, policy, inputs, n_steps: int, rng,
                             ep_return=None, episode_returns=None):
    """``ppo.collect_rollout`` one numpy ``sample_action`` per step: returns
    the buffer's columns by name (``bootstrap_value`` included) and the
    carried episode return."""
    cols = {"day": np.empty(n_steps, dtype=np.intp), "u": np.empty(n_steps),
            "old_log_prob": np.empty(n_steps), "reward": np.empty(n_steps),
            "value": np.empty(n_steps), "done": np.zeros(n_steps, dtype=bool)}
    day_inputs = lambda day: {name: table[day:day + 1] for name, table in inputs.items()}
    if ep_return is None:
        env.reset(rng)
        ep_return = 0.0
    for t in range(n_steps):
        day = env.state.day_index
        out, _ = policy.forward(day_inputs(day))
        action, u, log_prob = sample_action(out, rng)
        reward, _ = env.step(float(action[0]))
        for key, value in (("day", day), ("u", u[0]), ("old_log_prob", log_prob[0]),
                           ("reward", reward), ("value", out.value[0]), ("done", env.done)):
            cols[key][t] = value
        ep_return += reward
        if env.done:
            if episode_returns is not None:
                episode_returns.append(ep_return)
            ep_return = 0.0
            env.reset(rng)
    out, _ = policy.forward(day_inputs(env.state.day_index))
    cols["bootstrap_value"] = out.value[0]
    return cols, ep_return

"""PPO training loop: rollout collection, GAE advantages, the clipped
probability-ratio surrogate, and minibatched Adam updates.

The behavior policy runs without dropout while collecting; dropout is active
only during the update passes, which give the policy an rng.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import policy as policy_mod
from .nn import AdamState, adam_step

RATIO_EXP_CLAMP = 50.0


class PpoError(Exception):
    pass


@dataclass(frozen=True)
class PpoConfig:
    learning_rate: float = 2.5e-4
    rollout: int = 1024
    gamma: float = 0.99
    minibatches: int = 4
    clip_epsilon: float = 0.2
    gae_lambda: float = 0.95
    epochs_per_update: int = 4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    total_steps: int = 2_000_000
    checkpoint_every: int = 0      # updates between checkpoint_fn calls; 0 = none

    def __post_init__(self):
        for name in ("learning_rate", "max_grad_norm"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise PpoError(f"{name} must be finite and > 0")
        for name in ("value_coef", "entropy_coef"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise PpoError(f"{name} must be finite and >= 0")
        for name in ("gamma", "gae_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise PpoError(f"{name} must be in [0, 1]")
        if not 0.0 < self.clip_epsilon < 1.0:
            raise PpoError("clip_epsilon must be in (0, 1)")
        for name, least in (("rollout", 1), ("minibatches", 1), ("epochs_per_update", 1),
                            ("checkpoint_every", 0)):
            if getattr(self, name) < least:
                raise PpoError(f"{name} must be >= {least}")
        if self.rollout % self.minibatches != 0:
            raise PpoError("minibatches must divide the rollout length")
        if self.total_steps < self.rollout:
            raise PpoError("total_steps must cover at least one rollout")


@dataclass
class TrajectoryBuffer:
    """One rollout: row t holds the day step t acted on, its pre-clip draw,
    log-density, reward, value estimate and episode end; ``inputs[branch][day]`` is a day's
    policy input row, and ``bootstrap_value`` the value estimate after the last step."""

    inputs: dict[str, np.ndarray]
    day: np.ndarray
    u: np.ndarray
    old_log_prob: np.ndarray
    reward: np.ndarray
    value: np.ndarray
    done: np.ndarray
    bootstrap_value: float


def compute_gae(rewards, values, dones, bootstrap_value: float,
                gamma: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimation over a rollout that may span episodes.

    Returns raw (un-normalized) advantages and the value targets A + V.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    # The recursion runs on Python floats: the same IEEE arithmetic as numpy
    # scalars, without their per-element indexing cost.
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()
    adv = [0.0] * len(r)
    next_adv = 0.0
    next_value = float(bootstrap_value)
    for t in range(len(r) - 1, -1, -1):
        live = 0.0 if d[t] else 1.0
        delta = r[t] + gamma * next_value * live - v[t]
        next_adv = delta + gamma * lam * live * next_adv
        adv[t] = next_adv
        next_value = v[t]
    adv = np.array(adv)
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    std = adv.std()
    return (adv - adv.mean()) / (std if std > 0 else 1.0)


def prob_ratio(new_log_prob, old_log_prob):
    """exp(new - old), with the exponent clamped so the ratio stays finite."""
    delta = np.asarray(new_log_prob, dtype=np.float64) - old_log_prob
    return np.exp(np.clip(delta, -RATIO_EXP_CLAMP, RATIO_EXP_CLAMP))


def ppo_surrogate(rho, advantage, epsilon: float):
    """min(rho * A, clip(rho, 1-eps, 1+eps) * A); the loss negates its mean."""
    if not 0.0 < epsilon < 1.0:
        raise PpoError("epsilon must be in (0, 1)")
    rho = np.asarray(rho, dtype=np.float64)
    advantage = np.asarray(advantage, dtype=np.float64)
    return np.minimum(rho * advantage,
                      np.clip(rho, 1.0 - epsilon, 1.0 + epsilon) * advantage)


@dataclass
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float


def ppo_loss_and_grads(policy: policy_mod.Policy, batch: dict, config: PpoConfig,
                       rng: np.random.Generator | None = None
                       ) -> tuple[float, UpdateStats, np.ndarray]:
    """Total PPO loss on one minibatch plus its analytic gradient, laid out like
    ``policy.vector``; the policy's dropout runs if and only if ``rng`` is given.

    loss = -mean(surrogate) + value_coef * mean((returns - V)^2)
           - entropy_coef * entropy
    """
    out, cache = policy.forward(batch["obs"], rng, tape=True)
    mean = out.action_mean
    value = out.value
    std = policy.action_std
    n = len(mean)

    u = batch["u"]
    adv = batch["advantages"]
    ret = batch["returns"]
    new_log_prob = policy_mod.gaussian_log_prob(u, mean, std)
    entropy = policy_mod.gaussian_entropy(std)

    rho = prob_ratio(new_log_prob, batch["old_log_prob"])
    surrogate = ppo_surrogate(rho, adv, config.clip_epsilon)

    v_err = value - ret
    policy_loss = -surrogate.mean()
    value_loss = np.mean(v_err ** 2)
    loss = float(policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy)
    if not np.isfinite(loss):
        raise PpoError(f"non-finite PPO loss (policy={policy_loss}, value={value_loss})")

    # d loss / d new_log_prob: the min picks the unclipped term, or the clipped
    # one, which only moves with rho inside the clip band; where the ratio's
    # exponent clamp saturates, rho does not move at all.
    unclipped = rho * adv
    inside = (rho > 1.0 - config.clip_epsilon) & (rho < 1.0 + config.clip_epsilon)
    active = (unclipped <= surrogate) | inside
    active &= np.abs(new_log_prob - batch["old_log_prob"]) < RATIO_EXP_CLAMP
    d_log_prob = np.where(active, unclipped, 0.0) * (-1.0 / n)

    z = (u - mean) / std
    d_mean = d_log_prob * z / std
    d_log_std = float(np.sum(d_log_prob * (z * z - 1.0))) - config.entropy_coef
    d_value = 2.0 * config.value_coef * v_err / n

    grad = policy.backward(cache, d_mean, d_value, d_log_std)
    stats = UpdateStats(
        policy_loss=float(policy_loss),
        value_loss=float(value_loss),
        entropy=float(entropy),
        clip_fraction=float(np.mean(np.abs(rho - 1.0) > config.clip_epsilon)),
        approx_kl=float(np.mean(batch["old_log_prob"] - new_log_prob)),
    )
    return loss, stats, grad


def clip_grad_norm(grad: np.ndarray, slices: list[slice], max_norm: float) -> float:
    """Scale the flat gradient ``grad`` in place so its norm is at most
    ``max_norm``; returns the norm before scaling.

    ``slices`` cut ``grad`` into its parameters, as ``Policy.slices`` do. The
    norm adds the per-parameter sums of squares in their order, each summed
    over its own run, as a per-array sum would."""
    squares = grad * grad
    total = 0.0
    for s in slices:
        total += float(squares[s].sum())
    covered = sum(s.stop - s.start for s in slices)
    if covered != grad.size:
        raise PpoError(f"slices hold {covered} values, the gradient {grad.size}")
    total = float(np.sqrt(total))
    if total > max_norm:
        grad *= max_norm / total
    return total


def update(policy: policy_mod.Policy, buffer: TrajectoryBuffer, config: PpoConfig,
           adam: AdamState, rng: np.random.Generator) -> UpdateStats:
    """Several shuffled minibatch epochs over one rollout, against its
    normalized GAE advantages and value targets (``config.gamma``,
    ``config.gae_lambda``). A non-finite gradient norm raises ``PpoError``
    before that minibatch's Adam step, so no parameter takes it. Each step
    moves the whole ``policy.vector`` by its flat gradient."""
    adv, returns = compute_gae(buffer.reward, buffer.value, buffer.done,
                               buffer.bootstrap_value, config.gamma, config.gae_lambda)
    advantages = normalize_advantages(adv)
    n = len(buffer.u)
    mb_size = n // config.minibatches

    agg = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
           "clip_fraction": 0.0, "approx_kl": 0.0}
    passes = 0
    for _ in range(config.epochs_per_update):
        perm = rng.permutation(n)
        for k in range(config.minibatches):
            idx = perm[k * mb_size:(k + 1) * mb_size]
            days = buffer.day[idx]
            batch = {
                "obs": {name: table[days] for name, table in buffer.inputs.items()},
                "u": buffer.u[idx],
                "old_log_prob": buffer.old_log_prob[idx],
                "advantages": advantages[idx],
                "returns": returns[idx],
            }
            _, stats, grad = ppo_loss_and_grads(policy, batch, config, rng)
            grad_norm = clip_grad_norm(grad, policy.slices, config.max_grad_norm)
            if not math.isfinite(grad_norm):
                raise PpoError(f"non-finite gradient norm {grad_norm} before clipping")
            adam_step(policy.vector, grad, adam)
            for key in agg:
                agg[key] += getattr(stats, key)
            passes += 1
    return UpdateStats(**{k: v / passes for k, v in agg.items()})


def collect_rollout(env, policy: policy_mod.Policy, inputs: dict[str, np.ndarray], n_steps: int,
                    rng: np.random.Generator, ep_return=None, episode_returns=None):
    """Step the environment ``n_steps`` times under a frozen policy snapshot,
    resetting on episode end; the step on day d acts on row d of ``inputs``, the
    tables of ``policy.flatten_observation(env.windows)``. Returns the filled buffer
    and the running return of the episode in progress, for the next call's
    ``ep_return``; without one, the environment is reset first.

    Each step is ``sample_action`` on one row, on Python floats. The
    standard normals of an episode segment, up to its end or the rollout's,
    are one draw: the same stream as one draw per step, taken before the reset
    that may follow draws a random start. The log-densities are taken once,
    over the whole rollout."""
    rows: dict[int, dict[str, np.ndarray]] = {}

    def day_inputs(day: int) -> dict[str, np.ndarray]:
        row = rows.get(day)
        if row is None:
            row = rows[day] = {name: table[day:day + 1] for name, table in inputs.items()}
        return row

    if ep_return is None:
        env.reset(rng)
        ep_return = 0.0

    std = policy.action_std
    days, means, us, rewards, values = [], [], [], [], []
    done = np.zeros(n_steps, dtype=bool)
    t = 0
    while t < n_steps:
        start = env.state.day_index
        segment = range(start, start + min(env.end - start, n_steps - t))
        for day, z in zip(segment, rng.standard_normal(len(segment)).tolist()):
            out, _ = policy.forward(day_inputs(day), tape=False)
            mean = out.action_mean.item()
            u = mean + std * z
            reward, _ = env.step(min(max(u, -1.0), 1.0))
            means.append(mean)
            us.append(u)
            rewards.append(reward)
            values.append(out.value)
            ep_return += reward
        days.extend(segment)
        t += len(segment)
        if env.done:
            done[t - 1] = True
            if episode_returns is not None:
                episode_returns.append(ep_return)
            ep_return = 0.0
            env.reset(rng)

    out, _ = policy.forward(day_inputs(env.state.day_index), tape=False)
    u = np.array(us)
    buffer = TrajectoryBuffer(inputs, np.array(days, dtype=np.intp), u,
                              policy_mod.gaussian_log_prob(u, np.array(means), std),
                              np.array(rewards), np.concatenate(values), done, out.value[0])
    return buffer, ep_return


def train(policy: policy_mod.Policy, env, config: PpoConfig,
          rng: np.random.Generator, adam: AdamState | None = None,
          checkpoint_fn=None) -> list[dict]:
    """Alternate rollouts and updates until ``total_steps``; returns log rows.

    ``mean_ep_reward`` is the mean return of the last (up to) ten completed
    episodes. Fully deterministic given the rng seed.
    """
    if adam is None:
        adam = AdamState(policy.parameters(), config.learning_rate)
    recent = deque(maxlen=10)
    rows: list[dict] = []
    inputs = policy.flatten_observation(env.windows)
    ep_return = None
    n_updates = config.total_steps // config.rollout
    for k in range(1, n_updates + 1):
        episode_returns: list[float] = []
        buffer, ep_return = collect_rollout(env, policy, inputs, config.rollout, rng,
                                            ep_return, episode_returns=episode_returns)
        stats = update(policy, buffer, config, adam, rng)
        recent.extend(episode_returns)
        rows.append({
            "update": k,
            "steps": k * config.rollout,
            "mean_ep_reward": float(np.mean(recent)) if recent else 0.0,
            "policy_loss": stats.policy_loss,
            "value_loss": stats.value_loss,
            "entropy": stats.entropy,
            "clip_frac": stats.clip_fraction,
            "approx_kl": stats.approx_kl,
        })
        if checkpoint_fn is not None and config.checkpoint_every \
                and k % config.checkpoint_every == 0:
            checkpoint_fn(k, policy, adam)
    return rows

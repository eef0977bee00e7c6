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
        if self.minibatches < 1 or self.epochs_per_update < 1:
            raise PpoError("minibatches and epochs_per_update must be >= 1")
        if self.checkpoint_every < 0:
            raise PpoError("checkpoint_every must be >= 0")
        if self.rollout % self.minibatches != 0:
            raise PpoError("minibatches must divide the rollout length")
        if self.rollout < 1 or self.total_steps < self.rollout:
            raise PpoError("total_steps must cover at least one rollout")


class TrajectoryBuffer:
    """One rollout of ``n_steps``: row t holds step t's flattened observation,
    pre-clip draw, its log-density, reward, value estimate and episode end;
    ``bootstrap_value`` is the value estimate after the last step."""

    def __init__(self, n_steps: int, obs_dims: dict[str, int]):
        self.obs = {name: np.empty((n_steps, dim)) for name, dim in obs_dims.items()}
        self.u = np.empty(n_steps)
        self.old_log_prob = np.empty(n_steps)
        self.reward = np.empty(n_steps)
        self.value = np.empty(n_steps)
        self.done = np.zeros(n_steps, dtype=bool)
        self.bootstrap_value = 0.0


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
                       ) -> tuple[float, UpdateStats, list[np.ndarray]]:
    """Total PPO loss on one minibatch plus its analytic parameter gradients;
    the policy's dropout runs if and only if ``rng`` is given.

    loss = -mean(surrogate) + value_coef * mean((returns - V)^2)
           - entropy_coef * entropy
    """
    out, cache = policy.forward(batch["obs"], rng)
    mean = out.action_mean
    value = out.value
    std = out.action_std
    n = len(mean)

    u = batch["u"]
    adv = batch["advantages"]
    ret = batch["returns"]
    new_log_prob = policy_mod.gaussian_log_prob(u, mean, std)
    entropy = policy_mod.gaussian_entropy(std)

    rho = prob_ratio(new_log_prob, batch["old_log_prob"])
    surrogate = ppo_surrogate(rho, adv, config.clip_epsilon)

    v_err = value - ret
    loss = float(-surrogate.mean() + config.value_coef * np.mean(v_err ** 2)
                 - config.entropy_coef * entropy)
    if not np.isfinite(loss):
        raise PpoError(
            f"non-finite PPO loss (policy={-surrogate.mean()}, value={np.mean(v_err ** 2)})")

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

    grads = policy.backward(cache, d_mean, d_value, d_log_std)
    stats = UpdateStats(
        policy_loss=float(-surrogate.mean()),
        value_loss=float(np.mean(v_err ** 2)),
        entropy=float(entropy),
        clip_fraction=float(np.mean(np.abs(rho - 1.0) > config.clip_epsilon)),
        approx_kl=float(np.mean(batch["old_log_prob"] - new_log_prob)),
    )
    return loss, stats, grads


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def update(policy: policy_mod.Policy, buffer: TrajectoryBuffer, config: PpoConfig,
           adam: AdamState, rng: np.random.Generator) -> UpdateStats:
    """Several shuffled minibatch epochs over one rollout, against its
    normalized GAE advantages and value targets (``config.gamma``,
    ``config.gae_lambda``). A non-finite gradient norm raises ``PpoError``
    before that minibatch's Adam step, so no parameter takes it."""
    adv, returns = compute_gae(buffer.reward, buffer.value, buffer.done,
                               buffer.bootstrap_value, config.gamma, config.gae_lambda)
    advantages = normalize_advantages(adv)
    n = len(buffer.u)
    mb_size = n // config.minibatches
    params = policy.parameters()

    agg = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
           "clip_fraction": 0.0, "approx_kl": 0.0}
    passes = 0
    for _ in range(config.epochs_per_update):
        perm = rng.permutation(n)
        for k in range(config.minibatches):
            idx = perm[k * mb_size:(k + 1) * mb_size]
            batch = {
                "obs": {name: arr[idx] for name, arr in buffer.obs.items()},
                "u": buffer.u[idx],
                "old_log_prob": buffer.old_log_prob[idx],
                "advantages": advantages[idx],
                "returns": returns[idx],
            }
            _, stats, grads = ppo_loss_and_grads(policy, batch, config, rng)
            grad_norm = clip_grad_norm(grads, config.max_grad_norm)
            if not math.isfinite(grad_norm):
                raise PpoError(f"non-finite gradient norm {grad_norm} before clipping")
            adam_step(params, grads, adam)
            for key in agg:
                agg[key] += getattr(stats, key)
            passes += 1
    return UpdateStats(**{k: v / passes for k, v in agg.items()})


def collect_rollout(env, policy: policy_mod.Policy, n_steps: int,
                    rng: np.random.Generator, carry=None, episode_returns=None):
    """Step the environment ``n_steps`` times under a frozen policy snapshot,
    resetting on episode end; each step acts on
    ``env.observation(env.state.day_index)``. Returns the filled buffer and the
    carry state for the next rollout."""
    buffer = TrajectoryBuffer(n_steps, policy.config.input_dims())

    if carry is None:
        state = env.reset(rng)
        flat = policy.flatten_observation(env.observation(state.day_index))
        ep_return = 0.0
    else:
        flat, ep_return = carry

    for t in range(n_steps):
        out, _ = policy.forward(flat)
        action, u, log_prob = policy_mod.sample_action(out, rng)
        reward, _ = env.step(float(action[0]))
        done = env.done
        for name, rows in buffer.obs.items():
            rows[t] = flat[name][0]
        buffer.u[t] = u[0]
        buffer.old_log_prob[t] = log_prob[0]
        buffer.reward[t] = reward
        buffer.value[t] = out.value[0]
        buffer.done[t] = done
        ep_return += reward
        if done:
            if episode_returns is not None:
                episode_returns.append(ep_return)
            ep_return = 0.0
            env.reset(rng)
        flat = policy.flatten_observation(env.observation(env.state.day_index))

    out, _ = policy.forward(flat)
    buffer.bootstrap_value = out.value[0]
    return buffer, (flat, ep_return)


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
    carry = None
    n_updates = config.total_steps // config.rollout
    for k in range(1, n_updates + 1):
        episode_returns: list[float] = []
        buffer, carry = collect_rollout(env, policy, config.rollout, rng,
                                        carry=carry, episode_returns=episode_returns)
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

"""Parallel three-branch policy: frequency-specific feature networks whose
weighted outputs concatenate into the state fed to Gaussian policy and value
heads.

Each enabled branch flattens its window, runs a small dense network with
dropout, and is multiplied elementwise by a learned 16-vector before
concatenation. Actions are a scalar Gaussian with a state-independent log-std,
clipped to [-1, 1] at the environment boundary; log-densities are always taken
at the pre-clip draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .marketdata import LONG_SHAPE, MID_SHAPE, SHORT_SHAPE, Observation

LOG2PI = math.log(2.0 * math.pi)
BRANCH_NAMES = ("short", "mid", "long")


class PolicyError(Exception):
    pass


@dataclass(frozen=True)
class PolicyConfig:
    branches: tuple[str, ...] = BRANCH_NAMES
    garch_feature: bool = True
    branch_hidden: tuple[int, ...] = (32, 16)
    branch_out: int = 16
    dropout: float = 0.25
    trunk_hidden: int = 32
    init_log_std: float = -0.5
    log_std_min: float = -5.0
    log_std_max: float = 1.0

    def __post_init__(self):
        if not self.branches:
            raise PolicyError("at least one branch must be enabled")
        for b in self.branches:
            if b not in BRANCH_NAMES:
                raise PolicyError(f"unknown branch {b!r}")
        if len(set(self.branches)) != len(self.branches):
            raise PolicyError("duplicate branch names")

    def input_dims(self) -> dict[str, int]:
        mid_cols = MID_SHAPE[1] if self.garch_feature else MID_SHAPE[1] - 1
        dims = {
            "short": SHORT_SHAPE[0] * SHORT_SHAPE[1],
            "mid": MID_SHAPE[0] * mid_cols,
            "long": LONG_SHAPE[0] * LONG_SHAPE[1],
        }
        return {b: dims[b] for b in self.branches}

    @property
    def state_dim(self) -> int:
        return self.branch_out * len(self.branches)


@dataclass
class PolicyOutput:
    """Gaussian head outputs for a batch of observations: ``action_mean`` and
    ``value`` have shape (rows,); a single observation is a batch of one."""

    action_mean: np.ndarray
    action_std: float
    value: np.ndarray


@dataclass
class PolicyCache:
    branch_caches: dict = field(default_factory=dict)
    branch_outputs: dict = field(default_factory=dict)
    policy_cache: object = None
    value_cache: object = None


class Policy:
    """Parameter container plus forward/backward for the full actor-critic."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator):
        self.config = config
        dims = config.input_dims()
        sizes = lambda d: [d, *config.branch_hidden, config.branch_out]
        self.branches = {
            name: nn.mlp(sizes(dim), rng, tanh_out=True, dropout=config.dropout)
            for name, dim in dims.items()
        }
        self.branch_weights = {name: np.ones(config.branch_out) for name in config.branches}
        self.policy_trunk = nn.mlp([config.state_dim, config.trunk_hidden, 1], rng)
        self.value_trunk = nn.mlp([config.state_dim, config.trunk_hidden, 1], rng)
        self.log_std = np.array(config.init_log_std, dtype=np.float64)

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """(checkpoint name, array) for every parameter, in the one order that
        ``parameters()``, ``parameter_names()`` and ``backward`` share."""
        named: list[tuple[str, np.ndarray]] = []

        def add_dense(prefix: str, net: nn.Network) -> None:
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                named.append((f"{prefix}.dense{i}.weights", w))
                named.append((f"{prefix}.dense{i}.bias", b))

        for name in self.config.branches:
            add_dense(f"branch.{name}", self.branches[name])
            named.append((f"branch_weight.{name}", self.branch_weights[name]))
        add_dense("policy_trunk", self.policy_trunk)
        add_dense("value_trunk", self.value_trunk)
        named.append(("log_std", self.log_std))
        return named

    def parameters(self) -> list[np.ndarray]:
        return [p for _, p in self.named_parameters()]

    def parameter_names(self) -> list[str]:
        return [name for name, _ in self.named_parameters()]

    def set_parameters(self, values: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(values) != len(params):
            raise PolicyError(f"expected {len(params)} parameter arrays, got {len(values)}")
        for p, v in zip(params, values):
            v = np.asarray(v, dtype=np.float64)
            if v.shape != p.shape:
                raise PolicyError(f"parameter shape {v.shape} does not match {p.shape}")
            p[...] = v

    # -- observation handling ----------------------------------------------

    def flatten_observation(self, obs: Observation) -> dict[str, np.ndarray]:
        """Flatten the windows of the enabled branches, row-major, each into a
        one-row (1, dim) batch. The GARCH column is dropped from the mid window
        when the variant disables it."""
        flat = {}
        for name in self.config.branches:
            window = getattr(obs, f"{name}_window")
            if name == "mid" and not self.config.garch_feature:
                window = window[:, :6]
            flat[name] = window.reshape(1, -1)
        return flat

    # -- forward / backward --------------------------------------------------

    @property
    def action_std(self) -> float:
        # min/max on a Python float: np.clip's bits at a fraction of its call cost.
        clamped = min(max(float(self.log_std), self.config.log_std_min),
                      self.config.log_std_max)
        return float(np.exp(clamped))

    def assemble_state(self, flat_obs: dict[str, np.ndarray],
                       rng: np.random.Generator | None = None) -> tuple[np.ndarray, PolicyCache]:
        """The (rows, state_dim) concatenation of the weighted branch outputs
        for (rows, dim) branch inputs; the branches' dropout runs if and only
        if ``rng`` is given."""
        cache = PolicyCache()
        chunks = []
        for name in self.config.branches:
            out, cache.branch_caches[name] = nn.forward(self.branches[name], flat_obs[name], rng)
            cache.branch_outputs[name] = out
            # a (1, out) row, like the bias in nn.forward: same products, less set-up
            chunks.append(out * self.branch_weights[name][None])
        return np.concatenate(chunks, axis=1), cache

    def forward(self, flat_obs: dict[str, np.ndarray],
                rng: np.random.Generator | None = None) -> tuple[PolicyOutput, PolicyCache]:
        state, cache = self.assemble_state(flat_obs, rng)
        mean, cache.policy_cache = nn.forward(self.policy_trunk, state, rng)
        value, cache.value_cache = nn.forward(self.value_trunk, state, rng)
        return PolicyOutput(mean[:, 0], self.action_std, value[:, 0]), cache

    def backward(self, cache: PolicyCache, d_mean, d_value,
                 d_log_std: float = 0.0) -> list[np.ndarray]:
        """Gradients of a scalar loss given its (rows,) derivatives w.r.t. the
        action means and the value estimates, and its derivative w.r.t. the
        (raw) log-std. Output order matches ``parameters()``."""
        d_mean = np.asarray(d_mean, dtype=np.float64)[:, None]
        d_value = np.asarray(d_value, dtype=np.float64)[:, None]
        p_grads, d_state_p = nn.backward(self.policy_trunk, cache.policy_cache, d_mean)
        v_grads, d_state_v = nn.backward(self.value_trunk, cache.value_cache, d_value)
        d_state = d_state_p + d_state_v

        grads: list[np.ndarray] = []
        offset = 0
        width = self.config.branch_out
        for name in self.config.branches:
            d_chunk = d_state[:, offset:offset + width]
            offset += width
            b_out = cache.branch_outputs[name]
            d_branch_out = d_chunk * self.branch_weights[name]
            b_grads, _ = nn.backward(self.branches[name], cache.branch_caches[name],
                                     d_branch_out)
            grads.extend(b_grads)
            grads.append((d_chunk * b_out).sum(axis=0))
        grads.extend(p_grads)
        grads.extend(v_grads)

        # Clamped log-std saturates: no gradient outside the bounds.
        raw = float(self.log_std)
        inside = self.config.log_std_min < raw < self.config.log_std_max
        grads.append(np.array(d_log_std if inside else 0.0, dtype=np.float64))
        return grads


def gaussian_log_prob(u, mean, std: float):
    """Normal log-density at the pre-clip draw u."""
    z = (np.asarray(u, dtype=np.float64) - mean) / std
    return -0.5 * LOG2PI - math.log(std) - 0.5 * z * z


def gaussian_entropy(std: float) -> float:
    return 0.5 * (LOG2PI + 1.0) + math.log(std)


def sample_action(out: PolicyOutput, rng: np.random.Generator):
    """Draw u ~ N(mean, std) per row; the environment action is u clipped to
    [-1, 1].

    Returns (action, u, log_prob), each shaped like ``out.action_mean``, where
    log_prob is the density of the pre-clip draw, so ratios stay well-defined
    after saturation.
    """
    u = out.action_mean + out.action_std * rng.standard_normal(np.shape(out.action_mean))
    action = np.minimum(np.maximum(u, -1.0), 1.0)
    return action, u, gaussian_log_prob(u, out.action_mean, out.action_std)

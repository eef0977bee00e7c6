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
from .marketdata import WINDOW_SHAPES

LOG2PI = math.log(2.0 * math.pi)
BRANCH_NAMES = tuple(WINDOW_SHAPES)
VOL_COLUMN = WINDOW_SHAPES["mid"][1] - 1   # the mid window's last column: the GARCH forecast


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
        dims = {b: rows * cols for b, (rows, cols) in WINDOW_SHAPES.items()}
        if not self.garch_feature:
            dims["mid"] = WINDOW_SHAPES["mid"][0] * VOL_COLUMN
        return {b: dims[b] for b in self.branches}

    @property
    def state_dim(self) -> int:
        return self.branch_out * len(self.branches)


@dataclass
class PolicyOutput:
    """Gaussian head outputs for a batch of observations: ``action_mean`` and
    ``value`` have shape (rows,); a single observation is a batch of one. The
    std is the policy's, ``Policy.action_std``."""

    action_mean: np.ndarray
    value: np.ndarray


@dataclass
class PolicyCache:
    branch_caches: dict = field(default_factory=dict)
    policy_cache: object = None
    value_cache: object = None


class Policy:
    """Parameter container plus forward/backward for the full actor-critic.

    Every parameter array is a view into the one float64 ``vector``, in
    ``named_parameters`` order, so an optimizer can step them all at once, and
    the networks are built over those views."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator):
        self.config = config
        self.input_dims = config.input_dims()   # branch -> width of its input rows
        branch_sizes = {name: [dim, *config.branch_hidden, config.branch_out]
                        for name, dim in self.input_dims.items()}
        trunk_sizes = [config.state_dim, config.trunk_hidden, 1]

        def dense(prefix: str, sizes) -> list[tuple[str, tuple]]:
            names = [f"{prefix}.dense{i}.{kind}"
                     for i in range(len(sizes) - 1) for kind in ("weights", "bias")]
            return list(zip(names, nn.layer_shapes(sizes)))

        layout: list[tuple[str, tuple]] = []
        for name in config.branches:
            layout += dense(f"branch.{name}", branch_sizes[name])
            layout.append((f"branch_weight.{name}", (config.branch_out,)))
        layout += dense("policy_trunk", trunk_sizes) + dense("value_trunk", trunk_sizes)
        layout.append(("log_std", ()))
        self.shapes = [shape for _, shape in layout]
        self.vector = np.zeros(sum(math.prod(shape) for shape in self.shapes))
        self._named = [(name, view) for (name, _), view
                       in zip(layout, self.unflatten(self.vector))]
        views = dict(self._named)

        def build(prefix: str, sizes, **kwargs) -> nn.Network:
            params = [views[name] for name, _ in dense(prefix, sizes)]
            return nn.mlp(sizes, rng, params=params, **kwargs)

        self.branches = {name: build(f"branch.{name}", sizes, tanh_out=True,
                                     dropout=config.dropout)
                         for name, sizes in branch_sizes.items()}
        self.branch_weights = {name: views[f"branch_weight.{name}"] for name in config.branches}
        for weight in self.branch_weights.values():
            weight[...] = 1.0
        self.policy_trunk = build("policy_trunk", trunk_sizes)
        self.value_trunk = build("value_trunk", trunk_sizes)
        self.log_std = views["log_std"]
        self.log_std[...] = config.init_log_std
        # assemble_state's loop: each branch's network, its weights as a
        # (1, out) row and its columns of the state
        width = config.branch_out
        self._branch_plan = [(name, self.branches[name], self.branch_weights[name][None],
                              slice(k * width, (k + 1) * width))
                             for k, name in enumerate(config.branches)]

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """(checkpoint name, array) for every parameter, in ``vector`` order."""
        return list(self._named)

    def parameters(self) -> list[np.ndarray]:
        return [p for _, p in self._named]

    def unflatten(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a flat vector laid out like ``vector`` (a gradient, say),
        shaped like the parameters, in ``named_parameters`` order."""
        return nn.unflatten(vector, self.shapes)

    # -- observation handling ----------------------------------------------

    def flatten_observation(self, windows: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Flatten the windows of the enabled branches, row-major, into
        (days, dim) inputs, so one day is a one-row batch. The GARCH column is
        dropped from the mid window when the variant disables it."""
        flat = {}
        for name, dim in self.input_dims.items():
            window = windows[name]
            if name == "mid" and not self.config.garch_feature:
                window = window[..., :VOL_COLUMN]
            flat[name] = window.reshape(-1, dim)
        return flat

    # -- forward / backward --------------------------------------------------

    @property
    def action_std(self) -> float:
        # min/max on a Python float: np.clip's bits at a fraction of its call cost.
        clamped = min(max(float(self.log_std), self.config.log_std_min),
                      self.config.log_std_max)
        return float(np.exp(clamped))

    def assemble_state(self, flat_obs: dict[str, np.ndarray],
                       rng: np.random.Generator | None = None, tape: bool = True
                       ) -> tuple[np.ndarray, PolicyCache | None]:
        """The (rows, state_dim) concatenation of the weighted branch outputs
        for (rows, dim) branch inputs; the branches' dropout runs if and only
        if ``rng`` is given. The cache is recorded only when ``tape`` is set."""
        cache = PolicyCache() if tape else None
        state = None
        for name, net, weight_row, columns in self._branch_plan:
            out, branch_cache = nn.forward(net, flat_obs[name], rng, tape)
            if state is None:
                state = np.empty((len(out), self.config.state_dim))
            elif len(out) != len(state):
                raise PolicyError(f"branch {name!r} has {len(out)} rows, "
                                  f"the first branch {len(state)}")
            # a (1, out) row, like the bias in nn.forward: same products, less set-up
            np.multiply(out, weight_row, out=state[:, columns])
            if tape:
                cache.branch_caches[name] = branch_cache
        return state, cache

    def forward(self, flat_obs: dict[str, np.ndarray],
                rng: np.random.Generator | None = None, tape: bool = True
                ) -> tuple[PolicyOutput, PolicyCache | None]:
        """Action means and values for (rows, dim) branch inputs, and the cache
        ``backward`` reads. A caller that will not differentiate passes
        ``tape=False`` and gets None in place of the cache."""
        state, cache = self.assemble_state(flat_obs, rng, tape)
        mean, policy_cache = nn.forward(self.policy_trunk, state, rng, tape)
        value, value_cache = nn.forward(self.value_trunk, state, rng, tape)
        if tape:
            cache.policy_cache, cache.value_cache = policy_cache, value_cache
        return PolicyOutput(mean[:, 0], value[:, 0]), cache

    def backward(self, cache: PolicyCache, d_mean, d_value,
                 d_log_std: float = 0.0) -> np.ndarray:
        """Gradient of a scalar loss given its (rows,) derivatives w.r.t. the
        action means and the value estimates, and its derivative w.r.t. the
        (raw) log-std, as one flat vector laid out like ``vector``.

        The branches' inputs are data, so their gradient is never formed."""
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
            b_cache = cache.branch_caches[name]
            b_grads, _ = nn.backward(self.branches[name], b_cache,
                                     d_chunk * self.branch_weights[name], input_grad=False)
            grads.extend(b_grads)
            grads.append((d_chunk * b_cache.acts[-1]).sum(axis=0))
        grads.extend(p_grads)
        grads.extend(v_grads)

        # Clamped log-std saturates: no gradient outside the bounds.
        raw = float(self.log_std)
        inside = self.config.log_std_min < raw < self.config.log_std_max
        grads.append(np.array(d_log_std if inside else 0.0, dtype=np.float64))
        return np.concatenate([g.ravel() for g in grads])


def gaussian_log_prob(u, mean, std: float):
    """Normal log-density at the pre-clip draw u."""
    z = (np.asarray(u, dtype=np.float64) - mean) / std
    return -0.5 * LOG2PI - math.log(std) - 0.5 * z * z


def gaussian_entropy(std: float) -> float:
    return 0.5 * (LOG2PI + 1.0) + math.log(std)


def sample_action(out: PolicyOutput, std: float, rng: np.random.Generator):
    """Draw u ~ N(mean, std) per row; the environment action is u clipped to
    [-1, 1].

    Returns (action, u, log_prob), each shaped like ``out.action_mean``, where
    log_prob is the density of the pre-clip draw, so ratios stay well-defined
    after saturation.
    """
    u = out.action_mean + std * rng.standard_normal(np.shape(out.action_mean))
    action = np.minimum(np.maximum(u, -1.0), 1.0)
    return action, u, gaussian_log_prob(u, out.action_mean, std)

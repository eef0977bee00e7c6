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
from dataclasses import dataclass

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
        if not 0.0 <= self.dropout < 1.0:
            raise PolicyError(f"'dropout' must be in [0, 1), got {self.dropout}")
        if not self.branch_hidden:
            raise PolicyError("'branch_hidden' must list at least one layer width")
        narrowest = {"branch_hidden": min(self.branch_hidden),
                     "branch_out": self.branch_out, "trunk_hidden": self.trunk_hidden}
        for field, width in narrowest.items():
            if width < 1:
                raise PolicyError(f"{field!r} widths must be >= 1, got {getattr(self, field)}")

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
    branch_cache: nn.ForwardCache   # the branch stack's tape
    trunk_cache: nn.ForwardCache    # the trunk stack's tape


TRUNKS = ("policy_trunk", "value_trunk")


class Policy:
    """Parameter container plus forward/backward for the full actor-critic.

    The branches run as one ``nn`` stack with a member per branch, and the
    policy and value trunks as a second stack of two over the shared state.
    Every parameter array is a view into the one float64 ``vector``, which
    holds each level of a stack as one contiguous (members, ...) block, so an
    optimizer can step them all at once and the stacks read the blocks in
    place. ``named_parameters`` gives per-name views of those blocks in
    checkpoint order, and ``slices`` the run of ``vector`` each one views.

    An untaped forward without an rng is the acting pass: it writes every
    level but the last into buffers the policy owns, so one policy serves one
    caller at a time."""

    def __init__(self, config: PolicyConfig, rng: np.random.Generator):
        self._lay_out(config)
        # Weights are scaled-normal, drawn from rng name by name in named
        # order; biases stay zero.
        for name, p in self._named:
            if name.endswith(".weights"):
                p[...] = rng.normal(0.0, 1.0 / np.sqrt(p.shape[1]), size=p.shape)
        self._branch_weight_rows[...] = 1.0
        self.log_std[...] = config.init_log_std

    @classmethod
    def zeroed(cls, config: PolicyConfig) -> "Policy":
        """A policy of ``config`` whose every value is zero, built without a
        draw: for a caller that writes every value, as a load or a copy does."""
        policy = cls.__new__(cls)
        policy._lay_out(config)
        return policy

    def _lay_out(self, config: PolicyConfig) -> None:
        """The zero vector, its named views and slices, the two stacks over
        them, and the acting pass's entries for one row."""
        self.config = config
        self.input_dims = config.input_dims()   # branch -> width of its input rows
        k = len(config.branches)
        branch_sizes = [*config.branch_hidden, config.branch_out]
        trunk_sizes = [config.state_dim, config.trunk_hidden, 1]
        # the blocks in vector order: the first branch level's weights per
        # branch, then a (members, ...) block per weight, bias and branch
        # weight, then the trunks' blocks and the log-std
        block_shapes = [(branch_sizes[0], dim) for dim in self.input_dims.values()]
        block_shapes += [(k, branch_sizes[0])]
        block_shapes += [(k, *shape) for shape in nn.layer_shapes(branch_sizes)]
        block_shapes += [(k, config.branch_out)]
        block_shapes += [(len(TRUNKS), *shape) for shape in nn.layer_shapes(trunk_sizes)]
        block_shapes += [()]
        self.vector = np.zeros(sum(math.prod(shape) for shape in block_shapes))
        blocks = nn.unflatten(self.vector, block_shapes)
        # first: per branch; branch_blocks: bias0, weights1, bias1, ...
        n_branch_blocks = 2 * len(branch_sizes) - 1
        first, branch_blocks = blocks[:k], blocks[k:k + n_branch_blocks]
        branch_weight, *trunk_blocks, self.log_std = blocks[k + n_branch_blocks:]

        named: list[tuple[str, np.ndarray]] = []
        for m, name in enumerate(config.branches):
            named += self._dense_names(f"branch.{name}",
                                       [first[m], *(block[m] for block in branch_blocks)])
            named.append((f"branch_weight.{name}", branch_weight[m]))
        for m, name in enumerate(TRUNKS):
            named += self._dense_names(name, [block[m] for block in trunk_blocks])
        named.append(("log_std", self.log_std))
        self._named = named
        # Every named view is a contiguous run of vector: its slice starts at
        # the view's offset, in values, from the vector's first byte.
        start = self.vector.ctypes.data
        offsets = [(p.ctypes.data - start) // p.itemsize for _, p in named]
        self.slices = [slice(o, o + p.size) for o, (_, p) in zip(offsets, named)]

        self.branch_stack = nn.Network([list(first), *branch_blocks[1::2]],
                                       branch_blocks[0::2], tanh_out=True,
                                       dropout=config.dropout)
        self.trunk_stack = nn.Network(trunk_blocks[0::2], trunk_blocks[1::2])
        self._branch_weight_rows = branch_weight[:, None, :]
        self._lay_out_acting(1)

    def _lay_out_acting(self, rows: int) -> None:
        """The acting pass's entries for inputs of ``rows`` rows: per level it
        writes, the ``W.T`` view and bias row from the stack's ``layers`` and
        the (members, rows, out) buffer, plus the (rows, state_dim) state
        buffer. The trunks' last level has no buffer: its output is fresh per
        call."""
        def levels(layers):
            return [(w_t, b_row, np.empty((len(b_row), rows, b_row.shape[-1])))
                    for _, w_t, b_row, _, _ in layers]

        self._acting_rows = rows
        first, *self._acting_branch = levels(self.branch_stack.layers)
        # the first level's per-member weights and the member slices of its buffer
        self._acting_first = (*first, list(first[2]))
        (self._acting_trunk,) = levels(self.trunk_stack.layers[:-1])
        self._acting_state = np.empty((rows, self.config.state_dim))
        # Member m of this view is columns m*out:(m+1)*out of the state rows.
        self._acting_state_members = self._acting_state.reshape(
            rows, len(self.config.branches), -1).transpose(1, 0, 2)

    @staticmethod
    def _dense_names(prefix: str, params: list) -> list[tuple[str, np.ndarray]]:
        return [(f"{prefix}.dense{i // 2}.{'bias' if i % 2 else 'weights'}", p)
                for i, p in enumerate(params)]

    # -- parameter plumbing -------------------------------------------------

    def named_parameters(self) -> list[tuple[str, np.ndarray]]:
        """(checkpoint name, array) for every parameter: per branch its dense
        weights and biases and its branch weight, then the policy trunk, the
        value trunk and the log-std."""
        return list(self._named)

    def parameters(self) -> list[np.ndarray]:
        return [p for _, p in self._named]

    def __deepcopy__(self, memo) -> "Policy":
        """A policy of the same config over a copy of ``vector``: its views,
        stacks and acting buffers are its own, never this one's."""
        twin = Policy.zeroed(self.config)
        twin.vector[...] = self.vector
        return twin

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

    def _check_branch_rows(self, xs: list) -> None:
        """Raise the PolicyError that names the first branch whose rows differ
        from the first branch's; do nothing when all agree."""
        for name, x in zip(self.config.branches, xs):
            if len(x) != len(xs[0]):
                raise PolicyError(f"branch {name!r} has {len(x)} rows, "
                                  f"the first branch {len(xs[0])}") from None

    def assemble_state(self, flat_obs: dict[str, np.ndarray],
                       rng: np.random.Generator | None = None
                       ) -> tuple[np.ndarray, nn.ForwardCache]:
        """The (rows, state_dim) concatenation of the weighted branch outputs
        for (rows, dim) branch inputs, and the branch stack's tape; the
        branches' dropout runs if and only if ``rng`` is given."""
        xs = [flat_obs[name] for name in self.config.branches]
        try:
            out, branch_cache = nn.forward(self.branch_stack, xs, rng)
        except nn.NetworkError:
            self._check_branch_rows(xs)
            raise
        # Member m's weighted output goes to columns m*out:(m+1)*out of each row.
        weighted = np.multiply(out, self._branch_weight_rows)
        return weighted.transpose(1, 0, 2).reshape(len(xs[0]), -1), branch_cache

    def forward(self, flat_obs: dict[str, np.ndarray],
                rng: np.random.Generator | None = None, tape: bool = True
                ) -> tuple[PolicyOutput, PolicyCache | None]:
        """Action means and values for (rows, dim) branch inputs, and the cache
        ``backward`` reads. A caller that will not differentiate passes
        ``tape=False`` and gets None in place of the cache; without an rng
        that call is the acting pass, with one it runs the taped pass."""
        if not tape and rng is None:
            return self._act([flat_obs[name] for name in self.config.branches]), None
        state, branch_cache = self.assemble_state(flat_obs, rng)
        heads, trunk_cache = nn.forward(self.trunk_stack, state, rng)
        out = PolicyOutput(heads[0, :, 0], heads[1, :, 0])
        return out, PolicyCache(branch_cache, trunk_cache) if tape else None

    def _act(self, xs: list) -> PolicyOutput:
        """The acting pass: the taped pass's products, bias adds, tanhs (on
        every branch level and the trunks' hidden one, as the stacks are
        built) and branch weighting, in its order and with its bits, written
        into the buffers of ``_lay_out_acting``, which are rebuilt when the
        row count changes. The outputs view the last level's fresh array, so
        a caller may keep them across calls."""
        if len(xs[0]) != self._acting_rows:
            self._lay_out_acting(len(xs[0]))
        w_ts, b_row, h, h_members = self._acting_first
        try:
            for x, w_t, h_m in zip(xs, w_ts, h_members):
                np.dot(x, w_t, h_m)
        except ValueError:   # np.dot rejects an input whose shape does not fit its slice
            self._check_branch_rows(xs)
            raise nn.member_shape_error(xs, w_ts) from None
        h += b_row
        np.tanh(h, h)
        for w_t, b_row, buffer in self._acting_branch:
            h = np.matmul(h, w_t, buffer)
            h += b_row
            np.tanh(h, h)
        np.multiply(h, self._branch_weight_rows, self._acting_state_members)
        w_t, b_row, buffer = self._acting_trunk
        h = np.matmul(self._acting_state, w_t, buffer)
        h += b_row
        np.tanh(h, h)
        _, w_t, b_row, _, _ = self.trunk_stack.layers[-1]
        heads = np.matmul(h, w_t)
        heads += b_row
        return PolicyOutput(heads[0, :, 0], heads[1, :, 0])

    def backward(self, cache: PolicyCache, d_mean, d_value,
                 d_log_std: float = 0.0) -> np.ndarray:
        """Gradient of a scalar loss given its (rows,) derivatives w.r.t. the
        action means and the value estimates, and its derivative w.r.t. the
        (raw) log-std, as one flat vector laid out like ``vector``.

        The branches' inputs are data, so their gradient is never formed."""
        d_heads = np.stack([np.asarray(d_mean, dtype=np.float64),
                            np.asarray(d_value, dtype=np.float64)])[:, :, None]
        trunk_grads, d_state = nn.backward(self.trunk_stack, cache.trunk_cache, d_heads)

        rows, k = len(d_state), len(self.config.branches)
        d_out = d_state.reshape(rows, k, -1).transpose(1, 0, 2)
        d_branch = np.multiply(d_out, self._branch_weight_rows, order="C")
        branch_grads, _ = nn.backward(self.branch_stack, cache.branch_cache, d_branch)
        d_branch_weight = (d_out * cache.branch_cache.acts[-1]).sum(axis=1)

        # Clamped log-std saturates: no gradient outside the bounds.
        raw = float(self.log_std)
        inside = self.config.log_std_min < raw < self.config.log_std_max
        d_log_std = np.array(d_log_std if inside else 0.0, dtype=np.float64)
        return np.concatenate([g.ravel() for g in (*branch_grads[0], *branch_grads[1:],
                                                   d_branch_weight, *trunk_grads, d_log_std)])


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

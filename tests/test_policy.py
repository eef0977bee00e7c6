import math

import numpy as np
import pytest

from mctg import nn
from mctg.evalcli import VARIANTS
from mctg.marketdata import WINDOW_SHAPES, window_at
from mctg.policy import (LOG2PI, Policy, PolicyConfig, PolicyError,
                         gaussian_entropy, gaussian_log_prob, sample_action)

from helpers import policy_backward_per_array, tiny_policy_config


def random_observation(rng):
    return {kind: rng.normal(size=shape) for kind, shape in WINDOW_SHAPES.items()}


class TestConfig:
    def test_input_dims_full(self):
        dims = PolicyConfig().input_dims()
        assert dims == {"short": 288, "mid": 210, "long": 180}

    def test_input_dims_without_vol_feature(self):
        dims = PolicyConfig(garch_feature=False).input_dims()
        assert dims["mid"] == 180

    def test_state_dim_scales_with_branches(self):
        assert PolicyConfig().state_dim == 48
        assert PolicyConfig(branches=("mid",)).state_dim == 16

    def test_invalid_branches(self):
        with pytest.raises(PolicyError):
            PolicyConfig(branches=())
        with pytest.raises(PolicyError):
            PolicyConfig(branches=("short", "weekly"))
        with pytest.raises(PolicyError):
            PolicyConfig(branches=("mid", "mid"))


class TestFlatten:
    def test_drops_vol_column_when_disabled(self):
        rng = np.random.default_rng(0)
        obs = random_observation(rng)
        with_vol = Policy(tiny_policy_config(), rng).flatten_observation(obs)
        without = Policy(tiny_policy_config(garch_feature=False), rng).flatten_observation(obs)
        assert with_vol["mid"].shape == (1, 210)
        assert without["mid"].shape == (1, 180)
        assert np.array_equal(without["mid"].reshape(30, 6), obs["mid"][:, :6])

    def test_single_branch_variant(self):
        rng = np.random.default_rng(1)
        policy = Policy(tiny_policy_config(branches=("mid",)), rng)
        flat = policy.flatten_observation(random_observation(rng))
        assert set(flat) == {"mid"}

    def test_row_major_order(self):
        rng = np.random.default_rng(2)
        obs = random_observation(rng)
        flat = Policy(tiny_policy_config(), rng).flatten_observation(obs)
        assert flat["short"][0, 6] == obs["short"][1, 0]

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_day_axis_gives_the_stacked_single_day_rows(self, variant, small_dataset):
        ds = small_dataset
        policy = Policy(VARIANTS[variant].policy_config(), np.random.default_rng(4))
        table = policy.flatten_observation(ds.windows)
        assert set(table) == set(policy.config.branches)
        for name, rows in table.items():
            want = np.vstack([policy.flatten_observation(window_at(ds, d))[name]
                              for d in range(ds.n_days)])
            assert np.array_equal(rows, want)


class TestForward:
    def test_unit_weights_equal_plain_concat(self):
        rng = np.random.default_rng(3)
        policy = Policy(tiny_policy_config(), rng)
        flat = policy.flatten_observation(random_observation(rng))
        state, _ = policy.assemble_state(flat)
        chunks = [nn.forward(policy.branches[b], flat[b])[0]
                  for b in policy.config.branches]
        assert np.allclose(state, np.concatenate(chunks, axis=1), atol=1e-14)

    def test_zero_weight_annihilates_branch(self):
        rng = np.random.default_rng(4)
        policy = Policy(tiny_policy_config(), rng)
        policy.branch_weights["mid"][:] = 0.0
        flat = policy.flatten_observation(random_observation(rng))
        state, _ = policy.assemble_state(flat)
        k = policy.config.branch_out
        assert np.all(state[0, k:2 * k] == 0.0)
        assert np.any(state[0, :k] != 0.0)

    def test_compositional_oracle(self):
        # forward() must equal manual branch -> scale -> concat -> trunk chaining
        rng = np.random.default_rng(5)
        policy = Policy(tiny_policy_config(), rng)
        policy.branch_weights["short"][:] = rng.normal(size=3)
        flat = policy.flatten_observation(random_observation(rng))
        out, _ = policy.forward(flat)
        state = np.concatenate([
            nn.forward(policy.branches[b], flat[b])[0] * policy.branch_weights[b]
            for b in policy.config.branches
        ], axis=1)
        mean = nn.forward(policy.policy_trunk, state)[0]
        value = nn.forward(policy.value_trunk, state)[0]
        assert out.action_mean[0] == pytest.approx(mean[0, 0], abs=1e-14)
        assert out.value[0] == pytest.approx(value[0, 0], abs=1e-14)

    @pytest.mark.parametrize("log_std", [-20.0, -5.0, np.nextafter(-5.0, 0.0), -0.5,
                                         0.0, np.nextafter(1.0, 0.0), 1.0, 10.0,
                                         -np.inf, np.inf, np.nan])
    def test_action_std_clamp_matches_np_clip(self, log_std):
        # below, at and inside both bounds, above them, and non-finite
        policy = Policy(tiny_policy_config(), np.random.default_rng(6))
        policy.log_std[...] = log_std
        cfg = policy.config
        want = float(np.exp(np.clip(policy.log_std, cfg.log_std_min, cfg.log_std_max)))
        assert np.float64(policy.action_std).tobytes() == np.float64(want).tobytes()

    def test_action_std_clamped(self):
        rng = np.random.default_rng(6)
        policy = Policy(tiny_policy_config(), rng)
        policy.log_std[...] = 10.0
        assert policy.action_std == pytest.approx(math.e)
        policy.log_std[...] = -20.0
        assert policy.action_std == pytest.approx(math.exp(-5.0))

    def test_eval_mode_deterministic_with_dropout(self):
        rng = np.random.default_rng(7)
        policy = Policy(PolicyConfig(), rng)
        flat = policy.flatten_observation(random_observation(rng))
        a, _ = policy.forward(flat)
        b, _ = policy.forward(flat)
        assert a.action_mean[0] == b.action_mean[0] and a.value[0] == b.value[0]

    def test_batched_matches_single(self):
        rng = np.random.default_rng(8)
        policy = Policy(tiny_policy_config(), rng)
        obs = [random_observation(rng) for _ in range(5)]
        flats = [policy.flatten_observation(o) for o in obs]
        batch = {b: np.concatenate([f[b] for f in flats]) for b in policy.config.branches}
        out, _ = policy.forward(batch)
        for i, f in enumerate(flats):
            single, _ = policy.forward(f)
            assert out.action_mean[i] == pytest.approx(single.action_mean[0], abs=1e-14)
            assert out.value[i] == pytest.approx(single.value[0], abs=1e-14)


class TestParameters:
    def test_names_align_with_arrays(self):
        rng = np.random.default_rng(9)
        policy = Policy(tiny_policy_config(), rng)
        named = policy.named_parameters()
        params = policy.parameters()
        assert len(named) == len(params)
        assert all(a is b for (_, a), b in zip(named, params))
        names = [name for name, _ in named]
        assert len(set(names)) == len(names)
        assert names[-1] == "log_std"
        assert "branch_weight.short" in names


class TestBackward:
    def finite_difference(self, policy, flat, loss_fn, eps=1e-6):
        """Central-difference gradient of loss_fn() w.r.t. every parameter."""
        fd = []
        for p in policy.parameters():
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                hi = loss_fn()
                p[idx] = orig - eps
                lo = loss_fn()
                p[idx] = orig
                g[idx] = (hi - lo) / (2 * eps)
                it.iternext()
            fd.append(g)
        return fd

    def scalar_loss(self, policy, flat, cm, cv, cs):
        out, _ = policy.forward(flat)
        return cm * out.action_mean[0] + cv * out.value[0] \
            + cs * float(np.clip(policy.log_std, policy.config.log_std_min,
                                 policy.config.log_std_max))

    @pytest.mark.parametrize("cfg_kwargs", [
        {},
        {"branches": ("mid",), "garch_feature": False},
        {"branches": ("short", "long")},
    ])
    def test_full_gradient_vs_finite_difference(self, cfg_kwargs):
        rng = np.random.default_rng(13)
        policy = Policy(tiny_policy_config(**cfg_kwargs), rng)
        flat = policy.flatten_observation(random_observation(rng))
        cm, cv, cs = 0.7, -1.3, 0.4
        _, cache = policy.forward(flat)
        analytic = policy.backward(cache, np.array([cm]), np.array([cv]), d_log_std=cs)
        fd = self.finite_difference(policy, flat,
                                    lambda: self.scalar_loss(policy, flat, cm, cv, cs))
        for (name, _), a, b in zip(policy.named_parameters(), policy.unflatten(analytic), fd):
            denom = np.linalg.norm(a) + np.linalg.norm(b)
            rel = np.linalg.norm(a - b) / denom if denom > 0 else 0.0
            assert rel < 1e-5, f"{name}: relative error {rel}"

    @pytest.mark.parametrize("variant", ["MCTG", "MCT", "DNN", "DNN-GARCH"])
    @pytest.mark.parametrize("rows", [1, 256])
    def test_equal_to_full_nn_backward(self, variant, rows):
        # the flat gradient holds, bit for bit, what the per-array backward
        # through every branch input gradient gives, dropout on
        rng = np.random.default_rng(16)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        flat = {name: rng.normal(size=(rows, dim)) for name, dim in policy.input_dims.items()}
        _, cache = policy.forward(flat, rng)
        d_mean, d_value = rng.normal(size=rows), rng.normal(size=rows)
        grad = policy.backward(cache, d_mean, d_value, d_log_std=0.3)
        want = policy_backward_per_array(policy, cache, d_mean, d_value, d_log_std=0.3)
        assert grad.shape == policy.vector.shape
        for (name, _), got, ref in zip(policy.named_parameters(), policy.unflatten(grad),
                                       want, strict=True):
            assert got.shape == ref.shape and np.array_equal(got, ref), name

    def test_log_std_gradient_zero_at_clamp(self):
        rng = np.random.default_rng(14)
        policy = Policy(tiny_policy_config(), rng)
        policy.log_std[...] = 5.0  # beyond log_std_max
        flat = policy.flatten_observation(random_observation(rng))
        _, cache = policy.forward(flat)
        grads = policy.backward(cache, np.zeros(1), np.zeros(1), d_log_std=2.0)
        assert grads[-1] == 0.0

    def test_branch_weight_gradient_closed_form(self):
        # d(state_k)/d(W_k) = branch output, so a loss = sum(state) gives
        # branch-weight gradients equal to the raw branch outputs.
        rng = np.random.default_rng(15)
        policy = Policy(tiny_policy_config(branches=("mid",)), rng)
        flat = policy.flatten_observation(random_observation(rng))
        state, cache = policy.assemble_state(flat)
        b_out = cache.branch_caches["mid"].acts[-1][0]
        # route d_state = 1 through a fake identity trunk gradient by using
        # backward on a forward pass whose trunks we bypass analytically:
        out, full_cache = policy.forward(flat)
        grads = policy.backward(full_cache, np.ones(1), np.zeros(1))
        names = [name for name, _ in policy.named_parameters()]
        gw = policy.unflatten(grads)[names.index("branch_weight.mid")]
        # chain rule: d mean / d W_k = (d mean / d state_k) * branch_out_k
        _, d_state = nn.backward(policy.policy_trunk, full_cache.policy_cache,
                                 np.array([[1.0]]))
        assert np.allclose(gw, d_state[0] * b_out, atol=1e-12)


class TestGaussianHead:
    def test_log_prob_standard_normal_at_mean(self):
        assert gaussian_log_prob(0.0, 0.0, 1.0) == pytest.approx(-0.5 * LOG2PI)

    def test_log_prob_hand_case(self):
        # N(1, 0.5) at u = 2: z = 2, logp = -.5 ln 2pi - ln .5 - 2
        expected = -0.5 * LOG2PI - math.log(0.5) - 2.0
        assert gaussian_log_prob(2.0, 1.0, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_log_prob_decreases_away_from_mean(self):
        lp = [gaussian_log_prob(u, 0.0, 0.7) for u in (0.0, 0.5, 1.0, 2.0)]
        assert lp == sorted(lp, reverse=True)

    def test_entropy_closed_form(self):
        assert gaussian_entropy(1.0) == pytest.approx(0.5 * (LOG2PI + 1.0))
        assert gaussian_entropy(1.0) == pytest.approx(1.4189385332046727)
        assert gaussian_entropy(2.0) - gaussian_entropy(1.0) == pytest.approx(math.log(2.0))

    def test_entropy_monotone_in_std(self):
        stds = [0.1, 0.5, 1.0, 3.0]
        ents = [gaussian_entropy(s) for s in stds]
        assert ents == sorted(ents)

    def test_sample_action_clip_matches_np_clip(self):
        # means chosen so the same-seed draws land exactly on each target
        targets = [-1.5, -1.0, 0.3, 1.0, 1.5]
        std = 0.7
        noise = std * np.random.default_rng(17).standard_normal(len(targets))
        mean = []
        for t, e in zip(targets, noise):
            m = t - e
            while m + e != t:
                m = np.nextafter(m, np.inf if m + e < t else -np.inf)
            mean.append(m)
        mean.append(np.nan)
        from mctg.policy import PolicyOutput
        out = PolicyOutput(action_mean=np.array(mean), action_std=std,
                           value=np.zeros(len(mean)))
        action, u, logp = sample_action(out, np.random.default_rng(17))
        assert np.array_equal(u[:-1], targets)
        want = np.clip(u, -1.0, 1.0)
        assert action.tobytes() == want.tobytes()
        assert np.array_equal(logp, gaussian_log_prob(u, out.action_mean, std),
                              equal_nan=True)

    def test_sampled_actions_always_in_range(self):
        rng = np.random.default_rng(16)
        from mctg.policy import PolicyOutput
        out = PolicyOutput(action_mean=rng.normal(0, 2, size=1_000_000),
                           action_std=1.5, value=np.zeros(1))
        action, u, logp = sample_action(out, rng)
        assert np.all(action >= -1.0) and np.all(action <= 1.0)
        # log-prob is of the pre-clip draw
        assert np.allclose(logp, gaussian_log_prob(u, out.action_mean, 1.5))
        assert np.any(np.abs(u) > 1.0)

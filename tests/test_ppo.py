import itertools

import numpy as np
import pytest

from mctg.env import EnvConfig, TradingEnv
from mctg.evalcli import VARIANTS
from mctg.nn import AdamState
from mctg.policy import Policy, PolicyConfig, gaussian_log_prob
from mctg.ppo import (PpoConfig, PpoError, clip_grad_norm,
                      collect_rollout, compute_gae, normalize_advantages,
                      ppo_loss_and_grads, ppo_surrogate, prob_ratio, train,
                      update)
from conftest import first_days
from helpers import collect_rollout_per_step, unflatten


def dnn_policy(rng):
    return Policy(VARIANTS["DNN"].policy_config(), rng)


def random_batch(policy, rng, n=8):
    dims = policy.config.input_dims()
    return {
        "obs": {name: rng.normal(size=(n, d)) for name, d in dims.items()},
        "u": rng.normal(size=n),
        "old_log_prob": rng.normal(-1.5, 0.3, size=n),
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
    }


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(PpoError):
            PpoConfig(clip_epsilon=0.0)
        with pytest.raises(PpoError):
            PpoConfig(rollout=10, minibatches=3)
        with pytest.raises(PpoError):
            PpoConfig(rollout=64, total_steps=32)
        with pytest.raises(PpoError, match="minibatches"):
            PpoConfig(minibatches=0)
        with pytest.raises(PpoError, match="epochs_per_update"):
            PpoConfig(epochs_per_update=0)
        with pytest.raises(PpoError, match="checkpoint_every"):
            PpoConfig(checkpoint_every=-1)


class TestGae:
    def suffix_oracle(self, rewards, values, dones, bootstrap, gamma, lam):
        """Direct per-index evaluation of the GAE sum definition."""
        n = len(rewards)
        vals = list(values) + [bootstrap]
        adv = np.zeros(n)
        for t in range(n):
            coeff = 1.0
            for k in range(t, n):
                nxt = 0.0 if dones[k] else vals[k + 1]
                delta = rewards[k] + gamma * nxt - vals[k]
                adv[t] += coeff * delta
                if dones[k]:
                    break
                coeff *= gamma * lam
        return adv

    def test_lambda_zero_is_td_error(self):
        rng = np.random.default_rng(0)
        r, v = rng.normal(size=6), rng.normal(size=6)
        dones = np.zeros(6, dtype=bool)
        adv, _ = compute_gae(r, v, dones, 0.5, gamma=0.9, lam=0.0)
        nxt = np.append(v[1:], 0.5)
        assert np.allclose(adv, r + 0.9 * nxt - v, atol=1e-12)

    def test_gamma_lambda_one_zero_values(self):
        r = np.array([1.0, 2.0, 3.0])
        adv, ret = compute_gae(r, np.zeros(3), np.zeros(3, dtype=bool),
                               0.0, gamma=1.0, lam=1.0)
        assert np.allclose(adv, [6.0, 5.0, 3.0], atol=1e-12)
        assert np.allclose(ret, adv)

    def test_terminal_blocks_bootstrap(self):
        r = np.array([1.0, 1.0])
        v = np.array([0.0, 0.0])
        adv, _ = compute_gae(r, v, np.array([True, True]), 100.0,
                             gamma=0.99, lam=0.95)
        assert np.allclose(adv, [1.0, 1.0], atol=1e-12)

    def test_matches_suffix_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            dones = rng.random(n) < 0.3
            boot = float(rng.normal())
            gamma, lam = float(rng.uniform(0.5, 1)), float(rng.uniform(0, 1))
            adv, ret = compute_gae(r, v, dones, boot, gamma, lam)
            want = self.suffix_oracle(r, v, dones, boot, gamma, lam)
            assert np.allclose(adv, want, atol=1e-12)
            assert np.allclose(ret, want + v, atol=1e-12)

    def test_exhaustive_short_episode_patterns(self):
        # every done-flag pattern up to length 6 against the direct summation
        rng = np.random.default_rng(2)
        for n in range(1, 7):
            for bits in itertools.product([False, True], repeat=n):
                r = rng.normal(size=n)
                v = rng.normal(size=n)
                dones = np.array(bits)
                adv, _ = compute_gae(r, v, dones, 0.7, 0.99, 0.95)
                want = self.suffix_oracle(r, v, dones, 0.7, 0.99, 0.95)
                assert np.allclose(adv, want, atol=1e-12)

    @staticmethod
    def indexed_loop(rewards, values, dones, bootstrap_value, gamma, lam):
        """The recursion indexing numpy arrays element by element: the oracle
        the Python-float loop must match bit for bit."""
        rewards = np.asarray(rewards, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        dones = np.asarray(dones, dtype=bool)
        n = len(rewards)
        adv = np.empty(n)
        next_adv = 0.0
        next_value = bootstrap_value
        for t in range(n - 1, -1, -1):
            live = 0.0 if dones[t] else 1.0
            delta = rewards[t] + gamma * next_value * live - values[t]
            next_adv = delta + gamma * lam * live * next_adv
            adv[t] = next_adv
            next_value = values[t]
        return adv, adv + values

    def test_bit_for_bit_with_indexed_loop(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 64, 1024):
            for done_rate in (0.0, 0.05, 0.5):
                r = rng.normal(0.0, 0.02, size=n)
                v = rng.normal(size=n)
                dones = rng.random(n) < done_rate
                # the bootstrap comes from a forward as a numpy scalar
                boot = np.float64(rng.normal())
                gamma, lam = float(rng.uniform(0.5, 1)), float(rng.uniform(0, 1))
                adv, ret = compute_gae(r, v, dones, boot, gamma, lam)
                want_adv, want_ret = self.indexed_loop(r, v, dones, boot, gamma, lam)
                assert adv.dtype == np.float64 and adv.shape == (n,)
                assert np.array_equal(adv, want_adv) and np.array_equal(ret, want_ret)

    def test_normalization(self):
        rng = np.random.default_rng(3)
        adv = normalize_advantages(rng.normal(2.0, 3.0, size=500))
        assert abs(adv.mean()) < 1e-9
        assert adv.std() == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(normalize_advantages(np.zeros(4)), np.zeros(4))


class TestSurrogate:
    def test_ratio_identity_and_hand_values(self):
        assert prob_ratio(0.0, 0.0) == pytest.approx(1.0)
        assert prob_ratio(np.log(2.0), 0.0) == pytest.approx(2.0)

    def test_ratio_exponent_clamped(self):
        assert np.isfinite(prob_ratio(1000.0, 0.0))
        assert prob_ratio(1000.0, 0.0) == pytest.approx(np.exp(50.0))

    def test_hand_cases(self):
        # positive advantage: ratio 1.5 clips to 1.2
        assert ppo_surrogate(1.5, 1.0, 0.2) == pytest.approx(1.2)
        # negative advantage: min picks the unclipped (more negative) term
        assert ppo_surrogate(1.5, -1.0, 0.2) == pytest.approx(-1.5)
        # ratio below the band with positive advantage is not clipped upward
        assert ppo_surrogate(0.5, 1.0, 0.2) == pytest.approx(0.5)
        assert ppo_surrogate(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    def test_unit_ratio_returns_advantage(self):
        adv = np.array([-2.0, 0.0, 3.5])
        assert np.allclose(ppo_surrogate(np.ones(3), adv, 0.2), adv)

    def test_never_exceeds_unclipped_or_band(self):
        rng = np.random.default_rng(4)
        rho = rng.uniform(0.0, 3.0, size=1000)
        adv = rng.normal(size=1000)
        s = ppo_surrogate(rho, adv, 0.2)
        assert np.all(s <= rho * adv + 1e-12)
        assert np.all(s <= np.clip(rho, 0.8, 1.2) * adv + 1e-12)

    def test_bad_epsilon(self):
        with pytest.raises(PpoError):
            ppo_surrogate(1.0, 1.0, 1.5)


class TestBuffer:
    def test_stored_log_probs_recomputable(self, small_dataset):
        # old_log_prob must equal the density of the stored pre-clip draw
        rng = np.random.default_rng(5)
        policy = dnn_policy(np.random.default_rng(6))
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        inputs = policy.flatten_observation(env.windows)
        buf, _ = collect_rollout(env, policy, inputs, 32, rng)
        for i in range(32):
            out, _ = policy.forward({"mid": buf.inputs["mid"][buf.day[i:i + 1]]})
            lp = gaussian_log_prob(buf.u[i], out.action_mean, policy.action_std)
            assert buf.old_log_prob[i] == pytest.approx(lp[0], abs=1e-12)

    def test_done_bookkeeping(self, small_dataset):
        rng = np.random.default_rng(7)
        policy = dnn_policy(np.random.default_rng(8))
        env = TradingEnv(first_days(small_dataset, 6), EnvConfig())
        inputs = policy.flatten_observation(env.windows)
        buf, _ = collect_rollout(env, policy, inputs, 16, rng)
        # 5-step episodes: dones at indices 4, 9, 14
        assert list(np.nonzero(buf.done)[0]) == [4, 9, 14]

    def test_rows_are_the_env_observations_across_a_carry(self, small_dataset,
                                                          small_normalizer):
        rng = np.random.default_rng(9)
        policy = Policy(PolicyConfig(), np.random.default_rng(10))
        env = TradingEnv(first_days(small_dataset, 6), EnvConfig(), small_normalizer)
        returns = []
        inputs = policy.flatten_observation(env.windows)
        first, ep_return = collect_rollout(env, policy, inputs, 7, rng, episode_returns=returns)
        second, _ = collect_rollout(env, policy, inputs, 6, rng, ep_return,
                                    episode_returns=returns)
        # 5-step episodes: the carried return is that of steps 5 and 6, and
        # their episode ends at step 9, in the second rollout
        rewards = np.concatenate([first.reward, second.reward])
        assert returns == [sum(rewards[0:5].tolist()), sum(rewards[5:10].tolist())]
        for i in range(13):
            buf, row = (first, i) if i < 7 else (second, i - 7)
            assert buf.day[row] == i % 5
            expected = policy.flatten_observation(env.observation(i % 5))
            for name in policy.config.branches:
                assert np.array_equal(buf.inputs[name][buf.day[row]], expected[name][0])

    @pytest.mark.parametrize("random_start, n_days, lengths", [
        (False, 6, (7, 6, 2)),         # crosses episode ends, stops mid-episode
        (False, None, (40, 150)),      # one episode over the whole dataset
        (True, None, (300, 211, 1)),   # random starts: a reset draw between segments
        (True, 4, (9, 10)),            # the shortest episodes a random start leaves
    ])
    @pytest.mark.parametrize("log_std", [-0.5, 1.0])
    def test_equal_to_per_step_sampling(self, small_dataset, small_normalizer,
                                        random_start, n_days, lengths, log_std):
        dataset = small_dataset if n_days is None else first_days(small_dataset, n_days)
        policy = Policy(PolicyConfig(), np.random.default_rng(3))
        policy.log_std[...] = log_std
        runs = []
        for collect in (collect_rollout, collect_rollout_per_step):
            env = TradingEnv(dataset, EnvConfig(random_start=random_start), small_normalizer)
            inputs = policy.flatten_observation(env.windows)
            rng = np.random.default_rng(4)
            returns, ep_return, out = [], None, []
            for n in lengths:
                buf, ep_return = collect(env, policy, inputs, n, rng, ep_return,
                                         episode_returns=returns)
                out.append(buf if isinstance(buf, dict) else vars(buf))
            runs.append((out, ep_return, returns, rng.bit_generator.state))
        (got, got_ep, got_returns, got_state), (want, want_ep, want_returns, want_state) = runs
        for buf, ref in zip(got, want):
            for key, column in ref.items():
                assert np.array_equal(buf[key], column), key
                assert np.asarray(buf[key]).dtype == np.asarray(column).dtype, key
        assert (got_ep, got_returns, got_state) == (want_ep, want_returns, want_state)
        assert sum(np.count_nonzero(np.abs(b["u"]) > 1.0) for b in got) > 0


class TestLossAndGrads:
    def test_finite_difference_full_loss(self):
        rng = np.random.default_rng(9)
        policy = dnn_policy(rng)
        policy.log_std[...] = -0.4
        config = PpoConfig(rollout=8, minibatches=1, total_steps=8)
        batch = random_batch(policy, rng)

        def loss():
            l, _, _ = ppo_loss_and_grads(policy, batch, config)
            return l

        _, _, analytic = ppo_loss_and_grads(policy, batch, config)
        eps = 1e-6
        for p, g in zip(policy.parameters(), unflatten(policy, analytic)):
            fd = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                hi = loss()
                p[idx] = orig - eps
                lo = loss()
                p[idx] = orig
                fd[idx] = (hi - lo) / (2 * eps)
                it.iternext()
            denom = np.linalg.norm(g) + np.linalg.norm(fd)
            rel = np.linalg.norm(g - fd) / denom if denom > 0 else 0.0
            assert rel < 1e-5

    def test_policy_loss_is_the_surrogate(self):
        rng = np.random.default_rng(17)
        policy = dnn_policy(rng)
        config = PpoConfig(rollout=64, minibatches=1, total_steps=64)
        batch = random_batch(policy, rng, n=64)
        out, _ = policy.forward(batch["obs"])
        new = gaussian_log_prob(batch["u"], out.action_mean, policy.action_std)
        # rows 0-7 clamp the ratio's exponent (both signs); the rest spread
        # the ratio over about [0.6, 1.65], across both clip edges
        shift = np.concatenate([[80.0, -80.0] * 4, rng.uniform(-0.5, 0.5, size=56)])
        batch["old_log_prob"] = new + shift
        rho = prob_ratio(new, batch["old_log_prob"])
        assert np.sum(np.abs(rho - 1.0) > config.clip_epsilon) > 8

        _, stats, _ = ppo_loss_and_grads(policy, batch, config)
        want = -ppo_surrogate(rho, batch["advantages"], config.clip_epsilon).mean()
        assert stats["policy_loss"] == want

    def test_stats_ranges(self):
        rng = np.random.default_rng(10)
        policy = dnn_policy(rng)
        config = PpoConfig(rollout=8, minibatches=1, total_steps=8)
        _, stats, _ = ppo_loss_and_grads(policy, random_batch(policy, rng), config)
        assert list(stats) == ["policy_loss", "value_loss", "entropy", "clip_frac", "approx_kl"]
        assert 0.0 <= stats["clip_frac"] <= 1.0
        assert np.isfinite(stats["approx_kl"])
        assert stats["value_loss"] >= 0.0

    def test_null_gradient_at_self_consistent_batch(self):
        # evaluating the frozen policy on its own draws with zero advantages
        # and perfect value targets leaves only the entropy gradient, and with
        # entropy_coef = 0 every gradient is exactly zero
        rng = np.random.default_rng(11)
        policy = dnn_policy(rng)
        n = 8
        dims = policy.config.input_dims()
        obs = {name: rng.normal(size=(n, d)) for name, d in dims.items()}
        out, _ = policy.forward(obs)
        u = out.action_mean + 0.1  # arbitrary draws
        lp = gaussian_log_prob(u, out.action_mean, policy.action_std)
        batch = {"obs": obs, "u": u, "old_log_prob": lp,
                 "advantages": np.zeros(n), "returns": out.value.copy()}
        config = PpoConfig(rollout=8, minibatches=1, total_steps=8,
                           entropy_coef=0.0)
        _, _, grad = ppo_loss_and_grads(policy, batch, config)
        assert grad.shape == policy.vector.shape
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_grad_clipping(self):
        grad = np.array([3.0, 4.0])
        norm = clip_grad_norm(grad, [slice(0, 2)], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.allclose(grad, [0.6, 0.8])
        grad = np.array([0.3, 0.4])
        clip_grad_norm(grad, [slice(0, 2)], 1.0)
        assert np.allclose(grad, [0.3, 0.4])

    @pytest.mark.parametrize("variant", ["MCTG", "MCT", "DNN", "DNN-GARCH"])
    def test_flat_clip_equals_per_array_clip(self, variant):
        # the norm and the scaled gradient hold the bits of the per-array
        # form: one sum of squares per parameter, added in order
        rng = np.random.default_rng(40)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        for _ in range(20):
            size = policy.vector.size
            grad = rng.normal(size=size) * np.exp(rng.uniform(-25.0, 2.0, size=size))
            views = [g.copy() for g in unflatten(policy, grad)]
            want = float(np.sqrt(sum(float((g * g).sum()) for g in views)))
            max_norm = want * rng.uniform(0.5, 1.5)
            if want > max_norm:
                for g in views:
                    g *= max_norm / want
            assert clip_grad_norm(grad, policy.slices, max_norm) == want
            assert all(g.tobytes() == v.tobytes() for g, v in zip(unflatten(policy, grad), views))

    def test_grad_clipping_slices_must_cover_the_gradient(self):
        with pytest.raises(PpoError, match="slices hold 2 values, the gradient 3"):
            clip_grad_norm(np.ones(3), [slice(0, 2)], 1.0)


class TestTrainLoop:
    def run_train(self, small_dataset, seed, total_steps=128, rollout=64):
        policy = dnn_policy(np.random.default_rng(seed))
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        config = PpoConfig(rollout=rollout, minibatches=2, epochs_per_update=2,
                           total_steps=total_steps)
        rows = train(policy, env, config, np.random.default_rng(seed))
        return policy, rows

    def test_row_arithmetic(self, small_dataset):
        _, rows = self.run_train(small_dataset, seed=12)
        assert len(rows) == 2
        assert [r["update"] for r in rows] == [1, 2]
        assert [r["steps"] for r in rows] == [64, 128]
        for r in rows:
            assert set(r) == {"update", "steps", "mean_ep_reward", "policy_loss",
                              "value_loss", "entropy", "clip_frac", "approx_kl"}
            assert all(np.isfinite(v) for v in r.values())

    def test_bitwise_determinism(self, small_dataset):
        pa, ra = self.run_train(small_dataset, seed=13)
        pb, rb = self.run_train(small_dataset, seed=13)
        assert ra == rb
        for x, y in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(x, y)

    def test_parameters_actually_move(self, small_dataset):
        policy, _ = self.run_train(small_dataset, seed=14)
        fresh = dnn_policy(np.random.default_rng(14))
        moved = any(not np.array_equal(a, b)
                    for a, b in zip(policy.parameters(), fresh.parameters()))
        assert moved

    def test_update_scores_values_against_gae_returns_from_config(self, small_dataset):
        # one epoch of one minibatch scores the value estimates of the
        # update's own forward, which replays its permutation and dropout
        # draws, against GAE returns built from config.gamma/gae_lambda
        rng = np.random.default_rng(16)
        policy = dnn_policy(rng)
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        inputs = policy.flatten_observation(env.windows)
        buf, _ = collect_rollout(env, policy, inputs, 16, rng)
        config = PpoConfig(rollout=16, minibatches=1, epochs_per_update=1,
                           total_steps=16, gamma=0.5, gae_lambda=0.8)
        _, returns = compute_gae(buf.reward, buf.value, buf.done, buf.bootstrap_value,
                                 0.5, 0.8)
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        perm = replay.permutation(16)
        out, _ = policy.forward({"mid": inputs["mid"][buf.day[perm]]}, replay)
        adam = AdamState(policy.parameters(), config.learning_rate)
        stats = update(policy, buf, config, adam, rng)
        assert stats["value_loss"] == np.mean((out.value - returns[perm]) ** 2)
        # the dropout the update ran moves the estimates off the rollout's own
        assert stats["value_loss"] != np.mean((buf.value - returns) ** 2)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_raises_before_any_step(self, small_dataset, bad):
        # NaN reaches the loss. +inf in the branch's tanh output layer only
        # saturates it, so the loss stays finite, but backward multiplies
        # that weight by a zero derivative and the gradient norm is NaN.
        rng = np.random.default_rng(17)
        policy = dnn_policy(rng)
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        inputs = policy.flatten_observation(env.windows)
        buf, _ = collect_rollout(env, policy, inputs, 16, rng)
        config = PpoConfig(rollout=16, minibatches=2, epochs_per_update=2, total_steps=16)
        adam = AdamState(policy.parameters(), config.learning_rate)
        dict(policy.named_parameters())["branch.mid.dense1.weights"][0, 0] = bad
        before = [p.copy() for p in policy.parameters()]
        with pytest.raises(PpoError, match="non-finite"):
            update(policy, buf, config, adam, rng)
        for p, q in zip(policy.parameters(), before):
            assert np.array_equal(p, q, equal_nan=True)
        assert adam.step_count == 0

    @pytest.mark.parametrize("every, want", [(0, []), (2, [2])])
    def test_checkpoint_hook_fires_every_checkpoint_every_updates(
            self, small_dataset, every, want):
        # the final update gets no call of its own: the caller saves the
        # final state once, after train returns
        policy = dnn_policy(np.random.default_rng(15))
        env = TradingEnv(small_dataset, EnvConfig(random_start=True))
        config = PpoConfig(rollout=64, minibatches=2, epochs_per_update=1,
                           total_steps=192, checkpoint_every=every)
        calls = []
        train(policy, env, config, np.random.default_rng(15),
              checkpoint_fn=lambda k, p, a: calls.append(k))
        assert calls == want

import numpy as np
import pytest

from mctg import nn
from mctg.evalcli import VARIANTS
from mctg.marketdata import window_at
from mctg.nn import (AdamState, Network, NetworkError, adam_step, backward, forward,
                     grad_check, mlp, relative_error)
from mctg.policy import Policy


# -- oracle: the per-layer expression forward, kept to pin the in-place form ---

def oracle_forward(net, x, rng=None):
    """``tanh(h @ W.T + b)`` per layer, the output layer linear unless
    ``net.tanh_out``, dropout as in ``forward``; returns the output and the
    (inputs, acts, mask) a ForwardCache holds."""
    inputs, acts, mask = [], [], None
    h = np.asarray(x, dtype=np.float64)
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        if i == 1 and rng is not None and net.dropout > 0.0:
            keep = 1.0 - net.dropout
            mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        inputs.append(h)
        z = h @ w.T + b
        h = np.tanh(z) if i < last or net.tanh_out else z
        acts.append(h)
    return h, inputs, acts, mask


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def oracle_policy_forward(policy, flat, rng=None):
    chunks = [oracle_forward(policy.branches[b], flat[b], rng)[0]
              * policy.branch_weights[b] for b in policy.config.branches]
    state = np.concatenate(chunks, axis=1)
    mean = oracle_forward(policy.policy_trunk, state, rng)[0]
    value = oracle_forward(policy.value_trunk, state, rng)[0]
    return mean[:, 0], value[:, 0]


def dropout_rng(mode, seed):
    """An rng turns dropout on: one for "train", none for "eval"."""
    return np.random.default_rng(seed) if mode == "train" else None


def frozen(arrays):
    """Mark ``arrays`` read-only so any write into them raises."""
    for a in arrays:
        a.setflags(write=False)


# The layer shapes of the MCTG policy: three branches and the two trunks.
POLICY_NETS = {
    "short": ([288, 32, 16, 16], True, 0.25),
    "mid": ([210, 32, 16, 16], True, 0.25),
    "long": ([180, 32, 16, 16], True, 0.25),
    "trunk": ([48, 32, 1], False, 0.0),
}


class TestForwardOracle:
    @pytest.mark.parametrize("rows", [1, 256, 1024])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("name", sorted(POLICY_NETS))
    def test_bit_for_bit_with_per_layer_expression(self, name, mode, rows):
        sizes, tanh_out, dropout = POLICY_NETS[name]
        net = mlp(sizes, tanh_out=tanh_out, dropout=dropout,
                  rng=np.random.default_rng(11))
        x = np.random.default_rng(12).normal(size=(rows, sizes[0]))
        want, inputs, acts, mask = oracle_forward(net, x, dropout_rng(mode, 13))
        # forward may write only into arrays it created: input and parameters are frozen
        frozen([x, *net.parameters()])
        y, cache = forward(net, x, dropout_rng(mode, 13))
        assert np.array_equal(y, want)
        assert y is cache.acts[-1]
        assert_same_entries(cache.inputs, inputs)
        assert_same_entries(cache.acts, acts)
        if mode == "train" and dropout > 0.0:
            assert_same_entries([cache.mask], [mask])
        else:
            assert cache.mask is None and mask is None

    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_policy_forward_bit_for_bit(self, variant, rows, mode):
        rng = np.random.default_rng(16)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        flat = {b: rng.normal(size=(rows, d))
                for b, d in policy.config.input_dims().items()}
        want_mean, want_value = oracle_policy_forward(policy, flat, dropout_rng(mode, 17))
        frozen([*flat.values(), *policy.parameters()])
        out, _ = policy.forward(flat, dropout_rng(mode, 17))
        assert np.array_equal(out.action_mean, want_mean)
        assert np.array_equal(out.value, want_value)

    # DNN's mid input drops the GARCH column, a copy; DNN-GARCH's is a view.
    @pytest.mark.parametrize("variant", ["MCTG", "DNN-GARCH"])
    def test_read_only_dataset_row_view_stays_untouched(self, variant, small_dataset,
                                                        small_normalizer):
        dataset = small_normalizer.transform(small_dataset)
        policy = Policy(VARIANTS[variant].policy_config(), np.random.default_rng(18))
        flat = policy.flatten_observation(window_at(dataset, 40))
        views = [a for a in flat.values() if np.shares_memory(a, dataset.short_windows)
                 or np.shares_memory(a, dataset.mid_windows)
                 or np.shares_memory(a, dataset.long_windows)]
        assert views and not any(a.flags.writeable for a in views)
        before = {b: a.copy() for b, a in flat.items()}
        want_mean, want_value = oracle_policy_forward(policy, flat)
        out, _ = policy.forward(flat)
        assert np.array_equal(out.action_mean, want_mean)
        assert np.array_equal(out.value, want_value)
        for b, a in flat.items():
            assert np.array_equal(a, before[b])


class TestForward:
    def test_identity_network(self):
        net = Network([np.eye(4)], [np.zeros(4)])
        x = np.array([[1.0, -2.0, 3.0, 0.5]])
        y, _ = forward(net, x)
        assert np.array_equal(y, x)

    def test_eval_deterministic(self):
        net = mlp([6, 4, 2], dropout=0.5, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 6))
        y1, _ = forward(net, x)
        y2, _ = forward(net, x)
        assert np.array_equal(y1, y2)

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(NetworkError, match="rate"):
            Network([np.eye(2)], [np.zeros(2)], dropout=1.0)

    def test_shape_mismatch(self):
        net = mlp([4, 2], rng=np.random.default_rng(0))
        with pytest.raises(NetworkError, match="does not match"):
            forward(net, np.zeros((1, 5)))

    def test_one_d_input_rejected(self):
        # one observation is a batch of one row, never a bare vector
        net = mlp([4, 2], rng=np.random.default_rng(0))
        with pytest.raises(NetworkError, match="does not match"):
            forward(net, np.zeros(4))

    def test_batched_matches_loop(self):
        net = mlp([5, 4, 3], rng=np.random.default_rng(0))
        xs = np.random.default_rng(2).normal(size=(7, 5))
        batch, _ = forward(net, xs)
        singles = np.concatenate([forward(net, xs[i:i + 1])[0] for i in range(len(xs))])
        assert np.allclose(batch, singles, atol=1e-14)

    def test_inverted_dropout_preserves_expectation(self):
        rng = np.random.default_rng(3)
        net = mlp([6, 8, 4], dropout=0.25, rng=rng)
        x = rng.normal(size=(1, 6))
        y_eval, _ = forward(net, x)
        total = np.zeros((1, 4))
        n = 10_000
        for _ in range(n):
            y, _ = forward(net, x, rng)
            total += y
        # expectation holds at the masked layer; nonlinearity downstream is
        # checked loosely per unit
        assert np.all(np.abs(total / n - y_eval) < 0.02 * np.maximum(np.abs(y_eval), 1.0))


class TestBackward:
    def test_linear_closed_form(self):
        w = np.array([[2.0]])
        net = Network([w], [np.array([0.5])])
        x = np.array([[3.0]])
        y, cache = forward(net, x, np.random.default_rng(0))
        assert y[0, 0] == pytest.approx(6.5)
        grads, dx = backward(net, cache, np.array([[1.0]]))
        assert grads[0][0, 0] == pytest.approx(3.0)   # dw = x
        assert grads[1][0] == pytest.approx(1.0)      # db = 1
        assert dx[0, 0] == pytest.approx(2.0)         # dx = w

    def test_tanh_derivative_at_zero(self):
        net = Network([np.eye(1)], [np.zeros(1)], tanh_out=True)
        _, cache = forward(net, np.zeros((1, 1)))
        _, dx = backward(net, cache, np.ones((1, 1)))
        assert dx[0, 0] == pytest.approx(1.0)   # sech^2(0)

    def test_gradient_not_shaped_like_output_rejected(self):
        net = mlp([3, 2], rng=np.random.default_rng(0))
        _, cache = forward(net, np.zeros((4, 3)))
        for bad in (np.ones(2), np.ones((1, 2)), np.ones((4, 3))):
            with pytest.raises(NetworkError, match="gradient shape"):
                backward(net, cache, bad)

    def test_gradients_through_a_dropout_mask(self):
        rng = np.random.default_rng(21)
        net = mlp([5, 6, 4, 3], rng, tanh_out=True, dropout=0.5)
        x = rng.normal(size=(3, 5))
        c = rng.normal(size=(3, 3))

        def run():
            # A fresh rng of one seed draws the same mask: it depends only on
            # the rng and the shape, so every loss below holds the mask fixed.
            return forward(net, x, np.random.default_rng(22))

        def loss() -> float:
            return float(np.sum(run()[0] * c))

        _, cache = run()
        assert cache.mask is not None and 0 < np.count_nonzero(cache.mask) < cache.mask.size
        grads, dx = backward(net, cache, c)
        step = 1e-6
        worst = 0.0
        for p, g in zip([*net.parameters(), x], [*grads, dx]):
            flat = p.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss()
                flat[i] = orig - step
                down = loss()
                flat[i] = orig
                worst = max(worst, relative_error(float(g.ravel()[i]),
                                                  (up - down) / (2.0 * step)))
        assert worst < 1e-6

    def test_three_layer_finite_difference(self):
        rng = np.random.default_rng(4)
        net = mlp([6, 5, 4, 2], rng=rng)
        x = rng.normal(size=(1, 6))
        assert grad_check(net, x, rng) < 1e-5


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = [np.array([1.0, -2.0])]
        state = AdamState(p, 0.1)
        adam_step(p, [np.zeros(2)], state)
        assert np.array_equal(p[0], [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        p = [np.array([0.0])]
        state = AdamState(p, 0.1)
        adam_step(p, [np.array([1.0])], state)
        # bias-corrected first step is -lr * g / (|g| + eps) ~ -lr
        assert p[0][0] == pytest.approx(-0.1, rel=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            p = [rng.normal(size=(3, 2)), rng.normal(size=3)]
            state = AdamState(p, 0.01)
            for _ in range(20):
                adam_step(p, [rng.normal(size=(3, 2)), rng.normal(size=3)], state)
            return p

        a, b = run(), run()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_shape_mismatch(self):
        p = [np.zeros(3)]
        state = AdamState(p, 0.1)
        with pytest.raises(NetworkError):
            adam_step(p, [np.zeros(4)], state)


class TestGradCheck:
    def test_linear_net_tight(self):
        rng = np.random.default_rng(6)
        net = mlp([5, 3], rng=rng)
        # linear case leaves only central-difference roundoff
        assert grad_check(net, rng.normal(size=(1, 5)), rng) < 1e-7

    def test_random_tanh_net(self):
        rng = np.random.default_rng(7)
        net = mlp([32, 16, 8], rng=rng)
        assert grad_check(net, rng.normal(size=(1, 32)), rng) < 1e-5

    def test_randomized_networks_property(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            sizes = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 5)))]
            net = mlp(sizes, rng=rng)
            worst = max(worst, grad_check(net, rng.normal(size=(1, sizes[0])), rng))
        assert worst < 1e-5

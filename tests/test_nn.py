import numpy as np
import pytest

from mctg.evalcli import VARIANTS
from mctg.marketdata import window_at
from mctg.nn import AdamState, Network, NetworkError, adam_step, backward, forward, unflatten
from mctg.policy import Policy

from helpers import (adam_step_per_array, grad_check, member_networks, mlp, network_parameters,
                     relative_error, unflatten as unflatten_policy)


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
    nets, params = member_networks(policy), dict(policy.named_parameters())
    chunks = [oracle_forward(nets[b], flat[b], rng)[0]
              * params[f"branch_weight.{b}"] for b in policy.config.branches]
    state = np.concatenate(chunks, axis=1)
    mean = oracle_forward(nets["policy_trunk"], state, rng)[0]
    value = oracle_forward(nets["value_trunk"], state, rng)[0]
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
        frozen([x, *network_parameters(net)])
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
        views = [a for a in flat.values()
                 if any(np.shares_memory(a, w) for w in dataset.windows.values())]
        assert views and not any(a.flags.writeable for a in views)
        before = {b: a.copy() for b, a in flat.items()}
        want_mean, want_value = oracle_policy_forward(policy, flat)
        out, _ = policy.forward(flat)
        assert np.array_equal(out.action_mean, want_mean)
        assert np.array_equal(out.value, want_value)
        for b, a in flat.items():
            assert np.array_equal(a, before[b])


def stack_and_members(per_member_inputs, rng):
    """A three-member stack over one flat vector, and a ``Network`` per member
    over views of the same blocks: 20-, 12- and 7-wide inputs of their own,
    or one shared 9-wide input."""
    widths = [20, 12, 7] if per_member_inputs else [9, 9, 9]
    firsts = [rng.normal(size=(5, w)) for w in widths]
    blocks = [rng.normal(size=shape) for shape in [(3, 5), (3, 4, 5), (3, 4)]]
    w0 = firsts if per_member_inputs else np.stack(firsts)
    stack = Network([w0, blocks[1]], [blocks[0], blocks[2]], tanh_out=True, dropout=0.25)
    members = [Network([firsts[m], blocks[1][m]], [blocks[0][m], blocks[2][m]],
                       tanh_out=True, dropout=0.25) for m in range(3)]
    return stack, members, widths


class TestStack:
    @pytest.mark.parametrize("per_member_inputs", [True, False])
    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_stack_holds_the_bits_of_its_members(self, per_member_inputs, rows, mode):
        rng = np.random.default_rng(50)
        stack, members, widths = stack_and_members(per_member_inputs, rng)
        xs = [rng.normal(size=(rows, w)) for w in widths]
        x = xs if per_member_inputs else xs[0]
        y, cache = forward(stack, x, dropout_rng(mode, 51))
        member_rng = dropout_rng(mode, 51)
        runs = [forward(net, x_m if per_member_inputs else xs[0], member_rng)
                for net, x_m in zip(members, xs)]
        assert y.shape == (3, rows, 4)
        assert y.tobytes() == np.stack([out for out, _ in runs]).tobytes()

        g = rng.normal(size=y.shape)
        grads, d_input = backward(stack, cache, g)
        member_grads = [backward(net, tape, g_m) for net, (_, tape), g_m in zip(members, runs, g)]
        for i, got in enumerate(grads):
            want = [mg[0][i] for mg in member_grads]
            if isinstance(got, list):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
            else:
                assert got.tobytes() == np.stack(want).tobytes()
        d_inputs = [d for _, d in member_grads]
        if per_member_inputs:
            # members' own inputs are data: no gradient of them is formed
            assert d_input is None
        else:
            assert d_input.tobytes() == (d_inputs[0] + d_inputs[1] + d_inputs[2]).tobytes()

    def test_member_inputs_of_the_wrong_shape_or_count_rejected(self):
        stack, _, widths = stack_and_members(True, np.random.default_rng(52))
        for bad in ([np.zeros((1, w + 1)) for w in widths], [np.zeros((1, w)) for w in widths[:2]],
                    [np.zeros((1, w)) for w in widths] + [np.zeros((1, 3))],
                    [np.zeros((1 + m, w)) for m, w in enumerate(widths)],
                    [np.zeros(w) for w in widths]):
            with pytest.raises(NetworkError, match="member inputs of shapes"):
                forward(stack, bad)


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
        for p, g in zip([*network_parameters(net), x], [*grads, dx]):
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
        p = np.array([1.0, -2.0])
        state = AdamState([p], 0.1)
        adam_step(p, np.zeros(2), state)
        assert np.array_equal(p, [1.0, -2.0])
        assert state.step_count == 1

    def test_first_step_magnitude(self):
        p = np.array([0.0])
        state = AdamState([p], 0.1)
        adam_step(p, np.array([1.0]), state)
        # bias-corrected first step is -lr * g / (|g| + eps) ~ -lr
        assert p[0] == pytest.approx(-0.1, rel=1e-6)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            p = rng.normal(size=9)
            state = AdamState(unflatten(p, [(3, 2), (3,)]), 0.01)
            for _ in range(20):
                adam_step(p, rng.normal(size=9), state)
            return p

        assert np.array_equal(run(), run())

    def test_two_steps_match_textbook_update(self):
        rng = np.random.default_rng(11)
        vector = rng.normal(size=9)
        p = unflatten(vector, [(3, 2), (3,)])
        grads = [rng.normal(size=9) for _ in range(2)]
        expected = [q.copy() for q in p]
        m = [np.zeros_like(q) for q in p]
        v = [np.zeros_like(q) for q in p]
        state = AdamState(p, 0.01)
        for t, g_flat in enumerate(grads, start=1):
            adam_step(vector, g_flat, state)
            for q, g, m_q, v_q in zip(expected, unflatten(g_flat, [(3, 2), (3,)]), m, v):
                m_q[:] = 0.9 * m_q + (1.0 - 0.9) * g
                v_q[:] = 0.999 * v_q + (1.0 - 0.999) * g * g
                m_hat = m_q / (1.0 - 0.9 ** t)
                v_hat = v_q / (1.0 - 0.999 ** t)
                q -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert all(np.array_equal(a, b) for a, b in zip(p, expected))
        assert all(np.array_equal(a, b)
                   for a, b in zip(unflatten(state.m_vector, [(3, 2), (3,)]), m))
        assert all(np.array_equal(a, b)
                   for a, b in zip(unflatten(state.v_vector, [(3, 2), (3,)]), v))
        assert state.step_count == 2

    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    def test_flat_step_equals_per_array_step(self, variant):
        # five steps on a policy's vector against the per-array step, over
        # gradients spanning twelve orders of magnitude
        rng = np.random.default_rng(12)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        params = [q.copy() for q in policy.parameters()]
        m = [np.zeros_like(q) for q in params]
        v = [np.zeros_like(q) for q in params]
        state = AdamState(policy.parameters(), 2.5e-4)
        for t in range(1, 6):
            size = policy.vector.size
            g = rng.normal(size=size) * np.exp(rng.uniform(-25.0, 2.0, size=size))
            adam_step(policy.vector, g, state)
            adam_step_per_array(params, unflatten_policy(policy, g), m, v, t, 2.5e-4)
        assert all(np.array_equal(a, b) for a, b in zip(policy.parameters(), params))
        for moments, want in ((state.m_vector, m), (state.v_vector, v)):
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(unflatten_policy(policy, moments), want, strict=True))
        assert state.step_count == 5

    def test_shape_mismatch(self):
        p = np.zeros(3)
        state = AdamState([p], 0.1)
        with pytest.raises(NetworkError):
            adam_step(p, np.zeros(4), state)
        with pytest.raises(NetworkError):
            adam_step(np.zeros(4), np.zeros(4), state)


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

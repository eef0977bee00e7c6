import collections
import copy
import dataclasses
import math

import numpy as np
import pytest

from mctg import nn
from mctg import policy as policy_module
from mctg.evalcli import VARIANTS, Checkpoint
from mctg.marketdata import WINDOW_SHAPES, window_at
from mctg.policy import (BRANCH_HIDDEN, BRANCH_OUT, INIT_LOG_STD, LOG2PI, LOG_STD_MAX,
                         LOG_STD_MIN, Policy, PolicyConfig, PolicyError, PolicyOutput,
                         gaussian_entropy, gaussian_log_prob)

from helpers import (member_networks, policy_backward_per_array, policy_forward_per_member,
                     sample_action, unflatten)


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

    def test_a_config_is_its_branches_and_garch_feature(self):
        # the widths, dropout and log-std bounds are module constants
        assert [f.name for f in dataclasses.fields(PolicyConfig)] == ["branches",
                                                                      "garch_feature"]


class TestFlatten:
    def test_drops_vol_column_when_disabled(self):
        rng = np.random.default_rng(0)
        obs = random_observation(rng)
        with_vol = Policy(PolicyConfig(), rng).flatten_observation(obs)
        without = Policy(PolicyConfig(garch_feature=False), rng).flatten_observation(obs)
        assert with_vol["mid"].shape == (1, 210)
        assert without["mid"].shape == (1, 180)
        assert np.array_equal(without["mid"].reshape(30, 6), obs["mid"][:, :6])

    def test_single_branch_variant(self):
        rng = np.random.default_rng(1)
        policy = Policy(PolicyConfig(branches=("mid",)), rng)
        flat = policy.flatten_observation(random_observation(rng))
        assert set(flat) == {"mid"}

    def test_row_major_order(self):
        rng = np.random.default_rng(2)
        obs = random_observation(rng)
        flat = Policy(PolicyConfig(), rng).flatten_observation(obs)
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


def dropout_rng(seed):
    """None, or an rng of ``seed``: the forward runs with dropout off or on."""
    return None if seed is None else np.random.default_rng(seed)


class TestForward:
    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("seed", [None, 41])
    def test_unit_weights_equal_plain_concat(self, variant, rows, seed):
        rng = np.random.default_rng(3)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        flat = {b: rng.normal(size=(rows, d)) for b, d in policy.input_dims.items()}
        state, _ = policy.assemble_state(flat, dropout_rng(seed))
        member_rng, nets = dropout_rng(seed), member_networks(policy)
        chunks = [nn.forward(nets[b], flat[b], member_rng)[0] for b in policy.config.branches]
        assert state.tobytes() == np.concatenate(chunks, axis=1).tobytes()

    def test_zero_weight_annihilates_branch(self):
        rng = np.random.default_rng(4)
        policy = Policy(PolicyConfig(), rng)
        dict(policy.named_parameters())["branch_weight.mid"][:] = 0.0
        flat = policy.flatten_observation(random_observation(rng))
        state, _ = policy.assemble_state(flat)
        k = BRANCH_OUT
        assert np.all(state[0, k:2 * k] == 0.0)
        assert np.any(state[0, :k] != 0.0)

    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    @pytest.mark.parametrize("rows", [1, 256])
    @pytest.mark.parametrize("seed", [None, 42])
    def test_compositional_oracle(self, variant, rows, seed):
        # forward() holds the bits of branch -> scale -> concat -> trunk, run
        # one member network at a time
        rng = np.random.default_rng(5)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        for name, weight in policy.named_parameters():
            if name.startswith("branch_weight."):
                weight[:] = rng.normal(size=weight.shape)
        flat = {b: rng.normal(size=(rows, d)) for b, d in policy.input_dims.items()}
        for tape in (True, False):
            out, _ = policy.forward(flat, dropout_rng(seed), tape=tape)
            mean, value, _ = policy_forward_per_member(policy, flat, dropout_rng(seed))
            assert out.action_mean.tobytes() == mean.tobytes()
            assert out.value.tobytes() == value.tobytes()

    @pytest.mark.parametrize("tape", [True, False])
    def test_second_forward_leaves_the_first_output_alone(self, tape):
        rng = np.random.default_rng(43)
        policy = Policy(PolicyConfig(), rng)
        first_flat, second_flat = ({b: rng.normal(size=(1, d))
                                    for b, d in policy.input_dims.items()} for _ in range(2))
        first, cache = policy.forward(first_flat, tape=tape)
        kept = (first.action_mean.copy(), first.value.copy())
        acts = [a.copy() for a in cache.trunk_cache.acts] if tape else []
        second, _ = policy.forward(second_flat, tape=tape)
        assert second.action_mean[0] != kept[0][0]
        assert first.action_mean.tobytes() == kept[0].tobytes()
        assert first.value.tobytes() == kept[1].tobytes()
        if tape:
            assert all(np.array_equal(a, b) for a, b in zip(cache.trunk_cache.acts, acts))

    @pytest.mark.parametrize("log_std", [-20.0, -5.0, np.nextafter(-5.0, 0.0), -0.5,
                                         0.0, np.nextafter(1.0, 0.0), 1.0, 10.0,
                                         -np.inf, np.inf, np.nan])
    def test_action_std_clamp_matches_np_clip(self, log_std):
        # below, at and inside both bounds, above them, and non-finite
        policy = Policy(PolicyConfig(), np.random.default_rng(6))
        policy.log_std[...] = log_std
        want = float(np.exp(np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)))
        assert np.float64(policy.action_std).tobytes() == np.float64(want).tobytes()

    def test_action_std_clamped(self):
        rng = np.random.default_rng(6)
        policy = Policy(PolicyConfig(), rng)
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
        policy = Policy(PolicyConfig(), rng)
        obs = [random_observation(rng) for _ in range(5)]
        flats = [policy.flatten_observation(o) for o in obs]
        batch = {b: np.concatenate([f[b] for f in flats]) for b in policy.config.branches}
        out, _ = policy.forward(batch)
        for i, f in enumerate(flats):
            single, _ = policy.forward(f)
            assert out.action_mean[i] == pytest.approx(single.action_mean[0], abs=1e-14)
            assert out.value[i] == pytest.approx(single.value[0], abs=1e-14)


def forward_by_name(policy, flat):
    """``h @ W.T + b`` per layer from the arrays ``named_parameters`` gives,
    never through a ``Network``: the (means, values) those parameters define."""
    params = dict(policy.named_parameters())

    def dense(prefix, h, n_layers, tanh_out):
        for i in range(n_layers):
            h = h @ params[f"{prefix}.dense{i}.weights"].T + params[f"{prefix}.dense{i}.bias"]
            if i < n_layers - 1 or tanh_out:
                h = np.tanh(h)
        return h

    n_branch = len(BRANCH_HIDDEN) + 1
    state = np.concatenate([dense(f"branch.{b}", flat[b], n_branch, True)
                            * params[f"branch_weight.{b}"] for b in policy.config.branches],
                           axis=1)
    return (dense("policy_trunk", state, 2, False)[:, 0],
            dense("value_trunk", state, 2, False)[:, 0])


class TestTape:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("branch_hidden", [BRANCH_HIDDEN, (8,), (12, 8, 6)])
    def test_forward_without_tape_is_bit_equal(self, variant, rows, branch_hidden,
                                               monkeypatch):
        # the acting pass's entries are built per level, so the depth varies
        monkeypatch.setattr(policy_module, "BRANCH_HIDDEN", branch_hidden)
        rng = np.random.default_rng(30)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        assert len(policy.branch_stack.layers) == len(branch_hidden) + 1
        flat = {b: rng.normal(size=(rows, d)) for b, d in policy.input_dims.items()}
        taped, cache = policy.forward(flat)
        acting, none = policy.forward(flat, tape=False)
        assert cache is not None and none is None
        for got, want in ((acting.action_mean, taped.action_mean), (acting.value, taped.value)):
            assert got.shape == (rows,) and got.tobytes() == want.tobytes()
        # with dropout on, the same rng stream gives the same bits either way
        taped, _ = policy.forward(flat, np.random.default_rng(31))
        acting, none = policy.forward(flat, np.random.default_rng(31), tape=False)
        assert none is None
        assert acting.action_mean.tobytes() == taped.action_mean.tobytes()
        assert acting.value.tobytes() == taped.value.tobytes()

    def test_acting_forward_records_nothing(self):
        # only the acting pass goes untaped: assemble_state and nn.forward
        # always record their tape
        rng = np.random.default_rng(32)
        policy = Policy(PolicyConfig(), rng)
        flat = {b: rng.normal(size=(1, d)) for b, d in policy.input_dims.items()}
        out, none = policy.forward(flat, tape=False)
        assert none is None and out.action_mean.shape == (1,)
        state, cache = policy.assemble_state(flat)
        assert cache is not None and state.shape == (1, policy.config.state_dim)
        xs = [rng.normal(size=(1, d)) for d in policy.branch_stack.in_dim]
        for net, x in ((policy.branch_stack, xs), (policy.trunk_stack, state)):
            assert nn.forward(net, x)[1] is not None
            assert nn.forward(net, x, rng)[1] is not None

    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    @pytest.mark.parametrize("rows", [1, 4])
    def test_forward_reads_parameters_after_an_adam_step(self, variant, rows):
        rng = np.random.default_rng(33)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        flat = {b: rng.normal(size=(rows, d)) for b, d in policy.input_dims.items()}
        before, _ = policy.forward(flat, tape=False)
        adam = nn.AdamState(policy.parameters(), 1e-2)
        nn.adam_step(policy.vector, rng.normal(size=policy.vector.size), adam)
        for tape in (True, False):
            out, _ = policy.forward(flat, tape=tape)
            mean, value = forward_by_name(policy, flat)
            assert np.array_equal(out.action_mean, mean) and np.array_equal(out.value, value)
            assert not np.array_equal(out.action_mean, before.action_mean)

    @pytest.mark.parametrize("variant", ["MCTG", "DNN-GARCH"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_forward_reads_parameters_loaded_from_a_checkpoint(self, variant, rows):
        config = VARIANTS[variant].policy_config()
        trained = Policy(config, np.random.default_rng(34))
        trained.vector += np.random.default_rng(35).normal(0.0, 0.1, trained.vector.size)
        ck = Checkpoint(variant, trained.vector.copy(), 0, {}, {})
        loaded = ck.build_policy()
        flat = {b: np.random.default_rng(36).normal(size=(rows, d))
                for b, d in loaded.input_dims.items()}
        out, _ = loaded.forward(flat, tape=False)
        want, _ = trained.forward(flat, tape=False)
        mean, value = forward_by_name(loaded, flat)
        assert np.array_equal(out.action_mean, mean) and np.array_equal(out.value, value)
        assert np.array_equal(out.action_mean, want.action_mean)
        fresh, _ = Policy(config, np.random.default_rng(0)).forward(flat, tape=False)
        assert not np.array_equal(out.action_mean, fresh.action_mean)

    @pytest.mark.parametrize("tape", [True, False])
    def test_branches_of_unequal_rows_rejected(self, tape):
        rng = np.random.default_rng(37)
        policy = Policy(PolicyConfig(), rng)
        flat = {b: rng.normal(size=(2 if b == "short" else 1, d))
                for b, d in policy.input_dims.items()}
        with pytest.raises(PolicyError, match="'mid' has 1 rows, the first branch 2"):
            policy.forward(flat, tape=tape)

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("bad", ["width", "ndim"])
    def test_bad_inputs_raise_the_same_error_taped_and_acting(self, rows, bad):
        policy = Policy(PolicyConfig(), np.random.default_rng(38))
        shapes = {b: (rows, d) for b, d in policy.input_dims.items()}
        shapes["mid"] = (rows, shapes["mid"][1] + 1) if bad == "width" else (shapes["mid"][1],)
        flat = {b: np.zeros(shape) for b, shape in shapes.items()}
        messages = []
        for tape in (True, False):
            with pytest.raises((PolicyError, nn.NetworkError)) as err:
                policy.forward(flat, tape=tape)
            messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]
        # a 1-d mid input has as many rows as values, not the first branch's
        assert messages[0][0] is (nn.NetworkError if bad == "width" else PolicyError)
        # the acting pass still serves well-formed inputs afterwards
        good = {b: np.ones((rows, d)) for b, d in policy.input_dims.items()}
        acting, _ = policy.forward(good, tape=False)
        taped, _ = policy.forward(good)
        assert acting.action_mean.tobytes() == taped.action_mean.tobytes()

    def test_outputs_survive_later_calls_and_twins(self):
        # collect_rollout keeps every step's out.value; a row count that
        # changes rebuilds the buffers; a deep copy's buffers are its own
        rng = np.random.default_rng(39)
        policy = Policy(PolicyConfig(), rng)
        flats = [{b: rng.normal(size=(rows, d)) for b, d in policy.input_dims.items()}
                 for rows in (1, 1, 3, 1)]
        held = [policy.forward(flat, tape=False)[0] for flat in flats]
        want = [policy.forward(flat)[0] for flat in flats]
        twin = copy.deepcopy(policy)
        for flat in flats:
            twin.forward(flat, tape=False)
        for got, ref in zip(held, want, strict=True):
            assert got.action_mean.tobytes() == ref.action_mean.tobytes()
            assert got.value.tobytes() == ref.value.tobytes()


class TestParameters:
    def test_names_align_with_arrays(self):
        rng = np.random.default_rng(9)
        policy = Policy(PolicyConfig(), rng)
        named = policy.named_parameters()
        params = policy.parameters()
        assert len(named) == len(params)
        assert all(a is b for (_, a), b in zip(named, params))
        names = [name for name, _ in named]
        assert len(set(names)) == len(names)
        assert names[-1] == "log_std"
        assert "branch_weight.short" in names

    @pytest.mark.parametrize("variant", list(VARIANTS))
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_initial_vector_rebuilt_name_by_name(self, variant, seed):
        # per weight name in order a scaled-normal draw from an rng of the same
        # seed; biases 0, branch weights 1, the log-std at its initial value
        config = VARIANTS[variant].policy_config()
        rng = np.random.default_rng(seed)
        policy = Policy(config, rng)
        want_rng = np.random.default_rng(seed)
        want = np.empty_like(policy.vector)
        for s, (name, p) in zip(policy.slices, policy.named_parameters(), strict=True):
            if name.endswith(".weights"):   # shaped (out, fan_in)
                want[s] = want_rng.normal(0.0, 1.0 / math.sqrt(p.shape[1]), size=p.shape).ravel()
            elif name.startswith("branch_weight."):
                want[s] = 1.0
            elif name == "log_std":
                want[s] = INIT_LOG_STD
            else:
                assert name.endswith(".bias"), name
                want[s] = 0.0
        assert policy.vector.tobytes() == want.tobytes()
        assert rng.random() == want_rng.random()


def dense_layout(prefix, sizes):
    return [(f"{prefix}.dense{i}.{kind}", shape) for i, (n_in, n_out)
            in enumerate(zip(sizes[:-1], sizes[1:]))
            for kind, shape in (("weights", (n_out, n_in)), ("bias", (n_out,)))]


# The parameter names and shapes, pinned: per branch its dense layers and
# branch weight, then the policy trunk, the value trunk and the log-std.
NAMED_LAYOUT = {
    "MCTG": [*(entry for name, width in (("short", 288), ("mid", 210), ("long", 180))
               for entry in (*dense_layout(f"branch.{name}", [width, 32, 16, 16]),
                             (f"branch_weight.{name}", (16,)))),
             *dense_layout("policy_trunk", [48, 32, 1]),
             *dense_layout("value_trunk", [48, 32, 1]), ("log_std", ())],
    "DNN": [*dense_layout("branch.mid", [180, 32, 16, 16]), ("branch_weight.mid", (16,)),
            *dense_layout("policy_trunk", [16, 32, 1]),
            *dense_layout("value_trunk", [16, 32, 1]), ("log_std", ())],
}


def vector_order(branches):
    """The parameter names in the order their values lie in ``Policy.vector``,
    which is a checkpoint's layout: level by level, member by member, first the
    branches (weights, bias, ..., branch weight), then the two trunks, then the
    log-std."""
    dense = [f"dense{i}.{kind}" for i in range(3) for kind in ("weights", "bias")]
    return [*(f"branch.{b}.{kind}" for kind in dense for b in branches),
            *(f"branch_weight.{b}" for b in branches),
            *(f"{trunk}.{kind}" for kind in dense[:4]
              for trunk in ("policy_trunk", "value_trunk")),
            "log_std"]


class TestCheckpointLayout:
    @pytest.mark.parametrize("variant", sorted(NAMED_LAYOUT))
    def test_parameter_order_pinned(self, variant):
        policy = Policy(VARIANTS[variant].policy_config(), np.random.default_rng(44))
        assert [(name, p.shape) for name, p in policy.named_parameters()] \
            == NAMED_LAYOUT[variant]

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_vector_order_pinned(self, variant):
        # a change here changes what a checkpoint's vector means
        policy = Policy(VARIANTS[variant].policy_config(), np.random.default_rng(44))
        named = sorted(zip(policy.slices, policy.named_parameters()),
                       key=lambda entry: entry[0].start)
        assert [name for _, (name, _) in named] == vector_order(policy.config.branches)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_slices_cut_the_vector_into_the_named_parameters(self, variant):
        policy = Policy(VARIANTS[variant].policy_config(), np.random.default_rng(46))
        covered = np.zeros(policy.vector.size, dtype=int)
        for s, (name, p) in zip(policy.slices, policy.named_parameters(), strict=True):
            assert np.shares_memory(p, policy.vector[s]), name
            assert p.ravel().tobytes() == policy.vector[s].tobytes(), name
            covered[s] += 1
        assert np.all(covered == 1)


class CountingGenerator(np.random.Generator):
    """A Generator that counts its ``normal`` calls in ``normal_calls``."""

    normal_calls = 0

    def normal(self, *args, **kwargs):
        CountingGenerator.normal_calls += 1
        return super().normal(*args, **kwargs)


class TestBuildWithoutDraws:
    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    def test_load_and_copy_draw_nothing(self, variant, monkeypatch):
        # every rng the package makes counts its normal draws
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: CountingGenerator(np.random.PCG64(seed)))
        config = VARIANTS[variant].policy_config()
        CountingGenerator.normal_calls = 0
        policy = Policy(config, np.random.default_rng(50))
        assert CountingGenerator.normal_calls == sum(
            name.endswith(".weights") for name, _ in policy.named_parameters())
        ck = Checkpoint(variant, policy.vector.copy(), 0, {}, {})
        CountingGenerator.normal_calls = 0
        loaded, twin = ck.build_policy(), copy.deepcopy(policy)
        assert CountingGenerator.normal_calls == 0
        for built in (loaded, twin):
            assert built.vector.tobytes() == policy.vector.tobytes()
            assert not np.shares_memory(built.vector, policy.vector)

    def test_a_zeroed_policy_is_all_zeros_and_laid_out(self):
        config = VARIANTS["MCTG"].policy_config()
        policy, zeroed = Policy(config, np.random.default_rng(51)), Policy.zeroed(config)
        assert not zeroed.vector.any()
        assert zeroed.slices == policy.slices
        assert [(n, p.shape) for n, p in zeroed.named_parameters()] \
            == [(n, p.shape) for n, p in policy.named_parameters()]


class TestDeepCopy:
    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_copy_is_linked_and_independent(self, variant, rows):
        rng = np.random.default_rng(47)
        policy = Policy(VARIANTS[variant].policy_config(), rng)
        flat = {b: rng.normal(size=(rows, d)) for b, d in policy.input_dims.items()}
        before, _ = policy.forward(flat, tape=False)
        twin = copy.deepcopy(policy)
        same, _ = twin.forward(flat, tape=False)
        assert same.action_mean.tobytes() == before.action_mean.tobytes()
        twin.vector += rng.normal(0.0, 0.1, twin.vector.size)
        moved, _ = twin.forward(flat, tape=False)
        assert not np.array_equal(moved.action_mean, before.action_mean)
        mean, value, _ = policy_forward_per_member(twin, flat)
        assert moved.action_mean.tobytes() == mean.tobytes()
        assert moved.value.tobytes() == value.tobytes()
        after, _ = policy.forward(flat, tape=False)
        assert after.action_mean.tobytes() == before.action_mean.tobytes()
        assert after.value.tobytes() == before.value.tobytes()
        assert all(np.shares_memory(p, twin.vector) for p in twin.parameters())


class TestCallCount:
    def test_calls_do_not_grow_with_the_branches(self, monkeypatch):
        # one forward and one backward run the branches as one stack: as many
        # nn calls for MCTG's three branches as for DNN's one
        counts = collections.Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(nn, "forward", counting("forward", nn.forward))
        monkeypatch.setattr(nn, "backward", counting("backward", nn.backward))
        seen = {}
        for variant in ("MCTG", "DNN"):
            rng = np.random.default_rng(48)
            policy = Policy(VARIANTS[variant].policy_config(), rng)
            flat = {b: rng.normal(size=(4, d)) for b, d in policy.input_dims.items()}
            counts.clear()
            policy.forward(flat, tape=False)
            acting = dict(counts)
            counts.clear()
            _, cache = policy.forward(flat, rng)
            policy.backward(cache, rng.normal(size=4), rng.normal(size=4))
            seen[variant] = (acting, dict(counts))
        assert seen["MCTG"] == seen["DNN"]
        # the acting pass runs no nn.forward at all
        assert seen["MCTG"][0] == {} and seen["MCTG"][1]["backward"] > 0

    @pytest.mark.parametrize("variant", ["MCTG", "DNN"])
    def test_a_policy_builds_its_two_stacks_only(self, variant, monkeypatch):
        built = []
        init = nn.Network.__init__

        def counting(net, *args, **kwargs):
            built.append(net)
            init(net, *args, **kwargs)

        monkeypatch.setattr(nn.Network, "__init__", counting)
        policy = Policy(VARIANTS[variant].policy_config(), np.random.default_rng(49))
        assert len(built) == 2
        assert built[0] is policy.branch_stack and built[1] is policy.trunk_stack


class TestBackward:
    def finite_difference(self, policy, loss_fn, eps=1e-6):
        """Central-difference gradient of loss_fn() w.r.t. every value of
        ``policy.vector``, laid out like it."""
        vector, fd = policy.vector, np.zeros_like(policy.vector)
        for i in range(vector.size):
            orig = vector[i]
            vector[i] = orig + eps
            hi = loss_fn()
            vector[i] = orig - eps
            lo = loss_fn()
            vector[i] = orig
            fd[i] = (hi - lo) / (2 * eps)
        return fd

    def scalar_loss(self, policy, flat, cm, cv, cs):
        out, _ = policy.forward(flat, tape=False)
        return cm * out.action_mean[0] + cv * out.value[0] \
            + cs * float(np.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX))

    @pytest.mark.parametrize("cfg_kwargs", [
        {},
        {"branches": ("mid",), "garch_feature": False},
        {"branches": ("short", "long")},
    ])
    def test_full_gradient_vs_finite_difference(self, cfg_kwargs):
        rng = np.random.default_rng(13)
        policy = Policy(PolicyConfig(**cfg_kwargs), rng)
        flat = policy.flatten_observation(random_observation(rng))
        cm, cv, cs = 0.7, -1.3, 0.4
        _, cache = policy.forward(flat)
        analytic = policy.backward(cache, np.array([cm]), np.array([cv]), d_log_std=cs)
        fd = self.finite_difference(policy, lambda: self.scalar_loss(policy, flat, cm, cv, cs))
        for (name, _), a, b in zip(policy.named_parameters(), unflatten(policy, analytic),
                                   unflatten(policy, fd)):
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
        _, cache = policy.forward(flat, np.random.default_rng(17))
        d_mean, d_value = rng.normal(size=rows), rng.normal(size=rows)
        grad = policy.backward(cache, d_mean, d_value, d_log_std=0.3)
        want = policy_backward_per_array(policy, flat, np.random.default_rng(17),
                                         d_mean, d_value, d_log_std=0.3)
        assert grad.shape == policy.vector.shape
        for (name, _), got, ref in zip(policy.named_parameters(), unflatten(policy, grad),
                                       want, strict=True):
            assert got.shape == ref.shape and np.array_equal(got, ref), name

    def test_log_std_gradient_zero_at_clamp(self):
        rng = np.random.default_rng(14)
        policy = Policy(PolicyConfig(), rng)
        policy.log_std[...] = 5.0  # beyond LOG_STD_MAX
        flat = policy.flatten_observation(random_observation(rng))
        _, cache = policy.forward(flat)
        grads = policy.backward(cache, np.zeros(1), np.zeros(1), d_log_std=2.0)
        assert grads[-1] == 0.0

    def test_branch_weight_gradient_closed_form(self):
        # d(state_k)/d(W_k) = branch output, so the branch-weight gradient of
        # the mean is (d mean / d state_k) * branch_out_k.
        rng = np.random.default_rng(15)
        policy = Policy(PolicyConfig(branches=("mid",)), rng)
        flat = policy.flatten_observation(random_observation(rng))
        nets = member_networks(policy)
        b_out, _ = nn.forward(nets["mid"], flat["mid"])
        state, _ = policy.assemble_state(flat)
        _, full_cache = policy.forward(flat)
        grads = policy.backward(full_cache, np.ones(1), np.zeros(1))
        names = [name for name, _ in policy.named_parameters()]
        gw = unflatten(policy, grads)[names.index("branch_weight.mid")]
        _, trunk_cache = nn.forward(nets["policy_trunk"], state)
        _, d_state = nn.backward(nets["policy_trunk"], trunk_cache, np.array([[1.0]]))
        assert np.allclose(gw, d_state[0] * b_out[0], atol=1e-12)


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
        out = PolicyOutput(action_mean=np.array(mean), value=np.zeros(len(mean)))
        action, u, logp = sample_action(out, std, np.random.default_rng(17))
        assert np.array_equal(u[:-1], targets)
        want = np.clip(u, -1.0, 1.0)
        assert action.tobytes() == want.tobytes()
        assert np.array_equal(logp, gaussian_log_prob(u, out.action_mean, std),
                              equal_nan=True)

    def test_sampled_actions_always_in_range(self):
        rng = np.random.default_rng(16)
        out = PolicyOutput(action_mean=rng.normal(0, 2, size=1_000_000),
                           value=np.zeros(1))
        action, u, logp = sample_action(out, 1.5, rng)
        assert np.all(action >= -1.0) and np.all(action <= 1.0)
        # log-prob is of the pre-clip draw
        assert np.allclose(logp, gaussian_log_prob(u, out.action_mean, 1.5))
        assert np.any(np.abs(u) > 1.0)

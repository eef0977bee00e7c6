"""End-to-end acceptance suite.

Each test prints one ``[ACCEPTANCE] <criterion>: PASS|FAIL`` line (visible with
``pytest -s`` and in failure reports) and then asserts, so a red criterion is
both printed and a test failure.
"""

import itertools
import json
import math

import numpy as np
import pytest

from mctg import cli, evalcli, garch, nn, ppo
from mctg import marketdata as md
from mctg.env import EnvConfig, PortfolioState, TradingEnv, map_action
from mctg.policy import Policy, PolicyConfig

from conftest import TRUE_GARCH
from helpers import grad_check, tiny_policy_config


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}", flush=True)
    assert ok, f"{name}: {detail}"


# -- shared frozen market for the learning-signal criterion -------------------

@pytest.fixture(scope="module")
def frozen_market():
    gen = md.MarketGenParams(drift=0.004, alpha0=2.5e-6, alpha1=0.05,
                             beta1=0.90, regime_length=50)
    five_min = md.simulate_market(gen, 770, seed=2024)
    dataset = evalcli.build_dataset(five_min, 250, 20)
    boundary = dataset.trading_days[dataset.n_days - 220]
    train_ds, test_ds = md.split(dataset, boundary)
    normalizer = md.ObservationNormalizer().fit(train_ds, range(train_ds.n_days))
    return train_ds, test_ds, normalizer


def deterministic_episode_return(policy, dataset, normalizer) -> float:
    env = TradingEnv(dataset, EnvConfig(), normalizer)
    p = env.reset()
    total = 0.0
    while not env.done:
        out, _ = policy.forward(policy.flatten_observation(env.observation(p.day_index)))
        reward, _ = env.step(float(np.clip(out.action_mean[0], -1.0, 1.0)))
        total += reward
    return total


def test_volatility_model_recovery(garch_sample_10k, garch_fit_10k):
    p = garch_fit_10k.params
    ok = (abs(p.alpha1 - TRUE_GARCH.alpha1) < 0.05
          and abs(p.beta1 - TRUE_GARCH.beta1) < 0.05
          and abs(p.alpha0 / TRUE_GARCH.alpha0 - 1.0) < 0.5
          and garch_fit_10k.log_likelihood
          >= garch.log_likelihood(TRUE_GARCH, garch_sample_10k) - 1e-6)
    _line("volatility-model-recovery", ok,
          f"alpha1={p.alpha1:.4f} beta1={p.beta1:.4f} "
          f"alpha0_ratio={p.alpha0 / TRUE_GARCH.alpha0:.3f}")


def test_core_formulas_match_brute_force_oracles():
    rng = np.random.default_rng(101)
    worst_var = 0.0
    for _ in range(1000):
        a1 = rng.uniform(0.0, 0.4)
        b1 = rng.uniform(0.0, 0.95 - a1)
        params = garch.GarchParams(rng.uniform(-0.01, 0.01),
                                   10 ** rng.uniform(-6, -2), a1, b1)
        returns = rng.normal(0, 0.02, size=int(rng.integers(1, 30)))
        got = garch.filter_variances(params, returns)
        want = [params.unconditional_variance]
        for t in range(1, len(returns)):
            resid = returns[t - 1] - params.mu
            want.append(params.alpha0 + params.alpha1 * resid ** 2
                        + params.beta1 * want[-1])
        worst_var = max(worst_var, float(np.max(np.abs(got - np.array(want)))))

    worst_sur = 0.0
    for _ in range(1000):
        rho = float(rng.uniform(0.0, 3.0))
        adv = float(rng.normal())
        eps = float(rng.uniform(0.05, 0.5))
        got = float(ppo.ppo_surrogate(rho, adv, eps))
        want = min(rho * adv, min(max(rho, 1.0 - eps), 1.0 + eps) * adv)
        worst_sur = max(worst_sur, abs(got - want))

    ok = worst_var < 1e-12 and worst_sur < 1e-12
    _line("core-formula-oracles", ok,
          f"variance_err={worst_var:.2e} surrogate_err={worst_sur:.2e}")


def test_gradient_integrity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        sizes = [int(rng.integers(2, 8)) for _ in range(int(rng.integers(2, 5)))]
        net = nn.mlp(sizes, rng=rng)
        worst = max(worst, grad_check(net, rng.normal(size=(1, sizes[0])), rng))

    # full actor-critic gradients, every ablation variant
    worst_policy = 0.0
    for variant in evalcli.VARIANTS.values():
        policy = Policy(tiny_policy_config(variant.name), np.random.default_rng(103))
        obs = {kind: rng.normal(size=shape) for kind, shape in md.WINDOW_SHAPES.items()}
        flat = policy.flatten_observation(obs)
        cm, cv, cs = 0.6, -1.1, 0.3

        def loss():
            out, _ = policy.forward(flat)
            raw = float(np.clip(policy.log_std, policy.config.log_std_min,
                                policy.config.log_std_max))
            return cm * out.action_mean[0] + cv * out.value[0] + cs * raw

        _, cache = policy.forward(flat)
        analytic = policy.backward(cache, np.array([cm]), np.array([cv]), d_log_std=cs)
        eps = 1e-6
        for p, g in zip(policy.parameters(), policy.unflatten(analytic)):
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
            if denom > 0:
                worst_policy = max(worst_policy,
                                   float(np.linalg.norm(g - fd) / denom))

    ok = worst < 1e-5 and worst_policy < 1e-5
    _line("gradient-integrity", ok,
          f"net_err={worst:.2e} policy_err={worst_policy:.2e}")


def test_portfolio_accounting(small_dataset):
    cfg = EnvConfig()
    hand = (
        map_action(0.3, PortfolioState(100_000.0, 0, 0), 10.0, cfg).signed_shares == 2900
        and map_action(0.3, PortfolioState(100_000.0, 0, 0), 10.0, cfg).tax_paid == 29.0
        and map_action(-0.5, PortfolioState(0.0, 1000, 0), 10.0, cfg).signed_shares == -500
        and map_action(0.0, PortfolioState(50_000.0, 700, 0), 10.0, cfg).signed_shares == 0
        and map_action(1.0, PortfolioState(900.0, 0, 0), 10.0, cfg).signed_shares == 0
    )

    rng = np.random.default_rng(104)
    env = TradingEnv(small_dataset, cfg)
    steps = 0
    ok_random = True
    while steps < 100_000 and ok_random:
        env.reset()
        cash = cfg.initial_cash
        while not env.done and steps < 100_000:
            _, order = env.step(float(rng.uniform(-1, 1)))
            p = env.state
            price = float(env.opens[p.day_index])
            if order.signed_shares > 0:
                cash -= order.signed_shares * price + order.tax_paid
            else:
                cash += -order.signed_shares * price
            ok_random &= (p.cash >= 0.0
                          and p.shares >= 0
                          and p.shares % cfg.lot_size == 0
                          and abs(p.cash - cash) <= 1e-9 * max(cash, 1.0))
            steps += 1

    ok = hand and ok_random
    _line("portfolio-accounting", ok, f"{steps} random steps checked")


def test_advantage_estimation_exhaustive():
    rng = np.random.default_rng(105)
    worst = 0.0
    for n in range(1, 7):
        for bits in itertools.product([False, True], repeat=n):
            r = rng.normal(size=n)
            v = rng.normal(size=n)
            dones = np.array(bits)
            boot = float(rng.normal())
            adv, ret = ppo.compute_gae(r, v, dones, boot, 0.99, 0.95)
            vals = list(v) + [boot]
            want = np.zeros(n)
            for t in range(n):
                coeff = 1.0
                for k in range(t, n):
                    nxt = 0.0 if dones[k] else vals[k + 1]
                    want[t] += coeff * (r[k] + 0.99 * nxt - v[k])
                    if dones[k]:
                        break
                    coeff *= 0.99 * 0.95
            worst = max(worst, float(np.max(np.abs(adv - want))))
            worst = max(worst, float(np.max(np.abs(ret - (want + v)))))
    _line("advantage-estimation", worst < 1e-12, f"max_err={worst:.2e}")


@pytest.mark.slow
def test_learning_signal(frozen_market):
    train_ds, test_ds, normalizer = frozen_market
    improved = 0
    beat_bh = 0
    details = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        policy = Policy(PolicyConfig(), rng)
        before = deterministic_episode_return(policy, train_ds, normalizer)
        env = TradingEnv(train_ds, EnvConfig(), normalizer)
        ppo.train(policy, env, ppo.PpoConfig(total_steps=200_704), rng)
        after = deterministic_episode_return(policy, train_ds, normalizer)
        metrics, equity, _ = evalcli.backtest(policy, test_ds, EnvConfig(),
                                              normalizer)
        bh_pr, _ = evalcli.profit_rate([row["bh_value"] for row in equity])
        improved += after > before
        beat_bh += metrics.profit_rate_annualized > bh_pr
        details.append(f"s{seed}:{before:+.2f}->{after:+.2f},"
                       f"PR{metrics.profit_rate_annualized:+.3f}/BH{bh_pr:+.3f}")
    ok = improved >= 8 and beat_bh >= 6
    _line("learning-signal", ok,
          f"improved={improved}/10 beat_buy_and_hold={beat_bh}/10 "
          + " ".join(details))


def test_variant_ablation_end_to_end(tmp_path, small_five_min):
    data = tmp_path / "bars.csv"
    md.save_bars(small_five_min, str(data))
    config = tmp_path / "config.txt"
    config.write_text("garch.window = 120\ngarch.refit_every = 30\n"
                      "ppo.rollout = 64\nppo.minibatches = 2\n"
                      "ppo.epochs_per_update = 1\nenv.random_start = true\n")
    metrics_files = []
    ok = True
    for variant in ("DNN", "DNN-GARCH", "MCT", "MCTG"):
        out_dir = tmp_path / f"run_{variant}"
        ok &= cli.main(["train", "--data", str(data), "--variant", variant,
                        "--config", str(config), "--seed", "0",
                        "--total-steps", "128", "--out-dir", str(out_dir)]) == 0
        mpath = tmp_path / f"metrics_{variant}.json"
        ok &= cli.main(["backtest", "--checkpoint", str(out_dir / "checkpoint.json"),
                        "--data", str(data), "--segment", "test",
                        "--config", str(config),
                        "--out-metrics", str(mpath),
                        "--out-equity", str(tmp_path / f"equity_{variant}.csv")]) == 0
        metrics_files.append(str(mpath))
    table = tmp_path / "table.csv"
    ok &= cli.main(["report", "--out", str(table), *metrics_files]) == 0
    lines = table.read_text().splitlines()
    ok &= lines[0] == "variant,PR,TR" and len(lines) == 5
    variants = [line.split(",")[0] for line in lines[1:]]
    ok &= variants == ["DNN", "DNN-GARCH", "MCT", "MCTG"]
    prs = [float(line.split(",")[1]) for line in lines[1:]]
    ok &= all(math.isfinite(x) for x in prs)
    _line("variant-ablation", ok, f"PR per variant: {prs}")


def test_reproducibility(tmp_path, small_five_min):
    data = tmp_path / "bars.csv"
    md.save_bars(small_five_min, str(data))
    config = tmp_path / "config.txt"
    config.write_text("garch.window = 120\ngarch.refit_every = 30\n"
                      "ppo.rollout = 64\nppo.minibatches = 2\n"
                      "ppo.epochs_per_update = 1\nenv.random_start = true\n")
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / f"run_{run}"
        assert cli.main(["train", "--data", str(data), "--variant", "MCTG",
                         "--config", str(config), "--seed", "11",
                         "--total-steps", "128", "--out-dir", str(out_dir)]) == 0
        mpath = tmp_path / f"metrics_{run}.json"
        epath = tmp_path / f"equity_{run}.csv"
        assert cli.main(["backtest", "--checkpoint", str(out_dir / "checkpoint.json"),
                         "--data", str(data), "--segment", "test",
                         "--config", str(config), "--out-metrics", str(mpath),
                         "--out-equity", str(epath)]) == 0
        outputs.append(((out_dir / "log.csv").read_bytes(),
                        mpath.read_bytes(), epath.read_bytes()))
    ok = outputs[0] == outputs[1]
    pr = json.loads(outputs[0][1])["metrics"]["profit_rate_annualized"]
    _line("reproducibility", ok, f"identical logs, metrics, equity; PR={pr:.4f}")

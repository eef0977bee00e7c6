import numpy as np
import pytest

from mctg import evalcli, garch
from mctg import marketdata as md

from helpers import simulate_returns

TRUE_GARCH = garch.GarchParams(mu=0.0, alpha0=0.05, alpha1=0.10, beta1=0.85)


def first_days(dataset, n_days):
    """The dataset's first ``n_days`` trading days, cut by ``split``: an
    episode spans them."""
    return md.split(dataset, dataset.trading_days[n_days])[0]


@pytest.fixture(scope="session")
def garch_sample_10k():
    return simulate_returns(TRUE_GARCH, 10_000, np.random.default_rng(20240817))


@pytest.fixture(scope="session")
def garch_fit_10k(garch_sample_10k):
    return garch.fit(garch_sample_10k)


@pytest.fixture(scope="session")
def small_five_min():
    gen = md.MarketGenParams(drift=0.0005, alpha0=2.5e-6, alpha1=0.05, beta1=0.90)
    return md.simulate_market(gen, 220, seed=7)


@pytest.fixture(scope="session")
def small_dataset(small_five_min):
    return evalcli.build_dataset(small_five_min, garch_window=120, garch_refit_every=30)


@pytest.fixture(scope="session")
def small_normalizer(small_dataset):
    return md.ObservationNormalizer().fit(small_dataset, range(small_dataset.n_days))

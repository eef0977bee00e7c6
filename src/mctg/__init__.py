"""Multi-frequency continuous-share trading engine.

GARCH(1,1) volatility features, a parallel three-branch policy network trained
with PPO on a daily trading MDP, and a backtest harness reporting profit and
tax rates against a Buy&Hold baseline.

Importing ``mctg`` before numpy pins BLAS and OpenMP to one thread: OpenBLAS
splits some minibatch products differently by thread count, which changes the
last bits of training. A caller who imports numpy first must pin them itself.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

from .env import EnvConfig, Order, PortfolioState, TradingEnv, buy_and_hold, map_action
from .evalcli import (Metrics, VariantConfig, VARIANTS, backtest, load_checkpoint,
                      profit_rate, report, save_checkpoint, tax_rate)
from .garch import (FitReport, GarchParams, filter_variances, fit, log_likelihood,
                    rolling_forecast)
from .marketdata import (AlignedDataset, BarSeries, MarketGenParams, ObservationNormalizer,
                         align, load_bars, resample, simulate_market, split, window_at)
from .policy import Policy, PolicyConfig, PolicyOutput
from .ppo import PpoConfig, TrajectoryBuffer, compute_gae, ppo_surrogate, prob_ratio, train

__version__ = "0.1.0"

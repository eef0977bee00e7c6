import datetime as dt

import numpy as np
import pytest

from mctg import marketdata as md
from mctg.marketdata import (Frequency, MarketDataError, MarketGenParams,
                             ObservationNormalizer, align, load_bars, resample,
                             simulate_market, split, window_at)


def write_csv(tmp_path, rows, name="bars.csv"):
    path = tmp_path / name
    lines = ["timestamp,open,high,low,close,volume,amount"]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadBars:
    def test_three_row_csv(self, tmp_path):
        path = write_csv(tmp_path, [
            ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
            ("2020-01-06T09:35", 10.2, 10.4, 10.0, 10.1, 50, 505),
            ("2020-01-06T09:40", 10.1, 10.1, 10.0, 10.0, 80, 805),
        ])
        series = load_bars(path, Frequency.FIVE_MIN)
        assert len(series) == 3
        assert series.bar(0).open == 10.0
        assert series.bar(2).close == 10.0

    def test_high_below_low_names_row(self, tmp_path):
        path = write_csv(tmp_path, [
            ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
            ("2020-01-06T09:35", 10.2, 9.0, 10.0, 10.1, 50, 505),
        ])
        with pytest.raises(MarketDataError, match="row 3"):
            load_bars(path, Frequency.FIVE_MIN)

    def test_duplicate_timestamp(self, tmp_path):
        path = write_csv(tmp_path, [
            ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
            ("2020-01-06T09:30", 10.2, 10.4, 10.0, 10.1, 50, 505),
        ])
        with pytest.raises(MarketDataError, match="not after previous"):
            load_bars(path, Frequency.FIVE_MIN)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,open\n")
        with pytest.raises(MarketDataError, match="expected header"):
            load_bars(str(path), Frequency.FIVE_MIN)

    def test_roundtrip_save_load(self, small_five_min, tmp_path):
        path = str(tmp_path / "rt.csv")
        md.save_bars(small_five_min, path)
        back = load_bars(path, Frequency.FIVE_MIN)
        assert np.array_equal(back.values, small_five_min.values)
        assert back.timestamps == small_five_min.timestamps


def constant_day(date, price=10.0, volume=1.0):
    base = dt.datetime.combine(date, dt.time(9, 30))
    bars = [md.Bar(base + dt.timedelta(minutes=5 * k), price, price, price, price,
                   volume, volume * price) for k in range(48)]
    return bars


class TestResample:
    def test_constant_day(self):
        series = md.BarSeries.from_bars(Frequency.FIVE_MIN,
                                        constant_day(dt.date(2020, 1, 6)))
        daily, weekly = resample(series)
        assert len(daily) == 1 and len(weekly) == 1
        o, h, l, c, v, a = daily.values[0]
        assert (o, h, l, c) == (10.0, 10.0, 10.0, 10.0)
        assert v == 48.0

    def test_daily_high_is_max_of_bar_highs(self, small_five_min):
        daily, _ = resample(small_five_min)
        first_day = small_five_min.values[:48]
        assert daily.values[0, 1] == first_day[:, 1].max()
        assert daily.values[0, 2] == first_day[:, 2].min()

    def test_week_open_close_from_monday_friday(self):
        # Mon-Fri with a distinct constant price per day.
        bars = []
        for k, price in enumerate([10.0, 11.0, 12.0, 13.0, 14.0]):
            bars += constant_day(dt.date(2020, 1, 6) + dt.timedelta(days=k), price)
        daily, weekly = resample(md.BarSeries.from_bars(Frequency.FIVE_MIN, bars))
        assert len(daily) == 5 and len(weekly) == 1
        assert weekly.values[0, 0] == 10.0   # Monday's open
        assert weekly.values[0, 3] == 14.0   # Friday's close
        assert weekly.values[0, 1] == 14.0
        assert weekly.values[0, 2] == 10.0
        assert weekly.values[0, 4] == 5 * 48.0

    def test_incomplete_day_rejected(self):
        bars = constant_day(dt.date(2020, 1, 6))[:47]
        with pytest.raises(MarketDataError, match="47 bars"):
            resample(md.BarSeries.from_bars(Frequency.FIVE_MIN, bars))


def make_series(n_days, seed=0, **kwargs):
    gen = MarketGenParams(**kwargs)
    return simulate_market(gen, n_days, seed)


def minimum_history_bars():
    """30 weeks of weekly bars, but only the last 30 daily bars and their
    5-minute days: exactly one day admits a full window."""
    five_min = make_series(150)   # exactly 30 weeks
    daily, weekly = resample(five_min)
    daily30 = md.BarSeries(Frequency.DAILY, daily.timestamps[-30:],
                           daily.values[-30:])
    cutoff = dt.datetime.combine(daily30.timestamps[0].date(), dt.time())
    keep = [i for i, t in enumerate(five_min.timestamps) if t >= cutoff]
    fm = md.BarSeries(Frequency.FIVE_MIN,
                      [five_min.timestamps[i] for i in keep],
                      five_min.values[keep])
    return fm, daily30, weekly


def scanning_windows(five_min, daily, weekly, vol):
    """Trading days and their (short, mid, long) windows, found by scanning:
    a day's completed weeks are every weekly bar of an earlier ISO
    (year, week), and its partial week starts where the walk back through
    the daily bars leaves its ISO week. The reference for align/window_at."""
    full = {d: sl for d, sl in md._group_by_date(five_min).items()
            if sl.stop - sl.start == 48}
    dates = daily.dates()
    week_keys = [t.date().isocalendar()[:2] for t in weekly.timestamps]
    days, windows = [], []
    for i, d in enumerate(dates):
        key = d.isocalendar()[:2]
        completed = [w for w, k in enumerate(week_keys) if k < key]
        if i < 29 or d not in full or len(completed) < 29:
            continue
        j = i
        while j > 0 and dates[j - 1].isocalendar()[:2] == key:
            j -= 1
        days.append(d)
        windows.append((
            five_min.values[full[d]],
            np.hstack([daily.values[i - 29:i + 1], vol[i - 29:i + 1, None]]),
            np.vstack([weekly.values[completed[-29:]],
                       md._aggregate(daily.values[j:i + 1])]),
        ))
    return days, windows


def frozen_market_bars():
    """The acceptance suite's frozen market: 770 days from 2015-01-05, so
    ISO week 2015-W53 reaches into January 2016."""
    five_min = make_series(770, seed=2024, drift=0.004, regime_length=50)
    return (five_min, *resample(five_min))


def span_2020_bars():
    """Across ISO week 2020-W53, which ends on 2021-01-03."""
    five_min = make_series(220, seed=3, start_date=dt.date(2020, 6, 1))
    return (five_min, *resample(five_min))


class TestAlign:
    @pytest.mark.parametrize("bars", [frozen_market_bars, span_2020_bars,
                                      minimum_history_bars])
    def test_matches_scanning_oracle(self, bars):
        five_min, daily, weekly = bars()
        vol = np.linspace(0.01, 0.02, len(daily))
        ds = align(five_min, daily, weekly, vol)
        days, windows = scanning_windows(five_min, daily, weekly, vol)
        assert ds.trading_days == days
        for k, (short, mid, long) in enumerate(windows):
            obs = window_at(ds, k)
            assert np.array_equal(obs.short_window, short)
            assert np.array_equal(obs.mid_window, mid)
            assert np.array_equal(obs.long_window, long)

    def test_thirty_five_weeks(self):
        five_min = make_series(175)   # exactly 35 Mon-Fri weeks
        daily, weekly = resample(five_min)
        assert len(weekly) == 35
        vol = np.full(len(daily), 0.01)
        ds = align(five_min, daily, weekly, vol)
        # 29 completed weeks are needed before a day's week: days 145..174.
        assert ds.n_days == 30
        assert ds.trading_days[0] == daily.timestamps[145].date()

    def test_minimum_history_single_day(self):
        fm, daily30, weekly = minimum_history_bars()
        ds = align(fm, daily30, weekly, np.full(30, 0.01))
        assert ds.n_days == 1
        assert ds.trading_days[0] == daily30.timestamps[-1].date()

    def test_zero_overlap_errors(self):
        a = make_series(150, start_date=dt.date(2015, 1, 5))
        b = make_series(150, start_date=dt.date(2019, 1, 7))
        daily, weekly = resample(b)
        with pytest.raises(MarketDataError, match="no trading day"):
            align(a, daily, weekly, np.full(len(daily), 0.01))

    def test_bad_volatility_rejected(self):
        five_min = make_series(150)
        daily, weekly = resample(five_min)
        vol = np.full(len(daily), 0.01)
        vol[3] = 0.0
        with pytest.raises(MarketDataError, match="positive"):
            align(five_min, daily, weekly, vol)


class TestWindowAt:
    def test_shapes(self, small_dataset):
        obs = window_at(small_dataset, 0)
        assert obs.short_window.shape == (48, 6)
        assert obs.mid_window.shape == (30, 7)
        assert obs.long_window.shape == (30, 6)

    def test_mid_last_row_is_decision_day(self, small_dataset):
        ds = small_dataset
        obs = window_at(ds, 0)
        i = ds._daily_index[ds.trading_days[0]]
        assert np.array_equal(obs.mid_window[-1, :6], ds.daily.values[i])
        assert obs.mid_window[-1, 6] == ds.daily_volatility[i]

    def test_short_window_is_days_five_min_bars(self, small_dataset):
        ds = small_dataset
        k = ds.n_days // 2
        obs = window_at(ds, k)
        sl = ds._fm_slices[ds.trading_days[k]]
        assert np.array_equal(obs.short_window, ds.five_min.values[sl])

    def test_long_window_last_row_is_partial_week(self, small_dataset):
        ds = small_dataset
        k = ds.n_days // 2
        d = ds.trading_days[k]
        i = ds._daily_index[d]
        # hand-aggregate the in-progress week from daily bars
        week = d.isocalendar()[:2]
        j = i
        while j > 0 and ds.daily.timestamps[j - 1].date().isocalendar()[:2] == week:
            j -= 1
        rows = ds.daily.values[j:i + 1]
        expected = [rows[0, 0], rows[:, 1].max(), rows[:, 2].min(), rows[-1, 3],
                    rows[:, 4].sum(), rows[:, 5].sum()]
        assert np.allclose(window_at(ds, k).long_window[-1], expected)

    def test_out_of_range(self, small_dataset):
        with pytest.raises(MarketDataError, match="out of range"):
            window_at(small_dataset, small_dataset.n_days)

    def test_no_out_of_bounds_over_random_lengths(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(150, 190))
            five_min = make_series(n, seed=int(rng.integers(1 << 30)))
            daily, weekly = resample(five_min)
            ds = align(five_min, daily, weekly, np.full(len(daily), 0.01))
            for k in range(ds.n_days):
                window_at(ds, k)


class TestNormalizer:
    def test_zscore_arithmetic(self, small_dataset):
        norm = ObservationNormalizer().fit(small_dataset, range(small_dataset.n_days))
        obs = window_at(small_dataset, 3)
        out = norm.transform(obs)
        expected = (obs.mid_window - norm.mid_mean_) / norm.mid_std_
        assert np.array_equal(out.mid_window, expected)

    def test_known_stats(self, small_dataset):
        norm = ObservationNormalizer()
        norm.short_mean_ = np.full(6, 5.0)
        norm.short_std_ = np.full(6, 2.0)
        norm.mid_mean_ = np.zeros(7)
        norm.mid_std_ = np.ones(7)
        norm.long_mean_ = np.zeros(6)
        norm.long_std_ = np.ones(6)
        norm.fitted_ = True
        obs = md.Observation(np.full((48, 6), 9.0), np.zeros((30, 7)), np.zeros((30, 6)))
        assert np.all(norm.transform(obs).short_window == 2.0)

    def test_constant_columns_normalize_to_zero(self):
        five_min = make_series(160, drift=0.0, alpha0=0.0, alpha1=0.0, beta1=0.0,
                               intraday_noise=0.0)
        daily, weekly = resample(five_min)
        ds = align(five_min, daily, weekly, np.full(len(daily), 0.01))
        norm = ObservationNormalizer().fit(ds, range(ds.n_days))
        out = norm.transform(window_at(ds, 0))
        # price columns are constant; they must map to exactly 0
        assert np.all(out.short_window[:, :4] == 0.0)

    def test_train_columns_standardized(self, small_dataset):
        ds = small_dataset
        norm = ObservationNormalizer().fit(ds, range(ds.n_days))
        stacked = np.vstack([norm.transform(window_at(ds, k)).mid_window
                             for k in range(ds.n_days)])
        assert np.all(np.abs(stacked.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(stacked.std(axis=0) - 1.0) < 1e-9)

    @pytest.mark.parametrize("kind,stat,value,match", [
        ("short", "mean", np.zeros((48, 6)), "shape"),
        ("mid", "std", 1.0, "shape"),
        ("long", "mean", [0.0, 0.0, 0.0, 0.0, 0.0, np.nan], "finite"),
        ("short", "std", [1.0, 1.0, 1.0, 1.0, np.inf, 1.0], "finite"),
        ("mid", "std", [1.0] * 6 + [0.0], "<= 0"),
    ], ids=["short-mean-48x6", "mid-std-scalar", "long-mean-nan", "short-std-inf",
            "mid-std-zero"])
    def test_from_dict_rejects_bad_statistics(self, small_normalizer, kind, stat,
                                              value, match):
        data = small_normalizer.to_dict()
        data[kind][stat] = np.asarray(value).tolist()
        with pytest.raises(MarketDataError, match=f"{kind}.{stat}.*{match}"):
            ObservationNormalizer.from_dict(data)

    def test_unfitted_raises(self, small_dataset):
        with pytest.raises(MarketDataError, match="not fitted"):
            ObservationNormalizer().transform(window_at(small_dataset, 0))


class TestSimulateMarket:
    def test_zero_everything_constant_path(self):
        series = make_series(5, drift=0.0, alpha0=0.0, alpha1=0.0, beta1=0.0,
                             intraday_noise=0.0)
        prices = series.values[:, :4]
        assert np.all(prices == prices[0, 0])
        assert prices[0, 0] == pytest.approx(10.0)

    def test_same_seed_identical(self):
        a = make_series(10, seed=42)
        b = make_series(10, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.timestamps == b.timestamps

    def test_different_seed_differs(self):
        assert not np.array_equal(make_series(10, seed=1).values,
                                  make_series(10, seed=2).values)

    def test_unconditional_variance(self):
        gen = MarketGenParams(drift=0.0, alpha0=5e-5, alpha1=0.10, beta1=0.85)
        series = simulate_market(gen, 10_000, seed=9)
        closes = series.values[47::48, 3]
        rets = np.diff(np.log(closes))
        target = gen.alpha0 / (1.0 - gen.alpha1 - gen.beta1)
        assert abs(np.var(rets) / target - 1.0) < 0.10

    def test_invalid_params(self):
        with pytest.raises(MarketDataError):
            MarketGenParams(alpha0=-1e-6)
        with pytest.raises(MarketDataError):
            MarketGenParams(alpha1=0.5, beta1=0.5)
        with pytest.raises(MarketDataError):
            MarketGenParams(alpha0=0.0, alpha1=0.1)

    def test_bar_invariants_over_random_draws(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            a1 = rng.uniform(0, 0.3)
            b1 = rng.uniform(0, 0.95 - a1)
            gen = MarketGenParams(
                drift=rng.uniform(-0.002, 0.002),
                alpha0=10 ** rng.uniform(-7, -4),
                alpha1=a1, beta1=b1,
                intraday_noise=rng.uniform(0, 0.5),
            )
            series = simulate_market(gen, 2, seed=int(rng.integers(1 << 30)))
            v = series.values
            assert np.all(v[:, 1] >= np.maximum(v[:, 0], v[:, 3]))
            assert np.all(v[:, 2] <= np.minimum(v[:, 0], v[:, 3]))
            assert np.all(v[:, 2] > 0)
            assert np.all(v[:, 4:] >= 0)

    def test_resampled_close_matches_last_five_min_close(self):
        for seed in range(3):
            series = make_series(10, seed=seed)
            daily, _ = resample(series)
            assert np.array_equal(daily.values[:, 3], series.values[47::48, 3])


class TestSplit:
    def test_boundary_at_first_day_errors(self, small_dataset):
        with pytest.raises(MarketDataError, match="empty training set"):
            split(small_dataset, small_dataset.trading_days[0])

    def test_partition(self, small_dataset):
        boundary = small_dataset.trading_days[small_dataset.n_days // 2]
        train, test = split(small_dataset, boundary)
        assert train.n_days + test.n_days == small_dataset.n_days
        assert all(d < boundary for d in train.trading_days)
        assert all(d >= boundary for d in test.trading_days)
        assert test.trading_days[0] == boundary

    def test_test_windows_reach_back_into_history(self, small_dataset):
        boundary = small_dataset.trading_days[small_dataset.n_days // 2]
        _, test = split(small_dataset, boundary)
        obs = window_at(test, 0)   # needs 30 daily bars before the boundary
        assert obs.mid_window.shape == (30, 7)

    def test_boundary_outside_coverage(self, small_dataset):
        with pytest.raises(MarketDataError, match="empty"):
            split(small_dataset, small_dataset.trading_days[-1] + dt.timedelta(days=5))

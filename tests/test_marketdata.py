import csv
import datetime as dt
import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mctg import evalcli
from mctg import marketdata as md
from mctg.garch import rolling_forecast
from mctg.marketdata import (MarketDataError, MarketGenParams,
                             ObservationNormalizer, align, load_bars, resample,
                             simulate_market, split, window_at)
from helpers import bar_dates, group_by_date_per_bar, simulate_market_per_day


def write_csv(tmp_path, rows, name="bars.csv"):
    path = tmp_path / name
    lines = ["timestamp,open,high,low,close,volume,amount"]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


VALID_ROWS = [
    ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
    ("2020-01-06T09:35", 10.2, 10.4, 10.0, 10.1, 50, 505),
    ("2020-01-06T09:40", 10.1, 10.1, 10.0, 10.0, 80, 805),
]

# (column of VALID_ROWS[1] to replace, value, message): one case per invariant.
INVALID_BARS = [
    (2, float("nan"), "non-finite field"),
    (4, float("inf"), "non-finite field"),
    (3, 0.0, "non-positive low"),
    (2, 10.15, "high below open/close"),
    (3, 10.15, "low above open/close"),
    (5, -1.0, "negative volume/amount"),
    (6, -1.0, "negative volume/amount"),
    (0, "2020-01-06T09:30", "timestamp not after previous"),
]


def bar_series(rows):
    return md.BarSeries([dt.datetime.fromisoformat(row[0]) for row in rows],
                        np.array([row[1:] for row in rows], dtype=np.float64))


class TestBarSeries:
    def test_valid_rows_accepted(self):
        assert len(bar_series(VALID_ROWS)) == 3

    @pytest.mark.parametrize("column,value,match", INVALID_BARS)
    def test_invalid_bar_rejected(self, column, value, match):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][column] = value
        with pytest.raises(MarketDataError, match=f"{match} at 2020-01-06 09:3") as err:
            bar_series(rows)
        assert err.value.index == 1

    def test_first_invalid_row_is_reported(self):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][0] = rows[0][0]   # a repeated timestamp at index 1
        rows[2][3] = -1.0         # a negative low at index 2
        with pytest.raises(MarketDataError, match="not after previous") as err:
            bar_series(rows)
        assert err.value.index == 1

    @pytest.mark.parametrize("index", [0, 1])
    def test_missing_time_rejected(self, index):
        times = np.array([row[0] for row in VALID_ROWS], dtype="datetime64[us]")
        times[index] = np.datetime64("NaT")
        values = np.array([row[1:] for row in VALID_ROWS], dtype=np.float64)
        with pytest.raises(MarketDataError, match="missing timestamp at NaT") as err:
            md.BarSeries(times, values)
        assert err.value.index == index

    def test_empty_series_allowed(self):
        assert len(md.BarSeries([], np.empty((0, 6)))) == 0


class TestLoadBars:
    def test_three_row_csv(self, tmp_path):
        path = write_csv(tmp_path, [
            ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
            ("2020-01-06T09:35", 10.2, 10.4, 10.0, 10.1, 50, 505),
            ("2020-01-06T09:40", 10.1, 10.1, 10.0, 10.0, 80, 805),
        ])
        series = load_bars(path)
        assert len(series) == 3
        assert series.values[0, 0] == 10.0   # open
        assert series.values[2, 3] == 10.0   # close

    def test_high_below_low_names_row(self, tmp_path):
        path = write_csv(tmp_path, [
            ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
            ("2020-01-06T09:35", 10.2, 9.0, 10.0, 10.1, 50, 505),
        ])
        with pytest.raises(MarketDataError, match="row 3"):
            load_bars(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = write_csv(tmp_path, [
            ("2020-01-06T09:30", 10, 10.5, 9.9, 10.2, 100, 1010),
            ("2020-01-06T09:30", 10.2, 10.4, 10.0, 10.1, 50, 505),
        ])
        with pytest.raises(MarketDataError, match="not after previous"):
            load_bars(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,open\n")
        with pytest.raises(MarketDataError, match="expected header"):
            load_bars(str(path))

    @pytest.mark.parametrize("column,value,match", INVALID_BARS)
    def test_invalid_bar_names_row(self, tmp_path, column, value, match):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][column] = value
        with pytest.raises(MarketDataError, match=f"row 3: {match}"):
            load_bars(write_csv(tmp_path, rows))

    @pytest.mark.parametrize("text", ["2020-01-06 09:35", "2020-01-06T09:35:00",
                                      "2020-01-06T09:35:07.25", "20200106T0935",
                                      " 2020-01-06T09:35 "])
    def test_other_iso_forms_read_as_fromisoformat(self, tmp_path, text):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][0] = text
        series = load_bars(write_csv(tmp_path, rows))
        assert series.timestamps.dtype == np.dtype("datetime64[us]")
        assert series.timestamps.tolist() == [dt.datetime.fromisoformat(row[0].strip())
                                              for row in rows]

    @pytest.mark.parametrize("text", ["2020", "2020-01", "today", "now", "NaT", "",
                                      "0000-01-06T09:35", "10000-01-06T09:35",
                                      "2020-13-06T09:35", "2019-02-29T09:35",
                                      "2020-01-06T09:35:00+x"])
    def test_bad_timestamp_names_row(self, tmp_path, text):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][0] = text
        with pytest.raises(ValueError) as want:
            dt.datetime.fromisoformat(text)
        with pytest.raises(MarketDataError, match=re.escape(f"row 3: {want.value}")):
            load_bars(write_csv(tmp_path, rows))

    @pytest.mark.parametrize("text", ["2020-01-06T09:35+00:00", "2020-01-06T09:35Z",
                                      "2020-01-06T09:35-05:00"])
    def test_utc_offset_refused_naming_row(self, tmp_path, text):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][0] = text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MarketDataError, match=f"row 3: timestamp {re.escape(text)} "
                                                      "has a UTC offset"):
                load_bars(write_csv(tmp_path, rows))

    def test_first_bad_line_is_named(self, tmp_path):
        rows = [list(row) for row in VALID_ROWS]
        rows[1][0] = "Monday"   # line 3
        rows[2][3] = "x"        # line 4
        with pytest.raises(MarketDataError, match="row 3: Invalid isoformat"):
            load_bars(write_csv(tmp_path, rows))
        rows[2][0] = "Tuesday"  # a bad time and a bad value on line 4: the time is named
        rows[1][0] = VALID_ROWS[1][0]
        with pytest.raises(MarketDataError, match="row 4: Invalid isoformat"):
            load_bars(write_csv(tmp_path, rows))
        rows[2][0] = VALID_ROWS[2][0]
        with pytest.raises(MarketDataError, match="row 4: could not convert"):
            load_bars(write_csv(tmp_path, rows))
        rows = [list(row) for row in VALID_ROWS]
        rows[2][0] = "Tuesday"
        rows[1] = rows[1][:5]   # line 3 has 5 fields
        with pytest.raises(MarketDataError, match="row 3: expected 7 fields, got 5"):
            load_bars(write_csv(tmp_path, rows))

    def test_roundtrip_save_load(self, small_five_min, tmp_path):
        path = str(tmp_path / "rt.csv")
        md.save_bars(small_five_min, path)
        back = load_bars(path)
        assert np.array_equal(back.values, small_five_min.values)
        assert np.array_equal(back.timestamps, small_five_min.timestamps)

    def test_save_writes_the_csv_writer_bytes(self, small_five_min, tmp_path):
        def csv_writer_bytes(series):
            out = tmp_path / "reference.csv"
            with open(out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(md.CSV_HEADER)
                for ts, row in zip(np.datetime_as_string(series.timestamps, unit="m"),
                                   series.values):
                    writer.writerow([ts] + [repr(float(x)) for x in row])
            return out.read_bytes()

        edge = md.BarSeries(
            np.array(["0001-01-01T00:00", "2020-02-29T23:59", "9999-12-31T09:35"],
                     dtype="datetime64[us]"),
            [[1e300, 1.7976931348623157e308, 5e-324, 1.0, 0.0, 0.0],
             [0.1, 0.30000000000000004, 1e-7, 0.2, 1e16, 123456789.125],
             [2.5, 3.0, 2.0, 2.75, 5e-324, 1e-300]])
        for series in (small_five_min, edge):
            path = tmp_path / "saved.csv"
            md.save_bars(series, str(path))
            assert path.read_bytes() == csv_writer_bytes(series)


def constant_day(date, price=10.0, volume=1.0):
    """48 constant five-minute bars: (timestamps, values)."""
    base = dt.datetime.combine(date, dt.time(9, 30))
    timestamps = [base + dt.timedelta(minutes=5 * k) for k in range(48)]
    values = np.tile([price, price, price, price, volume, volume * price], (48, 1))
    return timestamps, values


def five_min_series(*days):
    """One five-minute BarSeries of consecutive (timestamps, values) days."""
    return md.BarSeries([t for ts, _ in days for t in ts],
                        np.vstack([values for _, values in days]))


class TestResample:
    def test_constant_day(self):
        series = five_min_series(constant_day(dt.date(2020, 1, 6)))
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
        days = [constant_day(dt.date(2020, 1, 6) + dt.timedelta(days=k), price)
                for k, price in enumerate([10.0, 11.0, 12.0, 13.0, 14.0])]
        daily, weekly = resample(five_min_series(*days))
        assert len(daily) == 5 and len(weekly) == 1
        assert weekly.values[0, 0] == 10.0   # Monday's open
        assert weekly.values[0, 3] == 14.0   # Friday's close
        assert weekly.values[0, 1] == 14.0
        assert weekly.values[0, 2] == 10.0
        assert weekly.values[0, 4] == 5 * 48.0

    def test_empty_series_rejected(self):
        with pytest.raises(MarketDataError):
            resample(md.BarSeries([], np.empty((0, 6))))

    def test_incomplete_day_rejected(self):
        timestamps, values = constant_day(dt.date(2020, 1, 6))
        with pytest.raises(MarketDataError, match="47 bars"):
            resample(md.BarSeries(timestamps[:47], values[:47]))

    def test_coarser_series_rejected(self, small_five_min):
        # Series carry no frequency tag: the 48-bar check rejects daily and weekly bars.
        for series in resample(small_five_min):
            with pytest.raises(MarketDataError, match="has 1 bars, expected 48"):
                resample(series)


def make_series(n_days, seed=0, **kwargs):
    gen = MarketGenParams(**kwargs)
    return simulate_market(gen, n_days, seed)


def minimum_history_bars():
    """30 weeks of weekly bars, but only the last 30 daily bars and their
    5-minute days: exactly one day admits a full window."""
    five_min = make_series(150)   # exactly 30 weeks
    daily, weekly = resample(five_min)
    daily30 = md.BarSeries(daily.timestamps[-30:], daily.values[-30:])
    keep = five_min.timestamps >= daily30.timestamps[0]   # from the first day's midnight
    fm = md.BarSeries(five_min.timestamps[keep], five_min.values[keep])
    return fm, daily30, weekly


def _aggregate(rows: np.ndarray) -> np.ndarray:
    """OHLCVA aggregate of consecutive finer bars."""
    return np.array([
        rows[0, 0],            # open of first
        rows[:, 1].max(),      # max high
        rows[:, 2].min(),      # min low
        rows[-1, 3],           # close of last
        rows[:, 4].sum(),      # summed volume
        rows[:, 5].sum(),      # summed amount
    ], dtype=np.float64)


def aggregate_loops(five_min):
    """Daily and weekly bars, aggregating each day's and then each ISO week's
    bars in turn: the reference for resample."""
    day_ts, day_rows = [], []
    for date, sl in group_by_date_per_bar(five_min).items():
        day_ts.append(dt.datetime.combine(date, dt.time()))
        day_rows.append(_aggregate(five_min.values[sl]))
    daily = md.BarSeries(day_ts, np.array(day_rows))
    week_ts, week_rows = [], []
    dates = bar_dates(daily)
    start = 0
    for i in range(1, len(dates) + 1):
        if i == len(dates) or dates[i].isocalendar()[:2] != dates[start].isocalendar()[:2]:
            week_ts.append(dt.datetime.combine(dates[i - 1], dt.time()))
            week_rows.append(_aggregate(daily.values[start:i]))
            start = i
    return daily, md.BarSeries(week_ts, np.array(week_rows))


def scanning_windows(five_min, daily, weekly, vol):
    """Trading days and their (short, mid, long) windows, found by scanning:
    a day's completed weeks are every weekly bar of an earlier ISO
    (year, week), and its partial week starts where the walk back through
    the daily bars leaves its ISO week. The reference for align/window_at."""
    full = {d: sl for d, sl in group_by_date_per_bar(five_min).items()
            if sl.stop - sl.start == 48}
    dates = bar_dates(daily)
    week_keys = [d.isocalendar()[:2] for d in bar_dates(weekly)]
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
                       _aggregate(daily.values[j:i + 1])]),
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


def gappy_weeks_bars():
    """From a Wednesday to a Tuesday with the Tuesday of the third week
    missing: partial first and last weeks and a four-day week."""
    five_min = make_series(40, seed=9, start_date=dt.date(2020, 1, 8))
    keep = [i for i, d in enumerate(bar_dates(five_min)) if d != dt.date(2020, 1, 21)]
    five_min = md.BarSeries(five_min.timestamps[keep], five_min.values[keep])
    return (five_min, *resample(five_min))


class TestResampleOracle:
    @pytest.mark.parametrize("bars", [frozen_market_bars, span_2020_bars, gappy_weeks_bars])
    def test_matches_aggregate_loops(self, bars):
        five_min, daily, weekly = bars()
        for got, want in zip((daily, weekly), aggregate_loops(five_min)):
            assert np.array_equal(got.timestamps, want.timestamps)
            assert np.array_equal(got.values, want.values)

    def test_gappy_weeks(self):
        _, daily, weekly = gappy_weeks_bars()
        assert len(daily) == 39
        stamps = daily.timestamps.tolist()
        lengths = np.diff([-1] + [stamps.index(t) for t in weekly.timestamps.tolist()])
        assert list(lengths) == [3, 5, 4, 5, 5, 5, 5, 5, 2]


def irregular_bars(seed: int, n: int) -> md.BarSeries:
    """``n`` bars at random gaps of 1 minute to 3 days from 23:00, the first
    at 23:59 and the second at midnight, so that days of one bar, a day that
    starts at midnight and empty days occur."""
    rng = np.random.default_rng(seed)
    gaps = rng.choice([1, 59, 60, 61, 24 * 60, 3 * 24 * 60], size=n)
    gaps[:2] = (59, 1)[:n]
    start = dt.datetime(2020, 1, 5, 23, 0)
    stamps = [start + dt.timedelta(minutes=int(m)) for m in np.cumsum(gaps)]
    return md.BarSeries(stamps, np.tile([10.0, 10.0, 10.0, 10.0, 1.0, 10.0], (n, 1)))


def day_slices(series) -> dict:
    """Each date's slice of the bars, from ``marketdata._day_starts``."""
    dates, starts, counts = md._day_starts(series.timestamps)
    return {d: slice(s, s + n) for d, s, n in zip(dates.tolist(), starts.tolist(),
                                                   counts.tolist())}


class TestGroupByDate:
    @pytest.mark.parametrize("bars", [
        lambda: frozen_market_bars()[0], lambda: gappy_weeks_bars()[0],
        lambda: irregular_bars(1, 500), lambda: irregular_bars(2, 1), lambda: irregular_bars(3, 0),
        lambda: bar_series(VALID_ROWS),
    ], ids=["frozen_market", "gappy_weeks", "irregular", "one_bar", "empty", "one_day"])
    def test_equal_to_per_bar_pass(self, bars):
        series = bars()
        got = day_slices(series)
        want = group_by_date_per_bar(series)
        assert list(got.items()) == list(want.items())

    def test_irregular_bars_cover_the_edge_cases(self):
        series = irregular_bars(1, 500)
        lengths = [sl.stop - sl.start for sl in day_slices(series).values()]
        assert series.timestamps[:2].tolist() == [dt.datetime(2020, 1, 5, 23, 59),
                                                  dt.datetime(2020, 1, 6)]
        assert lengths[0] == 1 and max(lengths) > 10

    @pytest.mark.parametrize("first", [dt.date(2015, 12, 1), dt.date(2020, 12, 1),
                                       dt.date(1969, 12, 1)],
                             ids=["2015-W53", "2020-W53", "around-the-epoch"])
    def test_week_keys_change_exactly_at_iso_weeks(self, first):
        days = [first + dt.timedelta(days=k) for k in range(62)]
        keys = md._week_keys(np.array(days, dtype="datetime64[D]"))
        assert np.all(np.diff(keys) >= 0)
        for (a, key_a), (b, key_b) in itertools.combinations(zip(days, keys), 2):
            assert (key_a == key_b) == (a.isocalendar()[:2] == b.isocalendar()[:2])


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
            assert np.array_equal(obs["short"], short)
            assert np.array_equal(obs["mid"], mid)
            assert np.array_equal(obs["long"], long)

    def test_thirty_five_weeks(self):
        five_min = make_series(175)   # exactly 35 Mon-Fri weeks
        daily, weekly = resample(five_min)
        assert len(weekly) == 35
        vol = np.full(len(daily), 0.01)
        ds = align(five_min, daily, weekly, vol)
        # 29 completed weeks are needed before a day's week: days 145..174.
        assert ds.n_days == 30
        assert ds.trading_days[0] == bar_dates(daily)[145]

    def test_minimum_history_single_day(self):
        fm, daily30, weekly = minimum_history_bars()
        ds = align(fm, daily30, weekly, np.full(30, 0.01))
        assert ds.n_days == 1
        assert ds.trading_days[0] == bar_dates(daily30)[-1]

    def test_no_full_five_minute_day_errors(self):
        five_min = make_series(150)
        daily, weekly = resample(five_min)
        vol = np.full(len(daily), 0.01)
        short_days = np.arange(len(five_min)) % 48 != 47
        for fm in (md.BarSeries(five_min.timestamps[short_days], five_min.values[short_days]),
                   md.BarSeries([], np.empty((0, 6)))):
            with pytest.raises(MarketDataError, match="no trading day"):
                align(fm, daily, weekly, vol)

    def test_zero_overlap_errors(self):
        a = make_series(150, start_date=dt.date(2015, 1, 5))
        b = make_series(150, start_date=dt.date(2019, 1, 7))
        daily, weekly = resample(b)
        with pytest.raises(MarketDataError, match="no trading day"):
            align(a, daily, weekly, np.full(len(daily), 0.01))

    @pytest.mark.parametrize("order", [p for p in itertools.permutations(range(3))
                                       if p != (0, 1, 2)])
    def test_misordered_series_rejected(self, small_five_min, order):
        series = (small_five_min, *resample(small_five_min))
        daily_vol = np.full(len(series[1]), 0.01)
        with pytest.raises(MarketDataError, match="daily_vol length|no trading day"):
            align(*(series[k] for k in order), daily_vol)

    def test_bad_volatility_rejected(self):
        five_min = make_series(150)
        daily, weekly = resample(five_min)
        vol = np.full(len(daily), 0.01)
        vol[3] = 0.0
        with pytest.raises(MarketDataError, match="positive"):
            align(five_min, daily, weekly, vol)


class TestWindowAt:
    @pytest.mark.parametrize("kind,shape", md.WINDOW_SHAPES.items(), ids=list(md.WINDOW_SHAPES))
    def test_shapes(self, small_dataset, kind, shape):
        assert window_at(small_dataset, 0)[kind].shape == shape

    @pytest.fixture(scope="class")
    def small_daily(self, small_five_min):
        return resample(small_five_min)[0]

    def test_mid_last_row_is_decision_day(self, small_dataset, small_daily):
        ds = small_dataset
        obs = window_at(ds, 0)
        i = bar_dates(small_daily).index(ds.trading_days[0])
        daily_vol = rolling_forecast(small_daily.values[:, 3], 120, 30)
        assert np.array_equal(obs["mid"][-1, :6], small_daily.values[i])
        assert obs["mid"][-1, 6] == daily_vol[i]

    def test_short_window_is_days_five_min_bars(self, small_dataset, small_five_min):
        ds = small_dataset
        k = ds.n_days // 2
        obs = window_at(ds, k)
        sl = [d == ds.trading_days[k] for d in bar_dates(small_five_min)]
        assert np.array_equal(obs["short"], small_five_min.values[sl])

    def test_long_window_last_row_is_partial_week(self, small_dataset, small_daily):
        ds = small_dataset
        k = ds.n_days // 2
        d = ds.trading_days[k]
        dates = bar_dates(small_daily)
        i = dates.index(d)
        # hand-aggregate the in-progress week from daily bars
        week = d.isocalendar()[:2]
        j = i
        while j > 0 and dates[j - 1].isocalendar()[:2] == week:
            j -= 1
        rows = small_daily.values[j:i + 1]
        expected = [rows[0, 0], rows[:, 1].max(), rows[:, 2].min(), rows[-1, 3],
                    rows[:, 4].sum(), rows[:, 5].sum()]
        assert np.allclose(window_at(ds, k)["long"][-1], expected)

    def test_windows_are_read_only(self, small_dataset):
        ds = small_dataset
        before = [ds.windows["short"].copy(), ds.windows["mid"].copy(),
                  ds.windows["long"].copy(), ds.opens.copy()]
        obs = window_at(ds, 2)
        for window in (obs["short"], obs["mid"], obs["long"], ds.opens):
            with pytest.raises(ValueError, match="read-only"):
                window[0] = 1.0
        after = [ds.windows["short"], ds.windows["mid"], ds.windows["long"], ds.opens]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    def test_opens_are_the_daily_opens(self, small_dataset, small_daily):
        ds = small_dataset
        dates = bar_dates(small_daily)
        expected = [small_daily.values[dates.index(d), 0] for d in ds.trading_days]
        assert np.array_equal(ds.opens, expected)

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


def per_day_fit_statistics(dataset, days):
    """The normalizer statistics by stacking each day's windows in turn: the
    reference for ObservationNormalizer.fit."""
    stats = {}
    for kind in ("short", "mid", "long"):
        data = np.vstack([window_at(dataset, k)[kind] for k in days])
        std = data.std(axis=0)
        std[std == 0.0] = 1.0
        stats[kind] = (data.mean(axis=0), std)
    return stats


@pytest.fixture(scope="module")
def frozen_split():
    """The acceptance suite's train and test segments: rolling GARCH 250/20,
    and the last 220 aligned days held out."""
    dataset = evalcli.build_dataset(frozen_market_bars()[0], 250, 20)
    return split(dataset, dataset.trading_days[dataset.n_days - 220])


@pytest.fixture(scope="module")
def frozen_train_dataset(frozen_split):
    return frozen_split[0]


def per_observation_transform(norm, obs):
    """Each window of one observation z-scored by itself: the reference the
    whole-dataset transform must match bit for bit."""
    return {
        "short": (obs["short"] - norm.mean_["short"]) / norm.std_["short"],
        "mid": (obs["mid"] - norm.mean_["mid"]) / norm.std_["mid"],
        "long": (obs["long"] - norm.mean_["long"]) / norm.std_["long"],
    }


class TestNormalizer:
    def test_fit_matches_per_day_stacking(self, frozen_train_dataset):
        train = frozen_train_dataset
        norm = ObservationNormalizer().fit(train, range(train.n_days))
        for kind, (mean, std) in per_day_fit_statistics(train, range(train.n_days)).items():
            assert np.array_equal(norm.mean_[kind], mean)
            assert np.array_equal(norm.std_[kind], std)

    def test_fit_on_chosen_days(self, small_dataset):
        days = [7, 3, 3, 40]
        norm = ObservationNormalizer().fit(small_dataset, days)
        for kind, (mean, std) in per_day_fit_statistics(small_dataset, days).items():
            assert np.array_equal(norm.mean_[kind], mean)
            assert np.array_equal(norm.std_[kind], std)

    @pytest.mark.parametrize("days", [[-1], [0, -3], "past-end"])
    def test_fit_rejects_days_out_of_range(self, small_dataset, days):
        if days == "past-end":
            days = [0, small_dataset.n_days]
        with pytest.raises(MarketDataError, match="out of range"):
            ObservationNormalizer().fit(small_dataset, days)

    def test_from_dict_rejects_missing_statistic(self, small_normalizer):
        data = small_normalizer.to_dict()
        del data["mid"]["std"]
        with pytest.raises(MarketDataError, match="lacks mid.std"):
            ObservationNormalizer.from_dict(data)

    @pytest.mark.parametrize("edit", [lambda data: [],
                                      lambda data: {**data, "mid": ["mean", "std"]}],
                             ids=["document", "section"])
    def test_from_dict_rejects_non_objects(self, small_normalizer, edit):
        with pytest.raises(MarketDataError, match="not a JSON object"):
            ObservationNormalizer.from_dict(edit(small_normalizer.to_dict()))

    def test_zscore_arithmetic(self, small_dataset):
        norm = ObservationNormalizer().fit(small_dataset, range(small_dataset.n_days))
        obs = window_at(small_dataset, 3)
        out = window_at(norm.transform(small_dataset), 3)
        expected = (obs["mid"] - norm.mean_["mid"]) / norm.std_["mid"]
        assert np.array_equal(out["mid"], expected)

    def test_known_stats(self, small_dataset):
        norm = ObservationNormalizer()
        norm.mean_["short"] = np.full(6, 5.0)
        norm.std_["short"] = np.full(6, 2.0)
        norm.mean_["mid"] = np.zeros(7)
        norm.std_["mid"] = np.ones(7)
        norm.mean_["long"] = np.zeros(6)
        norm.std_["long"] = np.ones(6)
        norm.fitted_ = True
        n = small_dataset.n_days
        ds = replace(small_dataset, windows={"short": np.full((n, 48, 6), 9.0),
                                             "mid": np.zeros((n, 30, 7)),
                                             "long": np.zeros((n, 30, 6))})
        assert np.all(norm.transform(ds).windows["short"] == 2.0)

    def test_constant_columns_normalize_to_zero(self):
        five_min = make_series(160, drift=0.0, alpha0=0.0, alpha1=0.0, beta1=0.0,
                               intraday_noise=0.0)
        daily, weekly = resample(five_min)
        ds = align(five_min, daily, weekly, np.full(len(daily), 0.01))
        norm = ObservationNormalizer().fit(ds, range(ds.n_days))
        out = window_at(norm.transform(ds), 0)
        # price columns are constant; they must map to exactly 0
        assert np.all(out["short"][:, :4] == 0.0)

    def test_train_columns_standardized(self, small_dataset):
        ds = small_dataset
        norm = ObservationNormalizer().fit(ds, range(ds.n_days))
        normalized = norm.transform(ds)
        stacked = np.vstack([window_at(normalized, k)["mid"] for k in range(ds.n_days)])
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
            ObservationNormalizer().transform(small_dataset)

    def test_transform_equals_per_observation_oracle(self, frozen_split):
        train, test = frozen_split
        norm = ObservationNormalizer().fit(train, range(train.n_days))
        for ds in (train, test):
            normalized = norm.transform(ds)
            for k in range(ds.n_days):
                expected = per_observation_transform(norm, window_at(ds, k))
                got = window_at(normalized, k)
                for kind in ("short", "mid", "long"):
                    assert np.array_equal(got[kind], expected[kind]), (k, kind)

    def test_transform_equals_the_whole_array_formula_byte_for_byte(self, frozen_split):
        # every other day (a strided input) and a dataset of one kind too
        train, test = frozen_split
        norm = ObservationNormalizer().fit(train, range(train.n_days))
        every_other = replace(test, trading_days=test.trading_days[::2],
                              windows={k: w[::2] for k, w in test.windows.items()},
                              opens=test.opens[::2])
        mid_only = replace(test, windows={"mid": test.windows["mid"]})
        for ds in (train, test, every_other, mid_only):
            normalized = norm.transform(ds)
            assert set(normalized.windows) == set(ds.windows)
            for kind, w in ds.windows.items():
                want = (w - norm.mean_[kind]) / norm.std_[kind]
                got = normalized.windows[kind]
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), kind

    def test_transform_returns_read_only_arrays_and_keeps_input(self, small_dataset,
                                                                small_normalizer):
        ds = small_dataset
        before = {kind: w.copy() for kind, w in ds.windows.items()}
        opens = ds.opens.copy()
        normalized = small_normalizer.transform(ds)
        for kind in ("short", "mid", "long"):
            assert normalized.windows[kind] is not ds.windows[kind]
            with pytest.raises(ValueError, match="read-only"):
                normalized.windows[kind][0, 0, 0] = 1.0
        assert normalized.opens is ds.opens
        assert normalized.trading_days == ds.trading_days
        assert all(np.array_equal(ds.windows[kind], w) for kind, w in before.items())
        assert np.array_equal(ds.opens, opens)


# Generator settings the whole-market draw must reproduce from the per-day one.
GENERATOR_SETTINGS = {
    "defaults": {},
    "zero-garch": {"alpha0": 0.0, "alpha1": 0.0, "beta1": 0.0},
    "regimes-of-3-from-saturday": {"regime_length": 3, "start_date": dt.date(2015, 1, 3)},
    "falling-no-noise-no-volume": {"drift": -0.01, "intraday_noise": 0.0, "base_volume": 0.0},
    "high-persistence": {"alpha1": 0.3, "beta1": 0.69},
}


class TestSimulateMarket:
    @pytest.mark.parametrize("n_days", [1, 2, 13, 400])
    @pytest.mark.parametrize("setting", GENERATOR_SETTINGS)
    def test_equal_to_per_day_draws(self, setting, n_days):
        gen = MarketGenParams(**GENERATOR_SETTINGS[setting])
        for seed in (0, 7, 2024):
            series = simulate_market(gen, n_days, seed)
            timestamps, rows = simulate_market_per_day(gen, n_days, seed)
            assert series.timestamps.tolist() == timestamps
            assert series.values.tobytes() == rows.tobytes()

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
        assert np.array_equal(a.timestamps, b.timestamps)

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
        assert obs["mid"].shape == (30, 7)

    def test_halves_are_rows_of_the_unsplit_dataset(self, small_dataset):
        ds = small_dataset
        k = ds.n_days // 3
        train, test = split(ds, ds.trading_days[k])
        for kind, whole in ds.windows.items():
            assert np.array_equal(train.windows[kind], whole[:k])
            assert np.array_equal(test.windows[kind], whole[k:])
        assert np.array_equal(train.opens, ds.opens[:k])
        assert np.array_equal(test.opens, ds.opens[k:])
        for j in range(test.n_days):
            obs, ref = window_at(test, j), window_at(ds, k + j)
            assert np.array_equal(obs["short"], ref["short"])
            assert np.array_equal(obs["mid"], ref["mid"])
            assert np.array_equal(obs["long"], ref["long"])

    def test_boundary_between_trading_days(self, small_dataset):
        ds = small_dataset
        k = next(j for j in range(1, ds.n_days)
                 if (ds.trading_days[j] - ds.trading_days[j - 1]).days > 1)
        train, test = split(ds, ds.trading_days[k] - dt.timedelta(days=1))
        assert train.n_days == k and test.trading_days[0] == ds.trading_days[k]

    def test_boundary_outside_coverage(self, small_dataset):
        with pytest.raises(MarketDataError, match="empty"):
            split(small_dataset, small_dataset.trading_days[-1] + dt.timedelta(days=5))

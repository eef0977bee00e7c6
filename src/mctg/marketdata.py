"""Multi-frequency OHLCVA market data.

CSV loading, resampling a 5-minute feed into daily/weekly bars, aligning the
three frequencies into per-day observation windows, z-score normalization,
a train/test split, and a synthetic GARCH-driven bar generator.

A trading day always carries exactly 48 five-minute bars (a 4-hour session);
days that do not are rejected during alignment.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

COLUMNS = ("open", "high", "low", "close", "volume", "amount")
CSV_HEADER = ("timestamp",) + COLUMNS

BARS_PER_DAY = 48
MID_DAYS = 30
LONG_WEEKS = 30
SHORT_SHAPE = (BARS_PER_DAY, 6)
MID_SHAPE = (MID_DAYS, 7)
LONG_SHAPE = (LONG_WEEKS, 6)


class MarketDataError(Exception):
    """Bad bar data: malformed files, invariant violations, alignment gaps."""


class Frequency(Enum):
    FIVE_MIN = "5min"
    DAILY = "daily"
    WEEKLY = "weekly"


def _iso_week(date: dt.date) -> int:
    """ISO week key ``iso_year * 100 + iso_week``; it grows with the date."""
    iso = date.isocalendar()
    return iso[0] * 100 + iso[1]


class BarError(MarketDataError):
    """A bar breaks an OHLCVA invariant or the time order; ``index`` is its row."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class BarSeries:
    """Time-ordered bars of one frequency, stored column-wise for slicing.

    Construction raises BarError for the first bar that is non-finite, has
    low <= 0, a high below or a low above its open/close, negative
    volume/amount, or a timestamp not after the previous one.
    """

    def __init__(self, frequency: Frequency, timestamps: list[dt.datetime],
                 values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 6:
            raise MarketDataError(f"bar values must be (n, 6), got {values.shape}")
        if len(timestamps) != values.shape[0]:
            raise MarketDataError("timestamp/value length mismatch")
        o, h, l, c, v, a = values.T
        out_of_order = np.zeros(len(values), dtype=bool)
        out_of_order[1:] = [t <= s for s, t in zip(timestamps, timestamps[1:])]
        checks = (
            (~np.isfinite(values).all(axis=1), "non-finite field"),
            (l <= 0, "non-positive low"),
            (h < np.maximum(o, c), "high below open/close"),
            (l > np.minimum(o, c), "low above open/close"),
            ((v < 0) | (a < 0), "negative volume/amount"),
            (out_of_order, "timestamp not after previous"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            i = int(np.argmax(bad))
            reason = next(why for mask, why in checks if mask[i])
            raise BarError(i, f"{reason} at {timestamps[i]}")
        self.frequency = frequency
        self.timestamps = list(timestamps)
        self.values = values

    def __len__(self) -> int:
        return len(self.timestamps)

    def dates(self) -> list[dt.date]:
        return [t.date() for t in self.timestamps]


def load_bars(path: str, frequency: Frequency) -> BarSeries:
    """Load a bar CSV (header ``timestamp,open,high,low,close,volume,amount``).

    Rows violating bar invariants or timestamp monotonicity are rejected with
    the offending line number.
    """
    timestamps: list[dt.datetime] = []
    rows: list[list[float]] = []
    linenos: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise MarketDataError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 7:
                raise MarketDataError(f"{path}: row {lineno}: expected 7 fields, got {len(row)}")
            try:
                timestamps.append(dt.datetime.fromisoformat(row[0].strip()))
                rows.append([float(x) for x in row[1:]])
            except ValueError as e:
                raise MarketDataError(f"{path}: row {lineno}: {e}") from None
            linenos.append(lineno)
    if not rows:
        raise MarketDataError(f"{path}: no bars")
    try:
        return BarSeries(frequency, timestamps, np.array(rows, dtype=np.float64))
    except BarError as e:
        raise MarketDataError(f"{path}: row {linenos[e.index]}: {e}") from None


def save_bars(series: BarSeries, path: str) -> None:
    """Write a BarSeries back to the CSV format accepted by load_bars."""
    date_only = series.frequency is not Frequency.FIVE_MIN
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ts, row in zip(series.timestamps, series.values):
            stamp = ts.date().isoformat() if date_only else ts.strftime("%Y-%m-%dT%H:%M")
            writer.writerow([stamp] + [repr(float(x)) for x in row])


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


def _group_by_date(series: BarSeries) -> dict[dt.date, slice]:
    groups: dict[dt.date, slice] = {}
    dates = series.dates()
    start = 0
    for i in range(1, len(dates) + 1):
        if i == len(dates) or dates[i] != dates[start]:
            groups[dates[start]] = slice(start, i)
            start = i
    return groups


def resample(five_min: BarSeries) -> tuple[BarSeries, BarSeries]:
    """Aggregate a 5-minute series into daily and calendar-week bars.

    Every trading day must have exactly 48 bars. Daily bars are stamped at
    midnight of their date; weekly bars at the week's last trading day.
    """
    if five_min.frequency is not Frequency.FIVE_MIN:
        raise MarketDataError("resample expects a 5-minute series")
    day_ts: list[dt.datetime] = []
    day_rows: list[np.ndarray] = []
    for date, sl in _group_by_date(five_min).items():
        n = sl.stop - sl.start
        if n != BARS_PER_DAY:
            raise MarketDataError(f"day {date} has {n} bars, expected {BARS_PER_DAY}")
        day_ts.append(dt.datetime.combine(date, dt.time()))
        day_rows.append(_aggregate(five_min.values[sl]))
    daily = BarSeries(Frequency.DAILY, day_ts, np.array(day_rows))

    week_ts: list[dt.datetime] = []
    week_rows: list[np.ndarray] = []
    start = 0
    dates = daily.dates()
    for i in range(1, len(dates) + 1):
        if i == len(dates) or _iso_week(dates[i]) != _iso_week(dates[start]):
            week_ts.append(dt.datetime.combine(dates[i - 1], dt.time()))
            week_rows.append(_aggregate(daily.values[start:i]))
            start = i
    weekly = BarSeries(Frequency.WEEKLY, week_ts, np.array(week_rows))
    return daily, weekly


@dataclass(frozen=True)
class Observation:
    """The three raw feature windows consumed by the policy."""

    short_window: np.ndarray   # (48, 6) five-minute OHLCVA of the decision day
    mid_window: np.ndarray     # (30, 7) daily OHLCVA + volatility forecast
    long_window: np.ndarray    # (30, 6) weekly OHLCVA ending at/containing the day

    def __post_init__(self):
        if self.short_window.shape != SHORT_SHAPE:
            raise MarketDataError(f"short window shape {self.short_window.shape}")
        if self.mid_window.shape != MID_SHAPE:
            raise MarketDataError(f"mid window shape {self.mid_window.shape}")
        if self.long_window.shape != LONG_SHAPE:
            raise MarketDataError(f"long window shape {self.long_window.shape}")


@dataclass(frozen=True)
class AlignedDataset:
    """Three bar frequencies plus daily volatility, indexed by trading day:
    row k of the read-only window and open arrays belongs to trading day k."""

    five_min: BarSeries
    daily: BarSeries
    weekly: BarSeries
    daily_volatility: np.ndarray
    trading_days: list[dt.date]
    short_windows: np.ndarray = field(repr=False)   # (n_days, 48, 6)
    mid_windows: np.ndarray = field(repr=False)     # (n_days, 30, 7)
    long_windows: np.ndarray = field(repr=False)    # (n_days, 30, 6)
    opens: np.ndarray = field(repr=False)           # (n_days,)

    @property
    def n_days(self) -> int:
        return len(self.trading_days)

    def date(self, day_index: int) -> dt.date:
        return self.trading_days[day_index]


def align(five_min: BarSeries, daily: BarSeries, weekly: BarSeries,
          daily_vol: np.ndarray) -> AlignedDataset:
    """Intersect the three frequencies into the days a full window exists for,
    and build every such day's windows.

    A trading day qualifies when it has 48 five-minute bars, at least 30 daily
    bars ending at it, and at least 29 completed weekly bars before its week.
    The weekly window never looks past the decision day: its last row is the
    in-progress week aggregated from daily bars up to and including the day.
    """
    if five_min.frequency is not Frequency.FIVE_MIN or \
            daily.frequency is not Frequency.DAILY or \
            weekly.frequency is not Frequency.WEEKLY:
        raise MarketDataError("align expects (five_min, daily, weekly) series")
    daily_vol = np.asarray(daily_vol, dtype=np.float64)
    if daily_vol.shape != (len(daily),):
        raise MarketDataError(
            f"daily_vol length {daily_vol.shape} does not match {len(daily)} daily bars")
    if not np.all(np.isfinite(daily_vol)) or np.any(daily_vol <= 0):
        raise MarketDataError("daily_vol entries must be finite and positive")

    fm_starts = {d: sl.start for d, sl in _group_by_date(five_min).items()
                 if sl.stop - sl.start == BARS_PER_DAY}
    dates = daily.dates()
    week_keys = np.array([_iso_week(t.date()) for t in weekly.timestamps], dtype=np.int64)
    day_keys = np.array([_iso_week(d) for d in dates], dtype=np.int64)
    # Per daily row: completed weekly bars before its ISO week, and the first
    # daily row of that week.
    weeks_before = np.searchsorted(week_keys, day_keys)
    week_start = np.searchsorted(day_keys, day_keys)

    rows = np.array([i for i, d in enumerate(dates) if i >= MID_DAYS - 1
                     and d in fm_starts and weeks_before[i] >= LONG_WEEKS - 1],
                    dtype=np.intp)
    if not len(rows):
        raise MarketDataError("no trading day admits a full observation window")
    trading_days = [dates[i] for i in rows]
    fm_rows = np.array([fm_starts[d] for d in trading_days])[:, None] + np.arange(BARS_PER_DAY)
    mid_rows = rows[:, None] + np.arange(1 - MID_DAYS, 1)
    week_rows = weeks_before[rows, None] + np.arange(1 - LONG_WEEKS, 0)
    # Each row's in-progress week is its daily rows week_start..row. Gather
    # them into (rows, width) blocks, repeating the row itself past its end,
    # which leaves max/min alone; a running sum read at the row itself adds
    # left to right, as _aggregate's sum does.
    starts = week_start[rows]
    offsets = rows - starts
    block = daily.values[np.minimum(starts[:, None] + np.arange(offsets.max() + 1),
                                    rows[:, None])]
    partial_weeks = np.column_stack([
        daily.values[starts, 0],
        block[:, :, 1].max(axis=1),
        block[:, :, 2].min(axis=1),
        daily.values[rows, 3],
        np.take_along_axis(block[:, :, 4:].cumsum(axis=1), offsets[:, None, None], axis=1)[:, 0],
    ])
    windows = (
        five_min.values[fm_rows],
        np.concatenate([daily.values[mid_rows], daily_vol[mid_rows, None]], axis=2),
        np.concatenate([weekly.values[week_rows], partial_weeks[:, None]], axis=1),
        daily.values[rows, 0],
    )
    for array in windows:
        array.flags.writeable = False
    return AlignedDataset(five_min, daily, weekly, daily_vol, trading_days, *windows)


def window_at(dataset: AlignedDataset, day_index: int) -> Observation:
    """The raw (un-normalized) observation for one trading day: read-only rows
    of the dataset's window arrays."""
    if not 0 <= day_index < dataset.n_days:
        raise MarketDataError(f"day index {day_index} out of range [0, {dataset.n_days})")
    return Observation(dataset.short_windows[day_index], dataset.mid_windows[day_index],
                       dataset.long_windows[day_index])


class ObservationNormalizer:
    """Per-column z-score normalizer fit on training-day windows only.

    Columns with zero variance keep std 1 so constant features normalize to 0.
    Follows the fit/transform convention; learned statistics live in the
    ``*_mean_`` / ``*_std_`` attributes.
    """

    # Window kind -> shape of its statistics: one value per window column.
    _KINDS = {"short": SHORT_SHAPE[1:], "mid": MID_SHAPE[1:], "long": LONG_SHAPE[1:]}

    def __init__(self):
        self.fitted_ = False

    def fit(self, dataset: AlignedDataset, day_indices) -> "ObservationNormalizer":
        days = np.asarray(list(day_indices), dtype=np.intp)
        if not len(days):
            raise MarketDataError("cannot fit normalizer on an empty day range")
        if days.min() < 0 or days.max() >= dataset.n_days:
            raise MarketDataError(f"day indices out of range [0, {dataset.n_days})")
        for kind in self._KINDS:
            windows = getattr(dataset, f"{kind}_windows")
            data = windows[days].reshape(-1, windows.shape[2])
            mean = data.mean(axis=0)
            std = data.std(axis=0)
            std[std == 0.0] = 1.0
            setattr(self, f"{kind}_mean_", mean)
            setattr(self, f"{kind}_std_", std)
        self.fitted_ = True
        return self

    def transform(self, obs: Observation) -> Observation:
        if not self.fitted_:
            raise MarketDataError("normalizer is not fitted")
        return Observation(
            (obs.short_window - self.short_mean_) / self.short_std_,
            (obs.mid_window - self.mid_mean_) / self.mid_std_,
            (obs.long_window - self.long_mean_) / self.long_std_,
        )

    def to_dict(self) -> dict:
        if not self.fitted_:
            raise MarketDataError("normalizer is not fitted")
        out = {}
        for kind in self._KINDS:
            out[kind] = {
                "mean": getattr(self, f"{kind}_mean_").tolist(),
                "std": getattr(self, f"{kind}_std_").tolist(),
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ObservationNormalizer":
        """Rebuild from ``to_dict`` output. Each statistic must have its
        window's column shape and be finite, and each std must be > 0, as
        ``fit`` writes them; anything else would broadcast or divide silently."""
        norm = cls()
        for kind, shape in cls._KINDS.items():
            for stat in ("mean", "std"):
                if stat not in data.get(kind, {}):
                    raise MarketDataError(f"normalizer lacks {kind}.{stat}")
                value = np.asarray(data[kind][stat], dtype=np.float64)
                if value.shape != shape:
                    raise MarketDataError(
                        f"normalizer {kind}.{stat} has shape {value.shape}, expected {shape}")
                if not np.all(np.isfinite(value)):
                    raise MarketDataError(f"normalizer {kind}.{stat} is not finite")
                if stat == "std" and np.any(value <= 0):
                    raise MarketDataError(f"normalizer {kind}.std has an entry <= 0")
                setattr(norm, f"{kind}_{stat}_", value)
        norm.fitted_ = True
        return norm


def split(dataset: AlignedDataset, boundary: dt.date) -> tuple[AlignedDataset, AlignedDataset]:
    """Partition trading days at a boundary date (train < boundary <= test).

    Test observations keep the shared bar history, so their 30-bar windows may
    reach back into the training period.
    """
    k = bisect_left(dataset.trading_days, boundary)
    if k == 0:
        raise MarketDataError(f"boundary {boundary} leaves an empty training set")
    if k == dataset.n_days:
        raise MarketDataError(f"boundary {boundary} leaves an empty test set")
    by_day = ("trading_days", "short_windows", "mid_windows", "long_windows", "opens")
    return tuple(replace(dataset, **{name: getattr(dataset, name)[days] for name in by_day})
                 for days in (slice(None, k), slice(k, None)))


@dataclass(frozen=True)
class MarketGenParams:
    """Synthetic market generator settings.

    Daily log-returns follow drift + GARCH(1,1) shocks; each day is expanded
    into 48 intraday bars by Brownian-bridge interpolation of the log-price.
    ``alpha0 = alpha1 = beta1 = 0`` is allowed as the degenerate zero-volatility
    case. When ``regime_length`` is set the drift sign flips every that many
    days, producing persistent up/down regimes.
    """

    drift: float = 0.0005
    alpha0: float = 2.5e-6
    alpha1: float = 0.05
    beta1: float = 0.90
    intraday_noise: float = 0.1
    start_price: float = 10.0
    base_volume: float = 1e5
    regime_length: int | None = None
    start_date: dt.date = dt.date(2015, 1, 5)

    def __post_init__(self):
        if self.alpha0 < 0 or (self.alpha0 == 0 and (self.alpha1 or self.beta1)):
            raise MarketDataError("alpha0 must be > 0 (0 only with alpha1 = beta1 = 0)")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise MarketDataError("alpha1 and beta1 must be >= 0")
        if self.alpha1 + self.beta1 >= 1:
            raise MarketDataError("alpha1 + beta1 must be < 1")
        if self.intraday_noise < 0:
            raise MarketDataError("intraday_noise must be >= 0")
        if self.start_price <= 0:
            raise MarketDataError("start_price must be > 0")
        if self.regime_length is not None and self.regime_length < 1:
            raise MarketDataError("regime_length must be >= 1")


def _trading_dates(start: dt.date, n: int) -> list[dt.date]:
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return dates


def simulate_market(gen: MarketGenParams, n_days: int, seed: int) -> BarSeries:
    """Generate a deterministic synthetic 5-minute series of ``n_days`` days."""
    if n_days < 1:
        raise MarketDataError("n_days must be >= 1")
    rng = np.random.default_rng(seed)
    dates = _trading_dates(gen.start_date, n_days)

    persistence = gen.alpha1 + gen.beta1
    var = gen.alpha0 / (1.0 - persistence) if persistence > 0 else gen.alpha0

    timestamps: list[dt.datetime] = []
    rows = np.empty((n_days * BARS_PER_DAY, 6), dtype=np.float64)
    log_p = math.log(gen.start_price)
    frac = np.arange(BARS_PER_DAY + 1) / BARS_PER_DAY
    for d, date in enumerate(dates):
        drift = gen.drift
        if gen.regime_length is not None and (d // gen.regime_length) % 2 == 1:
            drift = -gen.drift
        sigma = math.sqrt(var)
        shock = rng.standard_normal() * sigma
        r = drift + shock
        var = gen.alpha0 + gen.alpha1 * shock * shock + gen.beta1 * var

        # Brownian bridge between the day's open and close log-prices.
        steps = rng.standard_normal(BARS_PER_DAY) * (sigma / math.sqrt(BARS_PER_DAY))
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        bridge = walk - frac * walk[-1]
        bounds = np.exp(log_p + frac * r + bridge)

        opens = bounds[:-1]
        closes = bounds[1:]
        pad = np.abs(rng.standard_normal(BARS_PER_DAY)) * gen.intraday_noise * sigma
        highs = np.maximum(opens, closes) * (1.0 + pad)
        lows = np.minimum(opens, closes) / (1.0 + pad)
        volume = gen.base_volume * rng.lognormal(0.0, 0.5, BARS_PER_DAY)
        amount = volume * 0.5 * (opens + closes)

        base = dt.datetime.combine(date, dt.time(9, 30))
        timestamps.extend(base + dt.timedelta(minutes=5 * k) for k in range(BARS_PER_DAY))
        sl = slice(d * BARS_PER_DAY, (d + 1) * BARS_PER_DAY)
        rows[sl, 0] = opens
        rows[sl, 1] = highs
        rows[sl, 2] = lows
        rows[sl, 3] = closes
        rows[sl, 4] = volume
        rows[sl, 5] = amount
        log_p += r
    return BarSeries(Frequency.FIVE_MIN, timestamps, rows)

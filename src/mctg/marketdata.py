"""Multi-frequency OHLCVA market data.

CSV loading, resampling a 5-minute feed into daily/weekly bars, aligning the
three frequencies into per-day observation windows, z-score normalization,
a train/test split, and a synthetic GARCH-driven bar generator.

Bar times are exchange-local ``datetime64[us]``. A trading day always carries
exactly 48 five-minute bars (a 4-hour session); days that do not are rejected.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

COLUMNS = ("open", "high", "low", "close", "volume", "amount")
CSV_HEADER = ("timestamp",) + COLUMNS

BARS_PER_DAY = 48
MID_DAYS = 30
LONG_WEEKS = 30
# Window kind -> (rows, columns) of one day's window: the decision day's
# five-minute OHLCVA, daily OHLCVA plus the volatility forecast, and weekly
# OHLCVA ending at the in-progress week.
WINDOW_SHAPES = {"short": (BARS_PER_DAY, 6), "mid": (MID_DAYS, 7), "long": (LONG_WEEKS, 6)}


class MarketDataError(Exception):
    """Bad bar data: malformed files, invariant violations, alignment gaps."""


def _week_keys(times: np.ndarray) -> np.ndarray:
    """ISO week keys: the Monday of each time's week, in days since 1970-01-01 (a Thursday)."""
    n = times.astype("datetime64[D]").astype(np.int64)
    return n - (n + 3) % 7


def _day_starts(timestamps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``datetime64[D]`` dates of ascending times, each one's first bar and bar count."""
    days = timestamps.astype("datetime64[D]")
    starts = np.flatnonzero(np.diff(days, prepend=days[:1] - 1))   # bar 0 starts a day
    return days[starts], starts, np.diff(np.append(starts, len(days)))


class BarError(MarketDataError):
    """A bar breaks an OHLCVA invariant or the time order; ``index`` is its row."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class BarSeries:
    """Time-ordered bars, stored column-wise for slicing.

    Construction raises BarError for the first bar that has no time (NaT),
    is non-finite, has low <= 0, a high below or a low above its open/close,
    negative volume/amount, or a timestamp not after the previous one.
    """

    def __init__(self, timestamps, values: np.ndarray):
        timestamps = np.asarray(timestamps, dtype="datetime64[us]")
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != 6:
            raise MarketDataError(f"bar values must be (n, 6), got {values.shape}")
        if timestamps.shape != (values.shape[0],):
            raise MarketDataError("timestamp/value length mismatch")
        o, h, l, c, v, a = values.T
        out_of_order = np.zeros(len(values), dtype=bool)
        out_of_order[1:] = timestamps[1:] <= timestamps[:-1]
        checks = (
            (np.isnat(timestamps), "missing timestamp"),
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
            raise BarError(i, f"{reason} at {timestamps[i].item() or 'NaT'}")
        self.timestamps = timestamps
        self.values = values

    def __len__(self) -> int:
        return len(self.timestamps)


# save_bars's time form: a text minus it, code by code, is 0 at separators, 0-9 at digits.
_FORM = np.array(["0000-00-00T00:00"]).view(np.uint32)
_SPAN = np.where(_FORM == ord("0"), 9, 0).astype(np.uint32)


def _parse_times(path: str, texts: list[str], linenos: list[int]) -> np.ndarray:
    """A CSV's timestamp column as ``datetime.fromisoformat`` reads it, with no
    UTC offset. numpy parses the texts in save_bars's form at once; the others
    are read alone, as numpy reads some that fromisoformat refuses ("2020")."""
    column = np.array(texts, dtype=str)
    column = np.asarray(column, f"U{max(16, column.itemsize // 4)}")   # the form fits
    codes = column.view(np.uint32).reshape(len(texts), -1)
    canonical = ((codes[:, :16] - _FORM) <= _SPAN).all(axis=1) & ~codes[:, 16:].any(axis=1)
    stand_ins = texts if canonical.all() else [  # any text numpy reads stands in for the others
        t if ok else "1970-01-01T00:00" for t, ok in zip(texts, canonical.tolist())]
    try:
        times = np.array(stand_ins, dtype="datetime64[us]")
    except ValueError:   # a text in the form can still name month 13
        times = np.full(len(texts), np.datetime64("NaT", "us"))
    canonical &= times >= np.datetime64(dt.datetime.min)   # the form allows year 0
    for i in np.flatnonzero(~canonical):
        try:
            time = dt.datetime.fromisoformat(texts[i])
        except ValueError as e:
            raise MarketDataError(f"{path}: row {linenos[i]}: {e}") from None
        if time.tzinfo is not None:
            raise MarketDataError(f"{path}: row {linenos[i]}: timestamp {texts[i]} has a "
                                  "UTC offset; bar times are exchange-local")
        times[i] = time
    return times


def load_bars(path: str) -> BarSeries:
    """Load a bar CSV (header ``timestamp,open,high,low,close,volume,amount``).
    A bad row, or a bar that breaks an invariant or the time order, is
    rejected with the number of the first such line."""
    texts, rows, linenos = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise MarketDataError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            texts.append(row[0].strip())
            linenos.append(lineno)
            try:
                if len(row) != 7:
                    raise ValueError(f"expected 7 fields, got {len(row)}")
                rows.append([float(x) for x in row[1:]])
            except ValueError as e:
                _parse_times(path, texts, linenos)   # names a bad time up to this line first
                raise MarketDataError(f"{path}: row {lineno}: {e}") from None
    if not rows:
        raise MarketDataError(f"{path}: no bars")
    try:
        return BarSeries(_parse_times(path, texts, linenos), np.array(rows, dtype=np.float64))
    except BarError as e:
        raise MarketDataError(f"{path}: row {linenos[e.index]}: {e}") from None


def save_bars(series: BarSeries, path: str) -> None:
    """Write a BarSeries back to the CSV format accepted by load_bars, with
    timestamps to the minute.

    The bytes are ``csv.writer``'s: no field needs quoting, and lines end in
    ``\r\n``."""
    stamps = np.datetime_as_string(series.timestamps, unit="m").tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(f"{ts},{','.join(map(repr, row))}\r\n"
                      for ts, row in zip(stamps, series.values.tolist()))


def _aggregate_blocks(block: np.ndarray, volume_amount: np.ndarray) -> np.ndarray:
    """OHLCVA of each (width, 6) block of consecutive bars, given its summed
    (volume, amount); padding past a block's end repeats its last bar."""
    return np.column_stack([block[:, 0, 0], block[:, :, 1].max(axis=1),
                            block[:, :, 2].min(axis=1), block[:, -1, 3], volume_amount])


def _week_to_date(daily: np.ndarray, week_keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """OHLCVA of each row's ISO week up to and including the row, from daily
    bars and their ascending ISO week keys. A running sum read at the row adds
    volume and amount left to right."""
    starts = np.searchsorted(week_keys, week_keys[rows])
    offsets = rows - starts
    block = daily[np.minimum(starts[:, None] + np.arange(offsets.max() + 1), rows[:, None])]
    return _aggregate_blocks(block, np.take_along_axis(
        block[:, :, 4:].cumsum(axis=1), offsets[:, None, None], axis=1)[:, 0])


def resample(five_min: BarSeries) -> tuple[BarSeries, BarSeries]:
    """Aggregate a 5-minute series into daily and calendar-week bars.

    Every trading day must have exactly 48 bars, and its summed volume and
    amount must stay in the float range. Daily bars are stamped at midnight
    of their date; weekly bars at the week's last trading day.
    """
    dates, _, counts = _day_starts(five_min.timestamps)
    if not len(dates):
        raise MarketDataError("no bars to resample")
    d = np.argmax(counts != BARS_PER_DAY)
    if counts[d] != BARS_PER_DAY:
        raise MarketDataError(f"day {dates[d]} has {counts[d]} bars, expected {BARS_PER_DAY}")
    bars = five_min.values.reshape(-1, BARS_PER_DAY, 6)
    keys = _week_keys(dates)
    ends = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
    # Volume and amount can sum past the float range where no bar does; the
    # check below names the first day or week that does, so numpy need not warn.
    with np.errstate(over="ignore"):
        # One column at a time: a (days, 48) sum adds in the order of a sum over
        # one day's column, which a (days, 48, 2) sum does not.
        sums = np.column_stack([bars[:, :, 4].sum(axis=1), bars[:, :, 5].sum(axis=1)])
        day_values = _aggregate_blocks(bars, sums)
        week_values = _week_to_date(day_values, keys, ends)
    for what, values, days in (("day", day_values, dates),
                               ("week ending", week_values, dates[ends])):
        bad = ~np.isfinite(values[:, 4:]).all(axis=1)
        if bad.any():
            raise MarketDataError(f"{what} {days[int(np.argmax(bad))]}: its summed "
                                  "volume or amount leaves the float range")
    return BarSeries(dates, day_values), BarSeries(dates[ends], week_values)


@dataclass(frozen=True)
class AlignedDataset:
    """Trading days with their observation windows and daily opens: row k of
    the read-only window and open arrays belongs to ``trading_days[k]``.
    ``windows`` maps each ``WINDOW_SHAPES`` kind to its (n_days, rows, cols)
    array; an observation is such a map, for one day or many."""

    trading_days: list[dt.date]
    windows: dict[str, np.ndarray] = field(repr=False)
    opens: np.ndarray = field(repr=False)           # (n_days,)

    @property
    def n_days(self) -> int:
        return len(self.trading_days)


def align(five_min: BarSeries, daily: BarSeries, weekly: BarSeries,
          daily_vol: np.ndarray) -> AlignedDataset:
    """Intersect the three frequencies into the days a full window exists for,
    and build every such day's windows.

    A trading day qualifies when it has 48 five-minute bars, at least 30 daily
    bars ending at it, and at least 29 completed weekly bars before its week.
    The weekly window never looks past the decision day: its last row is the
    in-progress week aggregated from daily bars up to and including the day.
    Series carry no frequency tag: misordered series fail the ``daily_vol``
    length check or leave no trading day.
    """
    daily_vol = np.asarray(daily_vol, dtype=np.float64)
    if daily_vol.shape != (len(daily),):
        raise MarketDataError(
            f"daily_vol length {daily_vol.shape} does not match {len(daily)} daily bars")
    if not np.all(np.isfinite(daily_vol)) or np.any(daily_vol <= 0):
        raise MarketDataError("daily_vol entries must be finite and positive")

    fm_dates, fm_starts, counts = _day_starts(five_min.timestamps)
    fm_dates, fm_starts = fm_dates[counts == BARS_PER_DAY], fm_starts[counts == BARS_PER_DAY]
    dates = daily.timestamps.astype("datetime64[D]")
    day_keys = _week_keys(dates)
    # Per daily row: completed weekly bars before its ISO week.
    weeks_before = np.searchsorted(_week_keys(weekly.timestamps), day_keys)

    rows = np.flatnonzero((np.arange(len(dates)) >= MID_DAYS - 1) & np.isin(dates, fm_dates)
                          & (weeks_before >= LONG_WEEKS - 1))
    if not len(rows):
        raise MarketDataError("no trading day admits a full observation window")
    fm_rows = fm_starts[np.searchsorted(fm_dates, dates[rows])][:, None] + np.arange(BARS_PER_DAY)
    mid_rows = rows[:, None] + np.arange(1 - MID_DAYS, 1)
    week_rows = weeks_before[rows, None] + np.arange(1 - LONG_WEEKS, 0)
    windows = {
        "short": five_min.values[fm_rows],
        "mid": np.concatenate([daily.values[mid_rows], daily_vol[mid_rows, None]], axis=2),
        "long": np.concatenate([weekly.values[week_rows],
                                _week_to_date(daily.values, day_keys, rows)[:, None]], axis=1),
    }
    opens = daily.values[rows, 0]
    for array in (*windows.values(), opens):
        array.flags.writeable = False
    return AlignedDataset(dates[rows].tolist(), windows, opens)


def window_at(dataset: AlignedDataset, day_index: int) -> dict[str, np.ndarray]:
    """The raw (un-normalized) observation for one trading day: read-only rows
    of the dataset's window arrays."""
    if not 0 <= day_index < dataset.n_days:
        raise MarketDataError(f"day index {day_index} out of range [0, {dataset.n_days})")
    return {kind: w[day_index] for kind, w in dataset.windows.items()}


class ObservationNormalizer:
    """Per-column z-score normalizer fit on training-day windows only.

    Columns with zero variance keep std 1 so constant features normalize to 0.
    Follows the fit/transform convention; learned statistics live in
    ``mean_[kind]`` / ``std_[kind]``, one value per column of the kind's window.
    """

    def __init__(self):
        self.fitted_ = False
        self.mean_: dict[str, np.ndarray] = {}
        self.std_: dict[str, np.ndarray] = {}

    def fit(self, dataset: AlignedDataset, day_indices) -> "ObservationNormalizer":
        days = np.asarray(list(day_indices), dtype=np.intp)
        if not len(days):
            raise MarketDataError("cannot fit normalizer on an empty day range")
        if days.min() < 0 or days.max() >= dataset.n_days:
            raise MarketDataError(f"day indices out of range [0, {dataset.n_days})")
        for kind, windows in dataset.windows.items():
            data = windows[days].reshape(-1, windows.shape[2])
            std = data.std(axis=0)
            std[std == 0.0] = 1.0
            self.mean_[kind] = data.mean(axis=0)
            self.std_[kind] = std
        self.fitted_ = True
        return self

    def transform(self, dataset: AlignedDataset) -> AlignedDataset:
        """The dataset with every window array z-scored, as new read-only
        arrays; the input dataset is left as it is.

        Each statistic is first spread to a contiguous (rows, cols) array, so
        the subtract and divide each run over whole window rows; the bits
        are those of ``(windows - mean) / std``."""
        if not self.fitted_:
            raise MarketDataError("normalizer is not fitted")
        normalized = {}
        for kind, windows in dataset.windows.items():
            shape = windows.shape[1:]
            z = np.subtract(windows, np.broadcast_to(self.mean_[kind], shape).copy())
            z /= np.broadcast_to(self.std_[kind], shape).copy()
            z.flags.writeable = False
            normalized[kind] = z
        return AlignedDataset(dataset.trading_days, normalized, dataset.opens)

    def to_dict(self) -> dict:
        if not self.fitted_:
            raise MarketDataError("normalizer is not fitted")
        return {kind: {"mean": self.mean_[kind].tolist(), "std": self.std_[kind].tolist()}
                for kind in WINDOW_SHAPES}

    @classmethod
    def from_dict(cls, data: dict) -> "ObservationNormalizer":
        """Rebuild from ``to_dict`` output. Each statistic must have its
        window's column shape and be finite, and each std must be > 0, as
        ``fit`` writes them; anything else would broadcast or divide silently."""
        if not isinstance(data, dict):
            raise MarketDataError("normalizer statistics are not a JSON object")
        norm = cls()
        for kind, (_, cols) in WINDOW_SHAPES.items():
            stats = data.get(kind, {})
            if not isinstance(stats, dict):
                raise MarketDataError(f"normalizer {kind} is not a JSON object")
            for stat, learned in (("mean", norm.mean_), ("std", norm.std_)):
                if stat not in stats:
                    raise MarketDataError(f"normalizer lacks {kind}.{stat}")
                value = np.asarray(stats[stat], dtype=np.float64)
                if value.shape != (cols,):
                    raise MarketDataError(
                        f"normalizer {kind}.{stat} has shape {value.shape}, expected {(cols,)}")
                if not np.all(np.isfinite(value)):
                    raise MarketDataError(f"normalizer {kind}.{stat} is not finite")
                if stat == "std" and np.any(value <= 0):
                    raise MarketDataError(f"normalizer {kind}.std has an entry <= 0")
                learned[kind] = value
        norm.fitted_ = True
        return norm


def split(dataset: AlignedDataset, boundary: dt.date) -> tuple[AlignedDataset, AlignedDataset]:
    """Partition trading days at a boundary date (train < boundary <= test).

    Test windows may reach back into the training days.
    """
    k = bisect_left(dataset.trading_days, boundary)
    if k == 0:
        raise MarketDataError(f"boundary {boundary} leaves an empty training set")
    if k == dataset.n_days:
        raise MarketDataError(f"boundary {boundary} leaves an empty test set")
    return tuple(AlignedDataset(dataset.trading_days[days],
                                {kind: w[days] for kind, w in dataset.windows.items()},
                                dataset.opens[days])
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
        for name in ("drift", "alpha0", "alpha1", "beta1", "intraday_noise", "start_price",
                     "base_volume"):
            if not math.isfinite(getattr(self, name)):
                raise MarketDataError(f"{name} must be finite")
        if self.alpha0 < 0 or (self.alpha0 == 0 and (self.alpha1 or self.beta1)):
            raise MarketDataError("alpha0 must be > 0 (0 only with alpha1 = beta1 = 0)")
        for name in ("alpha1", "beta1", "intraday_noise", "base_volume"):
            if getattr(self, name) < 0:
                raise MarketDataError(f"{name} must be >= 0")
        if self.alpha1 + self.beta1 >= 1:
            raise MarketDataError("alpha1 + beta1 must be < 1")
        if self.start_price <= 0:
            raise MarketDataError("start_price must be > 0")
        if self.regime_length is not None and self.regime_length < 1:
            raise MarketDataError("regime_length must be >= 1")


# Extreme settings can push the path out of the float range; simulate_market's
# check names the first day that leaves it, so numpy need not warn.
@np.errstate(over="ignore", under="ignore", invalid="ignore")
def _simulate_rows(gen: MarketGenParams, n_days: int, seed: int) -> np.ndarray:
    """The ``(n_days * 48, 6)`` OHLCVA rows of ``simulate_market``.

    One standard-normal draw of ``(n_days, 1 + 3 * 48)`` feeds the days, each
    row in the order a day uses it: the daily shock, 48 bridge steps, 48
    high/low pads and 48 log-volumes. The daily variance and log-price are a
    scalar recursion; the bars are whole-array arithmetic on it. The volume's
    lognormal goes through ``math.exp``, the libm ``exp`` that
    ``Generator.lognormal`` calls; ``np.exp`` rounds some of them differently.
    """
    draws = np.random.default_rng(seed).standard_normal((n_days, 1 + 3 * BARS_PER_DAY))
    steps, pads, log_volumes = np.split(draws[:, 1:], 3, axis=1)

    persistence = gen.alpha1 + gen.beta1
    var = gen.alpha0 / (1.0 - persistence) if persistence > 0 else gen.alpha0
    log_p = math.log(gen.start_price)
    sigma, r, open_log_p = np.empty((3, n_days, 1))
    for d, z in enumerate(draws[:, 0].tolist()):
        drift = gen.drift
        if gen.regime_length is not None and (d // gen.regime_length) % 2 == 1:
            drift = -gen.drift
        day_sigma = math.sqrt(var)
        shock = z * day_sigma
        day_r = drift + shock
        var = gen.alpha0 + gen.alpha1 * shock * shock + gen.beta1 * var
        sigma[d], r[d], open_log_p[d] = day_sigma, day_r, log_p
        log_p += day_r

    # Brownian bridge between each day's open and close log-prices.
    frac = np.arange(BARS_PER_DAY + 1) / BARS_PER_DAY
    walk = np.zeros((n_days, BARS_PER_DAY + 1))
    np.cumsum(steps * (sigma / math.sqrt(BARS_PER_DAY)), axis=1, out=walk[:, 1:])
    bounds = np.exp(open_log_p + frac * r + (walk - frac * walk[:, -1:]))

    opens = bounds[:, :-1]
    closes = bounds[:, 1:]
    pad = 1.0 + np.abs(pads) * gen.intraday_noise * sigma
    volume = gen.base_volume * np.fromiter(
        map(math.exp, (0.5 * log_volumes).flat), float, log_volumes.size).reshape(n_days, -1)
    rows = np.empty((n_days, BARS_PER_DAY, 6))
    rows[..., 0] = opens
    rows[..., 1] = np.maximum(opens, closes) * pad
    rows[..., 2] = np.minimum(opens, closes) / pad
    rows[..., 3] = closes
    rows[..., 4] = volume
    rows[..., 5] = volume * 0.5 * (opens + closes)
    return rows.reshape(-1, 6)


def simulate_market(gen: MarketGenParams, n_days: int, seed: int) -> BarSeries:
    """Generate a deterministic synthetic 5-minute series of ``n_days`` days.

    Raises MarketDataError naming the first day whose bars leave the float
    range (a field that overflows, or a price that underflows to 0) and the
    settings behind it: ``base_volume`` when the day's volume leaves it, and
    the price path's settings when a price does, or when the prices stay in
    range but the amount, volume times price, does not."""
    if n_days < 1:
        raise MarketDataError("n_days must be >= 1")
    dates = np.busday_offset(gen.start_date, np.arange(n_days), roll="forward")
    if dates[-1] > np.datetime64(dt.date.max):
        raise MarketDataError(f"{n_days} trading days from start_date={gen.start_date} pass 9999")
    rows = _simulate_rows(gen, n_days, seed)  # its temporaries are freed by now
    prices_ok = (np.isfinite(rows[:, :4]) & (rows[:, :4] > 0)).all(axis=1)
    bad = ~(prices_ok & np.isfinite(rows[:, 4:]).all(axis=1))
    if bad.any():
        d = int(np.argmax(bad)) // BARS_PER_DAY
        day = slice(d * BARS_PER_DAY, (d + 1) * BARS_PER_DAY)
        if not prices_ok[day].all():
            cause = (f"the path is driven by drift={gen.drift}, alpha0={gen.alpha0}, "
                     f"start_price={gen.start_price}")
        elif not np.isfinite(rows[day, 4]).all():
            cause = f"the volume and amount scale with base_volume={gen.base_volume}"
        else:
            cause = (f"the amount is volume times a price driven by drift={gen.drift} "
                     f"from start_price={gen.start_price}")
        raise MarketDataError(f"generated bars leave the float range on {dates[d]}; {cause}")
    minutes = np.arange(9 * 60 + 30, 9 * 60 + 30 + 5 * BARS_PER_DAY, 5).astype("timedelta64[m]")
    return BarSeries((dates[:, None] + minutes).ravel(), rows)

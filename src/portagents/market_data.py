"""OHLCV ingestion, price relatives, rolling covariance, and synthetic
regime-switching price generation.

Conventions: the date axis is ascending, day indices are 0-based, and the
price relative realised on day t is close[t]/close[t-1] (available for
t = 1..T-1, stored at row t-1 of ``OhlcvSeries.relatives()``).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyIntersection,
    InsufficientHistory,
    InvalidRegime,
    IoFailure,
    MalformedRow,
    MissingColumn,
    NonPositivePrice,
    SeriesTooShort,
    UnparseableDate,
)

# the range a close relative must fall in: a relative near 1e298 is finite,
# but it overflows the first layer of a net that reads it
RELATIVE_BOUNDS = (1e-6, 1e6)


@dataclass
class OhlcvSeries:
    """Aligned closes: a (T, N) price array over a shared date axis.

    Every agent and baseline reads only price relatives, so a series keeps
    no open, high or low: :func:`load_ohlcv` checks a long CSV's and drops
    them, and :func:`write_ohlcv_csv` derives them from the closes.
    """

    asset_ids: list[str]
    dates: list[str]  # ISO-8601, ascending
    close: np.ndarray

    def __post_init__(self):
        self.close = np.asarray(self.close, dtype=np.float64)
        t, n = self.close.shape
        if t < 2:
            raise SeriesTooShort(f"need at least 2 days, got {t}")
        if len(self.dates) != t or len(self.asset_ids) != n:
            raise SeriesTooShort(
                f"axis mismatch: {len(self.dates)} dates, {len(self.asset_ids)} assets, "
                f"prices {self.close.shape}"
            )
        if not np.all(np.isfinite(self.close)):
            raise NonPositivePrice("close contains a price that is not finite")
        if not np.all(self.close > 0.0):
            raise NonPositivePrice("close contains non-positive prices")
        if list(self.dates) != sorted(self.dates):
            raise UnparseableDate("dates are not ascending")
        # every pass slices this one array, so none may write into it
        with np.errstate(over="ignore"):
            self._relatives = self.close[1:] / self.close[:-1]
        rel = self._relatives
        lo, hi = RELATIVE_BOUNDS
        for bad, rule in (
            (~(np.isfinite(rel) & (rel > 0.0)), "not positive and finite"),
            ((rel < lo) | (rel > hi), f"outside [{lo:g}, {hi:g}]"),
        ):
            if bad.any():
                t, j = np.argwhere(bad)[0]
                raise NonPositivePrice(
                    f"close relative of {self.asset_ids[j]} on {self.dates[t + 1]} is {rel[t, j]}, {rule}"
                )
        self._relatives.setflags(write=False)

    @property
    def n_days(self) -> int:
        return self.close.shape[0]

    @property
    def n_assets(self) -> int:
        return self.close.shape[1]

    def relatives(self) -> np.ndarray:
        """All price relatives close[t]/close[t-1], shape (T-1, N), read-only."""
        return self._relatives


def _parse_iso_date(text: str, line_no: int) -> str:
    try:
        return dt.date.fromisoformat(text.strip()).isoformat()
    except ValueError as exc:
        raise UnparseableDate(f"line {line_no}: cannot parse date {text!r}") from exc


def _parse_price(text: str, line_no: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise NonPositivePrice(
            f"line {line_no}: cannot parse {column} value {text!r}"
        ) from exc
    if not math.isfinite(value):
        raise NonPositivePrice(f"line {line_no}: {column} = {value} is not finite")
    if not value > 0.0:
        raise NonPositivePrice(f"line {line_no}: {column} = {value} is not positive")
    return value


@dataclass
class LoadConfig:
    """CSV layout description for :func:`load_ohlcv`.

    ``layout="long"`` expects columns (date, asset, open, high, low, close);
    ``layout="wide"`` expects a date column plus one close column per asset.
    """

    layout: str = "long"
    delimiter: str = ","
    date_column: str = "date"
    asset_column: str = "asset"
    open_column: str = "open"
    high_column: str = "high"
    low_column: str = "low"
    close_column: str = "close"

    def __post_init__(self):
        if self.layout not in ("long", "wide"):
            raise ConfigError(f"data.load.layout {self.layout!r} must be 'long' or 'wide'")
        if len(self.delimiter) != 1 or self.delimiter in "\r\n":
            raise ConfigError(
                f"data.load.delimiter {self.delimiter!r} must be one character other than a line break"
            )


def load_ohlcv(path, config: LoadConfig | None = None) -> OhlcvSeries:
    """Load and align a CSV of daily prices.

    Assets are aligned on the intersection of their date sets; no values are
    imputed. A long-layout row must have as many fields as the header, and a
    wide-layout row no more; no (date, asset), or in the wide layout no date,
    may repeat. Raises MissingColumn, MalformedRow, UnparseableDate,
    NonPositivePrice or EmptyIntersection on bad input.
    """
    cfg = config or LoadConfig()
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=cfg.delimiter))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise EmptyIntersection(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}

    if cfg.date_column not in col:
        raise MissingColumn(f"missing column {cfg.date_column!r}")

    # per-asset maps date -> (close, line number)
    cells: dict[str, dict[str, tuple]] = {}

    if cfg.layout == "long":
        price_cols = (cfg.open_column, cfg.high_column, cfg.low_column, cfg.close_column)
        for name in (cfg.asset_column, *price_cols):
            if name not in col:
                raise MissingColumn(f"missing column {name!r}")
        for line_no, row in enumerate(rows[1:], start=2):
            if not any(f.strip() for f in row):
                continue
            if len(row) != len(header):
                raise MalformedRow(f"line {line_no} has {len(row)} fields, the header {len(header)}")
            date = _parse_iso_date(row[col[cfg.date_column]], line_no)
            asset = row[col[cfg.asset_column]].strip()
            per_asset = cells.setdefault(asset, {})
            if date in per_asset:
                raise MalformedRow(f"line {line_no} repeats date {date}, asset {asset!r} of line {per_asset[date][1]}")
            # open, high and low are checked like the close, then dropped
            *_, close = (_parse_price(row[col[name]], line_no, name) for name in price_cols)
            per_asset[date] = (close, line_no)
    else:  # wide
        asset_cols = [(name, i) for name, i in col.items() if name != cfg.date_column]
        if not asset_cols:
            raise MissingColumn("wide layout needs at least one asset column")
        lines: dict[str, int] = {}  # date -> the line it came from
        for line_no, row in enumerate(rows[1:], start=2):
            if not any(f.strip() for f in row):
                continue
            if len(row) > len(header):
                raise MalformedRow(f"line {line_no} has {len(row)} fields, the header {len(header)}")
            date = _parse_iso_date(row[col[cfg.date_column]], line_no)
            if date in lines:
                raise MalformedRow(f"line {line_no} repeats date {date} of line {lines[date]}")
            lines[date] = line_no
            for name, i in asset_cols:
                text = row[i].strip() if i < len(row) else ""
                if not text or text.lower() in ("na", "nan", "null"):
                    continue  # missing cell: the date drops out of the intersection
                cells.setdefault(name, {})[date] = (_parse_price(text, line_no, name), line_no)

    del rows  # parsed: free the text before the panel is built
    if not cells:
        raise EmptyIntersection(f"{path} has no data rows")

    shared = None
    for per_asset in cells.values():
        keys = set(per_asset)
        shared = keys if shared is None else shared & keys
    if not shared:
        raise EmptyIntersection("assets share no dates")
    dates = sorted(shared)
    assets = sorted(cells)

    close = np.array([[cells[asset][date][0] for asset in assets] for date in dates])
    return OhlcvSeries(asset_ids=assets, dates=dates, close=close)


def write_ohlcv_csv(series: OhlcvSeries, path):
    """Write the long-format CSV understood by :func:`load_ohlcv`.

    Open, high and low are derived from the closes: a day opens at the
    previous close (the first day at its own close), and its high and low
    are the larger and the smaller of its open and close.
    """
    close = series.close
    open_ = np.vstack([close[:1], close[:-1]])
    # (T, N, 4) Python floats in column order; repr is the shortest exact text
    days = np.stack([open_, np.maximum(open_, close), np.minimum(open_, close), close], axis=-1).tolist()
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "asset", "open", "high", "low", "close"])
            for date, day in zip(series.dates, days):
                for asset, prices in zip(series.asset_ids, day):
                    writer.writerow([date, asset, *map(repr, prices)])
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def rolling_covariance(series: OhlcvSeries, t: int, k: int = 21) -> np.ndarray:
    """Sample covariance (divisor k-1) of the k simple-return rows for days
    t-k..t-1, anchored at day t; an (N, N) matrix.

    Only closes up to day t-1 enter the estimate (no look-ahead); day t needs
    t >= k+1 so that all k rows exist.
    """
    if k < 2:
        raise InsufficientHistory(f"window k={k} must be >= 2")
    relatives = series.relatives()
    n_rows = relatives.shape[0]
    if t < k + 1:
        raise InsufficientHistory(f"anchor t={t} needs t >= k+1 = {k + 1}")
    if t - 1 > n_rows:
        raise InsufficientHistory(f"anchor t={t} beyond available returns ({n_rows} rows)")
    window = relatives[t - k - 1 : t - 1] - 1.0
    return np.atleast_2d(np.cov(window, rowvar=False, ddof=1))


# -- synthetic data ----------------------------------------------------------


@dataclass
class Regime:
    """One market regime: per-day drift and volatility over ``length`` days.

    ``drift`` and ``vol`` may be scalars or per-asset sequences; ``corr`` is a
    single pairwise correlation applied across assets.
    """

    drift: float | list[float] = 0.0
    vol: float | list[float] = 0.0
    length: int = 1
    corr: float = 0.0


def _regime_params(regime: Regime, n_assets: int, name: str):
    """Per-asset drift and vol and the correlation's Cholesky factor; range
    errors name the regime's fields under ``name``."""
    try:
        drift = np.broadcast_to(np.asarray(regime.drift, dtype=np.float64), (n_assets,))
        vol = np.broadcast_to(np.asarray(regime.vol, dtype=np.float64), (n_assets,))
    except ValueError as exc:
        raise InvalidRegime(f"{name}.drift and .vol need one value or {n_assets} values") from exc
    length = int(regime.length)
    corr = float(regime.corr)
    if length < 1:
        raise InvalidRegime(f"{name}.length {length} must be >= 1")
    if np.any(vol < 0.0):
        raise InvalidRegime(f"{name}.vol must be non-negative")
    if np.any(drift <= -1.0):
        raise InvalidRegime(f"{name}.drift must stay above -100%/day")
    if not -1.0 < corr <= 1.0:
        raise InvalidRegime(f"{name}.corr {corr} outside (-1, 1]")
    c = np.full((n_assets, n_assets), corr)
    np.fill_diagonal(c, 1.0)
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        raise InvalidRegime(f"{name}.corr {corr} is not PSD for {n_assets} assets") from exc
    return drift, vol, chol


def synth_generate(
    regimes,
    n_assets: int,
    seed: int,
    s0: float = 100.0,
    asset_prefix: str = "A",
    start_date: str = "2000-01-01",
) -> OhlcvSeries:
    """Geometric random-walk prices over a list of regimes.

    close[0] = s0; each later day multiplies by
    (1 + drift) * exp(vol*z - vol^2/2) with z correlated across assets, so a
    zero-vol regime compounds exactly at (1 + drift) per day. Identical seeds
    give bit-identical output. A regime that compounds a close past the
    float range raises NonPositivePrice naming the regime and the day.
    """
    if n_assets < 1:
        raise InvalidRegime("need at least one asset")
    if not regimes:
        raise InvalidRegime("regimes must hold at least one regime")
    params = [_regime_params(r, n_assets, f"regimes[{i}]") for i, r in enumerate(regimes)]
    total = sum(int(r.length) for r in regimes)
    if total < 2:
        raise InvalidRegime("regimes must cover at least 2 days")

    rng = np.random.default_rng(seed)
    close = np.empty((total, n_assets))
    close[0] = s0
    day = 1
    for i, ((drift, vol, chol), regime) in enumerate(zip(params, regimes)):
        length = int(regime.length)
        # the first regime loses its first day to the s0 anchor
        steps = length - 1 if i == 0 else length
        if steps == 0:
            continue
        z = rng.standard_normal((steps, n_assets)) @ chol.T
        with np.errstate(over="ignore", invalid="ignore"):
            factors = (1.0 + drift) * np.exp(vol * z - 0.5 * vol * vol)
            # seeded with the previous close, each row is the row before it times its factor
            close[day : day + steps] = np.cumprod(np.vstack([close[day - 1], factors]), axis=0)[1:]
        day += steps
        finite = np.isfinite(close[day - steps : day]).all(axis=1)
        if not finite.all():
            first = day - steps + int(np.argmin(finite))
            raise NonPositivePrice(f"regimes[{i}] makes a close that is not finite on day {first}")

    base = dt.date.fromisoformat(start_date)
    dates = [(base + dt.timedelta(days=i)).isoformat() for i in range(total)]
    assets = [f"{asset_prefix}{j + 1}" for j in range(n_assets)]
    return OhlcvSeries(asset_ids=assets, dates=dates, close=close)


def synth_from_spec(spec) -> OhlcvSeries:
    """Build a synthetic series from a checked ``data.synth`` block
    (a ``config.SynthSpec``)."""
    return synth_generate(
        spec.regimes, spec.assets, spec.seed, spec.s0, spec.asset_prefix, spec.start_date
    )

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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyIntersection,
    InsufficientHistory,
    InvalidRegime,
    IoFailure,
    MissingColumn,
    NonPositivePrice,
    SeriesTooShort,
    UnparseableDate,
)

PRICE_FIELDS = ("open", "high", "low", "close")


@dataclass
class OhlcvSeries:
    """Aligned OHLCV panel: (T, N) price arrays over a shared date axis."""

    asset_ids: list[str]
    dates: list[str]  # ISO-8601, ascending
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        for name in PRICE_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
        t, n = self.close.shape
        if t < 2:
            raise SeriesTooShort(f"need at least 2 days, got {t}")
        if len(self.dates) != t or len(self.asset_ids) != n:
            raise SeriesTooShort(
                f"axis mismatch: {len(self.dates)} dates, {len(self.asset_ids)} assets, "
                f"prices {self.close.shape}"
            )
        for name in PRICE_FIELDS:
            arr = getattr(self, name)
            if arr.shape != (t, n):
                raise SeriesTooShort(f"{name} shape {arr.shape} != {(t, n)}")
            if not np.all(np.isfinite(arr)):
                raise NonPositivePrice(f"{name} contains a price that is not finite")
            if not np.all(arr > 0.0):
                raise NonPositivePrice(f"{name} contains non-positive prices")
        if list(self.dates) != sorted(self.dates):
            raise UnparseableDate("dates are not ascending")
        # every pass slices this one array, so none may write into it
        self._relatives = self.close[1:] / self.close[:-1]
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
    ``layout="wide"`` expects a date column plus one close column per asset
    (OHLC filled from close).
    """

    layout: str = "long"
    delimiter: str = ","
    date_column: str = "date"
    asset_column: str = "asset"
    open_column: str = "open"
    high_column: str = "high"
    low_column: str = "low"
    close_column: str = "close"


def load_ohlcv(path, config: LoadConfig | None = None) -> OhlcvSeries:
    """Load and align a CSV of daily prices.

    Assets are aligned on the intersection of their date sets; no values are
    imputed. Raises MissingColumn, UnparseableDate, NonPositivePrice or
    EmptyIntersection on bad input.
    """
    cfg = config or LoadConfig()
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, delimiter=cfg.delimiter))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise EmptyIntersection(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}

    if cfg.date_column not in col:
        raise MissingColumn(f"missing column {cfg.date_column!r}")

    # per-asset maps date -> (o, h, l, c)
    cells: dict[str, dict[str, tuple]] = {}

    if cfg.layout == "long":
        price_cols = (cfg.open_column, cfg.high_column, cfg.low_column, cfg.close_column)
        for name in (cfg.asset_column, *price_cols):
            if name not in col:
                raise MissingColumn(f"missing column {name!r}")
        for line_no, row in enumerate(rows[1:], start=2):
            if not any(f.strip() for f in row):
                continue
            date = _parse_iso_date(row[col[cfg.date_column]], line_no)
            asset = row[col[cfg.asset_column]].strip()
            prices = tuple(
                _parse_price(row[col[name]], line_no, name) for name in price_cols
            )
            cells.setdefault(asset, {})[date] = prices
    elif cfg.layout == "wide":
        asset_cols = [(name, i) for name, i in col.items() if name != cfg.date_column]
        if not asset_cols:
            raise MissingColumn("wide layout needs at least one asset column")
        for line_no, row in enumerate(rows[1:], start=2):
            if not any(f.strip() for f in row):
                continue
            date = _parse_iso_date(row[col[cfg.date_column]], line_no)
            for name, i in asset_cols:
                text = row[i].strip() if i < len(row) else ""
                if not text or text.lower() in ("na", "nan", "null"):
                    continue  # missing cell: the date drops out of the intersection
                c = _parse_price(text, line_no, name)
                cells.setdefault(name, {})[date] = (c, c, c, c)
    else:
        raise MissingColumn(f"unknown layout {cfg.layout!r}")

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

    arrays = {name: np.empty((len(dates), len(assets))) for name in PRICE_FIELDS}
    for j, asset in enumerate(assets):
        per_asset = cells[asset]
        for i, date in enumerate(dates):
            o, h, l, c = per_asset[date]
            arrays["open"][i, j] = o
            arrays["high"][i, j] = h
            arrays["low"][i, j] = l
            arrays["close"][i, j] = c
    return OhlcvSeries(asset_ids=assets, dates=dates, **arrays)


def write_ohlcv_csv(series: OhlcvSeries, path):
    """Write the long-format CSV understood by :func:`load_ohlcv`."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "asset", "open", "high", "low", "close"])
            for i, date in enumerate(series.dates):
                for j, asset in enumerate(series.asset_ids):
                    writer.writerow(
                        [
                            date,
                            asset,
                            repr(float(series.open[i, j])),
                            repr(float(series.high[i, j])),
                            repr(float(series.low[i, j])),
                            repr(float(series.close[i, j])),
                        ]
                    )
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

    drift: object = 0.0
    vol: object = 0.0
    length: int = 1
    corr: float = 0.0

    @classmethod
    def from_dict(cls, raw: dict, name: str = "regime") -> "Regime":
        """Build a regime from a JSON-style object; ``name`` prefixes the
        field named in an InvalidRegime message."""
        if not isinstance(raw, dict):
            raise InvalidRegime(f"{name} must be of type object, got {raw!r}")
        extra = set(raw) - set(_REGIME_KINDS)
        if extra:
            raise InvalidRegime(f"unknown {name} fields {sorted(extra)}")
        for key, value in raw.items():
            per_asset = key in ("drift", "vol") and isinstance(value, (list, tuple))
            ok = all(map(_is_number, value)) if per_asset else _is_number(value)
            if not ok or (key == "length" and not isinstance(value, numbers.Integral)):
                raise InvalidRegime(f"{name}.{key} must be of type {_REGIME_KINDS[key]}, got {value!r}")
        return cls(**raw)


_PER_ASSET = "number or list of numbers"
_REGIME_KINDS = {"drift": _PER_ASSET, "vol": _PER_ASSET, "length": "integer", "corr": "number"}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _regime_params(regime: Regime, n_assets: int):
    try:
        drift = np.broadcast_to(np.asarray(regime.drift, dtype=np.float64), (n_assets,))
        vol = np.broadcast_to(np.asarray(regime.vol, dtype=np.float64), (n_assets,))
    except ValueError as exc:
        raise InvalidRegime(f"regime drift and vol need one value or {n_assets} values") from exc
    length = int(regime.length)
    corr = float(regime.corr)
    if length < 1:
        raise InvalidRegime(f"regime length {length} must be >= 1")
    if np.any(vol < 0.0):
        raise InvalidRegime("regime volatility must be non-negative")
    if np.any(drift <= -1.0):
        raise InvalidRegime("regime drift must stay above -100%/day")
    if not -1.0 < corr <= 1.0:
        raise InvalidRegime(f"correlation {corr} outside (-1, 1]")
    c = np.full((n_assets, n_assets), corr)
    np.fill_diagonal(c, 1.0)
    try:
        chol = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        raise InvalidRegime(f"correlation {corr} is not PSD for {n_assets} assets") from exc
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
    give bit-identical output.
    """
    if n_assets < 1:
        raise InvalidRegime("need at least one asset")
    regimes = [
        r if isinstance(r, Regime) else Regime.from_dict(r, f"regimes[{i}]")
        for i, r in enumerate(regimes)
    ]
    if not regimes:
        raise InvalidRegime("need at least one regime")
    params = [_regime_params(r, n_assets) for r in regimes]
    total = sum(int(r.length) for r in regimes)
    if total < 2:
        raise InvalidRegime("regimes must cover at least 2 days")

    rng = np.random.default_rng(seed)
    close = np.empty((total, n_assets))
    close[0] = s0
    day = 1
    for (drift, vol, chol), regime in zip(params, regimes):
        length = int(regime.length)
        # the first regime loses its first day to the s0 anchor
        steps = length - 1 if day == 1 else length
        steps = min(steps, total - day)
        if steps <= 0:
            continue
        z = rng.standard_normal((steps, n_assets)) @ chol.T
        factors = (1.0 + drift) * np.exp(vol * z - 0.5 * vol * vol)
        for s in range(steps):
            close[day] = close[day - 1] * factors[s]
            day += 1

    open_ = np.empty_like(close)
    open_[0] = close[0]
    open_[1:] = close[:-1]
    high = np.maximum(open_, close)
    low = np.minimum(open_, close)
    base = dt.date.fromisoformat(start_date)
    dates = [(base + dt.timedelta(days=i)).isoformat() for i in range(total)]
    assets = [f"{asset_prefix}{j + 1}" for j in range(n_assets)]
    return OhlcvSeries(
        asset_ids=assets, dates=dates, open=open_, high=high, low=low, close=close
    )


def synth_from_spec(spec: dict) -> OhlcvSeries:
    """Build a synthetic series from a JSON-style spec document.

    Expected keys: ``assets`` (int), ``regimes`` (list of regime dicts),
    optional ``seed``, ``s0``, ``asset_prefix``, ``start_date``.
    """
    if not isinstance(spec, dict):
        raise InvalidRegime("synthetic spec must be an object")
    if "regimes" not in spec or "assets" not in spec:
        raise InvalidRegime("synthetic spec needs 'assets' and 'regimes'")

    def value(key, kind, default=None):
        raw = spec.get(key, default)
        try:
            return kind(raw)
        except (TypeError, ValueError) as exc:
            kind_name = {int: "integer", float: "number"}[kind]
            raise InvalidRegime(f"data.synth.{key} must be of type {kind_name}, got {raw!r}") from exc

    regimes = spec["regimes"]
    if not isinstance(regimes, list):
        raise InvalidRegime(f"data.synth.regimes must be of type list of objects, got {regimes!r}")
    return synth_generate(
        regimes=[Regime.from_dict(r, f"data.synth.regimes[{i}]") for i, r in enumerate(regimes)],
        n_assets=value("assets", int),
        seed=value("seed", int, 0),
        s0=value("s0", float, 100.0),
        asset_prefix=str(spec.get("asset_prefix", "A")),
        start_date=str(spec.get("start_date", "2000-01-01")),
    )

"""Data layer: CSV ingestion, relatives, rolling covariance, synthetic prices."""

import re

import numpy as np
import pytest

from helpers import series_from_close
from portagents.config import RunConfig
from portagents.errors import (
    ConfigError,
    EmptyIntersection,
    InsufficientHistory,
    InvalidRegime,
    IoFailure,
    MalformedRow,
    MissingColumn,
    NonPositivePrice,
    UnparseableDate,
)
from portagents.market_data import (
    LoadConfig,
    Regime,
    _regime_params,
    load_ohlcv,
    rolling_covariance,
    synth_generate,
    write_ohlcv_csv,
)

LONG_HEADER = "date,asset,open,high,low,close\n"


def synth(spec):
    """A series from a raw ``data.synth`` block, through the config checker."""
    return RunConfig(data={"synth": spec}).load_series()


def write_long_csv(path, rows):
    path.write_text(LONG_HEADER + "".join(rows))
    return path


def row(date, asset, close, o=None, h=None, lo=None):
    o = close if o is None else o
    h = max(o, close) if h is None else h
    lo = min(o, close) if lo is None else lo
    return f"{date},{asset},{o},{h},{lo},{close}\n"


def test_load_small_long_csv(tmp_path):
    rows = []
    for i, d in enumerate(["2020-01-01", "2020-01-02", "2020-01-03"]):
        rows.append(row(d, "AAA", 100.0 + i))
        rows.append(row(d, "BBB", 50.0 + i))
    path = write_long_csv(tmp_path / "p.csv", rows)
    series = load_ohlcv(path, LoadConfig())
    assert series.n_days == 3
    assert series.n_assets == 2
    assert series.asset_ids == ["AAA", "BBB"]
    np.testing.assert_allclose(series.close[:, 0], [100, 101, 102])
    np.testing.assert_allclose(series.close[:, 1], [50, 51, 52])


def test_load_rejects_zero_close(tmp_path):
    rows = [row("2020-01-01", "AAA", 100.0), row("2020-01-02", "AAA", 0.0)]
    path = write_long_csv(tmp_path / "p.csv", rows)
    with pytest.raises(NonPositivePrice):
        load_ohlcv(path, LoadConfig())


@pytest.mark.parametrize("close", ["inf", "-inf", "nan"])
def test_load_rejects_non_finite_close(tmp_path, close):
    rows = [row("2020-01-01", "AAA", 100.0), f"2020-01-02,AAA,100,100,100,{close}\n"]
    path = write_long_csv(tmp_path / "p.csv", rows)
    with pytest.raises(NonPositivePrice, match="not finite"):
        load_ohlcv(path, LoadConfig())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_series_rejects_non_finite_price(bad):
    close = np.array([[100.0, 50.0], [101.0, bad], [102.0, 52.0]])
    with pytest.raises(NonPositivePrice, match="not finite"):
        series_from_close(close)


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,asset,open,high,low\n2020-01-01,AAA,1,1,1\n")
    with pytest.raises(MissingColumn):
        load_ohlcv(path, LoadConfig())


def test_load_rejects_bad_date(tmp_path):
    rows = [row("2020-01-01", "AAA", 1.0), row("not-a-date", "AAA", 1.0)]
    path = write_long_csv(tmp_path / "p.csv", rows)
    with pytest.raises(UnparseableDate):
        load_ohlcv(path, LoadConfig())


def test_date_intersection_of_misaligned_assets(tmp_path):
    # asset A trades days 1..10, asset B days 6..15; overlap = 5 days
    days = [f"2020-01-{d:02d}" for d in range(1, 16)]
    rows = [row(d, "AAA", 10.0) for d in days[:10]]
    rows += [row(d, "BBB", 20.0) for d in days[5:]]
    path = write_long_csv(tmp_path / "p.csv", rows)
    series = load_ohlcv(path, LoadConfig())
    expected = sorted(set(days[:10]) & set(days[5:]))  # independent set oracle
    assert series.dates == expected
    assert series.n_days == 5


def test_empty_intersection_raises(tmp_path):
    rows = [row("2020-01-01", "AAA", 1.0), row("2020-01-02", "BBB", 1.0)]
    path = write_long_csv(tmp_path / "p.csv", rows)
    with pytest.raises(EmptyIntersection):
        load_ohlcv(path, LoadConfig())


def test_wide_layout(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text(
        "date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.2\n"
    )
    series = load_ohlcv(path, LoadConfig(layout="wide"))
    assert series.asset_ids == ["AAA", "BBB"]
    np.testing.assert_allclose(series.close, [[1.0, 2.0], [1.1, 2.2]])


@pytest.mark.parametrize(
    "text,message",
    [
        ("date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-01,1.1,2.2\n", "line 3 repeats date 2020-01-01 of line 2"),
        ("date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.2,3.3\n", "line 3 has 4 fields, the header 3"),
    ],
    ids=["repeated-date", "long-row"],
)
def test_wide_layout_rejects_bad_rows(tmp_path, text, message):
    path = tmp_path / "w.csv"
    path.write_text(text)
    with pytest.raises(MalformedRow, match=re.escape(message)):
        load_ohlcv(path, LoadConfig(layout="wide"))


def test_wide_layout_short_row_leaves_its_date_out(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.1\n2020-01-03,1.2,2.4\n")
    assert load_ohlcv(path, LoadConfig(layout="wide")).dates == ["2020-01-01", "2020-01-03"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tiny,after", [(1e-320, 100.0), (1e300, 1e-320), (1e-300, 1e300)])
def test_series_rejects_relatives_that_are_not_positive_and_finite(tiny, after):
    # every close is a positive finite float; their ratio is not
    close = np.array([[100.0, 50.0], [tiny, 51.0], [after, 52.0]])
    with pytest.raises(NonPositivePrice, match="not positive and finite"):
        series_from_close(close)


@pytest.mark.parametrize(
    "blob", [LONG_HEADER.encode() + b"2020-01-01,A\xff,1,1,1,1\n", LONG_HEADER.encode() + b'"' + b"x" * 200_000 + b'"\n'],
    ids=["not-utf-8", "field-over-csv-limit"],
)
def test_load_maps_unreadable_csv_to_io_failure(tmp_path, blob):
    path = tmp_path / "p.csv"
    path.write_bytes(blob)
    with pytest.raises(IoFailure, match="cannot read"):
        load_ohlcv(path, LoadConfig())


def test_csv_roundtrip(tmp_path):
    series = synth_generate(
        [Regime(drift=0.001, vol=0.02, length=30)], n_assets=3, seed=5
    )
    path = tmp_path / "out.csv"
    write_ohlcv_csv(series, path)
    back = load_ohlcv(path, LoadConfig())
    assert back.asset_ids == series.asset_ids
    assert back.dates == series.dates
    np.testing.assert_array_equal(back.close, series.close)


# OhlcvSeries.relatives(): row t-1 holds day t's relatives close[t]/close[t-1]


def test_price_relatives_constant_is_ones():
    series = series_from_close(np.full((4, 3), 7.0))
    np.testing.assert_allclose(series.relatives()[1], np.ones(3))


def test_price_relatives_hand_case():
    series = series_from_close([[100.0, 100.0], [110.0, 90.0]])
    np.testing.assert_allclose(series.relatives()[0], [1.10, 0.90])


def test_price_relatives_matches_scalar_division():
    rng = np.random.default_rng(3)
    close = rng.uniform(10, 200, size=(12, 5))
    series = series_from_close(close)
    for t in range(1, 12):
        got = series.relatives()[t - 1]
        want = [close[t, i] / close[t - 1, i] for i in range(5)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_price_relatives_bounds():
    # days 1..T-1 have relatives; day 0 has none
    series = series_from_close(np.full((4, 2), 3.0))
    assert series.relatives().shape == (3, 2)


def test_returns_matrix_row_semantics():
    # row t-1 of relatives() - 1 is the day-t simple return
    series = series_from_close([[100.0], [110.0], [99.0]])
    np.testing.assert_allclose(series.relatives()[:, 0] - 1.0, [0.10, -0.10], atol=1e-12)


def test_rolling_covariance_constant_returns_zero():
    series = series_from_close(np.outer(1.01 ** np.arange(8), [100.0, 50.0]))
    cov = rolling_covariance(series, t=5, k=3)
    np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-12)


def test_rolling_covariance_hand_case():
    # one asset, day-1 return 0.01 and day-2 return 0.03, k=2, anchored at t=3:
    # sample variance with divisor k-1 = (0.01-0.02)^2 + (0.03-0.02)^2 = 0.0002
    close = [[100.0], [101.0], [101.0 * 1.03], [104.0 * 1.03]]
    cov = rolling_covariance(series_from_close(close), t=3, k=2)
    np.testing.assert_allclose(cov, [[0.0002]], atol=1e-15)


def test_rolling_covariance_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(40, 3)), axis=0))
    series = series_from_close(close)
    k = 10
    for t in (k + 1, 20, 39):
        got = rolling_covariance(series, t=t, k=k)
        window = series.relatives()[t - k - 1 : t - 1] - 1.0
        mean = window.mean(axis=0)
        want = np.zeros((3, 3))
        for a in range(3):  # independent two-pass loop
            for b in range(3):
                want[a, b] = np.sum(
                    (window[:, a] - mean[a]) * (window[:, b] - mean[b])
                ) / (k - 1)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rolling_covariance_no_lookahead():
    rng = np.random.default_rng(12)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(30, 2)), axis=0))
    base = rolling_covariance(series_from_close(close), t=20, k=5)
    bumped = close.copy()
    bumped[20:] *= 1.5  # perturb day t and later; estimate at t must not move
    after = rolling_covariance(series_from_close(bumped), t=20, k=5)
    np.testing.assert_array_equal(base, after)


def test_rolling_covariance_insufficient_history():
    series = series_from_close(np.full((10, 2), 5.0))
    with pytest.raises(InsufficientHistory):
        rolling_covariance(series, t=5, k=5)  # needs t >= k+1
    rolling_covariance(series, t=6, k=5)


def test_synth_degenerate_regime_constant_prices():
    series = synth_generate([Regime(drift=0.0, vol=0.0, length=10)], n_assets=2, seed=0)
    np.testing.assert_allclose(series.close, np.full((10, 2), 100.0))


def test_synth_deterministic():
    spec = {"assets": 4, "seed": 9, "regimes": [{"drift": 0.001, "vol": 0.03, "length": 25}]}
    a = synth(spec)
    b = synth(spec)
    np.testing.assert_array_equal(a.close, b.close)
    assert a.dates == b.dates


def test_synth_drift_closed_form():
    series = synth_generate([Regime(drift=0.001, vol=0.0, length=10)], n_assets=1, seed=3)
    want = 100.0 * 1.001 ** np.arange(10)
    np.testing.assert_allclose(series.close[:, 0], want, rtol=1e-12)


def loop_synth_close(regimes, n_assets, seed, s0=100.0):
    """The closes of ``synth_generate`` compounded one day at a time."""
    rng = np.random.default_rng(seed)
    closes = [np.full(n_assets, s0)]
    for i, regime in enumerate(regimes):
        drift, vol, chol = _regime_params(regime, n_assets, f"regimes[{i}]")
        steps = regime.length - 1 if i == 0 else regime.length
        z = rng.standard_normal((steps, n_assets)) @ chol.T
        for factor in (1.0 + drift) * np.exp(vol * z - 0.5 * vol * vol):
            closes.append(closes[-1] * factor)
    return np.array(closes)


def test_synth_equals_the_per_day_loop():
    # a one-day first regime is the s0 anchor alone, and the next regime
    # keeps all its days
    cases = [([Regime(0.0, 0.01, 1), Regime(0.0, 0.01, 5)], 2)]
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        regimes = [
            Regime(
                drift=list(rng.uniform(-0.01, 0.01, n)),
                vol=float(rng.uniform(0.0, 0.1)),
                length=int(rng.integers(1, 200)),
                corr=float(rng.uniform(0.0, 0.9)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        if sum(r.length for r in regimes) >= 2:
            cases.append((regimes, n))
    for seed, (regimes, n) in enumerate(cases):
        got = synth_generate(regimes, n_assets=n, seed=seed).close
        assert got.shape == (sum(r.length for r in regimes), n)
        assert np.array_equal(got, loop_synth_close(regimes, n, seed))


def test_synth_regime_lengths_and_ohlc_sanity(tmp_path):
    series = synth_generate(
        [Regime(0.0005, 0.01, 30), Regime(-0.002, 0.04, 20)], n_assets=3, seed=21
    )
    assert series.n_days == 50
    # the written CSV's (T, N) open, high, low and close columns
    path = tmp_path / "out.csv"
    write_ohlcv_csv(series, path)
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3, 4, 5)).reshape(50, 3, 4)
    open_, high, low, close = table.transpose(2, 0, 1)
    np.testing.assert_array_equal(close, series.close)
    assert np.all(high >= np.maximum(open_, close))
    assert np.all(low <= np.minimum(open_, close))
    np.testing.assert_array_equal(open_[1:], close[:-1])


def test_synth_rejects_unknown_regime_field():
    with pytest.raises(ConfigError, match=re.escape("unknown data.synth.regimes[0] fields ['mood']")):
        synth({"assets": 2, "regimes": [{"drift": 0.0, "vol": 0.0, "length": 5, "mood": "sad"}]})
    with pytest.raises(InvalidRegime):
        synth_generate([Regime(0.0, -0.1, 5)], n_assets=2, seed=0)


@pytest.mark.parametrize(
    "raw,field",
    [
        ({"length": "x"}, "regimes[0].length"),
        ({"length": 5.0}, "regimes[0].length"),
        ({"length": True}, "regimes[0].length"),
        ({"length": 5, "corr": "0.2"}, "regimes[0].corr"),
        ({"length": 5, "vol": [0.01, None]}, "regimes[0].vol"),
        ({"length": 5, "drift": {"a": 0.1}}, "regimes[0].drift"),
    ],
)
def test_synth_names_mistyped_regime_field(raw, field):
    with pytest.raises(ConfigError, match=rf"{re.escape(field)} must be of type"):
        synth({"assets": 2, "regimes": [raw]})


def test_synth_per_asset_regime_lists():
    series = synth({"assets": 2, "regimes": [{"length": 5, "drift": [0.01, 0.0], "vol": (0.0, 0.0)}]})
    np.testing.assert_allclose(series.close[-1], [100.0 * 1.01**4, 100.0])
    with pytest.raises(InvalidRegime, match="one value or 2 values"):
        synth({"assets": 2, "regimes": [{"length": 5, "drift": [0.1, 0.2, 0.3]}]})

"""One array of price relatives per series, checked against the division it
replaced.

``OhlcvSeries`` divides the closes once; the rolling covariance, the
observation window and the environment step slice that array. The copies
below are the earlier code that divided the closes at each use and wrapped
every covariance in a checked object. The property asserts the new path
gives the same doubles, not merely close ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import series_from_close
from portagents.env import Observation, TradingEnv, build_observation, drifted_holdings
from portagents.errors import EpisodeFinished, InsufficientHistory, SeriesTooShort
from portagents.market_data import OhlcvSeries, rolling_covariance
from portagents.metrics import check_weights, uniform_weights
from portagents.observer import N_MARKET_FEATURES

# -- the earlier code, verbatim ---------------------------------------------------


@dataclass
class ReturnsMatrix:
    """Simple returns; row t-1 holds the day-t return close[t]/close[t-1] - 1."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise SeriesTooShort("returns matrix must be 2-D")

    @classmethod
    def from_series(cls, series: OhlcvSeries) -> "ReturnsMatrix":
        return cls(series.relatives() - 1.0)


@dataclass
class CovarianceEstimate:
    """Rolling sample covariance anchored at day t (uses data up to t-1)."""

    matrix: np.ndarray
    window: int
    anchor: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise SeriesTooShort(f"covariance must be square, got {self.matrix.shape}")
        if not np.allclose(self.matrix, self.matrix.T, atol=1e-12):
            raise ValueError("covariance matrix is not symmetric")


def returns_matrix(series: OhlcvSeries) -> ReturnsMatrix:
    return ReturnsMatrix.from_series(series)


def old_rolling_covariance(returns: ReturnsMatrix, t: int, k: int = 21) -> CovarianceEstimate:
    """Sample covariance (divisor k-1) of the k return rows for days
    t-k..t-1, anchored at day t.

    Only closes up to day t-1 enter the estimate (no look-ahead); day t needs
    t >= k+1 so that all k rows exist.
    """
    if k < 2:
        raise InsufficientHistory(f"window k={k} must be >= 2")
    n_rows = returns.values.shape[0]
    if t < k + 1:
        raise InsufficientHistory(f"anchor t={t} needs t >= k+1 = {k + 1}")
    if t - 1 > n_rows:
        raise InsufficientHistory(f"anchor t={t} beyond available returns ({n_rows} rows)")
    window = returns.values[t - k - 1 : t - 1]
    cov = np.cov(window, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return CovarianceEstimate(matrix=cov, window=k, anchor=t)


def old_build_observation(
    series: OhlcvSeries,
    day: int,
    window: int,
    holdings=None,
    market_features=None,
) -> Observation:
    """Observation for ``day`` using relatives of days day-window+1 .. day."""
    n = series.n_assets
    if day < window or day > series.n_days - 1:
        raise SeriesTooShort(f"day {day} outside [{window}, {series.n_days - 1}]")
    rel = series.close[day - window + 1 : day + 1] / series.close[day - window : day]
    h = uniform_weights(n) if holdings is None else np.asarray(holdings, dtype=np.float64)
    vm = (
        np.zeros(N_MARKET_FEATURES)
        if market_features is None
        else np.asarray(market_features, dtype=np.float64)
    )
    vector = np.concatenate([rel.ravel(), h, vm])
    return Observation(vector=vector, day=day, window=window, n_assets=n)


class OldStepEnv(TradingEnv):
    """The environment with the earlier step, which divided two close rows,
    and the earlier observation."""

    def observe(self, market_features=None) -> Observation:
        if self.state is None:
            raise EpisodeFinished("reset the environment first")
        return old_build_observation(
            self.series,
            self.state.day,
            self.window,
            holdings=self.state.holdings,
            market_features=market_features,
        )

    def step(self, action) -> tuple[Observation, float, bool]:
        """Execute ``action`` at the current close; returns
        ``(next_observation, growth, done)`` with growth = C_new / C_old."""
        if self.state is None or self.state.done:
            raise EpisodeFinished("episode is over; call reset()")
        a = check_weights(action).copy()
        s = self.state
        turnover = 0.5 * float(np.abs(a - s.holdings).sum())
        cost = self.c_tx * turnover
        relatives = self.series.close[s.day + 1] / self.series.close[s.day]
        growth = (1.0 - cost) * float(a @ relatives)
        s.capital *= growth
        s.holdings = drifted_holdings(a, relatives)
        s.day += 1
        s.done = s.day >= self.end_day
        return self.observe(), growth, s.done


# -- old against new ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_assets=st.integers(1, 30),
    n_days=st.integers(2, 200),
    window=st.integers(1, 12),
    k=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_sliced_relatives_equal_the_divisions(n_assets, n_days, window, k, seed):
    rng = np.random.default_rng(seed)
    # prices over six orders of magnitude, so the quotients round differently;
    # e^13.8 < 1e6, so every quotient stays inside RELATIVE_BOUNDS
    close = np.exp(rng.uniform(-6.9, 6.9, size=(n_days, n_assets)))
    series = series_from_close(close)
    returns = returns_matrix(series)

    for t in range(k + 1, n_days + 1):
        c = rolling_covariance(series, t, k)
        assert np.array_equal(c, old_rolling_covariance(returns, t, k).matrix)
        assert np.array_equal(c, c.T)

    for day in range(window, n_days):
        h = rng.dirichlet(np.ones(n_assets))
        vm = rng.normal(size=N_MARKET_FEATURES)
        got = build_observation(series, day, window, holdings=h, market_features=vm)
        want = old_build_observation(series, day, window, holdings=h, market_features=vm)
        assert np.array_equal(got.vector, want.vector)

    if n_days <= window + 1:
        return
    new_env = TradingEnv(series, window=window, c_tx=0.002)
    old_env = OldStepEnv(series, window=window, c_tx=0.002)
    new_obs, old_obs = new_env.reset(), old_env.reset()
    done = False
    while not done:
        a = rng.dirichlet(np.ones(n_assets))
        new_obs, growth, done = new_env.step(a)
        old_obs, old_growth, old_done = old_env.step(a)
        assert growth == old_growth and done == old_done
        assert np.array_equal(new_obs.vector, old_obs.vector)
    assert new_env.state.capital == old_env.state.capital


def test_relatives_are_read_only():
    series = series_from_close([[100.0, 50.0], [110.0, 45.0], [99.0, 60.0]])
    with pytest.raises(ValueError):
        series.relatives()[0, 0] = 2.0
    assert series.relatives() is series.relatives()

"""Shared builders for the test suite."""

import datetime as dt

import numpy as np

from portagents.market_data import OhlcvSeries


def series_from_close(close, prefix="A", start="2000-01-03"):
    """Wrap a (T, N) close matrix into a full OHLCV panel."""
    close = np.asarray(close, dtype=np.float64)
    t, n = close.shape
    d0 = dt.date.fromisoformat(start)
    dates = [(d0 + dt.timedelta(days=i)).isoformat() for i in range(t)]
    open_ = np.vstack([close[:1], close[:-1]])
    return OhlcvSeries(
        asset_ids=[f"{prefix}{i}" for i in range(1, n + 1)],
        dates=dates,
        open=open_,
        high=np.maximum(open_, close),
        low=np.minimum(open_, close),
        close=close,
    )


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


def random_psd(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return m @ m.T / n


def relatives_window(obs):
    """The (window, n_assets) block of price relatives in an observation."""
    w, n = obs.window, obs.n_assets
    return obs.vector[: w * n].reshape(w, n)

"""Daily-rebalance trading environment.

Orders placed at the day-t close earn the day t -> t+1 price relatives.
Observations stack a lookback window of per-asset relatives, the current
(drifted) holdings, and the latest market-vector features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EpisodeFinished, SeriesTooShort
from .market_data import OhlcvSeries
from .metrics import check_weights, uniform_weights
from .observer import N_MARKET_FEATURES


@dataclass(frozen=True)
class Observation:
    """Flattened [window relatives | holdings | market features] plus the
    day index it was taken at."""

    vector: np.ndarray
    day: int
    window: int
    n_assets: int

    def relatives_window(self) -> np.ndarray:
        w, n = self.window, self.n_assets
        return self.vector[: w * n].reshape(w, n)

    def holdings(self) -> np.ndarray:
        w, n = self.window, self.n_assets
        return self.vector[w * n : w * n + n]


def observation_dim(window: int, n_assets: int) -> int:
    return window * n_assets + n_assets + N_MARKET_FEATURES


def build_observation(
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
    rel = series.relatives()[day - window : day]
    h = uniform_weights(n) if holdings is None else np.asarray(holdings, dtype=np.float64)
    vm = (
        np.zeros(N_MARKET_FEATURES)
        if market_features is None
        else np.asarray(market_features, dtype=np.float64)
    )
    vector = np.concatenate([rel.ravel(), h, vm])
    return Observation(vector=vector, day=day, window=window, n_assets=n)


def drifted_holdings(holdings, relatives) -> np.ndarray:
    """Weight fractions after prices move by ``relatives`` with no trading."""
    h = np.asarray(holdings, dtype=np.float64)
    x = np.asarray(relatives, dtype=np.float64)
    value = h * x
    return value / value.sum()


@dataclass
class EnvState:
    day: int
    capital: float
    holdings: np.ndarray
    done: bool


class TradingEnv:
    """Steps a portfolio through an aligned price series.

    One step: rebalance to the requested weights (paying c_tx per unit of
    half-turnover from the current drifted holdings), earn the next day's
    relatives, advance one day.
    """

    def __init__(
        self,
        series: OhlcvSeries,
        window: int = 10,
        c_tx: float = 0.0,
        c0: float = 1.0,
        start_day: int | None = None,
        end_day: int | None = None,
    ):
        if series.n_days <= window + 1:
            raise SeriesTooShort(
                f"series has {series.n_days} days, need > window+1 = {window + 1}"
            )
        if not 0.0 <= c_tx < 1.0:
            raise ValueError(f"c_tx {c_tx} outside [0, 1)")
        if not c0 > 0.0:
            raise ValueError(f"initial capital {c0} must be positive")
        self.series = series
        self.window = window
        self.c_tx = c_tx
        self.c0 = c0
        self.start_day = window if start_day is None else int(start_day)
        self.end_day = series.n_days - 1 if end_day is None else int(end_day)
        if self.start_day < window:
            raise SeriesTooShort(f"start day {self.start_day} < window {window}")
        if not self.start_day < self.end_day <= series.n_days - 1:
            raise SeriesTooShort(
                f"need start < end <= {series.n_days - 1}, "
                f"got [{self.start_day}, {self.end_day}]"
            )
        self.state: EnvState | None = None
        self._vm = np.zeros(N_MARKET_FEATURES)

    @property
    def n_assets(self) -> int:
        return self.series.n_assets

    @property
    def n_steps(self) -> int:
        return self.end_day - self.start_day

    def set_market_features(self, v_m):
        """Latest observer output; appears in observations from now on."""
        vm = np.asarray(v_m, dtype=np.float64)
        if vm.shape != (N_MARKET_FEATURES,):
            raise ValueError(f"market features must have shape ({N_MARKET_FEATURES},)")
        self._vm = vm.copy()

    def observe(self) -> Observation:
        if self.state is None:
            raise EpisodeFinished("reset the environment first")
        return build_observation(
            self.series,
            self.state.day,
            self.window,
            holdings=self.state.holdings,
            market_features=self._vm,
        )

    def reset(self) -> Observation:
        """Uniform holdings, full capital, day = start_day."""
        self.state = EnvState(
            day=self.start_day,
            capital=self.c0,
            holdings=uniform_weights(self.n_assets),
            done=False,
        )
        self._vm = np.zeros(N_MARKET_FEATURES)
        return self.observe()

    def step(self, action) -> tuple[Observation, float, bool]:
        """Execute ``action`` at the current close; returns
        ``(next_observation, growth, done)`` with growth = C_new / C_old."""
        if self.state is None or self.state.done:
            raise EpisodeFinished("episode is over; call reset()")
        a = check_weights(action).copy()
        s = self.state
        turnover = 0.5 * float(np.abs(a - s.holdings).sum())
        cost = self.c_tx * turnover
        relatives = self.series.relatives()[s.day]
        growth = (1.0 - cost) * float(a @ relatives)
        s.capital *= growth
        s.holdings = drifted_holdings(a, relatives)
        s.day += 1
        s.done = s.day >= self.end_day
        return self.observe(), growth, s.done

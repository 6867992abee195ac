"""Portfolio weights, short-term risk, performance metrics, and the
rank-sum significance test used by the comparison harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import (
    DegenerateSamples,
    DimensionMismatch,
    InvalidAction,
    NonFiniteInput,
    ZeroVolatility,
)

# a weight vector is a plain float64 array on the probability simplex
WeightVector = np.ndarray

SIMPLEX_ATOL = 1e-9


def uniform_weights(n: int) -> WeightVector:
    if n < 1:
        raise DimensionMismatch("need at least one asset")
    return np.full(n, 1.0 / n)


def check_weights(weights, atol: float = SIMPLEX_ATOL) -> WeightVector:
    """Validate non-negativity and unit sum; returns the array unchanged."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise DimensionMismatch(f"weights must be 1-D, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise NonFiniteInput("weights contain non-finite values")
    if np.any(w < -atol):
        raise InvalidAction(f"negative weight {w.min()}")
    total = w.sum()
    if abs(total - 1.0) > atol:
        raise InvalidAction(f"weights sum to {total}, expected 1")
    return w


def sigma_alpha_value(weights, cov_matrix) -> float:
    """Short-term risk of a weight vector under a covariance matrix: the
    2-norm of the matrix-vector product ||Sigma w||_2, the risk the solver
    constrains."""
    w = np.asarray(weights, dtype=np.float64)
    m = np.asarray(cov_matrix, dtype=np.float64)
    if m.shape != (w.size, w.size):
        raise DimensionMismatch(f"covariance {m.shape} incompatible with {w.size} weights")
    return float(np.linalg.norm(m @ w))


def long_term_volatility(daily_returns, days_per_year: int = 252) -> float:
    """Annualised volatility sqrt(days_per_year/n * sum((r - mean)^2)) over n
    daily return observations."""
    r = np.asarray(daily_returns, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise DimensionMismatch("need at least 2 daily returns")
    if not np.all(np.isfinite(r)):
        raise NonFiniteInput("daily returns contain non-finite values")
    if np.ptp(r) == 0.0:  # constant returns: zero deviation exactly
        return 0.0
    dev = r - r.mean()
    return float(np.sqrt(days_per_year / r.size * np.sum(dev * dev)))


def sharpe_ratio(annualised_return: float, risk_free_rate: float, volatility: float) -> float:
    if not volatility > 0.0:
        raise ZeroVolatility(f"volatility {volatility} must be positive")
    return (annualised_return - risk_free_rate) / volatility


def annual_return(equity_curve, days_per_year: int = 252) -> float:
    """Geometric annualised return of an equity curve sampled daily."""
    c = np.asarray(equity_curve, dtype=np.float64)
    if c.ndim != 1 or c.size < 2:
        raise DimensionMismatch("equity curve needs at least 2 points")
    if not np.all(c > 0.0):
        raise InvalidAction("equity curve must stay positive")
    steps = c.size - 1
    return float((c[-1] / c[0]) ** (days_per_year / steps) - 1.0)


def max_drawdown(equity_curve) -> float:
    """Largest peak-to-trough loss fraction, single pass."""
    c = np.asarray(equity_curve, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise DimensionMismatch("equity curve needs at least 1 point")
    if not np.all(c > 0.0):
        raise InvalidAction("equity curve must stay positive")
    peak = c[0]
    worst = 0.0
    for value in c:
        if value > peak:
            peak = value
        dd = (peak - value) / peak
        if dd > worst:
            worst = dd
    return float(worst)


# -- rank-sum test ------------------------------------------------------------


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # rank sum of the first sample (mid-ranks)
    p_value: float
    significant: bool
    exact: bool


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of ties given the mean of its ranks.

    A run over sorted positions [start, end) gets (start + 1 + end) / 2,
    exact in float64.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def _exact_two_sided_p(ranks: np.ndarray, n: int, w_obs: float) -> float:
    """Exact permutation p-value via a subset-sum count over doubled ranks.

    Counts size-n subsets of the pooled (doubled, hence integer) mid-ranks
    whose sum deviates from the null mean at least as much as observed.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    # dp[j][s] = number of size-j subsets with doubled-rank sum s
    dp = [np.zeros(total + 1, dtype=np.float64) for _ in range(n + 1)]
    dp[0][0] = 1.0
    for r in doubled:
        for j in range(min(n, len(doubled)), 0, -1):
            dp[j][r:] += dp[j - 1][: total + 1 - r]
    counts = dp[n]
    n_subsets = counts.sum()
    mean2 = n * (len(ranks) + 1)  # doubled null mean, exact integer
    dev = abs(2.0 * w_obs - mean2)
    sums = np.arange(total + 1)
    tail = counts[np.abs(sums - mean2) >= dev - 1e-9].sum()
    return float(tail / n_subsets)


def wilcoxon_rank_sum(sample_a, sample_b, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided rank-sum test with mid-rank ties.

    Small samples (min side < 8 and pooled size <= 30) use the exact
    permutation null; larger ones use the normal approximation with tie and
    continuity corrections.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 1 or b.size < 1:
        raise DegenerateSamples("both samples must be non-empty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NonFiniteInput("samples contain non-finite values")
    pooled = np.concatenate([a, b])
    if np.all(pooled == pooled[0]):
        raise DegenerateSamples("all values identical across both samples")
    n, m = a.size, b.size
    ranks = _mid_ranks(pooled)
    w = float(ranks[:n].sum())

    if min(n, m) < 8 and n + m <= 30:
        p = _exact_two_sided_p(ranks, n, w)
        return WilcoxonResult(w, min(p, 1.0), p < alpha, exact=True)

    total = n + m
    mu = n * (total + 1) / 2.0
    # tie correction on the null variance
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = np.sum(tie_counts**3 - tie_counts) / (total * (total - 1))
    var = n * m / 12.0 * (total + 1 - tie_term)
    if var <= 0.0:
        raise DegenerateSamples("rank variance collapsed to zero")
    z = (abs(w - mu) - 0.5) / math.sqrt(var)  # continuity correction
    p = min(2.0 * float(ndtr(-z)), 1.0)  # the normal upper tail at z
    return WilcoxonResult(w, p, p < alpha, exact=False)


# -- performance report -------------------------------------------------------


@dataclass
class PerformanceReport:
    """Backtest summary for one strategy on one data segment."""

    equity_curve: np.ndarray
    daily_returns: np.ndarray
    annualised_return: float
    max_drawdown: float
    volatility: float
    sharpe: float
    mean_short_term_risk: float
    risk_free_rate: float
    trading_days: int

    def to_flat_dict(self) -> dict:
        """Fixed-name scalar summary written to the backtest report."""
        return {
            "ar": float(self.annualised_return),
            "mdd": float(self.max_drawdown),
            "sharpe": float(self.sharpe),
            "risk": float(self.mean_short_term_risk),
            "vol": float(self.volatility),
            "t_days": int(self.trading_days),
        }


def build_report(
    equity_curve,
    risk_values,
    risk_free_rate: float = 0.0,
    days_per_year: int = 252,
) -> PerformanceReport:
    """Assemble a PerformanceReport from an equity curve and the per-day
    realised short-term risk values."""
    curve = np.asarray(equity_curve, dtype=np.float64)
    returns = curve[1:] / curve[:-1] - 1.0
    ar = annual_return(curve, days_per_year=days_per_year)
    mdd = max_drawdown(curve)
    vol = long_term_volatility(returns, days_per_year=days_per_year)
    sharpe = sharpe_ratio(ar, risk_free_rate, vol) if vol > 0.0 else 0.0
    risks = np.asarray(risk_values, dtype=np.float64)
    return PerformanceReport(
        equity_curve=curve,
        daily_returns=returns,
        annualised_return=ar,
        max_drawdown=mdd,
        volatility=vol,
        sharpe=sharpe,
        mean_short_term_risk=float(risks.mean()) if risks.size else 0.0,
        risk_free_rate=float(risk_free_rate),
        trading_days=int(curve.size - 1),
    )

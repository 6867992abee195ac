"""
Synthetic market data and the performance metrics
==================================================

Generates a two-regime price series, then walks through the risk and
performance measures computed from it.
"""

import numpy as np

from portagents.market_data import Regime, rolling_covariance, synth_generate
from portagents.metrics import (
    build_report,
    sigma_alpha_value,
    uniform_weights,
    wilcoxon_rank_sum,
)

# a calm year followed by a volatile quarter, five correlated assets
series = synth_generate(
    regimes=[
        Regime(length=252, drift=0.0004, vol=0.008, corr=0.3),
        Regime(length=63, drift=-0.002, vol=0.03, corr=0.6),
    ],
    n_assets=5,
    seed=7,
)
print(f"series: {series.n_days} days x {series.n_assets} assets")
print(f"first close row: {np.round(series.close[0], 2)}")

# relatives()[t-1] is the day-t multiplicative growth close[t]/close[t-1];
# the series divides its closes once and every consumer slices this array
rel = series.relatives()
print(f"relatives shape {rel.shape}, day-1 row {np.round(rel[0], 4)}")

# rolling covariance at day t only reads closes up to t-1 (no look-ahead)
cov = rolling_covariance(series, t=100, k=21)
print(f"cov window k=21 anchored at day 100, diag {np.round(np.diag(cov), 8)}")

# short-term risk of the uniform portfolio under that covariance
w = uniform_weights(series.n_assets)
print(f"sigma_alpha(uniform) = {sigma_alpha_value(w, cov):.6f}")

# hold the uniform portfolio through both regimes and summarise the curve;
# the realised short-term risk series feeds the report alongside equity
growth = rel @ w
equity = np.concatenate([[1.0], np.cumprod(growth)])
risks = [
    sigma_alpha_value(w, rolling_covariance(series, t=t, k=21))
    for t in range(22, series.n_days)
]
report = build_report(equity, risks)
print(f"annualised return {report.annualised_return:+.4f}")
print(f"volatility        {report.volatility:.4f}")
print(f"sharpe            {report.sharpe:+.4f}")
print(f"max drawdown      {report.max_drawdown:.4f}")
print(f"mean sigma_alpha  {report.mean_short_term_risk:.6f}")

# the calm and crash regimes produce visibly different daily returns
daily = report.daily_returns
calm, crash = daily[:251], daily[252:]
test = wilcoxon_rank_sum(calm, crash)
print(f"rank-sum calm vs crash: W={test.statistic:.1f} p={test.p_value:.2e} exact={test.exact}")

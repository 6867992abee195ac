"""
The classic portfolio-selection baselines
==========================================

Six reference strategies live alongside the learned stack: uniform
rebalancing (crp), exponentiated-gradient momentum (eg), two mean
reversion rules on price windows (olmar, rmr), passive-aggressive mean
reversion (pamr) and nearest-neighbour pattern matching (corn). Each is
a pure update rule plus a stateful day-by-day driver.
"""

import numpy as np

from portagents import baselines
from portagents.market_data import Regime, synth_generate
from portagents.metrics import max_drawdown

# the update rules are visible directly: EG tilts toward yesterday's winner
w = np.array([0.5, 0.5])
print("eg after winner day  ", np.round(baselines.eg_update(w, [1.1, 0.9], eta=0.05), 4))

# PAMR does the opposite (sells the winner) once loss exceeds epsilon
print("pamr after winner day", np.round(baselines.pamr_update(w, [1.2, 0.8], epsilon=0.5), 4))

# OLMAR bets on reversion of each price toward its window average
window = np.array([[1.2, 0.8], [1.0, 1.0]])
print("olmar price forecast ", baselines.olmar_predict(window))

# RMR replaces that average with the outlier-robust L1 median
pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
print("l1 median of collinear points", np.round(baselines.l1_median(pts), 6))

# drive all six through one synthetic market and summarise
series = synth_generate(
    regimes=[
        Regime(length=120, drift=[0.002, 0.0, -0.001], vol=0.01, corr=0.2),
        Regime(length=120, drift=[-0.002, 0.0, 0.002], vol=0.015, corr=0.2),
    ],
    n_assets=3,
    seed=4,
)
rel = series.relatives()

print(f"\n{'strategy':8s} final wealth  max drawdown")
for name in sorted(baselines.REGISTRY):
    strategy = baselines.make_strategy(name)
    strategy.reset(series.n_assets)
    capital, curve = 1.0, [1.0]
    weights = strategy.weights
    for day in range(rel.shape[0]):
        capital *= float(weights @ rel[day])
        curve.append(capital)
        # weights for tomorrow come from today's closing relatives
        weights = strategy.step(rel[day])
    print(f"{name:8s} {capital:12.4f} {max_drawdown(curve):13.4f}")

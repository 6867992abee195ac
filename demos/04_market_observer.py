"""
Directional-change events and the market observer
==================================================

The observer agent watches recent market behaviour and publishes two
things each step: a short-term risk boundary sigma_s for the solver and
a three-feature market vector for everyone else. This demo looks at the
event detector on a hand trace, then runs both observer flavours over a
calm-then-stormy market.
"""

import numpy as np

from portagents.env import TradingEnv
from portagents.market_data import synth_generate
from portagents.metrics import uniform_weights
from portagents.observer import DcObserver, MlpObserver, ObserverConfig, dc_detect

# directional-change events on a tiny hand trace, threshold 2%
prices = [100.0, 103.0, 100.0, 104.0]
for ev in dc_detect(prices, theta=0.02):
    print(f"{ev.kind:8s} confirmed at index {ev.confirm_index}, extreme {ev.extreme_index}, "
          f"magnitude {ev.magnitude:.4f}")

# calm regime then a crash; observations come from the trading env
series = synth_generate(
    regimes=[
        {"length": 150, "drift": 0.0005, "vol": 0.006, "corr": 0.2},
        {"length": 60, "drift": -0.004, "vol": 0.03, "corr": 0.6},
    ],
    n_assets=4,
    seed=21,
)
env = TradingEnv(series, window=10)
uniform = uniform_weights(env.n_assets)

obs = env.reset()
history = [obs]
done = False
while not done:
    obs, _, done = env.step(uniform)
    history.append(obs)
print(f"\ncollected {len(history)} observations")

# an observer reads a (k, N) array of price relatives, one row per day up to
# today; row i of `past` is the day of history[i]
past = series.relatives()[env.window - 1 :]

# the DC observer stays neutral until its lookback window fills, then the
# sign of the last confirmed event decides whether the boundary relaxes
# (uptrend, x1.5) or tightens (downtrend, x0.5)
dc = DcObserver(ObserverConfig(kind="dc", theta=0.01, base_risk=0.01, lookback=40))
for label, end in [("warmup", 20), ("calm", 140), ("crash", len(history))]:
    sig = dc.observe(past[:end])
    print(f"{label:6s} sigma_s {sig.sigma_s:.4f}  v_m {np.round(sig.v_m, 3)}")

# an update reads the price relatives of the days a pass stepped through;
# here the days after the first observation
stepped = past[1:]

# recalibration: base_risk becomes a trailing quantile of realised risk
realized = 0.004 + 0.002 * np.sin(np.arange(63))
dc.update(stepped, realized_risk=realized)
print(f"recalibrated base_risk {dc.base_risk:.6f}")

# the MLP observer instead regresses next-window volatility; feed it the
# whole run a few times and compare its boundary across regimes
mlp = MlpObserver(ObserverConfig(kind="mlp", feature_window=10, lr=5e-3), seed=3)
for epoch in range(200):
    stats = mlp.update(stepped)
print(f"\nmlp trained on {stats['pairs']} pairs, last loss {stats['loss']:.2e}")

sig_calm = mlp.observe(past[100:140])
sig_crash = mlp.observe(past[-40:])
print(f"calm  sigma_s {sig_calm.sigma_s:.5f}")
print(f"crash sigma_s {sig_crash.sigma_s:.5f}")
assert sig_crash.sigma_s > sig_calm.sigma_s

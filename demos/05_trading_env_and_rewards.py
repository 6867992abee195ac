"""
The trading environment and the two-term reward
================================================

One environment step rebalances to the requested weights, pays costs on
the half-turnover, earns the next day's price relatives and advances a
day. The learning signal combines log capital growth with a penalty for
how far the executed action drifted from the proposed one.
"""

import numpy as np

from portagents.env import TradingEnv, observation_dim
from portagents.market_data import Regime, synth_generate
from portagents.rl import RewardConfig, episode_reward, jensen_shannon, per_step_reward

series = synth_generate(
    regimes=[Regime(length=80, drift=0.001, vol=0.012, corr=0.2)],
    n_assets=3,
    seed=13,
)
env = TradingEnv(series, window=5, c_tx=0.001, c0=1.0)
print(f"{env.n_assets} assets, {env.n_steps} tradable steps")

# an observation is the flattened relatives window + drifted holdings +
# the observer's three market features
obs = env.reset()
print(f"observation vector size {obs.vector.size} "
      f"(= {observation_dim(env.window, env.n_assets)})")
print(f"holdings after reset {np.round(obs.holdings(), 4)}")

# run a few steps: all-in on asset 1, then rebalance to uniform (costs bite)
growths = []
for action in ([1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5]):
    obs, growth, done = env.step(np.asarray(action))
    growths.append(growth)
    print(f"day {env.state.day}: growth {growth:.6f} capital {env.state.capital:.6f}")

# capital is exactly the product of the step growths
assert abs(env.state.capital - np.prod(growths)) < 1e-12

# the divergence term: zero when the risk agent leaves the action alone,
# ln 2 at most when the two actions disagree completely
a_rl = np.array([0.8, 0.1, 0.1])
for a_final in (a_rl, np.array([0.6, 0.3, 0.1]), np.array([0.0, 0.0, 1.0])):
    print(f"JSD(a_rl, {a_final}) = {jensen_shannon(a_rl, a_final):.4f}")

# per-step reward and the episode objective agree up to the log(c0) anchor
cfg = RewardConfig(lambda1=1.0, lambda2=0.5)
finals = [a_rl, np.array([0.7, 0.2, 0.1]), np.array([0.75, 0.15, 0.1])]
jsds = [jensen_shannon(a_rl, f) for f in finals]
steps = [per_step_reward(g, a_rl, f, cfg) for g, f in zip(growths, finals)]
summary = episode_reward(growths, jsds, c0=1.0, config=cfg)
print(f"episode J {summary.j:+.6f} "
      f"(return term {summary.j_return:+.6f}, divergence term {summary.j_divergence:+.6f})")
assert abs(summary.j - np.mean(steps)) < 1e-12  # c0 = 1 so the anchor is 0

# a lone bad day is visible straight in the reward sign
good = per_step_reward(1.01, a_rl, a_rl, cfg)
bad = per_step_reward(0.97, a_rl, a_rl, cfg)
print(f"reward up-day {good:+.5f}, down-day {bad:+.5f}")

"""Multi-agent portfolio management and backtesting toolkit.

Three cooperating agents drive a daily-rebalanced portfolio: a TD3 policy
proposes return-seeking weights, a derivative-free solver nudges them back
inside a short-term risk budget, and a market observer sets that budget from
detected conditions. The harness trains, backtests, and compares the stack
against classic online portfolio selection baselines on shared data splits.
"""

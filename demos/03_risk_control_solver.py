"""
Pulling a portfolio inside a risk boundary
===========================================

The risk-control agent answers one question per step: given the return
agent's proposed weights, what is the closest portfolio whose short-term
risk sits inside the current boundary? This demo runs that solver on a
hand-built problem.
"""

import numpy as np

from portagents.metrics import sigma_alpha_value
from portagents.solver import (
    RiskControlProblem,
    differential_evolution,
    propose_control,
    simplex_repair,
)

# simplex repair: the Euclidean projection onto the simplex (sort, then
# threshold); an all-zero vector projects to the uniform point
print("repair [0.2, -0.1, 0.9] ->", np.round(simplex_repair([0.2, -0.1, 0.9]), 6))
print("repair [0, 0, 0]       ->", simplex_repair([0.0, 0.0, 0.0]))

# the generic DE core minimises any batched objective over the simplex
target = np.array([0.7, 0.2, 0.1])
de = differential_evolution(
    lambda c: np.linalg.norm(c - target, axis=1),
    n=3,
    budget=2000,
    seed=1,
)
print(f"DE toy: best {np.round(de.x, 4)} value {de.value:.2e} evals {de.evaluations}")

# a concentrated proposal on the riskiest asset of a 4-asset market
rng = np.random.default_rng(5)
vols = np.array([0.010, 0.012, 0.030, 0.015])
corr = np.full((4, 4), 0.4)
np.fill_diagonal(corr, 1.0)
cov = corr * np.outer(vols, vols)
a_rl = np.array([0.05, 0.05, 0.85, 0.05])

risk_rl = sigma_alpha_value(a_rl, cov)
boundary = 0.6 * risk_rl
print(f"\nproposal risk {risk_rl:.6f}, boundary {boundary:.6f}")

# mu trades risk against deviation, so it must live on the risk scale
problem = RiskControlProblem(a_rl=a_rl, cov=cov, sigma_s=boundary, mu=2e-4)
result = propose_control(problem, budget=3000, seed=2, sigma_mode="target")

print(f"a_final   {np.round(result.a_final, 4)} (sum {result.a_final.sum():.6f})")
print(f"a_ctrl    {np.round(result.a_ctrl, 4)} (sum {result.a_ctrl.sum():+.1e})")
print(f"risk {result.achieved_risk:.6f} feasible={result.feasible} evals={result.evaluations}")

# weight moved off the risky asset, never above the proposal's own risk
assert result.achieved_risk <= risk_rl
print(f"risky-asset weight {a_rl[2]:.2f} -> {result.a_final[2]:.4f}")

# a penalty this large makes the proposal itself the optimum: the risk
# gradient projected onto the simplex (norm 6.5e-4) is shorter than mu, so
# the search stops after its first population, which holds a_rl
stiff = RiskControlProblem(a_rl=a_rl, cov=cov, sigma_s=boundary, mu=1e-3)
kept = propose_control(stiff, budget=3000, seed=2, sigma_mode="target")
print(f"\nmu 1e-3: evals={kept.evaluations} a_final == a_rl: {np.allclose(kept.a_final, a_rl, rtol=0, atol=1e-15)}")

# a proposal already inside the boundary is returned untouched, no search
calm = RiskControlProblem(a_rl=np.full(4, 0.25), cov=cov, sigma_s=1.0)
noop = propose_control(calm, seed=2)
print(f"\ninside boundary: evals={noop.evaluations} a_ctrl={noop.a_ctrl}")

# a downtrend flag (first market feature -1) relaxes the deviation penalty,
# freeing the solver to move further from the proposal
down = RiskControlProblem(
    a_rl=a_rl, cov=cov, sigma_s=boundary, mu=2e-4, v_m=np.array([-1.0, 0.0, 0.0])
)
print(f"mu neutral {problem.effective_mu():.1e} vs downtrend {down.effective_mu():.1e}")

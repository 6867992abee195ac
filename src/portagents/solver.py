"""Risk-control solver: Euclidean simplex projection, a small
DE/rand/1/bin search over simplex-repaired candidates, and the overlay
that nudges the return agent's allocation back inside a risk boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooSmall, DimensionMismatch, NonFiniteInput
from .metrics import sigma_alpha_value

_MU_FACTOR_FLOOR = 0.01


def simplex_repair(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort + threshold)
    of a vector (n,), or of each row of a matrix (m, n).

    Each row ``u`` is sorted descending, ``css = cumsum(u) - 1``, ``rho`` is
    the last index i (from 1) where ``u[i-1] - css[i-1] / i > 0`` (an argmax
    on the reversed mask), and the row is thresholded at
    ``tau = css[rho - 1] / rho``; all rows at once.
    Raises ``NonFiniteInput`` for NaN or inf entries, and when no index
    qualifies: entries near 1e16 swamp the 1.0 in ``css``.
    """
    x = np.asarray(v, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < 1:
        raise DimensionMismatch(f"expected a vector (n,) or a matrix (m, n), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteInput("cannot project a non-finite vector")
    rows = x.reshape(-1, x.shape[-1])
    m, n = rows.shape
    u = np.sort(rows, axis=1)[:, ::-1]
    css = u.cumsum(axis=1)
    css -= 1.0
    cond = u - css / np.arange(1, n + 1) > 0
    rho = n - cond[:, ::-1].argmax(axis=1)
    at_rho = (np.arange(m), rho - 1)
    if not cond[at_rho].all():
        raise NonFiniteInput("entries too large to project in float64")
    tau = css[at_rho] / rho
    return np.maximum(x - tau.reshape(x.shape[:-1] + (1,)), 0.0)


def _mutation_indices(rng: np.random.Generator, population: int):
    """r1, r2, r3 for every individual i: distinct and never i.

    Row i of a uniform (P, P) key matrix with an infinite diagonal sorts into
    a random order of the other individuals; its first three are drawn.
    """
    keys = rng.random((population, population))
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1)[:, :3].T


@dataclass
class DeResult:
    x: np.ndarray
    value: float
    evaluations: int


def differential_evolution(
    objective,
    n: int,
    budget: int,
    seed,
    population: int = 20,
    f: float = 0.8,
    cr: float = 0.9,
    init=None,
    early_stop=None,
) -> DeResult:
    """Minimise a batched objective over the probability simplex.

    ``objective`` maps a candidate matrix (m, n) to a value vector (m,).
    Candidates are simplex-repaired before every evaluation; ``budget`` caps
    the number of objective evaluations; ``early_stop(x, value)`` may end the
    search at a generation boundary. Same seed, same trajectory.

    Each generation is one DE/rand/1/bin step for the whole population: the
    mutation indices r1, r2, r3 (distinct, never i) are the first three
    columns of the argsort of a (P, P) uniform key matrix with an infinite
    diagonal, then come the (P, n) crossover mask and the P jrand genes; all
    trials are projected in one ``simplex_repair`` call and evaluated in
    one ``objective`` call.
    """
    if population < 4:
        raise BudgetTooSmall(f"population {population} must be >= 4 for DE/rand/1")
    if budget < population:
        raise BudgetTooSmall(f"budget {budget} < population {population}")
    rng = np.random.default_rng(seed)  # a Generator comes back as it is

    pop = rng.dirichlet(np.ones(n), size=population)
    if init is not None:
        seeds = np.atleast_2d(np.asarray(init, dtype=np.float64))[:population]
        pop[: len(seeds)] = simplex_repair(seeds)
    values = np.asarray(objective(pop), dtype=np.float64)
    evals = population

    best_i = int(np.argmin(values))
    best_x, best_v = pop[best_i].copy(), float(values[best_i])
    rows = np.arange(population)

    while evals + population <= budget:
        if early_stop is not None and early_stop(best_x, best_v):
            break
        # one draw of each kind per generation, whatever the budget, so a
        # larger budget replays a smaller one's generations before going on
        r1, r2, r3 = _mutation_indices(rng, population)
        cross = rng.random((population, n)) < cr
        cross[rows, rng.integers(n, size=population)] = True  # jrand: keep at least one mutant gene
        mutant = pop[r1] + f * (pop[r2] - pop[r3])
        trials = simplex_repair(np.where(cross, mutant, pop))
        trial_values = np.asarray(objective(trials), dtype=np.float64)
        evals += population
        improved = trial_values <= values
        pop[improved] = trials[improved]
        values[improved] = trial_values[improved]
        gen_best = int(np.argmin(values))
        if values[gen_best] < best_v:
            best_v = float(values[gen_best])
            best_x = pop[gen_best].copy()

    return DeResult(x=best_x, value=best_v, evaluations=evals)


@dataclass
class RiskControlProblem:
    """One solver invocation: pull ``a_rl`` inside the risk boundary.

    ``sigma_s`` is the current risk boundary, ``cov`` the rolling covariance
    matrix, ``mu`` weights the deviation penalty, and ``v_m`` (optional) is
    the market vector whose first entry (trend in {-1, 0, +1}) scales ``mu``
    down in downtrends.
    """

    a_rl: np.ndarray
    cov: np.ndarray
    sigma_s: float
    mu: float = 0.1
    v_m: np.ndarray | None = None

    def __post_init__(self):
        self.a_rl = np.asarray(self.a_rl, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        n = self.a_rl.size
        if self.cov.shape != (n, n):
            raise DimensionMismatch(
                f"covariance {self.cov.shape} incompatible with {n} assets"
            )
        # written so that NaN fails too
        if not self.sigma_s >= 0:
            raise ValueError(f"sigma_s {self.sigma_s} must be non-negative")
        if not self.mu >= 0:
            raise ValueError(f"mu {self.mu} must be non-negative")

    def effective_mu(self) -> float:
        """mu scaled by the trend feature: factor clip(1 + trend, 0.01, 1).

        Downtrends shrink the deviation penalty hard so the solver may move
        far from ``a_rl``; mu = 0 stays exactly 0.
        """
        trend = 0.0 if self.v_m is None else float(np.asarray(self.v_m).ravel()[0])
        factor = float(np.clip(1.0 + trend, _MU_FACTOR_FLOOR, 1.0))
        return self.mu * factor


def _a_rl_is_optimal(a_rl: np.ndarray, cov: np.ndarray, mu_eff: float) -> bool:
    """Whether a_rl minimises f(a) = ||Sigma a||_2 + mu_eff ||a - a_rl||_2 over
    the simplex, by one matrix-vector product: ||P g||_2 <= mu_eff, with
    g = Sigma^T Sigma a_rl / ||Sigma a_rl||_2 the gradient of the risk and
    P = I - 11^T / n the projection onto the directions that keep the sum.

    Sufficient anywhere on the simplex: along any d with sum(d) = 0, f's
    directional derivative is g.d + mu_eff ||d|| >= (mu_eff - ||P g||) ||d||.
    Necessary where a_rl is interior, since -P g is then a feasible descent
    direction.
    """
    sigma_a = cov @ a_rl
    risk = np.linalg.norm(sigma_a)
    if risk == 0.0:
        return True  # f(a_rl) = 0, the least f can be
    g = cov.T @ sigma_a / risk
    return bool(np.linalg.norm(g - g.mean()) <= mu_eff)


@dataclass
class SolverResult:
    a_ctrl: np.ndarray
    a_final: np.ndarray
    achieved_risk: float
    feasible: bool
    evaluations: int


def propose_control(
    problem: RiskControlProblem,
    budget: int = 2000,
    seed=0,
    population: int = 20,
    f: float = 0.8,
    cr: float = 0.9,
    sigma_mode: str = "hard",
) -> SolverResult:
    """Adjustment action a_ctrl = a_final - a_rl, with a_final on the simplex.

    If a_rl already satisfies the boundary the adjustment is exactly zero.
    Otherwise DE minimises ||Sigma A||_2 + mu_eff * ||A - a_rl||_2; in
    ``sigma_mode="hard"`` the search stops at the first generation whose
    incumbent is inside the boundary, in ``"target"`` it runs out the budget
    unless a_rl is certified optimal (``_a_rl_is_optimal``). A certified call,
    in either mode, stops after the first population, which holds a_rl, so
    it reports ``population`` evaluations. Seeding the population with a_rl
    guarantees the achieved risk never exceeds sigma_alpha(a_rl).
    """
    if sigma_mode not in ("hard", "target"):
        raise ValueError(f"unknown sigma_mode {sigma_mode!r}")
    a_rl = problem.a_rl
    n = a_rl.size
    risk_rl = sigma_alpha_value(a_rl, problem.cov)
    if risk_rl <= problem.sigma_s:
        return SolverResult(
            a_ctrl=np.zeros(n),
            a_final=a_rl.copy(),
            achieved_risk=risk_rl,
            feasible=True,
            evaluations=0,
        )

    mu_eff = problem.effective_mu()
    cov = problem.cov

    def objective(candidates: np.ndarray) -> np.ndarray:
        risks = np.linalg.norm(candidates @ cov.T, axis=1)
        deviation = np.linalg.norm(candidates - a_rl, axis=1)
        return risks + mu_eff * deviation

    early_stop = None
    if _a_rl_is_optimal(a_rl, cov, mu_eff):
        # no later generation can beat a_rl, which the first population holds
        def early_stop(_x, _value):
            return True
    elif sigma_mode == "hard":
        def early_stop(x, _value):
            return sigma_alpha_value(x, cov) <= problem.sigma_s

    result = differential_evolution(
        objective,
        n=n,
        budget=budget,
        seed=seed,
        population=population,
        f=f,
        cr=cr,
        init=[a_rl, np.full(n, 1.0 / n)],
        early_stop=early_stop,
    )
    a_final = result.x
    achieved = sigma_alpha_value(a_final, cov)
    return SolverResult(
        a_ctrl=a_final - a_rl,
        a_final=a_final,
        achieved_risk=achieved,
        feasible=achieved <= problem.sigma_s,
        evaluations=result.evaluations,
    )

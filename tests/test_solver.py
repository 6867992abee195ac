"""Risk-control solver: simplex projection, differential evolution, control proposals."""

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from helpers import random_psd, random_simplex
from portagents import solver
from portagents.config import RunConfig
from portagents.errors import BudgetTooSmall, DimensionMismatch, NonFiniteInput
from portagents.market_data import rolling_covariance
from portagents.metrics import sigma_alpha_value
from portagents.solver import (
    RiskControlProblem,
    _a_rl_is_optimal,
    _mutation_indices,
    differential_evolution,
    propose_control,
    simplex_repair,
)
from test_baselines import simplex_repair_reference


def kkt_projection(v):
    """O(2^N) oracle: try every support set, solve the equality-constrained
    projection, keep the feasible candidate closest to v."""
    n = len(v)
    best, best_d = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            x = np.zeros(n)
            shift = (1.0 - sum(v[i] for i in support)) / r
            for i in support:
                x[i] = v[i] + shift
            if np.any(x[list(support)] < -1e-12):
                continue
            d = float(np.sum((x - v) ** 2))
            if d < best_d - 1e-15:
                best, best_d = np.clip(x, 0.0, None), d
    return best / best.sum()


# -- simplex projection ---------------------------------------------------------


def test_projection_fixed_point_on_simplex():
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = random_simplex(rng, 6)
        np.testing.assert_allclose(simplex_repair(w), w, atol=1e-12)


def test_projection_vertex_case():
    np.testing.assert_allclose(simplex_repair(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)


def test_projection_matches_kkt_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(scale=2.0, size=rng.integers(2, 6))
        got = simplex_repair(v)
        want = kkt_projection(v)
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert got.min() >= 0.0
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        simplex_repair(np.array([1.0, np.inf]))


def test_projection_rejects_entries_beyond_float64_precision():
    # u - 1 rounds to u, so no index passes the threshold test
    with pytest.raises(NonFiniteInput):
        simplex_repair([1e17, 0.0])


# ties, n = 1 and magnitudes up to 1e12 alongside ordinary draws
ENTRIES = st.one_of(
    st.floats(-1e12, 1e12),
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 0.5, 1.0, -1.0]),
)
MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=ENTRIES)
)


@settings(max_examples=300, deadline=None)
@given(MATRICES)
def test_rows_projection_bit_identical_to_scalar(x):
    """Each row of a matrix projection equals, byte for byte, the original
    one-vector projection of that row and the projection of the row alone."""
    got = simplex_repair(x)
    assert got.shape == x.shape
    for row, v in zip(got, x):
        assert row.tobytes() == simplex_repair_reference(v).tobytes()
        assert row.tobytes() == simplex_repair(v).tobytes()


@settings(max_examples=100, deadline=None)
@given(MATRICES, st.data())
def test_rows_projection_rejects_non_finite(x, data):
    i = data.draw(st.integers(0, x.shape[0] - 1))
    j = data.draw(st.integers(0, x.shape[1] - 1))
    x[i, j] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    with pytest.raises(NonFiniteInput):
        simplex_repair(x)
    with pytest.raises(NonFiniteInput):
        simplex_repair(x[i])


def test_rows_projection_rejects_entries_beyond_float64_precision():
    with pytest.raises(NonFiniteInput):
        simplex_repair(np.array([[0.3, 0.7], [1e17, 0.0]]))


def test_rows_projection_rejects_bad_shapes():
    for bad in (np.float64(1.0), np.ones(0), np.ones((2, 0)), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            simplex_repair(bad)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([4, 8, 20]), st.integers(0, 2**32 - 1))
def test_mutation_indices_distinct_and_not_self(population, seed):
    r1, r2, r3 = _mutation_indices(np.random.default_rng(seed), population)
    i = np.arange(population)
    for r in (r1, r2, r3):
        assert r.shape == (population,)
        assert np.all((0 <= r) & (r < population))
        assert np.all(r != i)
    assert np.all((r1 != r2) & (r1 != r3) & (r2 != r3))


# -- differential evolution -------------------------------------------------------


def batched(fn):
    return lambda xs: np.apply_along_axis(fn, 1, xs)


def test_de_constant_objective():
    result = differential_evolution(lambda xs: np.full(len(xs), 3.5), 4, budget=200, seed=0)
    assert result.value == 3.5
    assert result.x.min() >= 0.0
    assert result.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_de_convex_quadratic_reaches_optimum():
    obj = lambda xs: (xs[:, 0] - 0.2) ** 2 + (xs[:, 1] - 0.8) ** 2
    result = differential_evolution(obj, 2, budget=5000, seed=1)
    assert result.value < 1e-4  # closed-form minimum is 0 at (0.2, 0.8)
    np.testing.assert_allclose(result.x, [0.2, 0.8], atol=0.02)


def traced_de(obj, n, budget, seed):
    """Run DE to its budget and return the result and its best-so-far
    value after the initial population and after each generation: DE hands
    the incumbent to ``early_stop`` at every generation boundary."""
    seen = []
    result = differential_evolution(
        obj, n, budget=budget, seed=seed, early_stop=lambda _x, value: seen.append(value)
    )
    return result, np.asarray(seen + [result.value])


def test_de_same_seed_identical_trajectory():
    obj = lambda xs: np.linalg.norm(xs - 1.0 / 3.0, axis=1)
    a, a_trace = traced_de(obj, 3, budget=600, seed=42)
    b, b_trace = traced_de(obj, 3, budget=600, seed=42)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a_trace, b_trace)
    assert a.evaluations == b.evaluations


def test_de_trace_monotone_and_budget_respected():
    rng = np.random.default_rng(3)
    q = random_psd(rng, 5)
    obj = lambda xs: np.einsum("ij,jk,ik->i", xs, q, xs)
    result, trace = traced_de(obj, 5, budget=777, seed=3)
    assert trace.size == result.evaluations // 20
    assert np.all(np.diff(trace) <= 0.0)
    assert result.evaluations <= 777


def test_de_budget_monotone_across_reruns():
    obj = lambda xs: np.linalg.norm(xs - np.array([0.7, 0.2, 0.1]), axis=1)
    values = [
        differential_evolution(obj, 3, budget=b, seed=9).value
        for b in (60, 120, 240, 480)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_de_larger_budget_replays_smaller_one():
    # a generation draws the same randomness whatever the budget
    obj = lambda xs: np.linalg.norm(xs - np.array([0.5, 0.3, 0.1, 0.1]), axis=1)
    _, short = traced_de(obj, 4, budget=100, seed=5)
    _, long = traced_de(obj, 4, budget=400, seed=5)
    np.testing.assert_array_equal(long[: short.size], short)


def test_de_rejects_bad_budget():
    obj = lambda xs: np.zeros(len(xs))
    with pytest.raises(BudgetTooSmall):
        differential_evolution(obj, 3, budget=5, seed=0, population=20)
    with pytest.raises(BudgetTooSmall):
        differential_evolution(obj, 3, budget=100, seed=0, population=3)


# -- propose_control ---------------------------------------------------------------


@pytest.mark.parametrize("field", ["sigma_s", "mu"])
def test_problem_rejects_nan_boundary_and_penalty(field):
    args = {"a_rl": np.array([0.6, 0.4]), "cov": np.eye(2), "sigma_s": 0.1, "mu": 0.1}
    with pytest.raises(ValueError, match=field):
        RiskControlProblem(**{**args, field: np.nan})


def test_control_noop_on_zero_covariance():
    problem = RiskControlProblem(
        a_rl=np.array([0.6, 0.4]), cov=np.zeros((2, 2)), sigma_s=0.0
    )
    result = propose_control(problem, seed=0)
    np.testing.assert_array_equal(result.a_ctrl, np.zeros(2))
    assert result.feasible
    assert result.evaluations == 0


def test_control_noop_when_boundary_already_met():
    rng = np.random.default_rng(4)
    cov = random_psd(rng, 3, scale=0.05)
    a_rl = random_simplex(rng, 3)
    slack = sigma_alpha_value(a_rl, cov) * 1.01
    result = propose_control(RiskControlProblem(a_rl, cov, sigma_s=slack), seed=1)
    np.testing.assert_array_equal(result.a_ctrl, np.zeros(3))
    np.testing.assert_array_equal(result.a_final, a_rl)
    assert result.feasible


def test_control_composition_identities():
    rng = np.random.default_rng(5)
    for seed in range(10):
        cov = random_psd(rng, 4, scale=0.1)
        a_rl = random_simplex(rng, 4)
        result = propose_control(
            RiskControlProblem(a_rl, cov, sigma_s=0.0), budget=300, seed=seed
        )
        np.testing.assert_allclose(result.a_final, a_rl + result.a_ctrl, atol=1e-12)
        assert result.a_ctrl.sum() == pytest.approx(0.0, abs=1e-9)
        assert result.a_final.min() >= -1e-12
        assert result.a_final.sum() == pytest.approx(1.0, abs=1e-9)


def test_control_never_worsens_risk():
    rng = np.random.default_rng(6)
    for seed in range(30):
        n = int(rng.integers(2, 8))
        cov = random_psd(rng, n, scale=0.2)
        a_rl = random_simplex(rng, n)
        result = propose_control(
            RiskControlProblem(a_rl, cov, sigma_s=0.0), budget=240, seed=seed
        )
        assert result.achieved_risk <= sigma_alpha_value(a_rl, cov) + 1e-12


def test_control_concentrates_on_low_risk_asset():
    # diag covariance: minimising |Sigma A| drives weight onto the tiny-variance asset
    cov = np.diag([0.04, 0.01, 0.0001])
    a_rl = np.array([0.5, 0.3, 0.2])
    problem = RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=0.0)
    result = propose_control(problem, budget=2000, seed=7)
    assert result.a_final[2] > 0.9

    rng = np.random.default_rng(8)
    samples = rng.dirichlet(np.ones(3), size=200_000)
    brute = np.linalg.norm(samples @ cov.T, axis=1).min()
    assert result.achieved_risk <= brute * 1.05


def test_control_deviation_penalty_shrinks_adjustment():
    rng = np.random.default_rng(9)
    cov = random_psd(rng, 4, scale=0.3)
    a_rl = random_simplex(rng, 4)
    sizes = []
    for mu in (0.0, 0.3, 3.0, 30.0):
        result = propose_control(
            RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=mu), budget=3000, seed=11
        )
        sizes.append(float(np.linalg.norm(result.a_ctrl)))
    assert all(a >= b - 1e-3 for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < 0.05  # huge penalty pins a_final near a_rl


def test_control_market_vector_modulates_penalty():
    # downtrend shrinks the deviation penalty (modulation factor floored at
    # 0.01 and capped at 1, so neutral and uptrend coincide)
    cov = np.diag([0.09, 0.01])
    a_rl = np.array([0.9, 0.1])
    down = RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=0.2, v_m=np.array([-1.0, 0.5, 1.0]))
    neutral = RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=0.2, v_m=np.zeros(3))
    up = RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=0.2, v_m=np.array([1.0, 0.5, 1.0]))
    assert down.effective_mu() < neutral.effective_mu()
    assert down.effective_mu() == pytest.approx(0.2 * 0.01)
    assert neutral.effective_mu() == pytest.approx(0.2)
    assert up.effective_mu() == pytest.approx(0.2)
    # mu=0 stays 0 regardless of market signal
    zero = RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=0.0, v_m=np.array([1.0, 0.0, 0.0]))
    assert zero.effective_mu() == 0.0


def test_control_hard_mode_stops_at_boundary():
    # mu=0 so the optimum is pure risk minimisation and the boundary is reachable
    rng = np.random.default_rng(12)
    cov = random_psd(rng, 5, scale=0.3)
    a_rl = random_simplex(rng, 5)
    start = sigma_alpha_value(a_rl, cov)
    target = start * 0.9  # reachable without full convergence
    hard = propose_control(
        RiskControlProblem(a_rl, cov, sigma_s=target, mu=0.0),
        budget=4000, seed=13, sigma_mode="hard",
    )
    full = propose_control(
        RiskControlProblem(a_rl, cov, sigma_s=target, mu=0.0),
        budget=4000, seed=13, sigma_mode="target",
    )
    assert hard.feasible and full.feasible
    assert hard.evaluations < full.evaluations
    assert full.achieved_risk <= hard.achieved_risk + 1e-12


# -- independent oracle ------------------------------------------------------------


def slsqp_min_risk(cov, starts):
    """min ||Sigma a||_2 over the simplex by SLSQP on the convex ||Sigma a||^2."""
    q = cov.T @ cov
    n = cov.shape[0]
    best = np.inf
    for x0 in starts:
        res = minimize(
            lambda a: a @ q @ a,
            x0,
            jac=lambda a: 2.0 * q @ a,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                          "jac": lambda a: np.ones(n)}],
            options={"ftol": 1e-20, "maxiter": 500},
        )
        a = np.clip(res.x, 0.0, None)
        best = min(best, float(np.linalg.norm(cov @ (a / a.sum()))))
    return best


@functools.cache
def crash_series():
    """The ablation's calm-then-crash market: 5 assets, 600 calm days, then 150 of a crash."""
    spec = {
        "assets": 5,
        "seed": 77,
        "regimes": [
            {"length": 600, "drift": 0.0004, "vol": 0.008, "corr": 0.3},
            {"length": 150, "drift": -0.002, "vol": 0.035, "corr": 0.6},
        ],
    }
    return RunConfig(data={"synth": spec}).load_series()


def test_de_close_to_slsqp_oracle_on_crash_market():
    # the crash-overlay shape: 21-day rolling covariances of the crash
    # market, budget 300, population 20
    series = crash_series()
    rng = np.random.default_rng(5)
    ratios = []
    for k, day in enumerate(np.linspace(30, 745, 50).astype(int)):
        cov = rolling_covariance(series, t=int(day), k=21)
        a_rl = random_simplex(rng, 5)
        result = propose_control(
            RiskControlProblem(a_rl, cov, sigma_s=0.0, mu=0.0),
            budget=300, population=20, seed=k, sigma_mode="target",
        )
        ratios.append(result.achieved_risk / slsqp_min_risk(cov, [a_rl, np.full(5, 0.2)]))
    ratios = np.array(ratios)
    assert ratios.min() > 1.0 - 1e-3  # the oracle really is a lower bound
    assert np.sum(ratios > 1.05) <= 1
    assert ratios.mean() < 1.01


# -- the optimality certificate of a_rl ----------------------------------------------


def penalised(a, a_rl, cov, mu):
    """The solver's objective ||Sigma a||_2 + mu ||a - a_rl||_2 at one point."""
    return float(np.linalg.norm(cov @ a) + mu * np.linalg.norm(a - a_rl))


def projected_risk_gradient(a_rl, cov):
    """P g with g the gradient of ||Sigma a||_2 at a_rl and P = I - 11^T/n."""
    g = cov.T @ cov @ a_rl / np.linalg.norm(cov @ a_rl)
    return (np.eye(a_rl.size) - 1.0 / a_rl.size) @ g


def slsqp_min_penalised(a_rl, cov, mu, starts):
    """min of the solver's objective over the simplex by SLSQP from each
    start, each answer projected back onto the simplex before it is scored."""
    n = a_rl.size

    def jac(a):
        s, d = cov @ a, a - a_rl
        dn = np.linalg.norm(d)
        return cov.T @ s / np.linalg.norm(s) + (mu * d / dn if dn > 0 else 0.0)

    best = np.inf
    for x0 in starts:
        res = minimize(
            lambda a: penalised(a, a_rl, cov, mu),
            x0,
            jac=jac,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0, "jac": lambda a: np.ones(n)}],
            options={"ftol": 1e-16, "maxiter": 500},
        )
        best = min(best, penalised(simplex_repair(res.x), a_rl, cov, mu))
    return best


def certificate_cases():
    """(cov, a_rl) pairs: random covariances of 3 to 8 assets and 21-day
    covariances of the crash market, each with an interior a_rl."""
    rng = np.random.default_rng(2025)
    cases = [(random_psd(rng, n, scale=0.3), random_simplex(rng, n)) for n in (3, 5, 8)]
    series = crash_series()
    for day in (100, 400, 610, 650, 745):
        cases.append((rolling_covariance(series, t=day, k=21), random_simplex(rng, 5)))
    return cases


@pytest.mark.parametrize("ratio", [0.0, 0.5, 0.9, 1.1, 2.0, 10.0])
def test_certificate_against_slsqp_and_descent_oracles(ratio):
    # mu_eff = ratio * ||P g||: the test passes exactly when ratio >= 1
    for cov, a_rl in certificate_cases():
        pg = projected_risk_gradient(a_rl, cov)
        mu = ratio * np.linalg.norm(pg)
        f_rl = penalised(a_rl, a_rl, cov, mu)
        certified = _a_rl_is_optimal(a_rl, cov, mu)
        assert certified == (ratio >= 1.0)
        if certified:
            # nothing on the simplex is better than a_rl
            starts = [a_rl, np.full(a_rl.size, 1.0 / a_rl.size), *np.eye(a_rl.size)[:2]]
            assert slsqp_min_penalised(a_rl, cov, mu, starts) >= f_rl - 1e-12
        else:
            # an interior a_rl that fails the test has a feasible descent direction
            step = -1e-3 * a_rl.min() * pg / np.linalg.norm(pg)
            assert penalised(a_rl + step, a_rl, cov, mu) < f_rl


def test_certificate_holds_at_zero_risk():
    assert _a_rl_is_optimal(np.array([0.5, 0.5]), np.zeros((2, 2)), 0.0)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    scale=st.sampled_from([1e-3, 0.1, 1.0]),
    problem_seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(1.0, 50.0),
    trend=st.sampled_from([-1.0, 0.0, 1.0]),
    boundary=st.floats(0.0, 0.99),
    sigma_mode=st.sampled_from(["hard", "target"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_call_stops_after_first_population(
    n, scale, problem_seed, ratio, trend, boundary, sigma_mode, seed
):
    rng = np.random.default_rng(problem_seed)
    cov = random_psd(rng, n, scale=scale)
    a_rl = random_simplex(rng, n)
    factor = 0.01 if trend < 0 else 1.0  # the trend's scaling of mu
    mu = ratio * np.linalg.norm(projected_risk_gradient(a_rl, cov)) / factor
    sigma_s = boundary * sigma_alpha_value(a_rl, cov)
    problem = RiskControlProblem(a_rl, cov, sigma_s=sigma_s, mu=mu, v_m=np.array([trend, 0.0, 0.0]))
    mu_eff = problem.effective_mu()
    assume(_a_rl_is_optimal(a_rl, cov, mu_eff))

    result = propose_control(problem, budget=300, seed=seed, population=20, sigma_mode=sigma_mode)
    assert result.evaluations == 20

    # the full search finds nothing better than the first population's best
    full = differential_evolution(
        lambda c: np.linalg.norm(c @ cov.T, axis=1) + mu_eff * np.linalg.norm(c - a_rl, axis=1),
        n,
        budget=300,
        seed=seed,
        population=20,
        init=[a_rl, np.full(n, 1.0 / n)],
        early_stop=None,
    )
    assert full.evaluations == 300
    assert np.abs(result.a_final - full.x).sum() <= 1e-15
    assert np.abs(result.a_final - a_rl).sum() <= 1e-15


def traced_control(problem, monkeypatch, **kwargs):
    """propose_control's result and a SHA-256 of every candidate matrix its
    DE evaluated and of the values it got, in order."""
    digest = hashlib.sha256()
    run_de = solver.differential_evolution

    def recording(objective, *args, **kw):
        def traced_objective(candidates):
            values = objective(candidates)
            digest.update(candidates.tobytes())
            digest.update(values.tobytes())
            return values

        return run_de(traced_objective, *args, **kw)

    monkeypatch.setattr(solver, "differential_evolution", recording)
    return propose_control(problem, **kwargs), digest.hexdigest()


@pytest.mark.parametrize(
    "sigma_mode,boundary,evaluations,a_final,digest",
    [
        (
            "target",
            0.0,
            300,
            [0.09120861727817622, 0.4384908356098705, 0.03361148403518435, 0.43668906307676886, 0.0],
            "03f5439035971c6dc1e099d835784fa8ef6421bea0507e5f6c122167037de60c",
        ),
        (
            "hard",
            0.5,
            100,
            [0.19789782868729175, 0.34961957413711575, 0.1508420905460893, 0.30164050662950326, 0.0],
            "2f234919b98a2da399f6743f193786606b23a33c27390d90ca006b452974ed8f",
        ),
    ],
)
def test_uncertified_call_searches_as_before(sigma_mode, boundary, evaluations, a_final, digest, monkeypatch):
    # taken before the certificate existed: a call that fails the test keeps
    # its evaluation count, its answer and every candidate of its search
    rng = np.random.default_rng(2024)
    cov = random_psd(rng, 5, scale=0.3)
    a_rl = random_simplex(rng, 5)
    problem = RiskControlProblem(a_rl, cov, sigma_s=boundary * sigma_alpha_value(a_rl, cov), mu=0.05)
    assert not _a_rl_is_optimal(a_rl, cov, problem.effective_mu())
    result, got = traced_control(problem, monkeypatch, budget=300, seed=17, sigma_mode=sigma_mode)
    assert result.evaluations == evaluations
    assert result.a_final.tolist() == a_final
    assert got == digest

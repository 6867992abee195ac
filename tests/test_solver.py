"""Risk-control solver: simplex projection, differential evolution, control proposals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from helpers import random_psd, random_simplex
from portagents.errors import BudgetTooSmall, DimensionMismatch, NonFiniteInput
from portagents.market_data import rolling_covariance, synth_from_spec
from portagents.metrics import sigma_alpha_value
from portagents.solver import (
    RiskControlProblem,
    _mutation_indices,
    differential_evolution,
    propose_control,
    simplex_repair,
    simplex_repair_rows,
)


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
    got = simplex_repair_rows(x)
    assert got.shape == x.shape
    for row, v in zip(got, x):
        assert row.tobytes() == simplex_repair(v).tobytes()


@settings(max_examples=100, deadline=None)
@given(MATRICES, st.data())
def test_rows_projection_rejects_non_finite(x, data):
    i = data.draw(st.integers(0, x.shape[0] - 1))
    j = data.draw(st.integers(0, x.shape[1] - 1))
    x[i, j] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    with pytest.raises(NonFiniteInput):
        simplex_repair_rows(x)
    with pytest.raises(NonFiniteInput):
        simplex_repair(x[i])


def test_rows_projection_rejects_entries_beyond_float64_precision():
    with pytest.raises(NonFiniteInput):
        simplex_repair_rows(np.array([[0.3, 0.7], [1e17, 0.0]]))


def test_rows_projection_rejects_bad_shapes():
    for bad in (np.ones(3), np.ones((2, 0)), np.ones((2, 2, 2))):
        with pytest.raises(DimensionMismatch):
            simplex_repair_rows(bad)


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


def test_de_same_seed_identical_trajectory():
    obj = lambda xs: np.linalg.norm(xs - 1.0 / 3.0, axis=1)
    a = differential_evolution(obj, 3, budget=600, seed=42)
    b = differential_evolution(obj, 3, budget=600, seed=42)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.trace, b.trace)
    assert a.evaluations == b.evaluations


def test_de_trace_monotone_and_budget_respected():
    rng = np.random.default_rng(3)
    q = random_psd(rng, 5)
    obj = lambda xs: np.einsum("ij,jk,ik->i", xs, q, xs)
    result = differential_evolution(obj, 5, budget=777, seed=3)
    trace = np.asarray(result.trace)
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
    short = differential_evolution(obj, 4, budget=100, seed=5)
    long = differential_evolution(obj, 4, budget=400, seed=5)
    np.testing.assert_array_equal(long.trace[: short.trace.size], short.trace)


def test_de_rejects_bad_budget():
    obj = lambda xs: np.zeros(len(xs))
    with pytest.raises(BudgetTooSmall):
        differential_evolution(obj, 3, budget=5, seed=0, population=20)
    with pytest.raises(BudgetTooSmall):
        differential_evolution(obj, 3, budget=100, seed=0, population=3)


# -- propose_control ---------------------------------------------------------------


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


def test_de_close_to_slsqp_oracle_on_crash_market():
    # the crash-overlay shape: 5 assets, 21-day rolling covariances of the
    # ablation's calm-then-crash market, budget 300, population 20
    spec = {
        "assets": 5,
        "seed": 77,
        "regimes": [
            {"length": 600, "drift": 0.0004, "vol": 0.008, "corr": 0.3},
            {"length": 150, "drift": -0.002, "vol": 0.035, "corr": 0.6},
        ],
    }
    series = synth_from_spec(spec)
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

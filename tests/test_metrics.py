"""Portfolio metrics: short-term risk, performance stats, rank-sum test."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as spspecial
from scipy import stats as sps

from helpers import random_psd, random_simplex
from portagents.errors import DegenerateSamples, ZeroVolatility
from portagents.metrics import (
    _MAXLOG,
    _erf,
    _erfc,
    _mid_ranks,
    _ndtr,
    annual_return,
    build_report,
    long_term_volatility,
    max_drawdown,
    sharpe_ratio,
    sigma_alpha_value,
    uniform_weights,
    wilcoxon_rank_sum,
)


# -- short-term risk ---------------------------------------------------------


def test_sigma_alpha_zero_cov():
    assert sigma_alpha_value([0.2, 0.8], np.zeros((2, 2))) == 0.0


def test_sigma_alpha_identity_uniform():
    got = sigma_alpha_value(uniform_weights(4), np.eye(4))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_sigma_alpha_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cov = random_psd(rng, 3)
        w = random_simplex(rng, 3)
        rows = [sum(cov[i, j] * w[j] for j in range(3)) for i in range(3)]
        want = sum(r * r for r in rows) ** 0.5
        assert sigma_alpha_value(w, cov) == pytest.approx(want, abs=1e-12)


def test_sigma_alpha_convex_in_weights():
    rng = np.random.default_rng(9)
    for _ in range(50):
        cov = random_psd(rng, 5)
        a, b = random_simplex(rng, 5), random_simplex(rng, 5)
        lam = rng.uniform()
        mixed = sigma_alpha_value(lam * a + (1 - lam) * b, cov)
        bound = lam * sigma_alpha_value(a, cov) + (1 - lam) * sigma_alpha_value(b, cov)
        assert mixed <= bound + 1e-10


# -- long-term volatility ----------------------------------------------------


def test_volatility_constant_returns():
    assert long_term_volatility([0.01] * 10) == 0.0


def test_volatility_hand_case():
    got = long_term_volatility([0.01, -0.01])
    assert got == pytest.approx(np.sqrt(252.0 / 2.0 * 0.0002), abs=1e-12)
    assert got == pytest.approx(0.15875, abs=5e-6)


def test_volatility_homogeneous_in_deviations():
    rng = np.random.default_rng(10)
    r = rng.normal(0, 0.02, size=30)
    dev = r - r.mean()
    base = long_term_volatility(r.mean() + dev)
    assert long_term_volatility(r.mean() + 3.0 * dev) == pytest.approx(3.0 * base)


def test_volatility_translation_invariant():
    rng = np.random.default_rng(11)
    r = rng.normal(0, 0.02, size=40)
    assert long_term_volatility(r + 0.005) == pytest.approx(
        long_term_volatility(r), abs=1e-12
    )


# -- sharpe ------------------------------------------------------------------


def test_sharpe_zero_excess():
    assert sharpe_ratio(0.02, 0.02, 0.3) == 0.0


def test_sharpe_hand_case():
    assert sharpe_ratio(0.10, 0.02, 0.16) == pytest.approx(0.5, abs=1e-12)


def test_sharpe_scale_invariance():
    assert sharpe_ratio(0.02 + 0.16, 0.02, 0.32) == pytest.approx(
        sharpe_ratio(0.02 + 0.08, 0.02, 0.16)
    )


def test_sharpe_antisymmetry():
    r, rf, v = 0.13, 0.02, 0.2
    assert sharpe_ratio(r, rf, v) == pytest.approx(-sharpe_ratio(2 * rf - r, rf, v))


def test_sharpe_zero_volatility_raises():
    with pytest.raises(ZeroVolatility):
        sharpe_ratio(0.1, 0.0, 0.0)


# -- annual return -----------------------------------------------------------


def test_annual_return_flat():
    assert annual_return([100.0] * 50) == 0.0


def test_annual_return_doubling_over_one_year():
    curve = np.linspace(1.0, 2.0, 253)
    curve[-1] = 2.0
    assert annual_return(curve) == pytest.approx(1.0, abs=1e-12)


def test_annual_return_hand_case():
    got = annual_return([100.0, 101.0, 102.01])
    assert got == pytest.approx(1.0201 ** 126 - 1.0, abs=1e-9)


# -- max drawdown ------------------------------------------------------------


def test_mdd_monotone_curve():
    assert max_drawdown(np.linspace(1, 2, 100)) == 0.0


def test_mdd_hand_case():
    assert max_drawdown([100.0, 50.0, 75.0]) == pytest.approx(0.5)


def brute_force_mdd(curve):
    worst = 0.0
    for i in range(len(curve)):
        for j in range(i, len(curve)):
            worst = max(worst, (curve[i] - curve[j]) / curve[i])
    return worst


def test_mdd_matches_all_pairs_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        curve = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=200)))
        assert max_drawdown(curve) == pytest.approx(brute_force_mdd(curve), abs=1e-12)


def test_mdd_scale_invariant():
    rng = np.random.default_rng(14)
    curve = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=150)))
    assert max_drawdown(curve * 17.3) == pytest.approx(max_drawdown(curve), abs=1e-12)


# -- Wilcoxon rank-sum -------------------------------------------------------


def exhaustive_rank_sum_p(sample_a, sample_b) -> float:
    """Brute-force two-sided p by enumerating every group assignment.

    Reference oracle for small samples, ranked by scipy; cost is C(n+m, n).
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    pooled = np.concatenate([a, b])
    ranks = sps.rankdata(pooled)
    n = a.size
    w_obs = ranks[:n].sum()
    mu = n * (n + b.size + 1) / 2.0
    dev = abs(w_obs - mu)
    hits = 0
    count = 0
    for subset in itertools.combinations(range(pooled.size), n):
        count += 1
        if abs(ranks[list(subset)].sum() - mu) >= dev - 1e-9:
            hits += 1
    return hits / count


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.3, 1.0, 7.0]) | st.floats(-1e6, 1e6), min_size=1, max_size=60))
def test_mid_ranks_equal_scipy_rankdata(values):
    v = np.asarray(values, dtype=np.float64)
    assert _mid_ranks(v).tobytes() == sps.rankdata(v).tobytes()


def test_wilcoxon_normal_branch_matches_scipy_mannwhitneyu():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = np.round(rng.normal(0.0, 1.0, size=int(rng.integers(8, 60))), 1)  # rounding makes ties
        b = np.round(rng.normal(rng.uniform(-1, 1), 1.0, size=int(rng.integers(8, 60))), 1)
        result = wilcoxon_rank_sum(a, b)
        assert not result.exact
        want = sps.mannwhitneyu(a, b, use_continuity=True, method="asymptotic").pvalue
        assert result.p_value == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_wilcoxon_identical_samples():
    result = wilcoxon_rank_sum([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert result.p_value >= 0.99
    assert not result.significant


def test_wilcoxon_extreme_separation_exact():
    result = wilcoxon_rank_sum([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert result.exact
    assert result.p_value == pytest.approx(0.1, abs=1e-12)
    assert not result.significant  # 0.1 > 0.05


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(15)
    for _ in range(25):
        a = rng.normal(0, 1, size=6)
        b = rng.normal(rng.uniform(-1, 1), 1, size=6)
        result = wilcoxon_rank_sum(a, b)
        assert result.exact
        assert result.p_value == pytest.approx(exhaustive_rank_sum_p(a, b), abs=1e-12)


def test_wilcoxon_enumeration_oracle_is_independent():
    # sanity-check the oracle itself on the closed-form extreme case:
    # 2 of C(6,3)=20 orderings are at least as extreme -> p = 0.1
    assert exhaustive_rank_sum_p([1, 2, 3], [10, 11, 12]) == pytest.approx(0.1)
    count = sum(1 for _ in itertools.combinations(range(6), 3))
    assert count == 20


def test_wilcoxon_with_ties_uses_midranks():
    a = [1.0, 2.0, 2.0, 3.0, 5.0, 5.0]
    b = [2.0, 4.0, 4.0, 5.0, 6.0, 7.0]
    result = wilcoxon_rank_sum(a, b)
    assert result.p_value == pytest.approx(exhaustive_rank_sum_p(a, b), abs=1e-12)


def test_wilcoxon_large_sample_normal_branch():
    rng = np.random.default_rng(16)
    a = rng.normal(0.0, 1.0, size=40)
    b = rng.normal(1.2, 1.0, size=40)
    result = wilcoxon_rank_sum(a, b)
    assert not result.exact
    assert result.p_value < 0.05
    assert result.significant


def test_wilcoxon_degenerate_inputs():
    with pytest.raises(DegenerateSamples):
        wilcoxon_rank_sum([], [1.0])
    # all tied, at the exact and at the normal branch's sizes: every assignment
    # ties the observed rank sum, so the exact p is 1
    for a, b in (([2.0, 2.0], [2.0, 2.0]), (np.zeros(40), np.zeros(41))):
        result = wilcoxon_rank_sum(a, b)
        assert result.p_value == 1.0
        assert result.exact and not result.significant


# -- normal tail: bit for bit scipy.special ------------------------------------


def branch_edges(edges, ulps: int = 4) -> np.ndarray:
    """Each edge and its sign flip, with `ulps` float64 neighbours on each side."""
    points = [0.0, -0.0]
    for edge in edges:
        for start in (edge, -edge):
            points.append(start)
            for toward in (-np.inf, np.inf):
                x = start
                for _ in range(ulps):
                    x = np.nextafter(x, toward)
                    points.append(x)
    return np.array(points)


def assert_same_bits(ours, reference, points):
    got = np.array([ours(float(x)) for x in points])
    want = reference(points)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [(points[i], got[i], want[i]) for i in differ[:5]]


def test_ndtr_bit_identical_to_scipy():
    # ndtr switches from erf to erfc at |a| = 1, erfc from 1 - erf to P/Q at
    # |a| = sqrt(2), P/Q to R/S at 8 sqrt(2), and underflows past sqrt(2 MAXLOG)
    edges = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * _MAXLOG)]
    points = np.concatenate([np.linspace(-40.0, 40.0, 200_001), branch_edges(edges)])
    assert_same_bits(_ndtr, spspecial.ndtr, points)


def test_erf_and_erfc_bit_identical_to_scipy():
    # their own branches at |x| = 1, 8 and sqrt(MAXLOG), on both signs
    edges = [1.0, 8.0, np.sqrt(_MAXLOG)]
    points = np.concatenate([np.linspace(-30.0, 30.0, 60_001), branch_edges(edges)])
    assert_same_bits(_erf, spspecial.erf, points)
    assert_same_bits(_erfc, spspecial.erfc, points)


# -- performance report ------------------------------------------------------


def test_build_report_fields_and_serialization():
    equity = [100.0, 110.0, 104.5, 115.0]
    risks = [0.01, 0.02, 0.015]
    report = build_report(equity, risks)
    assert report.trading_days == 3
    assert report.max_drawdown == pytest.approx(0.05)
    assert report.mean_short_term_risk == pytest.approx(np.mean(risks))
    flat = report.to_flat_dict()
    assert set(flat) == {"ar", "mdd", "sharpe", "risk", "vol", "t_days"}
    parsed = json.loads(json.dumps(flat))
    assert parsed == flat


def test_build_report_flat_curve_zero_sharpe():
    report = build_report([1.0, 1.0, 1.0], [0.0, 0.0])
    assert report.sharpe == 0.0
    assert report.annualised_return == 0.0

"""The benchmark's own checks on hand-built cases.

Run with: python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def test_crp_replay_three_days_two_assets():
    closes = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0]])
    # day 0: no turnover from uniform holdings, growth 1.5, holdings drift to (2/3, 1/3)
    # day 1: half-turnover 1/6 back to uniform costs 0.1/6, growth 1.5
    equity = checks.crp_replay(closes, start=0, end=2, c_tx=0.1)
    assert equity == pytest.approx([1.0, 1.5, 1.5 * 1.5 * (1.0 - 0.1 / 6.0)], rel=1e-15)
    assert checks.crp_replay(closes, 0, 2, c_tx=0.0)[-1] == pytest.approx(2.25, rel=1e-15)


def test_ar_and_mdd_on_a_hand_made_curve():
    curve = [1.0, 1.2, 0.9, 1.08, 1.5]
    assert checks.max_drawdown(curve) == pytest.approx(0.25, rel=1e-15)  # 1.2 -> 0.9
    assert checks.annual_return(curve, days_per_year=4) == pytest.approx(0.5, rel=1e-15)
    assert checks.max_drawdown([1.0, 2.0, 3.0]) == 0.0


def test_row_check_flags_each_wrong_figure():
    equity = [1.2, 0.9, 1.08, 1.5]  # emitted curves leave out the starting capital
    risk = [0.1, 0.2, 0.3, 0.4]
    curve = [1.0, *equity]
    returns = checks.daily_returns(curve)
    vol = math.sqrt(252 * np.mean((returns - returns.mean()) ** 2))
    ar = 1.5 ** (252 / 4) - 1.0
    row = {"strategy": "x", "ar": ar, "mdd": 0.25, "vol": vol, "sharpe": ar / vol, "risk": 0.25, "t_days": 4}
    assert checks.row_violations(row, equity, risk, c0=1.0) == []
    for key, wrong in (("mdd", (1.5 - 0.9) / 1.5), ("ar", ar * 1.001), ("vol", vol * 1.001),
                       ("sharpe", ar / vol * 0.999), ("risk", 0.4), ("t_days", 5)):
        assert len(checks.row_violations({**row, key: wrong}, equity, risk, c0=1.0)) == 1, key


def test_rank_sum_p_on_tied_samples():
    a, b = [1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 2.0, 3.0]
    # mid-ranks: 1s -> 2, 2s -> 5.5, 3 -> 8; U = 15 - 10 = 5 against a mean of 8;
    # tie-corrected variance 16/12 * (9 - 84/56) = 10; continuity 0.5
    z = (abs(5.0 - 8.0) - 0.5) / math.sqrt(10.0)
    assert checks.rank_sum_p(a, b) == pytest.approx(math.erfc(z / math.sqrt(2.0)), rel=1e-12)
    assert checks.rank_sum_p(b, a) == pytest.approx(checks.rank_sum_p(a, b), rel=1e-15)
    assert checks.rank_sum_p(a, a) == 1.0


def _report(p_single):
    single = [1.01, 1.0, 1.03, 1.02, 1.05, 1.04, 1.06, 1.08]
    triple = [1.0, 1.02, 1.01, 1.03, 1.02, 1.04, 1.05, 1.05]
    rows = []
    for name, equity in (("single", single), ("triple", triple)):
        curve = [1.0, *equity]
        ar = checks.annual_return(curve)
        vol = checks.volatility(checks.daily_returns(curve))
        rows.append({"strategy": name, "ar": ar, "mdd": checks.max_drawdown(curve), "vol": vol,
                     "sharpe": ar / vol, "risk": 0.01, "t_days": len(equity)})
    curves = {name: {"equity": eq, "risk": [0.01] * len(eq), "adjustment": [0.0] * len(eq)}
              for name, eq in (("single", single), ("triple", triple))}
    return {"rows": rows, "curves": curves, "reference": "triple",
            "p_values": {"single": p_single, "triple": 1.0}}


def test_comparison_check_recomputes_p_values():
    report = _report(p_single=0.0)
    good = checks.rank_sum_p(checks.daily_returns([1.0, *report["curves"]["single"]["equity"]]),
                             checks.daily_returns([1.0, *report["curves"]["triple"]["equity"]]))
    assert checks.comparison_violations(_report(good), c0=1.0) == []
    assert len(checks.comparison_violations(_report(good * 1.01), c0=1.0)) == 1
    bad_reference = _report(good)
    bad_reference["p_values"]["triple"] = 0.99
    assert len(checks.comparison_violations(bad_reference, c0=1.0)) == 2


def _solver_result(a_rl, a_final, evaluations):
    a_final = np.asarray(a_final, dtype=np.float64)
    return SimpleNamespace(a_final=a_final, a_ctrl=a_final - a_rl, evaluations=evaluations)


def test_solver_properties():
    cov = np.diag([4.0, 1.0])
    a_rl = np.array([0.8, 0.2])  # ||cov a_rl|| = sqrt(3.2^2 + 0.2^2), about 3.206
    inside = _solver_result(a_rl, a_rl, evaluations=0)
    assert checks.solver_call_violations(a_rl, cov, 4.0, 300, inside) == []
    pulled = _solver_result(a_rl, [0.2, 0.8], evaluations=300)
    assert checks.solver_call_violations(a_rl, cov, 1.0, 300, pulled) == []

    moved_inside = _solver_result(a_rl, [0.2, 0.8], evaluations=300)
    assert checks.solver_call_violations(a_rl, cov, 4.0, 300, moved_inside)
    assert checks.solver_call_violations(a_rl, cov, 1.0, 200, pulled)  # over budget
    riskier = _solver_result(a_rl, [1.0, 0.0], evaluations=300)
    assert checks.solver_call_violations(a_rl, cov, 1.0, 300, riskier)
    off_simplex = _solver_result(a_rl, [0.3, 0.8], evaluations=300)
    assert checks.solver_call_violations(a_rl, cov, 1.0, 300, off_simplex)
    skipped = _solver_result(a_rl, a_rl, evaluations=0)
    assert checks.solver_call_violations(a_rl, cov, 1.0, 300, skipped)
    wrong_ctrl = SimpleNamespace(a_final=np.array([0.2, 0.8]), a_ctrl=np.zeros(2), evaluations=300)
    assert checks.solver_call_violations(a_rl, cov, 1.0, 300, wrong_ctrl)


def test_step_growth_check():
    closes = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0]])
    a = np.array([0.5, 0.5])
    steps = [(1, 0, a, 1.5), (1, 1, a, 1.5 * (1.0 - 0.1 / 6.0))]
    assert checks.step_growth_violations(steps, {1: (closes, 0.1)}) == []
    no_cost = [(1, 0, a, 1.5), (1, 1, a, 1.5)]
    assert len(checks.step_growth_violations(no_cost, {1: (closes, 0.1)})) == 1

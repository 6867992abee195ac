"""Output checks written apart from the program.

Nothing here imports ``portagents``: every figure the program reports is
recomputed from what it emitted (equity curves, risk curves) or from the
prices it was given, with plain numpy and scipy.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9  # summation order may differ from the program's; the maths may not
SIMPLEX_ATOL = 1e-9


def close(a: float, b: float, rtol: float = RTOL, atol: float = 1e-15) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def daily_returns(curve) -> np.ndarray:
    c = np.asarray(curve, dtype=np.float64)
    return c[1:] / c[:-1] - 1.0


def annual_return(curve, days_per_year: int = 252) -> float:
    c = np.asarray(curve, dtype=np.float64)
    return float((c[-1] / c[0]) ** (days_per_year / (c.size - 1)) - 1.0)


def max_drawdown(curve) -> float:
    c = np.asarray(curve, dtype=np.float64)
    peak = np.maximum.accumulate(c)
    return float(np.max((peak - c) / peak))


def volatility(returns, days_per_year: int = 252) -> float:
    """Annualised population standard deviation of daily returns."""
    r = np.asarray(returns, dtype=np.float64)
    return float(math.sqrt(days_per_year * np.var(r)))


def sharpe(ar: float, vol: float, risk_free_rate: float = 0.0) -> float:
    return (ar - risk_free_rate) / vol if vol > 0.0 else 0.0


def row_violations(row: dict, equity, risk, c0: float, days_per_year: int = 252) -> list[str]:
    """Compare one comparison row with figures recomputed from its curves.

    ``equity`` is the emitted curve, which leaves out the starting capital.
    """
    curve = np.concatenate([[c0], np.asarray(equity, dtype=np.float64)])
    ar = annual_return(curve, days_per_year)
    vol = volatility(daily_returns(curve), days_per_year)
    expected = {
        "ar": ar,
        "mdd": max_drawdown(curve),
        "vol": vol,
        "sharpe": sharpe(ar, vol),
        "risk": float(np.mean(risk)),
    }
    bad = [
        f"{row['strategy']}.{key} {row[key]!r} != recomputed {value!r}"
        for key, value in expected.items()
        if not close(row[key], value)
    ]
    if row["t_days"] != curve.size - 1:
        bad.append(f"{row['strategy']}.t_days {row['t_days']} != {curve.size - 1} steps")
    return bad


def rank_sum_p(sample, reference) -> float:
    """Two-sided rank-sum p with tie and continuity corrections (normal approximation)."""
    from scipy.stats import mannwhitneyu

    return float(
        mannwhitneyu(sample, reference, alternative="two-sided", method="asymptotic", use_continuity=True).pvalue
    )


def comparison_violations(report: dict, c0: float) -> list[str]:
    """Rows against their curves, p-values against a separate rank-sum test."""
    bad = []
    curves = report["curves"]
    for row in report["rows"]:
        name = row["strategy"]
        bad += row_violations(row, curves[name]["equity"], curves[name]["risk"], c0)
    reference = report["reference"]
    ref_returns = daily_returns(np.concatenate([[c0], curves[reference]["equity"]]))
    for name, p in report["p_values"].items():
        returns = daily_returns(np.concatenate([[c0], curves[name]["equity"]]))
        expected = rank_sum_p(returns, ref_returns)
        if not close(p, expected):
            bad.append(f"p[{name}] {p!r} != mannwhitneyu {expected!r}")
    if report["p_values"].get(reference) != 1.0:
        bad.append(f"reference {reference} p is {report['p_values'].get(reference)!r}, not 1")
    return bad


def plotdata_violations(text: str, report: dict) -> list[str]:
    """The plot CSV must carry exactly the JSON report's curves."""
    expected = {}
    for name, kinds in report["curves"].items():
        for kind, values in kinds.items():
            for day, value in enumerate(values, start=1):
                expected[(f"{name}/{kind}", day)] = value
    lines = text.splitlines()
    if lines[0] != "series,day,value":
        return [f"plotdata header {lines[0]!r}"]
    seen = {}
    for line in lines[1:]:
        series, day, value = line.rsplit(",", 2)
        seen[(series, int(day))] = float(value)
    if seen != expected:
        return [f"plotdata holds {len(seen)} points that differ from the JSON curves ({len(expected)})"]
    return []


def csv_violations(text: str, report: dict) -> list[str]:
    """The comparison CSV must carry exactly the JSON report's rows."""
    rows = {r["strategy"]: r for r in report["rows"]}
    lines = text.splitlines()
    bad = [] if lines[0] == "strategy,ar,mdd,sharpe,risk" else [f"csv header {lines[0]!r}"]
    for line in lines[1:]:
        name, *values = line.split(",")
        row = rows.pop(name, None)
        if row is None or [float(v) for v in values] != [row[k] for k in ("ar", "mdd", "sharpe", "risk")]:
            bad.append(f"csv row {name} differs from the JSON report")
    return bad + [f"csv lacks row {name}" for name in rows]


def same_curve(emitted, expected, rtol: float = RTOL) -> bool:
    emitted = np.asarray(emitted, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return emitted.shape == expected.shape and bool(np.allclose(emitted, expected, rtol=rtol, atol=0.0))


def test_start(n_days: int, splits, window: int, cov_window: int) -> tuple[int, int]:
    """First and last day of a backtest on the test split.

    The split is chronological: the test part starts at day
    int(n_days * (train + val)); a pass starts once both the observation
    window and the covariance window are full and ends one day before the
    split's end, since each step earns the next day's relatives.
    """
    seg_start = int(n_days * (splits[0] + splits[1]))
    return max(seg_start, window, cov_window + 1), n_days - 1


def crp_replay(close_prices, start: int, end: int, c_tx: float, c0: float = 1.0) -> np.ndarray:
    """Equity of uniform weights rebalanced daily from ``start`` to ``end``.

    Each day pays ``c_tx`` per unit of half-turnover from the holdings the
    previous day's prices drifted to; the curve starts at ``c0``.
    """
    close_prices = np.asarray(close_prices, dtype=np.float64)
    n = close_prices.shape[1]
    b = np.full(n, 1.0 / n)
    holdings = b.copy()
    equity = [c0]
    for day in range(start, end):
        x = close_prices[day + 1] / close_prices[day]
        turnover = 0.5 * np.abs(b - holdings).sum()
        gross = float(b @ x)
        equity.append(equity[-1] * (1.0 - c_tx * turnover) * gross)
        holdings = b * x / gross
    return np.asarray(equity)


def solver_call_violations(a_rl, cov, sigma_s: float, budget: int, result) -> list[str]:
    """Properties every `propose_control` result must have."""
    a_final = np.asarray(result.a_final, dtype=np.float64)
    a_ctrl = np.asarray(result.a_ctrl, dtype=np.float64)
    bad = []
    if not np.all(a_final >= 0.0):
        bad.append(f"a_final has a negative weight {a_final.min()!r}")
    if abs(a_final.sum() - 1.0) > SIMPLEX_ATOL:
        bad.append(f"a_final sums to {a_final.sum()!r}")
    risk_rl = float(np.linalg.norm(cov @ a_rl))
    risk_final = float(np.linalg.norm(cov @ a_final))
    if risk_final > risk_rl * (1.0 + RTOL) + 1e-15:
        bad.append(f"risk rose from {risk_rl!r} to {risk_final!r}")
    if result.evaluations > budget:
        bad.append(f"{result.evaluations} evaluations over budget {budget}")
    if not np.array_equal(a_ctrl, a_final - a_rl):
        bad.append("a_ctrl != a_final - a_rl")
    if risk_rl <= sigma_s * (1.0 - RTOL) and (np.any(a_ctrl != 0.0) or result.evaluations):
        bad.append("a_rl inside sigma_s but a_ctrl is not exactly 0")
    if risk_rl > sigma_s * (1.0 + RTOL) and not result.evaluations:
        bad.append("a_rl outside sigma_s but the search did not run")
    return bad


def step_growth_violations(steps, closes) -> list[str]:
    """Every env step's growth against (1 - c_tx * turnover) * (a . x).

    ``steps`` holds (pass id, day, action, growth) in call order; each pass
    starts from uniform holdings, which then drift with the prices.
    """
    bad = []
    holdings = {}
    for pass_id, day, a, growth in steps:
        close_prices, c_tx = closes[pass_id]
        h = holdings.get(pass_id)
        if h is None:
            h = np.full(a.size, 1.0 / a.size)
        x = close_prices[day + 1] / close_prices[day]
        turnover = 0.5 * np.abs(a - h).sum()
        gross = float(a @ x)
        expected = (1.0 - c_tx * turnover) * gross
        if not close(growth, expected, rtol=1e-12):
            bad.append(f"pass {pass_id} day {day}: growth {growth!r} != {expected!r}")
        holdings[pass_id] = a * x / gross
    return bad


def sharpe_violations(report: dict) -> list[str]:
    """A backtest report carries no curve; its figures must still agree."""
    bad = []
    if not close(report["sharpe"], sharpe(report["ar"], report["vol"])):
        bad.append(f"sharpe {report['sharpe']!r} != ar/vol")
    if not 0.0 <= report["mdd"] < 1.0:
        bad.append(f"mdd {report['mdd']!r} outside [0, 1)")
    if not report["risk"] >= 0.0:
        bad.append(f"risk {report['risk']!r} negative")
    return bad

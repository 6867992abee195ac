"""Baseline portfolio rules: frozen hand cases plus driver-level invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from portagents import baselines
from portagents.baselines import (
    LOG_WEALTH_MAX_STEPS,
    LOG_WEALTH_TOL,
    REGISTRY,
    corn_weights,
    crp_weights,
    eg_update,
    l1_median,
    log_wealth_weights,
    make_strategy,
    olmar_predict,
    olmar_update,
    pamr_update,
    rmr_update,
)
from portagents.errors import DimensionMismatch, InsufficientHistory, NonFiniteInput, NonPositiveGrowth
from portagents.metrics import check_weights, uniform_weights


def test_crp_uniform():
    np.testing.assert_allclose(crp_weights(4), np.full(4, 0.25))


# -- EG ------------------------------------------------------------------------


def test_eg_zero_eta_is_identity():
    w = np.array([0.3, 0.7])
    np.testing.assert_allclose(eg_update(w, [1.3, 0.7], eta=0.0), w)


def test_eg_equal_relatives_is_identity():
    w = np.array([0.2, 0.8])
    np.testing.assert_allclose(eg_update(w, [1.05, 1.05], eta=0.1), w, atol=1e-15)


def test_eg_hand_case():
    # w=[.5,.5], x=[1.2,.8], eta=.05: growth=1, factors e^{.06}, e^{.04}
    out = eg_update([0.5, 0.5], [1.2, 0.8], eta=0.05)
    e6, e4 = np.exp(0.06), np.exp(0.04)
    np.testing.assert_allclose(out, [e6 / (e6 + e4), e4 / (e6 + e4)], atol=1e-12)
    assert out[0] == pytest.approx(0.505, abs=1e-3)


def test_eg_tilts_toward_winner():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.dirichlet(np.ones(4))
        x = rng.uniform(0.8, 1.2, size=4)
        out = eg_update(w, x, eta=0.1)
        check_weights(out)
        hi, lo = int(np.argmax(x)), int(np.argmin(x))
        assert out[hi] / w[hi] >= out[lo] / w[lo]


# -- OLMAR ----------------------------------------------------------------------


def test_olmar_predict_hand_case():
    x_hat = olmar_predict([[1.2, 0.8], [1.0, 1.0]])
    np.testing.assert_allclose(x_hat, [1.1, 0.9])


def test_olmar_hand_case():
    # x_hat [1.1,.9], margin 1.01: lambda = (1.01-1)/0.02 = 0.5
    out = olmar_update([0.5, 0.5], [[1.2, 0.8], [1.0, 1.0]], epsilon=1.01)
    np.testing.assert_allclose(out, [0.55, 0.45], atol=1e-12)


def test_olmar_inactive_when_margin_met():
    # expected growth 1.0 already clears epsilon 0.9: no move
    out = olmar_update([0.5, 0.5], [[1.2, 0.8], [1.0, 1.0]], epsilon=0.9)
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_olmar_constant_prediction_no_move():
    out = olmar_update([0.25, 0.75], [[1.0, 1.0], [1.0, 1.0]], epsilon=2.0)
    np.testing.assert_allclose(out, [0.25, 0.75])


# -- PAMR -----------------------------------------------------------------------


def test_pamr_passive_branch():
    out = pamr_update([0.5, 0.5], [1.2, 0.8], epsilon=1.5)
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_pamr_hand_case():
    # loss = 1 - .95 = .05, denom = .08, tau = .625
    out = pamr_update([0.5, 0.5], [1.2, 0.8], epsilon=0.95)
    np.testing.assert_allclose(out, [0.375, 0.625], atol=1e-12)


def test_pamr_moves_away_from_winner():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.dirichlet(np.ones(3))
        x = rng.uniform(0.9, 1.3, size=3)
        out = pamr_update(w, x, epsilon=0.5)
        check_weights(out)
        assert float(out @ x) <= float(w @ x) + 1e-9


# -- RMR / L1 median ---------------------------------------------------------------


def test_l1_median_identical_points():
    pts = np.tile([1.5, 2.5], (6, 1))
    np.testing.assert_allclose(l1_median(pts), [1.5, 2.5])


def test_l1_median_collinear_is_middle_point():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [10.0, 10.0]])
    np.testing.assert_allclose(l1_median(pts), [2.0, 2.0], atol=1e-6)


def test_l1_median_beats_candidate_centers():
    # output must not lose to the centroid or any input point
    rng = np.random.default_rng(2)
    for _ in range(25):
        pts = rng.normal(size=(9, 3))
        y = l1_median(pts)
        obj = np.linalg.norm(pts - y, axis=1).sum()
        for cand in [pts.mean(axis=0), *pts]:
            assert obj <= np.linalg.norm(pts - cand, axis=1).sum() + 1e-6


def test_rmr_identical_rows_matches_olmar_direction():
    # with an outlier-free window RMR and OLMAR predict the same reversion
    window = [[1.2, 0.8], [1.2, 0.8], [1.0, 1.0]]
    out = rmr_update([0.5, 0.5], window, epsilon=1.01)
    check_weights(out)
    assert out[0] > 0.5  # median price of asset A above its last price


def test_rmr_requires_two_rows():
    with pytest.raises(InsufficientHistory):
        rmr_update([1.0], [[1.0]], epsilon=1.0)


# -- CORN ---------------------------------------------------------------------------


def test_log_wealth_single_day_goes_all_in():
    out = log_wealth_weights([[2.0, 1.0]])
    assert out[0] == pytest.approx(1.0, abs=1e-3)


def test_log_wealth_symmetric_set_stays_uniform():
    out = log_wealth_weights([[1.1, 0.9], [0.9, 1.1]])
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-9)


def test_corn_no_match_is_uniform():
    history = np.ones((7, 2))  # constant windows are skipped
    history[-1] = [1.04, 0.96]
    np.testing.assert_allclose(corn_weights(history, window=1), [0.5, 0.5])


def test_corn_single_match_goes_all_in():
    # only day 0 correlates with the current window; its follow day is [2,1]
    history = np.array([[0.95, 1.05], [2.0, 1.0], [0.96, 1.04]])
    out = corn_weights(history, window=1, rho=0.5)
    assert out[0] == pytest.approx(1.0, abs=1e-3)


def test_corn_symmetric_under_asset_permutation():
    rng = np.random.default_rng(3)
    history = rng.uniform(0.9, 1.1, size=(30, 3))
    perm = [2, 0, 1]
    base = corn_weights(history, window=3, rho=0.2)
    permuted = corn_weights(history[:, perm], window=3, rho=0.2)
    np.testing.assert_allclose(permuted, base[perm], atol=1e-9)


def test_corn_insufficient_history():
    with pytest.raises(InsufficientHistory):
        corn_weights(np.ones((4, 2)), window=2)


# -- CORN against the per-window reference ---------------------------------------
#
# The functions below are the original per-window CORN scan, kept verbatim as
# the oracle of the batched scan: both hand their matched set to the package's
# log-optimal solve, so they must return the same bytes. The original solve
# (500 projected-gradient steps) and the projection it called are kept as the
# floor that the certified solve must reach.


def simplex_repair_reference(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort + threshold)."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("cannot project a non-finite vector")
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.maximum(x - tau, 0.0)


def log_wealth_weights_reference(relatives_set, iterations: int = 500, step: float = 0.1) -> np.ndarray:
    """Maximise sum log(b.x) over the simplex by projected gradient ascent."""
    x = np.asarray(relatives_set, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InsufficientHistory("need a (m, N) set of relatives")
    b = uniform_weights(x.shape[1])
    for _ in range(iterations):
        growth = x @ b
        grad = (x / growth[:, None]).sum(axis=0) / x.shape[0]
        b = simplex_repair_reference(b + step * grad)
    return b


def corn_weights_reference(relatives_history, window: int = 5, rho: float = 0.1) -> np.ndarray:
    """Correlation-driven selection: find past windows correlated with the
    current one (>= rho), then bet the log-optimal portfolio over the days
    that followed them. Uniform when nothing matches."""
    x = np.asarray(relatives_history, dtype=np.float64)
    t, n = x.shape
    if t < 2 * window + 1:
        raise InsufficientHistory(f"need at least {2 * window + 1} days, got {t}")
    current = x[-window:].ravel()
    matches = []
    for end in range(window, t - window + 1):
        past = x[end - window : end].ravel()
        sd_p, sd_c = past.std(), current.std()
        if sd_p < 1e-12 or sd_c < 1e-12:
            continue
        corr = float(np.corrcoef(past, current)[0, 1])
        if corr >= rho:
            matches.append(x[end])  # the day that followed the matched window
    if not matches:
        return uniform_weights(n)
    return log_wealth_weights(np.stack(matches))


def no_runtime_warnings(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return fn(*args, **kwargs)


@st.composite
def corn_cases(draw):
    """A history with, by turns, nothing planted, a constant window (the std
    guard) or an exact copy of the current window (corr = 1), and a rho that
    is often an edge value."""
    n = draw(st.integers(1, 6))
    window = draw(st.integers(1, 5))
    t = draw(st.integers(2 * window + 1, 2 * window + 25))
    x = draw(arrays(np.float64, (t, n), elements=st.floats(0.5, 1.5)))
    planted = draw(st.sampled_from(["none", "constant", "repeat"]))
    s = draw(st.integers(0, t - 2 * window))
    if planted == "constant":
        x[s : s + window] = draw(st.floats(0.5, 1.5))
    elif planted == "repeat":
        x[s : s + window] = x[-window:]
    rho = draw(st.sampled_from([-1.0, 0.0, 0.1, 1.0]) | st.floats(-1.0, 1.0))
    return x, window, rho


@settings(max_examples=300, deadline=None)
@given(corn_cases())
def test_corn_bit_identical_to_reference(case):
    x, window, rho = case
    got = no_runtime_warnings(corn_weights, x, window=window, rho=rho)
    assert got.tobytes() == corn_weights_reference(x, window=window, rho=rho).tobytes()


def test_corn_planted_cases_hit_each_branch():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.9, 1.1, size=(12, 3))
    x[-2:] = x[2:4]  # the current window repeats the window that ends on day 3
    repeat = corn_weights(x, window=2, rho=1.0)
    assert repeat.tobytes() == corn_weights_reference(x, window=2, rho=1.0).tobytes()
    assert not np.array_equal(repeat, uniform_weights(3))  # corr = 1 matched at rho = 1
    constant = np.ones((12, 3))
    constant[-1] = [1.1, 0.9, 1.0]
    got = no_runtime_warnings(corn_weights, constant, window=2, rho=-1.0)
    assert got.tobytes() == uniform_weights(3).tobytes()  # every past window is constant


def test_corn_rows_at_rho_decided_as_the_reference():
    # The batched correlations differ from np.corrcoef's in the last bits on
    # most rows, so a rho equal to (or one ulp above) a row's np.corrcoef value
    # tells the two apart unless rows that close to rho are decided exactly.
    rng = np.random.default_rng(8)
    x = rng.uniform(0.9, 1.1, size=(20, 4))
    current = x[-3:].ravel()
    for end in range(3, 18, 2):
        exact = float(np.corrcoef(x[end - 3 : end].ravel(), current)[0, 1])
        for rho in (exact, np.nextafter(exact, 2.0)):
            got = corn_weights(x, window=3, rho=rho)
            assert got.tobytes() == corn_weights_reference(x, window=3, rho=rho).tobytes(), (end, rho)


def log_wealth(x, b) -> float:
    """mean_t log(x_t . b), the objective of the log-optimal solve."""
    return float(np.log(x @ b).mean())


def certificate(x, b) -> float:
    """log max_i g_i with g = mean_t x_t / (x_t . b): an upper bound on how
    far log_wealth(x, b) is below the optimum over the simplex."""
    return float(np.log((x / (x @ b)[:, None]).mean(axis=0).max()))


@st.composite
def relatives_sets(draw):
    """A (m, N) set of relatives up to 40 x 8: plain, with a column that
    repeats another (the optimum is not unique), or with one asset that beats
    every other on every day (the optimum is that asset alone)."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    x = draw(arrays(np.float64, (m, n), elements=st.floats(0.5, 1.5)))
    kind = draw(st.sampled_from(["plain", "duplicate", "dominant"]))
    j = draw(st.integers(0, n - 1))
    if kind == "duplicate":
        x[:, j] = x[:, draw(st.integers(0, n - 1))]
    elif kind == "dominant":
        x[:, j] = 1.1 * x.max(axis=1)
    return x


@settings(max_examples=150, deadline=None)
@given(relatives_sets())
@example(np.array([[1.3, 0.7, 1.1]]))  # m = 1
@example(np.array([[1.2, 0.9, 1.0, 1.1, 0.8], [0.9, 1.2, 1.0, 1.05, 1.1]]))  # m < N
@example(np.array([[1.2, 1.2, 0.9], [0.8, 0.8, 1.1], [1.1, 1.1, 1.0]]))  # a duplicated column
@example(np.array([[1.3, 1.0, 0.9], [1.2, 1.1, 1.0], [1.25, 0.7, 1.2]]))  # one dominant asset
def test_log_wealth_certified_and_no_worse_than_reference(x):
    # only the objective is compared: with m < N or a duplicated column, many
    # weight vectors reach the optimum
    got = no_runtime_warnings(log_wealth_weights, x)
    check_weights(got)
    assert certificate(x, got) <= LOG_WEALTH_TOL
    assert log_wealth(x, got) >= log_wealth(x, log_wealth_weights_reference(x)) - 1e-12


def test_corn_driver_bit_identical_at_wide_shape(monkeypatch):
    # 20 correlated assets over 300 days, as in the 20-asset benchmark's test
    # pass. Every log-optimal solve must stop on its certificate within the
    # step cap: a slower solve shows here as a count, not as a time.
    solves = []
    newton = baselines._log_wealth_newton

    def counted(x):
        b, steps = newton(x)
        solves.append((steps, certificate(x, b)))
        return b, steps

    monkeypatch.setattr(baselines, "_log_wealth_newton", counted)
    rng = np.random.default_rng(101)
    corr = np.full((20, 20), 0.3)
    np.fill_diagonal(corr, 1.0)
    z = rng.standard_normal((300, 20)) @ np.linalg.cholesky(corr).T
    relatives = np.exp(rng.uniform(0.007, 0.014, 20) * z)
    s = make_strategy("corn")
    weights = uniform_weights(20)
    for day in range(1, len(relatives) + 1):
        weights = no_runtime_warnings(s.step, weights, relatives[:day])
        if day >= 11:
            assert weights.tobytes() == corn_weights_reference(relatives[:day]).tobytes(), day
    assert solves
    for steps, cert in solves:
        assert steps < LOG_WEALTH_MAX_STEPS and cert <= LOG_WEALTH_TOL, (steps, cert)


def test_log_wealth_rejects_non_finite():
    with pytest.raises(NonFiniteInput):
        log_wealth_weights([[1.0, np.nan]])


def test_log_wealth_rejects_non_positive():
    # log(x . b) is not defined for every b of the simplex
    for bad in (0.0, -0.5):
        with pytest.raises(NonPositiveGrowth):
            log_wealth_weights([[1.0, 1.1], [bad, 0.9]])


# -- strategy rules -----------------------------------------------------------------


def run_rule(rule, relatives):
    """One pass of a rule over the rows of ``relatives``: its (weights,
    history, output) per day, each output fed back as the next day's weights."""
    history = np.array(relatives, dtype=np.float64)
    history.setflags(write=False)
    weights = uniform_weights(history.shape[1])
    calls = []
    for day in range(1, len(history) + 1):
        out = rule.step(weights, history[:day])
        calls.append((weights.copy(), history[:day], out.copy()))
        weights = out
    return calls


def test_drivers_warmup_uniform():
    for name in ("olmar", "rmr", "corn"):
        s = make_strategy(name, window=4)
        out = s.step(uniform_weights(3), np.array([[1.2, 0.9, 1.0]]))
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0))


def test_drivers_emit_valid_weights_on_random_streams():
    rng = np.random.default_rng(4)
    relatives = rng.uniform(0.85, 1.15, size=(60, 4))
    for name in sorted(REGISTRY):
        for _, _, out in run_rule(make_strategy(name), relatives):
            check_weights(out)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_rules_are_stateless(name):
    # a rule's output depends on its arguments alone: replaying a pass's calls
    # backwards on one fresh instance gives the same bytes, day by day
    relatives = np.random.default_rng(12).uniform(0.85, 1.15, size=(40, 4))
    calls = run_rule(make_strategy(name), relatives)
    fresh = make_strategy(name)
    for weights, history, out in reversed(calls):
        assert fresh.step(weights, history).tobytes() == out.tobytes(), len(history)


def test_make_strategy_params_and_unknown():
    s = make_strategy("eg", eta=0.2)
    assert s.eta == 0.2
    with pytest.raises(KeyError):
        make_strategy("ucrp")


def test_registry_names():
    assert sorted(REGISTRY) == ["corn", "crp", "eg", "olmar", "pamr", "rmr"]

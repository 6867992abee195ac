"""Trading environment: observations, rebalance costs, capital compounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portagents.env import (
    TradingEnv,
    build_observation,
    drifted_holdings,
    observation_dim,
)
from portagents.errors import EpisodeFinished, InvalidAction, SeriesTooShort
from helpers import relatives_window, series_from_close


def two_asset_series(n_days=20, a_growth=1.0, b_growth=1.0):
    close = np.empty((n_days, 2))
    close[:, 0] = 100.0 * a_growth ** np.arange(n_days)
    close[:, 1] = 50.0 * b_growth ** np.arange(n_days)
    return series_from_close(close)


def test_observation_layout():
    series = two_asset_series()
    env = TradingEnv(series, window=3)
    obs = env.reset()
    assert obs.vector.shape == (observation_dim(3, 2),)
    assert obs.vector.size == 11  # 3*2 relatives + 2 holdings + 3 features
    assert relatives_window(obs).shape == (3, 2)
    np.testing.assert_allclose(obs.holdings(), [0.5, 0.5])
    np.testing.assert_array_equal(obs.vector[-3:], np.zeros(3))


def test_observation_window_content():
    close = np.array([[100.0], [110.0], [121.0], [133.1], [150.0]])
    series = series_from_close(close)
    obs = build_observation(series, day=3, window=2)
    np.testing.assert_allclose(relatives_window(obs).ravel(), [1.1, 1.1])
    assert relatives_window(obs)[-1, 0] == pytest.approx(1.1)


def test_build_observation_bounds():
    series = two_asset_series(n_days=10)
    with pytest.raises(SeriesTooShort):
        build_observation(series, day=2, window=3)
    with pytest.raises(SeriesTooShort):
        build_observation(series, day=10, window=3)


def test_reset_state_and_determinism():
    series = two_asset_series()
    env = TradingEnv(series, window=4, c0=250.0)
    a = env.reset()
    assert env.state.day == 4
    assert env.state.capital == pytest.approx(250.0)
    env.step(np.array([1.0, 0.0]))
    b = env.reset()
    np.testing.assert_array_equal(a.vector, b.vector)


def test_step_growth_doubling_asset():
    series = two_asset_series(a_growth=2.0)
    env = TradingEnv(series, window=2)
    env.reset()
    _, growth, _ = env.step(np.array([1.0, 0.0]))
    assert growth == pytest.approx(2.0)


def test_step_growth_flat_market():
    series = two_asset_series()
    env = TradingEnv(series, window=2)
    env.reset()
    _, growth, _ = env.step(np.array([0.3, 0.7]))
    assert growth == pytest.approx(1.0)


def test_step_cost_full_rotation():
    # flat prices; rotating the full book out and back in costs c_tx
    series = two_asset_series()
    env = TradingEnv(series, window=2, c_tx=0.001)
    env.reset()
    _, g1, _ = env.step(np.array([1.0, 0.0]))  # half-turnover 0.5 from uniform
    assert g1 == pytest.approx(0.9995)
    _, g2, _ = env.step(np.array([0.0, 1.0]))  # full rotation
    assert g2 == pytest.approx(0.999)


def test_drifted_holdings_hand_case():
    out = drifted_holdings([0.5, 0.5], [2.0, 1.0])
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0])


def test_holdings_drift_after_step():
    series = two_asset_series(a_growth=2.0)
    env = TradingEnv(series, window=2)
    env.reset()
    env.step(np.array([0.5, 0.5]))
    np.testing.assert_allclose(env.state.holdings, [2.0 / 3.0, 1.0 / 3.0])


def test_capital_compounds_product_of_growths():
    rng = np.random.default_rng(7)
    close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(40, 3)), axis=0))
    env = TradingEnv(series_from_close(close), window=5, c0=10.0)
    env.reset()
    growths = []
    done = False
    while not done:
        raw = rng.random(3)
        _, g, done = env.step(raw / raw.sum())
        growths.append(g)
    assert len(growths) == env.n_steps
    assert env.state.capital == pytest.approx(10.0 * np.prod(growths), rel=1e-9)


def test_episode_finished_semantics():
    series = two_asset_series(n_days=6)
    env = TradingEnv(series, window=2)
    with pytest.raises(EpisodeFinished):
        env.observe()  # before reset
    env.reset()
    done = False
    while not done:
        _, _, done = env.step(np.array([0.5, 0.5]))
    with pytest.raises(EpisodeFinished):
        env.step(np.array([0.5, 0.5]))


def test_invalid_actions_rejected():
    env = TradingEnv(two_asset_series(), window=2)
    env.reset()
    with pytest.raises(InvalidAction):
        env.step(np.array([0.8, 0.8]))
    with pytest.raises(InvalidAction):
        env.step(np.array([-0.2, 1.2]))


def test_market_features_flow_into_observation():
    # the features handed to a step appear in the observation it returns;
    # a step without features gives zeros
    env = TradingEnv(two_asset_series(a_growth=1.01, b_growth=0.99), window=2)
    env.reset()
    obs, _, _ = env.step(np.array([0.5, 0.5]), np.array([1.0, 0.02, -0.5]))
    np.testing.assert_array_equal(obs.vector[-3:], [1.0, 0.02, -0.5])
    obs, _, _ = env.step(np.array([0.5, 0.5]))
    np.testing.assert_array_equal(obs.vector[-3:], np.zeros(3))
    # a wrong shape is refused before the step changes any state
    env.step(np.array([0.9, 0.1]))
    day, capital, holdings, done = env.state.day, env.state.capital, env.state.holdings.copy(), env.state.done
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], np.zeros(4)):
        with pytest.raises(ValueError):
            env.step(np.array([0.2, 0.8]), bad)
        assert (env.state.day, env.state.capital, env.state.done) == (day, capital, done)
        np.testing.assert_array_equal(env.state.holdings, holdings)


def test_reset_clears_market_features():
    env = TradingEnv(two_asset_series(), window=2)
    np.testing.assert_array_equal(env.reset().vector[-3:], np.zeros(3))
    obs, _, _ = env.step(np.array([0.5, 0.5]), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(obs.vector[-3:], np.ones(3))
    obs = env.reset()
    np.testing.assert_array_equal(obs.vector[-3:], np.zeros(3))


def test_constructor_bounds():
    series = two_asset_series(n_days=8)
    with pytest.raises(SeriesTooShort):
        TradingEnv(series, window=7)
    with pytest.raises(SeriesTooShort):
        TradingEnv(series, window=2, start_day=1)
    with pytest.raises(SeriesTooShort):
        TradingEnv(series, window=2, start_day=5, end_day=5)
    with pytest.raises(ValueError):
        TradingEnv(series, window=2, c_tx=1.0)
    with pytest.raises(ValueError):
        TradingEnv(series, window=2, c0=0.0)


def test_segment_bounds_respected():
    series = two_asset_series(n_days=30)
    env = TradingEnv(series, window=3, start_day=10, end_day=15)
    env.reset()
    assert env.state.day == 10
    assert env.n_steps == 5
    steps = 0
    done = False
    while not done:
        _, _, done = env.step(np.array([0.5, 0.5]))
        steps += 1
    assert steps == 5
    assert env.state.day == 15


@settings(max_examples=60, deadline=None)
@given(
    n_assets=st.integers(1, 4),
    n_days=st.integers(5, 20),
    c_tx=st.floats(0.0, 0.5),
    c0=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_capital_identity(n_assets, n_days, c_tx, c0, seed):
    # growth_t = (1 - c_tx * 1/2 |a_t - h_t|_1) * (a_t . x_t), with h_t the
    # holdings drifted from the last step, and capital = c0 * prod growth
    rng = np.random.default_rng(seed)
    close = 100.0 * np.cumprod(rng.uniform(0.8, 1.25, size=(n_days, n_assets)), axis=0)
    env = TradingEnv(series_from_close(close), window=2, c_tx=c_tx, c0=c0)
    env.reset()
    holdings = np.full(n_assets, 1.0 / n_assets)
    capital = c0
    done = False
    while not done:
        x = close[env.state.day + 1] / close[env.state.day]
        a = rng.dirichlet(np.ones(n_assets))
        _, growth, done = env.step(a)
        want = (1.0 - c_tx * 0.5 * np.abs(a - holdings).sum()) * float(a @ x)
        assert growth == pytest.approx(want, rel=1e-12)
        capital *= growth
        holdings = a * x / float(a @ x)
    assert env.state.capital == pytest.approx(capital, rel=1e-12)

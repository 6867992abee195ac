"""Market observer: DC event detection, risk signals, updates from relatives."""

import copy
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import relatives_window
from portagents.env import build_observation, observation_dim
from portagents import nn
from portagents.errors import ConfigError, EmptyBatch, InsufficientHistory
from portagents.config import EnvBlock, RunConfig
from portagents.harness import _env_for_segment, backtest, split_indices, train
from portagents.market_data import Regime, synth_generate
from portagents.observer import (
    DcObserver,
    MlpObserver,
    ObserverConfig,
    dc_detect,
    make_observer,
)
from portagents.rl import Td3Agent
from test_acceptance import PIPELINE_CONFIG
from test_nn import ArrayNet, ListAdamState, flatten, list_adam_step, list_backward


class FakeObs:
    """Minimal observation stub: only latest_relatives() is consumed by the
    records-based oracle below."""

    def __init__(self, rel):
        self._rel = np.atleast_1d(np.asarray(rel, dtype=np.float64))

    def latest_relatives(self):
        return self._rel


def relatives_from_prices(prices):
    """One-asset (k, 1) relatives of a price path."""
    p = np.asarray(prices, dtype=np.float64)
    return (p[1:] / p[:-1])[:, None]


# -- dc_detect -------------------------------------------------------------------


def test_dc_constant_prices_no_events():
    assert dc_detect(np.full(50, 100.0), theta=0.01) == []


def test_dc_monotone_rise_single_upturn():
    prices = 100.0 * 1.02 ** np.arange(30)
    events = dc_detect(prices, theta=0.01)
    assert len(events) == 1
    assert events[0].kind == "upturn"


def test_dc_hand_trace():
    events = dc_detect([100.0, 103.0, 100.0, 104.0], theta=0.02)
    kinds = [(e.kind, e.confirm_index, e.extreme_index) for e in events]
    assert kinds == [("upturn", 1, 0), ("downturn", 2, 1), ("upturn", 3, 2)]
    assert events[0].magnitude == pytest.approx(0.03)
    assert events[1].magnitude == pytest.approx(1.0 - 100.0 / 103.0)
    assert events[2].magnitude == pytest.approx(0.04)


def test_dc_events_alternate_and_exceed_threshold():
    rng = np.random.default_rng(0)
    for _ in range(100):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=200)))
        theta = float(rng.uniform(0.005, 0.05))
        events = dc_detect(prices, theta)
        for a, b in zip(events, events[1:]):
            assert a.kind != b.kind
            assert a.confirm_index < b.confirm_index
        for e in events:
            assert e.magnitude >= theta - 1e-12
            assert e.extreme_index <= e.confirm_index


def test_dc_scale_invariant():
    rng = np.random.default_rng(1)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=300)))
    base = dc_detect(prices, 0.01)
    scaled = dc_detect(prices * 73.1, 0.01)
    assert [(e.kind, e.confirm_index, e.extreme_index) for e in base] == [
        (e.kind, e.confirm_index, e.extreme_index) for e in scaled
    ]


def test_dc_input_validation():
    with pytest.raises(InsufficientHistory):
        dc_detect([100.0], 0.01)
    with pytest.raises(ValueError):
        dc_detect([100.0, -1.0], 0.01)
    with pytest.raises(ValueError):
        dc_detect([100.0, 101.0], 0.0)


# -- DcObserver ---------------------------------------------------------------------


def dc_signal(relatives, base_risk, lookback):
    config = ObserverConfig(kind="dc", theta=0.01, base_risk=base_risk, lookback=lookback)
    return DcObserver(config).observe(relatives)


def test_observe_dc_neutral_without_events():
    signal = dc_signal(np.ones((20, 2)), base_risk=0.02, lookback=20)
    assert signal.sigma_s == pytest.approx(0.02)
    assert signal.v_m[0] == 0.0


def test_observe_dc_downturn_halves_boundary():
    prices = 100.0 * 0.995 ** np.arange(22)
    signal = dc_signal(relatives_from_prices(prices), base_risk=0.02, lookback=21)
    assert signal.v_m[0] == -1.0
    assert signal.sigma_s == pytest.approx(0.01)


def test_observe_dc_upturn_relaxes_boundary():
    prices = 100.0 * 1.005 ** np.arange(22)
    signal = dc_signal(relatives_from_prices(prices), base_risk=0.02, lookback=21)
    assert signal.v_m[0] == 1.0
    assert signal.sigma_s == pytest.approx(0.03)



def test_dc_observer_neutral_while_window_fills():
    obs = DcObserver(ObserverConfig(kind="dc", lookback=30, base_risk=0.015))
    signal = obs.observe(np.full((10, 1), 1.01))
    assert signal.sigma_s == pytest.approx(0.015)
    np.testing.assert_array_equal(signal.v_m, np.zeros(3))


def test_dc_observer_recalibrates_to_constant_risk():
    obs = DcObserver(ObserverConfig(kind="dc"))
    out = obs.update(np.ones((5, 1)), realized_risk=np.full(40, 0.007))
    assert out["updated"]
    assert obs.base_risk == pytest.approx(0.007)


def test_dc_observer_update_without_risk_is_noop():
    obs = DcObserver(ObserverConfig(kind="dc", base_risk=0.033))
    out = obs.update(np.ones((1, 1)))
    assert not out["updated"]
    assert obs.base_risk == pytest.approx(0.033)


def test_dc_observer_empty_batch_raises():
    obs = DcObserver()
    with pytest.raises(EmptyBatch):
        obs.update(np.empty((0, 1)), realized_risk=[0.01])


def test_dc_observer_quantile_recalibration():
    obs = DcObserver(ObserverConfig(kind="dc", base_risk_quantile=0.25, risk_window=8))
    risk = np.arange(1.0, 9.0) / 100.0  # trailing window [0.01..0.08]
    obs.update(np.ones((1, 1)), realized_risk=risk)
    assert obs.base_risk == pytest.approx(np.quantile(risk, 0.25))


# -- MlpObserver ---------------------------------------------------------------------


def test_mlp_observer_zero_net_emits_scaled_bias():
    config = ObserverConfig(kind="mlp", feature_window=5, scale=2.0)
    obs = MlpObserver(config, seed=0)
    for p in obs.net.params():
        p[:] = 0.0
    obs.net.layers[-1].b[:] = 0.02  # constant prediction = output bias
    signal = obs.observe(np.tile([1.01, 0.99], (5, 1)))
    assert signal.sigma_s == pytest.approx(0.04)
    assert signal.v_m[1] == pytest.approx(0.02)


def test_mlp_observer_deterministic():
    config = ObserverConfig(kind="mlp", feature_window=5)
    relatives = np.array([[1.0 + 0.002 * i, 1.0 - 0.001 * i] for i in range(5)])
    a = MlpObserver(config, seed=3).observe(relatives)
    b = MlpObserver(config, seed=3).observe(relatives)
    assert a.sigma_s == b.sigma_s
    np.testing.assert_array_equal(a.v_m, b.v_m)


def test_mlp_observer_neutral_until_window_fills():
    config = ObserverConfig(kind="mlp", feature_window=8, base_risk=0.02)
    obs = MlpObserver(config, seed=1)
    signal = obs.observe(np.ones((3, 1)))
    assert signal.sigma_s == pytest.approx(0.02)


def test_mlp_observer_loss_non_increasing_on_repeated_sample():
    config = ObserverConfig(kind="mlp", feature_window=5, lr=1e-3)
    obs = MlpObserver(config, seed=2)
    # zero the prediction head so the epoch-0 output starts far from the
    # target and the first ten epochs sit in the descent phase
    obs.net.layers[-1].w[:] = 0.0
    obs.net.layers[-1].b[:] = 0.0
    growths = 1.0 + 0.2 * np.sin(np.arange(10))
    losses = [obs.update(growths[:, None])["loss"] for _ in range(10)]
    assert all(l is not None for l in losses)
    assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_mlp_observer_learns_regime_volatility():
    # after training, predicted vol in the high-vol regime exceeds the
    # low-vol regime's prediction
    rng = np.random.default_rng(4)
    w = 10
    low = 1.0 + rng.normal(0.0, 0.003, size=150)
    high = 1.0 + rng.normal(0.0, 0.03, size=150)
    config = ObserverConfig(kind="mlp", feature_window=w, lr=5e-3)
    obs = MlpObserver(config, seed=5)
    relatives = np.concatenate([low, high])[:, None]
    for _ in range(300):
        obs.update(relatives)
    sig_low = obs.observe(low[-w:, None])
    sig_high = obs.observe(high[-w:, None])
    assert sig_high.sigma_s > sig_low.sigma_s


def test_mlp_observer_empty_batch_raises():
    obs = MlpObserver(ObserverConfig(kind="mlp"), seed=0)
    with pytest.raises(EmptyBatch):
        obs.update(np.empty((0, 1)))


# -- oracle: the MLP update as it was when it learnt from stored records ------------


@dataclass
class ObserverRecord:
    """One stored observer step: (o_prev, o_next, sigma_s_prev, v_m_prev)."""

    o_prev: object
    o_next: object
    sigma_s_prev: float
    v_m_prev: np.ndarray


def records_update(self, records, realized_risk=None) -> dict:
    """One supervised epoch on (trailing window -> next-window vol)."""
    if not len(records):
        raise EmptyBatch("observer update needs at least one record")
    growths = np.array(
        [float(np.mean(r.o_next.latest_relatives())) for r in records]
    )
    w = self.config.feature_window
    returns = growths - 1.0
    feats, targets = [], []
    for i in range(w, returns.size - w + 1):
        window = returns[i - w : i]
        feats.append(np.concatenate([window, [window.std()]]))
        targets.append(returns[i : i + w].std())
    if not feats:
        return {"loss": None, "pairs": 0}
    x = np.stack(feats)
    y = np.asarray(targets).reshape(-1, 1)
    out, tape = nn.forward(self.net, x)
    err = out - y
    loss = float(np.mean(err * err))
    grads, _ = list_backward(self.net, tape, 2.0 * err / len(feats))
    list_adam_step(self.opt, self.net.params(), grads)
    return {"loss": loss, "pairs": len(feats)}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_days=st.integers(1, 90),
    n_assets=st.integers(1, 130),
    feature_window=st.integers(1, 30),
)
def test_mlp_update_from_relatives_matches_records_oracle(seed, n_days, n_assets, feature_window):
    rng = np.random.default_rng(seed)
    relatives = rng.uniform(0.9, 1.1, size=(n_days, n_assets))
    # the first record of a pass stored the start day as both o_prev and o_next
    records = [ObserverRecord(FakeObs(relatives[0]), FakeObs(relatives[0]), 0.01, np.zeros(3))]
    records += [
        ObserverRecord(FakeObs(prev), FakeObs(row), 0.01, np.zeros(3))
        for prev, row in zip(relatives, relatives[1:])
    ]
    config = ObserverConfig(kind="mlp", feature_window=feature_window, lr=1e-2)
    new, old = MlpObserver(config, seed=seed), MlpObserver(config, seed=seed)
    # the old observer's net keeps an array per layer, with a list Adam state
    old.net = ArrayNet(old.net)
    old.opt = ListAdamState.for_params(old.net.params(), lr=config.lr)
    assert new.update(relatives) == records_update(old, records)
    assert np.array_equal(new.net.flat, flatten(old.net.params()))


# -- factory ------------------------------------------------------------------------


def test_make_observer_kinds():
    assert isinstance(make_observer(ObserverConfig(kind="dc")), DcObserver)
    assert isinstance(make_observer(ObserverConfig(kind="mlp"), seed=1), MlpObserver)
    for kind in ("none", "lstm"):
        with pytest.raises(ConfigError):
            make_observer(ObserverConfig(kind=kind))


# -- oracle: the observation history a pass kept before it handed the observer
# an array of price relatives ------------------------------------------------------


def _prefill_history(history, series, config, start_day):
    """Seed the observer window from the days before the segment start."""
    lookback = history.maxlen or 0
    first = max(config.env.window, start_day - lookback)
    for day in range(first, start_day):
        history.append(
            build_observation(series, day, config.env.window)
        )


def _index_growths(history) -> np.ndarray:
    """Per-day equal-weight index growth factors from an observation window."""
    growths = np.empty(len(history))
    for i, obs in enumerate(history):
        growths[i] = float(np.mean(relatives_window(obs)[-1]))
    return growths


class OracleCheck:
    """Stands in for a pass's observer whose first step is ``start_day``.

    Each step hands the relatives the pass gave to ``observer``, and the old
    path's index growths (a deque capped at ``lookback`` and prefilled with
    built observations) to ``twin``, an identical copy. A (k, 1) column of
    growths averages to itself, so the twin sees exactly the old growths and
    runs the unchanged signal code on them. Both signals are kept in ``pairs``.
    """

    def __init__(self, observer, series, config: RunConfig, start_day: int):
        self.observer, self.twin = observer, copy.deepcopy(observer)
        self.series, self.config, self.start_day = series, config, start_day
        self.pairs = []

    def reset(self):
        self.observer.reset()
        self.twin.reset()
        self.day = self.start_day
        self.history = deque(maxlen=self.config.observer.lookback)
        _prefill_history(self.history, self.series, self.config, self.start_day)

    def observe(self, relatives):
        self.history.append(build_observation(self.series, self.day, self.config.env.window))
        self.day += 1
        new = self.observer.observe(relatives)
        old = self.twin.observe(_index_growths(self.history)[:, None])
        self.pairs.append((new, old))
        return new


def assert_byte_equal(pairs):
    for new, old in pairs:
        assert new.sigma_s == old.sigma_s
        assert np.array_equal(new.v_m, old.v_m)


def pipeline_config(**observer):
    return RunConfig.from_dict({**PIPELINE_CONFIG, "observer": {**PIPELINE_CONFIG["observer"], **observer}})


@pytest.mark.parametrize("split", [0, 2], ids=["train-split", "test-split"])
@pytest.mark.parametrize("kind", ["dc", "mlp"])
def test_triple_pass_signals_match_oracle(kind, split):
    # the train split starts with no earlier days to prefill, the test split
    # with a full window of them
    cfg = pipeline_config(kind=kind)
    series = cfg.load_series()
    seg = split_indices(series.n_days, cfg.splits)[split]
    env = _env_for_segment(series, cfg, seg, need_risk=True)
    check = OracleCheck(make_observer(cfg.observer, seed=1), series, cfg, env.start_day)
    agent = Td3Agent(observation_dim(cfg.env.window, series.n_assets), series.n_assets, cfg.agent, seed=0)
    backtest(agent, series, cfg, seg=seg, observer=check, tier="triple")
    assert len(check.pairs) == env.end_day - env.start_day
    assert any(np.any(new.v_m != 0.0) for new, _ in check.pairs)
    assert_byte_equal(check.pairs)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_assets=st.integers(1, 130),
    vol=st.floats(0.0, 0.05),
    window=st.integers(1, 12),
    lookback=st.integers(1, 40),
    kind=st.sampled_from(["dc", "mlp"]),
    data=st.data(),
)
def test_observer_matches_oracle_on_random_markets(seed, n_assets, vol, window, lookback, kind, data):
    feature_window = data.draw(st.integers(1, lookback), label="feature_window")
    n_days = data.draw(st.integers(window + 3, 100), label="n_days")
    start_day = data.draw(st.integers(window, n_days - 2), label="start_day")
    series = synth_generate([Regime(0.0, vol, n_days, 0.3)], n_assets=n_assets, seed=seed)
    obs_cfg = ObserverConfig(kind=kind, theta=0.005, lookback=lookback, feature_window=feature_window)
    cfg = RunConfig(env=EnvBlock(window=window), observer=obs_cfg)
    check = OracleCheck(make_observer(obs_cfg, seed=seed), series, cfg, start_day)
    check.reset()
    relatives = series.relatives()
    for day in range(start_day, n_days - 1):
        check.observe(relatives[window - 1 : day])
    assert_byte_equal(check.pairs)


def test_row_mean_matches_per_row_mean_bitwise():
    rng = np.random.default_rng(0)
    for n in range(1, 131):
        rel = rng.uniform(0.9, 1.1, size=(30, n))
        per_row = np.array([float(np.mean(row)) for row in rel])
        assert np.array_equal(rel.mean(axis=1), per_row), n


def test_mlp_feature_window_longer_than_lookback_is_not_always_neutral(monkeypatch):
    # lookback is the DC window only; the MLP reads its own feature_window
    cfg = pipeline_config(kind="mlp", lookback=10, feature_window=11)
    signals = []
    observe = MlpObserver.observe

    def recording(self, relatives):
        signals.append(observe(self, relatives))
        return signals[-1]

    monkeypatch.setattr(MlpObserver, "observe", recording)
    train(cfg)
    assert len(signals) == 76  # the train pass and the validation pass
    assert any(np.any(s.v_m != 0.0) for s in signals)

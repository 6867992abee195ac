"""Market observer: DC event detection, risk signals, profile updates."""

import numpy as np
import pytest

from portagents.errors import EmptyBatch, InsufficientHistory
from portagents.observer import (
    DcMapping,
    DcObserver,
    MlpObserver,
    ObserverConfig,
    ObserverRecord,
    dc_detect,
    make_observer,
    observe_dc,
)


class FakeObs:
    """Minimal observation stub: only latest_relatives() is consumed here."""

    def __init__(self, rel):
        self._rel = np.atleast_1d(np.asarray(rel, dtype=np.float64))

    def latest_relatives(self):
        return self._rel


def history_from_prices(prices):
    p = np.asarray(prices, dtype=np.float64)
    return [FakeObs(p[i + 1] / p[i]) for i in range(p.size - 1)]


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


# -- observe_dc -------------------------------------------------------------------


def test_observe_dc_neutral_without_events():
    history = [FakeObs([1.0, 1.0]) for _ in range(20)]
    signal = observe_dc(history, theta=0.01, base_risk=0.02, lookback=20)
    assert signal.sigma_s == pytest.approx(0.02)
    assert signal.v_m[0] == 0.0


def test_observe_dc_downturn_halves_boundary():
    prices = 100.0 * 0.995 ** np.arange(22)
    history = history_from_prices(prices)
    signal = observe_dc(history, theta=0.01, base_risk=0.02, lookback=21)
    assert signal.v_m[0] == -1.0
    assert signal.sigma_s == pytest.approx(0.01)


def test_observe_dc_upturn_relaxes_boundary():
    prices = 100.0 * 1.005 ** np.arange(22)
    history = history_from_prices(prices)
    signal = observe_dc(history, theta=0.01, base_risk=0.02, lookback=21)
    assert signal.v_m[0] == 1.0
    assert signal.sigma_s == pytest.approx(0.03)


def test_observe_dc_requires_lookback():
    with pytest.raises(InsufficientHistory):
        observe_dc([FakeObs([1.0])] * 5, theta=0.01, base_risk=0.01, lookback=10)


def test_dc_mapping_monotone_in_trend():
    m = DcMapping()
    assert m.factor(-1.0) < m.factor(0.0) < m.factor(1.0)


# -- DcObserver ---------------------------------------------------------------------


def test_dc_observer_neutral_while_window_fills():
    obs = DcObserver(ObserverConfig(kind="dc", lookback=30, base_risk=0.015))
    signal = obs.observe([FakeObs([1.01])] * 10)
    assert signal.sigma_s == pytest.approx(0.015)
    np.testing.assert_array_equal(signal.v_m, np.zeros(3))


def test_dc_observer_recalibrates_to_constant_risk():
    obs = DcObserver(ObserverConfig(kind="dc"))
    records = [ObserverRecord(FakeObs([1.0]), FakeObs([1.0]), 0.01, np.zeros(3))] * 5
    out = obs.update(records, realized_risk=np.full(40, 0.007))
    assert out["updated"]
    assert obs.base_risk == pytest.approx(0.007)


def test_dc_observer_update_without_risk_is_noop():
    obs = DcObserver(ObserverConfig(kind="dc", base_risk=0.033))
    records = [ObserverRecord(FakeObs([1.0]), FakeObs([1.0]), 0.01, np.zeros(3))]
    out = obs.update(records)
    assert not out["updated"]
    assert obs.base_risk == pytest.approx(0.033)


def test_dc_observer_empty_batch_raises():
    obs = DcObserver()
    with pytest.raises(EmptyBatch):
        obs.update([], realized_risk=[0.01])


def test_dc_observer_quantile_recalibration():
    obs = DcObserver(ObserverConfig(kind="dc", base_risk_quantile=0.25, risk_window=8))
    records = [ObserverRecord(FakeObs([1.0]), FakeObs([1.0]), 0.01, np.zeros(3))]
    risk = np.arange(1.0, 9.0) / 100.0  # trailing window [0.01..0.08]
    obs.update(records, realized_risk=risk)
    assert obs.base_risk == pytest.approx(np.quantile(risk, 0.25))


# -- MlpObserver ---------------------------------------------------------------------


def test_mlp_observer_zero_net_emits_scaled_bias():
    config = ObserverConfig(kind="mlp", feature_window=5, scale=2.0)
    obs = MlpObserver(config, seed=0)
    for p in obs.net.params():
        p[:] = 0.0
    obs.net.layers[-1].b[:] = 0.02  # constant prediction = output bias
    signal = obs.observe([FakeObs([1.01, 0.99])] * 5)
    assert signal.sigma_s == pytest.approx(0.04)
    assert signal.v_m[1] == pytest.approx(0.02)


def test_mlp_observer_deterministic():
    config = ObserverConfig(kind="mlp", feature_window=5)
    history = [FakeObs([1.0 + 0.002 * i, 1.0 - 0.001 * i]) for i in range(5)]
    a = MlpObserver(config, seed=3).observe(history)
    b = MlpObserver(config, seed=3).observe(history)
    assert a.sigma_s == b.sigma_s
    np.testing.assert_array_equal(a.v_m, b.v_m)


def test_mlp_observer_neutral_until_window_fills():
    config = ObserverConfig(kind="mlp", feature_window=8, base_risk=0.02)
    obs = MlpObserver(config, seed=1)
    signal = obs.observe([FakeObs([1.0])] * 3)
    assert signal.sigma_s == pytest.approx(0.02)


def test_mlp_observer_loss_non_increasing_on_repeated_sample():
    config = ObserverConfig(kind="mlp", feature_window=5, lr=1e-3)
    obs = MlpObserver(config, seed=2)
    # zero the prediction head so the epoch-0 output starts far from the
    # target and the first ten epochs sit in the descent phase
    obs.net.layers[-1].w[:] = 0.0
    obs.net.layers[-1].b[:] = 0.0
    growths = 1.0 + 0.2 * np.sin(np.arange(10))
    records = [
        ObserverRecord(FakeObs([g]), FakeObs([g]), 0.01, np.zeros(3)) for g in growths
    ]
    losses = [obs.update(records)["loss"] for _ in range(10)]
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
    records = [
        ObserverRecord(FakeObs([g]), FakeObs([g]), 0.01, np.zeros(3))
        for g in np.concatenate([low, high])
    ]
    for _ in range(300):
        obs.update(records)
    sig_low = obs.observe([FakeObs([g]) for g in low[-w:]])
    sig_high = obs.observe([FakeObs([g]) for g in high[-w:]])
    assert sig_high.sigma_s > sig_low.sigma_s


def test_mlp_observer_empty_batch_raises():
    obs = MlpObserver(ObserverConfig(kind="mlp"), seed=0)
    with pytest.raises(EmptyBatch):
        obs.update([])


# -- factory ------------------------------------------------------------------------


def test_make_observer_kinds():
    assert isinstance(make_observer(ObserverConfig(kind="dc")), DcObserver)
    assert isinstance(make_observer(ObserverConfig(kind="mlp"), seed=1), MlpObserver)
    assert make_observer(ObserverConfig(kind="none")) is None
    with pytest.raises(ValueError):
        make_observer(ObserverConfig(kind="lstm"))

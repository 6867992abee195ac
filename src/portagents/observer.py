"""Market observer agent: directional-change event detection on an
equal-weight index, a small MLP volatility predictor, and the mapping from
either into a risk boundary sigma_s plus a three-feature market vector
[trend, event intensity, realised-vol ratio].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import EmptyBatch, InsufficientHistory
from .metrics import uniform_weights

N_MARKET_FEATURES = 3


@dataclass(frozen=True)
class DcEvent:
    """A confirmed directional-change event.

    ``confirm_index`` is the day the move from the last extreme reached the
    threshold; ``extreme_index`` is where that extreme sat; ``magnitude`` is
    the absolute fractional move between the two.
    """

    kind: str  # "upturn" | "downturn"
    confirm_index: int
    extreme_index: int
    magnitude: float


def dc_detect(prices, theta: float) -> list[DcEvent]:
    """Directional-change events on a price path.

    An upturn is confirmed when the price rises at least ``theta`` from the
    running minimum, a downturn when it falls at least ``theta`` from the
    running maximum; events alternate by construction.
    """
    p = np.asarray(prices, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise InsufficientHistory("need at least 2 prices")
    if not np.all(p > 0.0):
        raise ValueError("prices must be positive")
    if not theta > 0.0:
        raise ValueError(f"theta {theta} must be positive")

    events: list[DcEvent] = []
    mode = None  # None until the first event, then "up" | "down"
    hi_i = lo_i = 0
    hi = lo = p[0]
    for i in range(1, p.size):
        x = p[i]
        if mode in (None, "down"):
            if x < lo:
                lo, lo_i = x, i
            if x >= lo * (1.0 + theta):
                events.append(
                    DcEvent("upturn", i, lo_i, float(x / lo - 1.0))
                )
                mode = "up"
                hi, hi_i = x, i
                continue
        if mode in (None, "up"):
            if x > hi:
                hi, hi_i = x, i
            if x <= hi * (1.0 - theta):
                events.append(
                    DcEvent("downturn", i, hi_i, float(1.0 - x / hi))
                )
                mode = "down"
                lo, lo_i = x, i
    return events


@dataclass(frozen=True)
class RiskSignal:
    """Observer output: the risk boundary and the market vector."""

    sigma_s: float
    v_m: np.ndarray  # [trend in {-1,0,+1}, dc intensity, realised-vol ratio]


@dataclass
class ObserverRecord:
    """One stored observer step: (o_prev, o_next, sigma_s_prev, v_m_prev)."""

    o_prev: object
    o_next: object
    sigma_s_prev: float
    v_m_prev: np.ndarray


@dataclass(frozen=True)
class DcMapping:
    """Trend -> boundary scaling: relax in uptrends, tighten in downtrends."""

    up: float = 1.5
    neutral: float = 1.0
    down: float = 0.5

    def factor(self, trend: float) -> float:
        if trend > 0:
            return self.up
        if trend < 0:
            return self.down
        return self.neutral


def _index_growths(history) -> np.ndarray:
    """Per-day equal-weight index growth factors from an observation window."""
    growths = np.empty(len(history))
    for i, obs in enumerate(history):
        growths[i] = float(np.mean(obs.latest_relatives()))
    return growths


def _trend_features(growths: np.ndarray, theta: float):
    path = np.concatenate([[1.0], np.cumprod(growths)])
    events = dc_detect(path, theta)
    if events:
        trend = 1.0 if events[-1].kind == "upturn" else -1.0
    else:
        trend = 0.0
    intensity = len(events) / path.size
    returns = growths - 1.0
    overall = float(returns.std())
    recent = float(returns[returns.size // 2 :].std())
    ratio = recent / overall if overall > 1e-12 else 1.0
    return trend, intensity, ratio


def observe_dc(
    history,
    theta: float,
    base_risk: float,
    mapping: DcMapping | None = None,
    lookback: int = 63,
) -> RiskSignal:
    """Risk signal from directional-change events on recent observations.

    ``history`` is a sequence of at least ``lookback`` consecutive
    environment observations; sigma_s = base_risk scaled by the trend factor.
    """
    if len(history) < lookback:
        raise InsufficientHistory(
            f"history {len(history)} shorter than lookback {lookback}"
        )
    mapping = mapping or DcMapping()
    growths = _index_growths(list(history)[-lookback:])
    trend, intensity, ratio = _trend_features(growths, theta)
    return RiskSignal(
        sigma_s=base_risk * mapping.factor(trend),
        v_m=np.array([trend, intensity, ratio]),
    )


def observe_mlp(
    net: nn.DenseNet,
    features,
    scale: float = 1.0,
    prev_prediction: float | None = None,
    realized_vol: float | None = None,
) -> RiskSignal:
    """Risk signal from the MLP's next-window volatility prediction.

    sigma_s is the (non-negative) prediction times ``scale``; the market
    vector is [sign of predicted change, prediction, realised/predicted].
    """
    x = np.asarray(features, dtype=np.float64)
    out, _ = nn.forward(net, x)
    pred = float(np.ravel(out)[0])
    if prev_prediction is None:
        change = 0.0
    else:
        change = float(np.sign(pred - prev_prediction))
    if realized_vol is not None and pred > 1e-12:
        ratio = realized_vol / pred
    else:
        ratio = 1.0
    return RiskSignal(
        sigma_s=max(pred, 0.0) * scale,
        v_m=np.array([change, pred, ratio]),
    )


@dataclass
class ObserverConfig:
    kind: str = "dc"  # "dc" | "mlp" | "none"
    theta: float = 0.005
    base_risk: float = 0.01
    base_risk_quantile: float = 0.5
    risk_window: int = 63
    lookback: int = 63
    scale: float = 1.0
    hidden: int = 16
    feature_window: int = 10
    lr: float = 1e-3


class DcObserver:
    """Directional-change observer with a trailing-quantile base risk."""

    def __init__(self, config: ObserverConfig | None = None):
        self.config = config or ObserverConfig(kind="dc")
        self.base_risk = self.config.base_risk
        self.mapping = DcMapping()

    def neutral_signal(self) -> RiskSignal:
        return RiskSignal(sigma_s=self.base_risk, v_m=np.zeros(N_MARKET_FEATURES))

    def reset(self) -> None:
        """Start a pass: the DC observer keeps no state between steps."""

    def observe(self, history) -> RiskSignal:
        """Neutral until the lookback window fills, then the DC mapping."""
        if len(history) < self.config.lookback:
            return self.neutral_signal()
        return observe_dc(
            history,
            theta=self.config.theta,
            base_risk=self.base_risk,
            mapping=self.mapping,
            lookback=self.config.lookback,
        )

    def update(self, records, realized_risk=None) -> dict:
        """Recalibrate base_risk to the trailing quantile of realised
        short-term risk; records with no realised risk are a no-op."""
        if not len(records):
            raise EmptyBatch("observer update needs at least one record")
        if realized_risk is None or not len(realized_risk):
            return {"base_risk": self.base_risk, "updated": False}
        window = np.asarray(realized_risk, dtype=np.float64)[-self.config.risk_window :]
        self.base_risk = float(np.quantile(window, self.config.base_risk_quantile))
        return {"base_risk": self.base_risk, "updated": True}


class MlpObserver:
    """MLP observer predicting next-window realised volatility of the
    equal-weight index; supervised pairs are derived from stored records."""

    def __init__(self, config: ObserverConfig | None = None, seed=0):
        self.config = config or ObserverConfig(kind="mlp")
        rng = np.random.default_rng(seed)
        w = self.config.feature_window
        self.net = nn.DenseNet.create(
            [w + 1, self.config.hidden, 1], ["tanh", "linear"], rng
        )
        self.opt = nn.AdamState.for_params(self.net.params(), lr=self.config.lr)
        self.last_prediction: float | None = None
        self.base_risk = self.config.base_risk

    def neutral_signal(self) -> RiskSignal:
        return RiskSignal(sigma_s=self.base_risk, v_m=np.zeros(N_MARKET_FEATURES))

    def reset(self) -> None:
        """Start a pass: forget the previous pass's last prediction, which
        a checkpoint does not hold."""
        self.last_prediction = None

    def _features(self, growths: np.ndarray) -> np.ndarray:
        w = self.config.feature_window
        window = growths[-w:] - 1.0
        return np.concatenate([window, [window.std()]])

    def observe(self, history) -> RiskSignal:
        w = self.config.feature_window
        if len(history) < w:
            return self.neutral_signal()
        growths = _index_growths(list(history)[-w:])
        feats = self._features(growths)
        signal = observe_mlp(
            self.net,
            feats,
            scale=self.config.scale,
            prev_prediction=self.last_prediction,
            realized_vol=float(feats[-1]),
        )
        self.last_prediction = float(signal.v_m[1])
        # keep the boundary strictly positive even for an untrained net
        if signal.sigma_s <= 0.0:
            signal = RiskSignal(sigma_s=self.base_risk, v_m=signal.v_m)
        return signal

    def update(self, records, realized_risk=None) -> dict:
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
        grads, _ = nn.backward(self.net, tape, 2.0 * err / len(feats))
        nn.adam_step(self.opt, self.net.params(), grads)
        return {"loss": loss, "pairs": len(feats)}


def make_observer(config: ObserverConfig, seed=0):
    if config.kind == "dc":
        return DcObserver(config)
    if config.kind == "mlp":
        return MlpObserver(config, seed=seed)
    if config.kind == "none":
        return None
    raise ValueError(f"unknown observer kind {config.kind!r}")

"""Market observer agent: directional-change event detection on an
equal-weight index, a small MLP volatility predictor, and the mapping from
either into a risk boundary sigma_s plus a three-feature market vector
[trend, event intensity, realised-vol ratio].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigError, EmptyBatch, InsufficientHistory

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
    relatives,
    theta: float,
    base_risk: float,
    mapping: DcMapping | None = None,
    lookback: int = 63,
) -> RiskSignal:
    """Risk signal from directional-change events on the equal-weight index.

    ``relatives`` is a (k, N) array of price relatives for consecutive days
    ending today, oldest first, with k >= ``lookback``. Its last ``lookback``
    rows, averaged across assets, are the index growths the DC detector
    walks; sigma_s = base_risk scaled by the trend factor.
    """
    if len(relatives) < lookback:
        raise InsufficientHistory(
            f"{len(relatives)} days of relatives, fewer than lookback {lookback}"
        )
    mapping = mapping or DcMapping()
    growths = relatives[-lookback:].mean(axis=1)
    trend, intensity, ratio = _trend_features(growths, theta)
    return RiskSignal(
        sigma_s=base_risk * mapping.factor(trend),
        v_m=np.array([trend, intensity, ratio]),
    )


OBSERVER_KINDS = ("dc", "mlp")


@dataclass
class ObserverConfig:
    """Wire format of the observer block.

    ``lookback`` is the DC observer's window in days and ``feature_window``
    the MLP observer's; each observer stays neutral until the pass has seen
    that many days of price relatives.
    """

    kind: str = "dc"  # one of OBSERVER_KINDS
    theta: float = 0.005
    base_risk: float = 0.01
    base_risk_quantile: float = 0.5
    risk_window: int = 63
    lookback: int = 63
    scale: float = 1.0
    hidden: int = 16
    feature_window: int = 10
    lr: float = 1e-3

    def __post_init__(self):
        if self.kind not in OBSERVER_KINDS:
            raise ConfigError(f"observer.kind {self.kind!r} not in {OBSERVER_KINDS}")
        if self.lookback < 1 or self.feature_window < 1:
            raise ConfigError("observer.lookback and observer.feature_window must be >= 1")
        if not self.theta > 0.0:
            raise ConfigError(f"observer.theta {self.theta} must be positive")
        if not self.base_risk >= 0.0:
            raise ConfigError(f"observer.base_risk {self.base_risk} must be non-negative")
        if not 0.0 <= self.base_risk_quantile <= 1.0:
            raise ConfigError(
                f"observer.base_risk_quantile {self.base_risk_quantile} outside [0, 1]"
            )
        if self.risk_window < 1:
            raise ConfigError(f"observer.risk_window {self.risk_window} must be >= 1")
        if self.hidden < 1:
            raise ConfigError(f"observer.hidden {self.hidden} must be >= 1")


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

    def observe(self, relatives) -> RiskSignal:
        """Signal from a (k, N) array of price relatives for consecutive days
        ending today, oldest first: neutral while k < ``lookback``, then the
        DC mapping on the last ``lookback`` days."""
        if len(relatives) < self.config.lookback:
            return self.neutral_signal()
        return observe_dc(
            relatives,
            theta=self.config.theta,
            base_risk=self.base_risk,
            mapping=self.mapping,
            lookback=self.config.lookback,
        )

    def update(self, relatives, realized_risk=None) -> dict:
        """Recalibrate base_risk to the trailing quantile of realised
        short-term risk; a pass with no realised risk is a no-op.
        ``relatives`` is the pass's (k, N) array of price relatives, which
        the DC observer does not learn from."""
        if not len(relatives):
            raise EmptyBatch("observer update needs at least one day")
        if realized_risk is None or not len(realized_risk):
            return {"base_risk": self.base_risk, "updated": False}
        window = np.asarray(realized_risk, dtype=np.float64)[-self.config.risk_window :]
        self.base_risk = float(np.quantile(window, self.config.base_risk_quantile))
        return {"base_risk": self.base_risk, "updated": True}


class MlpObserver:
    """MLP observer predicting next-window realised volatility of the
    equal-weight index; supervised pairs are derived from a pass's price
    relatives."""

    def __init__(self, config: ObserverConfig | None = None, seed=0):
        self.config = config or ObserverConfig(kind="mlp")
        rng = np.random.default_rng(seed)
        w = self.config.feature_window
        self.net = nn.DenseNet.create(
            [w + 1, self.config.hidden, 1], ["tanh", "linear"], rng
        )
        self.opt = nn.AdamState.for_params(self.net.flat, lr=self.config.lr)
        self.last_prediction: float | None = None
        self.base_risk = self.config.base_risk

    def neutral_signal(self) -> RiskSignal:
        return RiskSignal(sigma_s=self.base_risk, v_m=np.zeros(N_MARKET_FEATURES))

    def reset(self) -> None:
        """Start a pass: forget the previous pass's last prediction, which
        a checkpoint does not hold."""
        self.last_prediction = None

    def observe(self, relatives) -> RiskSignal:
        """Signal from a (k, N) array of price relatives for consecutive days
        ending today, oldest first: neutral while k < ``feature_window``, then
        the net's next-window volatility prediction from the last
        ``feature_window`` days of equal-weight index returns. sigma_s is the
        prediction times ``scale`` (base_risk if not positive); v_m is [sign
        of the predicted change, prediction, realised/predicted]."""
        w = self.config.feature_window
        if len(relatives) < w:
            return self.neutral_signal()
        window = relatives[-w:].mean(axis=1) - 1.0
        realized = float(window.std())
        out, _ = nn.forward(self.net, np.concatenate([window, [realized]]))
        pred = float(np.ravel(out)[0])
        prev, self.last_prediction = self.last_prediction, pred
        change = 0.0 if prev is None else float(np.sign(pred - prev))
        ratio = realized / pred if pred > 1e-12 else 1.0
        sigma_s = max(pred, 0.0) * self.config.scale
        # keep the boundary strictly positive even for an untrained net
        if sigma_s <= 0.0:
            sigma_s = self.base_risk
        return RiskSignal(sigma_s=sigma_s, v_m=np.array([change, pred, ratio]))

    def update(self, relatives, realized_risk=None) -> dict:
        """One supervised epoch on (trailing window -> next-window vol) over
        the equal-weight index of a (k, N) array of a pass's consecutive
        price relatives, oldest first."""
        if not len(relatives):
            raise EmptyBatch("observer update needs at least one day")
        w = self.config.feature_window
        returns = relatives.mean(axis=1) - 1.0
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
        grad, _ = nn.backward(self.net, tape, 2.0 * err / len(feats))
        nn.adam_step(self.opt, self.net.flat, grad)
        return {"loss": loss, "pairs": len(feats)}


def make_observer(config: ObserverConfig, seed=0):
    if config.kind == "dc":
        return DcObserver(config)
    return MlpObserver(config, seed=seed)

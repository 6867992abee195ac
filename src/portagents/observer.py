"""Market observer agent: directional-change event detection on an
equal-weight index, a small MLP volatility predictor, and the mapping from
either into a risk boundary sigma_s plus a three-feature market vector
[trend, event intensity, realised-vol ratio].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# trend -> boundary scaling: relax in uptrends, tighten in downtrends
_TREND_FACTOR = {1.0: 1.5, 0.0: 1.0, -1.0: 0.5}


def neutral_signal(base_risk: float) -> RiskSignal:
    """The signal of an observer that has not seen its window yet, and of
    the dual tier, which has no observer: base_risk and a zero market vector."""
    return RiskSignal(sigma_s=base_risk, v_m=np.zeros(N_MARKET_FEATURES))


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
        for name in ("theta", "scale", "lr"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"observer.{name} {getattr(self, name)} must be positive")
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

    def reset(self) -> None:
        """Start a pass: the DC observer keeps no state between steps."""

    def observe(self, relatives) -> RiskSignal:
        """Signal from a (k, N) array of price relatives for consecutive days
        ending today, oldest first: neutral while k < ``lookback``. Then the
        last ``lookback`` rows, averaged across assets, are the index growths
        the DC detector walks. The last event sets the trend (+1 upturn, -1
        downturn, 0 none), and sigma_s is base_risk times the trend factor;
        v_m is [trend, events per day, realised-vol ratio of the recent half
        to the whole window]."""
        lookback = self.config.lookback
        if len(relatives) < lookback:
            return neutral_signal(self.base_risk)
        growths = relatives[-lookback:].mean(axis=1)
        path = np.concatenate([[1.0], np.cumprod(growths)])
        events = dc_detect(path, self.config.theta)
        trend = 0.0
        if events:
            trend = 1.0 if events[-1].kind == "upturn" else -1.0
        returns = growths - 1.0
        overall = float(returns.std())
        recent = float(returns[returns.size // 2 :].std())
        ratio = recent / overall if overall > 1e-12 else 1.0
        return RiskSignal(
            sigma_s=self.base_risk * _TREND_FACTOR[trend],
            v_m=np.array([trend, len(events) / path.size, ratio]),
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
            return neutral_signal(self.config.base_risk)
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
            sigma_s = self.config.base_risk
        return RiskSignal(sigma_s=sigma_s, v_m=np.array([change, pred, ratio]))

    def update(self, relatives, realized_risk=None) -> dict:
        """One supervised epoch on (trailing window -> next-window vol) over
        the equal-weight index of a (k, N) array of a pass's consecutive
        price relatives, oldest first. Each input row is a window of ``w``
        index returns followed by its std, and its target is the std of the
        next window: k - 2w + 1 pairs."""
        if not len(relatives):
            raise EmptyBatch("observer update needs at least one day")
        w = self.config.feature_window
        returns = relatives.mean(axis=1) - 1.0
        pairs = returns.size - 2 * w + 1
        if pairs < 1:
            return {"loss": None, "pairs": 0}
        windows = sliding_window_view(returns, w)
        stds = windows.std(axis=1)
        x = np.column_stack([windows[:pairs], stds[:pairs]])
        y = stds[w:, None]
        out, tape = nn.forward(self.net, x)
        err = out - y
        loss = float(np.mean(err * err))
        grad, _ = nn.backward(self.net, tape, 2.0 * err / pairs, inputs=False)
        nn.adam_step(self.opt, self.net.flat, grad)
        return {"loss": loss, "pairs": pairs}


def make_observer(config: ObserverConfig, seed=0):
    if config.kind == "dc":
        return DcObserver(config)
    return MlpObserver(config, seed=seed)

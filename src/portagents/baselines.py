"""Classic online portfolio-selection baselines.

Each update op implements one published rule. Each Strategy is that rule as
the backtest harness calls it: a stateless map from the weights it chose the
day before and the pass's price relatives so far to the next day's weights,
holding its weights (or uniform ones) until its history window fills.

References: Cover's universal portfolios line of work for CRP, Helmbold et
al. for EG, Li & Hoi for OLMAR/PAMR/RMR, Borodin et al. correlation-driven
selection for CORN.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientHistory, NonFiniteInput
from .metrics import check_weights, uniform_weights
from .solver import simplex_repair, simplex_repair_unchecked


def crp_weights(n_assets: int) -> np.ndarray:
    """Constant rebalanced portfolio: uniform weights every day."""
    return uniform_weights(n_assets)


def eg_update(weights, relatives, eta: float = 0.05) -> np.ndarray:
    """Exponentiated-gradient step w_i * exp(eta * x_i / (w.x)), renormalised."""
    w = check_weights(weights)
    x = np.asarray(relatives, dtype=np.float64)
    if eta < 0:
        raise ValueError(f"eta {eta} must be non-negative")
    growth = float(w @ x)
    if growth <= 0:
        raise ValueError("portfolio growth must be positive")
    b = w * np.exp(eta * x / growth)
    return b / b.sum()


def _reversion_step(weights, x_hat, epsilon: float) -> np.ndarray:
    """Mean-reversion step shared by OLMAR and RMR: move toward the
    predicted relatives until the expected growth clears epsilon, then
    project back onto the simplex."""
    w = check_weights(weights)
    x = np.asarray(x_hat, dtype=np.float64)
    x_bar = float(x.mean())
    denom = float(np.sum((x - x_bar) ** 2))
    if denom <= 1e-18:
        return w.copy()
    lam = max(0.0, (epsilon - float(w @ x)) / denom)
    return simplex_repair(w + lam * (x - x_bar))


def olmar_predict(price_window) -> np.ndarray:
    """Moving-average reversion prediction (1/w) * sum_j p_{t-j} / p_t."""
    p = np.asarray(price_window, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1:
        raise InsufficientHistory("need a (w, N) price window")
    return p.mean(axis=0) / p[-1]


def olmar_update(weights, price_window, epsilon: float = 10.0) -> np.ndarray:
    """On-line moving-average reversion update."""
    return _reversion_step(weights, olmar_predict(price_window), epsilon)


def pamr_update(weights, relatives, epsilon: float = 0.5) -> np.ndarray:
    """Passive-aggressive mean reversion: step away from today's relatives
    when the realised growth exceeds epsilon."""
    w = check_weights(weights)
    x = np.asarray(relatives, dtype=np.float64)
    loss = max(0.0, float(w @ x) - epsilon)
    if loss == 0.0:
        return w.copy()
    x_bar = float(x.mean())
    denom = float(np.sum((x - x_bar) ** 2))
    if denom <= 1e-18:
        return w.copy()
    tau = loss / denom
    return simplex_repair(w - tau * (x - x_bar))


def l1_median(points, max_iter: int = 200, tol: float = 1e-9) -> np.ndarray:
    """Geometric (L1) median by Weiszfeld iteration, capped at max_iter."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise InsufficientHistory("need a (w, N) point set")
    y = pts.mean(axis=0)
    for _ in range(max_iter):
        d = np.linalg.norm(pts - y, axis=1)
        if np.any(d < tol):
            return pts[int(np.argmin(d))].copy()
        inv = 1.0 / d
        y_new = (pts * inv[:, None]).sum(axis=0) / inv.sum()
        if np.linalg.norm(y_new - y) < tol:
            return y_new
        y = y_new
    return y


def rmr_update(
    weights, price_window, epsilon: float = 5.0, max_iter: int = 200
) -> np.ndarray:
    """Robust median reversion: predict relatives from the L1 median of the
    price window, then take the shared reversion step."""
    p = np.asarray(price_window, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 2:
        raise InsufficientHistory("need a (w, N) price window with w >= 2")
    x_hat = l1_median(p, max_iter=max_iter) / p[-1]
    return _reversion_step(weights, x_hat, epsilon)


def log_wealth_weights(relatives_set, iterations: int = 500, step: float = 0.1) -> np.ndarray:
    """Maximise sum log(b.x) over the simplex by projected gradient ascent.

    The input is validated once; each of the ``iterations`` steps from the
    uniform portfolio then projects through ``simplex_repair_unchecked``.
    """
    x = np.asarray(relatives_set, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InsufficientHistory("need a (m, N) set of relatives")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("relatives contain non-finite values")
    m, n = x.shape
    b = uniform_weights(n)
    idx = np.arange(1, n + 1)
    share = np.empty_like(x)
    for _ in range(iterations):
        np.divide(x, (x @ b)[:, None], out=share)
        b = simplex_repair_unchecked(b + step * (share.sum(axis=0) / m), idx)
    return b


def corn_weights(relatives_history, window: int = 5, rho: float = 0.1) -> np.ndarray:
    """Correlation-driven selection: find past windows correlated with the
    current one (>= rho), then bet the log-optimal portfolio over the days
    that followed them. Uniform when nothing matches.

    All past windows are scanned at once, as the rows of a strided
    (k, window * N) view of the flattened history. Windows whose std is below
    1e-12 are skipped. Every other row's Pearson correlation with the current
    window takes the steps of ``np.corrcoef``: centre, dot, divide by the
    square roots of the diagonal, clip to [-1, 1]. Its dots are summed in
    another order than ``np.corrcoef``'s, so a row within 1e-9 of ``rho``,
    far more than that rounding, is decided by ``np.corrcoef`` itself: the
    matches are exactly those of a scan that calls it once per window.
    """
    x = np.ascontiguousarray(relatives_history, dtype=np.float64)
    t, n = x.shape
    if t < 2 * window + 1:
        raise InsufficientHistory(f"need at least {2 * window + 1} days, got {t}")
    k = t - 2 * window + 1  # past windows x[s : s + window] for s < k, followed by x[s + window]
    windows = sliding_window_view(x.ravel(), window * n)[::n]
    past, current = windows[:k], windows[-1]
    rows = np.flatnonzero(past.std(axis=1) >= 1e-12)
    if current.std() < 1e-12 or rows.size == 0:
        return uniform_weights(n)
    pc = past[rows]
    pc -= pc.mean(axis=1, keepdims=True)
    cc = current - current.mean()
    scale = 1.0 / (window * n - 1)
    corr = (pc @ cc) * scale
    corr /= np.sqrt(np.einsum("ij,ij->i", pc, pc) * scale)
    corr /= np.sqrt((cc @ cc) * scale)
    np.clip(corr, -1.0, 1.0, out=corr)
    matched = corr >= rho
    for i in np.flatnonzero(np.abs(corr - rho) <= 1e-9):
        matched[i] = float(np.corrcoef(past[rows[i]], current)[0, 1]) >= rho
    if not matched.any():
        return uniform_weights(n)
    return log_wealth_weights(x[rows[matched] + window])


# -- strategy rules -----------------------------------------------------------


class Strategy:
    """A rule ``step(weights, history) -> weights`` for the next day.

    ``weights`` is what the rule returned the day before (uniform on a pass's
    first day) and ``history`` the pass's (k, N) price relatives from its
    first day through today, oldest first. A rule keeps no state between
    calls, so the same arguments always give the same weights.
    """

    name = "base"

    def step(self, weights: np.ndarray, history: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _price_window(history: np.ndarray, window: int) -> np.ndarray:
    """The last ``window`` rows of the pass's price path: ones on the day
    before its first, then the running products of ``history``."""
    path = np.concatenate([np.ones((1, history.shape[1])), np.cumprod(history, axis=0)])
    return path[-window:]


class Crp(Strategy):
    name = "crp"

    def step(self, weights, history):
        return crp_weights(history.shape[1])


class Eg(Strategy):
    name = "eg"

    def __init__(self, eta: float = 0.05):
        self.eta = eta

    def step(self, weights, history):
        return eg_update(weights, history[-1], eta=self.eta)


class Olmar(Strategy):
    name = "olmar"

    def __init__(self, window: int = 5, epsilon: float = 10.0):
        self.window = window
        self.epsilon = epsilon

    def step(self, weights, history):
        if len(history) + 1 < self.window:
            return weights
        return olmar_update(weights, _price_window(history, self.window), epsilon=self.epsilon)


class Pamr(Strategy):
    name = "pamr"

    def __init__(self, epsilon: float = 0.5):
        self.epsilon = epsilon

    def step(self, weights, history):
        return pamr_update(weights, history[-1], epsilon=self.epsilon)


class Rmr(Strategy):
    name = "rmr"

    def __init__(self, window: int = 5, epsilon: float = 5.0):
        self.window = window
        self.epsilon = epsilon

    def step(self, weights, history):
        if len(history) + 1 < self.window:
            return weights
        return rmr_update(weights, _price_window(history, self.window), epsilon=self.epsilon)


class Corn(Strategy):
    name = "corn"

    def __init__(self, window: int = 5, rho: float = 0.1):
        self.window = window
        self.rho = rho

    def step(self, weights, history):
        if len(history) < 2 * self.window + 1:
            return uniform_weights(history.shape[1])
        return corn_weights(history, window=self.window, rho=self.rho)


REGISTRY = {
    "crp": Crp,
    "eg": Eg,
    "olmar": Olmar,
    "pamr": Pamr,
    "rmr": Rmr,
    "corn": Corn,
}


def make_strategy(name: str, **params) -> Strategy:
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown baseline {name!r}; known: {sorted(REGISTRY)}"
        ) from None
    return cls(**params)

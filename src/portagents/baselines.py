"""Classic online portfolio-selection baselines.

Each update op implements one published rule. Each Strategy is that rule as
the backtest harness calls it: a stateless map from the weights it chose the
day before and the pass's price relatives so far to the next day's weights,
holding its weights (or uniform ones) until its history window fills.

References: Cover's universal portfolios line of work for CRP, Helmbold et
al. for EG, Li & Hoi for OLMAR/PAMR/RMR, Li, Hoi & Gopalkrishnan (2011) for
CORN, whose log-optimal portfolio is Cover's (1991).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InsufficientHistory, NonFiniteInput, NonPositiveGrowth
from .metrics import check_weights, uniform_weights
from .solver import simplex_repair


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


# The log-optimal solve stops at the first iterate whose certificate
# log max_i g_i is at most LOG_WEALTH_TOL, or after LOG_WEALTH_MAX_STEPS steps.
LOG_WEALTH_TOL = 1e-12
LOG_WEALTH_MAX_STEPS = 50
# added to the Hessian's diagonal, so that it solves when m < N or when two
# assets have the same relatives; it slows convergence, it does not move the optimum
_RIDGE = 1e-9
_ARMIJO = 1e-4
_HALVINGS = 0.5 ** np.arange(60)


def log_wealth_weights(relatives_set) -> np.ndarray:
    """The log-optimal portfolio of a (m, N) set of price relatives: the
    point b of the simplex that maximises f(b) = mean_t log(x_t . b).

    With g = mean_t x_t / (x_t . b), g . b = 1 holds at every b, so by
    Jensen's inequality f* - f(b) <= log max_i g_i. The solve starts at the
    uniform portfolio and returns the first iterate whose certificate is at
    most ``LOG_WEALTH_TOL`` (see ``_log_wealth_newton``).
    """
    x = np.asarray(relatives_set, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InsufficientHistory("need a (m, N) set of relatives")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("relatives contain non-finite values")
    if not np.all(x > 0):
        raise NonPositiveGrowth("relatives must be positive")
    return _log_wealth_newton(x)[0]


def _log_wealth_newton(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Active-set Newton ascent of mean log(x . b) over the simplex; returns
    the last iterate and the number of steps taken to reach it.

    Each step solves the equality-constrained Newton system on the free set
    (the positive weights, and the zero ones whose g_i exceeds 1), with the
    negative Hessian H = q^T q / m, q = x / (x . b), plus a ridge. Each row
    of q is centred first: that leaves d^T H d unchanged for every d that
    sums to zero, and takes the large all-ones direction, which the
    constraint removes anyway, out of H. The step length is backtracked
    from 1 until it passes an Armijo test. Past the ratio test's bound, the
    weights the step would make negative are set to exactly zero and the
    rest renormalised, so one step can zero many weights; the bound itself
    is also tried. The rise of f is summed as log1p of each day's relative
    change, which resolves it down to the last bits of f. When no step
    length passes, the current iterate is returned.
    """
    m, n = x.shape
    b = uniform_weights(n)
    for steps in range(LOG_WEALTH_MAX_STEPS + 1):
        q = x / (x @ b)[:, None]
        g = q.sum(axis=0) / m
        if np.log(g.max()) <= LOG_WEALTH_TOL or steps == LOG_WEALTH_MAX_STEPS:
            break
        F = np.flatnonzero((b > 0) | (g > 1.0))
        k = F.size
        qf = q[:, F]
        qf -= qf.mean(axis=1, keepdims=True)
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = qf.T @ qf / m + _RIDGE * np.eye(k)
        kkt[k, k] = 0.0
        d = np.linalg.solve(kkt, np.append(g[F], 0.0))[:k]
        r = qf @ d  # each day's relative change of x . b along d
        slope = r.sum() / m  # g . d
        neg = np.flatnonzero(d < 0)
        ratios = b[F[neg]] / -d[neg]
        t_max = ratios.min() if neg.size else np.inf
        for t in np.concatenate([_HALVINGS[_HALVINGS > t_max], min(t_max, 1.0) * _HALVINGS]):
            blocked = F[neg[ratios <= t]]
            p = b.copy()
            p[F] += t * d
            cut = -p[blocked]  # what zeroing the blocked weights adds back
            p[blocked] = 0.0
            # g . (p / p.sum() - b), and f(p / p.sum()) - f(b)
            rise = (t * slope + (g[blocked] - 1.0) @ cut) / (1.0 + cut.sum())
            gain = np.log1p(t * r + q[:, blocked] @ cut).sum() / m - np.log1p(cut.sum())
            if rise > 0 and gain >= _ARMIJO * rise:
                break
        else:
            break
        b = p / p.sum()
    return b, steps


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

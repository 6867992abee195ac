"""Training and evaluation harness.

Wires the three agents through the trading environment with the per-step
order observer -> RL -> solver -> compose -> execute, feeds the two learners
(a replay ring for the RL agent, the pass's price relatives for the
observer), and provides train / backtest / compare / ablate plus deterministic report
serialisation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines
from .env import TradingEnv, observation_dim
from .errors import ConfigError, DataSplitTooSmall, IoFailure
from .market_data import (
    OhlcvSeries,
    LoadConfig,
    load_ohlcv,
    rolling_covariance,
    synth_from_spec,
)
from .metrics import (
    PerformanceReport,
    build_report,
    sigma_alpha_value,
    uniform_weights,
    wilcoxon_rank_sum,
)
from .observer import (
    N_MARKET_FEATURES,
    DcObserver,
    MlpObserver,
    ObserverConfig,
    RiskSignal,
    make_observer,
)
from .rl import (
    ReplayBuffer,
    RewardConfig,
    Td3Agent,
    Td3Config,
    episode_reward,
    jensen_shannon,
    per_step_reward,
    save_agent,
)
from .solver import RiskControlProblem, propose_control

log = logging.getLogger("portagents")

TIERS = ("single", "dual", "triple")
PLOT_SERIES_KINDS = ("equity", "risk", "adjustment")


@dataclass
class SolverConfig:
    """Wire format of the solver block."""

    population: int = 20
    f: float = 0.8
    cr: float = 0.9
    budget: int = 2000
    mu: float = 0.1
    sigma_mode: str = "hard"

    def __post_init__(self):
        if self.sigma_mode not in ("hard", "target"):
            raise ConfigError(f"unknown sigma_mode {self.sigma_mode!r}")


@dataclass
class EnvBlock:
    window: int = 10
    c_tx: float = 0.0
    c0: float = 1.0

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("env.window must be >= 1")
        if not 0.0 <= self.c_tx < 1.0:
            raise ConfigError("env.c_tx must be in [0, 1)")
        if self.c0 <= 0:
            raise ConfigError("env.c0 must be positive")


@dataclass
class MetricsBlock:
    risk_free_rate: float = 0.0
    days_per_year: int = 252
    cov_window: int = 21

    def __post_init__(self):
        if self.cov_window < 2:
            raise ConfigError("metrics.cov_window must be >= 2")
        if self.days_per_year < 1:
            raise ConfigError("metrics.days_per_year must be >= 1")


_DEFAULT_STRATEGIES = ("crp", "eg", "olmar", "pamr", "rmr", "corn", "single", "triple")


_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object"}


def _kind_name(default) -> str:
    if isinstance(default, tuple):
        return f"list of {_kind_name(default[0])}"
    return _JSON_KINDS[type(default)]


def _same_kind(value, default) -> bool:
    """Whether a config value has the type of its field's default. An int
    stands for a float, and a list for a tuple of the default's item type."""
    if isinstance(value, bool) != isinstance(default, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_same_kind(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _check_types(cls, raw: dict, prefix: str):
    """Raise ConfigError naming the first field whose value has another type
    than the field's default; fields that default to None take any value."""
    for f in dataclasses.fields(cls):
        if f.name not in raw:
            continue
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if default is None or _same_kind(raw[f.name], default):
            continue
        raise ConfigError(
            f"{prefix}{f.name} must be of type {_kind_name(default)}, got {raw[f.name]!r}"
        )


def _build_block(cls, raw: dict, name: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be of type object, got {raw!r}")
    known = {f.name for f in dataclasses.fields(cls)}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown {name} fields {sorted(extra)}")
    _check_types(cls, raw, f"{name}.")
    try:
        return cls(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} block: {exc}") from exc


@dataclass
class RunConfig:
    """One experiment: data source, splits, tier wiring, hyperparameters."""

    data: dict = field(default_factory=dict)
    seed: int = 0
    runs: int = 1
    tier: str = "triple"
    max_episode: int = 10
    splits: tuple = (0.5, 0.2, 0.3)
    strategies: tuple = _DEFAULT_STRATEGIES
    reference: str | None = None
    reward: RewardConfig = field(default_factory=RewardConfig)
    agent: Td3Config = field(default_factory=Td3Config)
    solver: SolverConfig = field(default_factory=SolverConfig)
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    env: EnvBlock = field(default_factory=EnvBlock)
    metrics: MetricsBlock = field(default_factory=MetricsBlock)

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ConfigError(f"tier {self.tier!r} not in {TIERS}")
        if self.max_episode < 1:
            raise ConfigError("max_episode must be >= 1")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        s = tuple(float(x) for x in self.splits)
        if len(s) != 3 or any(x < 0 for x in s) or abs(sum(s) - 1.0) > 1e-6:
            raise ConfigError(f"splits {s} must be 3 non-negative fractions summing to 1")
        self.splits = s
        self.strategies = tuple(self.strategies)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        blocks = {
            "reward": RewardConfig,
            "agent": Td3Config,
            "solver": SolverConfig,
            "observer": ObserverConfig,
            "env": EnvBlock,
            "metrics": MetricsBlock,
        }
        kwargs = {}
        for key, value in raw.items():
            if key in blocks:
                kwargs[key] = _build_block(blocks[key], value, key)
            elif key in {f.name for f in dataclasses.fields(cls)}:
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown config field {key!r}")
        _check_types(cls, {k: v for k, v in kwargs.items() if k not in blocks}, "")
        if "agent" in kwargs and isinstance(kwargs["agent"].hidden, list):
            kwargs["agent"].hidden = tuple(kwargs["agent"].hidden)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["splits"] = list(self.splits)
        out["strategies"] = list(self.strategies)
        out["agent"]["hidden"] = list(self.agent.hidden)
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def load_series(self) -> OhlcvSeries:
        extra = set(self.data) - {"file", "load", "synth"}
        if extra:
            raise ConfigError(f"unknown data fields {sorted(extra)}")
        if "file" in self.data:
            if not isinstance(self.data["file"], str):
                raise ConfigError(f"data.file must be of type string, got {self.data['file']!r}")
            load_cfg = _build_block(LoadConfig, self.data.get("load", {}), "data.load")
            return load_ohlcv(self.data["file"], load_cfg)
        if "synth" in self.data:
            return synth_from_spec(self.data["synth"])
        raise ConfigError("data block needs either 'file' or 'synth'")


def split_indices(n_days: int, splits) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Chronological (train, val, test) half-open day ranges."""
    s0, s1, _ = splits
    n1 = int(n_days * s0)
    n2 = int(n_days * (s0 + s1))
    return (0, n1), (n1, n2), (n2, n_days)


def split_hash(series: OhlcvSeries, bounds) -> str:
    blob = json.dumps([list(b) for b in bounds]).encode()
    digest = hashlib.sha256()
    digest.update(blob)
    digest.update(np.ascontiguousarray(series.close, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


class CallTrace:
    """Instrumentation: ordered per-step events plus call counters."""

    def __init__(self):
        self.events: list[tuple] = []
        self.counters: Counter = Counter()

    def record(self, stage: str, episode: int = -1, step: int = -1, **payload):
        self.counters[stage] += 1
        self.events.append((stage, episode, step, payload))

    def stages_for(self, episode: int, step: int) -> list[str]:
        return [e[0] for e in self.events if e[1] == episode and e[2] == step]


@dataclass
class PassResult:
    """What the callers read of one pass through a segment."""

    equity: np.ndarray  # len steps+1, starts at c0
    risks: np.ndarray  # sigma_alpha(a_final) per step (empty if not tracked)
    adjustments: np.ndarray  # sum |a_ctrl| per step
    j: float


def _env_for_segment(series, config: RunConfig, seg: tuple[int, int], need_risk: bool) -> TradingEnv:
    window = config.env.window
    start = max(seg[0], window)
    if need_risk:
        start = max(start, config.metrics.cov_window + 1)
    end = seg[1] - 1
    if end - start < 2:
        raise DataSplitTooSmall(
            f"segment {seg} leaves fewer than 2 steps after warmup (start {start})"
        )
    return TradingEnv(
        series,
        window=window,
        c_tx=config.env.c_tx,
        c0=config.env.c0,
        start_day=start,
        end_day=end,
    )


def _agent_policy(agent: Td3Agent, explore: bool):
    """The pass's ``policy(obs) -> weights`` for an agent."""
    return lambda obs: agent.select_action(obs.vector, explore=explore)


def _run_pass(
    policy,
    series: OhlcvSeries,
    config: RunConfig,
    seg: tuple[int, int],
    *,
    tier: str,
    observer=None,
    learner: Td3Agent | None = None,
    buffer: ReplayBuffer | None = None,
    solver_rng=None,
    trace: CallTrace | None = None,
    episode: int = -1,
) -> PassResult:
    """One full pass over a segment: ``policy(obs) -> weights`` proposes, and
    the tier's solver and observer act on it.

    With a ``buffer`` every step is stored; with a ``learner`` the agent also
    updates from the buffer after every step, and a triple tier's observer
    from the pass's price relatives at its end (training). Risk is tracked on
    every pass that does not learn, and on every tier above ``single``.
    """
    need_risk = tier != "single" or learner is None
    env = _env_for_segment(series, config, seg, need_risk=need_risk)
    k = config.metrics.cov_window
    reward_cfg = config.reward
    n = env.n_assets

    # the observer sees the latest relatives of every day from the first
    # observable one (env.window) through today: row d-1 is day d's
    relatives = series.relatives()

    obs = env.reset()
    o_prev = obs
    a_rl_prev = uniform_weights(n)
    a_final_prev = uniform_weights(n)
    r_prev = 0.0
    if observer is not None:
        observer.reset()

    equity = [env.c0]
    growths, jsds, risks, adjustments = [], [], [], []
    done = False
    step_i = 0
    while True:
        # store the tuple the last step completed; the pass ends with one more
        o_t = obs
        if buffer is not None:
            buffer.push(o_prev.vector, a_final_prev, a_rl_prev, o_t.vector, r_prev)
            if trace:
                trace.record(
                    "store",
                    episode,
                    step_i,
                    o_prev_day=o_prev.day,
                    o_day=o_t.day,
                    a_final=a_final_prev.copy(),
                    a_rl=a_rl_prev.copy(),
                    reward=r_prev,
                )
        if done:
            break

        if tier == "triple":
            sig = observer.observe(relatives[config.env.window - 1 : o_t.day])
            if trace:
                trace.record("observer", episode, step_i, sigma_s=sig.sigma_s)
            env.set_market_features(sig.v_m)
        elif tier == "dual":
            sig = RiskSignal(config.observer.base_risk, np.zeros(N_MARKET_FEATURES))
        else:
            sig = None

        a_rl = policy(o_t)
        if trace:
            trace.record("rl", episode, step_i, a_rl=a_rl.copy())

        cov = None
        if need_risk:
            cov = rolling_covariance(series, t=o_t.day, k=k)
        if tier in ("dual", "triple"):
            problem = RiskControlProblem(
                a_rl=a_rl,
                cov=cov,
                sigma_s=sig.sigma_s,
                mu=config.solver.mu,
                v_m=sig.v_m,
            )
            result = propose_control(
                problem,
                budget=config.solver.budget,
                seed=solver_rng if solver_rng is not None else config.seed,
                population=config.solver.population,
                f=config.solver.f,
                cr=config.solver.cr,
                sigma_mode=config.solver.sigma_mode,
            )
            a_final = result.a_final
            jsd = jensen_shannon(a_rl, a_final)
            adjustment = float(np.abs(result.a_ctrl).sum())
            if trace:
                trace.record("solver", episode, step_i, evaluations=result.evaluations)
        else:
            # the policy's weights trade as they are: no divergence, no control
            a_final, jsd, adjustment = a_rl, 0.0, 0.0
        if trace:
            trace.record("compose", episode, step_i, a_final=a_final.copy())

        obs, growth, done = env.step(a_final)
        if trace:
            trace.record("execute", episode, step_i, growth=growth)

        equity.append(env.state.capital)
        growths.append(growth)
        jsds.append(jsd)
        adjustments.append(adjustment)
        if cov is not None:
            risks.append(sigma_alpha_value(a_final, cov))

        if learner is not None and len(buffer) >= max(config.agent.warmup, config.agent.batch_size):
            learner.update(buffer)
            if trace:
                trace.record("rl_update", episode, step_i)

        if buffer is not None:
            r_prev = per_step_reward(growth, a_rl, a_final, reward_cfg)
        o_prev, a_rl_prev, a_final_prev = o_t, a_rl, a_final
        step_i += 1

    if learner is not None and tier == "triple":
        # the days the pass stored, from the first one through the last
        observer.update(
            relatives[env.start_day - 1 : env.end_day],
            realized_risk=np.asarray(risks) if risks else None,
        )
        if trace:
            trace.record("observer_update", episode, -1)

    return PassResult(
        equity=np.asarray(equity),
        risks=np.asarray(risks),
        adjustments=np.asarray(adjustments),
        j=float(episode_reward(growths, jsds, env.c0, reward_cfg).j),
    )


# -- train ---------------------------------------------------------------


@dataclass
class TrainResult:
    agent: Td3Agent  # best checkpoint by validation objective
    observer: object
    curves: list[dict]
    best_episode: int
    buffer: ReplayBuffer
    config_hash: str
    seed: int

    def report_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "best_episode": self.best_episode,
            "curves": self.curves,
        }


def train(
    config: RunConfig,
    series: OhlcvSeries | None = None,
    seed: int | None = None,
    trace: CallTrace | None = None,
) -> TrainResult:
    """Train the tier named by the config on the train split, selecting the
    checkpoint with the best validation objective."""
    t0 = time.monotonic()
    seed = config.seed if seed is None else seed
    if series is None:
        series = config.load_series()
    train_seg, val_seg, _ = split_indices(series.n_days, config.splits)
    if train_seg[1] - train_seg[0] < config.env.window + 3:
        raise DataSplitTooSmall(f"train segment {train_seg} too short")

    ss = np.random.SeedSequence(seed)
    agent_seed, buffer_seed, solver_seed, observer_seed = [
        int(c.generate_state(1)[0]) for c in ss.spawn(4)
    ]
    obs_dim = observation_dim(config.env.window, series.n_assets)
    agent = Td3Agent(obs_dim, series.n_assets, config.agent, seed=agent_seed)
    buffer = ReplayBuffer(config.agent.buffer_capacity, obs_dim, series.n_assets, seed=buffer_seed)
    solver_rng = np.random.default_rng(solver_seed)
    observer = (
        make_observer(config.observer, seed=observer_seed)
        if config.tier == "triple"
        else None
    )

    has_val = val_seg[1] - val_seg[0] > 0
    curves = []
    best_j = -np.inf
    best_agent = agent.snapshot()
    best_episode = 0
    for episode in range(1, config.max_episode + 1):
        result = _run_pass(
            _agent_policy(agent, explore=True),
            series,
            config,
            train_seg,
            tier=config.tier,
            observer=observer,
            learner=agent,
            buffer=buffer,
            solver_rng=solver_rng,
            trace=trace,
            episode=episode,
        )
        if has_val:
            val = _run_pass(
                _agent_policy(agent, explore=False),
                series,
                config,
                val_seg,
                tier=config.tier,
                observer=observer,
                solver_rng=np.random.default_rng(solver_seed + episode),
            )
            val_j = val.j
        else:
            val_j = result.j
        curves.append({"episode": episode, "train_j": result.j, "val_j": val_j})
        if val_j > best_j:
            best_j = val_j
            best_agent = agent.snapshot()
            best_episode = episode
    log.info(
        "train tier=%s seed=%s episodes=%d best=%d took %.2fs",
        config.tier,
        seed,
        config.max_episode,
        best_episode,
        time.monotonic() - t0,
    )
    return TrainResult(
        agent=best_agent,
        observer=observer,
        curves=curves,
        best_episode=best_episode,
        buffer=buffer,
        config_hash=config.config_hash(),
        seed=seed,
    )


# -- backtest --------------------------------------------------------------


@dataclass
class BacktestResult:
    report: PerformanceReport
    risks: np.ndarray
    adjustments: np.ndarray
    config_hash: str
    seed: int

    def to_json_dict(self) -> dict:
        out = self.report.to_flat_dict()
        out["config_hash"] = self.config_hash
        out["seed"] = self.seed
        return out


def backtest(
    policy,
    series: OhlcvSeries,
    config: RunConfig,
    seg: tuple[int, int] | None = None,
    observer=None,
    seed: int | None = None,
    trace: CallTrace | None = None,
    tier: str | None = None,
) -> BacktestResult:
    """Deterministic evaluation of a trained agent or baseline strategy on a
    segment (default: the test split)."""
    seed = config.seed if seed is None else seed
    if seg is None:
        _, _, seg = split_indices(series.n_days, config.splits)
    if trace:
        trace.record("backtest", -1, -1)
    if isinstance(policy, baselines.Strategy):
        policy.reset(series.n_assets)

        def step(obs):
            return policy.step(obs.latest_relatives())

        tier, observer = "single", None
    else:
        step = _agent_policy(policy, explore=False)
        tier = tier or config.tier
    result = _run_pass(
        step,
        series,
        config,
        seg,
        tier=tier,
        observer=observer,
        solver_rng=np.random.default_rng(seed + 104729),
        trace=trace,
    )
    report = build_report(
        result.equity,
        result.risks,
        risk_free_rate=config.metrics.risk_free_rate,
        days_per_year=config.metrics.days_per_year,
    )
    return BacktestResult(
        report=report,
        risks=result.risks,
        adjustments=result.adjustments,
        config_hash=config.config_hash(),
        seed=seed,
    )


# -- compare / ablate ---------------------------------------------------------


def resolve_strategy(name: str, config: RunConfig) -> tuple[str, RunConfig, str]:
    """Map a strategy name to ("baseline"|tier, adjusted config, name without
    its ``-noact`` suffix)."""
    base = name
    cfg = config
    if base.endswith("-noact"):
        base = base[: -len("-noact")]
        cfg = replace(cfg, reward=RewardConfig(cfg.reward.lambda1, 0.0))
    if base in baselines.REGISTRY:
        return "baseline", cfg, base
    if base in ("single", "td3"):
        return "single", replace(cfg, tier="single"), base
    if base == "dual":
        return "dual", replace(cfg, tier="dual"), base
    if base == "triple":
        return "triple", replace(cfg, tier="triple"), base
    if base.startswith("triple-"):
        kind = base[len("triple-") :]
        obs_cfg = replace(cfg.observer, kind=kind)
        return "triple", replace(cfg, tier="triple", observer=obs_cfg), base
    raise ConfigError(f"unknown strategy {name!r}")


@dataclass
class ComparisonReport:
    rows: list[dict]  # sorted by sharpe descending
    p_values: dict
    reference: str
    seeds: list[int]
    config_hash: str
    split_hash: str
    curves: dict  # strategy -> {equity, risk, adjustment} (per-day means)

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "p_values": self.p_values,
            "reference": self.reference,
            "seeds": self.seeds,
            "config_hash": self.config_hash,
            "split_hash": self.split_hash,
            "curves": self.curves,
        }


def _mean_rows(name: str, reports: list[PerformanceReport]) -> dict:
    return {
        "strategy": name,
        "ar": float(np.mean([r.annualised_return for r in reports])),
        "mdd": float(np.mean([r.max_drawdown for r in reports])),
        "sharpe": float(np.mean([r.sharpe for r in reports])),
        "risk": float(np.mean([r.mean_short_term_risk for r in reports])),
        "vol": float(np.mean([r.volatility for r in reports])),
        "t_days": int(reports[0].trading_days),
    }


def compare(
    config: RunConfig,
    strategies=None,
    series: OhlcvSeries | None = None,
    trace: CallTrace | None = None,
) -> ComparisonReport:
    """Backtest every strategy over the config's seed list on shared data,
    with rank-sum significance against the reference row."""
    t0 = time.monotonic()
    if series is None:
        series = config.load_series()
    strategies = list(strategies if strategies is not None else config.strategies)
    if not strategies:
        raise ConfigError("no strategies to compare")
    seeds = [config.seed + i for i in range(config.runs)]
    bounds = split_indices(series.n_days, config.splits)
    test_seg = bounds[2]

    rows = []
    pooled: dict[str, np.ndarray] = {}
    curves = {}
    for name in strategies:
        kind, cfg, base = resolve_strategy(name, config)
        reports, returns_pool, eq_list, risk_list, adj_list = [], [], [], [], []
        for s in seeds:
            if kind == "baseline":
                policy = baselines.make_strategy(base)
                result = backtest(policy, series, cfg, seg=test_seg, seed=s, trace=trace)
            else:
                trained = train(cfg, series=series, seed=s, trace=trace)
                result = backtest(
                    trained.agent,
                    series,
                    cfg,
                    seg=test_seg,
                    observer=trained.observer,
                    seed=s,
                    trace=trace,
                    tier=cfg.tier,
                )
            reports.append(result.report)
            returns_pool.append(result.report.daily_returns)
            eq_list.append(result.report.equity_curve[1:])
            risk_list.append(result.risks)
            adj_list.append(result.adjustments)
        rows.append(_mean_rows(name, reports))
        pooled[name] = np.concatenate(returns_pool)
        curves[name] = {
            "equity": [float(x) for x in np.mean(eq_list, axis=0)],
            "risk": [float(x) for x in np.mean(risk_list, axis=0)],
            "adjustment": [float(x) for x in np.mean(adj_list, axis=0)],
        }

    reference = config.reference
    if reference is None or reference not in strategies:
        triples = [s for s in strategies if s.startswith("triple")]
        reference = triples[0] if triples else strategies[0]
    p_values = {}
    for name in strategies:
        result = wilcoxon_rank_sum(pooled[name], pooled[reference])
        p_values[name] = result.p_value
    rows.sort(key=lambda r: -r["sharpe"])
    log.info("compare %d strategies x %d seeds took %.2fs", len(strategies), len(seeds), time.monotonic() - t0)
    return ComparisonReport(
        rows=rows,
        p_values=p_values,
        reference=reference,
        seeds=seeds,
        config_hash=config.config_hash(),
        split_hash=split_hash(series, bounds),
        curves=curves,
    )


ABLATION_ROWS = (
    "single",
    "dual",
    "triple-dc-noact",
    "triple-dc",
    "triple-mlp-noact",
    "triple-mlp",
)


def ablate(config: RunConfig, series: OhlcvSeries | None = None, trace: CallTrace | None = None) -> ComparisonReport:
    """Tier/reward ablation matrix on shared data splits: the two lower
    tiers plus both observers with and without the divergence reward."""
    if series is None:
        series = config.load_series()
    cfg = config if config.reference else replace(config, reference="triple-dc")
    return compare(cfg, strategies=list(ABLATION_ROWS), series=series, trace=trace)


# -- report emission -----------------------------------------------------------


def _dump_json(payload: dict, path):
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write report {path}: {exc}") from exc


def emit_report(report: ComparisonReport, formats, out_dir, prefix: str = "comparison") -> list[str]:
    """Serialise a comparison report; formats from {json, csv, plotdata}.

    JSON output is byte-deterministic for a fixed config and seed. The
    plotdata CSV is long-format (series, day, value) covering the equity,
    risk, and adjustment trajectories of every strategy.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(formats, str):
        formats = [formats]
    written = []
    for fmt in formats:
        if fmt == "json":
            path = out / f"{prefix}.json"
            _dump_json(report.to_json_dict(), path)
        elif fmt == "csv":
            path = out / f"{prefix}.csv"
            lines = ["strategy,ar,mdd,sharpe,risk"]
            for row in report.rows:
                lines.append(
                    f"{row['strategy']},{row['ar']!r},{row['mdd']!r},"
                    f"{row['sharpe']!r},{row['risk']!r}"
                )
            _write_text(path, "\n".join(lines) + "\n")
        elif fmt == "plotdata":
            path = out / f"{prefix}_plotdata.csv"
            lines = ["series,day,value"]
            for name in sorted(report.curves):
                series_curves = report.curves[name]
                for kind in PLOT_SERIES_KINDS:
                    for day, value in enumerate(series_curves[kind], start=1):
                        lines.append(f"{name}/{kind},{day},{value!r}")
            _write_text(path, "\n".join(lines) + "\n")
        else:
            raise ConfigError(f"unknown report format {fmt!r}")
        written.append(str(path))
    return written


def _write_text(path, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write report {path}: {exc}") from exc


def observer_state(observer) -> dict | None:
    """JSON-safe snapshot of an observer's learned state."""
    if observer is None:
        return None
    if isinstance(observer, DcObserver):
        return {"kind": "dc", "base_risk": float(observer.base_risk)}
    if isinstance(observer, MlpObserver):
        return {
            "kind": "mlp",
            "params": [p.tolist() for p in observer.net.params()],
        }
    raise ConfigError(f"cannot serialise observer {type(observer).__name__}")


def observer_from_state(state: dict | None, config: ObserverConfig, seed: int = 0):
    if state is None:
        return None
    kind = state.get("kind")
    if kind != config.kind:
        config = replace(config, kind=kind)  # ConfigError for an unknown kind
    observer = make_observer(config, seed=seed)
    if kind == "dc":
        observer.base_risk = float(state["base_risk"])
    else:
        saved = state["params"]
        live = observer.net.params()
        if len(saved) != len(live):
            raise ConfigError("observer state does not match config dimensions")
        for p, s in zip(live, saved):
            arr = np.asarray(s, dtype=np.float64)
            if arr.shape != p.shape:
                raise ConfigError("observer state does not match config dimensions")
            p[:] = arr
    return observer


def save_train_artifacts(result: TrainResult, out_dir, config: RunConfig) -> dict:
    """Write the best-agent checkpoint and the training report."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "checkpoint.bin"
    save_agent(
        result.agent,
        ckpt,
        extra={
            "config": config.to_dict(),
            "best_episode": result.best_episode,
            "observer": observer_state(result.observer),
        },
    )
    report_path = out / "train_report.json"
    _dump_json(result.report_dict(), report_path)
    return {"checkpoint": str(ckpt), "report": str(report_path)}

"""Training and evaluation harness.

Wires the three agents through the trading environment with the per-step
order observer -> RL -> solver -> compose -> execute, feeds the two learners
(a replay ring for the RL agent, the pass's price relatives for the
observer), and provides train / backtest / compare / ablate plus deterministic report
serialisation.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines
from .config import TIERS, RunConfig, from_json
from .env import TradingEnv, observation_dim
from .errors import ConfigError, DataSplitTooSmall, IoFailure
from .market_data import OhlcvSeries, rolling_covariance
from .metrics import (
    PerformanceReport,
    build_report,
    sigma_alpha_value,
    uniform_weights,
    wilcoxon_rank_sum,
)
from .observer import (
    OBSERVER_KINDS,
    DcObserver,
    MlpObserver,
    ObserverConfig,
    make_observer,
    neutral_signal,
)
from .rl import (
    ReplayBuffer,
    RewardConfig,
    Td3Agent,
    episode_reward,
    jensen_shannon,
    load_agent,
    per_step_reward,
    save_agent,
)
from .solver import RiskControlProblem, propose_control

log = logging.getLogger("portagents")

PLOT_SERIES_KINDS = ("equity", "risk", "adjustment")
REPORT_FORMATS = ("json", "csv", "plotdata")


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
    """The pass's ``policy(obs, weights, history) -> weights`` for an agent,
    which reads only the observation."""
    return lambda obs, weights, history: agent.select_action(obs, explore=explore)


_TRAIN_PASS, _VALIDATION_PASS, _BACKTEST_PASS = range(3)  # the pass kinds of a solver key


def _run_pass(
    policy,
    series: OhlcvSeries,
    config: RunConfig,
    seg: tuple[int, int],
    *,
    tier: str,
    solver_key: tuple[int, int, int],
    observer=None,
    learner: Td3Agent | None = None,
    buffer: ReplayBuffer | None = None,
    trace: CallTrace | None = None,
    episode: int = -1,
) -> PassResult:
    """One full pass over a segment: ``policy(obs, weights, history) ->
    weights`` proposes, and the tier's solver and observer act on it. The
    policy gets the weights it proposed the day before (uniform on the first
    day) and the pass's price relatives from its first day through today.

    With a ``buffer`` the pass opens with the start tuple and stores each
    step's transition after that step's update; with a ``learner`` the agent
    also updates from the buffer after every step, and a triple tier's
    observer from the pass's price relatives at its end (training). Risk is
    tracked on every pass that does not learn, and on every tier above
    ``single``. A ``trace`` records each stage as it runs under its step
    index; the start tuple and the observer update record under step -1.

    The solver call of step i seeds its own DE generator with
    ``[*solver_key, i]``, so a call that stops early or runs no DE leaves the
    draws of the calls after it as they were. ``solver_key`` is
    (seed, pass kind, episode), with the kind one of ``_TRAIN_PASS``,
    ``_VALIDATION_PASS`` and ``_BACKTEST_PASS``: the training pass of an
    episode, the validation pass after it and a backtest get distinct keys
    by construction.
    """
    need_risk = tier != "single" or learner is None
    env = _env_for_segment(series, config, seg, need_risk=need_risk)
    k = config.metrics.cov_window
    reward_cfg = config.reward
    record = trace.record if trace is not None else lambda *args, **payload: None

    # row d-1 is day d's relatives; the observer reads them from the first
    # observable day (env.window) through today, the policy from the pass's
    # first day (env.start_day) through today
    relatives = series.relatives()

    obs = env.reset()
    a_rl = uniform_weights(env.n_assets)  # the policy's weights of the day before
    neutral = neutral_signal(config.observer.base_risk)  # every tier's signal but triple's
    if observer is not None:
        observer.reset()
    if buffer is not None:
        # the start tuple (o_0, uniform, uniform, o_0, 0): a zero-reward self-transition no trading day made
        buffer.push(obs, a_rl, obs, 0.0)
        record("store", episode, -1, obs_day=env.start_day, next_obs_day=env.start_day, a_final=a_rl, a_rl=a_rl, reward=0.0)

    equity = [env.c0]
    growths, jsds, risks, adjustments = [], [], [], []
    done = False
    step_i = 0
    while not done:
        day = env.state.day
        sig = neutral
        if tier == "triple":
            sig = observer.observe(relatives[config.env.window - 1 : day])
            record("observer", episode, step_i, sigma_s=sig.sigma_s)

        a_rl = policy(obs, a_rl, relatives[env.start_day - 1 : day])
        record("rl", episode, step_i, a_rl=a_rl)

        cov = None
        if need_risk:
            cov = rolling_covariance(series, t=day, k=k)
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
                seed=[*solver_key, step_i],
                population=config.solver.population,
                f=config.solver.f,
                cr=config.solver.cr,
                sigma_mode=config.solver.sigma_mode,
            )
            a_final = result.a_final
            jsd = jensen_shannon(a_rl, a_final)
            adjustment = float(np.abs(result.a_ctrl).sum())
            risks.append(result.achieved_risk)
            record("solver", episode, step_i, evaluations=result.evaluations)
        else:
            # the policy's weights trade as they are: no divergence, no control
            a_final, jsd, adjustment = a_rl, 0.0, 0.0
            if cov is not None:
                risks.append(sigma_alpha_value(a_final, cov))
        record("compose", episode, step_i, a_final=a_final)

        # today's v_m goes into tomorrow's observation: the policy reads it one step late
        next_obs, growth, done = env.step(a_final, sig.v_m)
        record("execute", episode, step_i, growth=growth)

        equity.append(env.state.capital)
        growths.append(growth)
        jsds.append(jsd)
        adjustments.append(adjustment)

        if learner is not None and len(buffer) >= max(config.agent.warmup, config.agent.batch_size):
            learner.update(buffer)
            record("rl_update", episode, step_i)

        if buffer is not None:
            reward = per_step_reward(growth, jsd, reward_cfg)
            buffer.push(obs, a_final, next_obs, reward)
            record(
                "store",
                episode,
                step_i,
                obs_day=day,
                next_obs_day=env.state.day,
                a_final=a_final,
                a_rl=a_rl,
                reward=reward,
            )
        obs = next_obs
        step_i += 1

    if learner is not None and tier == "triple":
        # the days the pass stored, from the first one through the last
        observer.update(
            relatives[env.start_day - 1 : env.end_day],
            realized_risk=np.asarray(risks) if risks else None,
        )
        record("observer_update", episode, -1)

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


def _check_training(series: OhlcvSeries, config: RunConfig) -> tuple[tuple[int, int], tuple[int, int], int]:
    """The config's (train, val) segments and the train segment's step count;
    DataSplitTooSmall if either segment is too short to step through, and
    ConfigError if the replay buffer never holds the warmup or a batch, so
    that either fails before any training."""
    train_seg, val_seg, _ = split_indices(series.n_days, config.splits)
    env = _env_for_segment(series, config, train_seg, need_risk=config.tier != "single")
    if val_seg[1] - val_seg[0] > 0:
        _env_for_segment(series, config, val_seg, need_risk=True)
    train_steps = env.end_day - env.start_day
    # each episode pushes its start tuple and one row a step, and the last
    # update check comes before the last step's push
    rows = config.max_episode * (train_steps + 1) - 1
    agent = config.agent
    for name in ("warmup", "batch_size"):
        if getattr(agent, name) > rows:
            raise ConfigError(
                f"agent.{name} {getattr(agent, name)} > the {rows} rows the replay buffer holds "
                f"by the last update ({config.max_episode} episodes of {train_steps} steps): "
                "TD3 would never update"
            )
    return train_seg, val_seg, train_steps


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
    train_seg, val_seg, train_steps = _check_training(series, config)
    has_val = val_seg[1] - val_seg[0] > 0

    ss = np.random.SeedSequence(seed)
    agent_seed, buffer_seed, solver_seed, observer_seed = [
        int(c.generate_state(1)[0]) for c in ss.spawn(4)
    ]
    obs_dim = observation_dim(config.env.window, series.n_assets)
    agent = Td3Agent(obs_dim, series.n_assets, config.agent, seed=agent_seed)
    # each episode pushes its start tuple and one row a step: a ring with more
    # rows than the run pushes never fills, so it is no larger
    capacity = min(config.agent.buffer_capacity, config.max_episode * (train_steps + 1))
    buffer = ReplayBuffer(capacity, obs_dim, series.n_assets, seed=buffer_seed)
    observer = (
        make_observer(config.observer, seed=observer_seed)
        if config.tier == "triple"
        else None
    )

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
            solver_key=(solver_seed, _TRAIN_PASS, episode),
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
                solver_key=(solver_seed, _VALIDATION_PASS, episode),
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
        tier, observer = "single", None
        step = lambda obs, weights, history: policy.step(weights, history)
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
        solver_key=(seed, _BACKTEST_PASS, 0),
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


def run_strategy(
    kind: str, cfg: RunConfig, base: str, series: OhlcvSeries, seg: tuple[int, int], seed: int, trace=None
) -> BacktestResult:
    """Backtest one strategy that :func:`resolve_strategy` resolved on a
    segment: a baseline as it is, a tier after training it with this seed
    (a segment too short to step through fails before the training)."""
    if kind == "baseline":
        return backtest(baselines.make_strategy(base), series, cfg, seg=seg, seed=seed, trace=trace)
    _env_for_segment(series, cfg, seg, need_risk=True)
    trained = train(cfg, series=series, seed=seed, trace=trace)
    return backtest(
        trained.agent, series, cfg, seg=seg, observer=trained.observer, seed=seed, trace=trace, tier=cfg.tier
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
    if base in TIERS:
        return base, replace(cfg, tier=base), base
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
        return asdict(self)


def _mean_rows(name: str, reports: list[PerformanceReport]) -> dict:
    """The report row of one strategy: each field of its seeds' reports
    averaged, but the trading days, which every seed shares."""
    flats = [r.to_flat_dict() for r in reports]
    means = {key: float(np.mean([f[key] for f in flats])) for key in flats[0]}
    return {"strategy": name, **means, "t_days": flats[0]["t_days"]}


def compare(
    config: RunConfig,
    strategies=None,
    series: OhlcvSeries | None = None,
    trace: CallTrace | None = None,
) -> ComparisonReport:
    """Backtest every strategy over the config's seed list on shared data,
    with rank-sum significance against the reference row."""
    t0 = time.monotonic()
    strategies = list(strategies if strategies is not None else config.strategies)
    if not strategies:
        raise ConfigError("no strategies to compare")
    repeated = sorted(name for name, n in Counter(strategies).items() if n > 1)
    if repeated:
        raise ConfigError(f"strategies {repeated} are listed more than once")
    resolved = [resolve_strategy(name, config) for name in strategies]
    reference = config.reference
    if reference is None:
        triples = [s for s in strategies if s.startswith("triple")]
        reference = triples[0] if triples else strategies[0]
    elif reference not in strategies:
        raise ConfigError(f"reference {reference!r} is none of the strategies {strategies}")
    if series is None:
        series = config.load_series()
    seeds = [config.seed + i for i in range(config.runs)]
    bounds = split_indices(series.n_days, config.splits)
    test_seg = bounds[2]
    # a split too short to step through fails before the first strategy runs
    _env_for_segment(series, config, test_seg, need_risk=True)
    for kind, cfg, _ in resolved:
        if kind != "baseline":
            _check_training(series, cfg)

    rows = []
    pooled: dict[str, np.ndarray] = {}
    curves = {}
    for name, (kind, cfg, base) in zip(strategies, resolved):
        reports, returns_pool, eq_list, risk_list, adj_list = [], [], [], [], []
        for s in seeds:
            result = run_strategy(kind, cfg, base, series, test_seg, s, trace)
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
    cfg = config if config.reference else replace(config, reference="triple-dc")
    return compare(cfg, strategies=list(ABLATION_ROWS), series=series, trace=trace)


# -- report emission -----------------------------------------------------------


def dump_json(payload: dict, path):
    """Write a JSON report with sorted keys; IoFailure if it cannot be written."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def emit_report(report: ComparisonReport, formats, out_dir, prefix: str = "comparison") -> list[str]:
    """Serialise a comparison report; formats from ``REPORT_FORMATS``, all
    checked before the first file is written.

    JSON output is byte-deterministic for a fixed config and seed. The
    plotdata CSV is long-format (series, day, value) covering the equity,
    risk, and adjustment trajectories of every strategy.
    """
    if isinstance(formats, str):
        formats = [formats]
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ConfigError(f"unknown report format {fmt!r}, expected one of {REPORT_FORMATS}")
    out = make_out_dir(out_dir)
    written = []
    for fmt in formats:
        if fmt == "json":
            path = out / f"{prefix}.json"
            dump_json(report.to_json_dict(), path)
        elif fmt == "csv":
            path = out / f"{prefix}.csv"
            lines = ["strategy,ar,mdd,sharpe,risk"]
            for row in report.rows:
                lines.append(
                    f"{row['strategy']},{row['ar']!r},{row['mdd']!r},"
                    f"{row['sharpe']!r},{row['risk']!r}"
                )
            _write_text(path, "\n".join(lines) + "\n")
        else:  # plotdata
            path = out / f"{prefix}_plotdata.csv"
            lines = ["series,day,value"]
            for name in sorted(report.curves):
                series_curves = report.curves[name]
                for kind in PLOT_SERIES_KINDS:
                    for day, value in enumerate(series_curves[kind], start=1):
                        lines.append(f"{name}/{kind},{day},{value!r}")
            _write_text(path, "\n".join(lines) + "\n")
        written.append(str(path))
    return written


def make_out_dir(path) -> Path:
    """Create an output directory and its parents; IoFailure if it cannot be made."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {out}: {exc}") from exc
    return out


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


@dataclass
class DcState:
    """Wire format of a DC observer's :func:`observer_state`."""

    kind: str
    base_risk: float


@dataclass
class MlpState:
    """Wire format of an MLP observer's :func:`observer_state`: each
    parameter array as nested lists."""

    kind: str
    params: list[list[list[float] | float]]


def observer_from_state(state: dict | None, config: ObserverConfig, seed: int = 0):
    """Rebuild the observer that :func:`observer_state` saved. A damaged
    state raises IoFailure, and parameters that do not fit the config's
    dimensions ConfigError."""
    if state is None:
        return None
    kind = state.get("kind") if isinstance(state, dict) else None
    if kind not in OBSERVER_KINDS:
        raise IoFailure(f"checkpoint observer state {state!r:.80} names no kind in {OBSERVER_KINDS}")
    try:
        saved = from_json(DcState if kind == "dc" else MlpState, state, "checkpoint extra.observer")
        # the saved DC base_risk goes through the config's range check
        config = replace(config, kind=kind, base_risk=getattr(saved, "base_risk", config.base_risk))
        arrays = [np.asarray(p, dtype=np.float64) for p in getattr(saved, "params", [])]
    except (ConfigError, ValueError) as exc:  # ValueError: a ragged array
        raise IoFailure(f"damaged checkpoint observer state: {exc}") from exc
    observer = make_observer(config, seed=seed)
    if kind == "mlp":
        live = observer.net.params()
        if [a.shape for a in arrays] != [p.shape for p in live]:
            raise ConfigError("observer state does not match config dimensions")
        for p, a in zip(live, arrays):
            p[:] = a
    return observer


def load_trained(path, config: RunConfig, series: OhlcvSeries) -> tuple[Td3Agent, object]:
    """The agent and observer of a :func:`save_train_artifacts` checkpoint,
    sized for the config and series; ConfigError if a triple tier's run
    config needs an observer the checkpoint does not hold."""
    obs_dim = observation_dim(config.env.window, series.n_assets)
    agent, extra = load_agent(path, obs_dim, series.n_assets, config.agent.hidden)
    observer = observer_from_state(extra.get("observer"), config.observer)
    if config.tier == "triple" and observer is None:
        raise ConfigError(f"checkpoint {path} holds no observer, which tier triple needs")
    if config.tier == "triple" and observer.config.kind != config.observer.kind:
        raise ConfigError(f"checkpoint {path} holds a {observer.config.kind} observer, "
                          f"the run config's observer.kind is {config.observer.kind}")
    return agent, observer


def save_train_artifacts(result: TrainResult, out_dir, config: RunConfig) -> dict:
    """Write the best-agent checkpoint and the training report."""
    out = make_out_dir(out_dir)
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
    dump_json(result.report_dict(), report_path)
    return {"checkpoint": str(ckpt), "report": str(report_path)}

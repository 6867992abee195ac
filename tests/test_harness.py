"""Harness: config plumbing, pipeline ordering, memory contents, reports."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import relatives_window
from portagents import baselines
from portagents.baselines import corn_weights, crp_weights, eg_update, olmar_update, pamr_update, rmr_update
from portagents.config import RunConfig
from portagents.env import build_observation
from portagents.errors import ConfigError, DataSplitTooSmall
from portagents.harness import (
    ABLATION_ROWS,
    CallTrace,
    _env_for_segment,
    ablate,
    backtest,
    compare,
    emit_report,
    observer_from_state,
    observer_state,
    resolve_strategy,
    save_train_artifacts,
    split_hash,
    split_indices,
    train,
)
from portagents.market_data import OhlcvSeries
from portagents.metrics import sigma_alpha_value, uniform_weights
from portagents.observer import DcObserver, MlpObserver, ObserverConfig
from portagents.rl import RewardConfig, episode_reward, jensen_shannon, load_agent, per_step_reward
from test_acceptance import PIPELINE_CONFIG
from test_relatives_oracle import ReturnsMatrix, returns_matrix
from test_relatives_oracle import old_rolling_covariance as rolling_covariance


def small_config(**over):
    base = {
        "data": {
            "synth": {
                "assets": 2,
                "seed": 11,
                "regimes": [
                    {"length": 120, "drift": 0.0004, "vol": 0.012, "corr": 0.2}
                ],
            }
        },
        "seed": 3,
        "runs": 1,
        "tier": "single",
        "max_episode": 1,
        "splits": [0.5, 0.2, 0.3],
        "agent": {"hidden": [8, 8], "warmup": 0, "batch_size": 8, "buffer_capacity": 512},
        "solver": {"budget": 60, "population": 10},
        "observer": {"kind": "dc", "lookback": 10, "risk_window": 10},
        "env": {"window": 6},
        "metrics": {"cov_window": 5},
    }
    base.update(over)
    return RunConfig.from_dict(base)


# -- config ----------------------------------------------------------------------


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        small_config(epochs=5)
    with pytest.raises(ConfigError):
        small_config(solver={"budget": 60, "swarm": 3})
    # knobs that had one value in use are gone
    for block, field in (("solver", "optimizer"), ("metrics", "sigma_beta"), ("metrics", "risk_mode")):
        with pytest.raises(ConfigError, match=f"unknown {block} fields"):
            small_config(**{block: {field: "norm"}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        small_config(tier="quad")
    with pytest.raises(ConfigError):
        small_config(splits=[0.5, 0.2, 0.2])
    with pytest.raises(ConfigError):
        small_config(max_episode=0)
    with pytest.raises(ConfigError):
        small_config(solver={"sigma_mode": "soft"})
    for observer in ({"kind": "none"}, {"kind": "xyz"}, {"lookback": 0}, {"kind": "mlp", "feature_window": 0}):
        with pytest.raises(ConfigError):
            small_config(tier="triple", observer=observer)
    with pytest.raises(ConfigError):
        resolve_strategy("triple-xyz", small_config())


def test_config_from_json_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"tier": "single", "data": {"synth": {"assets": 1, "regimes": [{"length": 30}]}}}))
    cfg = RunConfig.from_json_file(path)
    assert cfg.tier == "single"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(bad)
    with pytest.raises(ConfigError):
        RunConfig.from_json_file(tmp_path / "missing.json")


def test_config_hash_stable_and_sensitive():
    a, b = small_config(), small_config()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 16
    assert a.config_hash() != small_config(seed=4).config_hash()


def test_config_dict_roundtrip_preserves_hash():
    cfg = small_config(tier="triple")
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone.config_hash() == cfg.config_hash()


def test_split_indices_hand_case():
    assert split_indices(100, (0.5, 0.2, 0.3)) == ((0, 50), (50, 70), (70, 100))


def test_split_indices_partition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(10, 3000))
        raw = rng.dirichlet(np.ones(3))
        (a0, a1), (b0, b1), (c0, c1) = split_indices(n, raw)
        assert a0 == 0 and c1 == n
        assert a1 == b0 and b1 == c0
        assert a0 <= a1 <= b1 <= c1


def test_split_hash_depends_on_prices():
    cfg = small_config()
    series = cfg.load_series()
    bounds = split_indices(series.n_days, cfg.splits)
    assert split_hash(series, bounds) == split_hash(series, bounds)
    other = small_config(
        data={"synth": {"assets": 2, "seed": 12, "regimes": [{"length": 120, "vol": 0.012}]}}
    ).load_series()
    assert split_hash(series, bounds) != split_hash(other, bounds)


# -- training pipeline ---------------------------------------------------------------


def test_single_tier_buffer_size_and_counters():
    # one episode on the train split stores (days - window) transitions
    cfg = small_config()
    trace = CallTrace()
    result = train(cfg, trace=trace)
    train_days = split_indices(120, cfg.splits)[0][1]
    assert len(result.buffer) == train_days - cfg.env.window
    assert trace.counters["solver"] == 0
    assert trace.counters["observer"] == 0
    assert trace.counters["observer_update"] == 0
    assert trace.counters["rl"] > 0
    assert result.observer is None


def test_triple_tier_step_ordering():
    cfg = small_config(tier="triple")
    trace = CallTrace()
    train(cfg, trace=trace)
    assert trace.events[0][:3] == ("store", 1, -1)  # the start tuple opens the pass
    head = ["observer", "rl", "solver", "compose", "execute"]
    assert trace.stages_for(1, 0) == head + ["store"]  # buffer below batch size: no update yet
    assert trace.stages_for(1, 20) == head + ["rl_update", "store"]
    n_steps = trace.counters["rl"]
    assert trace.stages_for(1, n_steps - 1) == head + ["rl_update", "store"]  # the last step is stored
    assert trace.stages_for(1, n_steps) == []
    assert trace.stages_for(1, -1) == ["store", "observer_update"]
    assert trace.counters["store"] == n_steps + 1
    assert trace.counters["observer_update"] == 1


def test_stored_tuple_matches_pipeline_events():
    # buffer row t+1 holds step t's traded action, observation days and reward;
    # row 0 holds the start tuple
    cfg = small_config(tier="triple", max_episode=1)
    trace = CallTrace()
    buf = train(cfg, trace=trace).buffer
    series = cfg.load_series()
    train_seg = split_indices(series.n_days, cfg.splits)[0]
    start = _env_for_segment(series, cfg, train_seg, need_risk=True).start_day
    width = cfg.env.window * series.n_assets  # the relatives part of an observation

    def payload(stage, step):
        for e in trace.events:
            if e[0] == stage and e[1] == 1 and e[2] == step:
                return e[3]
        raise AssertionError(f"missing {stage}@{step}")

    def market_window(day):
        return build_observation(series, day, cfg.env.window)[:width]

    n_steps = trace.counters["rl"]
    assert len(buf) == n_steps + 1
    for t in range(n_steps):
        a_rl, a_final = payload("rl", t)["a_rl"], payload("compose", t)["a_final"]
        np.testing.assert_array_equal(buf.a_final[t + 1], a_final)
        expected_reward = per_step_reward(payload("execute", t)["growth"], jensen_shannon(a_rl, a_final), cfg.reward)
        assert buf.reward[t + 1, 0] == expected_reward
        np.testing.assert_array_equal(buf.obs[t + 1, :width], market_window(start + t))
        np.testing.assert_array_equal(buf.next_obs[t + 1, :width], market_window(start + t + 1))

    # the start tuple: a uniform action, zero reward, the first observation twice
    n = 2
    np.testing.assert_array_equal(buf.a_final[0], np.full(n, 0.5))
    assert buf.reward[0, 0] == 0.0
    np.testing.assert_array_equal(buf.obs[0], buf.next_obs[0])
    np.testing.assert_array_equal(buf.obs[0, :width], market_window(start))


def test_policy_reads_the_market_vector_one_step_late(monkeypatch):
    # step t's v_m goes into the observation of step t + 1: buffer row t + 1
    # holds step t - 1's v_m in obs (zeros at t = 0) and step t's in next_obs
    seen = []
    observe = DcObserver.observe

    def recording(self, relatives):
        sig = observe(self, relatives)
        seen.append(sig.v_m.copy())
        return sig

    monkeypatch.setattr(DcObserver, "observe", recording)
    buf = train(RunConfig.from_dict(PIPELINE_CONFIG)).buffer
    n_steps = len(buf) - 1
    v_m = seen[:n_steps]  # the training pass's steps; the validation pass follows
    assert any(not np.array_equal(a, b) for a, b in zip(v_m, v_m[1:]))  # the vector moves
    k = len(v_m[0])
    for t in range(n_steps):
        np.testing.assert_array_equal(buf.next_obs[t + 1, -k:], v_m[t])
        np.testing.assert_array_equal(buf.obs[t + 1, -k:], v_m[t - 1] if t else np.zeros(k))


def test_trace_does_not_change_a_run():
    cfg = small_config(tier="triple", max_episode=2)
    traced = train(cfg, trace=CallTrace())
    plain = train(cfg)
    for column in ("obs", "a_final", "next_obs", "reward"):
        assert getattr(traced.buffer, column).tobytes() == getattr(plain.buffer, column).tobytes()
    assert traced.agent.actor.flat.tobytes() == plain.agent.actor.flat.tobytes()
    assert traced.curves == plain.curves


def test_train_is_bit_deterministic(tmp_path):
    cfg = small_config(tier="triple", max_episode=2)
    a = train(cfg)
    b = train(cfg)
    assert a.curves == b.curves
    assert a.best_episode == b.best_episode
    pa = save_train_artifacts(a, tmp_path / "a", cfg)
    pb = save_train_artifacts(b, tmp_path / "b", cfg)
    with open(pa["checkpoint"], "rb") as fa, open(pb["checkpoint"], "rb") as fb:
        assert fa.read() == fb.read()
    with open(pa["report"], "rb") as fa, open(pb["report"], "rb") as fb:
        assert fa.read() == fb.read()


def test_checkpoint_roundtrip_restores_observer(tmp_path):
    cfg = small_config(tier="triple", max_episode=1)
    result = train(cfg)
    paths = save_train_artifacts(result, tmp_path, cfg)
    agent, extra = load_agent(paths["checkpoint"])
    assert extra["best_episode"] == result.best_episode
    restored = observer_from_state(extra["observer"], cfg.observer)
    assert isinstance(restored, DcObserver)
    assert restored.base_risk == pytest.approx(result.observer.base_risk)
    # restored agent backtests identically to the in-memory one
    series = cfg.load_series()
    r1 = backtest(result.agent, series, cfg, observer=result.observer)
    r2 = backtest(agent, series, cfg, observer=restored)
    assert r1.to_json_dict() == r2.to_json_dict()


def test_train_split_too_small():
    with pytest.raises(DataSplitTooSmall):
        train(small_config(splits=[0.05, 0.45, 0.5]))


# -- backtest ---------------------------------------------------------------------


def test_backtest_baseline_on_test_split():
    from portagents.baselines import make_strategy

    cfg = small_config()
    series = cfg.load_series()
    result = backtest(make_strategy("crp"), series, cfg)
    test_seg = split_indices(series.n_days, cfg.splits)[2]
    assert result.report.trading_days == test_seg[1] - 1 - test_seg[0]
    assert result.risks.size == result.report.trading_days
    assert np.all(result.adjustments == 0.0)
    payload = result.to_json_dict()
    for key in ("ar", "mdd", "sharpe", "risk", "config_hash", "seed"):
        assert key in payload


# The stateful day-by-day drivers as they stood before the baselines became
# stateless rules over the pass's relatives, kept verbatim as the oracle's
# strategies, but for the registry's name.


class Strategy:
    """Stateful day-by-day driver: feed today's relatives, get tomorrow's
    weights."""

    name = "base"

    def reset(self, n_assets: int):
        self.n = n_assets
        self.weights = uniform_weights(n_assets)

    def step(self, relatives: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Crp(Strategy):
    name = "crp"

    def step(self, relatives):
        return crp_weights(self.n)


class Eg(Strategy):
    name = "eg"

    def __init__(self, eta: float = 0.05):
        self.eta = eta

    def step(self, relatives):
        self.weights = eg_update(self.weights, relatives, eta=self.eta)
        return self.weights


class Olmar(Strategy):
    name = "olmar"

    def __init__(self, window: int = 5, epsilon: float = 10.0):
        self.window = window
        self.epsilon = epsilon

    def reset(self, n_assets):
        super().reset(n_assets)
        self.prices = [np.ones(n_assets)]

    def step(self, relatives):
        self.prices.append(self.prices[-1] * relatives)
        if len(self.prices) < self.window:
            return self.weights
        window = np.stack(self.prices[-self.window :])
        self.weights = olmar_update(self.weights, window, epsilon=self.epsilon)
        return self.weights


class Pamr(Strategy):
    name = "pamr"

    def __init__(self, epsilon: float = 0.5):
        self.epsilon = epsilon

    def step(self, relatives):
        self.weights = pamr_update(self.weights, relatives, epsilon=self.epsilon)
        return self.weights


class Rmr(Strategy):
    name = "rmr"

    def __init__(self, window: int = 5, epsilon: float = 5.0):
        self.window = window
        self.epsilon = epsilon

    def reset(self, n_assets):
        super().reset(n_assets)
        self.prices = [np.ones(n_assets)]

    def step(self, relatives):
        self.prices.append(self.prices[-1] * relatives)
        if len(self.prices) < self.window:
            return self.weights
        window = np.stack(self.prices[-self.window :])
        self.weights = rmr_update(self.weights, window, epsilon=self.epsilon)
        return self.weights


class Corn(Strategy):
    name = "corn"

    def __init__(self, window: int = 5, rho: float = 0.1):
        self.window = window
        self.rho = rho

    def reset(self, n_assets):
        super().reset(n_assets)
        self._rows = np.empty((64, n_assets))  # capacity doubles as days arrive
        self.days = 0

    def step(self, relatives):
        if self.days == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._rows[self.days] = relatives
        self.days += 1
        if self.days < 2 * self.window + 1:
            return uniform_weights(self.n)
        self.weights = corn_weights(
            self._rows[: self.days], window=self.window, rho=self.rho
        )
        return self.weights


OLD_DRIVERS = {cls.name: cls for cls in (Crp, Eg, Olmar, Pamr, Rmr, Corn)}


# The baseline pass loop as it stood before baselines ran through the agents'
# pass loop, kept verbatim (with the result type it returned) as the oracle;
# only its risk call lost the mode argument, as "norm" is the one risk left,
# and it reads today's relatives off the observation's window.


@dataclass
class PassResult:
    """Everything one pass through a segment produces."""

    equity: np.ndarray  # len steps+1, starts at c0
    growths: np.ndarray
    jsds: np.ndarray
    risks: np.ndarray  # sigma_alpha(a_final) per step (empty if not tracked)
    adjustments: np.ndarray  # sum |a_ctrl| per step
    daily_returns: np.ndarray
    j: float
    start_day: int
    end_day: int


def _episode_j(growths, jsds, c0, reward: RewardConfig) -> float:
    return float(episode_reward(growths, jsds, c0, reward).j)


def _run_strategy_pass(
    strategy: Strategy,
    series: OhlcvSeries,
    returns: ReturnsMatrix,
    config: RunConfig,
    seg: tuple[int, int],
    trace: CallTrace | None = None,
) -> PassResult:
    """Drive a baseline strategy through a segment."""
    env = _env_for_segment(series, config, seg, need_risk=True)
    k = config.metrics.cov_window
    strategy.reset(env.n_assets)
    obs = env.reset()
    equity = [env.c0]
    growths, risks = [], []
    done = False
    while not done:
        weights = strategy.step(relatives_window(obs, env.window, env.n_assets)[-1])
        cov = rolling_covariance(returns, t=env.state.day, k=k).matrix
        obs, growth, done = env.step(weights)
        equity.append(env.state.capital)
        growths.append(growth)
        risks.append(sigma_alpha_value(weights, cov))
    growths = np.asarray(growths)
    equity = np.asarray(equity)
    zeros = np.zeros_like(growths)
    return PassResult(
        equity=equity,
        growths=growths,
        jsds=zeros,
        risks=np.asarray(risks),
        adjustments=zeros,
        daily_returns=growths - 1.0,
        j=_episode_j(growths, zeros, env.c0, config.reward),
        start_day=env.start_day,
        end_day=env.end_day,
    )


@pytest.mark.parametrize("name", sorted(baselines.REGISTRY))
def test_baseline_backtest_byte_equal_to_strategy_pass(name):
    cfg = RunConfig.from_dict(PIPELINE_CONFIG)
    series = cfg.load_series()
    test_seg = split_indices(series.n_days, cfg.splits)[2]
    want = _run_strategy_pass(OLD_DRIVERS[name](), series, returns_matrix(series), cfg, test_seg)
    got = backtest(baselines.make_strategy(name), series, cfg)
    assert np.array_equal(got.report.equity_curve, want.equity)
    assert np.array_equal(got.risks, want.risks)
    assert np.array_equal(got.adjustments, want.adjustments)


# -- compare / ablate -----------------------------------------------------------------


def test_compare_runs_strategies_by_seed():
    cfg = small_config(runs=3)
    trace = CallTrace()
    report = compare(cfg, strategies=("crp", "eg"), trace=trace)
    assert trace.counters["backtest"] == 6  # 2 strategies x 3 seeds
    assert report.seeds == [3, 4, 5]
    assert [r["strategy"] for r in report.rows] == sorted(
        (r["strategy"] for r in report.rows),
        key=lambda name: -next(x["sharpe"] for x in report.rows if x["strategy"] == name),
    )
    sharpes = [r["sharpe"] for r in report.rows]
    assert sharpes == sorted(sharpes, reverse=True)
    assert report.reference == "crp"  # no triple row: first strategy
    assert set(report.p_values) == {"crp", "eg"}
    assert report.p_values["crp"] > 0.9  # reference against itself
    assert all(0.0 < p <= 1.0 for p in report.p_values.values())


def test_compare_is_deterministic():
    cfg = small_config(runs=2)
    a = compare(cfg, strategies=("crp", "pamr"))
    b = compare(cfg, strategies=("crp", "pamr"))
    assert a.to_json_dict() == b.to_json_dict()


def test_compare_curves_cover_test_days():
    cfg = small_config(runs=1)
    report = compare(cfg, strategies=("crp", "eg"))
    days = report.rows[0]["t_days"]
    for name in ("crp", "eg"):
        for kind in ("equity", "risk", "adjustment"):
            assert len(report.curves[name][kind]) == days


def test_ablation_matrix_rows_and_reference():
    cfg = small_config(
        runs=1,
        max_episode=1,
        solver={"budget": 40, "population": 8},
        observer={"kind": "dc", "lookback": 8, "risk_window": 8, "feature_window": 4},
    )
    series = cfg.load_series()
    report = ablate(cfg, series=series)
    assert sorted(r["strategy"] for r in report.rows) == sorted(ABLATION_ROWS)
    assert report.reference == "triple-dc"
    baseline_only = compare(cfg, strategies=("crp",), series=series)
    assert report.split_hash == baseline_only.split_hash


# -- emission --------------------------------------------------------------------


def test_emit_report_formats(tmp_path):
    cfg = small_config(runs=1)
    report = compare(cfg, strategies=("crp", "eg"))
    paths = emit_report(report, ["json", "csv", "plotdata"], tmp_path)
    assert [p.split("/")[-1] for p in paths] == [
        "comparison.json",
        "comparison.csv",
        "comparison_plotdata.csv",
    ]
    with open(paths[0]) as fh:
        assert json.load(fh) == report.to_json_dict()
    csv_lines = open(paths[1]).read().splitlines()
    assert csv_lines[0] == "strategy,ar,mdd,sharpe,risk"
    assert len(csv_lines) == 1 + len(report.rows)
    plot_lines = open(paths[2]).read().splitlines()
    assert plot_lines[0] == "series,day,value"
    days = report.rows[0]["t_days"]
    assert len(plot_lines) == 1 + 2 * days * 3  # strategies x days x kinds
    assert plot_lines[1].startswith("crp/equity,1,")


def test_emit_report_checks_every_format_before_writing(tmp_path):
    report = compare(small_config(runs=1), strategies=("crp",))
    with pytest.raises(ConfigError, match="cvs"):
        emit_report(report, ["json", "cvs"], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_emit_report_byte_deterministic(tmp_path):
    cfg = small_config(runs=1)
    report = compare(cfg, strategies=("crp",))
    pa = emit_report(report, "json", tmp_path / "a")
    pb = emit_report(report, "json", tmp_path / "b")
    with open(pa[0], "rb") as fa, open(pb[0], "rb") as fb:
        assert fa.read() == fb.read()
    with pytest.raises(ConfigError):
        emit_report(report, "yaml", tmp_path)


# -- strategy resolution / observer state ----------------------------------------------


def test_resolve_strategy_mapping():
    cfg = small_config()
    kind, out, name = resolve_strategy("eg", cfg)
    assert kind == "baseline" and out.tier == cfg.tier and name == "eg"
    kind, out, name = resolve_strategy("single", cfg)
    assert kind == "single" and out.tier == "single"
    kind, out, name = resolve_strategy("dual", cfg)
    assert kind == "dual" and out.tier == "dual"
    kind, out, name = resolve_strategy("triple-mlp", cfg)
    assert kind == "triple" and out.observer.kind == "mlp"
    kind, out, name = resolve_strategy("triple-dc-noact", cfg)
    assert out.reward.lambda2 == 0.0 and out.observer.kind == "dc"
    assert out.reward.lambda1 == cfg.reward.lambda1
    kind, out, name = resolve_strategy("pamr-noact", cfg)
    assert kind == "baseline" and out.reward.lambda2 == 0.0 and name == "pamr"
    for name in ("quad", "td3"):
        with pytest.raises(ConfigError):
            resolve_strategy(name, cfg)


def test_observer_state_roundtrip():
    assert observer_state(None) is None
    assert observer_from_state(None, ObserverConfig()) is None

    dc = DcObserver(ObserverConfig(kind="dc"))
    dc.base_risk = 0.042
    restored = observer_from_state(observer_state(dc), ObserverConfig(kind="dc"))
    assert restored.base_risk == pytest.approx(0.042)

    mlp = MlpObserver(ObserverConfig(kind="mlp", feature_window=4, hidden=6), seed=9)
    state = observer_state(mlp)
    restored = observer_from_state(
        state, ObserverConfig(kind="mlp", feature_window=4, hidden=6), seed=1
    )
    for a, b in zip(mlp.net.params(), restored.net.params()):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ConfigError):
        observer_from_state(state, ObserverConfig(kind="mlp", feature_window=9))

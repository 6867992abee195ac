"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test computes its result, prints a single [PASS]/[FAIL] line (visible
with -s), then asserts. Tolerances and runtime caps are part of the check.
"""

import itertools
import json
import time

import numpy as np

from portagents import nn
from portagents.baselines import (
    corn_weights,
    eg_update,
    make_strategy,
    olmar_update,
    pamr_update,
    rmr_update,
)
from portagents.config import RunConfig
from portagents.harness import CallTrace, compare, train
from portagents.market_data import rolling_covariance
from portagents.metrics import (
    check_weights,
    max_drawdown,
    sigma_alpha_value,
    wilcoxon_rank_sum,
)
from portagents.env import build_observation
from portagents.observer import DcObserver, dc_detect
from portagents.rl import (
    RewardConfig,
    episode_reward,
    jensen_shannon,
    per_step_reward,
)
from portagents.solver import (
    RiskControlProblem,
    differential_evolution,
    propose_control,
    simplex_repair,
)
from portagents.cli import main as cli_main
from helpers import random_psd, random_simplex, series_from_close


def verdict(ok: bool, label: str, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


# -- 1. gradient fidelity ------------------------------------------------------------


def test_01_gradient_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n_layers = int(rng.integers(1, 4))
        sizes = (
            [int(rng.integers(2, 9))]
            + [int(rng.integers(1, 65)) for _ in range(n_layers - 1)]
            + [int(rng.integers(1, 7))]
        )
        acts = [str(rng.choice(["relu", "tanh"])) for _ in range(n_layers - 1)]
        acts.append(str(rng.choice(["linear", "tanh"])))
        net = nn.DenseNet.create(sizes, acts, rng)
        x = rng.normal(size=(3, sizes[0]))
        g_out = rng.normal(size=(3, sizes[-1]))

        out, tape = nn.forward(net, x)
        param_grad, _ = nn.backward(net, tape, g_out)

        def loss() -> float:
            return float(np.sum(nn.forward(net, x)[0] * g_out))

        for p, g in zip(net.params(), net.views(param_grad)):
            flat, gflat = p.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
                worst = max(worst, rel)
    dt = time.monotonic() - t0
    ok = worst < 1e-4 and dt < 30.0
    verdict(ok, "1 gradient fidelity", f"max rel err {worst:.3e}, {dt:.1f}s")
    assert worst < 1e-4
    assert dt < 30.0


# -- 2. reward correctness -----------------------------------------------------------


def test_02_reward_correctness():
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    for _ in range(100):
        t_len = int(rng.integers(2, 41))
        n = int(rng.integers(2, 7))
        cfg = RewardConfig(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.0, 2.0)))
        c0 = float(rng.uniform(0.5, 5.0))
        growths = rng.uniform(0.9, 1.1, size=t_len)
        steps, jsds = [], []
        for g in growths:
            a_rl = random_simplex(rng, n)
            a_fin = random_simplex(rng, n)
            steps.append(per_step_reward(float(g), a_rl, a_fin, cfg))
            jsds.append(jensen_shannon(a_rl, a_fin))
        summary = episode_reward(growths, jsds, c0, cfg)
        identity = cfg.lambda1 * np.log(c0) / t_len + float(np.mean(steps))
        worst_gap = max(worst_gap, abs(summary.j - identity))
    agg_ok = worst_gap <= 1e-10

    ln2 = np.log(2.0)
    bounds_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        p, q = random_simplex(rng, n), random_simplex(rng, n)
        d = jensen_shannon(p, q)
        bounds_ok &= -1e-15 <= d <= ln2 + 1e-12
        bounds_ok &= jensen_shannon(p, p) < 1e-12
        if np.abs(p - q).sum() >= 0.05:
            bounds_ok &= d > 1e-12

    hand = episode_reward([1.1, 0.9], [0.0, 0.0], 1.0, RewardConfig(1.0, 0.5)).j
    hand_ok = abs(hand - (-0.005034)) <= 1e-5

    ok = agg_ok and bounds_ok and hand_ok
    verdict(ok, "2 reward correctness", f"agg gap {worst_gap:.2e}, hand {hand:.9f}")
    assert agg_ok
    assert bounds_ok
    assert hand_ok


# -- 3. solver soundness ----------------------------------------------------------


def test_03_solver_soundness():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)

    triggered = never_worse = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        cov = random_psd(rng, n)
        a_rl = random_simplex(rng, n)
        problem = RiskControlProblem(
            a_rl=a_rl, cov=cov, sigma_s=0.0, mu=float(rng.uniform(0.0, 0.3))
        )
        res = propose_control(
            problem, budget=400, seed=int(rng.integers(2**31)), sigma_mode="target"
        )
        if res.evaluations > 0:
            triggered += 1
            before = sigma_alpha_value(a_rl, cov)
            never_worse += res.achieved_risk <= before + 1e-12
    nw_ok = triggered > 0 and never_worse == triggered

    brute_ok = True
    worst_ratio = 0.0
    for _ in range(12):
        cov = random_psd(rng, 3)
        a_rl = random_simplex(rng, 3)
        res = propose_control(
            RiskControlProblem(a_rl=a_rl, cov=cov, sigma_s=0.0, mu=0.0),
            budget=4000,
            seed=int(rng.integers(2**31)),
            sigma_mode="target",
        )
        samples = rng.dirichlet(np.ones(3), size=1_000_000)
        brute = float(np.linalg.norm(samples @ cov.T, axis=1).min())
        worst_ratio = max(worst_ratio, res.achieved_risk / brute)
        brute_ok &= res.achieved_risk <= 1.05 * brute

    cov6 = random_psd(np.random.default_rng(33), 6)
    center = random_simplex(np.random.default_rng(34), 6)

    def objective(candidates):
        risks = np.linalg.norm(candidates @ cov6.T, axis=1)
        return risks + 0.5 * np.linalg.norm(candidates - center, axis=1)

    budget_ok = True
    for seed in range(20):
        lo = differential_evolution(objective, 6, budget=240, seed=seed)
        hi = differential_evolution(objective, 6, budget=1200, seed=seed)
        budget_ok &= hi.value <= lo.value + 1e-15

    dt = time.monotonic() - t0
    ok = nw_ok and brute_ok and budget_ok and dt < 300.0
    verdict(
        ok,
        "3 solver soundness",
        f"never-worse {never_worse}/{triggered}, brute ratio {worst_ratio:.4f}, {dt:.1f}s",
    )
    assert nw_ok
    assert brute_ok
    assert budget_ok
    assert dt < 300.0


# -- 4. projection exactness --------------------------------------------------------


def kkt_projection(v: np.ndarray) -> np.ndarray:
    """Active-set enumeration: try every support, keep the KKT-consistent one."""
    n = v.size
    best = None
    best_dist = np.inf
    for mask_bits in range(1, 2**n):
        support = [i for i in range(n) if mask_bits >> i & 1]
        tau = (v[support].sum() - 1.0) / len(support)
        x = np.zeros(n)
        x[support] = v[support] - tau
        if np.any(x[support] < -1e-12):
            continue
        off = [i for i in range(n) if not mask_bits >> i & 1]
        if off and np.any(v[off] - tau > 1e-12):
            continue
        dist = float(np.sum((x - v) ** 2))
        if dist < best_dist:
            best_dist, best = dist, x
    return best


def test_04_projection_exactness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        scale = float(rng.choice([1.0, 10.0]))
        v = rng.normal(0.0, scale, size=n)
        got = simplex_repair(v)
        want = kkt_projection(v)
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-9
    verdict(ok, "4 projection exactness", f"max diff {worst:.2e} on 1000 vectors")
    assert ok


# -- 5. metric oracles ---------------------------------------------------------------


def midranks(a: np.ndarray) -> np.ndarray:
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size)
    s = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and s[j + 1] == s[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def enumeration_p(x: np.ndarray, y: np.ndarray) -> float:
    pooled = np.concatenate([x, y])
    ranks = midranks(pooled)
    observed = ranks[: x.size].sum()
    sums = np.array(
        [ranks[list(c)].sum() for c in itertools.combinations(range(pooled.size), x.size)]
    )
    le = float(np.mean(sums <= observed + 1e-9))
    ge = float(np.mean(sums >= observed - 1e-9))
    return min(1.0, 2.0 * min(le, ge))


def test_05_metric_oracles():
    rng = np.random.default_rng(505)

    mdd_worst = 0.0
    for _ in range(100):
        curve = np.exp(np.cumsum(rng.normal(2e-4, 0.02, size=500)))
        got = max_drawdown(curve)
        ratio = 1.0 - curve[None, :] / curve[:, None]  # [i, j] = drawdown i -> j
        pairs = np.triu(ratio)
        oracle = max(0.0, float(pairs.max()))
        mdd_worst = max(mdd_worst, abs(got - oracle))
    mdd_ok = mdd_worst <= 1e-12

    wil_ok = True
    pairs_checked = 0
    for _ in range(60):
        n = int(rng.integers(3, 7))
        x = rng.integers(0, 8, size=n) / 2.0
        y = rng.integers(0, 8, size=n) / 2.0
        got = wilcoxon_rank_sum(x, y).p_value
        want = enumeration_p(x, y)
        wil_ok &= abs(got - want) <= 1e-12
        pairs_checked += 1

    cov_worst = 0.0
    for _ in range(20):
        t_len = int(rng.integers(30, 61))
        n = int(rng.integers(2, 6))
        close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(t_len, n)), axis=0))
        series = series_from_close(close)
        k = int(rng.integers(2, 10))
        t = int(rng.integers(k + 1, t_len - 1))
        got = rolling_covariance(series, t=t, k=k)
        rows = series.relatives()[t - 1 - k : t - 1] - 1.0
        dev = rows - rows.mean(axis=0)
        oracle = dev.T @ dev / (k - 1)
        cov_worst = max(cov_worst, float(np.abs(got - oracle).max()))
    cov_ok = cov_worst <= 1e-12

    ok = mdd_ok and wil_ok and cov_ok
    verdict(
        ok,
        "5 metric oracles",
        f"mdd gap {mdd_worst:.2e}, {pairs_checked} rank-sum pairs, cov gap {cov_worst:.2e}",
    )
    assert mdd_ok
    assert wil_ok
    assert cov_ok


# -- 6. directional-change state machine -------------------------------------------


def test_06_dc_state_machine():
    events = dc_detect([100.0, 103.0, 100.0, 104.0], theta=0.02)
    shape = [(e.kind, e.confirm_index, e.extreme_index) for e in events]
    hand_ok = shape == [("upturn", 1, 0), ("downturn", 2, 1), ("upturn", 3, 2)]
    mags = [e.magnitude for e in events]
    hand_ok &= abs(mags[0] - 0.03) <= 1e-12
    hand_ok &= abs(mags[1] - (1.0 - 100.0 / 103.0)) <= 1e-12
    hand_ok &= abs(mags[2] - 0.04) <= 1e-12

    rng = np.random.default_rng(606)
    walks_ok = True
    for _ in range(100):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=250)))
        theta = float(rng.uniform(0.005, 0.05))
        base = dc_detect(prices, theta)
        for a, b in zip(base, base[1:]):
            walks_ok &= a.kind != b.kind and a.confirm_index < b.confirm_index
        walks_ok &= all(e.magnitude >= theta - 1e-12 for e in base)
        scaled = dc_detect(prices * 731.0, theta)
        walks_ok &= [(e.kind, e.confirm_index, e.extreme_index) for e in base] == [
            (e.kind, e.confirm_index, e.extreme_index) for e in scaled
        ]
        walks_ok &= np.allclose(
            [e.magnitude for e in base], [e.magnitude for e in scaled], atol=1e-12
        )

    ok = hand_ok and walks_ok
    verdict(ok, "6 dc state machine", f"{len(events)} hand events, 100 walks")
    assert hand_ok
    assert walks_ok


# -- 7. pipeline conformance ---------------------------------------------------------


PIPELINE_CONFIG = {
    "data": {
        "synth": {
            "assets": 2,
            "seed": 11,
            "regimes": [{"length": 120, "drift": 0.0004, "vol": 0.012, "corr": 0.2}],
        }
    },
    "seed": 3,
    "tier": "triple",
    "max_episode": 1,
    "splits": [0.5, 0.2, 0.3],
    "agent": {"hidden": [8, 8], "warmup": 0, "batch_size": 8, "buffer_capacity": 512},
    "solver": {"budget": 40, "population": 8},
    "observer": {"kind": "dc", "lookback": 10, "risk_window": 10},
    "env": {"window": 6},
    "metrics": {"cov_window": 5},
}

PIPELINE_STAGES = ("observer", "rl", "solver", "compose", "execute")


def test_07_pipeline_conformance(monkeypatch):
    cfg = RunConfig.from_dict(PIPELINE_CONFIG)
    window = cfg.env.window
    trace = CallTrace()
    learnt_from = []
    update = DcObserver.update

    def recording(self, relatives, realized_risk=None):
        learnt_from.append(relatives.copy())
        return update(self, relatives, realized_risk=realized_risk)

    monkeypatch.setattr(DcObserver, "update", recording)
    result = train(cfg, trace=trace)
    series = cfg.load_series()
    n_steps = trace.counters["rl"]

    # each step runs the stages in order, updates once the buffer holds a
    # batch, and stores its transition last
    head = list(PIPELINE_STAGES)
    order_ok = n_steps > 0
    for t in range(n_steps):
        order_ok &= trace.stages_for(1, t) in (head + ["store"], head + ["rl_update", "store"])

    def payload(stage, step):
        for e in trace.events:
            if e[0] == stage and e[1] == 1 and e[2] == step:
                return e[3]
        raise AssertionError(f"missing {stage}@{step}")

    width = window * series.n_assets  # the relatives part of an observation

    def market_window(day):
        return build_observation(series, day, window).vector[:width]

    # replay memory: row 0 is the start tuple, row t+1 step t's transition,
    # each equal to the live pipeline values
    buf = result.buffer
    store_events = [e for e in trace.events if e[0] == "store" and e[1] == 1]
    steps = [step for _, _, step, _ in store_events]
    replay_ok = len(buf) == n_steps + 1 == len(store_events) and steps == list(range(-1, n_steps))
    start = store_events[0][3]
    replay_ok &= start["obs_day"] == start["next_obs_day"] and start["reward"] == 0.0
    replay_ok &= np.array_equal(start["a_rl"], np.full(series.n_assets, 1.0 / series.n_assets))
    replay_ok &= np.array_equal(start["a_final"], start["a_rl"])
    for i, (_, _, step, pay) in enumerate(store_events):
        replay_ok &= np.array_equal(buf.obs[i, :width], market_window(pay["obs_day"]))
        replay_ok &= np.array_equal(buf.next_obs[i, :width], market_window(pay["next_obs_day"]))
        replay_ok &= np.array_equal(buf.a_final[i], pay["a_final"])
        replay_ok &= buf.reward[i, 0] == pay["reward"]
        if step >= 0:
            replay_ok &= pay["obs_day"] == store_events[i - 1][3]["next_obs_day"]
            replay_ok &= pay["next_obs_day"] == pay["obs_day"] + 1
            expected = per_step_reward(
                payload("execute", step)["growth"],
                payload("rl", step)["a_rl"],
                payload("compose", step)["a_final"],
                cfg.reward,
            )
            replay_ok &= abs(buf.reward[i, 0] - expected) <= 1e-12
            replay_ok &= np.array_equal(pay["a_rl"], payload("rl", step)["a_rl"])
            replay_ok &= np.array_equal(buf.a_final[i], payload("compose", step)["a_final"])

    # observer memory: the training pass's update reads the relatives of the
    # stored days, in order
    relatives = series.relatives()
    stored = np.array([relatives[pay["next_obs_day"] - 1] for _, _, _, pay in store_events])
    observer_ok = len(learnt_from) == 1 and np.array_equal(learnt_from[0], stored)

    single_cfg = RunConfig.from_dict({**PIPELINE_CONFIG, "tier": "single"})
    single_trace = CallTrace()
    train(single_cfg, trace=single_trace)
    single_ok = (
        single_trace.counters["solver"] == 0 and single_trace.counters["observer"] == 0
    )

    ok = order_ok and replay_ok and observer_ok and single_ok
    verdict(
        ok,
        "7 pipeline conformance",
        f"{n_steps} steps ordered, {len(buf)} tuples matched, "
        f"single-tier solver/observer calls 0/0",
    )
    assert order_ok
    assert replay_ok
    assert observer_ok
    assert single_ok


# -- 8. directional risk ablation ---------------------------------------------------


ABLATION_CONFIG = {
    "data": {
        "synth": {
            "assets": 5,
            "seed": 77,
            "regimes": [
                {"length": 600, "drift": 0.0004, "vol": 0.008, "corr": 0.3},
                {"length": 150, "drift": -0.002, "vol": 0.035, "corr": 0.6},
            ],
        }
    },
    "seed": 0,
    "runs": 10,
    "max_episode": 6,
    "splits": [0.5, 0.2, 0.3],
    "agent": {
        "hidden": [32, 32],
        "warmup": 500,
        "batch_size": 64,
        "buffer_capacity": 20000,
    },
    "solver": {"budget": 300, "population": 20, "mu": 0.02, "sigma_mode": "target"},
    "observer": {
        "kind": "dc",
        "lookback": 63,
        "risk_window": 63,
        "base_risk_quantile": 0.25,
    },
    "env": {"window": 10},
    "metrics": {"cov_window": 21},
}


def test_08_directional_risk_ablation():
    # calm regime then a high-volatility crash; the crash sits in the test
    # split, so the risk boundary learned on calm data binds hard there
    t0 = time.monotonic()
    cfg = RunConfig.from_dict(ABLATION_CONFIG)
    report = compare(cfg, strategies=("single", "triple"))
    rows = {r["strategy"]: r for r in report.rows}
    dt = time.monotonic() - t0

    risk_ok = rows["triple"]["risk"] < rows["single"]["risk"]
    mdd_ok = rows["triple"]["mdd"] < rows["single"]["mdd"]
    p_value = report.p_values["single"]
    time_ok = dt < 1200.0

    ok = risk_ok and mdd_ok and time_ok
    verdict(
        ok,
        "8 directional risk ablation",
        f"risk {rows['triple']['risk']:.6f} < {rows['single']['risk']:.6f}, "
        f"mdd {rows['triple']['mdd']:.4f} < {rows['single']['mdd']:.4f}, "
        f"rank-sum p {p_value:.4f}, 10 seeds, {dt:.0f}s",
    )
    assert risk_ok
    assert mdd_ok
    assert 0.0 < p_value <= 1.0
    assert time_ok


# -- 9. CLI determinism -----------------------------------------------------------


def test_09_cli_determinism(tmp_path):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(PIPELINE_CONFIG))
    cp = str(config_path)

    def run(args):
        assert cli_main(args) == 0

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    checks = []

    run(["synth", "--config", cp, "--out", str(tmp_path / "a.csv")])
    run(["synth", "--config", cp, "--out", str(tmp_path / "b.csv")])
    checks.append(("synth", read(tmp_path / "a.csv") == read(tmp_path / "b.csv")))

    run(["train", "--config", cp, "--out", str(tmp_path / "t1")])
    run(["train", "--config", cp, "--out", str(tmp_path / "t2")])
    checks.append(
        (
            "train",
            read(tmp_path / "t1/checkpoint.bin") == read(tmp_path / "t2/checkpoint.bin")
            and read(tmp_path / "t1/train_report.json")
            == read(tmp_path / "t2/train_report.json"),
        )
    )

    ckpt = str(tmp_path / "t1/checkpoint.bin")
    run(["backtest", "--config", cp, "--checkpoint", ckpt, "--out", str(tmp_path / "b1")])
    run(["backtest", "--config", cp, "--checkpoint", ckpt, "--out", str(tmp_path / "b2")])
    checks.append(
        (
            "backtest",
            read(tmp_path / "b1/backtest_report.json")
            == read(tmp_path / "b2/backtest_report.json"),
        )
    )

    cargs = ["compare", "--config", cp, "--strategies", "crp,eg", "--formats", "json,csv,plotdata"]
    run(cargs + ["--out", str(tmp_path / "c1")])
    run(cargs + ["--out", str(tmp_path / "c2")])
    checks.append(
        (
            "compare",
            all(
                read(tmp_path / "c1" / name) == read(tmp_path / "c2" / name)
                for name in ("comparison.json", "comparison.csv", "comparison_plotdata.csv")
            ),
        )
    )

    run(["ablate", "--config", cp, "--formats", "json", "--out", str(tmp_path / "ab1")])
    run(["ablate", "--config", cp, "--formats", "json", "--out", str(tmp_path / "ab2")])
    checks.append(
        ("ablate", read(tmp_path / "ab1/ablation.json") == read(tmp_path / "ab2/ablation.json"))
    )

    ok = all(flag for _, flag in checks)
    verdict(ok, "9 cli determinism", ", ".join(f"{n} {'=' if f else '!='}" for n, f in checks))
    for name, flag in checks:
        assert flag, f"{name} outputs differ between identical runs"


# -- 10. baseline math -----------------------------------------------------------


def test_10_baseline_math():
    e6, e4 = np.exp(0.06), np.exp(0.04)
    eg_got = eg_update([0.5, 0.5], [1.2, 0.8], eta=0.05)
    eg_want = np.array([e6, e4]) / (e6 + e4)
    eg_ok = float(np.abs(eg_got - eg_want).max()) <= 1e-9

    pamr_got = pamr_update([0.5, 0.5], [1.2, 0.8], epsilon=0.95)
    pamr_ok = float(np.abs(pamr_got - [0.375, 0.625]).max()) <= 1e-9

    rng = np.random.default_rng(1010)
    steps_per_rule = 10_000
    checked = 0

    for name in ("crp", "eg", "pamr"):
        strategy = make_strategy(name)
        history = rng.uniform(0.7, 1.3, size=(steps_per_rule, 4))
        w = np.full(4, 0.25)
        for day in range(1, steps_per_rule + 1):
            w = strategy.step(w, history[:day])
            check_weights(w)
            checked += 1

    w = np.full(4, 0.25)
    for _ in range(steps_per_rule):
        window = rng.uniform(0.7, 1.3, size=(5, 4)).cumprod(axis=0)
        w = olmar_update(w, window, epsilon=float(rng.uniform(1.0, 5.0)))
        check_weights(w)
        checked += 1

    w = np.full(3, 1.0 / 3.0)
    for _ in range(steps_per_rule):
        window = rng.uniform(0.7, 1.3, size=(5, 3)).cumprod(axis=0)
        w = rmr_update(w, window, epsilon=float(rng.uniform(1.0, 5.0)))
        check_weights(w)
        checked += 1

    history = rng.uniform(0.85, 1.15, size=(25, 3))
    for _ in range(steps_per_rule):
        history = np.vstack([history[1:], rng.uniform(0.85, 1.15, size=(1, 3))])
        check_weights(corn_weights(history, window=5, rho=0.1))
        checked += 1

    ok = eg_ok and pamr_ok and checked == 6 * steps_per_rule
    verdict(ok, "10 baseline math", f"hand cases exact, {checked} valid updates")
    assert eg_ok
    assert pamr_ok
    assert checked == 6 * steps_per_rule

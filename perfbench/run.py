"""portagents benchmark: one workload per invocation, checked end to end.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload crash-overlay --seed 1 --seconds 60 --trace 0

Each run writes its inputs from ``--seed``, starts a warm-up interpreter
(bytecode compile, page cache), then repeats whole rounds of the workload's
commands while the next round is expected to end within ``--seconds``, with
at least two rounds. Every process in a round is a fresh interpreter
(`worker.py`) started one after the other, single-threaded BLAS. After the
rounds, every output is checked against recomputations in `checks.py`, and
every round's reports must be byte-identical to the first round's. Since every round does the same work,
step for step, ``wall_s`` adds up, over the work's segments between env
steps, each segment's median time across the rounds: a burst of load from
other tenants of the host then costs only the segments it hits in a
minority of rounds.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from spans import TRACED  # noqa: E402

WORKER_TIMEOUT_S = 170
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
MIN_TRACE_COVERAGE = 0.98  # share of a traced process's time that spans must cover

# The acceptance ablation's calm -> crash market (synth seed 77: 5 assets,
# 600 + 150 days) and its agent and solver settings. One training episode
# and a 200-step warm-up keep one compare to a few seconds while TD3 still
# updates. The benchmark seed sets the run seeds, so the market stays the
# paper's and the agents' draws vary. How often DE runs depends on those
# draws (220-300 of 725 solver calls), so a round compares CRASH_SEEDS run
# seeds, one after the other, as the ablation's ten seeds do.
CRASH_REGIMES = [
    {"length": 600, "drift": 0.0004, "vol": 0.008, "corr": 0.3},
    {"length": 150, "drift": -0.002, "vol": 0.035, "corr": 0.6},
]
CRASH_CONFIG = {
    "data": {"synth": {"assets": 5, "seed": 77, "regimes": CRASH_REGIMES}},
    "tier": "triple",
    "runs": 1,
    "max_episode": 1,
    "splits": [0.5, 0.2, 0.3],
    "agent": {"hidden": [32, 32], "warmup": 200, "batch_size": 64, "buffer_capacity": 20000},
    "solver": {"budget": 300, "population": 20, "mu": 0.02, "sigma_mode": "target"},
    "observer": {"kind": "dc", "lookback": 63, "risk_window": 63, "base_risk_quantile": 0.25},
    "env": {"window": 10},
    "metrics": {"cov_window": 21},
}
CRASH_SEEDS = 2
MLP_EPISODES = 6

# Checkpoint parity runs on this fixed two-asset config, whatever the seed:
# the MLP observer's last prediction survives into an in-process backtest
# but is not saved in the checkpoint, so the two reports differ while that
# fault lasts.
PARITY_CONFIG = {
    "data": {
        "synth": {
            "assets": 2,
            "seed": 11,
            "regimes": [{"length": 120, "drift": 0.0004, "vol": 0.012, "corr": 0.2}],
        }
    },
    "seed": 3,
    "runs": 1,
    "tier": "triple",
    "max_episode": 1,
    "splits": [0.5, 0.2, 0.3],
    "agent": {"hidden": [8, 8], "warmup": 0, "batch_size": 8, "buffer_capacity": 512},
    "solver": {"budget": 40, "population": 8},
    "observer": {"kind": "mlp", "lookback": 10, "risk_window": 10},
    "env": {"window": 6},
    "metrics": {"cov_window": 5},
}

# 20 assets over 1,000 days: a calm regime, then a volatile, correlated one
WIDE_ASSETS = 20
WIDE_REGIMES = [(700, 0.0003, 0.010, 0.3), (300, -0.0008, 0.022, 0.6)]
WIDE_STRATEGIES = "crp,eg,olmar,pamr,rmr,corn"
WIDE_CONFIG = {
    "runs": 1,
    "splits": [0.5, 0.2, 0.3],
    "env": {"window": 10, "c_tx": 0.001},
    "metrics": {"cov_window": 21},
}

WORKLOADS = ("crash-overlay", "mlp-wide")


def workload_seeds(workload: str, seed: int, runs: int = 1) -> tuple[int, list[int]]:
    """(data seed, run seeds) for one workload and benchmark seed."""
    state = np.random.SeedSequence([seed, WORKLOADS.index(workload)]).generate_state(1 + runs)
    return int(state[0]), [int(s) for s in state[1:]]


def wide_prices(seed: int) -> np.ndarray:
    """Geometric random-walk closes, (days, assets), one correlation per regime."""
    rng = np.random.default_rng(seed)
    n = WIDE_ASSETS
    drift_spread = rng.normal(0.0, 0.0002, n)
    vol_scale = rng.uniform(0.7, 1.4, n)
    closes = [rng.uniform(20.0, 200.0, n)]
    for length, drift, vol, corr in WIDE_REGIMES:
        c = np.full((n, n), corr)
        np.fill_diagonal(c, 1.0)
        z = rng.standard_normal((length, n)) @ np.linalg.cholesky(c).T
        sigma = vol * vol_scale
        factors = (1.0 + drift + drift_spread) * np.exp(sigma * z - 0.5 * sigma * sigma)
        closes.extend(closes[-1] * np.cumprod(factors, axis=0))
    return np.asarray(closes[: sum(r[0] for r in WIDE_REGIMES)])


def write_long_csv(path: Path, closes: np.ndarray):
    """date,asset,open,high,low,close rows; open is the previous close."""
    days, n = closes.shape
    assets = [f"S{j + 1:02d}" for j in range(n)]
    base = np.datetime64("2010-01-04")
    lines = ["date,asset,open,high,low,close"]
    for i in range(days):
        date = str(base + np.timedelta64(i, "D"))
        for j, asset in enumerate(assets):
            c = float(closes[i, j])
            o = float(closes[i - 1, j]) if i else c
            lines.append(f"{date},{asset},{o!r},{max(o, c)!r},{min(o, c)!r},{c!r}")
    path.write_text("\n".join(lines) + "\n")


def compare_command(config: str, strategies: str, out: Path) -> list[str]:
    return ["compare", "--config", config, "--strategies", strategies,
            "--formats", "json,csv,plotdata", "--out", str(out)]


def compare_violations(out: Path) -> tuple[dict, list[str]]:
    """A compare's JSON report, and what its files fail of the checks."""
    report = json.loads((out / "comparison.json").read_text())
    bad = checks.comparison_violations(report, c0=1.0)
    bad += checks.plotdata_violations((out / "comparison_plotdata.csv").read_text(), report)
    bad += checks.csv_violations((out / "comparison.csv").read_text(), report)
    return report, [f"{out.name}: {b}" for b in bad]


class Workload:
    """Inputs, the processes of one round, and the checks of one round."""

    def __init__(self, name: str, seed: int, inputs: Path):
        self.name = name
        self.inputs = inputs
        inputs.mkdir(parents=True)
        if name == "crash-overlay":
            _, run_seeds = workload_seeds(name, seed, CRASH_SEEDS)
            self.crash_paths = [
                self._write_config(f"crash{i}", {**CRASH_CONFIG, "seed": s}) for i, s in enumerate(run_seeds)
            ]
            return
        data_seed, (run_seed,) = workload_seeds(name, seed)
        mlp = {
            **CRASH_CONFIG,
            "seed": run_seed,
            "max_episode": MLP_EPISODES,
            "observer": {**CRASH_CONFIG["observer"], "kind": "mlp"},
        }
        self.mlp_path = self._write_config("mlp", mlp)
        self.parity_path = self._write_config("parity", PARITY_CONFIG)
        self.closes = wide_prices(data_seed)
        csv_path = inputs / "wide.csv"
        write_long_csv(csv_path, self.closes)
        wide = {**WIDE_CONFIG, "data": {"file": os.path.relpath(csv_path)}, "seed": run_seed}
        self.wide_path = self._write_config("wide", wide)

    def _write_config(self, name: str, config: dict) -> str:
        path = self.inputs / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return str(path)

    def processes(self, out: Path) -> list[list[list[str]]]:
        """Commands of one round, grouped by the interpreter that runs them."""
        if self.name == "crash-overlay":
            return [[
                compare_command(config, "single,triple", out / f"compare{i}")
                for i, config in enumerate(self.crash_paths)
            ]]
        main, parity = self.mlp_path, self.parity_path
        return [
            [
                ["train", "--config", main, "--out", str(out / "train")],
                ["inproc-backtest", main, str(out / "backtest_inproc")],
                ["train", "--config", parity, "--out", str(out / "parity_train")],
                ["inproc-backtest", parity, str(out / "parity_inproc")],
            ],
            [
                compare_command(self.wide_path, WIDE_STRATEGIES, out / "wide"),
                ["backtest", "--config", main, "--checkpoint", str(out / "train/checkpoint.bin"),
                 "--out", str(out / "backtest_checkpoint")],
                ["backtest", "--config", parity, "--checkpoint", str(out / "parity_train/checkpoint.bin"),
                 "--out", str(out / "parity_checkpoint")],
            ],
        ]

    def check(self, out: Path) -> tuple[int, list[str]]:
        """(operations failed, violations) for one round's outputs."""
        if self.name == "crash-overlay":
            return 0, [b for i in range(len(self.crash_paths)) for b in compare_violations(out / f"compare{i}")[1]]
        failed, bad = self._check_mlp(out)
        report, wide_bad = compare_violations(out / "wide")
        bad += wide_bad
        start, end = checks.test_start(
            self.closes.shape[0], WIDE_CONFIG["splits"], WIDE_CONFIG["env"]["window"],
            WIDE_CONFIG["metrics"]["cov_window"],
        )
        replay = checks.crp_replay(self.closes, start, end, WIDE_CONFIG["env"]["c_tx"])
        if not checks.same_curve(report["curves"]["crp"]["equity"], replay[1:]):
            bad.append("wide: crp equity curve differs from the replay from closes")
        return failed, bad

    def _check_mlp(self, out: Path) -> tuple[int, list[str]]:
        bad = []
        days = sum(r["length"] for r in CRASH_REGIMES)
        start, end = checks.test_start(days, CRASH_CONFIG["splits"], CRASH_CONFIG["env"]["window"],
                                       CRASH_CONFIG["metrics"]["cov_window"])
        train = json.loads((out / "train/train_report.json").read_text())
        if len(train["curves"]) != MLP_EPISODES or not 1 <= train["best_episode"] <= MLP_EPISODES:
            bad.append(f"train report has {len(train['curves'])} episodes, best {train['best_episode']}")
        for name in ("backtest_inproc", "backtest_checkpoint"):
            report = json.loads((out / name / "backtest_report.json").read_text())
            bad += [f"{name}: {b}" for b in checks.sharpe_violations(report)]
            if report["t_days"] != end - start:
                bad.append(f"{name}: t_days {report['t_days']} != {end - start}")
        inproc = json.loads((out / "parity_inproc/backtest_report.json").read_text())
        from_checkpoint = json.loads((out / "parity_checkpoint/backtest_report.json").read_text())
        return int(inproc != from_checkpoint), bad

    def operations_per_round(self) -> int:
        commands = sum(len(p) for p in self.processes(Path(".")))
        return commands + (self.name == "mlp-wide")  # + the parity comparison


def file_digests(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_process(commands, job_dir: Path, src: Path, trace: bool, env: dict) -> dict:
    job_dir.mkdir(parents=True)
    job = {
        "src": str(src),
        "trace": trace,
        "commands": commands,
        "result": str(job_dir / "result.json"),
        "spans_out": str(job_dir / "spans.npz"),
    }
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job))
    with open(job_dir / "log.txt", "w") as log:
        argv = [sys.executable, str(HERE / "worker.py"), str(job_path), repr(time.monotonic())]
        proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}; see {job_dir / 'log.txt'}")
    return json.loads((job_dir / "result.json").read_text())


def layer_metrics(procs: list[dict]) -> dict:
    """Per-layer figures of one round, summed over its processes."""
    spans = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    durations = defaultdict(list)
    totals = defaultdict(float)
    for p in procs:
        for name, s in p["trace"]["spans"].items():
            for key in s:
                spans[name][key] += s[key]
        for name, values in p["trace"]["durations"].items():
            durations[name] += values
        for key in ("solver_checked", "steps_checked", "de_calls", "evaluations", "infeasible_calls"):
            totals[key] += p["checks"][key]
        totals["work_s"] += p["wall_s"]
        totals["total_s"] += p["trace_total_s"]
        totals["self_sum_s"] += p["trace"]["self_sum_s"]

    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = spans[name]["calls"]
        out[f"{name}.busy_s"] = spans[name]["busy_s"]
    layer_self = defaultdict(float)
    for name, s in spans.items():
        layer_self[name.split(".")[0]] += s["self_s"]
    for layer in ("solver", "rl", "nn", "observer", "market_data", "env", "metrics",
                  "baselines", "harness", "cli", "bench", "import"):
        out[f"{layer}.self_s"] = layer_self[layer]
    out["observer.observe.calls"] = (
        spans["observer.DcObserver.observe"]["calls"] + spans["observer.MlpObserver.observe"]["calls"]
    )
    out["observer.update.busy_s"] = (
        spans["observer.DcObserver.update"]["busy_s"] + spans["observer.MlpObserver.update"]["busy_s"]
    )

    def ms(name, q):
        values = durations[name]
        return float(np.percentile(values, q) * 1000.0) if values else 0.0

    out["solver.propose_control.ms_p50"] = ms("solver.propose_control", 50)
    out["solver.propose_control.ms_p99"] = ms("solver.propose_control", 99)
    out["rl.Td3Agent.update.ms_p50"] = ms("rl.Td3Agent.update", 50)
    out["solver.de_calls"] = totals["de_calls"]
    out["solver.evaluations"] = totals["evaluations"]
    out["solver.infeasible_calls"] = totals["infeasible_calls"]
    out["check.propose_control.calls"] = totals["solver_checked"]
    out["check.env_step.calls"] = totals["steps_checked"]
    out["trace.work_s"] = totals["work_s"]
    out["trace.total_s"] = totals["total_s"]
    out["trace.self_sum_s"] = totals["self_sum_s"]
    out["trace.coverage"] = totals["self_sum_s"] / totals["total_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "portagents" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no portagents source tree and BENCHMARK.json under {root}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    env = {**os.environ, **SINGLE_THREAD_ENV}
    env.pop("PYTHONPATH", None)
    warm = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); import portagents.cli"],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if warm.returncode != 0:
        print(f"cannot import portagents:\n{warm.stderr}", file=sys.stderr)
        return 1

    work = root / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = Workload(args.workload, args.seed, work / "inputs")

    rounds = []  # per round: list of worker results
    started = time.monotonic()
    while True:
        out = work / f"round{len(rounds)}"
        t0 = time.monotonic()
        procs = [
            run_process(commands, out / f"proc{i}", src, trace, env)
            for i, commands in enumerate(workload.processes(out / "out"))
        ]
        rounds.append(procs)
        elapsed, last = time.monotonic() - started, time.monotonic() - t0
        if len(rounds) >= 2 and elapsed + last > args.seconds:
            break

    attempted = failed = 0
    violations = []
    first_digests = None
    for i, procs in enumerate(rounds):
        out = work / f"round{i}" / "out"
        exits = [code for p in procs for code in p["exits"]]
        attempted += workload.operations_per_round()
        failed += sum(code != 0 for code in exits)
        if any(exits):
            continue
        parity_failed, bad = workload.check(out)
        failed += parity_failed
        violations += [f"round {i}: {b}" for b in bad]
        digests = file_digests(out)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            changed = sorted(k for k in digests.keys() | first_digests.keys()
                             if digests.get(k) != first_digests.get(k))
            violations.append(f"round {i}: reports differ from round 0's: {changed}")
    steps = {tuple(p["steps"] for p in procs) for procs in rounds}
    if len(steps) != 1:
        violations.append(f"env step counts differ between rounds: {sorted(steps)}")

    if trace:
        per_round = [layer_metrics(procs) for procs in rounds]
        for procs in rounds:
            for p in procs:
                violations += p["checks"]["violations"]
                if p["checks"]["violation_count"] > len(p["checks"]["violations"]):
                    violations.append(f"... {p['checks']['violation_count']} property violations in all")
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        uneven = [name for name in values if name.endswith(".calls") and len({r[name] for r in per_round}) > 1]
        if uneven:
            violations.append(f"call counts differ between rounds: {uneven}")
        if values["trace.coverage"] < MIN_TRACE_COVERAGE:
            violations.append(f"spans cover only {values['trace.coverage']:.3f} of the traced time")
        imports = [p["trace"]["spans"]["import.portagents"]["busy_s"] for procs in rounds for p in procs]
        values["import.portagents_s"] = statistics.median(imports)
    else:
        walls = [sum(p["wall_s"] for p in procs) for procs in rounds]
        print(f"{args.workload} round walls: " + " ".join(f"{w:.3f}" for w in walls))
        if len(steps) == 1:  # the same segments in every round
            segments = np.array([[t for p in procs for t in p["segments"]] for procs in rounds])
            wall = float(np.median(segments, axis=0).sum())
        else:
            wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(p["setup_s"] for procs in rounds for p in procs),
            "wall_s": wall,
            "steps_per_s": statistics.median(sum(p["steps"] for p in procs) for procs in rounds) / wall,
            "peak_rss_mb": statistics.median(max(p["peak_rss_mb"] for p in procs) for procs in rounds),
        }

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"metric {m['name']} is not measured by this benchmark", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed, "
          f"{len(violations)} violations")
    result = {"correct": not violations, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""
Training the three-agent stack and comparing strategies
========================================================

End to end at toy scale: build a config, train the full three-agent
stack on the train split, backtest it against classic baselines on the
held-out test split, and serialise the comparison. Everything below is
also reachable through the command line (synth / train / backtest /
compare / ablate); the library calls are the same.
"""

import tempfile
from pathlib import Path

from portagents.config import RunConfig
from portagents.harness import backtest, compare, emit_report, train

config = RunConfig.from_dict(
    {
        "data": {
            "synth": {
                "assets": 3,
                "seed": 11,
                "regimes": [
                    {"length": 160, "drift": 0.0008, "vol": 0.01, "corr": 0.2},
                    {"length": 80, "drift": -0.001, "vol": 0.02, "corr": 0.5},
                ],
            }
        },
        "seed": 5,
        "runs": 2,
        "tier": "triple",
        "max_episode": 2,
        "splits": [0.5, 0.2, 0.3],
        "strategies": ["triple", "crp", "olmar", "pamr"],
        "agent": {"hidden": [16, 16], "warmup": 0, "batch_size": 16},
        "solver": {"budget": 80, "population": 10},
        "observer": {"kind": "dc", "lookback": 15},
        "env": {"window": 6},
        "metrics": {"cov_window": 10},
    }
)
print(f"config hash {config.config_hash()}")

series = config.load_series()
print(f"series {series.n_days} days x {series.n_assets} assets")

# one training run: TD3 proposes, the DE solver enforces the observer's
# boundary, and the executed trajectory feeds the replay buffer
trained = train(config, series=series)
for c in trained.curves:
    print(f"episode {c['episode']}: train J {c['train_j']:+.5f}  val J {c['val_j']:+.5f}")
print(f"best checkpoint: episode {trained.best_episode}, "
      f"{len(trained.buffer)} stored transitions")

# deterministic backtest of the selected checkpoint on the test split
result = backtest(
    trained.agent, series, config, observer=trained.observer, tier="triple"
)
flat = result.report.to_flat_dict()
print(f"test split: ar {flat['ar']:+.4f} mdd {flat['mdd']:.4f} "
      f"sharpe {flat['sharpe']:+.3f} over {flat['t_days']} days")
print(f"mean realised short-term risk {flat['risk']:.6f}")

# the comparison harness repeats that over config.runs seeds per strategy,
# averages the rows and attaches rank-sum p-values against the reference
# row (differences at this toy scale are well inside noise, as the p-values
# say; the ablate() entry point runs the full tier matrix instead)
report = compare(config, series=series)
print(f"\nstrategy     sharpe      ar     mdd      risk   p vs {report.reference}")
for row in report.rows:
    name = row["strategy"]
    print(f"{name:12s} {row['sharpe']:+.3f} {row['ar']:+.4f} {row['mdd']:.4f}"
          f"  {row['risk']:.6f}   {report.p_values[name]:.3f}")

# reports serialise to json/csv/plotdata, byte-identical for a fixed config
with tempfile.TemporaryDirectory() as tmp:
    paths = emit_report(report, ["json", "csv", "plotdata"], tmp)
    for p in paths:
        print(f"wrote {Path(p).name} ({Path(p).stat().st_size} bytes)")
    print(Path(paths[1]).read_text().splitlines()[0])

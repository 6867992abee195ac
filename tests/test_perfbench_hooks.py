"""Every function the benchmark traces or hooks still exists in the package.

perfbench wraps package functions and methods from outside, by module and
attribute path. Renaming or deleting one would otherwise only show up when a
traced benchmark run fails; these tests resolve each of them against the
source tree. They only read ``perfbench/``.
"""

import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

from portagents import harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()

# every patch("module", "attribute path") call in the worker and the probe
PATCHED = {
    m.groups()
    for name in ("worker.py", "spans.py")
    for m in re.finditer(r'patch\("([\w.]+)", "([\w.]+)"', (PERFBENCH / name).read_text())
}


def test_worker_hooks_are_found():
    assert {
        ("portagents.env", "TradingEnv.reset"),
        ("portagents.env", "TradingEnv.step"),
        ("portagents.harness", "train"),
    } <= PATCHED


@pytest.mark.parametrize("module,path", sorted(set(SPANS.TRACED.values()) | PATCHED))
def test_hook_point_resolves(module, path):
    owner, attr = SPANS._resolve(module, path)
    assert callable(owner.__dict__[attr])


def test_inprocess_backtest_names_exist():
    # perfbench/worker.py backtests the last training result in process
    assert {"observer", "tier"} <= set(inspect.signature(harness.backtest).parameters)
    assert {"agent", "observer"} <= {f.name for f in dataclasses.fields(harness.TrainResult)}
    assert callable(harness.BacktestResult.to_json_dict)
    assert callable(harness.RunConfig.from_json_file)
    assert callable(harness.RunConfig.load_series)

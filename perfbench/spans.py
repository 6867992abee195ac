"""Spans around portagents' public functions, installed from outside the package.

`install(recorder)` replaces each traced function or method with a wrapper
that records one span (name, start, end, parent span) per call, everywhere
the package binds it (``harness`` imports most functions by name). Spans are
kept in flat arrays while the program runs and summarised, or written out,
after it has finished.

`Probe` records what the property checks need from every `propose_control`
and `TradingEnv.step` call; `Probe.check()` runs them after the work so that
checking costs no traced or untraced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute path); the first dotted part of a span name
# is the layer its self time is charged to
TRACED = {
    "solver.propose_control": ("portagents.solver", "propose_control"),
    "solver.simplex_repair": ("portagents.solver", "simplex_repair"),
    "rl.Td3Agent.update": ("portagents.rl", "Td3Agent.update"),
    "rl.Td3Agent.select_action": ("portagents.rl", "Td3Agent.select_action"),
    "rl.Td3Agent.snapshot": ("portagents.rl", "Td3Agent.snapshot"),
    "rl.ReplayBuffer.push": ("portagents.rl", "ReplayBuffer.push"),
    "rl.ReplayBuffer.sample": ("portagents.rl", "ReplayBuffer.sample"),
    "rl.save_agent": ("portagents.rl", "save_agent"),
    "rl.load_agent": ("portagents.rl", "load_agent"),
    "nn.forward": ("portagents.nn", "forward"),
    "nn.backward": ("portagents.nn", "backward"),
    "nn.adam_step": ("portagents.nn", "adam_step"),
    "observer.DcObserver.observe": ("portagents.observer", "DcObserver.observe"),
    "observer.MlpObserver.observe": ("portagents.observer", "MlpObserver.observe"),
    "observer.DcObserver.update": ("portagents.observer", "DcObserver.update"),
    "observer.MlpObserver.update": ("portagents.observer", "MlpObserver.update"),
    "market_data.rolling_covariance": ("portagents.market_data", "rolling_covariance"),
    "market_data.load_ohlcv": ("portagents.market_data", "load_ohlcv"),
    "market_data.synth_from_spec": ("portagents.market_data", "synth_from_spec"),
    "env.TradingEnv.step": ("portagents.env", "TradingEnv.step"),
    "env.TradingEnv.reset": ("portagents.env", "TradingEnv.reset"),
    "env.build_observation": ("portagents.env", "build_observation"),
    "metrics.sigma_alpha_value": ("portagents.metrics", "sigma_alpha_value"),
    "metrics.build_report": ("portagents.metrics", "build_report"),
    "metrics.wilcoxon_rank_sum": ("portagents.metrics", "wilcoxon_rank_sum"),
    "baselines.crp.step": ("portagents.baselines", "Crp.step"),
    "baselines.eg.step": ("portagents.baselines", "Eg.step"),
    "baselines.olmar.step": ("portagents.baselines", "Olmar.step"),
    "baselines.pamr.step": ("portagents.baselines", "Pamr.step"),
    "baselines.rmr.step": ("portagents.baselines", "Rmr.step"),
    "baselines.corn.step": ("portagents.baselines", "Corn.step"),
    "baselines.log_wealth_weights": ("portagents.baselines", "log_wealth_weights"),
    "harness.train": ("portagents.harness", "train"),
    "harness.backtest": ("portagents.harness", "backtest"),
    "harness.compare": ("portagents.harness", "compare"),
    "harness.emit_report": ("portagents.harness", "emit_report"),
    "harness.save_train_artifacts": ("portagents.harness", "save_train_artifacts"),
    "harness.observer_from_state": ("portagents.harness", "observer_from_state"),
}

# span durations kept per call, for percentiles
DURATIONS_KEPT = ("solver.propose_control", "rl.Td3Agent.update")


class Recorder:
    """Spans in flat arrays: name id, start, end, parent index (-1 at the root)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_index(name)
        stack, ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int32),
        )

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, start=start, end=end, parent=parent)

    def summarize(self) -> dict:
        """Per span name: calls, busy_s (inclusive) and self_s; all self time; kept durations."""
        name_id, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        spans = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            spans[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        durations = {
            name: dur[name_id == self._ids[name]].tolist()
            for name in DURATIONS_KEPT
            if name in self._ids
        }
        return {"spans": spans, "self_sum_s": float(own.sum()), "durations": durations}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def patch(module_name: str, path: str, make_wrapper):
    """Replace a function or method by ``make_wrapper(original)``.

    A module-level function is replaced in every loaded ``portagents`` module
    that binds the same object, since modules import each other's functions
    by name.
    """
    owner, attr = _resolve(module_name, path)
    original = owner.__dict__[attr]
    wrapped = make_wrapper(original)
    if inspect.isclass(owner):
        setattr(owner, attr, wrapped)
        return
    for name, module in list(sys.modules.items()):
        if name == "portagents" or name.startswith("portagents."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def install(recorder: Recorder):
    for name, (module_name, path) in TRACED.items():
        patch(module_name, path, functools.partial(recorder.wrap, name))


class Probe:
    """Inputs and outputs of every solver call and env step, for `check`."""

    def __init__(self):
        self.solver_calls = []  # (a_rl, cov, sigma_s, budget, result)
        self.steps = []  # (pass id, day, action, growth)
        self.closes = {}  # pass id -> (close matrix, c_tx)
        self._passes = 0

    def install(self):
        probe = self

        def solver_wrapper(original):
            signature = inspect.signature(original)

            @functools.wraps(original)
            def probed(*args, **kwargs):
                result = original(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                problem = bound.arguments["problem"]
                probe.solver_calls.append(
                    (
                        np.array(problem.a_rl, dtype=np.float64),
                        np.array(problem.cov, dtype=np.float64),
                        float(problem.sigma_s),
                        int(bound.arguments["budget"]),
                        result,
                    )
                )
                return result

            return probed

        def reset_wrapper(original):
            @functools.wraps(original)
            def probed(env, *args, **kwargs):
                out = original(env, *args, **kwargs)
                probe._passes += 1
                env._perfbench_pass = probe._passes
                probe.closes[probe._passes] = (env.series.close, float(env.c_tx))
                return out

            return probed

        def step_wrapper(original):
            @functools.wraps(original)
            def probed(env, action, *args, **kwargs):
                day = env.state.day
                out = original(env, action, *args, **kwargs)
                probe.steps.append(
                    (env._perfbench_pass, day, np.array(action, dtype=np.float64), float(out[1]))
                )
                return out

            return probed

        patch("portagents.solver", "propose_control", solver_wrapper)
        patch("portagents.env", "TradingEnv.reset", reset_wrapper)
        patch("portagents.env", "TradingEnv.step", step_wrapper)

    def check(self) -> dict:
        """Run the properties; returns counts of calls checked and failures."""
        from checks import solver_call_violations, step_growth_violations

        solver_bad = []
        de_calls = evaluations = infeasible = 0
        for i, (a_rl, cov, sigma_s, budget, result) in enumerate(self.solver_calls):
            for problem in solver_call_violations(a_rl, cov, sigma_s, budget, result):
                solver_bad.append(f"propose_control call {i}: {problem}")
            de_calls += result.evaluations > 0
            evaluations += int(result.evaluations)
            infeasible += not result.feasible
        step_bad = step_growth_violations(self.steps, self.closes)
        return {
            "solver_checked": len(self.solver_calls),
            "steps_checked": len(self.steps),
            "de_calls": de_calls,
            "evaluations": evaluations,
            "infeasible_calls": infeasible,
            "violations": (solver_bad + step_bad)[:20],
            "violation_count": len(solver_bad) + len(step_bad),
        }

"""One benchmark process: run portagents CLI commands in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json SPAWNED

JOB.json names the source tree, the commands and where to write the result;
SPAWNED is the parent's ``time.monotonic()`` just before it started this
interpreter, so that set-up time includes interpreter start. Set-up ends
when the first trading pass begins (the first ``TradingEnv.reset``); the
work runs from there until the last command has written its reports. The
work is also cut into segments at the start of every ``TradingEnv.step``
call, so that the parent can compare the same piece of work across rounds.

A command is a ``portagents`` argv list, run through ``portagents.cli.main``,
or ``["inproc-backtest", CONFIG, OUT]``: a backtest, in this process, of the
agent and observer that the preceding ``train`` command produced, written as
``backtest --checkpoint`` writes its report.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Probe, Recorder, install, patch  # noqa: E402


class Marks:
    """Untraced hooks: start of the first pass, env steps and when each began,
    last training result."""

    def __init__(self):
        self.first_pass = None
        self.steps = 0
        self.stamps = []
        self.last_train = None

    def install(self):
        marks = self

        def on_reset(original):
            @functools.wraps(original)
            def hooked(*args, **kwargs):
                if marks.first_pass is None:
                    marks.first_pass = time.monotonic()
                return original(*args, **kwargs)

            return hooked

        def on_step(original):
            @functools.wraps(original)
            def hooked(*args, **kwargs):
                marks.steps += 1
                marks.stamps.append(time.monotonic())
                return original(*args, **kwargs)

            return hooked

        def on_train(original):
            @functools.wraps(original)
            def hooked(*args, **kwargs):
                marks.last_train = original(*args, **kwargs)
                return marks.last_train

            return hooked

        patch("portagents.env", "TradingEnv.reset", on_reset)
        patch("portagents.env", "TradingEnv.step", on_step)
        patch("portagents.harness", "train", on_train)


def inproc_backtest(marks: Marks, config_path: str, out_dir: str) -> int:
    from portagents import harness

    cfg = harness.RunConfig.from_json_file(config_path)
    trained = marks.last_train
    result = harness.backtest(trained.agent, cfg.load_series(), cfg, observer=trained.observer, tier=cfg.tier)
    payload = result.to_json_dict()
    payload["strategy"] = cfg.tier
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "backtest_report.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def main(job_path: str, spawned: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    recorder = Recorder() if job["trace"] else None

    def call(name, fn, *args):
        return recorder.wrap(name, fn)(*args) if recorder else fn(*args)

    t_import = time.monotonic()
    sys.path.insert(0, job["src"])
    cli = call("import.portagents", importlib.import_module, "portagents.cli")

    marks = Marks()
    marks.install()
    probe = None
    if recorder:
        install(recorder)
        probe = Probe()
        probe.install()

    exits = []
    for argv in job["commands"]:
        try:
            if argv[0] == "inproc-backtest":
                code = call("bench.inproc_backtest", inproc_backtest, marks, argv[1], argv[2])
            else:
                code = call("cli.main", cli.main, argv)
        except Exception:  # one failed command must not hide the others' results
            traceback.print_exc()
            code = -1
        exits.append(code)
    t_end = time.monotonic()

    first_pass = marks.first_pass if marks.first_pass is not None else t_end
    result = {
        "exits": exits,
        "setup_s": first_pass - spawned,
        "wall_s": t_end - first_pass,
        "steps": marks.steps,
        "segments": [b - a for a, b in zip([first_pass] + marks.stamps, marks.stamps + [t_end])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder:
        result["trace_total_s"] = t_end - t_import
        result["trace"] = recorder.summarize()
        result["checks"] = probe.check()
        recorder.save(job["spans_out"])
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))

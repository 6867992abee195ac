"""Command-line entry points.

Subcommands: synth, train, backtest, compare, ablate. Every command is
driven by a single JSON config file and a seed, and re-running a command
with the same inputs produces byte-identical outputs.

Exit codes: 0 on success, 2 for configuration problems, 3 for data problems.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import harness
from .errors import ConfigError, DataError
from .config import DataBlock, RunConfig, from_json
from .market_data import synth_from_spec, write_ohlcv_csv

log = logging.getLogger("portagents")

LOG_LEVEL_VAR = "PORTAGENTS_LOG_LEVEL"


def _setup_logging():
    level_name = os.environ.get(LOG_LEVEL_VAR, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json_file(args.config)
    if getattr(args, "seed", None) is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    # the whole block is checked, but a data.file beside data.synth is not read
    data = from_json(DataBlock, cfg.data, "data")
    if data.synth is None:
        raise ConfigError("synth command needs a data.synth block in the config")
    series = synth_from_spec(data.synth)
    out = Path(args.out)
    harness.make_out_dir(out.parent)
    write_ohlcv_csv(series, out)
    print(f"wrote {series.n_days} days x {series.n_assets} assets to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    harness.make_out_dir(args.out)
    result = harness.train(cfg)
    paths = harness.save_train_artifacts(result, args.out, cfg)
    print(f"checkpoint: {paths['checkpoint']}")
    print(f"report: {paths['report']}")
    print(f"best episode: {result.best_episode}")
    return 0


def cmd_backtest(args) -> int:
    cfg = _load_config(args)
    strategy = args.strategy or cfg.tier
    kind, cfg, name = harness.resolve_strategy(strategy, cfg)
    if kind == "baseline" and args.checkpoint:
        raise ConfigError(f"--checkpoint holds an agent, which baseline strategy {strategy!r} cannot use")
    series = cfg.load_series()
    out = harness.make_out_dir(args.out)

    test_seg = harness.split_indices(series.n_days, cfg.splits)[2]
    if args.checkpoint:
        agent, observer = harness.load_trained(args.checkpoint, cfg, series)
        result = harness.backtest(agent, series, cfg, seg=test_seg, observer=observer, tier=cfg.tier)
    else:
        result = harness.run_strategy(kind, cfg, name, series, test_seg, cfg.seed)

    payload = result.to_json_dict()
    payload["strategy"] = strategy
    path = out / "backtest_report.json"
    harness.dump_json(payload, path)
    print(f"report: {path}")
    print(
        f"{strategy}: ar={payload['ar']:.6f} mdd={payload['mdd']:.6f} "
        f"sharpe={payload['sharpe']:.6f} risk={payload['risk']:.6f}"
    )
    return 0


def _formats(args) -> list[str]:
    """The ``--formats`` list, checked before any work is done."""
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    if not formats or not set(formats) <= set(harness.REPORT_FORMATS):
        raise ConfigError(f"--formats {args.formats!r} must list report formats from {harness.REPORT_FORMATS}")
    return formats


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    formats = _formats(args)
    strategies = None
    if args.strategies:
        strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    harness.make_out_dir(args.out)
    report = harness.compare(cfg, strategies=strategies)
    written = harness.emit_report(report, formats, args.out, prefix="comparison")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    formats = _formats(args)
    harness.make_out_dir(args.out)
    report = harness.ablate(cfg)
    written = harness.emit_report(report, formats, args.out, prefix="ablation")
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portagents",
        description="Multi-agent portfolio backtesting toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, out_default="runs"):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if needs_out:
            p.add_argument("--out", default=out_default, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic OHLCV CSV")
    common(p, needs_out=False)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the configured tier")
    common(p, out_default="runs/train")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="evaluate on the test split")
    common(p, out_default="runs/backtest")
    p.add_argument("--checkpoint", default=None, help="trained agent checkpoint")
    p.add_argument(
        "--strategy",
        default=None,
        help="baseline name or tier (default: config tier)",
    )
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("compare", help="compare strategies on shared data")
    common(p, out_default="runs/compare")
    p.add_argument("--strategies", default=None, help="comma-separated names")
    p.add_argument("--formats", default="json,csv", help="json,csv,plotdata")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="tier and reward ablation matrix")
    common(p, out_default="runs/ablate")
    p.add_argument("--formats", default="json,csv", help="json,csv,plotdata")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

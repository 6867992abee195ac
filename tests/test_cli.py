"""End-to-end CLI runs: exit codes, artifacts, byte-stable re-runs."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import portagents
from portagents import harness
from portagents.cli import main
from portagents.config import RunConfig
from portagents.env import TradingEnv
from portagents.errors import NonPositivePrice
from portagents.harness import backtest, observer_from_state
from portagents.market_data import load_ohlcv
from portagents.rl import Td3Agent, load_agent
from test_acceptance import PIPELINE_CONFIG
from test_golden import GOLDEN

CONFIG = {
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
    "observer": {"kind": "dc", "lookback": 10, "risk_window": 10},
    "env": {"window": 6},
    "metrics": {"cov_window": 5},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_synth_writes_loadable_csv(config_path, tmp_path, capsys):
    out = tmp_path / "prices.csv"
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
    assert "wrote 120 days x 2 assets" in capsys.readouterr().out
    series = load_ohlcv(out)
    assert series.n_days == 120
    assert series.n_assets == 2
    first = read_bytes(out)
    main(["synth", "--config", config_path, "--out", str(out)])
    assert read_bytes(out) == first


def test_synth_writes_the_synth_block_beside_a_file(config_path, tmp_path, capsys):
    # a data block with both: the run commands read the file, synth writes data.synth
    small = tmp_path / "small.csv"
    rows = "".join(f"2020-01-0{d},X,{d},{d},{d},{d}\n" for d in range(1, 6))
    small.write_text("date,asset,open,high,low,close\n" + rows)
    both = tmp_path / "both.json"
    both.write_text(json.dumps({**CONFIG, "data": {**CONFIG["data"], "file": str(small)}}))
    assert RunConfig.from_json_file(both).load_series().n_days == 5
    assert main(["synth", "--config", config_path, "--out", str(tmp_path / "synth.csv")]) == 0
    capsys.readouterr()
    assert main(["synth", "--config", str(both), "--out", str(tmp_path / "both.csv")]) == 0
    assert "wrote 120 days x 2 assets" in capsys.readouterr().out
    assert read_bytes(tmp_path / "both.csv") == read_bytes(tmp_path / "synth.csv")


def test_train_then_backtest_from_checkpoint(config_path, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert main(["train", "--config", config_path, "--out", str(train_dir)]) == 0
    ckpt = train_dir / "checkpoint.bin"
    assert ckpt.exists()
    report = json.loads(read_bytes(train_dir / "train_report.json"))
    assert report["seed"] == 3
    assert len(report["curves"]) == CONFIG["max_episode"]

    bt_dir = tmp_path / "bt"
    code = main(
        [
            "backtest",
            "--config",
            config_path,
            "--checkpoint",
            str(ckpt),
            "--out",
            str(bt_dir),
        ]
    )
    assert code == 0
    payload = json.loads(read_bytes(bt_dir / "backtest_report.json"))
    assert payload["strategy"] == "triple"

    # CLI path must equal an in-process backtest of the same checkpoint
    cfg = RunConfig.from_dict(CONFIG)
    agent, extra = load_agent(ckpt)
    observer = observer_from_state(extra["observer"], cfg.observer)
    expected = backtest(agent, cfg.load_series(), cfg, observer=observer)
    for key, value in expected.to_json_dict().items():
        assert payload[key] == value


def test_buffer_capacity_beyond_memory_trains_as_a_ring_of_the_rows_it_gets(tmp_path):
    # a run pushes max_episode x (train steps + 1) rows: 10**12 of them would
    # not fit in a 64-bit address space, but the ring holds no more than that
    trained = {}
    for capacity in (10**6, 10**12):
        config = {**CONFIG, "max_episode": 2, "agent": {**CONFIG["agent"], "buffer_capacity": capacity}}
        path = tmp_path / f"run{capacity}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"train{capacity}"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        curves = json.loads(read_bytes(out / "train_report.json"))["curves"]
        actor = read_bytes(out / "checkpoint.bin").split(b"\n", 2)[2]  # after magic and header
        trained[capacity] = curves, actor
    assert trained[10**12] == trained[10**6]


@pytest.mark.parametrize("kind", ["dc", "mlp"])
def test_inprocess_backtest_equals_checkpoint_backtest(kind, tmp_path):
    # observer state left over from training must not reach the backtest
    config = {**CONFIG, "observer": {**CONFIG["observer"], "kind": kind}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    cp = str(path)
    assert main(["train", "--config", cp, "--out", str(tmp_path / "train")]) == 0
    ckpt = str(tmp_path / "train" / "checkpoint.bin")
    assert main(["backtest", "--config", cp, "--checkpoint", ckpt, "--out", str(tmp_path / "ckpt")]) == 0
    assert main(["backtest", "--config", cp, "--out", str(tmp_path / "inproc")]) == 0
    from_checkpoint = json.loads(read_bytes(tmp_path / "ckpt" / "backtest_report.json"))
    in_process = json.loads(read_bytes(tmp_path / "inproc" / "backtest_report.json"))
    assert in_process == from_checkpoint


def test_backtest_baseline_strategy(config_path, tmp_path):
    out = tmp_path / "bt"
    code = main(
        ["backtest", "--config", config_path, "--strategy", "olmar", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(read_bytes(out / "backtest_report.json"))
    assert payload["strategy"] == "olmar"
    assert set(payload) >= {"ar", "mdd", "sharpe", "risk", "config_hash", "seed"}


@pytest.mark.parametrize("exists", [False, True], ids=["absent", "present"])
def test_backtest_baseline_strategy_refuses_a_checkpoint(exists, config_path, tmp_path, capsys, monkeypatch):
    # a baseline reads no agent, so a checkpoint given with one is a config
    # error found before any work, whether or not the file exists
    loads = count_calls(monkeypatch, RunConfig, "load_series")
    passes = count_calls(monkeypatch, TradingEnv, "reset")
    ckpt = tmp_path / "no_such.bin"
    if exists:
        ckpt.write_bytes(b"not a checkpoint")
    out = tmp_path / "bt"
    args = ["backtest", "--config", config_path, "--strategy", "crp", "--checkpoint", str(ckpt), "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "--checkpoint" in err and "'crp'" in err and "Traceback" not in err, err
    assert loads == [] and passes == [] and not out.exists()


def test_compare_rerun_byte_identical(config_path, tmp_path):
    args = [
        "compare",
        "--config",
        config_path,
        "--strategies",
        "crp,eg,pamr",
        "--formats",
        "json,csv,plotdata",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("comparison.json", "comparison.csv", "comparison_plotdata.csv"):
        assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)
    rows = json.loads(read_bytes(tmp_path / "a" / "comparison.json"))["rows"]
    assert sorted(r["strategy"] for r in rows) == ["crp", "eg", "pamr"]


def test_ablate_writes_reports(config_path, tmp_path):
    out = tmp_path / "ab"
    assert main(["ablate", "--config", config_path, "--out", str(out)]) == 0
    payload = json.loads(read_bytes(out / "ablation.json"))
    assert payload["reference"] == "triple-dc"
    assert len(payload["rows"]) == 6


@pytest.mark.parametrize(
    "regime,strategies",
    [
        ({"vol": 0.0}, "crp"),
        ({"vol": 0.0}, "crp,eg"),
        ({"vol": 0.0}, "crp,single"),
        ({"drift": 0.0, "vol": 0.0}, "crp,olmar"),
    ],
)
def test_compare_on_flat_market_gives_p_one(regime, strategies, tmp_path, capsys):
    # the reference crp earns one constant daily return, so its rank-sum test
    # against itself sees one tied value: its exact p is 1, not an error
    path = tmp_path / "run.json"
    regimes = [{**CONFIG["data"]["synth"]["regimes"][0], **regime}]
    path.write_text(json.dumps({**CONFIG, **with_synth(regimes=regimes)}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(path), "--strategies", strategies, "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    p_values = json.loads(read_bytes(out / "comparison.json"))["p_values"]
    assert p_values["crp"] == 1.0
    assert set(p_values) == set(strategies.split(",")) and all(0.0 < p <= 1.0 for p in p_values.values())


def test_seed_override_flows_into_report(config_path, tmp_path):
    out = tmp_path / "bt"
    main(
        [
            "backtest",
            "--config",
            config_path,
            "--strategy",
            "crp",
            "--seed",
            "9",
            "--out",
            str(out),
        ]
    )
    payload = json.loads(read_bytes(out / "backtest_report.json"))
    assert payload["seed"] == 9


def with_synth(**change):
    return {"data": {"synth": {**CONFIG["data"]["synth"], **change}}}


def with_load(load):
    return {"data": {"file": "prices.csv", "load": load}}


def test_exit_code_2_on_config_errors(tmp_path, config_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["train", "--config", missing, "--out", str(tmp_path / "t")]) == 2
    bad = tmp_path / "bad.json"
    for change in (
        {"tier": "quad"},
        {"observer": {**CONFIG["observer"], "kind": "none"}},
        {"observer": {**CONFIG["observer"], "kind": "xyz"}},
        {"observer": {**CONFIG["observer"], "kind": "mlp", "feature_window": 0}},
        with_load({"sep": ";"}),
        with_load(5),
        with_synth(regimes=[{"length": "x"}]),
        with_synth(regimes=5),
        {"data": {**CONFIG["data"], "lod": {}}},
    ):
        bad.write_text(json.dumps({**CONFIG, **change}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, change
    code = main(
        [
            "backtest",
            "--config",
            config_path,
            "--strategy",
            "mystery",
            "--out",
            str(tmp_path / "bt"),
        ]
    )
    assert code == 2
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", config_path, "--strategies", "triple-xyz", "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # JSON is UTF-8: a config holding byte 0xff is a config error, not a traceback
    bad.write_bytes(json.dumps(CONFIG).encode().replace(b'"triple"', b'"tri\xffple"', 1))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err, err
    # out-of-range values: the message names the field
    for block, name, value in (
        ("agent", "batch_size", 0),
        ("agent", "batch_size", -3),
        ("agent", "buffer_capacity", 0),
        ("observer", "theta", 0.0),
        ("observer", "base_risk_quantile", 2.0),
        ("observer", "risk_window", 0),
        ("observer", "base_risk", -1.0),
        ("observer", "base_risk", float("nan")),
        ("observer", "hidden", 0),
        ("reward", "lambda1", float("nan")),
        ("agent", "lr", float("inf")),
        ("agent", "sigma_explore", float("nan")),
        ("agent", "hidden", [0, 8]),
        ("agent", "hidden", [-1, 8]),
        ("solver", "f", float("nan")),
        ("solver", "mu", -1.0),
        ("env", "c0", float("inf")),
        ("metrics", "risk_free_rate", float("nan")),
        ("agent", "lr", -1.0),
        ("agent", "sigma_explore", -1.0),
        ("agent", "sigma_smooth", -1.0),
        ("agent", "noise_clip", -1.0),
        ("agent", "warmup", -1),
        ("observer", "lr", -1.0),
        ("observer", "scale", -1.0),
        ("solver", "f", -1.0),
        ("solver", "cr", 2.0),
    ):
        bad.write_text(json.dumps({**CONFIG, block: {**CONFIG.get(block, {}), name: value}}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, (name, value)
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err, err
    for change, name in (
        ({"seed": -1}, "seed"),
        ({"splits": [float("nan"), 0.5, 0.5]}, "splits[0]"),
        (with_synth(seed=-1), "data.synth.seed"),
        (with_synth(regimes=[{"length": 120, "vol": float("inf")}]), "data.synth.regimes[0].vol"),
    ):
        bad.write_text(json.dumps({**CONFIG, **change}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, change
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err, err
    # DE's limits are checked at load, also for a tier that never runs DE
    for solver, name in (
        ({"budget": 40, "population": 2}, "solver.population"),
        ({"budget": -1, "population": 8}, "solver.budget"),
        ({"budget": 7, "population": 8}, "solver.budget"),
    ):
        for tier in ("single", "triple"):
            bad.write_text(json.dumps({**CONFIG, "tier": tier, "solver": solver}))
            assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, (tier, solver)
            err = capsys.readouterr().err
            assert name in err and "Traceback" not in err, err
    # a ring that never holds a batch or the warmup would never update
    for name in ("batch_size", "warmup"):
        bad.write_text(json.dumps({**CONFIG, "agent": {**CONFIG["agent"], name: 513}}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, name
        err = capsys.readouterr().err
        assert name in err and "buffer_capacity" in err and "Traceback" not in err, err
    # data.synth and data.load values that are well typed but not valid
    csv_path = tmp_path / "prices.csv"
    assert main(["synth", "--config", config_path, "--out", str(csv_path)]) == 0
    for change, name in (
        (with_synth(sede=5), "data.synth fields ['sede']"),
        (with_synth(start_date="yesterday"), "data.synth.start_date"),
        (with_synth(s0=-5), "data.synth.s0"),
        ({"data": {"file": str(csv_path), "load": {"delimiter": ""}}}, "data.load.delimiter"),
        ({"data": {"file": str(csv_path), "load": {"delimiter": ";;"}}}, "data.load.delimiter"),
        ({"data": {"file": str(csv_path), "load": {"layout": "xyz"}}}, "data.load.layout"),
    ):
        capsys.readouterr()
        bad.write_text(json.dumps({**CONFIG, **change}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, change
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err, err


def test_exit_code_3_on_data_errors(tmp_path):
    cfg = dict(CONFIG)
    cfg["data"] = {"file": str(tmp_path / "absent.csv")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == 3


@pytest.mark.parametrize(
    "command",
    [["synth"], ["train"], ["backtest", "--strategy", "crp"], ["compare", "--strategies", "crp,eg"], ["ablate"]],
)
@pytest.mark.parametrize("where", ["at", "beneath"])
def test_exit_code_3_on_out_that_cannot_be_created(command, where, config_path, tmp_path, capsys, monkeypatch):
    # a regular file stands where the output directory, or one of its parents,
    # should be; the command says so before it does any of its work
    for work in ("train", "backtest", "compare", "ablate"):
        monkeypatch.setattr(harness, work, lambda *a, work=work, **k: pytest.fail(f"{work} ran before --out was made"))
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker if where == "at" else blocker / "sub"
    if command == ["synth"]:
        out = out / "prices.csv"  # synth creates the CSV's parent
    assert main([command[0], "--config", config_path, *command[1:], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(blocker) in err and "Traceback" not in err, err


@pytest.mark.parametrize("command", [["compare", "--strategies", "crp,eg"], ["ablate"]])
@pytest.mark.parametrize("formats", ["json,cvs", ","])
def test_exit_code_2_on_bad_formats_before_any_work(command, formats, config_path, tmp_path, capsys, monkeypatch):
    # an unknown format, or none at all, is a config error found before the
    # compare runs, so no report is written
    for work in ("compare", "ablate"):
        monkeypatch.setattr(harness, work, lambda *a, work=work, **k: pytest.fail(f"{work} ran before --formats was checked"))
    out = tmp_path / "out"
    assert main([command[0], "--config", config_path, *command[1:], "--formats", formats, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--formats" in err and "Traceback" not in err, err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("strategies, name", [("triple,crpp", "crpp"), ("crp,crp,eg", "crp")])
def test_compare_checks_strategy_names_before_any_work(strategies, name, config_path, tmp_path, capsys, monkeypatch):
    # an unknown or repeated name is a config error found before any strategy
    # is trained or backtested
    calls = []
    for work in ("train", "backtest"):
        original = getattr(harness, work)
        monkeypatch.setattr(harness, work, lambda *a, original=original, **k: calls.append(1) or original(*a, **k))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", config_path, "--strategies", strategies, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err, err
    assert calls == []
    assert list(out.iterdir()) == []


def test_exit_code_3_on_non_finite_close(tmp_path, capsys):
    lines = ["date,asset,open,high,low,close"]
    for day in range(1, 4):
        for asset, close in (("AAA", 100.0 + day), ("BBB", "inf" if day == 2 else 50.0)):
            lines.append(f"2020-01-0{day},{asset},{close},{close},{close},{close}")
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, "data": {"file": str(csv_path)}}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err
    assert "not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
@pytest.mark.parametrize("column", ["open", "high", "low"])
def test_exit_code_3_on_bad_open_high_or_low(column, value, tmp_path, capsys):
    # a series keeps only the closes, but a long CSV's other price cells are checked too
    header = "date,asset,open,high,low,close"
    lines = [header] + [f"2020-01-0{day},{asset},100,100,100,100" for day in range(1, 4) for asset in ("AAA", "BBB")]
    fields = lines[3].split(",")  # line 4 of the file
    fields[header.split(",").index(column)] = value
    lines[3] = ",".join(fields)
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    message = f"line 4: {column} = "
    with pytest.raises(NonPositivePrice, match=re.escape(message)):
        load_ohlcv(csv_path)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, "data": {"file": str(csv_path)}}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


def set_close(line: str, close: str) -> str:
    date, asset, *_ = line.split(",")
    return ",".join([date, asset, close, close, close, close])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda lines: lines[:5] + [",".join(lines[5].split(",")[:3])] + lines[6:], "line 6 has 3 fields, the header 6"),
        (lambda lines: lines[:5] + [lines[5] + ",1.0"] + lines[6:], "line 6 has 7 fields, the header 6"),
        (lambda lines: lines[:6] + lines[5:], "line 7 repeats date 2000-01-03, asset 'A1' of line 6"),
        (lambda lines: lines[:5] + [set_close(lines[5], "1e-320")] + lines[6:], "A1 on 2000-01-04 is inf"),
        (lambda lines: lines[:5] + [set_close(lines[5], "1e300")] + lines[6:], "A1 on 2000-01-03 is 9.992620391987421e+297, outside [1e-06, 1e+06]"),
        (lambda lines: lines[:5] + [set_close(lines[5], "1e-300")] + lines[6:], "A1 on 2000-01-03 is 9.992620391987421e-303, outside [1e-06, 1e+06]"),
        (lambda lines: lines[:5] + [set_close(lines[5], "1e308")] + lines[6:], "A1 on 2000-01-03 is 9.99262039198742e+305, outside [1e-06, 1e+06]"),
        (lambda lines: [lines[0] + ",close"] + [line + ",1.0" for line in lines[1:]], "line 1 repeats column 'close'"),
    ],
    ids=["short-row", "long-row", "repeated-date-and-asset", "relative-overflows",
         "relative-above-bound", "relative-below-bound", "relative-near-max-float", "repeated-close-column"],
)
def test_exit_code_3_on_damaged_csv_row(damage, message, config_path, tmp_path, capsys):
    csv_path = tmp_path / "prices.csv"
    assert main(["synth", "--config", config_path, "--out", str(csv_path)]) == 0
    csv_path.write_text("\n".join(damage(csv_path.read_text().splitlines())) + "\n")
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, "data": {"file": str(csv_path)}}))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# one damage each, applied to a data line of the synth CSV; a close of 1e5
# among closes near 100 is valid, so the run goes through
CSV_DAMAGES = {
    "short-row": lambda line: [",".join(line.split(",")[:3])],
    "long-row": lambda line: [line + ",1.0"],
    "repeated-key": lambda line: [line, line],
    "bad-date": lambda line: ["2000-02-30" + line[line.index(",") :]],
    **{f"close {c}": (lambda line, c=c: [set_close(line, c)]) for c in ("-1", "nan", "1e300", "1e-300", "1e308", "1e5")},
}


@pytest.fixture(scope="module")
def synth_csv_lines(tmp_path_factory):
    base = tmp_path_factory.mktemp("synth")
    (base / "run.json").write_text(json.dumps(CONFIG))
    assert main(["synth", "--config", str(base / "run.json"), "--out", str(base / "prices.csv")]) == 0
    return (base / "prices.csv").read_text().splitlines()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=st.sampled_from(sorted(CSV_DAMAGES)), line=st.integers(1, 240))
@example(damage="close 1e300", line=5)
@example(damage="close 1e-300", line=5)
@example(damage="close 1e308", line=5)
def test_damaged_csv_exits_cleanly(damage, line, synth_csv_lines, tmp_path, capsys):
    lines = synth_csv_lines
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("\n".join(lines[:line] + CSV_DAMAGES[damage](lines[line]) + lines[line + 1 :]) + "\n")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**CONFIG, "data": {"file": str(csv_path)}}))
    out = tmp_path / "cmp"
    capsys.readouterr()
    code = main(["compare", "--config", str(cfg_path), "--strategies", "crp,olmar,triple", "--out", str(out)])
    assert code in (0, 3), (damage, line)
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        numbers = report_numbers(json.loads(read_bytes(out / "comparison.json")))
        assert numbers and all(math.isfinite(x) for x in numbers), (damage, line)


@pytest.mark.parametrize(
    "argv",
    [["train"], ["compare", "--strategies", "crp,single"]],
    ids=["train", "compare"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_3_on_synthetic_overflow(argv, tmp_path, capsys):
    # 500% a day overflows the closes to inf after about 390 days
    regime = {"length": 500, "drift": 5.0, "vol": 0.01}
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, "data": {"synth": {"assets": 2, "regimes": [regime]}}}))
    assert main([*argv, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "regimes[0]" in err and "not finite on day" in err
    assert "Traceback" not in err


def trained_checkpoint(work, config) -> bytes:
    path = work / "run.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--config", str(path), "--out", str(work / "train")]) == 0
    return read_bytes(work / "train" / "checkpoint.bin")


MLP_CONFIG = {**CONFIG, "observer": {**CONFIG["observer"], "kind": "mlp"}}


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    return trained_checkpoint(tmp_path_factory.mktemp("checkpoint"), CONFIG)


@pytest.fixture(scope="module")
def mlp_checkpoint_bytes(tmp_path_factory):
    return trained_checkpoint(tmp_path_factory.mktemp("mlp_checkpoint"), MLP_CONFIG)


def run_backtest(tmp_path, config, checkpoint: bytes) -> int:
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(checkpoint)
    return main(["backtest", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--out", str(tmp_path / "bt")])


DELETE = object()


def set_header(path: str, value):
    """A damage that sets the checkpoint header's value at the dotted
    ``path`` (a number indexes a list), or deletes it for ``DELETE``."""

    def damage(blob):
        magic, _, rest = blob.partition(b"\n")
        line, _, body = rest.partition(b"\n")
        header = json.loads(line)
        *parents, key = [int(name) if name.isdigit() else name for name in path.split(".")]
        block = header
        for name in parents:
            block = block[name]
        if value is DELETE:
            del block[key]
        else:
            block[key] = value
        return b"\n".join([magic, json.dumps(header, sort_keys=True).encode(), body])

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda blob: blob.replace(b'"format"', b'"format', 1), id="corrupt-header"),
        pytest.param(lambda blob: blob[:-100], id="body-short-by-100-bytes"),
        pytest.param(lambda blob: blob + b"junk", id="4-trailing-bytes"),
        pytest.param(lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]), id="body-bit-flipped"),
        pytest.param(set_header("body_sha256", DELETE), id="body-sha256-missing"),
        pytest.param(set_header("version", 1), id="version-1-on-a-version-2-body"),
        pytest.param(set_header("extra", 5), id="extra-not-object"),
        pytest.param(set_header("extra.observer", 5), id="observer-not-object"),
        pytest.param(set_header("extra.observer.kind", "zz"), id="observer-kind-unknown"),
        pytest.param(set_header("extra.observer.base_risk", DELETE), id="base-risk-missing"),
        pytest.param(set_header("extra.observer.base_risk", "x"), id="base-risk-string"),
        pytest.param(set_header("extra.observer.base_risk", -1), id="base-risk-negative"),
        pytest.param(set_header("extra.observer.base_risk", float("nan")), id="base-risk-nan"),
        pytest.param(set_header("extra.observer", {"kind": "mlp", "params": 5}), id="mlp-params-not-list"),
        pytest.param(set_header("obs_dim", 0), id="obs-dim-0"),
        pytest.param(set_header("obs_dim", -1), id="obs-dim-negative"),
        pytest.param(set_header("seed", None), id="seed-null"),
        pytest.param(set_header("update_count", 1.5), id="update-count-fraction"),
        pytest.param(set_header("nets.actor", []), id="nets-actor-empty-list"),
        pytest.param(set_header("nets.actor", 5), id="nets-actor-number"),
        pytest.param(set_header("nets.actor.layers.2.activation", "tanh"), id="actor-activation-tanh"),
        pytest.param(set_header("nets.actor.layers.2.activation", "softmax"), id="actor-activation-softmax"),
        pytest.param(set_header("nets.actor.dtype", ">f8"), id="nets-actor-big-endian"),
        pytest.param(set_header("config.hidden", [8, 4]), id="config-hidden-not-the-nets"),
        pytest.param(set_header("config.hidden", [0, 8]), id="config-hidden-zero"),
        pytest.param(set_header("config.lr", float("nan")), id="config-lr-nan"),
    ],
)
def test_exit_code_3_on_damaged_checkpoint(damage, checkpoint_bytes, tmp_path, capsys):
    assert run_backtest(tmp_path, CONFIG, checkpoint_bytes) == 0
    capsys.readouterr()
    assert run_backtest(tmp_path, CONFIG, damage(checkpoint_bytes)) == 3
    err = capsys.readouterr().err
    assert "checkpoint" in err
    assert "Traceback" not in err


# what `train` on PIPELINE_CONFIG wrote in checkpoint format version 1: six
# nets (the actor first) and no checksum
V1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_v1.bin"


def test_version_1_checkpoint_backtests_to_the_golden_report(tmp_path):
    blob = V1_CHECKPOINT.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == "98d4ca9bc792ef50e82ee32197289c1bc23cfd83cc08cbcdbba2bee93b42dac4"
    assert run_backtest(tmp_path, PIPELINE_CONFIG, blob) == 0
    report = read_bytes(tmp_path / "bt" / "backtest_report.json")
    assert hashlib.sha256(report).hexdigest() == GOLDEN["pipeline", "backtest"]["backtest_report.json"]


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda blob: blob[:-100], id="body-short-by-100-bytes"),
        pytest.param(set_header("nets.critic1.layers.0.activation", "linear"), id="critic1-activation-linear"),
    ],
)
def test_exit_code_3_on_damaged_version_1_checkpoint(damage, tmp_path, capsys):
    assert run_backtest(tmp_path, PIPELINE_CONFIG, damage(V1_CHECKPOINT.read_bytes())) == 3
    err = capsys.readouterr().err
    assert "checkpoint" in err
    assert "Traceback" not in err


def test_exit_code_2_on_checkpoint_of_other_window(checkpoint_bytes, tmp_path, capsys):
    config = {**CONFIG, "env": {"window": 4}}  # the checkpoint was trained with window 6
    assert run_backtest(tmp_path, config, checkpoint_bytes) == 2
    err = capsys.readouterr().err
    assert "obs_dim" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("hidden", [[4, 4], [8, 8, 8]])
def test_exit_code_2_on_checkpoint_of_other_hidden_sizes(hidden, checkpoint_bytes, tmp_path, capsys):
    config = {**CONFIG, "agent": {**CONFIG["agent"], "hidden": hidden}}  # the checkpoint's are [8, 8]
    assert run_backtest(tmp_path, config, checkpoint_bytes) == 2
    err = capsys.readouterr().err
    assert "agent.hidden" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("saved,wanted", [("dc", "mlp"), ("mlp", "dc")])
def test_exit_code_2_on_checkpoint_of_other_observer_kind(
    saved, wanted, checkpoint_bytes, mlp_checkpoint_bytes, tmp_path, capsys
):
    checkpoint = checkpoint_bytes if saved == "dc" else mlp_checkpoint_bytes
    config = {**CONFIG, "observer": {**CONFIG["observer"], "kind": wanted}}
    assert run_backtest(tmp_path, config, checkpoint) == 2
    err = capsys.readouterr().err
    assert "observer.kind" in err
    assert "Traceback" not in err


def test_exit_code_2_on_triple_checkpoint_without_observer(checkpoint_bytes, tmp_path, capsys):
    assert run_backtest(tmp_path, CONFIG, set_header("extra.observer", None)(checkpoint_bytes)) == 2
    err = capsys.readouterr().err
    assert "holds no observer" in err
    assert "Traceback" not in err


HEADER_PATHS = (
    "extra",
    "extra.config",
    "extra.best_episode",
    "extra.observer",
    "extra.observer.kind",
    "extra.observer.base_risk",
    "obs_dim",
    "n_assets",
    "seed",
    "update_count",
    "nets.actor",
    "nets.actor.layers",
    "body_sha256",
    "config.hidden",
    "config.lr",
)
HEADER_VALUES = ("x", None, -1, 0, 1.5, [], {}, True, float("nan"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(HEADER_PATHS), value=st.sampled_from(HEADER_VALUES))
def test_fuzzed_checkpoint_header_exits_cleanly(path, value, checkpoint_bytes, tmp_path, capsys):
    assert run_backtest(tmp_path, CONFIG, set_header(path, value)(checkpoint_bytes)) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# CONFIG with the defaults of the numeric fields it leaves out written in
FUZZ_CONFIG = {
    **CONFIG,
    "reward": {"lambda1": 1.0, "lambda2": 0.1},
    "agent": {
        **CONFIG["agent"],
        "gamma": 0.99,
        "tau": 0.005,
        "policy_delay": 2,
        "sigma_explore": 0.1,
        "sigma_smooth": 0.2,
        "noise_clip": 0.5,
        "lr": 3e-4,
    },
    "solver": {**CONFIG["solver"], "f": 0.8, "cr": 0.9, "mu": 0.1},
    "observer": {
        **CONFIG["observer"],
        "theta": 0.005,
        "base_risk": 0.01,
        "base_risk_quantile": 0.5,
        "scale": 1.0,
        "hidden": 16,
        "feature_window": 10,
        "lr": 1e-3,
    },
    "env": {**CONFIG["env"], "c_tx": 0.0, "c0": 1.0},
    "metrics": {**CONFIG["metrics"], "risk_free_rate": 0.0, "days_per_year": 252},
}


def numeric_leaves(value, path=()):
    """The paths of every number in a JSON value, as tuples of keys and indices."""
    if isinstance(value, dict):
        return [p for key, v in value.items() for p in numeric_leaves(v, (*path, key))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in numeric_leaves(v, (*path, i))]
    return [path] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def set_leaf(config, path, value):
    block = config
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value


def report_numbers(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in report_numbers(v)]
    if isinstance(value, list):
        return [x for v in value for x in report_numbers(v)]
    return [value] if isinstance(value, float) else []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["dc", "mlp"]),
    changes=st.lists(
        st.tuples(st.sampled_from(numeric_leaves(FUZZ_CONFIG)), st.sampled_from([-1, 0, -0.5, math.nan, math.inf, 2])),
        min_size=1,
        max_size=3,
    ),
)
def test_fuzzed_config_exits_cleanly(kind, changes, tmp_path, capsys):
    # every value is small, so no draw allocates a large net, ring or series
    config = copy.deepcopy(FUZZ_CONFIG)
    config["observer"]["kind"] = kind
    for path, value in changes:
        set_leaf(config, path, value)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))  # writes NaN and Infinity as json.load reads them
    out = tmp_path / "bt"
    code = main(["backtest", "--config", str(cfg_path), "--out", str(out)])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
    if code == 0:
        numbers = report_numbers(json.loads(read_bytes(out / "backtest_report.json")))
        assert numbers and all(math.isfinite(x) for x in numbers), changes


@pytest.mark.parametrize(
    "change,field",
    [
        ({"data": {"synth": {**CONFIG["data"]["synth"], "assets": "x"}}}, "data.synth.assets"),
        ({"agent": {**CONFIG["agent"], "hidden": "8"}}, "agent.hidden"),
        ({"agent": {**CONFIG["agent"], "hidden": ["8", "8"]}}, "agent.hidden"),
        ({"max_episode": "3"}, "max_episode"),
        ({"runs": True}, "runs"),
        ({"splits": ["0.5", 0.2, 0.3]}, "splits"),
        ({"solver": {"budget": 40.0}}, "solver.budget"),
        ({"observer": {"kind": 1}}, "observer.kind"),
        ({"data": {"file": 5}}, "data.file"),
        (with_load(5), "data.load"),
        (with_load({"delimiter": 5}), "data.load.delimiter"),
        (with_synth(regimes=5), "data.synth.regimes"),
        (with_synth(regimes=[{"length": "x"}]), "data.synth.regimes[0].length"),
        (with_synth(regimes=[{"length": 120}, {"length": 10, "drift": [0.1, "x"]}]), "data.synth.regimes[1].drift"),
        (with_synth(assets=2.7), "data.synth.assets"),
        (with_synth(assets="2"), "data.synth.assets"),
        (with_synth(seed=11.9), "data.synth.seed"),
        (with_synth(asset_prefix=[1]), "data.synth.asset_prefix"),
        (with_synth(start_date=5), "data.synth.start_date"),
    ],
)
def test_exit_code_2_on_mistyped_config_field(change, field, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, **change}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be of type" in err
    assert "Traceback" not in err


def test_int_stands_for_float_in_config():
    cfg = RunConfig.from_dict({**CONFIG, "reward": {"lambda1": 1, "lambda2": 0}, "env": {"window": 6, "c0": 2}})
    assert (cfg.reward.lambda1, cfg.reward.lambda2, cfg.env.c0) == (1, 0, 2)


def test_unknown_subcommand_is_parser_error(config_path):
    with pytest.raises(SystemExit):
        main(["replay", "--config", config_path])


def test_log_level_env_var_respected(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("PORTAGENTS_LOG_LEVEL", "DEBUG")
    out = tmp_path / "prices.csv"
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
    monkeypatch.setenv("PORTAGENTS_LOG_LEVEL", "not-a-level")
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0


def test_cli_run_loads_no_scipy(config_path, tmp_path):
    # numpy is the only runtime dependency: a compare, rank-sum test included,
    # run in a fresh interpreter loads no scipy module
    src = str(Path(portagents.__file__).resolve().parents[1])
    argv = ["compare", "--config", config_path, "--strategies", "crp,pamr", "--out", str(tmp_path / "cmp")]
    code = (
        "import sys; from portagents.cli import main; "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert json.loads(read_bytes(tmp_path / "cmp" / "comparison.json"))["p_values"]["pamr"] < 1.0  # the normal tail ran


def count_calls(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to append to the returned list on every call."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or original(*a, **k))
    return calls


@pytest.mark.parametrize(
    "command, splits",
    [
        (["compare", "--strategies", "crp,triple"], [0.79, 0.01, 0.2]),  # short validation split
        (["compare", "--strategies", "triple,crp"], [0.5, 0.49, 0.01]),  # short test split
        (["backtest"], [0.5, 0.49, 0.01]),
        (["train"], [0.79, 0.01, 0.2]),
    ],
)
def test_short_split_fails_before_any_training(command, splits, tmp_path, capsys, monkeypatch):
    # a validation or test split too short to step through is a config error
    # found before the first trading pass (a baseline's included), and no
    # report is written
    updates = count_calls(monkeypatch, Td3Agent, "update")
    passes = count_calls(monkeypatch, TradingEnv, "reset")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**PIPELINE_CONFIG, "splits": splits}))
    out = tmp_path / "out"
    assert main([command[0], "--config", str(config), *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "leaves fewer than 2 steps" in err and "Traceback" not in err, err
    assert updates == [] and passes == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, reference",
    [
        (["compare", "--strategies", "crp,olmar"], "olmr"),
        (["ablate"], "triple"),  # the ablation rows name triple-dc and triple-mlp
    ],
)
def test_reference_outside_the_strategies_fails_before_any_work(command, reference, tmp_path, capsys, monkeypatch):
    # a reference that names no listed strategy is a config error, not a
    # silent fall back to another row
    passes = count_calls(monkeypatch, TradingEnv, "reset")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**PIPELINE_CONFIG, "reference": reference}))
    out = tmp_path / "out"
    assert main([command[0], "--config", str(config), *command[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"reference {reference!r}" in err and "Traceback" not in err, err
    assert passes == []
    assert list(out.iterdir()) == []


def test_module_entry_point(config_path, tmp_path):
    # `python -m portagents` runs the CLI and returns its exit code
    env = dict(os.environ, PYTHONPATH=str(Path(portagents.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "portagents", *argv], env=env, capture_output=True, text=True)

    shown = run("--help")
    assert shown.returncode == 0 and "compare" in shown.stdout, shown.stderr
    out = tmp_path / "cmp"
    refused = run("compare", "--config", config_path, "--formats", "cvs", "--out", str(out))
    assert refused.returncode == 2
    assert "--formats" in refused.stderr and "Traceback" not in refused.stderr, refused.stderr
    assert not out.exists()

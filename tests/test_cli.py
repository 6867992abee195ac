"""End-to-end CLI runs: exit codes, artifacts, byte-stable re-runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import portagents
from portagents.cli import main
from portagents.harness import RunConfig, backtest, observer_from_state
from portagents.market_data import load_ohlcv
from portagents.rl import load_agent

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
    ):
        bad.write_text(json.dumps({**CONFIG, block: {**CONFIG[block], name: value}}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "t")]) == 2, (name, value)
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


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    work = tmp_path_factory.mktemp("checkpoint")
    path = work / "run.json"
    path.write_text(json.dumps(CONFIG))
    assert main(["train", "--config", str(path), "--out", str(work / "train")]) == 0
    return read_bytes(work / "train" / "checkpoint.bin")


def run_backtest(tmp_path, config, checkpoint: bytes) -> int:
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    ckpt = tmp_path / "checkpoint.bin"
    ckpt.write_bytes(checkpoint)
    return main(["backtest", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--out", str(tmp_path / "bt")])


DELETE = object()


def set_header(path: str, value):
    """A damage that sets the checkpoint header's value at the dotted
    ``path``, or deletes it for ``DELETE``."""

    def damage(blob):
        magic, _, rest = blob.partition(b"\n")
        line, _, body = rest.partition(b"\n")
        header = json.loads(line)
        *parents, key = path.split(".")
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
    ],
)
def test_exit_code_3_on_damaged_checkpoint(damage, checkpoint_bytes, tmp_path, capsys):
    assert run_backtest(tmp_path, CONFIG, checkpoint_bytes) == 0
    capsys.readouterr()
    assert run_backtest(tmp_path, CONFIG, damage(checkpoint_bytes)) == 3
    err = capsys.readouterr().err
    assert "checkpoint" in err
    assert "Traceback" not in err


def test_exit_code_2_on_checkpoint_of_other_window(checkpoint_bytes, tmp_path, capsys):
    config = {**CONFIG, "env": {"window": 4}}  # the checkpoint was trained with window 6
    assert run_backtest(tmp_path, config, checkpoint_bytes) == 2
    err = capsys.readouterr().err
    assert "obs_dim" in err
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
)
HEADER_VALUES = ("x", None, -1, 0, 1.5, [], {}, True, float("nan"))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(HEADER_PATHS), value=st.sampled_from(HEADER_VALUES))
def test_fuzzed_checkpoint_header_exits_cleanly(path, value, checkpoint_bytes, tmp_path, capsys):
    assert run_backtest(tmp_path, CONFIG, set_header(path, value)(checkpoint_bytes)) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second at start-up; the package needs only scipy.special
    src = str(Path(portagents.__file__).resolve().parents[1])
    code = "import sys, portagents.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

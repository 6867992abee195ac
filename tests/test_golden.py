"""Golden fixture: SHA-256 of the reports that `compare`, `ablate` and
`backtest` (training in process) write, of the checkpoint and report that
`train` writes, and of the CSV that `synth` writes.

A change to any number in these files, or to a checkpoint byte, changes a
hash. Only a change that says it changes numbers may update GOLDEN; print
the current hashes with ``PYTHONPATH=src python tests/test_golden.py``.
Taken on x86-64, Python 3.11, numpy 2.4.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from portagents.cli import main
from test_acceptance import PIPELINE_CONFIG

MLP_CONFIG = {**PIPELINE_CONFIG, "observer": {**PIPELINE_CONFIG["observer"], "kind": "mlp"}}

# (config name, command) -> config
RUNS = {
    ("pipeline", "compare"): PIPELINE_CONFIG,
    ("pipeline", "ablate"): PIPELINE_CONFIG,
    ("triple-mlp", "compare"): MLP_CONFIG,
    ("pipeline", "train"): PIPELINE_CONFIG,
    ("triple-mlp", "train"): MLP_CONFIG,
    ("pipeline", "backtest"): PIPELINE_CONFIG,
    ("triple-mlp", "backtest"): MLP_CONFIG,
    ("pipeline", "synth"): PIPELINE_CONFIG,
}

# options each command writes its reports with
OPTIONS = {
    "compare": ["--formats", "json,csv"],
    "ablate": ["--formats", "json,csv"],
    "train": [],
    "backtest": [],
    "synth": [],
}

# (config name, command) -> {report file: sha256}
GOLDEN = {
    ("pipeline", "compare"): {
        "comparison.csv": "ea2be5295266c49c1b1e10e52b8dbb4f1ace6dc7043b0b7cb992312abda5a152",
        "comparison.json": "02d0e31e54d25ef27926df39a6bb42657436c210a18ee9b0eb8ee8e3760a18d0",
    },
    ("pipeline", "ablate"): {
        "ablation.csv": "37fdc85ca1a0c631b4482e1d8dc00c65826575cf9e0ee6f14c5b41e5798d8486",
        "ablation.json": "bbec32e2d8e3a9fb7094e774e8aa0288d83af3d2d9f270d50a00626f443e0b99",
    },
    ("triple-mlp", "compare"): {
        "comparison.csv": "c5fcbbebf6e41902ec4cebf663173df782babae2c8ed52c68a1429448748eb12",
        "comparison.json": "3a2f33dde8b51e6802756364b9a9b635c9d822268d59ab51aef7788eff47a320",
    },
    ("pipeline", "train"): {
        "checkpoint.bin": "98d4ca9bc792ef50e82ee32197289c1bc23cfd83cc08cbcdbba2bee93b42dac4",
        "train_report.json": "946e18fe807bd82536a5748d6f2695360d7c3708acd115159381b142cb87417d",
    },
    ("triple-mlp", "train"): {
        "checkpoint.bin": "adead25376575e9ca74b3063cef4cf693ea59a49c330161f21b1e76bd99eac90",
        "train_report.json": "870da313e0be34d6c63719f60973882c15199e0f064b1169ab50be3d0742946f",
    },
    ("pipeline", "backtest"): {
        "backtest_report.json": "ea6d266a8b134f9e2bf08145bfc8ccfc347e66884acb7af7212af29f41d8d6e0",
    },
    ("triple-mlp", "backtest"): {
        "backtest_report.json": "0ce3446c0f3d98c21cf449899e01998fe4cd24c71ad5368efbeb59873ba3ce57",
    },
    ("pipeline", "synth"): {
        "prices.csv": "58ebb391486b3918f5a9a00232cf0bac6293a42b4db793a4bb7bab195aa031fe",
    },
}


def report_hashes(name: str, command: str, work: Path) -> dict:
    config = work / f"{name}.json"
    config.write_text(json.dumps(RUNS[name, command]))
    out = work / name / command
    # synth's --out is the CSV itself, the others' a directory
    target = out / "prices.csv" if command == "synth" else out
    assert main([command, "--config", str(config), "--out", str(target), *OPTIONS[command]]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name,command", list(RUNS))
def test_reports_match_golden_hashes(name, command, tmp_path):
    assert report_hashes(name, command, tmp_path) == GOLDEN[name, command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        hashes = {run: report_hashes(*run, Path(work)) for run in RUNS}
    for (name, command), files in hashes.items():
        print(f'    ("{name}", "{command}"): {{')
        for file, digest in files.items():
            print(f'        "{file}": "{digest}",')
        print("    },")

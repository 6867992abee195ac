"""Golden fixture: SHA-256 of the reports that `compare`, `ablate` and
`backtest` (training in process) write, of the checkpoint and report that
`train` writes, and of the CSV that `synth` writes.

A change to any number in these files, or to a checkpoint byte, changes a
hash. Only a change that says it changes numbers may update GOLDEN, and a
declared change of the checkpoint format only the checkpoint hashes; print
the current hashes with ``PYTHONPATH=src python tests/test_golden.py``.
Taken on x86-64, Python 3.11, numpy 2.4.

The hashes are the gate. Beside them, ``data/golden_numbers.json`` holds the
parsed JSON reports and checkpoint headers of the same runs, so that a hash
that fails names the numbers that moved. The same command rewrites it.
"""

import hashlib
import json
import math
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
        "checkpoint.bin": "7c8dbbffacafb4f8e01b1a2620f9831ff2194d3069a2ae9d3b953ae01cd2d31b",
        "train_report.json": "946e18fe807bd82536a5748d6f2695360d7c3708acd115159381b142cb87417d",
    },
    ("triple-mlp", "train"): {
        "checkpoint.bin": "cd0ee7a8bb3dce1b94493c6dc94755622198fc7b81a5c8e85d9f914d491e1337",
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


NUMBERS_PATH = Path(__file__).parent / "data" / "golden_numbers.json"
MAX_MOVED_SHOWN = 40


def run_reports(name: str, command: str, work: Path) -> list[Path]:
    """The files one run writes, sorted by name."""
    config = work / f"{name}.json"
    config.write_text(json.dumps(RUNS[name, command]))
    out = work / name / command
    # synth's --out is the CSV itself, the others' a directory
    target = out / "prices.csv" if command == "synth" else out
    assert main([command, "--config", str(config), "--out", str(target), *OPTIONS[command]]) == 0
    return sorted(out.iterdir())


def file_hashes(files: list[Path]) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def file_numbers(files: list[Path]) -> dict:
    """Each JSON report parsed, and each checkpoint's header line."""
    numbers = {}
    for p in files:
        if p.suffix == ".json":
            numbers[p.name] = json.loads(p.read_text())
        elif p.suffix == ".bin":
            numbers[p.name] = json.loads(p.read_bytes().split(b"\n", 2)[1])
    return numbers


def _leaves(value, path=()):
    """(path, leaf) pairs of a parsed report; a list of rows is keyed by
    each row's strategy."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(value, list) and value and all(isinstance(v, dict) and "strategy" in v for v in value):
        for row in value:
            yield from _leaves({k: v for k, v in row.items() if k != "strategy"}, (*path, row["strategy"]))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, (*path, i))
    else:
        yield path, value


def moved_keys(old: dict, new: dict) -> list[str]:
    """One line per leaf whose value differs: its file and path (the
    strategy, then the field), the old and the new value, and the relative
    change where both are numbers."""
    before, after = dict(_leaves(old)), dict(_leaves(new))
    lines = []
    for path in [*before, *(p for p in after if p not in before)]:
        was, now = before.get(path, "<absent>"), after.get(path, "<absent>")
        if was == now:
            continue
        line = f"{'/'.join(map(str, path))}: {was!r} -> {now!r}"
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (was, now))
        if numeric and was != 0 and math.isfinite(was) and math.isfinite(now):
            line += f" ({(now - was) / abs(was):+.3e} relative)"
        lines.append(line)
    return lines


def _moved_message(lines: list[str]) -> str:
    shown = lines[:MAX_MOVED_SHOWN]
    if len(lines) > len(shown):
        shown.append(f"... and {len(lines) - len(shown)} more")
    return "moved keys:\n" + "\n".join(shown or ["none of the parsed numbers moved"])


@pytest.mark.parametrize("name,command", list(RUNS))
def test_reports_match_golden_hashes(name, command, tmp_path):
    files = run_reports(name, command, tmp_path)
    hashes = file_hashes(files)
    golden = json.loads(NUMBERS_PATH.read_text())[f"{name}/{command}"]
    moved = moved_keys(golden, file_numbers(files))
    if hashes != GOLDEN[name, command]:
        pytest.fail(f"{hashes} != {GOLDEN[name, command]}\n{_moved_message(moved)}")
    # reports that hash as before parse as before, unless the fixture is stale
    assert not moved, f"{NUMBERS_PATH.name} is stale\n{_moved_message(moved)}"


def test_moved_keys_name_strategy_field_and_change():
    old = {"r.json": {"rows": [{"strategy": "crp", "ar": 0.5, "mdd": 0.1}], "seeds": [1, 2]}}
    new = {"r.json": {"rows": [{"strategy": "crp", "ar": 0.55, "mdd": 0.1}], "seeds": [1, 2]}}
    assert moved_keys(old, new) == ["r.json/rows/crp/ar: 0.5 -> 0.55 (+1.000e-01 relative)"]
    assert moved_keys(old, old) == []


if __name__ == "__main__":
    hashes, numbers = {}, {}
    with tempfile.TemporaryDirectory() as work:
        for run in RUNS:
            files = run_reports(*run, Path(work))
            hashes[run] = file_hashes(files)
            numbers["/".join(run)] = file_numbers(files)
    NUMBERS_PATH.write_text(json.dumps(numbers, sort_keys=True, indent=1) + "\n")
    for (name, command), files in hashes.items():
        print(f'    ("{name}", "{command}"): {{')
        for file, digest in files.items():
            print(f'        "{file}": "{digest}",')
        print("    },")
    print(f"wrote {NUMBERS_PATH}")

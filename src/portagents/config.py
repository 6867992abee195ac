"""Run configuration: the wire-format blocks of the JSON run config and the
one checker that turns a JSON value into a typed block.

Each block is a dataclass whose field annotations are its wire types. A
field typed as a dataclass is a nested block; ``list[...]`` and
``tuple[...]`` take a JSON list, and an int stands for a float.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field

from .errors import ConfigError
from .market_data import LoadConfig, OhlcvSeries, Regime, load_ohlcv, synth_from_spec
from .observer import ObserverConfig
from .rl import RewardConfig, Td3Config

TIERS = ("single", "dual", "triple")

_KIND_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object", type(None): "null"}


def _kind_name(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(_kind_name(k) for k in typing.get_args(kind))
    if typing.get_origin(kind) in (list, tuple):
        return f"list of {_kind_name(typing.get_args(kind)[0])}"
    return "object" if dataclasses.is_dataclass(kind) else _KIND_NAMES[kind]


def _fits(kind, value) -> bool:
    """Whether a JSON value has the wire type ``kind``; a nested block only
    has to be an object here."""
    if isinstance(kind, types.UnionType):
        return any(_fits(k, value) for k in typing.get_args(kind))
    if typing.get_origin(kind) in (list, tuple):
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_fits(item, v) for v in value)
    if dataclasses.is_dataclass(kind):
        return isinstance(value, dict)
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def from_json(kind, value, name: str = ""):
    """Check a JSON value against the wire type ``kind`` and return it typed.

    A block (a dataclass) is built from an object after checking for unknown
    and missing fields, with each field checked in turn; its own
    ``__post_init__`` does the range checks. Lists become the annotated
    container. Every number must be finite (``json.load`` reads ``NaN`` and
    ``Infinity``). Raises ConfigError naming the field by its dotted path
    ``name`` (empty for the whole run config).
    """
    label = name or "config"
    if not _fits(kind, value):
        raise ConfigError(f"{label} must be of type {_kind_name(kind)}, got {value!r}")
    if isinstance(kind, types.UnionType):
        return from_json(next(k for k in typing.get_args(kind) if _fits(k, value)), value, name)
    if typing.get_origin(kind) in (list, tuple):
        item = typing.get_args(kind)[0]
        return typing.get_origin(kind)(from_json(item, v, f"{name}[{i}]") for i, v in enumerate(value))
    if not dataclasses.is_dataclass(kind):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{label} must be a finite number, got {value!r}")
        return value
    fields = dataclasses.fields(kind)
    unknown = set(value) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {label} fields {sorted(unknown)}")
    for f in fields:
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in value:
            raise ConfigError(f"{label} needs the field {f.name!r}")
    hints = typing.get_type_hints(kind)
    kwargs = {
        key: from_json(hints[key], v, f"{name}.{key}" if name else key) for key, v in value.items()
    }
    try:
        return kind(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label} block: {exc}") from exc


@dataclass
class SolverConfig:
    """Wire format of the solver block."""

    population: int = 20
    f: float = 0.8
    cr: float = 0.9
    budget: int = 2000
    mu: float = 0.1
    sigma_mode: str = "hard"

    def __post_init__(self):
        if self.sigma_mode not in ("hard", "target"):
            raise ConfigError(f"unknown sigma_mode {self.sigma_mode!r}")
        if self.mu < 0:
            raise ConfigError(f"solver.mu {self.mu} must be >= 0")
        if not 0.0 < self.f <= 2.0:
            raise ConfigError(f"solver.f {self.f} outside (0, 2]")
        if not 0.0 <= self.cr <= 1.0:
            raise ConfigError(f"solver.cr {self.cr} outside [0, 1]")


@dataclass
class EnvBlock:
    window: int = 10
    c_tx: float = 0.0
    c0: float = 1.0

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("env.window must be >= 1")
        if not 0.0 <= self.c_tx < 1.0:
            raise ConfigError("env.c_tx must be in [0, 1)")
        if self.c0 <= 0:
            raise ConfigError("env.c0 must be positive")


@dataclass
class MetricsBlock:
    risk_free_rate: float = 0.0
    days_per_year: int = 252
    cov_window: int = 21

    def __post_init__(self):
        if self.cov_window < 2:
            raise ConfigError("metrics.cov_window must be >= 2")
        if self.days_per_year < 1:
            raise ConfigError("metrics.days_per_year must be >= 1")


@dataclass
class SynthSpec:
    """Wire format of ``data.synth``: the arguments of ``synth_generate``."""

    assets: int
    regimes: list[Regime]
    seed: int = 0
    s0: float = 100.0
    asset_prefix: str = "A"
    start_date: str = "2000-01-01"

    def __post_init__(self):
        if self.assets < 1:
            raise ConfigError(f"data.synth.assets {self.assets} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"data.synth.seed {self.seed} must be >= 0")
        if self.s0 <= 0:
            raise ConfigError(f"data.synth.s0 {self.s0} must be positive")
        try:
            dt.date.fromisoformat(self.start_date)
        except ValueError as exc:
            raise ConfigError(
                f"data.synth.start_date {self.start_date!r} is not an ISO date (YYYY-MM-DD)"
            ) from exc


@dataclass
class DataBlock:
    """Wire format of the data block: a CSV ``file`` read as ``load``
    describes, or else a ``synth`` spec."""

    file: str | None = None
    load: LoadConfig = field(default_factory=LoadConfig)
    synth: SynthSpec | None = None

    def __post_init__(self):
        if self.file is None and self.synth is None:
            raise ConfigError("data block needs either 'file' or 'synth'")


_DEFAULT_STRATEGIES = ("crp", "eg", "olmar", "pamr", "rmr", "corn", "single", "triple")


@dataclass
class RunConfig:
    """One experiment: data source, splits, tier wiring, hyperparameters.

    ``data`` stays the plain JSON object; :meth:`load_series` checks it."""

    data: dict = field(default_factory=dict)
    seed: int = 0
    runs: int = 1
    tier: str = "triple"
    max_episode: int = 10
    splits: tuple[float, ...] = (0.5, 0.2, 0.3)
    strategies: tuple[str, ...] = _DEFAULT_STRATEGIES
    reference: str | None = None
    reward: RewardConfig = field(default_factory=RewardConfig)
    agent: Td3Config = field(default_factory=Td3Config)
    solver: SolverConfig = field(default_factory=SolverConfig)
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    env: EnvBlock = field(default_factory=EnvBlock)
    metrics: MetricsBlock = field(default_factory=MetricsBlock)

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ConfigError(f"tier {self.tier!r} not in {TIERS}")
        if self.max_episode < 1:
            raise ConfigError("max_episode must be >= 1")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
        s = tuple(float(x) for x in self.splits)
        if len(s) != 3 or any(x < 0 for x in s) or abs(sum(s) - 1.0) > 1e-6:
            raise ConfigError(f"splits {s} must be 3 non-negative fractions summing to 1")
        self.splits = s
        self.strategies = tuple(self.strategies)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return from_json(cls, raw)

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["splits"] = list(self.splits)
        out["strategies"] = list(self.strategies)
        out["agent"]["hidden"] = list(self.agent.hidden)
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def load_series(self) -> OhlcvSeries:
        data = from_json(DataBlock, self.data, "data")
        if data.file is not None:
            return load_ohlcv(data.file, data.load)
        return synth_from_spec(data.synth)

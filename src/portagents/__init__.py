"""Multi-agent portfolio management and backtesting toolkit.

Three cooperating agents drive a daily-rebalanced portfolio: a TD3 policy
proposes return-seeking weights, a derivative-free solver nudges them back
inside a short-term risk budget, and a market observer sets that budget from
detected conditions. The harness trains, backtests, and compares the stack
against classic online portfolio selection baselines on shared data splits.
"""

from .env import Observation, TradingEnv, build_observation, drifted_holdings, observation_dim
from .errors import ConfigError, DataError, PortAgentsError
from .harness import (
    CallTrace,
    ComparisonReport,
    RunConfig,
    TrainResult,
    ablate,
    backtest,
    compare,
    emit_report,
    split_indices,
    train,
)
from .market_data import (
    LoadConfig,
    OhlcvSeries,
    Regime,
    load_ohlcv,
    rolling_covariance,
    synth_generate,
    write_ohlcv_csv,
)
from .metrics import (
    annual_return,
    build_report,
    long_term_volatility,
    max_drawdown,
    sharpe_ratio,
    sigma_alpha_value,
    uniform_weights,
    wilcoxon_rank_sum,
)
from .observer import DcObserver, MlpObserver, ObserverConfig, RiskSignal, dc_detect, make_observer
from .rl import (
    ReplayBuffer,
    RewardConfig,
    Td3Agent,
    Td3Config,
    episode_reward,
    jensen_shannon,
    load_agent,
    per_step_reward,
    save_agent,
)
from .solver import (
    DeResult,
    RiskControlProblem,
    SolverResult,
    differential_evolution,
    propose_control,
    simplex_repair,
)

__version__ = "0.1.0"

__all__ = [
    "Observation",
    "TradingEnv",
    "build_observation",
    "drifted_holdings",
    "observation_dim",
    "ConfigError",
    "DataError",
    "PortAgentsError",
    "CallTrace",
    "ComparisonReport",
    "RunConfig",
    "TrainResult",
    "ablate",
    "backtest",
    "compare",
    "emit_report",
    "split_indices",
    "train",
    "LoadConfig",
    "OhlcvSeries",
    "Regime",
    "load_ohlcv",
    "rolling_covariance",
    "synth_generate",
    "write_ohlcv_csv",
    "annual_return",
    "build_report",
    "long_term_volatility",
    "max_drawdown",
    "sharpe_ratio",
    "sigma_alpha_value",
    "uniform_weights",
    "wilcoxon_rank_sum",
    "DcObserver",
    "MlpObserver",
    "ObserverConfig",
    "RiskSignal",
    "dc_detect",
    "make_observer",
    "ReplayBuffer",
    "RewardConfig",
    "Td3Agent",
    "Td3Config",
    "episode_reward",
    "jensen_shannon",
    "load_agent",
    "per_step_reward",
    "save_agent",
    "DeResult",
    "RiskControlProblem",
    "SolverResult",
    "differential_evolution",
    "propose_control",
    "simplex_repair",
    "__version__",
]

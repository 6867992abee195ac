"""Return-maximising RL agent: divergence-regularised rewards, replay
buffer, and a TD3 learner (twin critics run as one stacked net, delayed
policy updates, target policy smoothing) built on the dense-net engine.

The actor outputs logits mapped to portfolio weights by softmax; exploration
and smoothing noise are injected on the logits before the softmax.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .errors import (
    ConfigError,
    DimensionMismatch,
    InsufficientBuffer,
    IoFailure,
    NonPositiveGrowth,
)

LN2 = float(np.log(2.0))

_MAGIC_AGENT = b"TD3A1\n"


def jensen_shannon(p, q) -> float:
    """Jensen-Shannon divergence (natural log, 0*log 0 = 0); range [0, ln 2]."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DimensionMismatch(f"shapes {p.shape} vs {q.shape}")
    m = 0.5 * (p + q)

    def kl(a):
        mask = a > 0.0
        return float(np.sum(a[mask] * np.log(a[mask] / m[mask])))

    d = 0.5 * kl(p) + 0.5 * kl(q)
    return float(min(max(d, 0.0), LN2))


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the return term and the action-divergence term."""

    lambda1: float = 1.0
    lambda2: float = 0.1

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("reward weights must be non-negative")


@dataclass(frozen=True)
class RewardSummary:
    j: float
    j_return: float
    j_divergence: float


def per_step_reward(growth: float, jsd: float, config: RewardConfig) -> float:
    """lambda1 * log(growth) - lambda2 * jsd.

    ``growth`` is the per-step capital ratio C_t / C_{t-1} and ``jsd`` the
    step's JSD(a_rl || a_final).
    """
    if not growth > 0.0:
        raise NonPositiveGrowth(f"growth {growth} must be positive")
    return config.lambda1 * float(np.log(growth)) - config.lambda2 * jsd


def episode_reward(growth_rates, jsd_terms, c0: float, config: RewardConfig) -> RewardSummary:
    """Episode objective: lambda1/T * (log c0 + sum log r_t)
    - lambda2/T * sum JSD_t."""
    r = np.asarray(growth_rates, dtype=np.float64)
    d = np.asarray(jsd_terms, dtype=np.float64)
    if r.ndim != 1 or r.shape != d.shape:
        raise DimensionMismatch(f"growth {r.shape} vs divergence {d.shape}")
    if r.size == 0:
        raise DimensionMismatch("need at least one step")
    if not c0 > 0.0:
        raise NonPositiveGrowth(f"initial capital {c0} must be positive")
    if np.any(r <= 0.0):
        raise NonPositiveGrowth("growth rates must be positive")
    t = r.size
    j_return = (np.log(c0) + np.log(r).sum()) / t
    j_divergence = -d.mean()
    return RewardSummary(
        j=config.lambda1 * j_return + config.lambda2 * j_divergence,
        j_return=float(j_return),
        j_divergence=float(j_divergence),
    )


class Batch(tuple):
    """``(obs, a_final, next_obs, reward)``: column views of one array of
    ring rows laid out ``[obs | a_final | next_obs | reward]``.
    ``obs_action`` is ``[obs | a_final]``, the critics' input, as one more
    view of the same rows."""

    def __new__(cls, rows: np.ndarray, obs_dim: int, n_assets: int):
        a, b, c = obs_dim, obs_dim + n_assets, 2 * obs_dim + n_assets
        batch = super().__new__(cls, (rows[:, :a], rows[:, a:b], rows[:, b:c], rows[:, c:]))
        batch.obs_action = rows[:, :b]
        return batch


class ReplayBuffer:
    """Ring buffer of (obs, a_final, next_obs, reward) rows with a seeded
    uniform sampler (no replacement per batch). Row i is the i-th stored step
    until the ring wraps, after which each push overwrites the oldest row.

    The ring is one preallocated ``(capacity, 2 * obs_dim + n_assets + 1)``
    array laid out ``[obs | a_final | next_obs | reward]``; ``obs``,
    ``a_final``, ``next_obs`` and ``reward`` are views of its columns, and a
    batch is one fancy index of its rows."""

    def __init__(self, capacity: int, obs_dim: int, n_assets: int, seed=0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.obs_dim, self.n_assets = obs_dim, n_assets
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        # np.zeros maps its pages lazily: rows never written hold no memory
        self.ring = np.zeros((capacity, 2 * obs_dim + n_assets + 1))
        self.obs, self.a_final, self.next_obs, self.reward = Batch(self.ring, obs_dim, n_assets)
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs, a_final, next_obs, reward: float):
        i = self._next
        self.obs[i] = obs
        self.a_final[i] = a_final
        self.next_obs[i] = next_obs
        self.reward[i] = reward
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int) -> Batch:
        """``(obs, a_final, next_obs, reward)`` rows of a uniform batch."""
        if batch_size > self._size:
            raise InsufficientBuffer(
                f"batch {batch_size} > buffer size {self._size}"
            )
        idx = self.rng.choice(self._size, size=batch_size, replace=False)
        return Batch(self.ring[idx], self.obs_dim, self.n_assets)


@dataclass
class Td3Config:
    hidden: tuple[int, ...] = (64, 64)
    gamma: float = 0.99
    tau: float = 0.005
    policy_delay: int = 2
    sigma_explore: float = 0.1
    sigma_smooth: float = 0.2
    noise_clip: float = 0.5
    lr: float = 3e-4
    batch_size: int = 64
    buffer_capacity: int = 100_000
    warmup: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma {self.gamma} outside [0, 1]")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau {self.tau} outside (0, 1]")
        if self.policy_delay < 1:
            raise ValueError("policy_delay must be >= 1")
        if not self.lr > 0.0:
            raise ValueError(f"lr {self.lr} must be positive")
        for name in ("sigma_explore", "sigma_smooth", "noise_clip", "warmup"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} {getattr(self, name)} must be >= 0")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden sizes {list(self.hidden)} must each be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size {self.batch_size} must be >= 1")
        if self.buffer_capacity < 1:
            raise ValueError(f"buffer_capacity {self.buffer_capacity} must be >= 1")
        # a ring that never holds max(warmup, batch_size) rows never updates
        for name in ("batch_size", "warmup"):
            if getattr(self, name) > self.buffer_capacity:
                raise ValueError(
                    f"{name} {getattr(self, name)} > buffer_capacity {self.buffer_capacity}"
                )


def _net_sizes(obs_dim: int, n_assets: int, hidden) -> tuple[list[int], list[int]]:
    """Layer widths of the actor and of each critic, and of their targets."""
    return [obs_dim, *hidden, n_assets], [obs_dim + n_assets, *hidden, 1]


class Td3Agent:
    """TD3 with softmax-on-logits actions over portfolio weights."""

    def __init__(self, obs_dim: int, n_assets: int, config: Td3Config | None = None, seed=0):
        self.obs_dim = obs_dim
        self.n_assets = n_assets
        self.config = config or Td3Config()
        self.seed = seed
        ss = np.random.SeedSequence(seed)
        init_rng, self.noise_rng = [np.random.default_rng(c) for c in ss.spawn(2)]
        actor, critic = _net_sizes(obs_dim, n_assets, self.config.hidden)
        acts = ["relu"] * len(self.config.hidden) + ["linear"]
        self.actor = nn.DenseNet.create(actor, acts, init_rng)
        # row 0 is Q1 and row 1 is Q2; Adam is elementwise, so one state
        # over both rows steps each critic as its own state would
        self.critics = nn.DenseNet.stack([nn.DenseNet.create(critic, acts, init_rng) for _ in range(2)])
        self.actor_target = self.actor.copy()
        self.critics_target = self.critics.copy()
        self.actor_opt = nn.AdamState.for_params(self.actor.flat, lr=self.config.lr)
        self.critics_opt = nn.AdamState.for_params(self.critics.flat, lr=self.config.lr)
        self.update_count = 0

    # -- acting ---------------------------------------------------------

    def select_action(self, obs: np.ndarray, explore: bool = False) -> np.ndarray:
        """Portfolio weights softmax(actor logits [+ exploration noise]) for
        an observation vector."""
        logits, _ = nn.forward(self.actor, obs)
        if explore:
            logits = logits + self.config.sigma_explore * self.noise_rng.standard_normal(
                self.n_assets
            )
        return nn.softmax(logits)

    # -- learning ---------------------------------------------------------

    def _td_targets(self, rewards: np.ndarray, obs_next: np.ndarray) -> np.ndarray:
        """r + gamma * min(Q1', Q2') with smoothed target actions."""
        logits, _ = nn.forward(self.actor_target, obs_next)
        noise = self.config.sigma_smooth * self.noise_rng.standard_normal(logits.shape)
        np.clip(noise, -self.config.noise_clip, self.config.noise_clip, out=noise)
        actions = nn.softmax(logits + noise)
        q, _ = nn.forward(self.critics_target, np.concatenate([obs_next, actions], axis=1))
        return rewards + self.config.gamma * np.minimum(q[0], q[1])

    def _polyak(self):
        tau = self.config.tau
        for live, target in ((self.actor, self.actor_target), (self.critics, self.critics_target)):
            target.flat *= 1.0 - tau
            target.flat += tau * live.flat

    @functools.cached_property
    def _grads(self) -> tuple[np.ndarray, np.ndarray]:
        """The critics' and the actor's gradient vectors, rewritten by each
        update; a snapshot leaves them out and builds its own if it learns."""
        return np.empty_like(self.critics.flat), np.empty_like(self.actor.flat)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_grads"}

    def update(self, buffer: ReplayBuffer) -> dict:
        """One TD3 step on a ``config.batch_size`` sample: both critics every
        call, actor + target nets every ``policy_delay``-th call."""
        bs = self.config.batch_size
        batch = buffer.sample(bs)
        obs, _, obs_next, rewards = batch
        critics_grad, actor_grad = self._grads

        targets = self._td_targets(rewards, obs_next)
        q, tape = nn.forward(self.critics, batch.obs_action)
        err = q - targets
        # each critic's mean squared error, summed as np.mean sums it
        loss1, loss2 = ((err * err).sum(axis=(1, 2)) / bs).tolist()
        nn.backward(self.critics, tape, 2.0 * err / bs, critics_grad, inputs=False)
        nn.adam_step(self.critics_opt, self.critics.flat, critics_grad)

        self.update_count += 1
        out = {
            "critic_loss": 0.5 * (loss1 + loss2),
            "critic1_loss": loss1,
            "critic2_loss": loss2,
            "did_policy_update": False,
        }
        if self.update_count % self.config.policy_delay == 0:
            logits, actor_tape = nn.forward(self.actor, obs)
            acts = nn.softmax(logits)
            critic1 = self.critics.rows()[0]
            q, critic_tape = nn.forward(critic1, np.concatenate([obs, acts], axis=1))
            # ascend Q: minimise -mean(Q)
            _, d_in = nn.backward(critic1, critic_tape, np.full_like(q, -1.0 / bs), params=False)
            d_logits = nn.softmax_input_grad(acts, d_in[:, self.obs_dim :])
            nn.backward(self.actor, actor_tape, d_logits, actor_grad, inputs=False)
            nn.adam_step(self.actor_opt, self.actor.flat, actor_grad)
            self._polyak()
            out["actor_loss"] = float(-q.mean())
            out["did_policy_update"] = True
        return out

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> "Td3Agent":
        """Deep copy used for best-checkpoint selection."""
        return copy.deepcopy(self)


def save_agent(agent: Td3Agent, path, extra: dict | None = None):
    """Single versioned binary archive of the actor, the one net that acting
    reads, plus counters/config and the SHA-256 of the body."""
    body = nn.net_param_bytes(agent.actor)
    header = {
        "format": "td3-agent",
        "version": 2,
        "obs_dim": agent.obs_dim,
        "n_assets": agent.n_assets,
        "seed": agent.seed,
        "update_count": agent.update_count,
        "config": asdict(agent.config),
        "extra": extra or {},
        "nets": {"actor": nn.net_header(agent.actor)},
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    try:
        with open(path, "wb") as fh:
            fh.write(_MAGIC_AGENT)
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(body)
    except OSError as exc:
        raise IoFailure(f"cannot write agent checkpoint {path}: {exc}") from exc


@dataclass
class AgentHeader:
    """Wire format of the header line that :func:`save_agent` writes."""

    format: str
    version: int
    obs_dim: int
    n_assets: int
    update_count: int
    config: Td3Config
    nets: dict
    seed: int = 0
    extra: dict = field(default_factory=dict)
    body_sha256: str | None = None  # version 2 only

    def __post_init__(self):
        if min(self.obs_dim, self.n_assets) < 1 or min(self.update_count, self.seed) < 0:
            raise ValueError("obs_dim and n_assets must be >= 1, update_count and seed >= 0")


def load_agent(path, obs_dim: int | None = None, n_assets: int | None = None, hidden=None) -> tuple[Td3Agent, dict]:
    """Rebuild an agent from :func:`save_agent`; returns (agent, extra).

    Only the actor is read: version 2 holds it alone and the body's SHA-256,
    version 1 six nets, the actor first, and no checksum. The critics, target
    nets and Adam states are the ones ``Td3Agent`` builds from the header's
    dimensions and config; nothing reads them after a load. A header that
    cannot be parsed or has a value of the wrong type or range, a body of the
    wrong length or checksum, or a ``nets`` block that does not describe the
    built nets raises ``IoFailure``. Dimensions or hidden sizes other than
    the given ones raise ``ConfigError``, before any net is built.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read agent checkpoint {path}: {exc}") from exc
    if not blob.startswith(_MAGIC_AGENT):
        raise IoFailure(f"{path} is not an agent checkpoint")
    rest = blob[len(_MAGIC_AGENT) :]
    header_line, _, raw = rest.partition(b"\n")
    from .config import from_json  # config imports this module for Td3Config

    try:
        header = json.loads(header_line)
        if not isinstance(header, dict) or header.get("format") != "td3-agent" or header.get("version") not in (1, 2):
            raise IoFailure(f"unsupported agent checkpoint header in {path}")
        head = from_json(AgentHeader, header, "checkpoint")
    except (ValueError, ConfigError) as exc:
        raise IoFailure(f"corrupt agent checkpoint {path}: {exc}") from exc
    sizes = _net_sizes(head.obs_dim, head.n_assets, head.config.hidden)
    n_actor, n_critic = (sum(out * (n_in + 1) for n_in, out in zip(s, s[1:])) for s in sizes)
    count = n_actor if head.version == 2 else 2 * n_actor + 4 * n_critic
    if len(raw) != 8 * count:
        raise IoFailure(f"agent checkpoint {path} body holds {len(raw)} bytes, its header {8 * count}")
    if head.version == 2 and head.body_sha256 != hashlib.sha256(raw).hexdigest():
        raise IoFailure(f"agent checkpoint {path} body does not match its body_sha256 {head.body_sha256!r}")
    for field_name, want, got in (
        ("obs_dim", obs_dim, head.obs_dim),
        ("n_assets", n_assets, head.n_assets),
        ("agent.hidden", None if hidden is None else tuple(hidden), head.config.hidden),
    ):
        if want is not None and got != want:
            raise ConfigError(f"checkpoint {path} has {field_name} {got}, the run config needs {want}")
    agent = Td3Agent(head.obs_dim, head.n_assets, head.config, seed=head.seed)
    v1_names = ("actor", "actor_target", "critic1", "critic1_target", "critic2", "critic2_target")
    actor, critic = nn.net_header(agent.actor), nn.net_header(agent.critics)
    nets = {"actor": actor} if head.version == 2 else {n: actor if n.startswith("actor") else critic for n in v1_names}
    if head.nets != nets:
        raise IoFailure(f"agent checkpoint {path} has a nets block that its config does not build")
    agent.actor.flat[:] = np.frombuffer(raw, dtype="<f8", count=n_actor)
    agent.update_count = head.update_count
    return agent, head.extra

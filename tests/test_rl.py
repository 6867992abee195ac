"""RL agent: divergence-regularised rewards, replay buffer, TD3 learner."""

import copy
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_simplex
from test_nn import ArrayNet, ListAdamState, assert_layers_view, flatten, list_adam_step, list_backward
from portagents import nn
from portagents.errors import DimensionMismatch, InsufficientBuffer, NonPositiveGrowth
from portagents.rl import (
    LN2,
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

SMALL = Td3Config(hidden=(8, 8), warmup=0, batch_size=8, buffer_capacity=64)


def fill_buffer(n, obs_dim=5, n_assets=3, seed=0):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(256, obs_dim, n_assets, seed=seed + 1)
    for _ in range(n):
        a = rng.dirichlet(np.ones(n_assets))
        buf.push(rng.normal(size=obs_dim), a, rng.normal(size=obs_dim), float(rng.normal(scale=0.01)))
    return buf


def six_nets(agent: Td3Agent) -> dict[str, nn.DenseNet]:
    """The agent's nets by name, each critic a view of its stack's row."""
    (q1, q2), (q1_target, q2_target) = agent.critics.rows(), agent.critics_target.rows()
    return {"actor": agent.actor, "actor_target": agent.actor_target, "critic1": q1,
            "critic1_target": q1_target, "critic2": q2, "critic2_target": q2_target}


# -- Jensen-Shannon ------------------------------------------------------------


def test_jsd_identical_distributions():
    p = np.array([0.2, 0.3, 0.5])
    assert jensen_shannon(p, p) == 0.0


def test_jsd_disjoint_supports():
    assert jensen_shannon([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-15)


def test_jsd_matches_two_kl_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = random_simplex(rng, 5)
        q = random_simplex(rng, 5)
        m = 0.5 * (p + q)
        want = 0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m))
        assert jensen_shannon(p, q) == pytest.approx(want, abs=1e-12)
        assert jensen_shannon(p, q) == pytest.approx(jensen_shannon(q, p), abs=1e-15)


def test_jsd_bounded_and_definite():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_simplex(rng, 4)
        q = random_simplex(rng, 4)
        d = jensen_shannon(p, q)
        assert 0.0 <= d <= LN2
        if np.allclose(p, q, atol=1e-12):
            assert d < 1e-12


def test_jsd_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        jensen_shannon([0.5, 0.5], [1.0, 0.0, 0.0])


# -- rewards ---------------------------------------------------------------------


def test_per_step_reward_flat_growth_identical_actions():
    w = np.array([0.5, 0.5])
    assert per_step_reward(1.0, jensen_shannon(w, w), RewardConfig()) == 0.0


def test_per_step_reward_divergence_penalty():
    got = per_step_reward(1.0, jensen_shannon([1.0, 0.0], [0.0, 1.0]), RewardConfig(1.0, 1.0))
    assert got == pytest.approx(-LN2, abs=1e-15)


def test_per_step_reward_rejects_non_positive_growth():
    w = np.array([1.0, 0.0])
    with pytest.raises(NonPositiveGrowth):
        per_step_reward(0.0, jensen_shannon(w, w), RewardConfig())


def test_episode_reward_flat():
    w = 0.0
    summary = episode_reward([1.0, 1.0, 1.0], [w, w, w], 1.0, RewardConfig())
    assert summary.j == 0.0


def test_episode_reward_lambda2_zero_isolates_return_term():
    summary = episode_reward([1.02, 0.99], [0.3, 0.1], 1.0, RewardConfig(1.0, 0.0))
    assert summary.j == pytest.approx(summary.j_return)


def test_episode_reward_hand_case():
    # T=2, C0=1, identical actions: J = (ln 1.1 + ln 0.9) / 2
    summary = episode_reward([1.1, 0.9], [0.0, 0.0], 1.0, RewardConfig(1.0, 0.1))
    assert summary.j == pytest.approx(-0.005025167926750707, abs=1e-15)
    assert summary.j == pytest.approx(-0.005034, abs=1e-5)


def test_episode_reward_matches_per_step_aggregation():
    # J = lambda1 * log(C0)/T + mean of per-step rewards
    rng = np.random.default_rng(2)
    config = RewardConfig(1.3, 0.25)
    for _ in range(100):
        t = int(rng.integers(2, 40))
        growths = rng.uniform(0.95, 1.06, size=t)
        c0 = float(rng.uniform(0.5, 3.0))
        actions = [(random_simplex(rng, 4), random_simplex(rng, 4)) for _ in range(t)]
        jsds = [jensen_shannon(a, b) for a, b in actions]
        steps = [
            per_step_reward(g, jensen_shannon(a, b), config) for g, (a, b) in zip(growths, actions)
        ]
        want = config.lambda1 * np.log(c0) / t + np.mean(steps)
        got = episode_reward(growths, jsds, c0, config).j
        assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    lambdas=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
    c0=st.floats(0.01, 100.0),
    t=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_episode_reward_identity(lambdas, c0, t, seed):
    # T * J - lambda1 * log c0 is the sum of the per-step rewards of the same steps
    config = RewardConfig(*lambdas)
    rng = np.random.default_rng(seed)
    growths = rng.uniform(0.5, 1.5, size=t)
    actions = [(random_simplex(rng, 3), random_simplex(rng, 3)) for _ in range(t)]
    jsds = [jensen_shannon(a, b) for a, b in actions]
    steps = sum(per_step_reward(g, jensen_shannon(a, b), config) for g, (a, b) in zip(growths, actions))
    got = t * episode_reward(growths, jsds, c0, config).j - config.lambda1 * np.log(c0)
    assert got == pytest.approx(steps, rel=1e-9, abs=1e-9)


def test_episode_reward_validates_inputs():
    with pytest.raises(DimensionMismatch):
        episode_reward([1.0], [0.0, 0.0], 1.0, RewardConfig())
    with pytest.raises(DimensionMismatch):
        episode_reward([], [], 1.0, RewardConfig())
    with pytest.raises(NonPositiveGrowth):
        episode_reward([1.0, -0.2], [0.0, 0.0], 1.0, RewardConfig())
    with pytest.raises(NonPositiveGrowth):
        episode_reward([1.0], [0.0], 0.0, RewardConfig())


# -- replay buffer ----------------------------------------------------------------


def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(4, 1, 2, seed=0)
    for i in range(6):
        w = np.ones(2) / 2
        buf.push(np.array([float(i)]), w, np.array([float(i)]), float(i))
    assert len(buf) == 4
    # rows 0 and 1 were overwritten by the fifth and sixth step
    np.testing.assert_array_equal(buf.reward[:, 0], [4.0, 5.0, 2.0, 3.0])
    np.testing.assert_array_equal(buf.obs[:, 0], [4.0, 5.0, 2.0, 3.0])


def test_buffer_sample_without_replacement():
    buf = fill_buffer(20)
    obs, a_final, obs_next, reward = buf.sample(20)
    assert obs.shape == obs_next.shape == (20, 5)
    assert a_final.shape == (20, 3) and reward.shape == (20, 1)
    assert len({row.tobytes() for row in obs}) == 20


def test_buffer_sample_insufficient():
    buf = fill_buffer(3)
    with pytest.raises(InsufficientBuffer):
        buf.sample(4)


def test_buffer_sampling_deterministic():
    a = fill_buffer(30, seed=7)
    b = fill_buffer(30, seed=7)
    np.testing.assert_array_equal(a.sample(8)[3], b.sample(8)[3])


# -- TD3 agent ----------------------------------------------------------------------


def test_actor_zero_weights_gives_uniform():
    agent = Td3Agent(obs_dim=5, n_assets=4, config=SMALL, seed=0)
    for p in agent.actor.params():
        p[:] = 0.0
    action = agent.select_action(np.ones(5))
    np.testing.assert_allclose(action, np.full(4, 0.25), atol=1e-12)


def test_select_action_deterministic_without_noise():
    agent = Td3Agent(obs_dim=5, n_assets=3, config=SMALL, seed=1)
    obs = np.linspace(-1, 1, 5)
    np.testing.assert_array_equal(agent.select_action(obs), agent.select_action(obs))


def test_select_action_reproducible_with_seed():
    obs = np.linspace(-1, 1, 5)
    a = Td3Agent(5, 3, SMALL, seed=3).select_action(obs, explore=True)
    b = Td3Agent(5, 3, SMALL, seed=3).select_action(obs, explore=True)
    np.testing.assert_array_equal(a, b)


def test_select_action_always_on_simplex():
    agent = Td3Agent(obs_dim=6, n_assets=5, config=SMALL, seed=4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = agent.select_action(rng.normal(scale=3, size=6), explore=True)
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_td_targets_discount_free():
    config = Td3Config(hidden=(8, 8), gamma=0.0, warmup=0, batch_size=4, buffer_capacity=32)
    agent = Td3Agent(obs_dim=5, n_assets=3, config=config, seed=6)
    rewards = np.ones((4, 1))
    obs_next = np.random.default_rng(7).normal(size=(4, 5))
    targets = agent._td_targets(rewards, obs_next)
    np.testing.assert_allclose(targets, np.ones((4, 1)), atol=1e-12)


def test_td_targets_use_elementwise_min_of_twin_critics():
    agent = Td3Agent(obs_dim=5, n_assets=3, config=SMALL, seed=8)
    clone = copy.deepcopy(agent)  # clones the noise stream too
    rewards = np.zeros((6, 1))
    obs_next = np.random.default_rng(9).normal(size=(6, 5))
    targets = agent._td_targets(rewards, obs_next)

    logits, _ = nn.forward(clone.actor_target, obs_next)
    noise = clone.config.sigma_smooth * clone.noise_rng.standard_normal(logits.shape)
    noise = np.clip(noise, -clone.config.noise_clip, clone.config.noise_clip)
    q_in = np.concatenate([obs_next, nn.softmax(logits + noise)], axis=1)
    q1_target, q2_target = clone.critics_target.rows()
    q1, _ = nn.forward(q1_target, q_in)
    q2, _ = nn.forward(q2_target, q_in)
    min_q = np.minimum(q1, q2)
    np.testing.assert_allclose(targets, rewards + clone.config.gamma * min_q, atol=1e-12)
    assert np.all(min_q <= q1 + 1e-15) and np.all(min_q <= q2 + 1e-15)


def test_policy_delay_gates_actor_updates():
    agent = Td3Agent(obs_dim=5, n_assets=3, config=SMALL, seed=10)
    buf = fill_buffer(32)
    flags = [agent.update(buf)["did_policy_update"] for _ in range(4)]
    assert flags == [False, True, False, True]
    out = agent.update(buf)
    assert "critic_loss" in out and "critic1_loss" in out and "critic2_loss" in out
    assert "actor_loss" not in out  # fifth call is a critic-only step


def test_full_polyak_copy_with_tau_one():
    config = Td3Config(hidden=(8, 8), tau=1.0, policy_delay=1, warmup=0, batch_size=8, buffer_capacity=64)
    agent = Td3Agent(obs_dim=5, n_assets=3, config=config, seed=11)
    agent.update(fill_buffer(16))
    for live, target in ((agent.actor, agent.actor_target), (agent.critics, agent.critics_target)):
        for p, tp in zip(live.params(), target.params()):
            np.testing.assert_array_equal(p, tp)


def test_update_bit_deterministic():
    def run():
        agent = Td3Agent(obs_dim=5, n_assets=3, config=SMALL, seed=12)
        buf = fill_buffer(32, seed=13)
        for _ in range(6):
            agent.update(buf)
        return [p.copy() for p in agent.actor.params()]

    for a, b in zip(run(), run()):
        np.testing.assert_array_equal(a, b)


def test_critic_learns_constant_reward():
    # gamma=0, constant reward: critics regress toward 1
    config = Td3Config(hidden=(16,), gamma=0.0, warmup=0, batch_size=16,
                       buffer_capacity=128, lr=3e-3, policy_delay=10_000)
    agent = Td3Agent(obs_dim=4, n_assets=2, config=config, seed=14)
    rng = np.random.default_rng(15)
    buf = ReplayBuffer(128, 4, 2, seed=16)
    for _ in range(64):
        w = rng.dirichlet(np.ones(2))
        buf.push(rng.normal(size=4), w, rng.normal(size=4), 1.0)
    first = agent.update(buf)["critic_loss"]
    for _ in range(400):
        last = agent.update(buf)["critic_loss"]
    assert last < first * 0.05


def test_agent_save_load_roundtrip(tmp_path):
    agent = Td3Agent(obs_dim=6, n_assets=3, config=SMALL, seed=17)
    for _ in range(3):
        agent.update(fill_buffer(32, obs_dim=6, seed=18))
    path = tmp_path / "agent.bin"
    save_agent(agent, path, extra={"note": "roundtrip"})
    back, extra = load_agent(path)
    assert extra["note"] == "roundtrip"
    assert back.update_count == agent.update_count
    assert back.config == agent.config
    obs = np.linspace(0, 1, 6)
    np.testing.assert_array_equal(back.select_action(obs), agent.select_action(obs))
    assert [l.activation for l in back.actor.layers] == [l.activation for l in agent.actor.layers]
    for p, q in zip(agent.actor.params(), back.actor.params()):
        np.testing.assert_array_equal(p, q)
    assert_layers_view(back.actor)
    # byte-identical on re-save; the body is the actor's float64s alone
    save_agent(back, tmp_path / "agent2.bin", extra={"note": "roundtrip"})
    blob = (tmp_path / "agent.bin").read_bytes()
    assert blob == (tmp_path / "agent2.bin").read_bytes()
    assert len(blob.split(b"\n", 2)[2]) == 8 * agent.actor.flat.size
    # writable, and not the checkpoint's buffer; the optimiser starts afresh
    assert back.actor_opt.step == 0 and not np.any(back.actor_opt.m)
    back.actor.flat[:] = 0.0
    assert not np.any(back.actor.layers[0].w)
    assert np.any(agent.actor.layers[0].w)


def test_snapshot_keeps_each_net_tied_to_its_own_vector():
    agent = Td3Agent(obs_dim=5, n_assets=3, config=SMALL, seed=19)
    snap = agent.snapshot()
    for net in six_nets(snap).values():
        assert_layers_view(net)
    for name in ("actor", "actor_target", "critics", "critics_target"):
        net = getattr(snap, name)
        assert all(np.shares_memory(p, net.flat) for p in net.params())
        assert not np.shares_memory(net.flat, getattr(agent, name).flat)
    w0 = snap.actor.layers[0].w.copy()
    nn.adam_step(snap.actor_opt, snap.actor.flat, np.ones_like(snap.actor.flat))
    assert np.all(snap.actor.layers[0].w < w0)
    np.testing.assert_array_equal(agent.actor.layers[0].w, w0)


# -- oracle: the learner as it was with a list buffer of Transition objects and
# per-layer parameter arrays ------------------------------------------------------


@dataclass
class Transition:
    """One stored step: (o_prev, a_final, a_rl, o_next, reward)."""

    o_prev: object
    a_final: np.ndarray
    a_rl: np.ndarray
    o_next: object
    reward: float


def _vec(obs) -> np.ndarray:
    return obs.vector if hasattr(obs, "vector") else np.asarray(obs, dtype=np.float64)


class ListReplayBuffer:
    """Ring buffer with a seeded uniform sampler (no replacement per batch)."""

    def __init__(self, capacity: int, seed=0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self._items: list[Transition] = []
        self._next = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition):
        if len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size: int) -> list[Transition]:
        if batch_size > len(self._items):
            raise InsufficientBuffer(
                f"batch {batch_size} > buffer size {len(self._items)}"
            )
        idx = self.rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[i] for i in idx]


class ListTd3:
    """A twin of a fresh ``Td3Agent`` that learns the old way: nets with an
    array per layer, list Adam states, and the update below."""

    def __init__(self, agent: Td3Agent):
        self.config, self.obs_dim = agent.config, agent.obs_dim
        self.noise_rng = copy.deepcopy(agent.noise_rng)
        for name, net in six_nets(agent).items():
            setattr(self, name, ArrayNet(net))
        lr = self.config.lr
        self.actor_opt = ListAdamState.for_params(self.actor.params(), lr=lr)
        self.critic1_opt = ListAdamState.for_params(self.critic1.params(), lr=lr)
        self.critic2_opt = ListAdamState.for_params(self.critic2.params(), lr=lr)
        self.update_count = 0

    def _td_targets(self, rewards: np.ndarray, obs_next: np.ndarray) -> np.ndarray:
        """r + gamma * min(Q1', Q2') with smoothed target actions."""
        logits, _ = nn.forward(self.actor_target, obs_next)
        noise = self.config.sigma_smooth * self.noise_rng.standard_normal(logits.shape)
        noise = np.clip(noise, -self.config.noise_clip, self.config.noise_clip)
        actions = nn.softmax(logits + noise)
        q_in = np.concatenate([obs_next, actions], axis=1)
        q1, _ = nn.forward(self.critic1_target, q_in)
        q2, _ = nn.forward(self.critic2_target, q_in)
        return rewards + self.config.gamma * np.minimum(q1, q2)

    def _polyak(self):
        tau = self.config.tau
        for live, target in (
            (self.actor, self.actor_target),
            (self.critic1, self.critic1_target),
            (self.critic2, self.critic2_target),
        ):
            for p, tp in zip(live.params(), target.params()):
                tp *= 1.0 - tau
                tp += tau * p

    def update(self, buffer: ListReplayBuffer, batch_size: int | None = None) -> dict:
        """One TD3 step: both critics every call, actor + target nets every
        ``policy_delay``-th call."""
        bs = batch_size or self.config.batch_size
        batch = buffer.sample(bs)
        obs = np.stack([_vec(t.o_prev) for t in batch])
        obs_next = np.stack([_vec(t.o_next) for t in batch])
        actions = np.stack([np.asarray(t.a_final, dtype=np.float64) for t in batch])
        rewards = np.asarray([t.reward for t in batch], dtype=np.float64).reshape(-1, 1)

        targets = self._td_targets(rewards, obs_next)
        q_in = np.concatenate([obs, actions], axis=1)
        losses = {}
        for name, critic, opt in (
            ("critic1", self.critic1, self.critic1_opt),
            ("critic2", self.critic2, self.critic2_opt),
        ):
            q, tape = nn.forward(critic, q_in)
            err = q - targets
            losses[f"{name}_loss"] = float(np.mean(err * err))
            grads, _ = list_backward(critic, tape, 2.0 * err / bs)
            list_adam_step(opt, critic.params(), grads)

        self.update_count += 1
        out = {
            "critic_loss": 0.5 * (losses["critic1_loss"] + losses["critic2_loss"]),
            **losses,
            "did_policy_update": False,
        }
        if self.update_count % self.config.policy_delay == 0:
            logits, actor_tape = nn.forward(self.actor, obs)
            acts = nn.softmax(logits)
            q_in_pi = np.concatenate([obs, acts], axis=1)
            q, critic_tape = nn.forward(self.critic1, q_in_pi)
            # ascend Q: minimise -mean(Q)
            _, d_in = list_backward(self.critic1, critic_tape, np.full_like(q, -1.0 / bs))
            d_logits = nn.softmax_input_grad(acts, d_in[:, self.obs_dim :])
            grads, _ = list_backward(self.actor, actor_tape, d_logits)
            list_adam_step(self.actor_opt, self.actor.params(), grads)
            self._polyak()
            out["actor_loss"] = float(-np.mean(q))
            out["did_policy_update"] = True
        return out


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    obs_dim=st.integers(1, 30),
    n_assets=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 24), min_size=1, max_size=3),
    batch=st.integers(1, 40),
    policy_delay=st.integers(1, 3),
    tau=st.floats(0.001, 1.0),
    data=st.data(),
)
def test_update_matches_list_buffer_and_per_array_learner(
    seed, obs_dim, n_assets, hidden, batch, policy_delay, tau, data
):
    # a ring smaller than the pushes wraps while the agents learn
    capacity = data.draw(st.integers(batch, 3 * batch), label="capacity")
    config = Td3Config(hidden=tuple(hidden), tau=tau, policy_delay=policy_delay,
                       batch_size=batch, buffer_capacity=capacity, warmup=0, lr=1e-2)
    agent = Td3Agent(obs_dim, n_assets, config, seed=seed)
    twin = ListTd3(agent)
    ring = ReplayBuffer(capacity, obs_dim, n_assets, seed=seed + 1)
    listed = ListReplayBuffer(capacity, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)

    def push():
        a_final, a_rl = rng.dirichlet(np.ones(n_assets), size=2)
        o_prev, o_next = rng.normal(size=(2, obs_dim))
        reward = float(rng.normal(scale=0.01))
        ring.push(o_prev, a_final, o_next, reward)
        listed.push(Transition(o_prev, a_final, a_rl, o_next, reward))

    for _ in range(batch):
        push()
    for _ in range(24):
        assert agent.update(ring) == twin.update(listed)
        push()
    for name, net in six_nets(agent).items():
        assert np.array_equal(net.flat, flatten(getattr(twin, name).params())), name
    assert agent.noise_rng.bit_generator.state == twin.noise_rng.bit_generator.state
    assert ring.rng.bit_generator.state == listed.rng.bit_generator.state

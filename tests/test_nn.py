"""Dense-net engine: forward, reverse-mode gradients, Adam, persistence."""

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portagents import nn
from portagents.errors import DimensionMismatch, NonFiniteInput, ShapeMismatch, StaleTape


def make_net(sizes, activations, seed=0):
    return nn.DenseNet.create(sizes, activations, np.random.default_rng(seed))


def scalar_forward(net, x):
    """Independent pure-Python evaluation, no matrix ops."""
    a = list(map(float, x))
    for layer in net.layers:
        out_dim, in_dim = layer.w.shape  # (out, in) convention
        z = []
        for j in range(out_dim):
            s = float(layer.b[j])
            for i in range(in_dim):
                s += float(layer.w[j, i]) * a[i]
            z.append(s)
        if layer.activation == "relu":
            a = [max(0.0, v) for v in z]
        elif layer.activation == "tanh":
            a = [math.tanh(v) for v in z]
        else:
            a = z
    return np.array(a)


# -- forward -------------------------------------------------------------------


def test_forward_zero_net_linear():
    net = make_net([3, 2], ["linear"])
    for p in net.params():
        p[:] = 0.0
    out, _ = nn.forward(net, np.ones(3))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_forward_single_affine_layer():
    net = make_net([1, 1], ["linear"])
    net.layers[0].w[:] = [[2.0]]
    net.layers[0].b[:] = [1.0]
    out, _ = nn.forward(net, np.array([3.0]))
    np.testing.assert_allclose(out, [7.0])


def test_forward_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for seed in range(5):
        net = make_net([4, 6, 3], ["tanh", "tanh"], seed=seed)
        x = rng.normal(size=4)
        out, _ = nn.forward(net, x)
        np.testing.assert_allclose(out, scalar_forward(net, x), atol=1e-12)


def test_forward_batch_matches_rowwise():
    net = make_net([3, 5, 2], ["relu", "linear"], seed=4)
    xs = np.random.default_rng(2).normal(size=(7, 3))
    batch, _ = nn.forward(net, xs)
    for i in range(7):
        row, _ = nn.forward(net, xs[i])
        np.testing.assert_allclose(batch[i], row, atol=1e-12)


def test_forward_rejects_bad_input():
    net = make_net([3, 2], ["linear"])
    with pytest.raises(DimensionMismatch):
        nn.forward(net, np.ones(4))
    with pytest.raises(NonFiniteInput):
        nn.forward(net, np.array([1.0, np.nan, 0.0]))


# -- backward ------------------------------------------------------------------


def test_backward_zero_output_gradient():
    net = make_net([3, 4, 2], ["tanh", "linear"], seed=3)
    out, tape = nn.forward(net, np.ones(3))
    grad, d_in = nn.backward(net, tape, np.zeros_like(out))
    np.testing.assert_array_equal(grad, np.zeros_like(net.flat))
    np.testing.assert_array_equal(d_in, np.zeros(3))


def test_backward_single_linear_hand_case():
    # loss = output; dL/dW = input = 3, dL/db = 1
    net = make_net([1, 1], ["linear"])
    net.layers[0].w[:] = [[2.0]]
    net.layers[0].b[:] = [1.0]
    _, tape = nn.forward(net, np.array([3.0]))
    grad, _ = nn.backward(net, tape, np.array([1.0]))
    grads = net.views(grad)
    np.testing.assert_allclose(grads[0], [[3.0]])
    np.testing.assert_allclose(grads[1], [1.0])


def finite_difference_grads(net, x, v, h=1e-5):
    """Central differences of loss = v . forward(x) over every parameter."""
    grads = []
    for p in net.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + h
            hi = float(v @ nn.forward(net, x)[0])
            p[idx] = old - h
            lo = float(v @ nn.forward(net, x)[0])
            p[idx] = old
            g[idx] = (hi - lo) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = make_net([4, 8, 8, 3], ["tanh", "relu", "linear"], seed=5)
    x = rng.normal(size=4)
    v = rng.normal(size=3)
    _, tape = nn.forward(net, x)
    grad, _ = nn.backward(net, tape, v)
    fd = finite_difference_grads(net, x, v)
    for g, f in zip(net.views(grad), fd):
        rel = np.abs(g - f) / np.maximum.reduce([np.abs(g), np.abs(f), np.full_like(g, 1e-6)])
        assert rel.max() < 1e-4


def test_backward_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = make_net([5, 7, 2], ["tanh", "tanh"], seed=6)
    x = rng.normal(size=5)
    v = rng.normal(size=2)
    _, tape = nn.forward(net, x)
    _, d_in = nn.backward(net, tape, v)
    h = 1e-6
    for i in range(5):
        e = np.zeros(5)
        e[i] = h
        hi = float(v @ nn.forward(net, x + e)[0])
        lo = float(v @ nn.forward(net, x - e)[0])
        assert d_in[i] == pytest.approx((hi - lo) / (2 * h), abs=1e-6)


def test_backward_batch_sums_per_sample_grads():
    net = make_net([3, 4, 2], ["relu", "linear"], seed=7)
    xs = np.random.default_rng(8).normal(size=(5, 3))
    gs = np.random.default_rng(9).normal(size=(5, 2))
    _, tape = nn.forward(net, xs)
    batch_grad, _ = nn.backward(net, tape, gs)
    summed = np.zeros_like(net.flat)
    for i in range(5):
        _, t = nn.forward(net, xs[i])
        summed += nn.backward(net, t, gs[i])[0]
    np.testing.assert_allclose(batch_grad, summed, atol=1e-12)


def test_backward_rejects_stale_tape():
    net_a = make_net([2, 2], ["linear"], seed=1)
    net_b = make_net([2, 2], ["linear"], seed=2)
    _, tape = nn.forward(net_a, np.ones(2))
    with pytest.raises(StaleTape):
        nn.backward(net_b, tape, np.ones(2))


# -- softmax -------------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(nn.softmax(np.full(5, 3.2)), np.full(5, 0.2), atol=1e-15)


def test_softmax_extreme_logits_stable():
    out = nn.softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)


def test_softmax_matches_naive_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        z = rng.normal(scale=3.0, size=6)
        naive = np.exp(z) / np.exp(z).sum()
        got = nn.softmax(z)
        np.testing.assert_allclose(got, naive, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_input_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    z = rng.normal(size=4)
    v = rng.normal(size=4)
    s = nn.softmax(z)
    got = nn.softmax_input_grad(s, v)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        want = (v @ nn.softmax(z + e) - v @ nn.softmax(z - e)) / (2 * h)
        assert got[i] == pytest.approx(want, abs=1e-6)


# -- Adam ------------------------------------------------------------------------


def test_adam_zero_gradient_fixed_point():
    params = np.array([1.0, -2.0, 0.5])
    state = nn.AdamState.for_params(params, lr=0.1)
    nn.adam_step(state, params, np.zeros(3))
    np.testing.assert_array_equal(params, [1.0, -2.0, 0.5])


def test_adam_first_step_moves_by_lr():
    # bias-corrected first step: m_hat = g, v_hat = g^2 -> step = lr * g/(|g|+eps)
    params = np.array([0.0])
    state = nn.AdamState.for_params(params, lr=0.1)
    nn.adam_step(state, params, np.array([1.0]))
    assert params[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_deterministic():
    def run():
        params = np.linspace(-1, 1, 6)
        state = nn.AdamState.for_params(params, lr=0.01)
        g = np.arange(6.0)
        for _ in range(25):
            nn.adam_step(state, params, g)
        return params

    np.testing.assert_array_equal(run(), run())


def test_adam_against_hand_recurrence():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    params = np.array([0.7])
    state = nn.AdamState.for_params(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    p, m, v = 0.7, 0.0, 0.0
    for t in range(1, 8):
        g = 0.3 * p  # gradient of 0.15 p^2
        nn.adam_step(state, params, np.array([g]))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert params[0] == pytest.approx(p, abs=1e-12)


def test_adam_rejects_mismatched_vectors():
    state = nn.AdamState.for_params(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        nn.adam_step(state, np.zeros(3), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        nn.adam_step(state, np.zeros(4), np.zeros(4))


# -- one parameter vector per net -----------------------------------------------


def assert_layers_view(net):
    """Every layer's w and b read and write ``net.flat`` in params() order."""
    pos = 0
    for p in net.params():
        # a row view's base is its stack's vector, so test the memory itself
        segment = net.flat[pos : pos + p.size]
        assert np.shares_memory(p, segment)
        np.testing.assert_array_equal(p.ravel(), segment)
        old = p.copy()
        p += 1.0
        np.testing.assert_array_equal(segment, old.ravel() + 1.0)
        p[...] = old
        pos += p.size
    assert pos == net.flat.size


def test_layers_are_views_of_the_parameter_vector():
    net = make_net([4, 6, 3, 2], ["relu", "tanh", "linear"], seed=13)
    assert_layers_view(net)
    net.flat[:] = np.arange(net.flat.size)
    np.testing.assert_array_equal(net.layers[0].w[0], [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(net.layers[0].b, [24.0, 25.0, 26.0, 27.0, 28.0, 29.0])


@pytest.mark.parametrize("clone", [nn.DenseNet.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copies_keep_their_layers_tied_to_their_own_vector(clone):
    net = make_net([4, 6, 2], ["relu", "linear"], seed=14)
    twin = clone(net)
    assert_layers_view(twin)
    assert not np.shares_memory(twin.flat, net.flat)
    before = [p.copy() for p in net.params()]
    state = nn.AdamState.for_params(twin.flat, lr=0.1)
    nn.adam_step(state, twin.flat, np.ones_like(twin.flat))
    for p, q, old in zip(twin.params(), net.params(), before):
        assert np.all(p < old)  # every layer of the copy moved
        np.testing.assert_array_equal(q, old)  # the original did not


# -- persistence -----------------------------------------------------------------


def test_net_save_load_roundtrip():
    # a checkpoint restores a net by filling one built from the same spec
    net = make_net([4, 6, 2], ["relu", "linear"], seed=12)
    raw = nn.net_param_bytes(net)
    back = make_net([4, 6, 2], ["relu", "linear"], seed=13)
    assert nn.net_header(back) == nn.net_header(net)
    assert len(raw) == 8 * back.flat.size
    back.flat[:] = np.frombuffer(raw, dtype="<f8")
    assert [l.activation for l in back.layers] == [l.activation for l in net.layers]
    for a, b in zip(net.params(), back.params()):
        np.testing.assert_array_equal(a, b)
    assert_layers_view(back)
    # byte-identical on re-save
    assert nn.net_param_bytes(back) == raw
    back.flat[:] = 0.0  # writable, and not the checkpoint's buffer
    assert not np.any(back.layers[0].w)
    assert nn.net_param_bytes(net) == raw


# -- oracle: the engine as it was when each layer owned its arrays ------------------


class ArrayNet:
    """The same net with every layer's w and b in an array of its own."""

    def __init__(self, net):
        self.layers = [nn.Layer(l.w.copy(), l.b.copy(), l.activation) for l in net.layers]
        self.input_dim = net.input_dim

    def params(self):
        out = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
        return out


def list_backward(net, tape, output_gradient):
    """Reverse-mode gradients.

    Returns ``(param_grads, input_grad)`` where ``param_grads`` matches
    ``net.params()`` order. Parameter gradients are summed over the batch.
    """
    if tape.net is not net:
        raise StaleTape("tape was recorded on a different net")
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != tape.activations[-1].shape:
        raise ShapeMismatch(
            f"output gradient shape {g.shape} != output shape {tape.activations[-1].shape}"
        )
    grads: list = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a = tape.activations[i]
        gz = nn._activation_input_grad(a, g, layer.activation)
        prev = tape.x if i == 0 else tape.activations[i - 1]
        if gz.ndim == 1:
            grads[2 * i] = np.outer(gz, prev)
            grads[2 * i + 1] = gz.copy()
        else:
            grads[2 * i] = gz.T @ prev
            grads[2 * i + 1] = gz.sum(axis=0)
        g = gz @ layer.w
    return grads, g


@dataclass
class ListAdamState:
    """Adam moment estimates and step count for a fixed parameter list."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def list_adam_step(state: ListAdamState, params, grads):
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeMismatch("params/grads do not match the Adam state")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ShapeMismatch(f"param {p.shape} vs grad {g.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 40), min_size=2, max_size=5),
    batch=st.integers(0, 70),
    data=st.data(),
)
def test_flat_engine_matches_per_array_engine(seed, sizes, batch, data):
    acts = data.draw(st.lists(st.sampled_from(nn.ACTIVATIONS), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    rng = np.random.default_rng(seed)
    net = nn.DenseNet.create(sizes, acts, rng)
    old = ArrayNet(net)
    state = nn.AdamState.for_params(net.flat, lr=1e-2)
    old_state = ListAdamState.for_params(old.params(), lr=1e-2)
    shape = (sizes[0],) if batch == 0 else (batch, sizes[0])
    for _ in range(3):
        x = rng.normal(size=shape)
        out, tape = nn.forward(net, x)
        old_out, old_tape = nn.forward(old, x)
        assert np.array_equal(out, old_out)
        g_out = rng.normal(size=out.shape)
        grad, d_in = nn.backward(net, tape, g_out)
        old_grads, old_d_in = list_backward(old, old_tape, g_out)
        assert np.array_equal(grad, flatten(old_grads))
        assert np.array_equal(d_in, old_d_in)
        nn.adam_step(state, net.flat, grad)
        list_adam_step(old_state, old.params(), old_grads)
        assert np.array_equal(net.flat, flatten(old.params()))
        assert np.array_equal(state.m, flatten(old_state.m))
        assert np.array_equal(state.v, flatten(old_state.v))


def test_create_rejects_bad_spec():
    with pytest.raises(DimensionMismatch):
        make_net([3, 2], ["linear", "tanh"])  # activation count mismatch
    with pytest.raises(ShapeMismatch):
        nn.DenseNet([3, 2], ["linear"], np.zeros(7))  # 8 parameters
    with pytest.raises(ShapeMismatch):
        nn.DenseNet.stack([make_net([3, 2], ["linear"]), make_net([3, 3], ["linear"])])


# -- a stack of nets -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4),
    batch=st.integers(1, 40),
    data=st.data(),
)
def test_stack_is_bit_equal_to_each_net_alone(seed, k, sizes, batch, data):
    acts = data.draw(st.lists(st.sampled_from(nn.ACTIVATIONS), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    rng = np.random.default_rng(seed)
    nets = [nn.DenseNet.create(sizes, acts, rng) for _ in range(k)]
    stack = nn.DenseNet.stack(nets)
    x = rng.normal(size=(batch, sizes[0]))
    out, tape = nn.forward(stack, x)
    assert out.shape == (k, batch, sizes[-1])
    g_out = rng.normal(size=out.shape)
    grad, d_in = nn.backward(stack, tape, g_out)
    assert grad.shape == stack.flat.shape and d_in.shape == (k, batch, sizes[0])
    for i, net in enumerate(nets):
        assert np.array_equal(stack.flat[i], net.flat)
        net_out, net_tape = nn.forward(net, x)
        assert np.array_equal(out[i], net_out)
        net_grad, net_d_in = nn.backward(net, net_tape, g_out[i])
        assert np.array_equal(grad[i], net_grad)
        assert np.array_equal(d_in[i], net_d_in)
    # the stack holds copies; its rows are views of it
    assert not any(np.shares_memory(stack.flat, net.flat) for net in nets)
    for i, row in enumerate(stack.rows()):
        assert_layers_view(row)
        row.flat[:] = -i
        assert np.all(stack.flat[i] == -i) and np.all(stack.layers[0].w[i] == -i)
    # one vector would broadcast against the (k, 1, out) biases
    with pytest.raises(DimensionMismatch):
        nn.forward(stack, x[0])


# -- cached layout, caller-owned gradient vectors, input-only backward --------------


def per_call_views(net, vector):
    """The layout as ``views`` rebuilt it on every call before nets cached it."""
    lead, out, pos = vector.shape[:-1], [], 0
    for n_in, n_out in zip(net.sizes, net.sizes[1:]):
        for shape in ((n_out, n_in), (1, n_out) if lead else (n_out,)):
            size = math.prod(shape)
            out.append(vector[..., pos : pos + size].reshape(*lead, *shape))
            pos += size
    return out


@st.composite
def nets_and_batches(draw):
    """A single net or a stack of 2 or 3, its rng, and an input batch
    shape: one vector (single nets only) or a batch of rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    sizes = draw(st.lists(st.integers(1, 24), min_size=2, max_size=4))
    acts = draw(st.lists(st.sampled_from(nn.ACTIVATIONS), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    k = draw(st.sampled_from([None, 2, 3]))
    batch = draw(st.integers(1 if k else 0, 30))
    rng = np.random.default_rng(seed)
    net = nn.DenseNet.create(sizes, acts, rng)
    if k:
        net = nn.DenseNet.stack([net] + [nn.DenseNet.create(sizes, acts, rng) for _ in range(k - 1)])
    return net, rng, (sizes[0],) if batch == 0 else (batch, sizes[0])


@settings(max_examples=80, deadline=None)
@given(case=nets_and_batches())
def test_one_sided_backwards_give_the_full_backwards_gradients(case):
    net, rng, shape = case
    out, tape = nn.forward(net, rng.normal(size=shape))
    g_out = rng.normal(size=out.shape)
    grad, d_in = nn.backward(net, tape, g_out)
    none, d_in_only = nn.backward(net, tape, g_out, params=False)
    assert none is None
    assert np.array_equal(d_in_only, d_in)
    grad_only, none = nn.backward(net, tape, g_out, inputs=False)
    assert none is None
    assert np.array_equal(grad_only, grad)


@settings(max_examples=80, deadline=None)
@given(case=nets_and_batches())
def test_backward_into_a_reused_vector_equals_fresh_ones(case):
    net, rng, shape = case
    twin = net.copy()  # its fresh gradients leave the views net keeps alone
    reused = np.full_like(net.flat, np.nan)  # an entry left unwritten stays NaN
    for _ in range(2):  # the second call writes through the views the first kept
        x = rng.normal(size=shape)
        out, tape = nn.forward(net, x)
        g_out = rng.normal(size=out.shape)
        grad, d_in = nn.backward(net, tape, g_out, reused)
        fresh, fresh_d_in = nn.backward(twin, nn.forward(twin, x)[1], g_out)
        assert grad is reused
        assert np.array_equal(reused, fresh) and np.array_equal(d_in, fresh_d_in)
        assert not any(np.shares_memory(reused, a) for a in (fresh, net.flat, tape.x, d_in, *tape.activations))
    # a fresh vector on the same net, then the reused one again
    fresh, _ = nn.backward(net, tape, g_out)
    np.copyto(reused, np.nan)
    assert np.array_equal(nn.backward(net, tape, g_out, reused)[0], fresh)
    assert not np.shares_memory(reused, fresh)
    with pytest.raises(ShapeMismatch):
        nn.backward(net, tape, g_out, np.zeros(net.flat.size + 1))


@settings(max_examples=80, deadline=None)
@given(case=nets_and_batches())
def test_cached_views_equal_the_per_call_layout(case):
    net, rng, _ = case
    vector = rng.normal(size=net.flat.shape)
    for cached, rebuilt in zip(net.views(vector), per_call_views(net, vector), strict=True):
        assert cached.shape == rebuilt.shape and np.shares_memory(cached, vector)
        assert np.array_equal(cached, rebuilt)
    assert [p.shape for p in net.params()] == [p.shape for p in per_call_views(net, net.flat)]
    if net.flat.ndim == 2:
        assert net.rows() is net.rows()  # built once
        assert all(np.shares_memory(row.flat, net.flat) for row in net.rows())


@settings(max_examples=60, deadline=None)
@given(case=nets_and_batches(), extra=st.integers(1, 9), data=st.data())
def test_a_column_slice_input_gives_the_bits_of_its_dense_copy(case, extra, data):
    # the replay ring hands the critics [obs | a_final] as a slice of wider rows
    net, rng, shape = case
    if len(shape) == 1:
        shape = (1, *shape)
    start = data.draw(st.integers(0, extra), label="start")
    rows = rng.normal(size=(shape[0], shape[1] + extra))
    sliced = rows[:, start : start + shape[1]]
    dense = sliced.copy()
    out, tape = nn.forward(net, sliced)
    dense_out, dense_tape = nn.forward(net, dense)
    assert np.array_equal(out, dense_out)
    g_out = rng.normal(size=out.shape)
    for got, want in zip(nn.backward(net, tape, g_out), nn.backward(net, dense_tape, g_out)):
        assert np.array_equal(got, want)

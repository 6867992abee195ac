"""Minimal dense-network engine: forward pass with tape, reverse-mode
gradients, Adam, and a bit-exact binary checkpoint format.

Everything is float64. Each net keeps all its parameters in one flat
vector, and every layer's weights and bias are views into it; gradients and
Adam moments are flat vectors in the same layout. Inputs may be single
vectors ``(in,)`` or batches ``(B, in)``; parameter gradients are summed
over the batch, so callers implementing a mean loss scale the output
gradient by ``1/B`` themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IoFailure,
    NonFiniteInput,
    ShapeMismatch,
    StaleTape,
)

ACTIVATIONS = ("relu", "tanh", "linear", "softmax")


def softmax(logits):
    """Numerically stable softmax along the last axis (max subtracted)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NonFiniteInput("softmax received non-finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=-1, keepdims=True)


def softmax_input_grad(s, grad_out):
    """Backprop through softmax: J^T g = s * (g - <g, s>)."""
    dot = np.sum(grad_out * s, axis=-1, keepdims=True)
    return s * (grad_out - dot)


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "linear":
        return z
    if kind == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation {kind!r}")


def _activation_input_grad(a, grad_out, kind):
    # gradients expressed through the activation output a (no pre-act needed)
    if kind == "relu":
        return grad_out * (a > 0.0)
    if kind == "tanh":
        return grad_out * (1.0 - a * a)
    if kind == "linear":
        return grad_out
    if kind == "softmax":
        return softmax_input_grad(a, grad_out)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Layer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.ndim != 1 or self.w.shape[0] != self.b.shape[0]:
            raise ShapeMismatch(
                f"layer weights {self.w.shape} incompatible with bias {self.b.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class DenseNet:
    """A stack of fully connected layers over one parameter vector.

    ``flat`` holds w0, b0, w1, b1, ... row-major; each layer's ``w`` and
    ``b`` are views into it. Building a net copies the given layers'
    parameters into a fresh vector.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("DenseNet needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.w.shape[1] != prev.w.shape[0]:
                raise ShapeMismatch(
                    f"layer input {nxt.w.shape[1]} != previous output {prev.w.shape[0]}"
                )
        self.flat = np.concatenate([p.ravel() for l in layers for p in (l.w, l.b)])
        self._shapes = [p.shape for l in layers for p in (l.w, l.b)]
        views = self.views(self.flat)
        self.layers = [
            Layer(w, b, l.activation) for w, b, l in zip(views[::2], views[1::2], layers)
        ]

    @classmethod
    def create(cls, sizes, activations, rng) -> "DenseNet":
        """Fresh net with uniform fan-in init (Kaiming-style for relu,
        Xavier-style otherwise) and zero biases, drawn from ``rng``."""
        if len(activations) != len(sizes) - 1:
            raise ShapeMismatch(
                f"{len(sizes) - 1} layers but {len(activations)} activations"
            )
        layers = []
        for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
            if act == "relu":
                bound = np.sqrt(6.0 / fan_in)
            else:
                bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
            layers.append(Layer(w, np.zeros(fan_out), act))
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[1]

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector in the ``flat`` layout, shaped w0, b0, w1, b1, ..."""
        out, pos = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            out.append(vector[pos : pos + size].reshape(shape))
            pos += size
        return out

    def params(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order: w0, b0, w1, b1, ..."""
        out = []
        for layer in self.layers:
            out.append(layer.w)
            out.append(layer.b)
        return out

    def copy(self) -> "DenseNet":
        return DenseNet(self.layers)

    def __deepcopy__(self, memo) -> "DenseNet":
        # a plain deep copy would give every layer an array of its own
        return self.copy()


@dataclass
class Tape:
    """Activations recorded by ``forward`` for one net evaluation."""

    net: DenseNet
    x: np.ndarray
    activations: list = field(default_factory=list)


def forward(net: DenseNet, x):
    """Evaluate the net; returns ``(output, tape)``.

    ``x`` is a single input vector or a batch of rows.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("forward received non-finite input")
    if x.shape[-1] != net.input_dim:
        raise DimensionMismatch(
            f"input width {x.shape[-1]} != net input dim {net.input_dim}"
        )
    tape = Tape(net=net, x=x)
    a = x
    for layer in net.layers:
        z = a @ layer.w.T + layer.b
        a = _activate(z, layer.activation)
        tape.activations.append(a)
    return a, tape


def backward(net: DenseNet, tape: Tape, output_gradient):
    """Reverse-mode gradients.

    Returns ``(param_grad, input_grad)`` where ``param_grad`` is one vector
    in the layout of ``net.flat``. Parameter gradients are summed over the
    batch.
    """
    if tape.net is not net:
        raise StaleTape("tape was recorded on a different net")
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != tape.activations[-1].shape:
        raise ShapeMismatch(
            f"output gradient shape {g.shape} != output shape {tape.activations[-1].shape}"
        )
    param_grad = np.empty_like(net.flat)
    grads = net.views(param_grad)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        a = tape.activations[i]
        gz = _activation_input_grad(a, g, layer.activation)
        prev = tape.x if i == 0 else tape.activations[i - 1]
        if gz.ndim == 1:
            grads[2 * i][...] = np.outer(gz, prev)
            grads[2 * i + 1][...] = gz
        else:
            grads[2 * i][...] = gz.T @ prev
            grads[2 * i + 1][...] = gz.sum(axis=0)
        g = gz @ layer.w
    return param_grad, g


@dataclass
class AdamState:
    """Adam moment estimates and step count for one parameter vector."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_params(cls, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            m=np.zeros_like(params),
            v=np.zeros_like(params),
        )


def adam_step(state: AdamState, params, grad):
    """One bias-corrected Adam update, applied to the vector ``params`` in
    place."""
    if params.shape != state.m.shape or params.shape != grad.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grad {grad.shape} and Adam state {state.m.shape} differ"
        )
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# -- checkpointing ----------------------------------------------------------


def net_header(net: DenseNet) -> dict:
    return {
        "format": "dense-net",
        "version": 1,
        "dtype": "<f8",
        "layers": [
            {
                "activation": l.activation,
                "out": int(l.w.shape[0]),
                "in": int(l.w.shape[1]),
            }
            for l in net.layers
        ],
    }


def net_param_bytes(net: DenseNet) -> bytes:
    # row-major little-endian float64: w then b, layer by layer
    return np.asarray(net.flat, dtype="<f8").tobytes()


def net_from_header(header: dict, raw: bytes, offset: int = 0) -> tuple[DenseNet, int]:
    if header.get("version") != 1 or header.get("format") != "dense-net":
        raise IoFailure(f"unsupported checkpoint header {header!r}")
    specs = [(int(s["out"]), int(s["in"]), s["activation"]) for s in header["layers"]]
    count = sum(out * (fan_in + 1) for out, fan_in, _ in specs)
    flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    layers, pos = [], 0
    for out, fan_in, activation in specs:
        w = flat[pos : pos + out * fan_in].reshape(out, fan_in)
        pos += out * fan_in
        layers.append(Layer(w, flat[pos : pos + out], activation))
        pos += out
    return DenseNet(layers), offset + 8 * count

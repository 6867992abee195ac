"""Minimal dense-network engine: forward pass with tape, reverse-mode
gradients, Adam, and the header and bytes that a checkpoint holds per net.

Everything is float64. Each net keeps all its parameters in one flat
vector, and every layer's weights and bias are views into it; gradients and
Adam moments are flat vectors in the same layout. A net works out that
layout once, as a (start, stop, shape) triple per array, so ``views`` only
slices. A stack of k nets keeps them as k rows and runs them with one matmul
per layer; its ``rows()`` are built once. Inputs may be single vectors
``(in,)`` or batches ``(B, in)`` (a stack needs a batch); parameter
gradients are summed over the batch, so callers implementing a mean loss
scale the output gradient by ``1/B`` themselves.

``backward`` writes the parameter gradients into a vector the caller owns
(a fresh one if it passes none), through views that the net keeps for the
last vector it was given, so a learner that passes the same vector every
step allocates and reshapes nothing. ``params=False`` computes the input
gradient alone, for a net that only passes a gradient back to another one;
``inputs=False`` skips the first layer's input gradient, which a net whose
input is data never reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, ShapeMismatch, StaleTape

ACTIVATIONS = ("relu", "tanh", "linear")


def softmax(logits):
    """Numerically stable softmax along the last axis (max subtracted)."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NonFiniteInput("softmax received non-finite logits")
    w = z - z.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def softmax_input_grad(s, grad_out):
    """Backprop through softmax: J^T g = s * (g - <g, s>)."""
    dot = np.sum(grad_out * s, axis=-1, keepdims=True)
    return s * (grad_out - dot)


def _activate(z, kind):
    # z is a fresh pre-activation, so it is overwritten
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activation_input_grad(a, grad_out, kind):
    # gradients expressed through the activation output a (no pre-act needed)
    if kind == "relu":
        return grad_out * (a > 0.0)
    if kind == "tanh":
        return grad_out * (1.0 - a * a)
    if kind == "linear":
        return grad_out
    raise ValueError(f"unknown activation {kind!r}")


@dataclass
class Layer:
    w: np.ndarray  # (out, in); (k, out, in) in a stack of k nets
    b: np.ndarray  # (out,); (k, 1, out) in a stack of k nets
    activation: str


class DenseNet:
    """Fully connected layers over one parameter vector.

    ``flat`` holds w0, b0, w1, b1, ... row-major; each layer's ``w`` and
    ``b`` are views into it. A stack of k nets of one shape has a (k, P)
    ``flat`` whose row i is net i, so one forward or backward runs all k.
    """

    def __init__(self, sizes, activations, flat: np.ndarray):
        if not activations or len(activations) != len(sizes) - 1:
            raise ShapeMismatch(f"{len(sizes) - 1} layers but {len(activations)} activations")
        if set(activations) - set(ACTIVATIONS):
            raise ValueError(f"unknown activation in {list(activations)}")
        self.sizes, self.activations = list(sizes), list(activations)
        size = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
        if flat.ndim not in (1, 2) or flat.shape[-1] != size:
            raise ShapeMismatch(f"a {self.sizes} net has {size} parameters, not {flat.shape}")
        self.flat = flat
        # (start, stop, shape) of w0, b0, w1, b1, ... along flat's last axis
        self._layout, pos = [], 0
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            for shape in ((n_out, n_in), (1, n_out) if flat.ndim == 2 else (n_out,)):
                size = math.prod(shape)
                self._layout.append((pos, pos + size, shape))
                pos += size
        views = self.views(flat)
        self.layers = [Layer(w, b, act) for w, b, act in zip(views[::2], views[1::2], activations)]
        self._rows = None
        # the views that backward last wrote a gradient vector through
        self._grad_vector = self._grad_views = None

    @classmethod
    def create(cls, sizes, activations, rng) -> "DenseNet":
        """Fresh net with uniform fan-in init (Kaiming-style for relu,
        Xavier-style otherwise) and zero biases, drawn from ``rng``."""
        parts = [np.zeros(0)]  # a spec with no layer reaches the check in __init__
        for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
            if act == "relu":
                bound = np.sqrt(6.0 / fan_in)
            else:
                bound = np.sqrt(6.0 / (fan_in + fan_out))
            parts += [rng.uniform(-bound, bound, size=fan_out * fan_in), np.zeros(fan_out)]
        return cls(sizes, activations, np.concatenate(parts))

    @classmethod
    def stack(cls, nets) -> "DenseNet":
        """One net over a (k, P) copy of k same-shaped nets' vectors."""
        if any((n.sizes, n.activations) != (nets[0].sizes, nets[0].activations) for n in nets):
            raise ShapeMismatch("only nets of one shape stack")
        return cls(nets[0].sizes, nets[0].activations, np.stack([n.flat for n in nets]))

    def rows(self) -> tuple["DenseNet", ...]:
        """Each net of a stack, over a view of its row of ``flat``; built on
        the first call and kept (a copy builds its own)."""
        if self._rows is None:
            self._rows = tuple(DenseNet(self.sizes, self.activations, row) for row in self.flat)
        return self._rows

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of a vector shaped like ``flat`` in its layout, shaped w0,
        b0, w1, b1, ..."""
        lead = vector.shape[:-1]
        return [vector[..., start:stop].reshape(*lead, *shape) for start, stop, shape in self._layout]

    def params(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order: w0, b0, w1, b1, ..."""
        return [p for layer in self.layers for p in (layer.w, layer.b)]

    def copy(self) -> "DenseNet":
        return DenseNet(self.sizes, self.activations, self.flat.copy())

    def __deepcopy__(self, memo) -> "DenseNet":
        # a plain deep copy would give every layer an array of its own
        return self.copy()


class Tape(NamedTuple):
    """Activations recorded by ``forward`` for one net evaluation."""

    net: DenseNet
    x: np.ndarray
    activations: list


def forward(net: DenseNet, x):
    """Evaluate the net; returns ``(output, tape)``.

    ``x`` is a single input vector or a batch of rows; a stack of k nets
    maps a (B, in) batch to (k, B, out).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteInput("forward received non-finite input")
    if x.shape[-1] != net.input_dim:
        raise DimensionMismatch(
            f"input width {x.shape[-1]} != net input dim {net.input_dim}"
        )
    if x.ndim < net.layers[0].w.ndim - 1:
        raise DimensionMismatch("a stack of nets takes a batch of rows, not one vector")
    activations, a = [], x
    for layer in net.layers:
        z = a @ layer.w.mT
        z += layer.b
        a = _activate(z, layer.activation)
        activations.append(a)
    return a, Tape(net, x, activations)


def backward(net: DenseNet, tape: Tape, output_gradient, out=None, *, params=True, inputs=True):
    """Reverse-mode gradients.

    Returns ``(param_grad, input_grad)``. ``param_grad`` is ``out``, a
    vector shaped like ``net.flat`` that every parameter gradient is written
    into (a fresh one when ``out`` is None); parameter gradients are summed
    over the batch. With ``params=False`` no parameter gradient is computed
    and ``param_grad`` is None; with ``inputs=False`` the first layer passes
    no gradient back and ``input_grad`` is None.
    """
    if tape.net is not net:
        raise StaleTape("tape was recorded on a different net")
    g = np.asarray(output_gradient, dtype=np.float64)
    if g.shape != tape.activations[-1].shape:
        raise ShapeMismatch(
            f"output gradient shape {g.shape} != output shape {tape.activations[-1].shape}"
        )
    if params:
        if out is None:
            out = np.empty_like(net.flat)
        elif out.shape != net.flat.shape:
            raise ShapeMismatch(f"gradient vector {out.shape} != parameter vector {net.flat.shape}")
        if net._grad_vector is not out:  # a learner passes the same one every step
            net._grad_vector, net._grad_views = out, net.views(out)
        grads = net._grad_views
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        gz = _activation_input_grad(tape.activations[i], g, layer.activation)
        if params:
            # BLAS may round a product with a strided input (a column slice)
            # differently in the last bit, so the gradient reads a dense copy
            prev = np.ascontiguousarray(tape.x) if i == 0 else tape.activations[i - 1]
            gw, gb = grads[2 * i], grads[2 * i + 1]
            if gz.ndim == 1:
                np.multiply(gz[:, None], prev, out=gw)  # np.outer(gz, prev)
                gb[...] = gz
            else:
                np.matmul(gz.mT, prev, out=gw)
                gz.sum(axis=-2, keepdims=gb.ndim == gz.ndim, out=gb)
        if i or inputs:
            g = gz @ layer.w
    return (out if params else None), (g if inputs else None)


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
    """A net's entry in a checkpoint's ``nets`` block: its format and layers."""
    layers = [{"activation": a, "out": int(o), "in": int(i)} for i, o, a in zip(net.sizes, net.sizes[1:], net.activations)]
    return {"format": "dense-net", "version": 1, "dtype": "<f8", "layers": layers}


def net_param_bytes(net: DenseNet) -> bytes:
    # row-major little-endian float64: w then b, layer by layer
    return np.asarray(net.flat, dtype="<f8").tobytes()

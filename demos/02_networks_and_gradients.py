"""
Dense networks, reverse-mode gradients and Adam
================================================

The learning components share one small building block: a dense net with
a taped forward pass and an exact backward pass. Each net keeps all its
parameters in one flat vector (`net.flat`) whose layer weights are views;
gradients and Adam moments share that layout. This demo checks a gradient
against finite differences and then fits a toy regression.
"""

import numpy as np

from portagents import nn

rng = np.random.default_rng(0)

# two hidden relu layers, linear head
net = nn.DenseNet.create([4, 16, 16, 1], ["relu", "relu", "linear"], rng)
x = rng.normal(size=(8, 4))

out, tape = nn.forward(net, x)
print(f"forward: batch {x.shape} -> {out.shape}")

# backward returns the parameter gradient as one vector in the layout of
# net.flat, plus the gradient with respect to the input batch; net.views
# splits the vector into arrays matching net.params()
grad, input_grad = nn.backward(net, tape, np.ones_like(out))
grads = net.views(grad)
print(f"grad arrays: {len(grads)}, input_grad shape {input_grad.shape}")

# spot-check one weight against a central finite difference
i, j = 2, 3
h = 1e-6
w0 = net.layers[0].w[i, j]

net.layers[0].w[i, j] = w0 + h
up = nn.forward(net, x)[0].sum()
net.layers[0].w[i, j] = w0 - h
dn = nn.forward(net, x)[0].sum()
net.layers[0].w[i, j] = w0

fd = (up - dn) / (2 * h)
an = grads[0][i, j]
print(f"analytic {an:+.8f}  finite-diff {fd:+.8f}  |diff| {abs(an - fd):.2e}")

# fit y = sin(3 x0) + 0.5 x1 with Adam
x_train = rng.normal(size=(256, 4))
y_train = np.sin(3 * x_train[:, :1]) + 0.5 * x_train[:, 1:2]

model = nn.DenseNet.create([4, 32, 32, 1], ["tanh", "tanh", "linear"], rng)
adam = nn.AdamState.for_params(model.flat, lr=1e-2)

for epoch in range(200):
    pred, tape = nn.forward(model, x_train)
    err = pred - y_train
    loss = float(np.mean(err**2))
    grad, _ = nn.backward(model, tape, 2 * err / err.size)
    nn.adam_step(adam, model.flat, grad)
    if epoch % 50 == 0:
        print(f"epoch {epoch:3d}  mse {loss:.5f}")

pred = nn.forward(model, x_train)[0]
print(f"final mse {float(np.mean((pred - y_train) ** 2)):.5f}")

# softmax heads produce rows on the simplex, which the actors rely on
head = nn.DenseNet.create([4, 8, 3], ["relu", "softmax"], rng)
probs = nn.forward(head, x)[0]
print(f"softmax head row sums: {np.round(probs.sum(axis=1), 12)}")

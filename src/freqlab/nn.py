"""Dense feed-forward network with exact hand-rolled backpropagation.

Everything is fp64 and deterministic: parameters come from a seeded PCG64
stream through an explicit Box-Muller transform, so a (seed, config, data)
triple reproduces a training trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HIDDEN_ACTIVATIONS",
    "Mlp",
    "ParamGrad",
    "ForwardCache",
    "init_mlp",
    "softmax",
    "forward",
    "backprop",
    "sgd_step",
    "lr_at",
    "grad_check",
    "params_to_vector",
    "set_params_from_vector",
]

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("identity", "softmax")


@dataclass
class Mlp:
    widths: tuple[int, ...]
    weights: list[np.ndarray]          # weights[l]: (widths[l], widths[l+1])
    biases: list[np.ndarray]           # biases[l]: (widths[l+1],)
    hidden_activation: str = "tanh"
    output_activation: str = "identity"

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass
class ParamGrad:
    """Gradient arrays shape-congruent with an Mlp's weights and biases."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @staticmethod
    def zeros_like(mlp: Mlp) -> "ParamGrad":
        return ParamGrad(
            weights=[np.zeros_like(w) for w in mlp.weights],
            biases=[np.zeros_like(b) for b in mlp.biases],
        )


@dataclass
class ForwardCache:
    """Activations recorded by forward, consumed by backprop."""

    inputs: np.ndarray
    activations: list[np.ndarray]      # post-activation per layer; last = outputs


def _box_muller(rng: np.random.Generator, count: int) -> np.ndarray:
    """Standard normals via Box-Muller on PCG64 uniforms.

    Spelled out (rather than rng.standard_normal) so the draw sequence is
    pinned by this file, not by numpy's ziggurat internals.
    """
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], so the log is finite
    theta = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:count]


def init_mlp(
    widths: Sequence[int],
    hidden_activation: str = "tanh",
    output_activation: str = "identity",
    std: float = 0.1,
    mean: float = 0.0,
    seed: int = 0,
) -> Mlp:
    """Build a network with i.i.d. Normal(mean, std) weights and biases.

    Parameters are drawn layer by layer, weights before biases, from
    PCG64(seed); the same (std, mean, seed) reproduces the arrays bit for bit.
    """
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ValueError(f"widths must have >= 2 entries, all >= 1, got {widths}")
    if hidden_activation not in HIDDEN_ACTIVATIONS:
        raise ValueError(f"unknown hidden activation {hidden_activation!r}")
    if output_activation not in OUTPUT_ACTIVATIONS:
        raise ValueError(f"unknown output activation {output_activation!r}")
    if not std > 0:
        raise ValueError(f"init std must be positive, got {std}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        w = mean + std * _box_muller(rng, n_in * n_out).reshape(n_in, n_out)
        b = mean + std * _box_muller(rng, n_out)
        weights.append(w)
        biases.append(b)
    return Mlp(widths=widths, weights=weights, biases=biases,
               hidden_activation=hidden_activation, output_activation=output_activation)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; safe for large logits."""
    z = np.asarray(logits, dtype=float)
    if np.any(np.isnan(z)):
        raise ValueError("softmax received NaN logits")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(mlp: Mlp, xs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a batch, keeping what backprop needs."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != mlp.widths[0]:
        raise ValueError(f"expected inputs of shape (batch, {mlp.widths[0]}), got {xs.shape}")
    post = []
    a = xs
    last = mlp.num_layers - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w + b
        if l < last:
            a = np.tanh(z) if mlp.hidden_activation == "tanh" else np.maximum(z, 0.0)
        else:
            a = softmax(z) if mlp.output_activation == "softmax" else z
        post.append(a)
    return a, ForwardCache(inputs=xs, activations=post)


def backprop(mlp: Mlp, cache: ForwardCache, dloss_doutputs: np.ndarray) -> ParamGrad:
    """Exact reverse-mode gradient given d(loss)/d(outputs).

    The derivative is taken with respect to the post-activation outputs; for a
    softmax head the Jacobian of the normalization is applied here.
    """
    g = np.asarray(dloss_doutputs, dtype=float)
    out = cache.activations[-1]
    if g.shape != out.shape:
        raise ValueError(f"gradient shape {g.shape} does not match outputs {out.shape}")
    if len(cache.activations) != mlp.num_layers:
        raise ValueError("cache does not match this network")
    if mlp.output_activation == "softmax":
        delta = out * (g - np.sum(g * out, axis=1, keepdims=True))
    else:
        delta = g
    grad = ParamGrad(weights=[None] * mlp.num_layers, biases=[None] * mlp.num_layers)
    for l in range(mlp.num_layers - 1, -1, -1):
        a_prev = cache.inputs if l == 0 else cache.activations[l - 1]
        grad.weights[l] = a_prev.T @ delta
        grad.biases[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ mlp.weights[l].T
            if mlp.hidden_activation == "tanh":
                delta = delta * (1.0 - cache.activations[l - 1] ** 2)
            else:
                delta = delta * (cache.activations[l - 1] > 0.0)  # max(z, 0) > 0 exactly where z > 0
    return grad


def sgd_step(mlp: Mlp, grad: ParamGrad, lr: float) -> Mlp:
    """Plain gradient-descent update, in place; returns the same Mlp."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if len(grad.weights) != mlp.num_layers:
        raise ValueError("gradient does not match network layout")
    for w, b, gw, gb in zip(mlp.weights, mlp.biases, grad.weights, grad.biases):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ValueError("gradient shapes do not match parameters")
        w -= lr * gw
        b -= lr * gb
    return mlp


def lr_at(base_lr: float, halve_every: int, epoch: int) -> float:
    """Learning rate at this epoch: base_lr halved every halve_every epochs
    (0 = constant)."""
    if not base_lr > 0:
        raise ValueError(f"base_lr must be positive, got {base_lr}")
    if halve_every < 0:
        raise ValueError("halve_every must be >= 0")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if halve_every == 0:
        return base_lr
    return base_lr * 0.5 ** (epoch // halve_every)


def params_to_vector(params: Mlp | ParamGrad) -> np.ndarray:
    """Flatten the weights and biases of a network or of its gradient, layer by layer."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def set_params_from_vector(mlp: Mlp, vec: np.ndarray) -> None:
    pos = 0
    for w, b in zip(mlp.weights, mlp.biases):
        w[...] = vec[pos:pos + w.size].reshape(w.shape)
        pos += w.size
        b[...] = vec[pos:pos + b.size]
        pos += b.size
    if pos != len(vec):
        raise ValueError("vector length does not match parameter count")


def grad_check(
    mlp: Mlp,
    loss_fn: Callable[[Mlp], tuple[float, ParamGrad]],
    fd_step: float = 1e-6,
    num_checks: int = 50,
    seed: int = 0,
) -> float:
    """Compare the analytic gradient against central finite differences.

    loss_fn evaluates the current parameters and returns (value, gradient);
    it must be deterministic. Checks a random subset of parameters and
    returns the worst |analytic - fd| / (|analytic| + |fd| + 1e-12).
    """
    _, grad = loss_fn(mlp)
    gvec = params_to_vector(grad)
    theta = params_to_vector(mlp)
    rng = np.random.Generator(np.random.PCG64(seed))
    count = min(num_checks, len(theta))
    idx = rng.choice(len(theta), size=count, replace=False)
    worst = 0.0
    try:
        for i in idx:
            saved = theta[i]
            theta[i] = saved + fd_step
            set_params_from_vector(mlp, theta)
            f_plus, _ = loss_fn(mlp)
            theta[i] = saved - fd_step
            set_params_from_vector(mlp, theta)
            f_minus, _ = loss_fn(mlp)
            theta[i] = saved
            fd = (f_plus - f_minus) / (2.0 * fd_step)
            rel = abs(gvec[i] - fd) / (abs(gvec[i]) + abs(fd) + 1e-12)
            worst = max(worst, rel)
    finally:
        set_params_from_vector(mlp, theta)
    return worst

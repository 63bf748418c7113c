"""Dense feed-forward network with exact hand-rolled backpropagation.

A network's parameters are one fp64 vector, Mlp.params, and backprop returns
its gradient as a vector in the same layout, so an update is one vector
operation and a gradient is a row of a Jacobian as it stands. layer_views is
the only code that knows the layout; weights and biases are views from it.

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
    "layer_views",
    "init_mlp",
    "softmax",
    "forward",
    "backprop",
    "sgd_step",
    "lr_at",
    "grad_check",
]

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("identity", "softmax")


@dataclass
class Mlp:
    widths: tuple[int, ...]
    params: np.ndarray                 # every weight and bias, in layer_views order
    hidden_activation: str = "tanh"
    output_activation: str = "identity"

    @property
    def num_layers(self) -> int:
        return len(self.widths) - 1

    # Derived on access, not stored: a copied Mlp would keep views of the old buffer.
    @property
    def weights(self) -> list[np.ndarray]:
        """weights[l]: (widths[l], widths[l+1]) view into params."""
        return [w for w, _ in layer_views(self.widths, self.params)]

    @property
    def biases(self) -> list[np.ndarray]:
        """biases[l]: (widths[l+1],) view into params."""
        return [b for _, b in layer_views(self.widths, self.params)]


def layer_views(widths: Sequence[int], vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, biases) views of a parameter-layout vector.

    The layout, shared by Mlp.params and every gradient backprop returns, is
    layer by layer: the (widths[l], widths[l+1]) weights row-major, then the
    widths[l+1] biases. Writing through a view writes into vec.
    """
    size = _param_count(widths)
    if vec.shape != (size,):
        raise ValueError(f"expected a vector of {size} parameters for widths {tuple(widths)}, "
                         f"got shape {vec.shape}")
    views, pos = [], 0
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        w = vec[pos:pos + n_in * n_out].reshape(n_in, n_out)
        pos += n_in * n_out
        views.append((w, vec[pos:pos + n_out]))
        pos += n_out
    return views


def _param_count(widths: Sequence[int]) -> int:
    return sum(n_in * n_out + n_out for n_in, n_out in zip(widths[:-1], widths[1:]))


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
    if not 0.0 < std < math.inf:
        raise ValueError(f"init std must be finite and positive, got {std}")
    if not -math.inf < mean < math.inf:
        raise ValueError(f"init mean must be finite, got {mean}")
    rng = np.random.Generator(np.random.PCG64(seed))
    params = np.empty(_param_count(widths))
    for w, b in layer_views(widths, params):
        w[...] = mean + std * _box_muller(rng, w.size).reshape(w.shape)
        b[...] = mean + std * _box_muller(rng, b.size)
    return Mlp(widths=widths, params=params,
               hidden_activation=hidden_activation, output_activation=output_activation)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; safe for large logits."""
    z = np.asarray(logits, dtype=float)
    if np.any(np.isnan(z)):
        raise ValueError("softmax received NaN logits")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward(mlp: Mlp, xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network on a batch. The cache backprop reads is the input
    to each layer, then the outputs: cache[l] feeds layer l, cache[-1] is returned."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != mlp.widths[0]:
        raise ValueError(f"expected inputs of shape (batch, {mlp.widths[0]}), got {xs.shape}")
    cache = [xs]
    last = mlp.num_layers - 1
    for l, (w, b) in enumerate(layer_views(mlp.widths, mlp.params)):
        z = cache[l] @ w + b
        if l < last:
            a = np.tanh(z) if mlp.hidden_activation == "tanh" else np.maximum(z, 0.0)
        else:
            a = softmax(z) if mlp.output_activation == "softmax" else z
        cache.append(a)
    return cache[-1], cache


def backprop(mlp: Mlp, cache: list[np.ndarray], dloss_doutputs: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient given d(loss)/d(outputs), as a fresh vector
    in the layout of mlp.params.

    The derivative is taken with respect to the post-activation outputs; for a
    softmax head the Jacobian of the normalization is applied here.
    """
    g = np.asarray(dloss_doutputs, dtype=float)
    out = cache[-1]
    if g.shape != out.shape:
        raise ValueError(f"gradient shape {g.shape} does not match outputs {out.shape}")
    if len(cache) != mlp.num_layers + 1:
        raise ValueError("cache does not match this network")
    if mlp.output_activation == "softmax":
        delta = out * (g - np.sum(g * out, axis=1, keepdims=True))
    else:
        delta = g
    grad = np.empty(mlp.params.size)
    layers = layer_views(mlp.widths, mlp.params)
    grads = layer_views(mlp.widths, grad)
    for l in range(mlp.num_layers - 1, -1, -1):
        gw, gb = grads[l]
        np.matmul(cache[l].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            delta = delta @ layers[l][0].T
            if mlp.hidden_activation == "tanh":
                delta = delta * (1.0 - cache[l] ** 2)
            else:
                delta = delta * (cache[l] > 0.0)  # max(z, 0) > 0 exactly where z > 0
    return grad


def sgd_step(mlp: Mlp, grad: np.ndarray, lr: float) -> Mlp:
    """Plain gradient-descent update, in place; returns the same Mlp."""
    if not 0.0 < lr < math.inf:
        raise ValueError(f"lr must be finite and positive, got {lr}")
    if grad.shape != mlp.params.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {mlp.params.shape}")
    mlp.params -= lr * grad
    return mlp


def lr_at(base_lr: float, halve_every: int, epoch: int) -> float:
    """Learning rate at this epoch: base_lr halved every halve_every epochs
    (0 = constant)."""
    if not 0.0 < base_lr < math.inf:
        raise ValueError(f"base_lr must be finite and positive, got {base_lr}")
    if halve_every < 0:
        raise ValueError("halve_every must be >= 0")
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if halve_every == 0:
        return base_lr
    return base_lr * 0.5 ** (epoch // halve_every)


def grad_check(
    mlp: Mlp,
    loss_fn: Callable[[Mlp], tuple[float, np.ndarray]],
    fd_step: float = 1e-6,
    num_checks: int = 50,
    seed: int = 0,
) -> float:
    """Compare the analytic gradient against central finite differences.

    loss_fn evaluates the current parameters and returns (value, gradient);
    it must be deterministic. Checks a random subset of parameters and
    returns the worst |analytic - fd| / (|analytic| + |fd| + 1e-12). Each
    perturbed parameter is restored, also when loss_fn raises.
    """
    _, grad = loss_fn(mlp)
    rng = np.random.Generator(np.random.PCG64(seed))
    count = min(num_checks, mlp.params.size)
    idx = rng.choice(mlp.params.size, size=count, replace=False)
    worst = 0.0
    for i in idx:
        saved = mlp.params[i]
        try:
            mlp.params[i] = saved + fd_step
            f_plus, _ = loss_fn(mlp)
            mlp.params[i] = saved - fd_step
            f_minus, _ = loss_fn(mlp)
        finally:
            mlp.params[i] = saved
        fd = (f_plus - f_minus) / (2.0 * fd_step)
        rel = abs(grad[i] - fd) / (abs(grad[i]) + abs(fd) + 1e-12)
        worst = max(worst, rel)
    return worst

"""Dense feed-forward network with exact hand-rolled backpropagation.

A network's parameters are one fp64 vector, Mlp.params, and backprop returns
its gradient as a vector in the same layout, so an update is one vector
operation and a gradient is a row of a Jacobian as it stands. layer_views is
the only code that knows the layout, and gives each layer's (weights, biases)
views of it.
forward and backprop keep the views of mlp.params, and of the last gradient
passed back as into, in Mlp.work and build them again only when the vector
is a different object: reassigning mlp.params or passing another gradient is
seen, writing into the same vector needs no new views.

Everything is fp64 and deterministic: parameters come from a seeded PCG64
stream through an explicit Box-Muller transform, so a (seed, config, data)
triple reproduces a training trajectory bit for bit.

A training loop can run without allocating a batch-sized array per step.
forward and backprop take an optional into: an earlier forward's cache for the
same widths and batch shape, or an earlier gradient vector, written over and
returned in place of fresh arrays. Their other temporaries, and sgd_step's
lr * grad, live in Mlp.work, one array per shape, which a deep copy or a
pickle starts without. The rule: nothing this module returns is overwritten
unless the caller passes it back as into. Buffered or fresh, the operations
and their order are the same, so are the bits.

A layer with one input is an outer product, and so is the delta below a layer
with one output: each entry is the single product a k = 1 matmul would form,
so neither runs as a matmul, and the bits are the same. The delta is one
np.multiply of the two broadcast factors, faster than the k = 1 matmul. The
layer copies its weight row into the output and multiplies by the input column
in place, which measured faster there than one multiply: numpy buffers both
operands of a multiply that broadcasts each, two 64 KiB buffers on a 65 x 256
layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HIDDEN_ACTIVATIONS",
    "Mlp",
    "layer_views",
    "init_mlp",
    "forward",
    "backprop",
    "sgd_step",
    "lr_at",
    "grad_check",
]

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("identity", "softmax")


class _Scratch(dict):
    """Mlp.work: work arrays keyed (slot, shape, dtype), see _work, and layer
    views keyed by slot name, see _views. A copy, deep or not, and a pickle
    start empty: a work array holds no value between calls, and numpy copies a
    view as an array of its own, of nothing the copy's vector owns."""

    def __reduce__(self):
        return type(self), ()


@dataclass
class Mlp:
    widths: tuple[int, ...]
    params: np.ndarray                 # every weight and bias, in layer_views order
    hidden_activation: str = "tanh"
    output_activation: str = "identity"
    work: _Scratch = field(default_factory=_Scratch, init=False, repr=False, compare=False)  # see _Scratch

    @property
    def num_layers(self) -> int:
        return len(self.widths) - 1


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


def _work(mlp: Mlp, slot: tuple, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """The network's work array in mlp.work for a temporary inside one call,
    made on first use of this slot, shape and dtype. A call writes it before it
    reads it and never returns it, so calls share memory, not values."""
    key = (slot, shape, dtype)
    a = mlp.work.get(key)
    if a is None:
        a = mlp.work[key] = np.empty(shape, dtype)
    return a


def _views(mlp: Mlp, slot: str, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """layer_views(mlp.widths, vec), kept in mlp.work under the slot name and
    built again only when vec is not the vector they were built for."""
    held = mlp.work.get(slot)
    if held is None or held[0] is not vec:
        held = mlp.work[slot] = (vec, layer_views(mlp.widths, vec))
    return held[1]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place, with max subtraction; a NaN or +inf logit makes its row NaN."""
    z -= np.max(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.sum(z, axis=-1, keepdims=True)
    return z


def forward(mlp: Mlp, xs: np.ndarray,
            into: list[np.ndarray] | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network on a batch. The cache backprop reads is the input
    to each layer, then the outputs: cache[l] feeds layer l, cache[-1] is returned.

    into, a cache that forward returned for a network of the same widths and a
    batch of the same shape, is written over and returned as the cache, as a
    fresh cache is without it; both pass one shape check.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != mlp.widths[0]:
        raise ValueError(f"expected inputs of shape (batch, {mlp.widths[0]}), got {xs.shape}")
    shapes = [(len(xs), width) for width in mlp.widths[1:]]
    cache = [xs] + [np.empty(shape) for shape in shapes] if into is None else into
    if len(cache) != len(mlp.widths) or [a.shape for a in cache[1:]] != shapes:
        raise ValueError(f"into is not a cache for widths {mlp.widths} and a batch of {len(xs)}")
    cache[0] = xs
    last = mlp.num_layers - 1
    for l, (w, b) in enumerate(_views(mlp, "params", mlp.params)):
        z = cache[l + 1]
        if w.shape[0] == 1:  # one input: an outer product, see the module docstring
            np.copyto(z, w)
            z *= cache[l]
        else:
            np.matmul(cache[l], w, out=z)
        z += b
        if l < last:
            if mlp.hidden_activation == "tanh":
                np.tanh(z, out=z)
            else:
                np.maximum(z, 0.0, out=z)
        elif mlp.output_activation == "softmax":
            _softmax_rows(z)
    return cache[-1], cache


def backprop(mlp: Mlp, cache: list[np.ndarray], dloss_doutputs: np.ndarray,
             into: np.ndarray | None = None) -> np.ndarray:
    """Exact reverse-mode gradient given d(loss)/d(outputs), as a vector in the
    layout of mlp.params: into, written over, or else a fresh vector.

    The derivative is taken with respect to the post-activation outputs; for a
    softmax head the Jacobian of the normalization is applied here.
    """
    g = np.asarray(dloss_doutputs, dtype=float)
    out = cache[-1]
    if g.shape != out.shape:
        raise ValueError(f"gradient shape {g.shape} does not match outputs {out.shape}")
    if len(cache) != mlp.num_layers + 1:
        raise ValueError("cache does not match this network")
    grad = np.empty(mlp.params.size) if into is None else into
    if grad.shape != mlp.params.shape:
        raise ValueError(f"into has shape {grad.shape}, the parameters {mlp.params.shape}")
    if mlp.output_activation == "softmax":
        delta = _work(mlp, ("softmax",), out.shape)
        np.multiply(g, out, out=delta)
        np.subtract(g, np.sum(delta, axis=1, keepdims=True), out=delta)
        delta *= out
    else:
        delta = g
    layers = _views(mlp, "params", mlp.params)
    # a fresh gradient's views are not kept: mlp.work would keep the returned vector alive
    grads = layer_views(mlp.widths, grad) if into is None else _views(mlp, "grad", grad)
    for l in range(mlp.num_layers - 1, -1, -1):
        gw, gb = grads[l]
        np.matmul(cache[l].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if l > 0:
            below = _work(mlp, ("delta", l), cache[l].shape)
            w = layers[l][0]
            if w.shape[1] == 1:  # one output: an outer product, see the module docstring
                np.multiply(delta, w.T, out=below)
            else:
                np.matmul(delta, w.T, out=below)
            if mlp.hidden_activation == "tanh":
                slope = _work(mlp, ("slope", l), cache[l].shape)
                np.multiply(cache[l], cache[l], out=slope)
                np.subtract(1.0, slope, out=slope)
            else:
                slope = _work(mlp, ("slope", l), cache[l].shape, np.bool_)
                np.greater(cache[l], 0.0, out=slope)  # max(z, 0) > 0 exactly where z > 0
            below *= slope
            delta = below
    return grad


def sgd_step(mlp: Mlp, grad: np.ndarray, lr: float) -> Mlp:
    """Plain gradient-descent update, in place; returns the same Mlp."""
    if not 0.0 < lr < math.inf:
        raise ValueError(f"lr must be finite and positive, got {lr}")
    if grad.shape != mlp.params.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {mlp.params.shape}")
    step = _work(mlp, ("sgd_step",), grad.shape)
    np.multiply(lr, grad, out=step)
    mlp.params -= step
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

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab.config import preset_config
from freqlab.losses import cross_entropy_loss, mse_loss
from freqlab.nn import (
    Mlp,
    _matmul,
    _softmax_rows,
    backprop,
    forward,
    grad_check,
    init_mlp,
    layer_views,
    lr_at,
    sgd_step,
)


class TestInit:
    def test_paper_shape_toy(self):
        net = init_mlp([1, 400, 400, 200, 100, 2], std=0.1, seed=0)
        views = layer_views(net.widths, net.params)
        assert [w.shape for w, _ in views] == [(1, 400), (400, 400), (400, 200), (200, 100), (100, 2)]
        assert [b.shape for _, b in views] == [(400,), (400,), (200,), (100,), (2,)]

    def test_paper_shape_poisson(self):
        net = init_mlp([1, 4000, 800, 1], std=0.05, seed=0)
        assert net.widths == (1, 4000, 800, 1)
        assert net.params.size == 1 * 4000 + 4000 + 4000 * 800 + 800 + 800 * 1 + 1

    def test_same_seed_bit_identical(self):
        a = init_mlp([2, 16, 3], std=0.2, seed=99)
        b = init_mlp([2, 16, 3], std=0.2, seed=99)
        for (wa, ba), (wb, bb) in zip(layer_views(a.widths, a.params), layer_views(b.widths, b.params)):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_different_seed_differs(self):
        a = init_mlp([2, 16, 3], std=0.2, seed=1)
        b = init_mlp([2, 16, 3], std=0.2, seed=2)
        assert not np.array_equal(layer_views(a.widths, a.params)[0][0],
                                  layer_views(b.widths, b.params)[0][0])

    def test_sample_moments_match_spec(self):
        net = init_mlp([50, 400, 50], std=0.3, mean=0.1, seed=5)
        w = layer_views(net.widths, net.params)[0][0].ravel()
        assert w.mean() == pytest.approx(0.1, abs=0.01)
        assert w.std() == pytest.approx(0.3, abs=0.01)

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            init_mlp([4], std=0.1)
        with pytest.raises(ValueError):
            init_mlp([4, 0, 2], std=0.1)

    @pytest.mark.parametrize("widths, hidden, head, message", [
        ((2, 3, 1), "sigmoid", "identity", "unknown hidden activation"),
        ((2, 3, 1), "tanh", "sofmax", "unknown output activation"),
        ((2,), "tanh", "identity", "widths"),
        ((2, 0, 1), "relu", "identity", "widths"),
    ], ids=["hidden", "head", "one-width", "zero-width"])
    def test_a_network_built_directly_is_checked(self, widths, hidden, head, message):
        """Every way of building a network checks its widths and names, not
        just init_mlp: forward would run an unknown name as relu/identity."""
        net = init_mlp([2, 3, 1], std=0.1)
        with pytest.raises(ValueError, match=message):
            Mlp(widths, net.params.copy(), hidden, head)

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ValueError):
            init_mlp([2, 3], std=0.0)
        with pytest.raises(ValueError):
            init_mlp([2, 3], std=-1.0)

    @pytest.mark.parametrize("std", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_std_rejected(self, std):
        with pytest.raises(ValueError, match="std"):
            init_mlp([1, 2, 1], std=std)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf"), -float("inf")], ids=["nan", "inf", "-inf"])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="mean"):
            init_mlp([1, 2, 1], mean=mean)


def softmax(logits):
    """_softmax_rows, forward's softmax head, on a float copy: it works in place."""
    return _softmax_rows(np.array(logits, dtype=float))


class TestSoftmax:
    def test_symmetric_pair(self):
        assert softmax(np.array([0.0, 0.0])) == pytest.approx([0.5, 0.5])

    def test_hand_value(self):
        out = softmax(np.array([0.0, np.log(3.0)]))
        assert out == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 1000.0]))
        assert out == pytest.approx([0.5, 0.5])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-30, 30))
    @settings(max_examples=50)
    def test_positive_unit_sum_shift_invariant(self, logits, shift):
        z = np.array(logits)
        p = softmax(z)
        # strictly positive; the top entry may round to exactly 1.0 in fp
        assert np.all(p > 0) and np.all(p <= 1)
        assert abs(p.sum() - 1.0) < 1e-12
        assert softmax(z + shift) == pytest.approx(list(p), abs=1e-12)


class TestForward:
    def test_zero_parameters_identity_output(self):
        net = init_mlp([3, 4, 2], std=0.1, seed=0)
        for w, b in layer_views(net.widths, net.params):
            w[...] = 0.0
            b[...] = 0.0
        out, _ = forward(net, np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_zero_parameters_softmax_uniform(self):
        net = init_mlp([3, 4, 2], output_activation="softmax", std=0.1, seed=0)
        for w, b in layer_views(net.widths, net.params):
            w[...] = 0.0
            b[...] = 0.0
        out, _ = forward(net, np.array([[1.0, -2.0, 3.0]]))
        assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        net = init_mlp([2, 8, 5], output_activation="softmax", std=0.4, seed=3)
        out, _ = forward(net, np.random.default_rng(0).standard_normal((7, 2)))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        net = init_mlp([3, 4, 2], std=0.1, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.ones((5, 2)))


class TestBackprop:
    def test_zero_seed_gives_zero_grad(self):
        net = init_mlp([2, 6, 3], std=0.3, seed=1)
        out, cache = forward(net, np.ones((4, 2)))
        grad = backprop(net, cache, np.zeros_like(out))
        assert np.array_equal(grad, 0 * grad)

    def test_single_linear_layer_analytic(self):
        # one sample, identity head: d/dW sum((xW + b - y)^2) = x^T * 2(out - y)
        net = init_mlp([2, 1], std=0.5, seed=2)
        x = np.array([[1.5, -0.5]])
        y = np.array([[2.0]])
        out, cache = forward(net, x)
        _, grad_out = mse_loss(out, y)
        (gw, gb), = layer_views(net.widths, backprop(net, cache, grad_out))
        resid = 2.0 * (out - y)
        assert gw == pytest.approx(x.T @ resid)
        assert gb == pytest.approx(resid[0])

    def test_mismatched_cache_rejected(self):
        net = init_mlp([2, 6, 3], std=0.3, seed=1)
        out, cache = forward(net, np.ones((4, 2)))
        other = init_mlp([2, 5, 5, 3], std=0.3, seed=1)
        with pytest.raises(ValueError):
            backprop(other, cache, np.zeros_like(out))

    def test_gradient_has_the_parameter_layout(self):
        net = init_mlp([2, 6, 3], std=0.3, seed=1)
        out, cache = forward(net, np.ones((4, 2)))
        assert backprop(net, cache, np.ones_like(out)).shape == net.params.shape

    def test_gradients_from_one_cache_are_separate_arrays(self):
        # grad_decomposition stacks one backprop per sample from a single cache
        net = init_mlp([1, 6, 1], std=0.3, seed=1)
        out, cache = forward(net, np.linspace(0, 1, 4).reshape(-1, 1))
        first = backprop(net, cache, np.eye(4)[:, :1])
        second = backprop(net, cache, np.eye(4)[:, 1:2])
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("hidden_act", ["tanh", "relu"])
    @pytest.mark.parametrize("head", ["mse", "cross_entropy"])
    def test_finite_difference_agreement(self, hidden_act, head):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1, 1, size=(12, 2))
        if head == "mse":
            net = init_mlp([2, 10, 7, 3], hidden_act, "identity", std=0.4, seed=4)
            target = rng.standard_normal((12, 3))
            make_loss = lambda out: mse_loss(out, target)
        else:
            net = init_mlp([2, 10, 7, 3], hidden_act, "softmax", std=0.4, seed=4)
            labels = rng.integers(0, 3, size=12)
            target = np.zeros((12, 3))
            target[np.arange(12), labels] = 1.0
            make_loss = lambda out: cross_entropy_loss(out, target)

        def loss_fn(m):
            out, cache = forward(m, xs)
            value, grad_out = make_loss(out)
            return value, backprop(m, cache, grad_out)

        assert grad_check(net, loss_fn, fd_step=1e-6, num_checks=60, seed=0) < 1e-5

    def test_corrupted_gradient_detected(self):
        net = init_mlp([2, 8, 1], std=0.4, seed=6)
        xs = np.random.default_rng(1).uniform(-1, 1, (10, 2))
        target = np.random.default_rng(2).standard_normal((10, 1))

        def bad_loss_fn(m):
            out, cache = forward(m, xs)
            value, grad_out = mse_loss(out, target)
            grad = backprop(m, cache, grad_out)
            layer_views(m.widths, grad)[0][0][...] *= 1.5  # injected fault
            return value, grad

        assert grad_check(net, bad_loss_fn, fd_step=1e-6, num_checks=80, seed=0) > 1e-2

    def test_linear_net_quadratic_loss_near_exact(self):
        net = init_mlp([3, 2], std=0.5, seed=7)
        xs = np.random.default_rng(3).standard_normal((6, 3))
        target = np.random.default_rng(4).standard_normal((6, 2))

        def loss_fn(m):
            out, cache = forward(m, xs)
            value, grad_out = mse_loss(out, target)
            return value, backprop(m, cache, grad_out)

        # FD of a quadratic has no truncation error; a wide step leaves only rounding
        assert grad_check(net, loss_fn, fd_step=1e-4, num_checks=8, seed=1) < 1e-9

    @pytest.mark.parametrize("failing_call", [2, 3])
    def test_raising_loss_leaves_parameters_unperturbed(self, failing_call):
        net = init_mlp([2, 4, 1], std=0.3, seed=0)
        before = [v.copy() for layer in layer_views(net.widths, net.params) for v in layer]
        xs = np.ones((3, 2))
        calls = []

        def loss_fn(m):
            calls.append(1)
            if len(calls) == failing_call:
                raise RuntimeError("loss failed")
            out, cache = forward(m, xs)
            value, grad_out = mse_loss(out, np.zeros_like(out))
            return value, backprop(m, cache, grad_out)

        with pytest.raises(RuntimeError):
            grad_check(net, loss_fn, fd_step=1e-3, num_checks=5, seed=0)
        for a, b in zip([v for layer in layer_views(net.widths, net.params) for v in layer], before):
            assert np.array_equal(a, b)


def _reference_step(mlp, xs, loss_of, lr):
    """One descent step with the allocating expressions nn used before it
    wrote into buffers; returns the outputs."""
    layers = layer_views(mlp.widths, mlp.params)
    cache = [xs]
    for l, (w, b) in enumerate(layers):
        z = cache[l] @ w + b
        if l < mlp.num_layers - 1:
            a = np.tanh(z) if mlp.hidden_activation == "tanh" else np.maximum(z, 0.0)
        elif mlp.output_activation == "softmax":
            e = np.exp(z - np.max(z, axis=-1, keepdims=True))
            a = e / np.sum(e, axis=-1, keepdims=True)
        else:
            a = z
        cache.append(a)
    out = cache[-1]
    g = loss_of(out)[1]
    delta = out * (g - np.sum(g * out, axis=1, keepdims=True)) if mlp.output_activation == "softmax" else g
    grad = np.empty(mlp.params.size)
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
                delta = delta * (cache[l] > 0.0)
    mlp.params -= lr * grad
    return out


class TestBuffers:
    @pytest.mark.parametrize("n_in", [1, 3])
    @pytest.mark.parametrize("head", ["identity", "softmax"])
    @pytest.mark.parametrize("hidden_act", ["tanh", "relu"])
    def test_buffered_fresh_and_reference_steps_are_bit_identical(self, hidden_act, head, n_in):
        rng = np.random.default_rng(5)
        # one input: a symmetric grid through x = 0, where a product's zero sign could show
        xs = np.linspace(-1, 1, 9).reshape(-1, 1) if n_in == 1 else rng.uniform(-1, 1, (9, n_in))
        if head == "identity":
            target = rng.standard_normal((9, 2))
            loss_of = lambda out: mse_loss(out, target)
        else:
            target = np.eye(2)[rng.integers(0, 2, size=9)]
            loss_of = lambda out: cross_entropy_loss(out, target)
        nets = [init_mlp([n_in, 16, 8, 2], hidden_act, head, std=0.5, seed=3) for _ in range(3)]
        reference, fresh, buffered = nets
        cache = grad = None
        for _ in range(6):
            want = _reference_step(reference, xs, loss_of, 0.05).tobytes()
            out, c = forward(fresh, xs)
            assert out.tobytes() == want
            sgd_step(fresh, backprop(fresh, c, loss_of(out)[1]), 0.05)
            out, cache = forward(buffered, xs, cache)
            assert out.tobytes() == want
            grad = backprop(buffered, cache, loss_of(out)[1], grad)
            sgd_step(buffered, grad, 0.05)
        assert fresh.params.tobytes() == reference.params.tobytes()
        assert buffered.params.tobytes() == reference.params.tobytes()

    def test_buffers_are_returned_as_they_were_passed(self):
        net = init_mlp([3, 6, 2], "tanh", "softmax", std=0.4, seed=1)
        xs = np.ones((4, 3))
        out, cache = forward(net, xs)
        grad = backprop(net, cache, np.ones_like(out))
        out2, cache2 = forward(net, 2 * xs, cache)
        assert cache2 is cache and out2 is cache[-1] is out
        assert backprop(net, cache, np.ones_like(out), grad) is grad

    def test_arrays_not_passed_back_are_never_overwritten(self):
        net = init_mlp([3, 6, 5, 2], "tanh", "softmax", std=0.4, seed=1)
        xs = np.random.default_rng(0).standard_normal((4, 3))
        out, cache = forward(net, xs)
        grad = backprop(net, cache, np.ones_like(out))
        kept = [a.copy() for a in (out, *cache, grad)]
        for _ in range(2):
            out2, cache2 = forward(net, 2 * xs)
            sgd_step(net, backprop(net, cache2, np.ones_like(out2)), 0.1)
        assert all(np.array_equal(a, b) for a, b in zip((out, *cache, grad), kept))

    @pytest.mark.parametrize("hidden_act", ["tanh", "relu"])
    def test_work_arrays_are_made_once_per_batch_shape(self, hidden_act):
        net = init_mlp([3, 6, 5, 2], hidden_act, "softmax", std=0.4, seed=1)
        rng = np.random.default_rng(0)
        grad = np.empty_like(net.params)

        def step(rows):
            out, cache = forward(net, rng.standard_normal((rows, 3)))
            sgd_step(net, backprop(net, cache, np.ones_like(out), grad), 0.1)

        step(32)
        step(16)
        made = dict(net.work)
        for _ in range(3):
            step(32)
            step(16)
        assert net.work.keys() == made.keys()
        assert all(net.work[key] is a for key, a in made.items())

    def test_networks_share_no_work_array(self):
        nets = [init_mlp([3, 6, 5, 2], "tanh", "softmax", std=0.4, seed=1) for _ in range(2)]
        for net in nets:
            out, cache = forward(net, np.ones((4, 3)))
            sgd_step(net, backprop(net, cache, np.ones_like(out)), 0.1)
        a, b = ([v for v in net.work.values() if isinstance(v, np.ndarray)] for net in nets)
        assert a and len(a) == len(b)
        assert not any(np.shares_memory(x, y) for x in a for y in b)

    def test_forward_rejects_a_cache_for_another_batch_shape(self):
        net = init_mlp([3, 6, 2], std=0.4, seed=1)
        _, cache = forward(net, np.ones((4, 3)))
        with pytest.raises(ValueError):
            forward(net, np.ones((5, 3)), cache)

    def test_forward_rejects_a_cache_from_another_network(self):
        net = init_mlp([3, 6, 2], std=0.4, seed=1)
        _, cache = forward(net, np.ones((4, 3)))
        for other in (init_mlp([3, 7, 2], std=0.4, seed=1), init_mlp([3, 6, 6, 2], std=0.4, seed=1)):
            with pytest.raises(ValueError):
                forward(other, np.ones((4, 3)), cache)

    def test_backprop_rejects_a_gradient_of_another_shape(self):
        net = init_mlp([3, 6, 2], std=0.4, seed=1)
        other = init_mlp([3, 7, 2], std=0.4, seed=1)
        out, cache = forward(net, np.ones((4, 3)))
        for into in (np.empty(net.params.size + 1), np.empty((1, net.params.size)), np.empty_like(other.params)):
            with pytest.raises(ValueError):
                backprop(net, cache, np.ones_like(out), into)


def _matmul_forward_backprop(mlp, xs, g):
    """(cache, gradient) with a matmul for every layer product and np.sum for
    every bias gradient, the plain formulation of forward and backprop."""
    layers = layer_views(mlp.widths, mlp.params)
    cache = [xs]
    for l, (w, b) in enumerate(layers):
        z = np.matmul(cache[l], w) + b
        if l < mlp.num_layers - 1:
            z = np.tanh(z)
        elif mlp.output_activation == "softmax":
            e = np.exp(z - np.max(z, axis=-1, keepdims=True))
            z = e / np.sum(e, axis=-1, keepdims=True)
        cache.append(z)
    out = cache[-1]
    delta = out * (g - np.sum(g * out, axis=1, keepdims=True)) if mlp.output_activation == "softmax" else g
    grad = np.empty(mlp.params.size)
    for l in range(mlp.num_layers - 1, -1, -1):
        gw, gb = layer_views(mlp.widths, grad)[l]
        gw[...] = np.matmul(cache[l].T, delta)
        gb[...] = np.sum(delta, axis=0)
        if l > 0:
            delta = np.matmul(delta, layers[l][0].T) * (1.0 - cache[l] * cache[l])
    return cache, grad


def _weight_view(rng, n_in, n_out):
    """A (n_in, n_out) weight view into a parameter-layout vector, as forward reads it."""
    return layer_views((n_in, n_out), rng.standard_normal(n_in * n_out + n_out))[0][0]


class TestOuterProductLayers:
    """A one-input layer, the delta below a one-output layer and a batch-1
    weight gradient are outer products, which _matmul forms without a matmul;
    their bits are the matmul's."""

    @pytest.mark.parametrize("operands", [
        lambda rng: (rng.standard_normal((65, 1)), _weight_view(rng, 1, 64)),        # one-input layer
        lambda rng: (rng.standard_normal((1, 65)), rng.standard_normal((65, 256))),  # inner size above 1
        lambda rng: (rng.standard_normal((65, 64)), _weight_view(rng, 64, 1)),       # one-output layer
        lambda rng: (rng.standard_normal((1, 1)), rng.standard_normal((1, 5))),
        # backprop's operands: cache[l].T @ delta, and delta @ w.T below a one-output and a wider layer
        lambda rng: (rng.standard_normal((65, 64)).T, rng.standard_normal((65, 32))),
        lambda rng: (rng.standard_normal((65, 1)), _weight_view(rng, 64, 1).T),
        lambda rng: (rng.standard_normal((65, 32)), _weight_view(rng, 64, 32).T),
        lambda rng: (rng.standard_normal((1, 64)).T, rng.standard_normal((1, 32))),  # batch-1 weight gradient
    ], ids=["65x1x64", "1x65x256", "65x64x1", "1x1x5", "grad-w", "delta-one-output", "delta-wide",
            "grad-w-batch-1"])
    def test_matmul_is_byte_equal_to_np_matmul(self, operands):
        a, b = operands(np.random.default_rng(3))
        out = np.full((a.shape[0], b.shape[1]), np.nan)
        _matmul(a, b, out)
        assert out.tobytes() == np.matmul(a, b).tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 65])
    @pytest.mark.parametrize("widths,head", [
        ((1, 8, 1), "identity"),
        ((1, 16, 8, 1), "identity"),
        ((1, 1, 4, 1), "identity"),
        ((1, 8, 2), "softmax"),
        ((1, 16, 8, 2), "identity"),
    ])
    def test_forward_and_backprop_equal_the_matmul_formulation(self, widths, head, rows):
        rng = np.random.default_rng(rows)
        net = init_mlp(widths, "tanh", head, std=0.7, seed=4)
        xs = rng.uniform(-1, 1, (rows, 1))
        g = rng.standard_normal((rows, widths[-1]))
        want_cache, want_grad = _matmul_forward_backprop(net, xs, g)
        out, cache = forward(net, xs)
        assert [a.tobytes() for a in cache] == [a.tobytes() for a in want_cache]
        assert backprop(net, cache, g).tobytes() == want_grad.tobytes()
        # and again through the buffers and the views a first call left
        out, cache = forward(net, xs, cache)
        assert [a.tobytes() for a in cache] == [a.tobytes() for a in want_cache]
        grad = np.full_like(net.params, np.nan)
        assert backprop(net, cache, g, grad).tobytes() == want_grad.tobytes()


class TestViewCache:
    """forward and backprop keep the views of the vectors they were last given,
    and see a vector that is a different object."""

    @staticmethod
    def _run(net, xs, g, grad=None):
        out, cache = forward(net, xs)
        return out.tobytes(), backprop(net, cache, g, grad).tobytes()

    @staticmethod
    def _fresh(net):
        return Mlp(net.widths, net.params.copy(), net.hidden_activation, net.output_activation)

    def _setup(self):
        rng = np.random.default_rng(2)
        net = init_mlp([3, 6, 5, 2], "tanh", "softmax", std=0.4, seed=1)
        return net, rng.standard_normal((4, 3)), rng.standard_normal((4, 2))

    def test_reassigned_params_are_seen(self):
        net, xs, g = self._setup()
        self._run(net, xs, g, np.empty_like(net.params))
        net.params = net.params * 0.5 + 0.25
        assert self._run(net, xs, g) == self._run(self._fresh(net), xs, g)

    def test_another_gradient_vector_is_written(self):
        net, xs, g = self._setup()
        first = np.empty_like(net.params)
        _, want = self._run(net, xs, g, first)
        kept = first.copy()
        second = np.full_like(net.params, np.nan)
        assert self._run(net, xs, g, second)[1] == want
        assert second.tobytes() == want and first.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copied_network_uses_views_of_its_own_vector(self, duplicate):
        net, xs, g = self._setup()
        self._run(net, xs, g, np.empty_like(net.params))
        twin = duplicate(net)
        if twin.params is net.params:  # a shallow copy shares the vector, so give it its own
            twin.params = net.params.copy()
        twin.params *= 2.0
        assert self._run(twin, xs, g) == self._run(self._fresh(twin), xs, g)
        assert self._run(net, xs, g) == self._run(self._fresh(net), xs, g)


class TestCopies:
    """A copied or pickled network carries no scratch: Mlp.work, the work arrays
    and the layer views, starts empty in a deep copy and a pickle (a shallow copy
    shares it), and the copy's next step has the original's bits."""

    @staticmethod
    def _step(net, xs, g):
        out, cache = forward(net, xs)
        grad = backprop(net, cache, g, np.empty_like(net.params))
        sgd_step(net, grad, 2e-3)
        return out.tobytes(), grad.tobytes(), net.params.tobytes()

    def _trained(self):
        cfg = preset_config("desk-d-jacobi")
        net = init_mlp([1, *cfg.hidden_widths, 1], cfg.activation, "identity", cfg.init_std, seed=0)
        xs = np.linspace(-1.0, 1.0, cfg.grid_n + 1).reshape(-1, 1)
        g = np.random.default_rng(0).standard_normal((len(xs), 1))
        self._step(net, xs, g)
        return net, xs, g

    def test_pickle_holds_the_parameters_alone(self):
        net, _, _ = self._trained()
        assert net.work
        assert len(pickle.dumps(net)) <= net.params.nbytes + 1024

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_steps_as_the_original(self, duplicate):
        net, xs, g = self._trained()
        twin = duplicate(net)
        assert twin.work is net.work if duplicate is copy.copy else not twin.work
        before = net.params.copy()
        want = self._step(net, xs, g)
        net.params[...] = before  # in place: a shallow copy shares the vector
        assert self._step(twin, xs, g) == want


class TestSgdAndSchedule:
    def test_zero_gradient_is_fixed_point(self):
        net = init_mlp([2, 4, 1], std=0.3, seed=8)
        before = net.params.copy()
        sgd_step(net, np.zeros_like(net.params), lr=0.5)
        assert np.array_equal(net.params, before)

    def test_scalar_update_definition(self):
        net = init_mlp([1, 1], std=0.1, seed=0)
        (w, b), = layer_views(net.widths, net.params)
        w[...] = 2.0
        b[...] = 0.0
        grad = np.zeros_like(net.params)
        layer_views(net.widths, grad)[0][0][...] = 0.5
        sgd_step(net, grad, lr=1.0)
        assert layer_views(net.widths, net.params)[0][0][0, 0] == 1.5

    def test_two_half_steps_equal_one_step(self):
        a = init_mlp([2, 3, 1], std=0.3, seed=9)
        b = init_mlp([2, 3, 1], std=0.3, seed=9)
        grad = np.random.default_rng(5).standard_normal(a.params.size)
        sgd_step(a, grad, lr=0.2)
        sgd_step(b, grad, lr=0.1)
        sgd_step(b, grad, lr=0.1)
        assert a.params == pytest.approx(b.params, abs=1e-15)

    def test_lr_schedule_values(self):
        assert lr_at(5e-6, 10_000, 0) == 5e-6
        assert lr_at(5e-6, 10_000, 9_999) == 5e-6
        assert lr_at(5e-6, 10_000, 10_000) == 2.5e-6
        assert lr_at(5e-6, 10_000, 25_000) == 1.25e-6

    def test_constant_schedule(self):
        assert lr_at(0.1, 0, 10**9) == 0.1

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            lr_at(0.0, 0, 0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_sgd_step_rejects_bad_rate(self, lr):
        net = init_mlp([2, 4, 1], std=0.3, seed=8)
        before = net.params.copy()
        with pytest.raises(ValueError):
            sgd_step(net, np.ones_like(net.params), lr)
        assert np.array_equal(net.params, before)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_lr_at_rejects_bad_rate(self, lr):
        with pytest.raises(ValueError):
            lr_at(lr, 0, 0)


class TestParamVector:
    def test_roundtrip(self):
        net = init_mlp([3, 5, 2], std=0.2, seed=10)
        vec = net.params.copy()
        net.params[...] = vec * 2.0
        layers = np.concatenate([np.append(w.ravel(), b) for w, b in layer_views(net.widths, net.params)])
        assert layers == pytest.approx(vec * 2.0)
        assert net.params.size == len(vec)

    def test_views_write_through_both_ways(self):
        net = init_mlp([3, 5, 2], std=0.2, seed=10)
        (_, b0), (w1, b1) = layer_views(net.widths, net.params)
        w1[4, 1] = 7.0
        b0[2] = -3.0
        assert net.params[15 + 5 + 4 * 2 + 1] == 7.0
        assert net.params[15 + 2] == -3.0
        net.params[-1] = 11.0
        assert b1[1] == 11.0

    @pytest.mark.parametrize("shape", [(31,), (33,), (32, 1)])
    def test_layer_views_rejects_wrong_shape(self, shape):
        # [3, 5, 2] has 3*5 + 5 + 5*2 + 2 = 32 parameters
        assert len(layer_views((3, 5, 2), np.zeros(32))) == 2
        with pytest.raises(ValueError):
            layer_views((3, 5, 2), np.zeros(shape))

    def test_deterministic_training_trajectory(self):
        xs = np.linspace(-1, 1, 16).reshape(-1, 1)
        target = np.sin(3 * xs)

        def train():
            net = init_mlp([1, 8, 1], std=0.3, seed=12)
            for _ in range(20):
                out, cache = forward(net, xs)
                _, grad_out = mse_loss(out, target)
                sgd_step(net, backprop(net, cache, grad_out), lr=1e-2)
            return net.params

        assert np.array_equal(train(), train())

"""Tape semantics: reverse-order replay, summed accumulation for reused
tensors, dead-branch skipping, and bitwise-deterministic replay."""

import numpy as np
import numpy.testing as npt
import pytest

from histopatch.autodiff import Tape
from histopatch.tensor import Tensor, ones, zeros
from histopatch.ops import conv2d, cross_entropy, linear, relu


def test_single_op_chain():
    tape = Tape()
    x = Tensor(np.array([[-1.0, 2.0]], dtype=np.float32), requires_grad=True)
    y = relu(x, tape=tape)
    tape.backward(y)
    npt.assert_array_equal(y.grad, np.ones_like(y.data))
    npt.assert_array_equal(x.grad, [[0.0, 1.0]])


def test_reused_tensor_accumulates_sum():
    tape = Tape()
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), requires_grad=True)
    b = zeros((2,), requires_grad=True)
    y = linear(x, x, b, tape=tape)    # x @ x.T: x is both input and weight
    tape.backward(y)
    # the input use contributes ones @ x, the weight use ones.T @ x; the
    # tape sums the two into x.grad
    use = np.ones((2, 2), dtype=np.float32) @ x.data
    npt.assert_array_equal(x.grad, use + use)


def test_shared_weight_two_applications():
    tape = Tape()
    w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32), requires_grad=True)
    b = zeros((2,), requires_grad=True)
    x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
    h = linear(x, w, b, tape=tape)
    y = linear(h, w, b, tape=tape)
    tape.backward(y)
    # dy/dw collects one term per application
    assert w.grad is not None
    expect = np.outer(np.ones(2), x.data[0]) + np.outer(np.ones(2), h.data[0])
    npt.assert_allclose(w.grad, expect, rtol=1e-6)
    npt.assert_allclose(b.grad, [2.0, 2.0], rtol=1e-6)


def test_dead_branch_receives_no_gradient():
    tape = Tape()
    x = Tensor(np.array([[1.0, -2.0]], dtype=np.float32), requires_grad=True)
    live = relu(x, tape=tape)
    dead = relu(x, tape=tape)  # recorded but never fed into the loss
    tape.backward(live)
    assert dead.grad is None
    npt.assert_array_equal(x.grad, [[1.0, 0.0]])  # only the live branch contributed


def test_seed_scales_gradients():
    tape = Tape()
    x = Tensor(np.array([[3.0, 4.0]], dtype=np.float32), requires_grad=True)
    y = relu(x, tape=tape)
    tape.backward(y, seed=np.array([[2.0, -1.0]], dtype=np.float32))
    npt.assert_array_equal(x.grad, [[2.0, -1.0]])


def test_seed_shape_mismatch_rejected():
    tape = Tape()
    x = ones((2, 2))
    y = relu(x, tape=tape)
    with pytest.raises(ValueError):
        tape.backward(y, seed=np.ones((3, 3), dtype=np.float32))


def test_scalar_loss_default_seed():
    tape = Tape()
    logits = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
                    requires_grad=True)
    loss = cross_entropy(logits, np.array([0, 1]), tape=tape)
    tape.backward(loss)
    assert logits.grad is not None
    # gradient of mean CE: (softmax - onehot) / N
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[np.arange(2), [0, 1]] -= 1.0
    npt.assert_allclose(logits.grad, p / 2.0, rtol=1e-6)


def test_replay_is_bitwise_deterministic():
    def run():
        tape = Tape()
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)).astype(np.float32))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        h = conv2d(x, w, b, stride=1, padding=1, tape=tape)
        y = relu(h, tape=tape)
        tape.backward(y)
        return w.grad.copy(), b.grad.copy()

    gw1, gb1 = run()
    gw2, gb2 = run()
    assert np.array_equal(gw1, gw2)
    assert np.array_equal(gb1, gb2)


def test_len_counts_records():
    tape = Tape()
    x = ones((1, 1, 4, 4))
    h = relu(x, tape=tape)
    relu(h, tape=tape)
    assert len(tape) == 2


def test_rule_arity_mismatch_rejected():
    tape = Tape()
    x = ones((2,))
    out = Tensor(x.data * 2.0)
    tape.record((x,), out, lambda g: (g, g))  # wrong: two grads for one input
    with pytest.raises(RuntimeError):
        tape.backward(out)


def test_conv_grad_bias_is_sum_of_grad_out():
    tape = Tape()
    x = ones((1, 1, 3, 3))
    w = ones((1, 1, 2, 2), requires_grad=True)
    b = zeros((1,), requires_grad=True)
    out = conv2d(x, w, b, tape=tape)  # 1x1x2x2 output
    tape.backward(out)
    npt.assert_array_equal(b.grad, [4.0])


def test_zero_seed_gives_zero_gradients():
    tape = Tape()
    x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32), requires_grad=True)
    w = ones((2, 2), requires_grad=True)
    y = linear(x, w, zeros((2,)), tape=tape)
    tape.backward(y, seed=np.zeros_like(y.data))
    npt.assert_array_equal(x.grad, np.zeros_like(x.data))
    npt.assert_array_equal(w.grad, np.zeros_like(w.data))

"""Tape semantics: reverse-order replay, summed accumulation for reused
tensors, dead-branch skipping, and bitwise-deterministic replay."""

import numpy as np
import numpy.testing as npt
import pytest

from histopatch.autodiff import Tape
from histopatch.tensor import Tensor
from histopatch.ops import (batchnorm2d, conv2d, cross_entropy, global_avg_pool, linear,
                            relu)


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
    b = Tensor(np.zeros((2,)), requires_grad=True)
    y = linear(x, x, b, tape=tape)    # x @ x.T: x is both input and weight
    tape.backward(y)
    # the input use contributes ones @ x, the weight use ones.T @ x; the
    # tape sums the two into x.grad
    use = np.ones((2, 2), dtype=np.float32) @ x.data
    npt.assert_array_equal(x.grad, use + use)


def test_shared_weight_two_applications():
    tape = Tape()
    w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((2,)), requires_grad=True)
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
    x = Tensor(np.ones((2, 2)))
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
    x = Tensor(np.ones((1, 1, 4, 4)))
    h = relu(x, tape=tape)
    relu(h, tape=tape)
    assert len(tape) == 2


def test_rule_arity_mismatch_rejected():
    tape = Tape()
    x = Tensor(np.ones((2,)))
    out = Tensor(x.data * 2.0)
    tape.record((x,), out, lambda g: (g, g))  # wrong: two grads for one input
    with pytest.raises(RuntimeError):
        tape.backward(out)


def test_conv_grad_bias_is_sum_of_grad_out():
    tape = Tape()
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    b = Tensor(np.zeros((1,)), requires_grad=True)
    out = conv2d(x, w, b, tape=tape)  # 1x1x2x2 output
    tape.backward(out)
    npt.assert_array_equal(b.grad, [4.0])


def test_zero_seed_gives_zero_gradients():
    tape = Tape()
    x = Tensor(np.array([[1.0, 2.0]], dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    y = linear(x, w, Tensor(np.zeros((2,))), tape=tape)
    tape.backward(y, seed=np.zeros_like(y.data))
    npt.assert_array_equal(x.grad, np.zeros_like(x.data))
    npt.assert_array_equal(w.grad, np.zeros_like(w.data))


def test_replay_empties_the_tape_and_keeps_only_end_gradients():
    # intermediate gradients go as the replay passes them; the loss keeps
    # its seed and the leaves keep what they accumulated
    tape = Tape()
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 2, 5, 5)).astype(np.float32))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    gamma, beta = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
    stats = Tensor(np.zeros(3)), Tensor(np.ones(3))
    fc_w = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    fc_b = Tensor(np.zeros(4), requires_grad=True)
    h1 = conv2d(x, w, b, padding=1, tape=tape)
    h2 = batchnorm2d(h1, gamma, beta, *stats, tape=tape)
    h3 = relu(h2, tape=tape)
    h4 = global_avg_pool(h3, tape=tape)
    h5 = linear(h4, fc_w, fc_b, tape=tape)
    loss = cross_entropy(h5, np.array([0, 3]), tape=tape)
    tape.backward(loss)
    assert len(tape) == 0
    assert all(h.grad is None for h in (h1, h2, h3, h4, h5))
    npt.assert_array_equal(loss.grad, np.ones_like(loss.data))
    for leaf in (x, w, b, gamma, beta, fc_w, fc_b):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape
    assert stats[0].grad is None and stats[1].grad is None


def _owned(t: Tensor) -> bool:
    """A gradient buffer of its own: writeable float32 memory no other array shares."""
    g = t.grad
    return g.dtype == np.float32 and g.flags.writeable and g.base is None


def test_pooled_input_gets_its_own_gradient_buffer():
    # global_avg_pool's rule returns a broadcast view: copied, not taken
    tape = Tape()
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2), requires_grad=True)
    y = global_avg_pool(x, tape=tape)
    tape.backward(y, seed=np.array([[4.0, -8.0]], dtype=np.float32))
    assert _owned(x)
    npt.assert_array_equal(x.grad, [[np.full((2, 2), 1.0), np.full((2, 2), -2.0)]])
    x.grad[0, 0, 0, 0] = 7.0
    assert x.grad[0, 0, 1, 1] == 1.0


def test_float64_rule_output_is_converted():
    tape = Tape()
    a = Tensor(np.ones(3), requires_grad=True)
    out = Tensor(a.data * 2.0)
    tape.record((a,), out, lambda g: (g.astype(np.float64) * 2.0,))
    tape.backward(out)
    assert _owned(a)
    npt.assert_array_equal(a.grad, [2.0, 2.0, 2.0])



def test_view_of_a_kept_array_is_copied():
    tape = Tape()
    a = Tensor(np.ones(3), requires_grad=True)
    out = Tensor(a.data.copy())
    kept = np.full(6, 3.0, dtype=np.float32)
    tape.record((a,), out, lambda g: (kept[:3],))
    tape.backward(out)
    assert _owned(a)
    a.grad += 1.0
    npt.assert_array_equal(kept, np.full(6, 3.0))


def test_read_only_rule_output_is_copied():
    # a second use of the same input then adds into a buffer of its own
    tape = Tape()
    a = Tensor(np.ones(3), requires_grad=True)
    frozen = np.full(3, 2.0, dtype=np.float32)
    frozen.flags.writeable = False
    h = Tensor(a.data.copy())
    tape.record((a,), h, lambda g: (g * 1.0,))
    out = Tensor(h.data + a.data)
    tape.record((h, a), out, lambda g: (g * 1.0, frozen))
    tape.backward(out)
    assert _owned(a)
    npt.assert_array_equal(a.grad, [3.0, 3.0, 3.0])


def test_rule_output_of_another_layout_is_copied():
    # a row that broadcasts to the input's shape, and a column-major array
    tape = Tape()
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    out = Tensor(a.data + b.data)
    row = np.arange(3, dtype=np.float32)
    column_major = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
    tape.record((a, b), out, lambda g: (row, column_major))
    tape.backward(out)
    assert _owned(a) and _owned(b) and b.grad.flags.c_contiguous
    npt.assert_array_equal(a.grad, [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])
    npt.assert_array_equal(b.grad, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

def test_one_array_for_two_inputs_gives_independent_gradients():
    tape = Tape()
    a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
    out = Tensor(a.data + b.data)
    shared = np.full(3, 5.0, dtype=np.float32)
    tape.record((a, b), out, lambda g: (shared, shared))
    tape.backward(out)
    assert _owned(a) and _owned(b)
    assert not np.shares_memory(a.grad, b.grad) and not np.shares_memory(a.grad, shared)
    a.grad += 1.0
    npt.assert_array_equal(a.grad, [6.0, 6.0, 6.0])
    npt.assert_array_equal(b.grad, [5.0, 5.0, 5.0])


def test_loss_seed_passed_through_is_not_shared():
    # a rule may hand its output gradient straight back; the loss keeps its
    # seed, so the input gets a copy
    tape = Tape()
    a = Tensor(np.ones(2), requires_grad=True)
    out = Tensor(a.data.copy())
    tape.record((a,), out, lambda g: (g,))
    tape.backward(out)
    assert not np.shares_memory(a.grad, out.grad)
    a.grad += 1.0
    npt.assert_array_equal(out.grad, [1.0, 1.0])
    npt.assert_array_equal(a.grad, [2.0, 2.0])

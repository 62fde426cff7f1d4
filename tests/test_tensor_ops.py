"""Forward-pass contracts of every layer primitive, pinned against
hand-computed values and a naive direct-summation convolution oracle."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from histopatch import ops
from histopatch.autodiff import Tape
from histopatch.tensor import Tensor
from histopatch.ops import (
    batchnorm2d,
    concat_channels,
    conv2d,
    cross_entropy,
    dropout,
    global_avg_pool,
    linear,
    relu,
    softmax,
)

from helpers import batchnorm_eval, naive_conv2d, random_conv_case


class TestTensor:
    def test_row_major_layout(self):
        t = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2))
        n, c, h, w = 1, 2, 1, 0
        flat = ((n * 3 + c) * 2 + h) * 2 + w
        assert t.data[n, c, h, w] == t.data.reshape(-1)[flat]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 0, 3), dtype=np.float32))

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3, dtype=np.float32)).item()

    def test_copy_is_independent(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = a.copy()
        b.data[0, 0] = 5.0
        assert a.data[0, 0] == 1.0

    def test_accumulate_grad_sums(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        t.accumulate_grad(np.ones(3, dtype=np.float32))
        t.accumulate_grad(np.full(3, 2.0, dtype=np.float32))
        npt.assert_array_equal(t.grad, np.full(3, 3.0, dtype=np.float32))
        t.zero_grad()
        assert t.grad is None


class TestConv2d:
    def test_all_ones_3x3(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros((1,)))
        out = conv2d(x, w, b)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_all_ones_padding_1(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        b = Tensor(np.zeros((1,)))
        out = conv2d(x, w, b, stride=1, padding=1)
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        npt.assert_array_equal(out.data[0, 0], expected)

    def test_stride_2_output_shape(self):
        out = conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 2, 2))),
                     Tensor(np.zeros((1,))), stride=2)
        assert out.shape == (1, 1, 2, 2)

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.ones((1, 3, 5, 5)))
        w = Tensor(np.ones((2, 4, 3, 3)))
        with pytest.raises(ValueError) as exc:
            conv2d(x, w, Tensor(np.zeros((2,))))
        msg = str(exc.value)
        assert "(1, 3, 5, 5)" in msg and "(2, 4, 3, 3)" in msg

    def test_kernel_larger_than_padded_input_rejected(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))),
                   Tensor(np.zeros((1,))))

    def test_bias_shifts_every_output(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 2, 3, 3)))
        b = Tensor(np.array([1.0, -2.0, 0.5], dtype=np.float32))
        out = conv2d(x, w, b, padding=1)
        for o, v in enumerate([1.0, -2.0, 0.5]):
            npt.assert_array_equal(out.data[0, o], np.full((4, 4), v, dtype=np.float32))

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x, w, b, stride, padding = random_conv_case(rng)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride, padding)
        assert got.shape == want.shape
        npt.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)

    # (lowering, input shape, weight shape, stride, padding): shapes that pick
    # each of conv2d's GEMM lowerings
    LOWERING_CASES = [
        ("shifted", (2, 6, 7, 9), (5, 6, 3, 3), 1, 1),
        ("shifted", (2, 5, 8, 6), (3, 5, 3, 3), 1, 0),
        ("shifted", (1, 3, 256, 256), (2, 3, 3, 3), 1, 1),
        ("blocks", (2, 6, 5, 7), (4, 6, 1, 1), 1, 0),
        ("blocks", (3, 4, 9, 7), (5, 4, 2, 2), 2, 0),
        ("im2col", (2, 3, 7, 6), (4, 3, 3, 3), 1, 1),
        ("im2col", (2, 6, 9, 9), (4, 6, 3, 3), 2, 1),
    ]

    @staticmethod
    def _lowering_case(lowering, xshape, wshape, stride, padding, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=xshape).astype(np.float32)
        w = rng.uniform(-1, 1, size=wshape).astype(np.float32)
        b = rng.uniform(-1, 1, size=wshape[:1]).astype(np.float32)
        h2 = (xshape[2] + 2 * padding - wshape[2]) // stride + 1
        w2 = (xshape[3] + 2 * padding - wshape[3]) // stride + 1
        assert ops._lowering(xshape[1], wshape[2], wshape[3], stride, padding,
                             h2 * w2) == lowering
        return x, w, b

    @pytest.mark.parametrize("case", LOWERING_CASES,
                             ids=[f"{c[0]}-{c[2]}-s{c[3]}p{c[4]}" for c in LOWERING_CASES])
    def test_each_lowering_matches_naive_oracle(self, case):
        x, w, b = self._lowering_case(*case)
        _, _, _, stride, padding = case
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        want = naive_conv2d(x, w, b, stride, padding)
        assert got.shape == want.shape
        npt.assert_allclose(got.data, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", [
        ("shifted", (7, 8, 12, 12), (8, 8, 3, 3), 1, 1),      # samples share a chunk
        ("shifted", (3, 16, 128, 128), (16, 16, 3, 3), 1, 1),  # rows split into chunks
        ("blocks", (5, 6, 8, 8), (12, 6, 2, 2), 2, 0),
        ("im2col", (5, 3, 10, 10), (4, 3, 3, 3), 1, 1),
    ], ids=lambda c: f"{c[0]}-{c[1]}")
    def test_sample_alone_equals_its_slice_of_the_batch(self, case):
        x, w, b = self._lowering_case(*case)
        _, _, _, stride, padding = case
        batched = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        for k in range(x.shape[0]):
            alone = conv2d(Tensor(x[k:k + 1]), Tensor(w), Tensor(b),
                           stride=stride, padding=padding)
            assert np.array_equal(alone.data[0], batched.data[k]), k

    def test_taped_shifted_conv_keeps_no_patch_matrix(self):
        # the backward pass works from x, which the caller keeps alive anyway;
        # an im2col patch matrix on the tape would be ~9x the padded input
        x, w, b = self._lowering_case("shifted", (4, 16, 64, 64), (16, 16, 3, 3), 1, 1)
        x, w, b = Tensor(x), Tensor(w), Tensor(b)
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b, stride=1, padding=1, tape=tape)
            kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert kept < x.data.nbytes, kept

    def test_shifted_conv_on_a_large_map_pads_no_whole_copy(self):
        # a 4 MiB map splits into chunks of output rows; the padded buffer
        # holds only the rows one chunk reads, not a padded copy of x
        x, w, b = self._lowering_case("shifted", (1, 16, 256, 256), (16, 16, 3, 3), 1, 1)
        x, w, b = Tensor(x), Tensor(w), Tensor(b)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, w, b, stride=1, padding=1)
            transient = tracemalloc.get_traced_memory()[1] - before - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert transient < x.data.nbytes / 4, transient / x.data.nbytes


class TestBatchnorm2d:
    def _stats(self, c):
        return (Tensor(np.ones((c,))), Tensor(np.zeros((c,))),
                Tensor(np.zeros((c,))), Tensor(np.ones((c,))))

    def test_constant_input_train_zeros(self):
        g, b, rm, rv = self._stats(2)
        out = batchnorm2d(Tensor(np.full((2, 2, 3, 3), 7.0, dtype=np.float32)),
                          g, b, rm, rv)
        npt.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_constant_input_affine(self):
        c = 2
        g = Tensor(np.full(c, 2.0, dtype=np.float32))
        b = Tensor(np.full(c, 5.0, dtype=np.float32))
        out = batchnorm2d(Tensor(np.full((2, c, 3, 3), -3.0, dtype=np.float32)),
                          g, b, Tensor(np.zeros((c,))), Tensor(np.ones((c,))))
        npt.assert_allclose(out.data, 5.0, atol=1e-3)

    def test_train_output_moments(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(1.5, 2.0, size=(2, 3, 4, 4)).astype(np.float32))
        g = Tensor(np.array([1.0, 2.0, 0.5], dtype=np.float32))
        b = Tensor(np.array([0.0, -1.0, 3.0], dtype=np.float32))
        out = batchnorm2d(x, g, b, Tensor(np.zeros((3,))), Tensor(np.ones((3,))))
        for ch in range(3):
            vals = out.data[:, ch]
            npt.assert_allclose(vals.mean(), b.data[ch], atol=1e-3)
            npt.assert_allclose(vals.var(), g.data[ch] ** 2, atol=1e-3)

    def test_running_stats_update_formula(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32))
        rm = Tensor(np.array([1.0, -1.0], dtype=np.float32))
        rv = Tensor(np.array([2.0, 0.5], dtype=np.float32))
        batch_mean = x.data.mean(axis=(0, 2, 3))
        batch_var = x.data.var(axis=(0, 2, 3))
        expect_rm = 0.9 * rm.data + 0.1 * batch_mean  # momentum 0.1
        expect_rv = 0.9 * rv.data + 0.1 * batch_var
        batchnorm2d(x, Tensor(np.ones((2,))), Tensor(np.zeros((2,))), rm, rv)
        npt.assert_allclose(rm.data, expect_rm, rtol=1e-6)
        npt.assert_allclose(rv.data, expect_rv, rtol=1e-6)

    def test_population_variance_not_sample(self):
        # N*H*W = 2 makes the two conventions differ by a factor of 2.
        x = Tensor(np.array([0.0, 2.0], dtype=np.float32).reshape(2, 1, 1, 1))
        rv = Tensor(np.zeros((1,)))
        batchnorm2d(x, Tensor(np.ones((1,))), Tensor(np.zeros((1,))), Tensor(np.zeros((1,))), rv)
        # momentum 0.1 times the population variance of {0, 2}, which is 1
        npt.assert_allclose(rv.data, [0.1], rtol=1e-6)

    def test_eval_uses_running_stats(self):
        # the eval reference the folded eval forwards are held to
        x = Tensor(np.array([3.0], dtype=np.float32).reshape(1, 1, 1, 1))
        rm = Tensor(np.array([1.0], dtype=np.float32))
        rv = Tensor(np.array([4.0], dtype=np.float32))
        out = batchnorm_eval(x, Tensor(np.ones((1,))), Tensor(np.zeros((1,))), rm, rv)
        npt.assert_allclose(out.item(), (3.0 - 1.0) / np.sqrt(4.0 + 1e-5), rtol=1e-5)

    def test_degenerate_train_batch_rejected(self):
        x = Tensor(np.ones((1, 2, 1, 1)))
        g, b, rm, rv = self._stats(2)
        with pytest.raises(ValueError):
            batchnorm2d(x, g, b, rm, rv)


class TestRelu:
    def test_chart(self):
        out = relu(Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32)))
        npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        out = relu(Tensor(np.full((2, 3), -4.0, dtype=np.float32)))
        npt.assert_array_equal(out.data, np.zeros((2, 3), dtype=np.float32))

    def test_taped_gradient_is_gout_times_float_mask(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        x.flat[:4] = [0.0, -0.0, 1.0, -1.0]
        gout = rng.normal(size=x.shape).astype(np.float32)
        gout.flat[:4] = [1.5, -2.0, -0.0, -0.0]  # signed zeros must survive too
        rules = []

        class Keep(Tape):
            def record(self, inputs, output, backward):
                rules.append(backward)

        relu(Tensor(x), tape=Keep())
        (got,) = rules[0](gout)
        want = gout * (x > 0).astype(np.float32)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        w = Tensor(np.eye(3, dtype=np.float32))
        out = linear(x, w, Tensor(np.zeros((3,))))
        npt.assert_array_equal(out.data, x.data)

    def test_zero_weight_rows_equal_bias(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32))
        b = Tensor(np.array([1.0, -2.0], dtype=np.float32))
        out = linear(x, Tensor(np.zeros((2, 5))), b)
        npt.assert_array_equal(out.data, np.tile(b.data, (4, 1)))

    def test_matches_naive_product(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        w = rng.normal(size=(2, 4)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        want = np.empty((3, 2), dtype=np.float64)
        for i in range(3):
            for j in range(2):
                want[i, j] = sum(float(x[i, f]) * float(w[j, f]) for f in range(4))
                want[i, j] += float(b[j])
        npt.assert_allclose(out.data, want, rtol=1e-5)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.zeros((4,))))

    @pytest.mark.parametrize("n, f, g", [(32, 64, 256), (32, 256, 128), (64, 8, 4)])
    def test_row_alone_equals_its_slice_of_the_batch(self, n, f, g):
        rng = np.random.default_rng(f)
        x = rng.uniform(-1, 1, size=(n, f)).astype(np.float32)
        w = Tensor(rng.uniform(-1, 1, size=(g, f)).astype(np.float32))
        b = Tensor(rng.uniform(-1, 1, size=g).astype(np.float32))
        batched = linear(Tensor(x), w, b)
        for k in range(n):
            alone = linear(Tensor(x[k:k + 1]), w, b)
            assert np.array_equal(alone.data[0], batched.data[k]), k


class TestDropout:
    def test_p_zero_identity(self):
        x = Tensor(np.arange(4, dtype=np.float32))
        out = dropout(x, 0.0, rng=np.random.default_rng(0))
        npt.assert_array_equal(out.data, x.data)

    def test_train_mean_preserved(self):
        x = Tensor(np.ones((100_000,)))
        out = dropout(x, 0.5, rng=np.random.default_rng(42))
        assert 0.98 <= float(out.data.mean()) <= 1.02

    def test_survivor_scale(self):
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.25, rng=np.random.default_rng(5))
        kept = out.data[out.data != 0.0]
        npt.assert_allclose(kept, 1.0 / 0.75, rtol=1e-6)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones((4,))), 1.0, rng=np.random.default_rng(0))

    def test_train_without_rng_rejected(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones((4,))), 0.5)


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.zeros((1, 4))))
        npt.assert_allclose(out.data, [[0.25] * 4], rtol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5)).astype(np.float32)
        a = softmax(Tensor(x))
        b = softmax(Tensor(x + 100.0))
        npt.assert_allclose(a.data, b.data, atol=1e-6)

    def test_log_ratios(self):
        x = Tensor(np.log(np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)))
        out = softmax(x)
        npt.assert_allclose(out.data, [[0.1, 0.2, 0.3, 0.4]], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        out = softmax(Tensor(rng.normal(scale=10.0, size=(8, 4)).astype(np.float32)))
        assert (out.data > 0).all()
        npt.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_large_logits_stable(self):
        out = softmax(Tensor(np.array([[1000.0, 0.0]], dtype=np.float32)))
        assert np.isfinite(out.data).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.array([[np.inf, 0.0]], dtype=np.float32)))

    def test_forward_only(self):
        with pytest.raises(TypeError):
            softmax(Tensor(np.zeros((1, 4))), tape=Tape())


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 3]))
        npt.assert_allclose(loss.item(), np.log(4.0), rtol=1e-6)

    def test_monotone_in_true_logit(self):
        losses = []
        for hot in [0.0, 2.0, 4.0, 8.0]:
            logits = Tensor(np.array([[hot, 0.0, 0.0, 0.0]], dtype=np.float32))
            losses.append(cross_entropy(logits, np.array([0])).item())
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] < 0.01

    def test_mean_over_batch(self):
        logits = Tensor(np.array([[5.0, 0.0], [0.0, 5.0]], dtype=np.float32))
        both_right = cross_entropy(logits, np.array([0, 1])).item()
        one_wrong = cross_entropy(logits, np.array([0, 0])).item()
        single = cross_entropy(Tensor(logits.data[:1]), np.array([0])).item()
        assert both_right < one_wrong
        npt.assert_allclose(both_right, single, rtol=1e-6)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 4))), np.array([-1, 0]))


class TestGlobalAvgPool:
    def test_small_map(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 1, 2, 2))
        out = global_avg_pool(x)
        assert out.shape == (1, 1)
        assert out.item() == 2.5

    def test_constant_map(self):
        out = global_avg_pool(Tensor(np.full((2, 3, 4, 5), -1.5, dtype=np.float32)))
        npt.assert_array_equal(out.data, np.full((2, 3), -1.5, dtype=np.float32))


class TestConcatChannels:
    def test_twelve_way_stack_shape(self):
        rng = np.random.default_rng(4)
        parts = [Tensor(rng.normal(size=(3, 8, 8)).astype(np.float32)) for _ in range(12)]
        out = concat_channels(parts)
        assert out.shape == (36, 8, 8)

    def test_single_input_identity(self):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 3, 3)).astype(np.float32))
        npt.assert_array_equal(concat_channels([x]).data, x.data)

    def test_blocks_in_argument_order(self):
        rng = np.random.default_rng(8)
        parts = [Tensor(rng.normal(size=(c, 4, 4)).astype(np.float32)) for c in (1, 3, 2)]
        out = concat_channels(parts)
        offset = 0
        for t in parts:
            c = t.shape[0]
            npt.assert_array_equal(out.data[offset:offset + c], t.data)
            offset += c

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concat_channels([Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 4, 5)))])

    def test_forward_only(self):
        with pytest.raises(TypeError):
            concat_channels([Tensor(np.ones((1, 4, 4)))], tape=Tape())

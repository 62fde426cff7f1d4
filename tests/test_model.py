"""Canonical network structure, deterministic initialization, forward-pass
shapes, feature extraction and stacking."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from histopatch import model, ops
from histopatch.autodiff import Tape
from histopatch.model import (
    NetworkSpec,
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    eval_batch_size,
    extract_features,
    image_feature_stack,
    infer_image,
    init_params,
    network_forward,
    patchwise_logits,
    trainable_names,
)
from histopatch.tensor import Tensor


@pytest.fixture(scope="module")
def small_pw():
    spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
    return spec, init_params(spec, seed=0)


class TestCanonicalPatchwise:
    def test_conv_count_and_downsample_positions(self):
        spec = canonical_patchwise_spec(base_width=16, feature_depth=16)
        assert len(spec.blocks) == 16
        stride2 = [i for i, b in enumerate(spec.blocks) if b.stride == 2]
        assert stride2 == [2, 5, 8]  # conv ordinals 3, 6, 9 (1-based)

    def test_channel_doubling(self):
        spec = canonical_patchwise_spec(base_width=16)
        widths = [b.out_ch for b in spec.blocks[:-1]]
        assert widths == [16, 16, 32, 32, 32, 64, 64, 64, 128] + [128] * 6
        assert [b.in_ch for b in spec.blocks] == [3] + [b.out_ch for b in spec.blocks[:-1]]
        assert spec.blocks[-1].kernel == 1
        assert spec.blocks[-1].out_ch == 16  # feature depth

    def test_each_conv_followed_by_bn_relu(self):
        # every block owns a conv and the batchnorm over its output channels
        spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
        entries = list(model._param_entries(spec))
        for k, block in enumerate(spec.blocks):
            roles = [(role, shape) for _, role, shape in entries[6 * k:6 * k + 6]]
            assert roles == [("weight", (block.out_ch, block.in_ch, block.kernel, block.kernel)),
                             ("bias", (block.out_ch,))] + [
                (r, (block.out_ch,)) for r in ("gamma", "beta", "running_mean", "running_var")]

    def test_head_layers(self):
        spec = canonical_patchwise_spec(feature_depth=16)
        assert spec.head == (4,)
        assert [shape for name, _, shape in model._param_entries(spec)][-2:] == [(4, 16), (4,)]

    def test_feature_cut_is_last_relu_before_head(self, small_pw):
        # the features are what the pooled head reads
        spec, params = small_pw
        x = Tensor(np.random.default_rng(4).normal(size=(2, 3, 16, 16)).astype(np.float32))
        feats = network_forward(spec, params, x, "eval", features=True)
        assert feats.shape == (2, 3, 2, 2) and (feats.data >= 0).all()
        head = ops.linear(ops.global_avg_pool(feats), params["49.weight"], params["49.bias"])
        assert head.data.tobytes() == network_forward(spec, params, x, "eval").data.tobytes()

    def test_spec_roundtrip_through_dict(self):
        spec = canonical_patchwise_spec(base_width=8, feature_depth=4)
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.blocks == spec.blocks and again.head == spec.head

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            canonical_patchwise_spec(base_width=0)


class TestCanonicalImagewise:
    def test_structure(self):
        spec = canonical_imagewise_spec(n_patches=12, feature_depth=16, head_depth=64)
        assert len(spec.blocks) == 7
        assert spec.blocks[0].in_ch == 12 * 16
        assert [b.stride for b in spec.blocks] == [1, 1, 2, 1, 1, 2, 1]
        assert spec.blocks[-1].kernel == 1 and spec.blocks[-1].out_ch == 64

    def test_three_linear_layers_with_dropout(self):
        spec = canonical_imagewise_spec(head_depth=64)
        linears = [shape for _, role, shape in model._param_entries(spec)
                   if role == "weight" and len(shape) == 2]
        assert linears == [(256, 64), (128, 256), (4, 128)]
        assert spec.head == (256, 128, 4)
        assert spec.dropout_rate == 0.5

    def test_dropout_rate_parameter(self):
        assert canonical_imagewise_spec(dropout_rate=0.25).dropout_rate == 0.25
        with pytest.raises(ValueError):
            canonical_imagewise_spec(dropout_rate=1.0)

    def test_roundtrip_through_dict(self):
        spec = canonical_imagewise_spec(n_patches=12, feature_depth=8, head_depth=32,
                                        dropout_rate=0.25)
        assert NetworkSpec.from_dict(spec.to_dict()) == spec


def _spec_dict(stack: str, drop: str | None = None, **changes) -> dict:
    """A small canonical spec's ``to_dict`` with ``changes`` applied and the
    key ``drop`` removed."""
    spec = (canonical_patchwise_spec(base_width=4, feature_depth=4) if stack == "patchwise"
            else canonical_imagewise_spec(n_patches=2, feature_depth=2, head_depth=8))
    d = {**spec.to_dict(), **changes}
    d.pop(drop, None)
    return d


class TestSpecFromDict:
    """``NetworkSpec.from_dict`` rebuilds a canonical stack from the stored
    sizes and refuses anything else with a ValueError, never another error."""

    @pytest.mark.parametrize("d", [
        _spec_dict("imagewise", dropout_rate=None),
        _spec_dict("imagewise", drop="dropout_rate"),
        _spec_dict("imagewise", dropout_rate="0.5"),
        _spec_dict("imagewise", dropout_rate=True),
        _spec_dict("imagewise", dropout_rate=1.0),
        _spec_dict("patchwise", base_width="8"),
        _spec_dict("patchwise", base_width=True),
        _spec_dict("patchwise", base_width=0),
        _spec_dict("patchwise", n_classes=5),
        _spec_dict("patchwise", n_classes=4),
        _spec_dict("imagewise", layers=[5]),
        _spec_dict("patchwise", dropout_rate=0.5),
        _spec_dict("imagewise", n_patches=None),
        _spec_dict("patchwise", kind="densenet"),
        5,
    ], ids=["null rate", "rate missing", "rate string", "rate bool", "rate 1.0",
            "base_width string", "base_width bool", "base_width 0", "n_classes 5",
            "n_classes 4", "layers hold a number", "patchwise with a rate", "n_patches null",
            "unknown kind", "not an object"])
    def test_non_canonical_spec_refused(self, d):
        with pytest.raises(ValueError):
            NetworkSpec.from_dict(d)


class TestInitParams:
    def test_deterministic_per_seed(self):
        spec = canonical_patchwise_spec(base_width=4, feature_depth=4)
        a = init_params(spec, seed=3)
        b = init_params(spec, seed=3)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_seed_changes_weights(self):
        spec = canonical_patchwise_spec(base_width=4, feature_depth=4)
        a = init_params(spec, seed=0)
        b = init_params(spec, seed=1)
        assert not np.array_equal(a["00.weight"].data, b["00.weight"].data)

    def test_constant_tensors(self):
        spec = canonical_patchwise_spec(base_width=4, feature_depth=4)
        params = init_params(spec, seed=0)
        for name, t in params.items():
            if name.endswith((".bias", ".beta", ".running_mean")):
                npt.assert_array_equal(t.data, 0.0)
            elif name.endswith((".gamma", ".running_var")):
                npt.assert_array_equal(t.data, 1.0)

    def test_weight_scale_tracks_fan(self):
        spec = canonical_patchwise_spec(base_width=8, feature_depth=8)
        params = init_params(spec, seed=0)
        w = params["00.weight"]  # conv 3 -> 8, 3x3
        bound = np.sqrt(6.0 / (3 * 9 + 8 * 9))
        assert np.abs(w.data).max() <= bound
        # uniform(-b, b) std is b/sqrt(3); sampled std should sit near it
        npt.assert_allclose(w.data.std(), bound / np.sqrt(3), rtol=0.2)

    def test_trainable_flags(self):
        spec = canonical_imagewise_spec(n_patches=4, feature_depth=4, head_depth=8)
        params = init_params(spec, seed=0)
        names = set(trainable_names(spec))
        for name, t in params.items():
            assert t.requires_grad == (name in names), name

    def test_running_stats_not_trainable(self):
        spec = canonical_patchwise_spec(base_width=4, feature_depth=4)
        for name in trainable_names(spec):
            assert "running" not in name


class TestForwardShapes:
    def test_logits_shape(self, small_pw):
        spec, params = small_pw
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32))
        out = patchwise_logits(spec, params, x, mode="eval")
        assert out.shape == (2, 4)

    def test_probabilities_with_softmax(self, small_pw):
        spec, params = small_pw
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 16, 16)).astype(np.float32))
        probs = network_forward(spec, params, x, "eval", with_softmax=True)
        npt.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("mode, with_softmax", [("eval", False), ("eval", True),
                                                    ("train", True)])
    def test_only_a_train_forward_to_logits_takes_a_tape(self, small_pw, mode,
                                                         with_softmax):
        # nothing trains through an eval forward or the softmax
        spec, params = small_pw
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 16, 16)).astype(np.float32))
        tape = Tape()
        with pytest.raises(ValueError, match="takes a tape"):
            network_forward(spec, params, x, mode, tape=tape, with_softmax=with_softmax)
        assert len(tape) == 0
        network_forward(spec, {k: t.copy() for k, t in params.items()}, x, "train", tape=tape)
        assert len(tape) > 0

    def test_feature_map_is_one_eighth(self, small_pw):
        spec, params = small_pw
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 64, 64)).astype(np.float32))
        feats = extract_features(spec, params, x)
        assert feats.shape == (2, 3, 8, 8)
        assert (feats.data >= 0).all()  # relu output

    def test_indivisible_patch_rejected(self, small_pw):
        spec, params = small_pw
        x = Tensor(np.zeros((1, 3, 60, 60), dtype=np.float32))
        with pytest.raises(ValueError):
            patchwise_logits(spec, params, x, mode="eval")

    def test_imagewise_spec_rejected_by_patch_paths(self, small_pw):
        iw = canonical_imagewise_spec(n_patches=4, feature_depth=3, head_depth=8)
        iw_params = init_params(iw, seed=0)
        x = Tensor(np.zeros((1, 12, 16, 16), dtype=np.float32))
        with pytest.raises(ValueError):
            patchwise_logits(iw, iw_params, x, mode="eval")

    def test_dropout_needs_rng_in_train(self):
        iw = canonical_imagewise_spec(n_patches=2, feature_depth=2, head_depth=8)
        params = init_params(iw, seed=0)
        x = Tensor(np.zeros((2, 4, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            network_forward(iw, params, x, "train")
        # eval mode needs no generator
        network_forward(iw, params, x, "eval")

    def test_eval_mode_dropout_is_identity(self):
        iw = canonical_imagewise_spec(n_patches=2, feature_depth=2, head_depth=8)
        no_dropout = canonical_imagewise_spec(n_patches=2, feature_depth=2, head_depth=8,
                                              dropout_rate=0.0)
        params = init_params(iw, seed=0)
        x = Tensor(np.random.default_rng(5).normal(size=(2, 4, 8, 8)).astype(np.float32))
        a = network_forward(iw, params, x, "eval")
        b = network_forward(no_dropout, params, x, "eval")
        npt.assert_array_equal(a.data, b.data)


def _perturbed_params(spec, seed):
    """init_params with non-trivial biases, gammas, betas and running stats."""
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        role = name.split(".")[1]
        if role == "gamma":
            t.data[:] = rng.uniform(0.5, 1.5, t.shape)
        elif role == "running_var":
            t.data[:] = rng.uniform(0.05, 3.0, t.shape)
        elif role in ("bias", "beta", "running_mean"):
            t.data[:] = rng.normal(0.0, 0.3, t.shape)
    return params


def _unfolded_eval(spec, params, x, features=False):
    """Eval forward block by block through ops.conv2d, ops.batchnorm2d and
    ops.relu: the reference the folded network_forward is held to."""
    cur = x
    for k, block in enumerate(spec.blocks):
        c, n = f"{3 * k:02d}", f"{3 * k + 1:02d}"
        cur = ops.conv2d(cur, params[f"{c}.weight"], params[f"{c}.bias"],
                         stride=block.stride, padding=block.padding)
        cur = ops.relu(ops.batchnorm2d(cur, params[f"{n}.gamma"], params[f"{n}.beta"],
                                       params[f"{n}.running_mean"],
                                       params[f"{n}.running_var"], "eval"))
    if features:
        return cur.data
    cur = ops.global_avg_pool(cur)
    for j in range(len(spec.head)):
        i = 3 * len(spec.blocks) + 1 + 3 * j
        cur = ops.linear(ops.relu(cur) if j else cur,
                         params[f"{i:02d}.weight"], params[f"{i:02d}.bias"])
    return cur.data


# the folded path differs from the unfolded one by float32 rounding only;
# the largest gap measured was 7.7e-7 of max|ref|
FOLD_RTOL = 1e-5


def _fold_cases():
    pw = canonical_patchwise_spec(base_width=4, feature_depth=3)
    iw = canonical_imagewise_spec(n_patches=2, feature_depth=3, head_depth=8)
    rng = np.random.default_rng(31)
    return [
        ("patchwise", pw, _perturbed_params(pw, seed=5),
         Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))),
        ("imagewise", iw, _perturbed_params(iw, seed=6),
         Tensor(rng.uniform(0, 2, size=(2, 6, 8, 8)).astype(np.float32))),
    ]


FOLD_CASES = _fold_cases()


class TestEvalFold:
    """An eval forward without a tape folds each batchnorm into its conv and
    applies relu in place."""

    @staticmethod
    def _assert_close(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= FOLD_RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", FOLD_CASES, ids=lambda c: c[0])
    def test_matches_unfolded_ops(self, case):
        _, spec, params, x = case
        self._assert_close(network_forward(spec, params, x, "eval").data,
                           _unfolded_eval(spec, params, x))

    @pytest.mark.parametrize("case", FOLD_CASES, ids=lambda c: c[0])
    def test_features_match_unfolded_ops(self, case):
        _, spec, params, x = case
        self._assert_close(network_forward(spec, params, x, "eval", features=True).data,
                           _unfolded_eval(spec, params, x, features=True))

    @pytest.mark.parametrize("case", FOLD_CASES, ids=lambda c: c[0])
    def test_parameters_and_input_untouched(self, case):
        _, spec, params, x = case
        before = {name: t.data.tobytes() for name, t in params.items()}
        x_before = x.data.tobytes()
        network_forward(spec, params, x, "eval", with_softmax=True)
        network_forward(spec, params, x, "eval", features=True)
        assert {name: t.data.tobytes() for name, t in params.items()} == before
        assert x.data.tobytes() == x_before

    @pytest.mark.parametrize("case", FOLD_CASES, ids=lambda c: c[0])
    def test_op_calls_eval_and_train(self, case, monkeypatch):
        _, spec, params, x = case
        calls = {"conv2d": 0, "batchnorm2d": 0, "relu": 0}

        def counted(name):
            original = getattr(ops, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ops, name, counted(name))
        n_conv = len(spec.blocks)
        n_relu = n_conv + len(spec.head) - 1

        network_forward(spec, params, x, "eval", with_softmax=True)
        assert calls == {"conv2d": n_conv, "batchnorm2d": 0, "relu": 0}

        calls.update(conv2d=0)
        train_params = {name: t.copy() for name, t in params.items()}
        network_forward(spec, train_params, x, "train",
                        dropout_rng=lambda i: np.random.default_rng(i))
        assert calls == {"conv2d": n_conv, "batchnorm2d": n_conv, "relu": n_relu}

    def test_tile_alone_equals_its_slice_of_the_batch(self):
        spec = canonical_patchwise_spec(base_width=4, feature_depth=3)
        params = _perturbed_params(spec, seed=8)
        tiles = np.random.default_rng(32).normal(size=(3, 3, 32, 32)).astype(np.float32)
        batched = extract_features(spec, params, Tensor(tiles)).data
        for k in range(3):
            alone = extract_features(spec, params, Tensor(tiles[k:k + 1])).data
            assert alone[0].tobytes() == batched[k].tobytes(), k
        # the whole eval forward of both networks, logits and probabilities,
        # alone, in a batch, and in a batch of another order
        for name, spec, params, x in FOLD_CASES:
            for with_softmax in (False, True):
                def run(batch):
                    return network_forward(spec, params, Tensor(batch), "eval",
                                           with_softmax=with_softmax).data
                batched = run(x.data)
                flipped = run(x.data[::-1])[::-1]
                for k in range(x.shape[0]):
                    where = (name, with_softmax, k)
                    assert run(x.data[k:k + 1])[0].tobytes() == batched[k].tobytes(), where
                    assert flipped[k].tobytes() == batched[k].tobytes(), where


class TestEvalBatchSize:
    def test_widest_array_sets_samples_per_forward(self):
        pw8, pw16 = canonical_patchwise_spec(8, 8), canonical_patchwise_spec(16, 16)
        # desk scale: conv 1's 8x64x64 output, 128 KiB, is the widest array
        assert eval_batch_size(pw8, (3, 64, 64)) == 64
        # each axis keeps its own size: 8x64x32 is 64 KiB
        assert eval_batch_size(pw8, (3, 64, 32)) == 128
        # paper scale: a 16x512x512 output is 16 MiB, over the whole budget
        assert eval_batch_size(pw16, (3, 512, 512)) == 1
        # stage two at desk scale: the 96x8x8 input stack, 24 KiB, is widest
        iw = canonical_imagewise_spec(n_patches=12, feature_depth=8, head_depth=64)
        assert eval_batch_size(iw, (96, 8, 8)) == (8 << 20) // (96 * 8 * 8 * 4)


class TestFeatureStacking:
    def test_image_feature_stack_matches_per_patch_extraction(self, monkeypatch):
        spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
        params = init_params(spec, seed=4)
        rng = np.random.default_rng(12)
        image = Tensor(rng.normal(size=(3, 32, 64)).astype(np.float32))
        # tile grid: 4 x 2 = 8 patches of 3 channels each, maps 2x2, in
        # row-major order: patch k is the crop at x=16*(k%4), y=16*(k//4)
        singles = [extract_features(spec, params, Tensor(np.ascontiguousarray(
                       image.data[None, :, 16 * (k // 4):16 * (k // 4) + 16,
                                  16 * (k % 4):16 * (k % 4) + 16]))).data[0]
                   for k in range(8)]
        sizes = []

        def counted(spec, params, patches):
            sizes.append(patches.shape[0])
            return extract_features(spec, params, patches)

        monkeypatch.setattr(model, "extract_features", counted)
        widest = 3 * 16 * 16 * 4  # a tile's input; its conv outputs are 2x16x16 or less
        for per_forward, expected in ((1, [1] * 8), (5, [5, 3]), (8, [8])):
            monkeypatch.setattr(model, "EVAL_BYTES", per_forward * widest)
            sizes.clear()
            stack = image_feature_stack(spec, params, image, window=16)
            assert sizes == expected
            assert stack.shape == (24, 2, 2)
            for k, single in enumerate(singles):
                assert stack.data[3 * k:3 * k + 3].tobytes() == single.tobytes(), (per_forward, k)

    def test_image_feature_stack_holds_one_tile_at_a_time(self, monkeypatch):
        # B=C=16 at window 128: a tile's widest array is a 16x128x128 conv
        # output, 1 MiB, so a 1 MiB budget runs the 12 tiles one per forward
        spec = canonical_patchwise_spec(base_width=16, feature_depth=16)
        params = init_params(spec, seed=0)
        image = Tensor(np.random.default_rng(14).normal(size=(3, 384, 512)).astype(np.float32))
        widest = 16 * 128 * 128 * 4
        monkeypatch.setattr(model, "EVAL_BYTES", widest)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            image_feature_stack(spec, params, image, window=128)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 5 * widest, peak / widest

    def test_infer_image_output(self):
        pw = canonical_patchwise_spec(base_width=2, feature_depth=3)
        pw_params = init_params(pw, seed=0)
        iw = canonical_imagewise_spec(n_patches=8, feature_depth=3, head_depth=8)
        iw_params = init_params(iw, seed=1)
        image = Tensor(np.random.default_rng(13).normal(size=(3, 64, 128)).astype(np.float32))
        cls, probs = infer_image(pw, pw_params, iw, iw_params, image, window=32)
        assert 0 <= cls < 4
        assert probs.shape == (4,)
        npt.assert_allclose(probs.sum(), 1.0, atol=1e-5)
        assert cls == int(np.argmax(probs))

    def test_infer_patch_count_mismatch_rejected(self):
        pw = canonical_patchwise_spec(base_width=2, feature_depth=3)
        pw_params = init_params(pw, seed=0)
        iw = canonical_imagewise_spec(n_patches=12, feature_depth=3, head_depth=8)
        iw_params = init_params(iw, seed=1)
        image = Tensor(np.zeros((3, 32, 64), dtype=np.float32))
        with pytest.raises(ValueError):
            infer_image(pw, pw_params, iw, iw_params, image, window=16)

"""Canonical network structure, deterministic initialization, forward-pass
shapes, feature extraction and stacking."""

import numpy as np
import numpy.testing as npt
import pytest

from histopatch.model import (
    NetworkSpec,
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    extract_features,
    image_feature_stack,
    infer_image,
    init_params,
    network_forward,
    patchwise_logits,
    stack_features,
    trainable_names,
)
from histopatch.tensor import Tensor


class TestCanonicalPatchwise:
    def test_conv_count_and_downsample_positions(self):
        spec = canonical_patchwise_spec(base_width=16, feature_depth=16)
        convs = [l for l in spec.layers if l.kind == "conv"]
        assert len(convs) == 16
        stride2 = [i for i, l in enumerate(convs) if l.stride == 2]
        assert stride2 == [2, 5, 8]  # conv ordinals 3, 6, 9 (1-based)

    def test_channel_doubling(self):
        spec = canonical_patchwise_spec(base_width=16)
        convs = [l for l in spec.layers if l.kind == "conv"]
        widths = [l.out_ch for l in convs[:-1]]
        assert widths == [16, 16, 32, 32, 32, 64, 64, 64, 128] + [128] * 6
        assert convs[-1].kernel == 1
        assert convs[-1].out_ch == 16  # feature depth

    def test_each_conv_followed_by_bn_relu(self):
        spec = canonical_patchwise_spec()
        kinds = [l.kind for l in spec.layers]
        for i, k in enumerate(kinds):
            if k == "conv":
                assert kinds[i + 1] == "batchnorm"
                assert kinds[i + 2] == "relu"

    def test_head_layers(self):
        spec = canonical_patchwise_spec()
        kinds = [l.kind for l in spec.layers]
        assert kinds[-3:] == ["global_avg_pool", "linear", "softmax"]
        assert spec.layers[-2].out_ch == 4

    def test_feature_cut_is_last_relu_before_head(self):
        spec = canonical_patchwise_spec()
        assert spec.layers[spec.feature_cut].kind == "relu"
        assert spec.layers[spec.feature_cut + 1].kind == "global_avg_pool"

    def test_spec_roundtrip_through_dict(self):
        spec = canonical_patchwise_spec(base_width=8, feature_depth=4)
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            canonical_patchwise_spec(base_width=0)


class TestCanonicalImagewise:
    def test_structure(self):
        spec = canonical_imagewise_spec(n_patches=12, feature_depth=16, head_depth=64)
        convs = [l for l in spec.layers if l.kind == "conv"]
        assert len(convs) == 7
        assert convs[0].in_ch == 12 * 16
        assert [l.stride for l in convs] == [1, 1, 2, 1, 1, 2, 1]
        assert convs[-1].kernel == 1 and convs[-1].out_ch == 64

    def test_three_linear_layers_with_dropout(self):
        spec = canonical_imagewise_spec(head_depth=64)
        linears = [l for l in spec.layers if l.kind == "linear"]
        assert [(l.in_ch, l.out_ch) for l in linears] == [(64, 256), (256, 128), (128, 4)]
        drops = [l for l in spec.layers if l.kind == "dropout"]
        assert len(drops) == 2
        assert all(l.rate == 0.5 for l in drops)

    def test_dropout_rate_parameter(self):
        spec = canonical_imagewise_spec(dropout_rate=0.25)
        assert all(l.rate == 0.25 for l in spec.layers if l.kind == "dropout")
        with pytest.raises(ValueError):
            canonical_imagewise_spec(dropout_rate=1.0)

    def test_roundtrip_through_dict(self):
        spec = canonical_imagewise_spec(n_patches=12, feature_depth=8, head_depth=32)
        assert NetworkSpec.from_dict(spec.to_dict()) == spec


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


@pytest.fixture(scope="module")
def small_pw():
    spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
    return spec, init_params(spec, seed=0)


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


class TestFeatureStacking:
    def test_stack_order_matches_manual_concat(self):
        rng = np.random.default_rng(11)
        feats = [Tensor(rng.normal(size=(3, 4, 4)).astype(np.float32)) for _ in range(5)]
        out = stack_features(feats)
        assert out.shape == (15, 4, 4)
        npt.assert_array_equal(out.data, np.concatenate([f.data for f in feats], axis=0))

    def test_expected_count_enforced(self):
        feats = [Tensor(np.zeros((2, 4, 4), dtype=np.float32))] * 3
        with pytest.raises(ValueError):
            stack_features(feats, expected_count=12)

    def test_image_feature_stack_matches_per_patch_extraction(self):
        spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
        params = init_params(spec, seed=4)
        rng = np.random.default_rng(12)
        image = Tensor(rng.normal(size=(3, 32, 64)).astype(np.float32))
        stack = image_feature_stack(spec, params, image, window=16)
        # tile grid: 4 x 2 = 8 patches of 3 channels each, maps 2x2
        assert stack.shape == (24, 2, 2)
        # row-major: patch 1 is the crop at x=16, y=0
        crop = Tensor(np.ascontiguousarray(image.data[None, :, 0:16, 16:32]))
        single = extract_features(spec, params, crop)
        npt.assert_allclose(stack.data[3:6], single.data[0], atol=1e-6)

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

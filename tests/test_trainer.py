"""Optimizer and early-stop traces, metric bookkeeping, and small real
training runs exercising reproducibility, trunk freezing, and the rule that
validation data steers only model *selection*, never the gradients."""

import shutil

import numpy as np
import numpy.testing as npt
import pytest

from histopatch import model, trainer
from histopatch.data import (
    LabeledImage,
    Manifest,
    ManifestRecord,
    NormStats,
    load_images,
    load_manifest,
    read_ppm,
    write_ppm,
)
from histopatch.geometry import PatchGrid, patch_coords
from histopatch.model import patchwise_logits
from histopatch.tensor import Tensor
from histopatch.trainer import (
    TrainConfig,
    _PatchIndex,
    confusion_matrix,
    early_stop,
    evaluate_images,
    evaluate_patches,
    metrics_from_confusion,
    sgd_step,
    train_imagewise,
    train_patchwise,
)


def _tensor_params(values):
    return {k: Tensor(np.asarray(v, dtype=np.float32), requires_grad=True)
            for k, v in values.items()}


class TestSgdStep:
    def test_single_step_no_momentum(self):
        params = _tensor_params({"w": [1.0]})
        grads = {"w": np.array([0.5], dtype=np.float32)}
        velocity = {"w": np.zeros(1, dtype=np.float32)}
        sgd_step(params, grads, velocity, lr=0.1, momentum=0.0)
        npt.assert_allclose(params["w"].data, [0.95], rtol=1e-6)

    def test_two_steps_with_momentum(self):
        params = _tensor_params({"w": [0.0]})
        velocity = {"w": np.zeros(1, dtype=np.float32)}
        g = {"w": np.array([1.0], dtype=np.float32)}
        sgd_step(params, g, velocity, lr=0.1, momentum=0.9)
        npt.assert_allclose(velocity["w"], [1.0], rtol=1e-6)
        npt.assert_allclose(params["w"].data, [-0.1], rtol=1e-6)
        sgd_step(params, g, velocity, lr=0.1, momentum=0.9)
        npt.assert_allclose(velocity["w"], [1.9], rtol=1e-6)
        npt.assert_allclose(params["w"].data, [-0.29], rtol=1e-6)

    def test_updates_are_in_place(self):
        params = _tensor_params({"w": [2.0]})
        velocity = {"w": np.zeros(1, dtype=np.float32)}
        buf = params["w"].data
        sgd_step(params, {"w": np.ones(1, dtype=np.float32)}, velocity, 0.5, 0.0)
        assert params["w"].data is buf  # no reallocation

    def test_shape_mismatch_rejected(self):
        params = _tensor_params({"w": [1.0, 2.0]})
        velocity = {"w": np.zeros(2, dtype=np.float32)}
        with pytest.raises(ValueError, match="w"):
            sgd_step(params, {"w": np.zeros(3, dtype=np.float32)}, velocity, 0.1, 0.9)


class TestEarlyStop:
    def test_plateau_stops_after_patience(self):
        # best at epoch 1, two non-improvements afterwards
        assert early_stop([0.5, 0.6, 0.6, 0.6], patience=2) == (True, 1)

    def test_plateau_not_yet_stopped(self):
        assert early_stop([0.5, 0.6, 0.6], patience=2) == (False, 1)

    def test_monotone_never_stops(self):
        history = [0.1 * i for i in range(1, 30)]
        stop, best = early_stop(history, patience=2)
        assert not stop
        assert best == len(history) - 1

    def test_recovery_resets_streak(self):
        assert early_stop([0.7, 0.6, 0.8], patience=2) == (False, 2)

    def test_tie_keeps_earliest_best(self):
        stop, best = early_stop([0.9, 0.9, 0.9], patience=5)
        assert not stop
        assert best == 0

    def test_empty_history(self):
        assert early_stop([], patience=3) == (False, -1)

    def test_bad_patience(self):
        with pytest.raises(ValueError):
            early_stop([0.5], patience=0)

    def test_incremental_prefixes_match_training_loop(self):
        history = [0.5, 0.6, 0.6, 0.6]
        fired = [early_stop(history[:i + 1], 2)[0] for i in range(len(history))]
        assert fired == [False, False, False, True]


class TestConfusionAndMetrics:
    def test_perfect_predictor_diagonal(self):
        labels = np.array([0, 1, 2, 3, 3])
        m = confusion_matrix(labels, labels)
        npt.assert_array_equal(m, np.diag([1, 1, 1, 2]))
        acc, prec, rec = metrics_from_confusion(m)
        assert acc == 1.0
        assert prec == [1.0, 1.0, 1.0, 1.0]
        assert rec == [1.0, 1.0, 1.0, 1.0]

    def test_constant_predictor(self):
        true = np.array([0, 1, 2, 3])
        pred = np.zeros(4, dtype=np.int64)
        m = confusion_matrix(true, pred)
        acc, prec, rec = metrics_from_confusion(m)
        assert acc == 0.25
        assert prec[0] == 0.25
        assert rec == [1.0, 0.0, 0.0, 0.0]
        # empty predicted columns give 0.0, not NaN
        assert prec[1:] == [0.0, 0.0, 0.0]

    def test_row_sums_count_true_labels(self):
        true = np.array([0, 0, 1, 2, 3, 3, 3])
        pred = np.array([1, 0, 1, 2, 0, 3, 3])
        m = confusion_matrix(true, pred)
        npt.assert_array_equal(m.sum(axis=1), [2, 1, 1, 3])

    def test_hand_worked_matrix(self):
        m = np.array([
            [3, 1, 0, 0],
            [0, 4, 0, 0],
            [1, 0, 2, 1],
            [0, 0, 0, 4],
        ])
        acc, prec, rec = metrics_from_confusion(m)
        npt.assert_allclose(acc, 13 / 16)
        npt.assert_allclose(prec, [3 / 4, 4 / 5, 2 / 2, 4 / 5])
        npt.assert_allclose(rec, [3 / 4, 4 / 4, 2 / 4, 4 / 4])

    def test_empty_matrix(self):
        acc, prec, rec = metrics_from_confusion(np.zeros((4, 4), dtype=np.int64))
        assert acc == 0.0


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig(stage="patchwise").validate()
        TrainConfig(stage="imagewise").validate()

    @pytest.mark.parametrize("kw", [
        {"stage": "both"},
        {"stage": "patchwise", "lr": 0.0},
        {"stage": "patchwise", "lr": -0.1},
        {"stage": "patchwise", "patience": 0},
        {"stage": "patchwise", "batch_size": 1},
        {"stage": "patchwise", "max_epochs": 0},
        {"stage": "imagewise", "dropout_rate": 1.0},
        # windows a conv stack cannot carry (too small, or not a multiple of 8)
        {"stage": "patchwise", "window": 16},
        {"stage": "patchwise", "window": 60},
        {"stage": "imagewise", "window": 24},
        # optimizer settings that would train on and then diverge
        {"stage": "patchwise", "lr": float("nan")},
        {"stage": "imagewise", "lr": float("inf")},
        {"stage": "patchwise", "momentum": 1.5},
        {"stage": "patchwise", "momentum": 1.0},
        {"stage": "imagewise", "momentum": -0.1},
        {"stage": "patchwise", "momentum": float("nan")},
    ])
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw).validate()


def _pw_config(**kw):
    base = dict(stage="patchwise", seed=0, lr=0.01, momentum=0.9, batch_size=16,
                max_epochs=6, patience=6, window=64, stride=32, base_width=4,
                feature_depth=4)
    base.update(kw)
    return TrainConfig(**base)


def _iw_config(**kw):
    base = dict(stage="imagewise", seed=0, lr=0.01, momentum=0.9, batch_size=8,
                max_epochs=6, patience=6, window=64, head_depth=16)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def stage1(tiny_manifest):
    return train_patchwise(tiny_manifest, _pw_config())


@pytest.fixture(scope="module")
def stage2(tiny_manifest, stage1):
    return train_imagewise(tiny_manifest, stage1.spec, stage1.params, _iw_config())


class TestPatchIndex:
    @staticmethod
    def _image(label, w=128, h=96):
        pixels = np.random.default_rng(label).random((3, h, w), dtype=np.float32)
        return LabeledImage(pixels=Tensor(pixels), label=label, source_id=f"img{label}")

    def test_counts_and_inheritance(self):
        images = [self._image(0), self._image(3)]
        index = _PatchIndex(images, window=64, stride=32)
        # 128x96 at window 64 stride 32: 3 x 2 = 6 per image
        assert len(index) == 12
        npt.assert_array_equal(index.labels, [0] * 6 + [3] * 6)
        expected = [img.pixels.data[:, y:y + 64, x:x + 64] for img in images
                    for x, y in patch_coords(PatchGrid(128, 96, 64, 32))]
        npt.assert_array_equal(index.gather(np.arange(12)), np.stack(expected))

    def test_gather_follows_index_order(self):
        images = [self._image(1), self._image(2, w=96)]
        index = _PatchIndex(images, window=32, stride=24)
        everything = index.gather(np.arange(len(index)))
        idxs = np.random.default_rng(0).permutation(len(index))[:9]
        batch = index.gather(idxs)
        assert batch.dtype == np.float32 and batch.flags.c_contiguous
        npt.assert_array_equal(batch, everything[idxs])


class TestTrainPatchwise:
    def test_metrics_structure(self, stage1, tiny_manifest):
        metrics = stage1.metrics
        assert 1 <= len(metrics.epochs) <= 6
        assert [e.epoch for e in metrics.epochs] == list(range(len(metrics.epochs)))
        assert 0.0 <= metrics.accuracy <= 1.0
        d = metrics.to_dict()
        assert set(d) == {"epochs", "confusion", "accuracy", "per_class", "best_epoch"}
        assert set(d["per_class"]) == {"precision", "recall"}
        assert len(d["per_class"]["precision"]) == 4

    def test_confusion_rows_count_val_patches(self, stage1, tiny_manifest):
        # 2 val images per class, 6 patches each at 128x96 window 64 stride 32
        m = np.asarray(stage1.metrics.confusion)
        npt.assert_array_equal(m.sum(axis=1), [12, 12, 12, 12])

    def test_loss_decreases(self, stage1):
        losses = [e.train_loss for e in stage1.metrics.epochs]
        assert len(losses) >= 6
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_best_epoch_is_earliest_max(self, stage1):
        accs = [e.val_acc for e in stage1.metrics.epochs]
        assert stage1.metrics.best_epoch == int(np.argmax(accs))

    def test_recorded_accuracy_recomputable(self, stage1, tiny_manifest):
        val_imgs = load_images(tiny_manifest, "val", normalized=True)
        m = evaluate_patches(stage1.spec, stage1.params, val_imgs, 64, 32)
        acc, _, _ = metrics_from_confusion(m)
        assert acc == stage1.metrics.accuracy

    def test_confusion_independent_of_eval_batch(self, stage1, tiny_manifest, monkeypatch):
        # 48 val patches of 64x64 at B=4, whose widest array is a 4x64x64 conv
        # output: one per forward, 5 (nine forwards and a remainder of 3), all
        val_imgs = load_images(tiny_manifest, "val", normalized=True)
        widest = 4 * 64 * 64 * 4
        sizes, logits = [], []

        def recorded(spec, params, batch, mode):
            out = patchwise_logits(spec, params, batch, mode)
            sizes.append(batch.shape[0])
            logits.append(out.data)
            return out

        monkeypatch.setattr(trainer, "patchwise_logits", recorded)
        runs = []
        for per_forward, expected in ((1, [1] * 48), (5, [5] * 9 + [3]), (48, [48])):
            monkeypatch.setattr(model, "EVAL_BYTES", per_forward * widest)
            sizes.clear()
            logits.clear()
            m = evaluate_patches(stage1.spec, stage1.params, val_imgs, 64, 32)
            assert sizes == expected
            npt.assert_array_equal(m, np.asarray(stage1.metrics.confusion))
            runs.append(np.concatenate(logits).tobytes())
        assert runs[0] == runs[1] == runs[2]

    def test_meta_fields_per_stage(self, stage1, stage2):
        # the sizes and the kind live in the header's spec, not in meta
        shared = {"window", "seed", "lr", "momentum", "batch_size", "max_epochs",
                  "patience", "norm_mean", "norm_std", "best_epoch", "val_acc"}
        assert set(stage1.meta) == shared | {"stride"}
        assert set(stage2.meta) == shared
        assert stage1.meta["best_epoch"] == stage1.metrics.best_epoch
        assert stage2.spec.feature_depth == stage1.spec.feature_depth

    def test_divergence_stops_with_epoch_and_batch(self, tiny_manifest):
        config = _pw_config(lr=1e6, window=32, stride=16, base_width=2,
                            feature_depth=2, max_epochs=2)
        with pytest.raises(ValueError, match=r"diverged at epoch \d+, batch \d+"):
            train_patchwise(tiny_manifest, config)

    def test_meta_carries_norm_stats(self, stage1, tiny_manifest):
        assert stage1.meta["norm_mean"] == list(tiny_manifest.stats.mean)
        assert stage1.meta["norm_std"] == list(tiny_manifest.stats.std)
        assert stage1.meta["window"] == 64

    def test_two_runs_bitwise_identical(self, tiny_manifest):
        a = train_patchwise(tiny_manifest, _pw_config(max_epochs=2))
        b = train_patchwise(tiny_manifest, _pw_config(max_epochs=2))
        assert set(a.params) == set(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data), name
        assert a.metrics.epochs == b.metrics.epochs

    def test_seed_changes_outcome(self, tiny_manifest):
        a = train_patchwise(tiny_manifest, _pw_config(max_epochs=1))
        b = train_patchwise(tiny_manifest, _pw_config(max_epochs=1, seed=1))
        assert not np.array_equal(a.params["00.weight"].data,
                                  b.params["00.weight"].data)

    def test_stage_mismatch_rejected(self, tiny_manifest):
        with pytest.raises(ValueError, match="stage"):
            train_patchwise(tiny_manifest, _iw_config())

    def test_manifest_without_stats_rejected(self, tiny_manifest):
        bare = Manifest(records=tiny_manifest.records, stats=None,
                        root=tiny_manifest.root)
        with pytest.raises(ValueError, match="stats"):
            train_patchwise(bare, _pw_config(max_epochs=1))

    def test_missing_train_class_rejected(self, tmp_path):
        records = [ManifestRecord(f"x{i}.ppm", i % 3, "train") for i in range(6)]
        records += [ManifestRecord(f"v{i}.ppm", i % 4, "val") for i in range(4)]
        manifest = Manifest(records=records, root=tmp_path,
                            stats=NormStats((0.5,) * 3, (0.2,) * 3))
        with pytest.raises(ValueError, match="classes \\[3\\]"):
            train_patchwise(manifest, _pw_config(max_epochs=1))


class TestValidationInfluence:
    """Swapping the val images for unrelated ones must leave the per-epoch
    parameter trajectory bitwise unchanged; only selection may differ."""

    def _altered_val_copy(self, src_root, tmp_path):
        alt = tmp_path / "altval"
        shutil.copytree(src_root, alt)
        manifest = load_manifest(alt / "manifest.json")
        for rec in manifest.split_records("val"):
            img = read_ppm(alt / rec.path)
            write_ppm(alt / rec.path, Tensor(1.0 - img.data))  # invert
        return load_manifest(alt / "manifest.json")

    def test_parameter_trajectory_unchanged(self, tiny_manifest, tiny_manifest_path,
                                            tmp_path):
        altered = self._altered_val_copy(tiny_manifest_path.parent, tmp_path)
        assert altered.stats == tiny_manifest.stats  # stats come from train only

        config = _pw_config(max_epochs=3, patience=3)
        trajectories = []
        for manifest in (tiny_manifest, altered):
            snaps = []
            train_patchwise(
                manifest, config,
                epoch_hook=lambda _e, params: snaps.append(
                    {n: t.data.copy() for n, t in params.items()}))
            trajectories.append(snaps)

        a, b = trajectories
        for ea, eb in zip(a, b):
            for name in ea:
                assert np.array_equal(ea[name], eb[name]), name


class TestTrainImagewise:
    def test_metrics_structure(self, stage2):
        assert stage2.spec.kind == "imagewise"
        assert stage2.spec.n_patches == 2  # 128x96 tiled by 64
        m = np.asarray(stage2.metrics.confusion)
        npt.assert_array_equal(m.sum(axis=1), [2, 2, 2, 2])

    def test_trunk_parameters_frozen(self, tiny_manifest, stage1):
        before = {n: t.data.tobytes() for n, t in stage1.params.items()}
        train_imagewise(tiny_manifest, stage1.spec, stage1.params,
                        _iw_config(max_epochs=2))
        after = {n: t.data.tobytes() for n, t in stage1.params.items()}
        assert before == after

    def test_recorded_accuracy_equals_inference_path(self, stage1, stage2,
                                                     tiny_manifest):
        val_imgs = load_images(tiny_manifest, "val", normalized=True)
        m = evaluate_images(stage1.spec, stage1.params, stage2.spec, stage2.params,
                            val_imgs, window=64)
        acc, _, _ = metrics_from_confusion(m)
        assert acc == stage2.metrics.accuracy
        npt.assert_array_equal(m, np.asarray(stage2.metrics.confusion))

    def test_two_runs_bitwise_identical(self, tiny_manifest, stage1):
        a = train_imagewise(tiny_manifest, stage1.spec, stage1.params,
                            _iw_config(max_epochs=2))
        b = train_imagewise(tiny_manifest, stage1.spec, stage1.params,
                            _iw_config(max_epochs=2))
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data), name

    def test_dropout_rate_changes_trajectory(self, tiny_manifest, stage1):
        on = train_imagewise(tiny_manifest, stage1.spec, stage1.params,
                             _iw_config(max_epochs=2, dropout_rate=0.5))
        off = train_imagewise(tiny_manifest, stage1.spec, stage1.params,
                              _iw_config(max_epochs=2, dropout_rate=0.0))
        # the masks must actually bite: some head weight ends up different
        diffs = [not np.array_equal(on.params[n].data, off.params[n].data)
                 for n in on.params]
        assert any(diffs)

    def test_imagewise_rejects_patchwise_config(self, tiny_manifest, stage1):
        with pytest.raises(ValueError, match="stage"):
            train_imagewise(tiny_manifest, stage1.spec, stage1.params, _pw_config())

    def test_imagewise_rejects_imagewise_trunk(self, tiny_manifest, stage2):
        with pytest.raises(ValueError, match="kind"):
            train_imagewise(tiny_manifest, stage2.spec, stage2.params, _iw_config())

"""PPM codec, manifests, normalization statistics, synthetic textures,
stratified splitting, and the labeled patch stream."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from histopatch.data import (
    CLASS_TEXTURES,
    Manifest,
    ManifestError,
    ManifestRecord,
    NormStats,
    PpmError,
    compute_norm_stats,
    decode_ppm,
    encode_ppm,
    generate_dataset_dir,
    load_images,
    load_manifest,
    max_blob_radius,
    read_ppm,
    save_manifest,
    split_manifest,
    synth_dataset,
    synth_image,
    write_ppm,
)
from histopatch.rng import derive
from histopatch.tensor import Tensor


def solid_image(r, g, b, w=4, h=3):
    data = np.empty((3, h, w), dtype=np.float32)
    data[0], data[1], data[2] = r, g, b
    return Tensor(data)


def random_ppm(path, h, w, seed):
    """Write uniform random 8-bit pixels as a PPM; return them as (H, W, 3)."""
    u8 = np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + u8.tobytes())
    return u8


def traced_peak(fn):
    """Bytes ``fn()`` allocated at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestPpmCodec:
    def test_decode_red_2x2(self):
        raw = b"P6\n2 2\n255\n" + bytes([255, 0, 0] * 4)
        img = decode_ppm(raw)
        assert img.shape == (3, 2, 2)
        npt.assert_array_equal(img.data[0], 1.0)
        npt.assert_array_equal(img.data[1], 0.0)
        npt.assert_array_equal(img.data[2], 0.0)

    def test_decode_value_scaling(self):
        raw = b"P6\n1 1\n255\n" + bytes([51, 102, 204])
        img = decode_ppm(raw)
        npt.assert_allclose(img.data.reshape(3),
                            np.array([51, 102, 204], dtype=np.float32) / 255.0)

    def test_header_comments_and_whitespace(self):
        raw = b"P6 # classic magic\n# a comment line\n 2\t1 # dims\n255\n" \
              + bytes([0, 0, 0, 255, 255, 255])
        img = decode_ppm(raw)
        assert img.shape == (3, 1, 2)

    def test_roundtrip_u8_exact(self):
        rng = np.random.default_rng(0)
        u8 = rng.integers(0, 256, size=(3, 5, 7), dtype=np.uint8)
        img = Tensor(u8.astype(np.float32) / 255.0)
        again = decode_ppm(encode_ppm(img))
        npt.assert_array_equal(again.data, img.data)

    def test_encode_canonical_header(self):
        raw = encode_ppm(solid_image(0, 0, 0, w=7, h=5))
        assert raw.startswith(b"P6\n7 5\n255\n")

    def test_encode_clips_out_of_range(self):
        img = Tensor(np.array([[[2.0]], [[-1.0]], [[0.5]]], dtype=np.float32))
        raw = encode_ppm(img)
        assert raw.endswith(bytes([255, 0, 128]))

    def test_bad_magic(self):
        with pytest.raises(PpmError, match="magic"):
            decode_ppm(b"P5\n2 2\n255\n" + bytes(12))

    def test_unsupported_maxval(self):
        with pytest.raises(PpmError, match="maxval"):
            decode_ppm(b"P6\n2 2\n65535\n" + bytes(24))

    def test_truncated_pixels(self):
        with pytest.raises(PpmError, match="truncated pixel"):
            decode_ppm(b"P6\n2 2\n255\n" + bytes(11))

    def test_trailing_bytes(self):
        with pytest.raises(PpmError, match="trailing"):
            decode_ppm(b"P6\n2 2\n255\n" + bytes(13))

    def test_truncated_header(self):
        with pytest.raises(PpmError):
            decode_ppm(b"P6\n2")

    def test_nonnumeric_dimension(self):
        with pytest.raises(PpmError, match="width"):
            decode_ppm(b"P6\nx 2\n255\n" + bytes(12))

    def test_zero_dimension(self):
        with pytest.raises(PpmError, match="dimensions"):
            decode_ppm(b"P6\n0 2\n255\n")

    def test_file_roundtrip(self, tmp_path):
        img = solid_image(0.2, 0.4, 0.8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        again = read_ppm(path)
        assert again.shape == img.shape

    @pytest.mark.parametrize("h, w", [(5, 7), (96, 128), (200, 264)])
    def test_read_with_stats_is_the_float32_reference_bit_for_bit(self, tmp_path, h, w):
        u8 = random_ppm(tmp_path / "x.ppm", h, w, seed=h)
        stats = NormStats(mean=(0.61, 0.47, 0.7), std=(0.13, 0.21, 0.09))
        scaled = u8.transpose(2, 0, 1).astype(np.float32) / 255.0
        expect = ((scaled - np.asarray(stats.mean, np.float32).reshape(3, 1, 1))
                  / np.asarray(stats.std, np.float32).reshape(3, 1, 1))
        out = read_ppm(tmp_path / "x.ppm", stats).data
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert out.tobytes() == expect.tobytes()
        assert read_ppm(tmp_path / "x.ppm").data.tobytes() == scaled.tobytes()


class TestManifest:
    def _records(self):
        return [
            ManifestRecord("a.ppm", 0, "train"),
            ManifestRecord("b.ppm", 1, "val"),
            ManifestRecord("c.ppm", 3, "train"),
        ]

    def test_save_load_roundtrip_bare(self, tmp_path):
        path = tmp_path / "manifest.json"
        save_manifest(path, Manifest(records=self._records()))
        loaded = load_manifest(path)
        assert loaded.records == self._records()
        assert loaded.stats is None
        assert loaded.root == tmp_path

    def test_save_load_roundtrip_with_stats(self, tmp_path):
        stats = NormStats(mean=(0.5, 0.4, 0.3), std=(0.1, 0.2, 0.3))
        path = tmp_path / "manifest.json"
        save_manifest(path, Manifest(records=self._records(), stats=stats))
        loaded = load_manifest(path)
        assert loaded.stats == stats

    def test_bare_array_file_accepted(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            [{"path": "a.ppm", "label": 2, "split": "train"}]))
        loaded = load_manifest(path)
        assert loaded.records == [ManifestRecord("a.ppm", 2, "train")]

    def test_duplicate_path_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([
            {"path": "a.ppm", "label": 0, "split": "train"},
            {"path": "a.ppm", "label": 1, "split": "val"},
        ]))
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"path": "a.ppm", "label": 4, "split": "train"}]))
        with pytest.raises(ManifestError, match="label"):
            load_manifest(path)

    @pytest.mark.parametrize("record, match", [
        ({"path": "a.ppm", "label": True, "split": "train"}, "label True"),
        ({"path": "a.ppm", "label": False, "split": "train"}, "label False"),
        ({"path": "a.ppm", "label": 1.0, "split": "train"}, "label 1.0"),
        ({"path": 5, "label": 0, "split": "train"}, "path 5 is not a string"),
        ({"path": ["a.ppm"], "label": 0, "split": "train"}, "is not a string"),
        ({"path": None, "label": 0, "split": "train"}, "path None is not a string"),
    ], ids=["label-true", "label-false", "label-float", "path-int", "path-list",
            "path-null"])
    def test_wrong_field_type_rejected(self, tmp_path, record, match):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(ManifestError, match=match):
            load_manifest(path)
        with pytest.raises(ManifestError, match=match):
            save_manifest(tmp_path / "out.json",
                          Manifest(records=[ManifestRecord(**record)]))
        assert not (tmp_path / "out.json").exists()

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"path": "a.ppm", "label": 0, "split": "test"}]))
        with pytest.raises(ManifestError, match="split"):
            load_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(path)

    def test_stats_dict_roundtrip(self):
        stats = NormStats(mean=(0.1, 0.2, 0.3), std=(1.0, 2.0, 3.0))
        assert NormStats.from_dict(stats.to_dict()) == stats

    @pytest.mark.parametrize("stats, match", [
        ({"mean": [0.5, 0.5, 0.5]}, "stats std must be 3 finite numbers, got null"),
        ("x", "stats must be a {mean, std} object"),
        ({"mean": [0.5, 0.5], "std": [1, 1, 1]}, "stats mean must be 3 finite numbers"),
        ({"mean": [0.5, float("nan"), 0.5], "std": [1, 1, 1]}, "stats mean must be 3"),
        ({"mean": [0, 0, 0], "std": [1, float("inf"), 1]}, "stats std must be 3"),
        ({"mean": [0, 0, 0], "std": [1, "1", 1]}, "stats std must be 3"),
        ({"mean": [0, True, 0], "std": [1, 1, 1]}, "stats mean must be 3"),
        ({"mean": [0, 0, 0], "std": [1, 0, 1]}, r"stats std must be above 0, got \[1.0, 0.0"),
        ({"mean": [0, 0, 0], "std": [1, 1, -2]}, "stats std must be above 0"),
    ], ids=["no-std", "string", "short-mean", "nan-mean", "inf-std", "string-std",
            "bool-mean", "zero-std", "negative-std"])
    def test_malformed_stats_rejected(self, tmp_path, stats, match):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"records": [
            {"path": "a.ppm", "label": 0, "split": "train"}], "stats": stats}))
        with pytest.raises(ManifestError, match=match):
            load_manifest(path)


class TestNormStats:
    def _write(self, tmp_path, name, image):
        write_ppm(tmp_path / name, image)

    def test_zero_one_pair(self, tmp_path):
        self._write(tmp_path, "lo.ppm", solid_image(0, 0, 0))
        self._write(tmp_path, "hi.ppm", solid_image(1, 1, 1))
        manifest = Manifest(records=[ManifestRecord("lo.ppm", 0, "train"),
                                     ManifestRecord("hi.ppm", 1, "train")],
                            root=tmp_path)
        stats = compute_norm_stats(manifest)
        npt.assert_allclose(stats.mean, 0.5, atol=1e-12)
        npt.assert_allclose(stats.std, 0.5, atol=1e-12)  # population, not sample

    def test_constant_channel_floored(self, tmp_path):
        self._write(tmp_path, "c.ppm", solid_image(0, 0.2, 1))
        manifest = Manifest(records=[ManifestRecord("c.ppm", 0, "train")],
                            root=tmp_path)
        stats = compute_norm_stats(manifest)
        assert all(s == 1e-6 for s in stats.std)
        npt.assert_allclose(stats.mean, (0.0, 51 / 255, 1.0), atol=1e-9)

    def test_val_split_excluded(self, tmp_path):
        self._write(tmp_path, "t.ppm", solid_image(0.2, 0.2, 0.2))
        self._write(tmp_path, "v.ppm", solid_image(1, 1, 1))
        manifest = Manifest(records=[ManifestRecord("t.ppm", 0, "train"),
                                     ManifestRecord("v.ppm", 0, "val")],
                            root=tmp_path)
        stats = compute_norm_stats(manifest)
        npt.assert_allclose(stats.mean, 51 / 255, atol=1e-9)

    def test_empty_train_split_rejected(self, tmp_path):
        manifest = Manifest(records=[ManifestRecord("v.ppm", 0, "val")],
                            root=tmp_path)
        with pytest.raises(ManifestError, match="train"):
            compute_norm_stats(manifest)

    def test_bit_equal_to_whole_image_float64_sums(self, tmp_path):
        # the per-channel sums keep the order of a float64 sum over (H, W)
        records = []
        total, total_sq, count = np.zeros(3), np.zeros(3), 0
        for i, (h, w) in enumerate([(96, 128), (200, 264)]):
            u8 = random_ppm(tmp_path / f"{i}.ppm", h, w, seed=i)
            pixels = np.ascontiguousarray(u8.transpose(2, 0, 1)).astype(np.float32) / 255.0
            pixels = pixels.astype(np.float64)
            total += pixels.sum(axis=(1, 2))
            total_sq += (pixels * pixels).sum(axis=(1, 2))
            count += h * w
            records.append(ManifestRecord(f"{i}.ppm", 0, "train"))
        mean = total / count
        std = np.maximum(np.sqrt(np.maximum(total_sq / count - mean * mean, 0.0)), 1e-6)
        stats = compute_norm_stats(Manifest(records=records, root=tmp_path))
        assert stats == NormStats(tuple(mean.tolist()), tuple(std.tolist()))

    def test_oracle_against_flat_recompute(self, tiny_manifest):
        stats = compute_norm_stats(tiny_manifest)
        pixels = [img.pixels.data.astype(np.float64)
                  for img in load_images(tiny_manifest, split="train")]
        flat = np.concatenate([p.reshape(3, -1) for p in pixels], axis=1)
        npt.assert_allclose(stats.mean, flat.mean(axis=1), rtol=1e-9)
        npt.assert_allclose(stats.std, flat.std(axis=1), rtol=1e-7)

    def test_normalize_pixels(self, tmp_path):
        # the reader takes 8-bit values, so the image and stats are ones a
        # file can hold that give the same normalized values
        stats = NormStats(mean=(0.5, 0.0, -0.25), std=(0.5, 2.0, 0.25))
        self._write(tmp_path, "img.ppm", solid_image(1.0, 1.0, 0.0))
        out = read_ppm(tmp_path / "img.ppm", stats)
        npt.assert_allclose(out.data[0], 1.0, atol=1e-6)
        npt.assert_allclose(out.data[1], 0.5, atol=1e-6)
        npt.assert_allclose(out.data[2], 1.0, atol=1e-6)


class TestSynth:
    def test_pinned_image_bytes(self):
        u8, n = synth_image(3, 128, 96, derive(7, "synth.c3", 0))
        assert n == 43 and u8.shape == (96, 128, 3)
        assert hashlib.sha256(u8.tobytes()).hexdigest() == (
            "c65aa9fd9e2719964ad79ca8bc1943a88d380b07e57102ade45a00cc4b338425")

    def test_bitwise_deterministic(self):
        a = synth_dataset(2, 96, 64, seed=7)
        b = synth_dataset(2, 96, 64, seed=7)
        assert len(a) == len(b) == 8
        for ia, ib in zip(a, b):
            assert ia.label == ib.label and ia.source_id == ib.source_id
            assert np.array_equal(ia.pixels.data, ib.pixels.data)

    def test_seed_changes_pixels(self):
        a = synth_dataset(1, 96, 64, seed=0)
        b = synth_dataset(1, 96, 64, seed=1)
        assert not np.array_equal(a[0].pixels.data, b[0].pixels.data)

    def test_labels_and_ids(self):
        images = synth_dataset(3, 96, 64, seed=2)
        assert [img.label for img in images] == [0] * 3 + [1] * 3 + [2] * 3 + [3] * 3
        assert images[0].source_id == "c0_000"
        assert images[-1].source_id == "c3_002"

    def test_pixels_in_unit_range(self):
        for img in synth_dataset(1, 96, 64, seed=3):
            assert img.pixels.data.min() >= 0.0
            assert img.pixels.data.max() <= 1.0

    def test_pixels_quantized_to_u8_grid(self):
        # in-memory pixels must equal what a decoded file would hold
        img = synth_dataset(1, 96, 64, seed=4)[0]
        npt.assert_array_equal(img.pixels.data,
                               decode_ppm(encode_ppm(img.pixels)).data)

    def test_blob_counts_track_density(self):
        for c, params in enumerate(CLASS_TEXTURES):
            counts = []
            for i in range(100):
                rng = derive(123, f"count.c{c}", i)
                _, n = synth_image(c, 256, 192, rng)
                counts.append(n)
            mean = np.mean(counts)
            assert abs(mean - params.density) <= 0.1 * params.density, \
                f"class {c}: mean count {mean:.1f} vs density {params.density}"

    def test_blob_counts_scale_with_area(self):
        params = CLASS_TEXTURES[1]
        counts = []
        for i in range(60):
            rng = derive(55, "area", i)
            _, n = synth_image(1, 512, 384, rng)  # 4x the reference area
            counts.append(n)
        assert abs(np.mean(counts) - 4 * params.density) <= 0.15 * 4 * params.density

    def test_density_strictly_increases_with_class(self):
        densities = [p.density for p in CLASS_TEXTURES]
        assert densities == sorted(densities)
        assert len(set(densities)) == 4

    def test_classes_are_distinguishable_in_mean_intensity(self):
        # pale sparse class 0 must be brighter than the dense dark class 3
        imgs = synth_dataset(3, 128, 96, seed=6)
        mean0 = np.mean([i.pixels.data.mean() for i in imgs if i.label == 0])
        mean3 = np.mean([i.pixels.data.mean() for i in imgs if i.label == 3])
        assert mean0 > mean3 + 0.05

    def test_too_small_image_rejected(self):
        bad = int(2 * max_blob_radius(CLASS_TEXTURES[0])) - 1
        with pytest.raises(ValueError, match="radius"):
            synth_image(0, bad, 256, np.random.default_rng(0))

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            synth_image(4, 128, 128, np.random.default_rng(0))


class TestSplitManifest:
    def _pairs(self, per_class):
        return [(f"c{c}_{i}.ppm", c) for c in range(4) for i in range(per_class)]

    def test_40_records_quarter_split(self):
        manifest = split_manifest(self._pairs(10), val_fraction=0.25, seed=0)
        val = manifest.split_records("val")
        train = manifest.split_records("train")
        assert len(val) == 10 and len(train) == 30
        per_class = [sum(1 for r in val if r.label == c) for c in range(4)]
        # per-class target is 2.5; floors plus largest-remainder fill
        assert sorted(per_class) == [2, 2, 3, 3]

    def test_every_class_on_both_sides(self):
        manifest = split_manifest(self._pairs(2), val_fraction=0.1, seed=0)
        for c in range(4):
            labels_val = [r for r in manifest.split_records("val") if r.label == c]
            labels_train = [r for r in manifest.split_records("train") if r.label == c]
            assert len(labels_val) == 1 and len(labels_train) == 1

    def test_deterministic(self):
        a = split_manifest(self._pairs(8), 0.25, seed=3)
        b = split_manifest(self._pairs(8), 0.25, seed=3)
        assert a.records == b.records

    def test_seed_changes_assignment(self):
        a = split_manifest(self._pairs(10), 0.25, seed=0)
        b = split_manifest(self._pairs(10), 0.25, seed=1)
        assert a.records != b.records

    def test_input_order_preserved(self):
        pairs = self._pairs(5)
        manifest = split_manifest(pairs, 0.25, seed=0)
        assert [r.path for r in manifest.records] == [p for p, _ in pairs]

    def test_singleton_class_rejected(self):
        pairs = self._pairs(3) + [("extra.ppm", 0)]
        pairs = [p for p in pairs if not (p[1] == 2 and p[0] != "c2_0.ppm")]
        with pytest.raises(ManifestError, match="class 2"):
            split_manifest(pairs, 0.25, seed=0)

    @pytest.mark.parametrize("vf", [0.0, 1.0, -0.5, 1.5])
    def test_degenerate_fraction_rejected(self, vf):
        with pytest.raises(ManifestError, match="val_fraction"):
            split_manifest(self._pairs(4), vf, seed=0)


class TestGenerateDatasetDir:
    def test_files_match_memory(self, tmp_path):
        out = tmp_path / "data"
        manifest = generate_dataset_dir(out, n_per_class=2, image_w=96,
                                        image_h=64, seed=11)
        assert manifest.root == out
        assert (out / "manifest.json").exists()
        images = synth_dataset(2, 96, 64, seed=11)
        for img in images:
            on_disk = read_ppm(out / f"{img.source_id}.ppm")
            assert np.array_equal(on_disk.data, img.pixels.data), img.source_id

    def test_manifest_loadable_and_split(self, tmp_path):
        manifest = generate_dataset_dir(tmp_path / "d", 3, 96, 64, seed=0,
                                        val_fraction=0.34)
        loaded = load_manifest(tmp_path / "d" / "manifest.json")
        assert loaded.records == manifest.records
        assert len(loaded.split_records("val")) == 4  # one per class

    def test_load_images_normalized(self, tiny_manifest):
        images = load_images(tiny_manifest, split="val", normalized=True)
        assert images
        stats = tiny_manifest.stats
        raw = load_images(tiny_manifest, split="val")
        expect = ((raw[0].pixels.data - np.float32(stats.mean).reshape(3, 1, 1))
                  / np.float32(stats.std).reshape(3, 1, 1))
        npt.assert_array_equal(images[0].pixels.data, expect)


class TestMemory:
    """Traced peaks in units of F, one image's float32 (3, H, W) size."""

    W, H = 1024, 768
    F = 3 * W * H * 4

    def _manifest(self, tmp_path, n):
        for i in range(n):
            random_ppm(tmp_path / f"{i}.ppm", self.H, self.W, seed=i)
        return Manifest([ManifestRecord(f"{i}.ppm", 0, "train") for i in range(n)],
                        root=tmp_path)

    def test_load_normalized_decodes_into_the_buffer_it_keeps(self, tmp_path):
        # the file's bytes (F/4) beside the one float32 buffer it returns
        manifest = replace(self._manifest(tmp_path, 1),
                           stats=NormStats((0.5, 0.5, 0.5), (0.25, 0.25, 0.25)))
        assert traced_peak(lambda: load_images(manifest, normalized=True)) <= 1.5 * self.F

    def test_norm_stats_hold_one_image_and_one_float64_channel(self, tmp_path):
        # two images: the first is gone before the second is read
        manifest = self._manifest(tmp_path, 2)
        assert traced_peak(lambda: compute_norm_stats(manifest)) <= 2.5 * self.F

    def test_synth_image_builds_its_float64_image_in_place(self):
        # one float64 (H, W, 3) image is 2 F
        peak = traced_peak(lambda: synth_image(0, self.W, self.H, derive(0, "synth.c0", 0)))
        assert peak <= 2.5 * self.F

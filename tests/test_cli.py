"""Command-line surface: JSON on stdout, logs on stderr, config precedence,
and the exit-code contract (2 config, 3 I/O, 4 checkpoint format, 5 out of
memory)."""

import json

import numpy as np
import pytest

from histopatch.checkpoint import load_checkpoint, save_checkpoint
from histopatch.cli import SETTINGS
from histopatch.data import load_manifest, read_ppm, synth_dataset

from helpers import IMAGEWISE_BAD, PATCHWISE_BAD, checkpoint_parts, write_hpck


def out_json(proc):
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def retiled_artifacts(tmp_path_factory, run_cli):
    """Both stages at B=C=2 on 80x80 images: the patch network trained on
    40x40 windows, the image network on 32x32 tiles.  Either window cuts an
    image into 2x2 tiles, so only the window says which one a run used."""
    root = tmp_path_factory.mktemp("retiled")
    data, run = root / "data", root / "run"
    run_cli("synth", "--out", data, "--n-per-class", "2", "--image-w", "80",
            "--image-h", "80", "--seed", "3")
    run_cli("stats", "--manifest", data / "manifest.json")
    common = ["--manifest", data / "manifest.json", "--out", run, "--epochs", "1",
              "--batch-size", "8", "--seed", "3"]
    run_cli("train-patch", *common, "--window", "40", "--stride", "40",
            "--base-width", "2", "--feature-depth", "2")
    run_cli("train-image", *common, "--patch-checkpoint", run / "patchwise.ckpt",
            "--window", "32")
    return {"data": data, "manifest": data / "manifest.json",
            "patch_ckpt": run / "patchwise.ckpt", "image_ckpt": run / "imagewise.ckpt"}


class TestGeometryCommand:
    def test_full_scale_overlap(self, run_cli):
        proc = run_cli("geometry", "--image-w", "2048", "--image-h", "1536",
                       "--window", "512", "--stride", "256")
        doc = out_json(proc)
        assert doc["command"] == "geometry"
        assert (doc["n_x"], doc["n_y"], doc["total"]) == (7, 5, 35)
        assert doc["coverage_exact"] is True
        assert doc["coords"]["first"] == [0, 0]
        assert doc["coords"]["last"] == [1536, 1024]

    def test_full_scale_tile(self, run_cli):
        doc = out_json(run_cli("geometry", "--image-w", "2048", "--image-h", "1536",
                               "--window", "512", "--stride", "512"))
        assert doc["total"] == 12

    def test_config_echoed(self, run_cli):
        doc = out_json(run_cli("geometry", "--window", "512", "--stride", "256"))
        assert doc["config"]["window"] == 512
        assert doc["config"]["stride"] == 256
        assert doc["config"]["image_w"] == 2048  # default

    def test_window_exceeding_image_exits_2(self, run_cli):
        proc = run_cli("geometry", "--image-w", "100", "--image-h", "100",
                       "--window", "512", expect=2)
        assert proc.stdout == ""  # errors never pollute stdout
        assert "window" in proc.stderr


class TestRfCommand:
    def test_pinned_receptive_fields(self, run_cli):
        doc = out_json(run_cli("rf"))
        assert doc["patchwise"]["r"] == 132
        assert doc["patchwise"]["jump"] == 8
        assert doc["combined"]["r"] == 252
        assert doc["combined"]["jump"] == 32
        assert doc["max_stride_for_coverage"] == 252

    def test_per_layer_table(self, run_cli):
        doc = out_json(run_cli("rf", "--window", "512"))
        table = doc["patchwise"]["layers"]
        assert len(table) == 16
        assert table[0]["r"] == 3 and table[0]["jump"] == 1
        assert table[-1]["out_size"] == 64
        # rf grows monotonically through the stack
        rs = [row["r"] for row in table]
        assert rs == sorted(rs)


class TestSynthCommand:
    def test_writes_dataset(self, run_cli, tmp_path):
        out = tmp_path / "ds"
        doc = out_json(run_cli("synth", "--out", out, "--n-per-class", "2",
                               "--image-w", "96", "--image-h", "64", "--seed", "3"))
        assert doc["files"] == 8
        assert doc["per_class"] == {"0": 2, "1": 2, "2": 2, "3": 2}
        assert doc["splits"]["train"] + doc["splits"]["val"] == 8
        manifest = load_manifest(out / "manifest.json")
        assert len(manifest.records) == 8

    def test_deterministic_across_runs(self, run_cli, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("synth", "--out", out, "--n-per-class", "2",
                    "--image-w", "96", "--image-h", "64", "--seed", "7")
        for ppm in sorted(p.name for p in a.glob("*.ppm")):
            assert (a / ppm).read_bytes() == (b / ppm).read_bytes(), ppm
        assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()

    def test_files_match_library_output(self, run_cli, tmp_path):
        out = tmp_path / "ds"
        run_cli("synth", "--out", out, "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", "--seed", "5")
        for img in synth_dataset(2, 96, 64, seed=5):
            on_disk = read_ppm(out / f"{img.source_id}.ppm")
            assert np.array_equal(on_disk.data, img.pixels.data)

    def test_missing_out_exits_2_with_usage(self, run_cli):
        proc = run_cli("synth", expect=2)
        assert "--out" in proc.stderr

    def test_refused_split_writes_nothing(self, run_cli, tmp_path):
        out = tmp_path / "ds"
        proc = run_cli("synth", "--out", out, "--n-per-class", "1",
                       "--image-w", "96", "--image-h", "64", "--seed", "1", expect=2)
        assert proc.stderr.splitlines() == ["error: class 0 has 1 image(s), need at least 2"]
        assert not out.exists()

    @pytest.mark.parametrize("sizes", [("--n-per-class", "0"),
                                       ("--n-per-class", "2", "--val-fraction", "0")],
                             ids=["no images", "no val split"])
    def test_refused_sizes_make_no_directory(self, run_cli, tmp_path, sizes):
        out = tmp_path / "ds"
        proc = run_cli("synth", "--out", out, *sizes, "--image-w", "96", "--image-h", "64",
                       expect=2)
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    def test_unwritable_out_exits_3(self, run_cli, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        run_cli("synth", "--out", blocker / "nested", "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", expect=3)


class TestStatsCommand:
    def test_rewrites_manifest_with_stats(self, run_cli, tmp_path):
        out = tmp_path / "ds"
        run_cli("synth", "--out", out, "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", "--seed", "1")
        assert load_manifest(out / "manifest.json").stats is None
        doc = out_json(run_cli("stats", "--manifest", out / "manifest.json"))
        assert len(doc["mean"]) == 3 and len(doc["std"]) == 3
        reloaded = load_manifest(out / "manifest.json")
        assert reloaded.stats is not None
        assert list(reloaded.stats.mean) == doc["mean"]

    @pytest.mark.parametrize("field, value, message", [
        ("label", True, "error: label True for 'c0_001.ppm' not in 0..3"),
        ("path", 5, "error: path 5 is not a string"),
    ])
    def test_wrong_field_type_exits_2(self, run_cli, tmp_path, field, value, message):
        out = tmp_path / "ds"
        run_cli("synth", "--out", out, "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", "--seed", "1")
        doc = json.loads((out / "manifest.json").read_text())
        records = doc["records"] if isinstance(doc, dict) else doc
        target = next(r for r in records if r["path"] == "c0_001.ppm")
        target[field] = value
        text = json.dumps(doc)
        (out / "manifest.json").write_text(text)
        proc = run_cli("stats", "--manifest", out / "manifest.json", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [message]
        assert (out / "manifest.json").read_text() == text

    @pytest.mark.parametrize("stats, message", [
        ({"mean": [0.5, 0.5, 0.5]}, "error: stats std must be 3 finite numbers, got null"),
        ("x", 'error: stats must be a {mean, std} object, got "x"'),
    ], ids=["no-std", "string"])
    def test_malformed_stats_exit_2(self, run_cli, tmp_path, stats, message):
        out = tmp_path / "ds"
        run_cli("synth", "--out", out, "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", "--seed", "1")
        doc = json.loads((out / "manifest.json").read_text())
        records = doc["records"] if isinstance(doc, dict) else doc
        text = json.dumps({"records": records, "stats": stats})
        (out / "manifest.json").write_text(text)
        proc = run_cli("stats", "--manifest", out / "manifest.json", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [message]
        assert (out / "manifest.json").read_text() == text

    def test_missing_manifest_file_exits_3(self, run_cli, tmp_path):
        run_cli("stats", "--manifest", tmp_path / "nope.json", expect=3)


class TestTrainCommands:
    def test_artifacts_exist(self, tiny_cli_artifacts):
        for key in ("patch_ckpt", "image_ckpt", "patch_metrics", "image_metrics"):
            assert tiny_cli_artifacts[key].exists(), key

    def test_patch_metrics_shape(self, tiny_cli_artifacts):
        doc = json.loads(tiny_cli_artifacts["patch_metrics"].read_text())
        assert doc["format_version"] == 1
        assert 1 <= len(doc["epochs"]) <= 4
        for rec in doc["epochs"]:
            assert set(rec) == {"epoch", "train_loss", "val_acc"}
        assert len(doc["confusion"]) == 4
        assert set(doc["per_class"]) == {"precision", "recall"}
        assert doc["config"]["seed"] == 9

    def test_image_metrics_shape(self, tiny_cli_artifacts):
        doc = json.loads(tiny_cli_artifacts["image_metrics"].read_text())
        assert np.asarray(doc["confusion"]).shape == (4, 4)
        assert 0.0 <= doc["accuracy"] <= 1.0

    def test_stage_two_commands_echo_the_tiling_used(self, run_cli, tiny_cli_artifacts):
        # without --window, train-image tiles at the patch checkpoint's
        # window 64 without overlap, infer and eval at the image
        # checkpoint's (64 too), and their config says so
        a = tiny_cli_artifacts
        ckpts = ["--patch-checkpoint", a["patch_ckpt"], "--image-checkpoint", a["image_ckpt"]]
        docs = {
            "train-image": json.loads(a["train_image_stdout"]),
            "imagewise_metrics.json": json.loads(a["image_metrics"].read_text()),
            "infer": out_json(run_cli("infer", *ckpts, "--image", a["data"] / "c0_000.ppm")),
            "eval": out_json(run_cli("eval", *ckpts, "--manifest", a["manifest"])),
        }
        for name, doc in docs.items():
            assert (doc["config"]["window"], doc["config"]["stride"]) == (64, 64), name
            # the sizes of the networks that ran: B=C=4 from the patch
            # checkpoint, the image-wise ones trained at the defaults
            assert (doc["config"]["base_width"], doc["config"]["feature_depth"]) == (4, 4), name
            assert (doc["config"]["head_depth"], doc["config"]["dropout"]) == (64, 0.5), name

    def test_sizes_the_checkpoints_agree_with_are_accepted(self, run_cli, tiny_cli_artifacts):
        a = tiny_cli_artifacts
        ckpts = ["--patch-checkpoint", a["patch_ckpt"], "--image-checkpoint", a["image_ckpt"]]
        for command, more in (("infer", ["--image", a["data"] / "c0_000.ppm"]),
                              ("eval", ["--manifest", a["manifest"]])):
            doc = out_json(run_cli(command, *ckpts, *more, "--base-width", "4",
                                   "--head-depth", "64", "--dropout", "0.5",
                                   "--stride", "64"))
            assert doc["config"]["head_depth"] == 64 and doc["config"]["dropout"] == 0.5
            assert doc["config"]["stride"] == 64

    @pytest.mark.parametrize("command, flag, message", [
        ("infer", "--base-width", "base_width 9 contradicts checkpoint {patch_ckpt}, "
                                  "which holds 4"),
        ("eval", "--feature-depth", "feature_depth 9 contradicts checkpoint {patch_ckpt}, "
                                    "which holds 4"),
        ("infer", "--head-depth", "head_depth 9 contradicts checkpoint {image_ckpt}, "
                                  "which holds 64"),
        ("train-image", "--feature-depth", "feature_depth 9 contradicts checkpoint "
                                           "{patch_ckpt}, which holds 4"),
    ], ids=["infer-base-width", "eval-feature-depth", "infer-head-depth",
            "train-image-feature-depth"])
    def test_contradicted_size_exits_2(self, run_cli, tiny_cli_artifacts, tmp_path,
                                       command, flag, message):
        a = tiny_cli_artifacts
        more = {"infer": ["--image-checkpoint", a["image_ckpt"],
                          "--image", a["data"] / "c0_000.ppm"],
                "eval": ["--image-checkpoint", a["image_ckpt"], "--manifest", a["manifest"]],
                "train-image": ["--manifest", a["manifest"], "--out", tmp_path / "run"]}
        proc = run_cli(command, "--patch-checkpoint", a["patch_ckpt"], *more[command],
                       flag, "9", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: " + message.format(**a)]
        assert not (tmp_path / "run").exists()

    def test_contradicted_dropout_in_config_exits_2(self, run_cli, tiny_cli_artifacts,
                                                    tmp_path):
        a = tiny_cli_artifacts
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout": 0.25}))
        proc = run_cli("infer", "--config", cfg, "--patch-checkpoint", a["patch_ckpt"],
                       "--image-checkpoint", a["image_ckpt"],
                       "--image", a["data"] / "c0_000.ppm", expect=2)
        assert proc.stderr.splitlines() == [
            f"error: dropout 0.25 contradicts checkpoint {a['image_ckpt']}, which holds 0.5"]

    @pytest.mark.parametrize("command", ["train-image", "infer", "eval"])
    def test_stride_other_than_window_exits_2(self, run_cli, tiny_cli_artifacts, tmp_path,
                                              command):
        # stage two tiles at the window; it refuses a stride it would ignore
        a = tiny_cli_artifacts
        more = {"train-image": ["--manifest", a["manifest"], "--out", tmp_path / "run"],
                "infer": ["--image-checkpoint", a["image_ckpt"],
                          "--image", a["data"] / "c0_000.ppm"],
                "eval": ["--image-checkpoint", a["image_ckpt"], "--manifest", a["manifest"]]}
        proc = run_cli(command, "--patch-checkpoint", a["patch_ckpt"], *more[command],
                       "--stride", "16", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: stride 16 differs from window 64: stage two tiles without overlap"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag, message", [
        ("--stride", "stride must be >= 1, got 0"),
        ("--base-width", "base_width and feature_depth must be >= 1"),
        ("--feature-depth", "base_width and feature_depth must be >= 1"),
        ("--head-depth", "n_patches, feature_depth and head_depth must be >= 1"),
    ], ids=["stride", "base-width", "feature-depth", "head-depth"])
    def test_bad_size_exits_2_before_any_image_is_read(self, run_cli, tmp_path, flag,
                                                       message):
        # one image of the manifest is gone, so reading the images would exit 3
        data, out = tmp_path / "ds", tmp_path / "run"
        run_cli("synth", "--out", data, "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", "--seed", "1")
        run_cli("stats", "--manifest", data / "manifest.json")
        (data / "c0_000.ppm").unlink()
        proc = run_cli("train-patch", "--manifest", data / "manifest.json", "--out", out,
                       "--window", "32", flag, "0", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: " + message]
        assert not out.exists()

    def test_train_image_requires_patch_checkpoint(self, run_cli,
                                                   tiny_cli_artifacts, tmp_path):
        proc = run_cli("train-image", "--manifest", tiny_cli_artifacts["manifest"],
                       "--out", tmp_path, expect=2)
        assert "--patch-checkpoint" in proc.stderr

    def test_train_image_rejects_imagewise_checkpoint(self, run_cli,
                                                      tiny_cli_artifacts, tmp_path):
        run_cli("train-image", "--manifest", tiny_cli_artifacts["manifest"],
                "--patch-checkpoint", tiny_cli_artifacts["image_ckpt"],
                "--out", tmp_path, expect=4)

    def test_divergent_training_exits_2_without_artifacts(self, run_cli, tmp_path):
        data, out = tmp_path / "ds", tmp_path / "run"
        run_cli("synth", "--out", data, "--n-per-class", "6",
                "--image-w", "128", "--image-h", "96", "--seed", "1")
        run_cli("stats", "--manifest", data / "manifest.json")
        proc = run_cli("train-patch", "--manifest", data / "manifest.json", "--out", out,
                       "--lr", "1e6", "--window", "32", "--stride", "16",
                       "--base-width", "2", "--feature-depth", "2", "--epochs", "2",
                       "--batch-size", "16", expect=2)
        assert proc.stdout == ""
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("stage 1")]
        assert len(errors) == 1 and errors[0].startswith("error: training diverged at epoch")
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning rate must be positive and finite, got nan"),
        ("--lr", "inf", "learning rate must be positive and finite, got inf"),
        ("--momentum", "1.5", "momentum must be in [0, 1), got 1.5"),
    ], ids=["lr-nan", "lr-inf", "momentum-1.5"])
    def test_bad_optimizer_setting_exits_2_before_training(self, run_cli, tiny_cli_artifacts,
                                                           tmp_path, flag, value, message):
        out = tmp_path / "run"
        proc = run_cli("train-patch", "--manifest", tiny_cli_artifacts["manifest"],
                       "--out", out, "--window", "64", "--stride", "32",
                       "--base-width", "2", "--feature-depth", "2", "--epochs", "2",
                       "--batch-size", "16", flag, value, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: " + message]  # no "stage 1:" log
        assert not out.exists()

    # the commands that check the window, with the other inputs each needs
    WINDOW_COMMANDS = [
        ("train-patch", {"--out": "run"}),
        ("train-image", {"--out": "run", "--patch-checkpoint": "patch_ckpt"}),
        ("infer", {"--patch-checkpoint": "patch_ckpt", "--image-checkpoint": "image_ckpt",
                   "--image": "missing.ppm"}),
        ("eval", {"--patch-checkpoint": "patch_ckpt", "--image-checkpoint": "image_ckpt"}),
    ]

    @staticmethod
    def _run_with_window(run_cli, artifacts, tmp_path, command, needs, window):
        args = []
        for flag, name in needs.items():
            args += [flag, artifacts.get(name, tmp_path / name)]
        return run_cli(command, "--manifest", artifacts["manifest"],
                       "--window", window, "--stride", "16", *args, expect=2)

    @pytest.mark.parametrize("command, needs", WINDOW_COMMANDS)
    def test_window_too_small_for_stacks_exits_2(self, run_cli, tiny_cli_artifacts,
                                                 tmp_path, command, needs):
        # window 16 passes the patch-wise stack but leaves the image-wise one
        # a 2x2 map, which its second stride-2 conv collapses; the check runs
        # before any image is read (a missing image would otherwise exit 3)
        proc = self._run_with_window(run_cli, tiny_cli_artifacts, tmp_path,
                                     command, needs, "16")
        assert proc.stderr.splitlines() == [
            "error: window 16 is too small for the image-wise stack: layer 5 "
            "(2x2 s2 p0) collapses the map to size 0"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, needs", WINDOW_COMMANDS)
    def test_window_not_multiple_of_8_exits_2(self, run_cli, tiny_cli_artifacts,
                                              tmp_path, command, needs):
        # window 36 carries both stacks but not the patch-wise stack's three
        # stride-2 stages; it is refused before any image is read or cropped
        proc = self._run_with_window(run_cli, tiny_cli_artifacts, tmp_path,
                                     command, needs, "36")
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: window 36 must be a multiple of 8 (three stride-2 stages)"]
        assert not (tmp_path / "run").exists()

    def test_smallest_window_both_stacks_carry_is_32(self):
        from histopatch.geometry import GeometryError
        from histopatch.model import check_window

        for window in (8, 16, 24, 31):
            with pytest.raises(GeometryError, match=f"window {window} is too small"):
                check_window(window)
        check_window(32)

    @pytest.mark.parametrize("command", ["train-patch", "train-image"])
    def test_unusable_out_exits_3_before_training(self, run_cli, tiny_cli_artifacts, tmp_path,
                                                  command):
        # --out below a regular file cannot be made; that is found before
        # the first epoch (train-patch) or the feature caching (train-image)
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        if command == "train-patch":
            extra = ["--window", "64", "--stride", "32", "--base-width", "2",
                     "--feature-depth", "2", "--batch-size", "16"]
        else:
            extra = ["--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"], "--batch-size", "8"]
        proc = run_cli(command, "--manifest", tiny_cli_artifacts["manifest"],
                       "--out", blocker / "sub", "--epochs", "2", *extra, expect=3)
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not any(line.startswith(("epoch 0", "stage 2: caching")) for line in lines)
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.66 GiB for an array with shape (32, 16, 512, 512)",
         "error: Unable to allocate 7.66 GiB for an array with shape (32, 16, 512, 512)"),
        ("", "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_memory_error_exits_5_with_one_line(self, tiny_cli_artifacts, tmp_path,
                                                 monkeypatch, capsys, message, line):
        from histopatch import cli, trainer

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(trainer, "train_patchwise", exhausted)
        code = cli.main(["train-patch", "--manifest", str(tiny_cli_artifacts["manifest"]),
                         "--out", str(tmp_path / "run"), "--window", "64", "--stride", "32"])
        out, err = capsys.readouterr()
        assert code == 5
        assert out == ""
        assert err.splitlines() == [line]

    def test_train_patch_without_stats_exits_2(self, run_cli, tmp_path):
        out = tmp_path / "ds"
        run_cli("synth", "--out", out, "--n-per-class", "2",
                "--image-w", "96", "--image-h", "64", "--seed", "2")
        proc = run_cli("train-patch", "--manifest", out / "manifest.json",
                       "--out", tmp_path / "run", "--epochs", "1", expect=2)
        assert "stats" in proc.stderr


class TestInferCommand:
    def test_probabilities_and_class(self, run_cli, tiny_cli_artifacts):
        image = tiny_cli_artifacts["data"] / "c0_000.ppm"
        doc = out_json(run_cli(
            "infer", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
            "--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
            "--image", image))
        assert doc["class"] in (0, 1, 2, 3)
        assert doc["class_name"] in ("normal tissue", "benign tissue",
                                     "in situ carcinoma", "invasive carcinoma")
        probs = doc["probabilities"]
        assert len(probs) == 4
        assert abs(sum(probs) - 1.0) < 1e-5
        assert doc["class"] == int(np.argmax(probs))

    def test_deterministic(self, run_cli, tiny_cli_artifacts):
        image = tiny_cli_artifacts["data"] / "c2_001.ppm"
        args = ("infer", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
                "--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
                "--image", image)
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_swapped_checkpoints_exit_4(self, run_cli, tiny_cli_artifacts):
        image = tiny_cli_artifacts["data"] / "c0_000.ppm"
        run_cli("infer", "--patch-checkpoint", tiny_cli_artifacts["image_ckpt"],
                "--image-checkpoint", tiny_cli_artifacts["patch_ckpt"],
                "--image", image, expect=4)

    def test_corrupt_checkpoint_exits_4(self, run_cli, tiny_cli_artifacts, tmp_path):
        raw = bytearray(tiny_cli_artifacts["patch_ckpt"].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        image = tiny_cli_artifacts["data"] / "c0_000.ppm"
        run_cli("infer", "--patch-checkpoint", bad,
                "--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
                "--image", image, expect=4)

    @pytest.mark.parametrize("command", ["infer", "eval", "train-image"])
    def test_checkpoint_without_norm_stats_exits_4(self, run_cli, tiny_cli_artifacts,
                                                   tmp_path, command):
        spec, params, _ = load_checkpoint(tiny_cli_artifacts["patch_ckpt"])
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, spec, params, {"seed": 0, "window": 64})
        target = {"infer": ("--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
                            "--image", tiny_cli_artifacts["data"] / "c0_000.ppm"),
                  "eval": ("--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
                           "--manifest", tiny_cli_artifacts["manifest"]),
                  "train-image": ("--manifest", tiny_cli_artifacts["manifest"],
                                  "--out", tmp_path / "run")}[command]
        proc = run_cli(command, "--patch-checkpoint", bare, *target, expect=4)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: patch-wise checkpoint {bare} holds no usable norm_mean/norm_std: "
            "stats mean must be 3 finite numbers, got null"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("window", ["32x", 40.5, True])
    def test_malformed_meta_window_exits_4(self, run_cli, tiny_cli_artifacts, tmp_path,
                                           window):
        # each command reads the window of the checkpoint it tiles for:
        # train-image the patch one, infer the image one
        for command, stage, kind in (("train-image", "patch", "patch-wise"),
                                     ("infer", "image", "image-wise")):
            a = dict(tiny_cli_artifacts)
            spec, params, meta = load_checkpoint(a[f"{stage}_ckpt"])
            a[f"{stage}_ckpt"] = bad = tmp_path / f"bad_{stage}.ckpt"
            save_checkpoint(bad, spec, params, {**meta, "window": window})
            more = {"train-image": ["--manifest", a["manifest"], "--out", tmp_path / "run"],
                    "infer": ["--image-checkpoint", a["image_ckpt"],
                              "--image", a["data"] / "c0_000.ppm"]}[command]
            proc = run_cli(command, "--patch-checkpoint", a["patch_ckpt"], *more, expect=4)
            assert proc.stdout == ""
            assert proc.stderr.splitlines() == [
                f"error: {kind} checkpoint {bad} holds window {window!r}, not an integer"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_runs_at_the_image_checkpoints_window(self, run_cli, retiled_artifacts, command):
        a = retiled_artifacts
        more = {"infer": ["--image", a["data"] / "c0_000.ppm"],
                "eval": ["--manifest", a["manifest"]]}[command]
        doc = out_json(run_cli(command, "--patch-checkpoint", a["patch_ckpt"],
                               "--image-checkpoint", a["image_ckpt"], *more))
        assert (doc["config"]["window"], doc["config"]["stride"]) == (32, 32)

    def test_window_other_than_the_image_checkpoints_exits_2(self, run_cli,
                                                              retiled_artifacts):
        # 40 is the patch checkpoint's window and a valid one
        a = retiled_artifacts
        proc = run_cli("infer", "--patch-checkpoint", a["patch_ckpt"],
                       "--image-checkpoint", a["image_ckpt"],
                       "--image", a["data"] / "c0_000.ppm", "--window", "40", expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: window 40 contradicts checkpoint {a['image_ckpt']}, which holds 32"]

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_feature_depths_that_differ_exit_2_before_any_image_is_read(
            self, run_cli, tiny_cli_artifacts, retiled_artifacts, tmp_path, command):
        # a C=4 patch network beside an image network built for C=2 features
        patch, image = tiny_cli_artifacts["patch_ckpt"], retiled_artifacts["image_ckpt"]
        more = {"infer": ["--image", tmp_path / "missing.ppm"],
                "eval": ["--manifest", tiny_cli_artifacts["manifest"]]}[command]
        proc = run_cli(command, "--patch-checkpoint", patch, "--image-checkpoint", image,
                       *more, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: image-wise checkpoint {image} was built for feature_depth 2, "
            f"but patch-wise checkpoint {patch} holds 4"]

    def test_version_1_checkpoint_exits_4(self, run_cli, tiny_cli_artifacts, tmp_path):
        spec, params, meta = load_checkpoint(tiny_cli_artifacts["image_ckpt"])
        old = tmp_path / "old.ckpt"
        write_hpck(old, 1, *checkpoint_parts(spec, params, meta), version=1)
        proc = run_cli("infer", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
                       "--image-checkpoint", old,
                       "--image", tiny_cli_artifacts["data"] / "c0_000.ppm", expect=4)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: checkpoint {old}: unsupported version 1 (this build reads 2)"]

    def test_bad_image_checkpoint_named(self, run_cli, tiny_cli_artifacts, tmp_path):
        # with two checkpoint arguments, the error names the one at fault
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(tiny_cli_artifacts["image_ckpt"].read_bytes()[:-1])
        proc = run_cli("infer", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
                       "--image-checkpoint", bad,
                       "--image", tiny_cli_artifacts["data"] / "c0_000.ppm", expect=4)
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: checkpoint {bad}: checksum mismatch")
        assert str(tiny_cli_artifacts["patch_ckpt"]) not in line

    @pytest.mark.parametrize("case", ["5x5 kernel under a 3x3 spec", "duplicate name",
                                      "meta is not an object", "name is not UTF-8",
                                      "M7 block removed", "dropout_rate is a string"])
    def test_malformed_checkpoint_exits_4(self, run_cli, tiny_cli_artifacts, tmp_path,
                                          case):
        stage = "image" if case in IMAGEWISE_BAD else "patch"
        spec, params, meta = load_checkpoint(tiny_cli_artifacts[f"{stage}_ckpt"])
        craft = IMAGEWISE_BAD.get(case) or PATCHWISE_BAD[case]
        bad = tmp_path / "bad.ckpt"
        write_hpck(bad, int(stage == "image"), *craft(*checkpoint_parts(spec, params, meta)))
        pair = {"patch_ckpt": tiny_cli_artifacts["patch_ckpt"],
                "image_ckpt": tiny_cli_artifacts["image_ckpt"], f"{stage}_ckpt": bad}
        proc = run_cli("infer", "--patch-checkpoint", pair["patch_ckpt"],
                       "--image-checkpoint", pair["image_ckpt"],
                       "--image", tiny_cli_artifacts["data"] / "c0_000.ppm",
                       "--window", "64", expect=4)
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")

    def test_garbage_image_exits_3(self, run_cli, tiny_cli_artifacts, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n2 2\n255\n" + bytes(5))
        run_cli("infer", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
                "--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
                "--image", bad, expect=3)


class TestEvalCommand:
    def test_matches_recorded_validation_accuracy(self, run_cli, tiny_cli_artifacts):
        doc = out_json(run_cli(
            "eval", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
            "--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
            "--manifest", tiny_cli_artifacts["manifest"], "--split", "val"))
        recorded = json.loads(tiny_cli_artifacts["image_metrics"].read_text())
        assert doc["accuracy"] == recorded["accuracy"]
        assert doc["confusion"] == recorded["confusion"]
        rows = np.asarray(doc["confusion"]).sum(axis=1)
        assert rows.sum() == doc["n_images"]

    def test_train_split_also_works(self, run_cli, tiny_cli_artifacts):
        doc = out_json(run_cli(
            "eval", "--patch-checkpoint", tiny_cli_artifacts["patch_ckpt"],
            "--image-checkpoint", tiny_cli_artifacts["image_ckpt"],
            "--manifest", tiny_cli_artifacts["manifest"], "--split", "train"))
        # 24 images total; stratified quarter split keeps 6 for validation
        assert doc["n_images"] == 18


class TestConfigHandling:
    def test_config_file_applies(self, run_cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 512, "stride": 512,
                                   "image_w": 2048, "image_h": 1536}))
        doc = out_json(run_cli("geometry", "--config", cfg))
        assert doc["total"] == 12

    def test_flag_overrides_config_file(self, run_cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 512, "stride": 512,
                                   "image_w": 2048, "image_h": 1536}))
        doc = out_json(run_cli("geometry", "--config", cfg, "--stride", "256"))
        assert doc["total"] == 35
        assert doc["config"]["stride"] == 256

    def test_unknown_config_key_exits_2(self, run_cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"windwo": 512}))
        proc = run_cli("geometry", "--config", cfg, expect=2)
        assert "windwo" in proc.stderr

    def test_missing_config_file_exits_3(self, run_cli, tmp_path):
        run_cli("geometry", "--config", tmp_path / "none.json", expect=3)

    def test_bad_flag_value_exits_2(self, run_cli):
        run_cli("geometry", "--window", "many", expect=2)

    def test_unknown_subcommand_exits_2(self, run_cli):
        run_cli("transmogrify", expect=2)

    def test_stdout_is_pure_json(self, run_cli, tiny_cli_artifacts, tmp_path):
        # training logs go to stderr; stdout must parse as a single document
        proc = run_cli("train-patch", "--manifest", tiny_cli_artifacts["manifest"],
                       "--out", tmp_path / "run", "--window", "64", "--stride", "32",
                       "--base-width", "2", "--feature-depth", "2",
                       "--epochs", "1", "--batch-size", "16", "--seed", "0")
        doc = json.loads(proc.stdout)
        assert doc["command"] == "train-patch"
        assert "epoch 0" in proc.stderr

    @pytest.mark.parametrize("key, value, what", [
        ("threads", None, "an integer"), ("window", 63.9, "an integer"),
        ("seed", True, "an integer"), ("seed", [1], "an integer"),
        ("lr", None, "a number"), ("momentum", "0.9", "a number"),
        ("dropout", False, "a number"),
        ("manifest", 5, "a string"), ("out", [], "a string"),
        ("patch_checkpoint", 1.5, "a string"), ("image_checkpoint", {}, "a string"),
        ("image", False, "a string"),
    ])
    def test_wrong_config_type_exits_2(self, run_cli, tmp_path, key, value, what):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        proc = run_cli("geometry", "--config", cfg, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"error: {key} must be {what}, got {json.dumps(value)}"]

    def test_numeric_config_types_accepted(self, run_cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1, "dropout": 0.25, "epochs": None, "seed": 3}))
        doc = out_json(run_cli("geometry", "--config", cfg))
        assert doc["config"]["lr"] == 1.0 and isinstance(doc["config"]["lr"], float)
        assert doc["config"]["epochs"] is None and doc["config"]["seed"] == 3

    def test_threads_flag_validated(self, run_cli):
        run_cli("geometry", "--threads", "0", expect=2)

    def test_config_split_choices_checked(self, run_cli, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": "test"}))
        proc = run_cli("geometry", "--config", cfg, expect=2)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            'error: split must be one of "train", "val", got "test"']

    # a value of each setting's type that differs from every default and
    # keeps the geometry run below valid (two BLAS threads at most)
    OTHER_VALUES = {int: 48, float: 0.125, str: "some/path"}

    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_flag_and_config_file_echo_the_same(self, run_cli, tmp_path, key):
        default, kind = SETTINGS[key]
        value = 2 if key == "threads" else (
            kind[0] if isinstance(kind, tuple) else self.OTHER_VALUES[kind])
        assert value != default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        grid = {"image_w": 96, "image_h": 64, "window": 32, "stride": 32}
        base = [a for k, v in grid.items() if k != key
                for a in ("--" + k.replace("_", "-"), v)]
        by_file = out_json(run_cli("geometry", "--config", cfg, *base))["config"]
        by_flag = out_json(run_cli("geometry", "--" + key.replace("_", "-"), value,
                                   *base))["config"]
        assert by_file[key] == by_flag[key] == value
        assert by_file == by_flag

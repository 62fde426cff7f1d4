"""Acceptance gate: ten numbered criteria covering geometry pins, gradient
checks, the convolution oracle, desk-scale two-stage training, initial-loss
symmetry, determinism, checkpoint integrity, and the early-stop contract.

Each criterion prints one PASS/FAIL line; run with ``pytest -s`` to watch
them live.  The desk-scale training criterion (6) takes about 10-11 minutes
single-threaded on a 2-core box, against its 30-minute budget.

Criteria 6 and 8 start the CLI as a subprocess inside a temp directory.
The child is given the package this test session imported (its directory
goes first on ``PYTHONPATH``), so the suite needs no install:
``PYTHONPATH=src python -m pytest`` from the repo root works as well.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

import histopatch
from histopatch.checkpoint import (
    CheckpointFormatError,
    CheckpointKindError,
    load_checkpoint,
    save_checkpoint,
)
from histopatch.geometry import (
    PatchGrid,
    RFState,
    output_size,
    receptive_field,
)
from histopatch.gradcheck import grad_check
from histopatch.model import (
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    extract_features,
    init_params,
    network_forward,
)
from histopatch.ops import concat_channels, conv2d, cross_entropy
from histopatch.rng import derive
from histopatch.tensor import Tensor
from histopatch.trainer import early_stop

from helpers import (
    gradcheck_cases,
    gradient_support,
    naive_conv2d,
    random_conv_case,
    random_small_stack,
)


class _report:
    """Prints `criterion N: PASS/FAIL - desc` when the block exits."""

    def __init__(self, n: int, desc: str):
        self.n, self.desc = n, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.n:2d}: {status} - {self.desc}", flush=True)
        return False


def _cli(cwd: Path, *args: str) -> dict:
    # The child inherits this environment (BLAS pins included) with the
    # directory of the imported package first on PYTHONPATH: a relative
    # entry such as ``src`` would not resolve from ``cwd``.
    env = dict(os.environ)
    pkg_root = str(Path(histopatch.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "histopatch", *[str(a) for a in args]],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    assert proc.returncode == 0, (
        f"histopatch {' '.join(str(a) for a in args)} exited {proc.returncode} "
        f"(cwd={cwd}, PYTHONPATH={env['PYTHONPATH']})\n"
        f"stderr:\n{proc.stderr}"
    )
    return json.loads(proc.stdout)


def test_criterion_01_patch_grid_counts():
    with _report(1, "patch grid counts: 35 overlapping / 12 tiled, both scales"):
        for image_w, image_h, window, stride, counts, total in (
                (2048, 1536, 512, 256, (7, 5), 35), (2048, 1536, 512, 512, (4, 3), 12),
                (256, 192, 64, 32, (7, 5), 35), (256, 192, 64, 64, (4, 3), 12)):
            grid = PatchGrid(image_w, image_h, window, stride)
            assert (grid.n_x, grid.n_y) == counts
            assert grid.total == total


def test_criterion_02_receptive_field_pins():
    with _report(2, "receptive fields: combined 252, patch stack (132, 8), "
                    "oracle on 20 random stacks"):
        pw = canonical_patchwise_spec().blocks
        iw = canonical_imagewise_spec().blocks
        assert receptive_field(pw) == RFState(r=132, jump=8)
        assert receptive_field(pw + iw) == RFState(r=252, jump=32)
        for case in range(20):
            rng = np.random.default_rng(9000 + case)
            geoms = random_small_stack(rng)
            rf = receptive_field(geoms)
            size = rf.r + 2 * rf.jump
            f0, l0 = gradient_support(geoms, 0, size)
            f1, _ = gradient_support(geoms, 1, size)
            assert l0 - f0 + 1 == rf.r, geoms
            assert f1 - f0 == rf.jump, geoms


def test_criterion_03_feature_map_shapes():
    with _report(3, "features: 512x512 patch -> (C, 64, 64); stack carries 12*C "
                    "channels"):
        spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
        params = init_params(spec, seed=0)
        patch = Tensor(np.random.default_rng(0)
                       .normal(size=(1, 3, 512, 512)).astype(np.float32))
        feats = extract_features(spec, params, patch)
        assert feats.shape == (1, 3, 64, 64)
        one = Tensor(np.ascontiguousarray(feats.data[0]))
        stack = concat_channels([one] * 12)
        assert stack.shape == (12 * 3, 64, 64)


def test_criterion_04_gradient_checks():
    with _report(4, "gradient checks: every differentiable primitive < 1e-3 over 5 "
                    "seeds"):
        for name, op, shapes in gradcheck_cases():
            for seed in range(10, 15):
                err = grad_check(op, shapes, seed=seed)
                assert err < 1e-3, f"{name} seed {seed}: {err:.3e}"


def test_criterion_05_convolution_oracle():
    with _report(5, "conv2d matches the naive direct-loop oracle on 50 shapes "
                    "within 1e-5"):
        for case in range(50):
            rng = np.random.default_rng(7000 + case)
            x, w, b, stride, padding = random_conv_case(rng)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b),
                         stride=stride, padding=padding).data
            want = naive_conv2d(x, w, b, stride, padding)
            assert np.max(np.abs(got - want)) <= 1e-5, (case, x.shape, w.shape)


def test_criterion_06_desk_scale_training(tmp_path):
    with _report(6, "desk-scale training: both stages reach val accuracy >= 0.90 "
                    "inside their epoch budgets in under 30 minutes"):
        t0 = time.monotonic()
        _cli(tmp_path, "synth", "--out", "data", "--n-per-class", "40",
             "--image-w", "256", "--image-h", "192", "--seed", "0",
             "--threads", "1")
        _cli(tmp_path, "stats", "--manifest", "data/manifest.json",
             "--threads", "1")
        stage1 = _cli(tmp_path, "train-patch", "--manifest", "data/manifest.json",
                      "--out", "run", "--window", "64", "--stride", "32",
                      "--base-width", "8", "--feature-depth", "8",
                      "--epochs", "20", "--batch-size", "32", "--lr", "0.01",
                      "--patience", "5", "--seed", "0", "--threads", "1")
        stage2 = _cli(tmp_path, "train-image", "--manifest", "data/manifest.json",
                      "--patch-checkpoint", "run/patchwise.ckpt", "--out", "run",
                      "--epochs", "30", "--batch-size", "32", "--head-depth", "64",
                      "--seed", "0", "--threads", "1")
        elapsed = time.monotonic() - t0

        assert stage1["epochs_run"] <= 20
        assert stage1["val_acc"] >= 0.90, stage1
        assert stage2["epochs_run"] <= 30
        assert stage2["val_acc"] >= 0.90, stage2
        assert elapsed < 30 * 60, f"took {elapsed:.0f} s"


def test_criterion_07_initial_loss_symmetry():
    with _report(7, "untrained networks: cross-entropy within 0.15 of ln 4 over "
                    "64 samples, both stages"):
        ln4 = float(np.log(4.0))
        labels = np.arange(64) % 4

        pw = canonical_patchwise_spec(base_width=4, feature_depth=4)
        pw_params = init_params(pw, seed=0)
        patches = Tensor(np.random.default_rng(1)
                         .uniform(-1, 1, size=(64, 3, 32, 32)).astype(np.float32))
        logits = network_forward(pw, pw_params, patches, "train")
        loss1 = cross_entropy(logits, labels).item()
        assert abs(loss1 - ln4) <= 0.15, loss1

        iw = canonical_imagewise_spec(n_patches=12, feature_depth=4, head_depth=16)
        iw_params = init_params(iw, seed=0)
        stacks = Tensor(np.random.default_rng(2)
                        .uniform(-1, 1, size=(64, 48, 8, 8)).astype(np.float32))
        logits = network_forward(iw, iw_params, stacks, "train",
                                 dropout_rng=lambda i: derive(0, f"accept.l{i}"))
        loss2 = cross_entropy(logits, labels).item()
        assert abs(loss2 - ln4) <= 0.15, loss2


def test_criterion_08_pipeline_determinism(tmp_path):
    with _report(8, "two identically seeded pipeline runs produce byte-identical "
                    "checkpoints and metrics"):
        def pipeline(root: Path) -> None:
            root.mkdir()
            _cli(root, "synth", "--out", "data", "--n-per-class", "4",
                 "--image-w", "128", "--image-h", "96", "--seed", "13",
                 "--threads", "1")
            _cli(root, "stats", "--manifest", "data/manifest.json", "--threads", "1")
            _cli(root, "train-patch", "--manifest", "data/manifest.json",
                 "--out", "run", "--window", "64", "--stride", "32",
                 "--base-width", "2", "--feature-depth", "2", "--epochs", "2",
                 "--batch-size", "16", "--seed", "13", "--threads", "1")
            _cli(root, "train-image", "--manifest", "data/manifest.json",
                 "--patch-checkpoint", "run/patchwise.ckpt", "--out", "run",
                 "--epochs", "2", "--batch-size", "8", "--head-depth", "8",
                 "--seed", "13", "--threads", "1")

        a, b = tmp_path / "a", tmp_path / "b"
        pipeline(a)
        pipeline(b)
        artifacts = ["data/manifest.json", "run/patchwise.ckpt",
                     "run/patchwise_metrics.json", "run/imagewise.ckpt",
                     "run/imagewise_metrics.json"]
        artifacts += sorted(p.relative_to(a).as_posix() for p in (a / "data").glob("*.ppm"))
        for rel in artifacts:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_criterion_09_checkpoint_integrity(tmp_path):
    with _report(9, "checkpoints: save-load-save byte-identical; corrupted CRC "
                    "and wrong-kind files rejected"):
        spec = canonical_patchwise_spec(base_width=2, feature_depth=2)
        params = init_params(spec, seed=5)
        first = tmp_path / "first.ckpt"
        save_checkpoint(first, spec, params, {"seed": 5})
        spec2, params2, meta2 = load_checkpoint(first)
        second = tmp_path / "second.ckpt"
        save_checkpoint(second, spec2, params2, meta2)
        assert first.read_bytes() == second.read_bytes()

        corrupt = bytearray(first.read_bytes())
        corrupt[len(corrupt) // 2] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(corrupt))
        try:
            load_checkpoint(bad)
            raise AssertionError("corrupted checkpoint was accepted")
        except CheckpointFormatError:
            pass

        try:
            load_checkpoint(first, expect_kind="imagewise")
            raise AssertionError("kind mismatch was accepted")
        except CheckpointKindError:
            pass


def test_criterion_10_early_stop_traces():
    with _report(10, "early stopping follows the traced plateau/recovery examples "
                     "exactly"):
        assert early_stop([0.5, 0.6, 0.6, 0.6], patience=2) == (True, 1)
        stop, best = early_stop([0.1, 0.2, 0.3, 0.4, 0.5], patience=2)
        assert not stop and best == 4
        assert early_stop([0.7, 0.6, 0.8], patience=2) == (False, 2)

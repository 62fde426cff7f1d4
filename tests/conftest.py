"""Shared fixtures.  BLAS thread pinning must happen before numpy loads, so
the environment block sits above every other import."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import pytest  # noqa: E402

try:  # belt and braces: clamp any pool that ignored the environment
    import threadpoolctl

    threadpoolctl.threadpool_limits(1)
except ImportError:
    pass

from histopatch.data import (  # noqa: E402
    compute_norm_stats,
    generate_dataset_dir,
    load_manifest,
    save_manifest,
)


@pytest.fixture(scope="session")
def tiny_manifest_path(tmp_path_factory):
    """Small synthetic dataset (8 images/class at 128x96) with stats, shared
    across trainer and model tests."""
    root = tmp_path_factory.mktemp("tinyset")
    manifest = generate_dataset_dir(root, n_per_class=8, image_w=128,
                                    image_h=96, seed=5)
    stats = compute_norm_stats(manifest)
    save_manifest(root / "manifest.json", replace(manifest, stats=stats))
    return root / "manifest.json"


@pytest.fixture(scope="session")
def tiny_manifest(tiny_manifest_path):
    return load_manifest(tiny_manifest_path)


def _run_cli(*args: str, expect: int | None = 0) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "histopatch", *[str(a) for a in args]],
        capture_output=True, text=True,
    )
    if expect is not None:
        assert proc.returncode == expect, (
            f"histopatch {' '.join(str(a) for a in args)} exited "
            f"{proc.returncode}, expected {expect}\nstderr:\n{proc.stderr}"
        )
    return proc


@pytest.fixture(scope="session")
def run_cli():
    return _run_cli


@pytest.fixture(scope="session")
def tiny_cli_artifacts(tmp_path_factory):
    """One small end-to-end CLI run (dataset, stats, both checkpoints),
    shared by the CLI surface tests."""
    root = tmp_path_factory.mktemp("cliart")
    data = root / "data"
    run = root / "run"
    _run_cli("synth", "--out", data, "--n-per-class", "6", "--image-w", "128",
             "--image-h", "96", "--seed", "9", "--threads", "1")
    _run_cli("stats", "--manifest", data / "manifest.json", "--threads", "1")
    _run_cli("train-patch", "--manifest", data / "manifest.json", "--out", run,
             "--window", "64", "--stride", "32", "--base-width", "4",
             "--feature-depth", "4", "--epochs", "4", "--batch-size", "16",
             "--seed", "9", "--threads", "1")
    train_image = _run_cli("train-image", "--manifest", data / "manifest.json",
                           "--patch-checkpoint", run / "patchwise.ckpt", "--out", run,
                           "--epochs", "6", "--batch-size", "8", "--seed", "9",
                           "--threads", "1")
    return {
        "train_image_stdout": train_image.stdout,
        "data": data,
        "manifest": data / "manifest.json",
        "patch_ckpt": run / "patchwise.ckpt",
        "image_ckpt": run / "imagewise.ckpt",
        "patch_metrics": run / "patchwise_metrics.json",
        "image_metrics": run / "imagewise_metrics.json",
    }

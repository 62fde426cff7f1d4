"""Command-line pipeline: synthesis, geometry reports, training, inference.

All commands print a single JSON payload to stdout (logs go to stderr) and
embed the fully-resolved configuration for provenance.  Exit codes: 0 on
success, 2 for configuration problems, 3 for I/O problems, 4 for checkpoint
format problems.

Settings resolve in three layers: built-in defaults, then a JSON config file
(--config), then explicit flags.  Thread pinning happens before numpy is
imported, so the heavy modules load lazily.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

FORMAT_VERSION = 1

DEFAULTS: dict = {
    "seed": 0,
    "image_w": 2048,
    "image_h": 1536,
    "window": 512,
    "stride": 256,
    "base_width": 16,
    "feature_depth": 16,
    "head_depth": 64,
    "epochs": None,  # per stage: 20 patch-wise, 30 image-wise
    "batch_size": 32,
    "lr": 0.01,
    "momentum": 0.9,
    "patience": 5,
    "dropout": 0.5,
    "val_fraction": 0.25,
    "n_per_class": 10,
    "threads": 1,
    "split": "val",
    "manifest": None,
    "patch_checkpoint": None,
    "image_checkpoint": None,
    "out": None,
    "image": None,
}

_INT_KEYS = {"seed", "image_w", "image_h", "window", "stride", "base_width",
             "feature_depth", "head_depth", "epochs", "batch_size", "patience",
             "n_per_class", "threads"}
_FLOAT_KEYS = {"lr", "momentum", "dropout", "val_fraction"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--window", type=int, metavar="K")
    common.add_argument("--stride", type=int, metavar="S")
    common.add_argument("--image-w", type=int)
    common.add_argument("--image-h", type=int)
    common.add_argument("--base-width", type=int, metavar="B")
    common.add_argument("--feature-depth", type=int, metavar="C")
    common.add_argument("--head-depth", type=int, metavar="D")
    common.add_argument("--epochs", type=int)
    common.add_argument("--batch-size", type=int)
    common.add_argument("--lr", type=float)
    common.add_argument("--momentum", type=float)
    common.add_argument("--patience", type=int)
    common.add_argument("--dropout", type=float)
    common.add_argument("--val-fraction", type=float)
    common.add_argument("--n-per-class", type=int)
    common.add_argument("--split", choices=("train", "val"))
    common.add_argument("--manifest", metavar="PATH")
    common.add_argument("--patch-checkpoint", metavar="PATH")
    common.add_argument("--image-checkpoint", metavar="PATH")
    common.add_argument("--out", metavar="DIR")
    common.add_argument("--image", metavar="PATH")
    common.add_argument("--threads", type=int, metavar="N")

    parser = argparse.ArgumentParser(
        prog="histopatch",
        description="Two-stage patch-wise/image-wise image classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, _) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=desc)
    return parser


def _resolve(args: argparse.Namespace) -> tuple[dict, set[str]]:
    """defaults < config file < explicit flags; returns the resolved dict and
    the set of keys that were set explicitly."""
    cfg = dict(DEFAULTS)
    explicit: set[str] = set()
    if args.config:
        raw = json.loads(Path(args.config).read_text("utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
        cfg.update(raw)
        explicit.update(raw)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
            explicit.add(key)
    for key in sorted(_INT_KEYS | _FLOAT_KEYS):
        val = cfg[key]
        if val is None and DEFAULTS[key] is None:
            continue
        kinds = (int,) if key in _INT_KEYS else (int, float)
        if isinstance(val, bool) or not isinstance(val, kinds):
            what = "an integer" if key in _INT_KEYS else "a number"
            raise ValueError(f"{key} must be {what}, got {json.dumps(val)}")
        if key in _FLOAT_KEYS:
            cfg[key] = float(val)
    if cfg["threads"] < 1:
        raise ValueError(f"threads must be >= 1, got {cfg['threads']}")
    return cfg, explicit


def _pin_threads(n: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _require(cfg: dict, keys: list[str], parser: argparse.ArgumentParser,
             command: str) -> None:
    missing = [k for k in keys if cfg[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        parser.error(f"{command} requires {flags}")


def _log_line(msg: str) -> None:
    print(msg, file=sys.stderr)


def _payload(command: str, cfg: dict, body: dict) -> dict:
    out = {"command": command, "format_version": FORMAT_VERSION, "config": cfg}
    out.update(body)
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_geometry(cfg: dict, explicit: set[str], parser, command) -> dict:
    from .geometry import PatchGrid, patch_coords

    grid = PatchGrid(image_w=cfg["image_w"], image_h=cfg["image_h"],
                     window=cfg["window"], stride=cfg["stride"])
    coords = patch_coords(grid)
    return _payload("geometry", cfg, {
        "n_x": grid.n_x,
        "n_y": grid.n_y,
        "total": grid.total,
        "coverage_exact": grid.coverage_exact,
        "coords": {"count": len(coords), "first": list(coords[0]),
                   "last": list(coords[-1])},
    })


def _rf_table(geoms, input_size: int) -> dict:
    from .geometry import output_size, receptive_field

    sizes = output_size(geoms, input_size) if geoms else []
    rows = []
    for i, g in enumerate(geoms):
        state = receptive_field(geoms[:i + 1])
        rows.append({"layer": i + 1, "kernel": g.kernel, "stride": g.stride,
                     "padding": g.padding, "r": state.r, "jump": state.jump,
                     "out_size": sizes[i]})
    state = receptive_field(geoms)
    return {"input": input_size, "layers": rows, "r": state.r, "jump": state.jump}


def cmd_rf(cfg: dict, explicit: set[str], parser, command) -> dict:
    from .geometry import max_stride_for_coverage, receptive_field
    from .model import canonical_imagewise_spec, canonical_patchwise_spec

    window = cfg["window"]
    pw = canonical_patchwise_spec(cfg["base_width"], cfg["feature_depth"])
    iw = canonical_imagewise_spec(feature_depth=cfg["feature_depth"],
                                  head_depth=cfg["head_depth"])
    pw_geoms, iw_geoms = pw.conv_geoms(), iw.conv_geoms()
    combined = pw_geoms + iw_geoms
    return _payload("rf", cfg, {
        "patchwise": _rf_table(pw_geoms, window),
        "imagewise": _rf_table(iw_geoms, window // 8),
        "combined": _rf_table(combined, window),
        "max_stride_for_coverage": max_stride_for_coverage(receptive_field(combined)),
    })


def cmd_synth(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["out"], parser, command)
    from .data import N_CLASSES, generate_dataset_dir

    manifest = generate_dataset_dir(cfg["out"], cfg["n_per_class"],
                                    cfg["image_w"], cfg["image_h"],
                                    cfg["seed"], cfg["val_fraction"])
    per_class = {c: 0 for c in range(N_CLASSES)}
    splits = {"train": 0, "val": 0}
    for r in manifest.records:
        per_class[r.label] += 1
        splits[r.split] += 1
    return _payload("synth", cfg, {
        "out": str(cfg["out"]),
        "manifest": str(Path(cfg["out"]) / "manifest.json"),
        "files": len(manifest.records),
        "per_class": {str(c): n for c, n in per_class.items()},
        "splits": splits,
    })


def cmd_stats(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["manifest"], parser, command)
    from dataclasses import replace

    from .data import compute_norm_stats, load_manifest, save_manifest

    manifest = load_manifest(cfg["manifest"])
    stats = compute_norm_stats(manifest)
    save_manifest(cfg["manifest"], replace(manifest, stats=stats))
    return _payload("stats", cfg, {
        "manifest": str(cfg["manifest"]),
        "mean": list(stats.mean),
        "std": list(stats.std),
    })


def _write_artifacts(out_dir: Path, stem: str, result, cfg: dict) -> tuple[Path, Path]:
    from .checkpoint import save_checkpoint

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"{stem}.ckpt"
    metrics_path = out_dir / f"{stem}_metrics.json"
    save_checkpoint(ckpt_path, result.spec, result.params, result.meta)
    doc = result.metrics.to_dict()
    doc["config"] = cfg
    doc["format_version"] = FORMAT_VERSION
    metrics_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")
    return ckpt_path, metrics_path


def _train_summary(command: str, cfg: dict, result, ckpt: Path,
                   metrics: Path) -> dict:
    return _payload(command, cfg, {
        "checkpoint": str(ckpt),
        "metrics": str(metrics),
        "best_epoch": result.metrics.best_epoch,
        "val_acc": result.metrics.accuracy,
        "epochs_run": len(result.metrics.epochs),
    })


def cmd_train_patch(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["manifest", "out"], parser, command)
    from .data import load_manifest
    from .trainer import TrainConfig, train_patchwise

    _check_window(cfg["window"])
    tc = TrainConfig(
        stage="patchwise", seed=cfg["seed"], lr=cfg["lr"],
        momentum=cfg["momentum"], batch_size=cfg["batch_size"],
        max_epochs=cfg["epochs"] if cfg["epochs"] is not None else 20,
        patience=cfg["patience"], window=cfg["window"], stride=cfg["stride"],
        base_width=cfg["base_width"], feature_depth=cfg["feature_depth"],
    )
    manifest = load_manifest(cfg["manifest"])
    result = train_patchwise(manifest, tc, log=_log_line)
    ckpt, metrics = _write_artifacts(Path(cfg["out"]), "patchwise", result, cfg)
    return _train_summary(command, cfg, result, ckpt, metrics)


def _load_pw(cfg: dict):
    from .checkpoint import load_checkpoint

    return load_checkpoint(cfg["patch_checkpoint"], expect_kind="patchwise")


def _check_window(window: int) -> None:
    """Refuse a window that collapses either conv stack; the image-wise stack
    sees the patch-wise feature maps, which are window // 8 wide."""
    from .geometry import GeometryError, output_size
    from .model import canonical_imagewise_spec, canonical_patchwise_spec

    for name, spec, size in (("patch-wise", canonical_patchwise_spec(), window),
                             ("image-wise", canonical_imagewise_spec(), window // 8)):
        try:
            output_size(spec.conv_geoms(), size)
        except GeometryError as e:
            raise GeometryError(f"window {window} is too small for the {name} "
                                f"stack: {e}") from None


def _effective_window(cfg: dict, explicit: set[str], meta: dict) -> int:
    window = cfg["window"]
    if "window" not in explicit:
        window = int(meta.get("window", window))
    _check_window(window)
    return window


def cmd_train_image(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["manifest", "patch_checkpoint", "out"], parser, command)
    from .data import load_manifest
    from .trainer import TrainConfig, train_imagewise

    pw_spec, pw_params, pw_meta = _load_pw(cfg)
    manifest = load_manifest(cfg["manifest"])
    if manifest.stats is not None and "norm_mean" in pw_meta:
        same = (list(manifest.stats.mean) == pw_meta["norm_mean"]
                and list(manifest.stats.std) == pw_meta["norm_std"])
        if not same:
            raise ValueError(
                "manifest normalization stats differ from the ones the "
                "patch-wise checkpoint was trained with; recompute stats or "
                "retrain stage one"
            )
    tc = TrainConfig(
        stage="imagewise", seed=cfg["seed"], lr=cfg["lr"],
        momentum=cfg["momentum"], batch_size=cfg["batch_size"],
        max_epochs=cfg["epochs"] if cfg["epochs"] is not None else 30,
        patience=cfg["patience"], dropout_rate=cfg["dropout"],
        window=_effective_window(cfg, explicit, pw_meta),
        head_depth=cfg["head_depth"],
    )
    result = train_imagewise(manifest, pw_spec, pw_params, tc, log=_log_line)
    ckpt, metrics = _write_artifacts(Path(cfg["out"]), "imagewise", result, cfg)
    return _train_summary(command, cfg, result, ckpt, metrics)


def _load_stage_pair(cfg: dict):
    from .checkpoint import load_checkpoint
    from .data import NormStats

    pw_spec, pw_params, pw_meta = _load_pw(cfg)
    iw_spec, iw_params, iw_meta = load_checkpoint(cfg["image_checkpoint"],
                                                  expect_kind="imagewise")
    stats = NormStats(mean=tuple(pw_meta["norm_mean"]),
                      std=tuple(pw_meta["norm_std"]))
    return pw_spec, pw_params, pw_meta, iw_spec, iw_params, iw_meta, stats


def cmd_infer(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["patch_checkpoint", "image_checkpoint", "image"], parser, command)
    from .data import normalize_pixels, read_ppm
    from .model import CLASS_NAMES, infer_image

    pw_spec, pw_params, pw_meta, iw_spec, iw_params, _, stats = _load_stage_pair(cfg)
    window = _effective_window(cfg, explicit, pw_meta)
    pixels = normalize_pixels(read_ppm(cfg["image"]), stats)
    cls, probs = infer_image(pw_spec, pw_params, iw_spec, iw_params, pixels, window)
    return _payload(command, cfg, {
        "image": str(cfg["image"]),
        "class": cls,
        "class_name": CLASS_NAMES[cls],
        "probabilities": [float(p) for p in probs],
    })


def cmd_eval(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["patch_checkpoint", "image_checkpoint", "manifest"], parser, command)
    from .data import load_manifest, load_images, normalize_pixels
    from .trainer import evaluate_images, metrics_from_confusion

    pw_spec, pw_params, pw_meta, iw_spec, iw_params, _, stats = _load_stage_pair(cfg)
    window = _effective_window(cfg, explicit, pw_meta)
    manifest = load_manifest(cfg["manifest"])
    images = load_images(manifest, cfg["split"])
    if not images:
        raise ValueError(f"split {cfg['split']!r} is empty")
    for img in images:
        img.pixels = normalize_pixels(img.pixels, stats)
    confusion = evaluate_images(pw_spec, pw_params, iw_spec, iw_params,
                                images, window)
    accuracy, precision, recall = metrics_from_confusion(confusion)
    return _payload(command, cfg, {
        "split": cfg["split"],
        "n_images": len(images),
        "confusion": confusion.tolist(),
        "accuracy": accuracy,
        "per_class": {"precision": precision, "recall": recall},
    })


COMMANDS = {
    "geometry": ("patch-grid report for the configured image and window", cmd_geometry),
    "rf": ("receptive-field tables for both conv stacks", cmd_rf),
    "synth": ("write a synthetic labeled dataset", cmd_synth),
    "stats": ("compute and store normalization statistics", cmd_stats),
    "train-patch": ("train the patch-wise network", cmd_train_patch),
    "train-image": ("train the image-wise network on frozen features", cmd_train_image),
    "infer": ("classify one image with both checkpoints", cmd_infer),
    "eval": ("evaluate both checkpoints over a manifest split", cmd_eval),
}


# ---------------------------------------------------------------------------

def _exit_code_for(e: Exception) -> int | None:
    from .checkpoint import CheckpointError
    from .data import PpmError
    from .geometry import GeometryError

    if isinstance(e, CheckpointError):
        return 4
    if isinstance(e, PpmError):
        return 3
    if isinstance(e, OSError):
        return 3
    if isinstance(e, (GeometryError, ValueError)):
        return 2
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, explicit = _resolve(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ValueError) else 3
    _pin_threads(cfg["threads"])

    try:
        _, run = COMMANDS[args.command]
        payload = run(cfg, explicit, parser, args.command)
    except Exception as e:
        code = _exit_code_for(e)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code

    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

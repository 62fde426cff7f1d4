"""Command-line pipeline: synthesis, geometry reports, training, inference.

All commands print a single JSON payload to stdout (logs go to stderr) and
embed the fully-resolved configuration for provenance; the stage-two commands
echo the tiling and network sizes of the checkpoints they load.  Exit codes:
0 on success, 2 for configuration problems, 3 for I/O problems, 4 for
checkpoint format problems.

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

# key: (default, type); a tuple type lists the allowed values.  Each key is a
# flag (``--image-w`` for ``image_w``) and a config file key.
SETTINGS: dict = {
    "seed": (0, int),
    "image_w": (2048, int),
    "image_h": (1536, int),
    "window": (512, int),
    "stride": (256, int),
    "base_width": (16, int),
    "feature_depth": (16, int),
    "head_depth": (64, int),
    "epochs": (None, int),  # per stage: 20 patch-wise, 30 image-wise
    "batch_size": (32, int),
    "lr": (0.01, float),
    "momentum": (0.9, float),
    "patience": (5, int),
    "dropout": (0.5, float),
    "val_fraction": (0.25, float),
    "n_per_class": (10, int),
    "threads": (1, int),
    "split": ("val", ("train", "val")),
    "manifest": (None, str),
    "patch_checkpoint": (None, str),
    "image_checkpoint": (None, str),
    "out": (None, str),
    "image": (None, str),
}
DEFAULTS: dict = {key: default for key, (default, _) in SETTINGS.items()}
_WHAT = {int: "an integer", float: "a number", str: "a string"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    for key, (_, kind) in SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(kind, tuple):
            common.add_argument(flag, choices=kind)
        else:
            common.add_argument(flag, type=kind)

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
    for key, (default, kind) in SETTINGS.items():
        val = cfg[key]
        if val is None and default is None:
            continue
        if isinstance(kind, tuple):
            if val not in kind:
                raise ValueError(f"{key} must be one of {', '.join(map(json.dumps, kind))}, "
                                 f"got {json.dumps(val)}")
            continue
        kinds = (int, float) if kind is float else (kind,)
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise ValueError(f"{key} must be {_WHAT[kind]}, got {json.dumps(val)}")
        cfg[key] = kind(val)
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


def _train(cfg: dict, stage: str, run) -> dict:
    """Train ``stage`` with ``run(train_config)`` under ``cfg``'s settings,
    write ``<stage>.ckpt`` and ``<stage>_metrics.json`` into --out, and return
    the command's summary.  The config is checked before ``run`` reads
    anything."""
    from .checkpoint import save_checkpoint
    from .trainer import TrainConfig

    epochs = cfg["epochs"]
    tc = TrainConfig(
        stage=stage, seed=cfg["seed"], lr=cfg["lr"], momentum=cfg["momentum"],
        batch_size=cfg["batch_size"], patience=cfg["patience"],
        max_epochs=epochs if epochs is not None else {"patchwise": 20, "imagewise": 30}[stage],
        dropout_rate=cfg["dropout"], window=cfg["window"], stride=cfg["stride"],
        base_width=cfg["base_width"], feature_depth=cfg["feature_depth"],
        head_depth=cfg["head_depth"],
    )
    tc.validate()
    result = run(tc)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt, metrics = out_dir / f"{stage}.ckpt", out_dir / f"{stage}_metrics.json"
    save_checkpoint(ckpt, result.spec, result.params, result.meta)
    doc = {**result.metrics.to_dict(), "config": cfg, "format_version": FORMAT_VERSION}
    metrics.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")
    return {
        "checkpoint": str(ckpt),
        "metrics": str(metrics),
        "best_epoch": result.metrics.best_epoch,
        "val_acc": result.metrics.accuracy,
        "epochs_run": len(result.metrics.epochs),
    }


def cmd_train_patch(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["manifest", "out"], parser, command)
    from .data import load_manifest
    from .trainer import train_patchwise

    return _payload(command, cfg, _train(cfg, "patchwise", lambda tc: train_patchwise(
        load_manifest(cfg["manifest"]), tc, log=_log_line)))


def _stage_two(cfg: dict, explicit: set[str], with_image_net: bool):
    """Load the patch checkpoint (and, ``with_image_net``, the image one) and
    the patch checkpoint's norm stats; return ``(cfg, stats, nets)``.

    The returned ``cfg`` is the one that runs: the patch checkpoint's window
    unless one was given, tiled without overlap (so the stride is the window
    too), its ``base_width``/``feature_depth``, and ``with_image_net`` the
    image checkpoint's ``head_depth``/``dropout``.  An explicit size that a
    checkpoint contradicts is a ``ValueError``; a stored window that is not a
    JSON integer or unusable stats are a ``CheckpointError``.  ``nets`` is
    ``(pw_spec, pw_params)``, then ``(iw_spec, iw_params)`` if loaded."""
    from .checkpoint import CheckpointError, load_checkpoint
    from .data import ManifestError, NormStats
    from .model import check_window

    path = cfg["patch_checkpoint"]
    pw_spec, pw_params, meta = load_checkpoint(path, expect_kind="patchwise")
    nets = (pw_spec, pw_params)
    try:
        stats = NormStats.from_dict({"mean": meta.get("norm_mean"), "std": meta.get("norm_std")})
    except ManifestError as e:
        raise CheckpointError(f"patch-wise checkpoint {path} holds no "
                              f"usable norm_mean/norm_std: {e}") from None
    window = cfg["window"] if "window" in explicit else meta.get("window", cfg["window"])
    if type(window) is not int:
        raise CheckpointError(f"patch-wise checkpoint {path} holds "
                              f"window {window!r}, not an integer")
    stored = {"base_width": (pw_spec.base_width, path),
              "feature_depth": (pw_spec.feature_depth, path)}
    if with_image_net:
        iw_spec, iw_params, _ = load_checkpoint(cfg["image_checkpoint"], expect_kind="imagewise")
        nets += (iw_spec, iw_params)
        stored.update(head_depth=(iw_spec.head_depth, cfg["image_checkpoint"]),
                      dropout=(iw_spec.dropout_rate, cfg["image_checkpoint"]))
    for key, (value, source) in stored.items():
        if key in explicit and cfg[key] != value:
            raise ValueError(f"{key} {json.dumps(cfg[key])} contradicts checkpoint "
                             f"{source}, which holds {json.dumps(value)}")
    check_window(window)
    ran = {key: value for key, (value, _) in stored.items()}
    return {**cfg, "window": window, "stride": window, **ran}, stats, nets


def cmd_train_image(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["manifest", "patch_checkpoint", "out"], parser, command)
    from .data import load_manifest
    from .trainer import train_imagewise

    cfg, stats, nets = _stage_two(cfg, explicit, with_image_net=False)
    manifest = load_manifest(cfg["manifest"])
    if manifest.stats is not None and manifest.stats != stats:
        raise ValueError(
            "manifest normalization stats differ from the ones the "
            "patch-wise checkpoint was trained with; recompute stats or "
            "retrain stage one"
        )
    return _payload(command, cfg, _train(cfg, "imagewise", lambda tc: train_imagewise(
        manifest, *nets, tc, log=_log_line)))


def cmd_infer(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["patch_checkpoint", "image_checkpoint", "image"], parser, command)
    from .data import normalize_pixels, read_ppm
    from .model import CLASS_NAMES, infer_image

    cfg, stats, nets = _stage_two(cfg, explicit, with_image_net=True)
    pixels = normalize_pixels(read_ppm(cfg["image"]), stats)
    cls, probs = infer_image(*nets, pixels, cfg["window"])
    return _payload(command, cfg, {
        "image": str(cfg["image"]),
        "class": cls,
        "class_name": CLASS_NAMES[cls],
        "probabilities": [float(p) for p in probs],
    })


def cmd_eval(cfg: dict, explicit: set[str], parser, command) -> dict:
    _require(cfg, ["patch_checkpoint", "image_checkpoint", "manifest"], parser, command)
    from dataclasses import replace

    from .data import load_images, load_manifest
    from .trainer import evaluate_images, metrics_from_confusion

    cfg, stats, nets = _stage_two(cfg, explicit, with_image_net=True)
    manifest = load_manifest(cfg["manifest"])
    images = load_images(replace(manifest, stats=stats), cfg["split"], normalized=True)
    if not images:
        raise ValueError(f"split {cfg['split']!r} is empty")
    confusion = evaluate_images(*nets, images, cfg["window"])
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
        _pin_threads(cfg["threads"])
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

"""Image decoding, dataset manifests and a synthetic texture generator.

The one mandatory codec is binary PPM (P6, maxval 255).  Manifests are JSON:
either a bare array of {"path", "label", "split"} records or, once channel
statistics have been computed, an object {"records": [...], "stats":
{"mean": [...], "std": [...]}}.  Paths are resolved against the manifest's
own directory.

The synthetic generator draws class-specific blob textures over a noisy
background so that the four classes are separable by local texture alone:
class 0 sparse large pale blobs, class 1 sparse small dark blobs, class 2
dense small blobs, class 3 dense overlapping elongated blobs.  Blob density
is strictly increasing with the class index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .rng import derive
from .tensor import Tensor

__all__ = [
    "PpmError",
    "ManifestError",
    "LabeledImage",
    "ManifestRecord",
    "NormStats",
    "Manifest",
    "decode_ppm",
    "encode_ppm",
    "read_ppm",
    "write_ppm",
    "load_manifest",
    "save_manifest",
    "load_images",
    "compute_norm_stats",
    "BlobParams",
    "CLASS_TEXTURES",
    "synth_image",
    "synth_dataset",
    "generate_dataset_dir",
    "split_manifest",
    "N_CLASSES",
]

N_CLASSES = 4  # the one class count; model, trainer and cli import it
_REFERENCE_AREA = 256 * 192  # blob densities are quoted at this image area


class PpmError(ValueError):
    """Malformed or unsupported PPM data."""


class ManifestError(ValueError):
    """Malformed dataset manifest."""


@dataclass
class LabeledImage:
    pixels: Tensor  # (3, H, W), values in [0, 1] or normalized
    label: int
    source_id: str


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: int
    split: str


@dataclass(frozen=True)
class NormStats:
    mean: tuple[float, float, float]
    std: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {"mean": list(self.mean), "std": list(self.std)}

    @staticmethod
    def from_dict(d: dict) -> "NormStats":
        """Inverse of ``to_dict``; ManifestError unless mean and std each
        hold 3 finite numbers and every std is above 0."""
        if not isinstance(d, dict):
            raise ManifestError(f"stats must be a {{mean, std}} object, got {json.dumps(d)}")
        values = {}
        for key in ("mean", "std"):
            v = d.get(key)
            if not (isinstance(v, (list, tuple)) and len(v) == 3
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                            and math.isfinite(x) for x in v)):
                raise ManifestError(f"stats {key} must be 3 finite numbers, got {json.dumps(v)}")
            values[key] = tuple(float(x) for x in v)
        if min(values["std"]) <= 0:
            raise ManifestError(f"stats std must be above 0, got {json.dumps(values['std'])}")
        return NormStats(**values)


@dataclass
class Manifest:
    records: list[ManifestRecord]
    stats: NormStats | None = None
    root: Path | None = None  # directory record paths resolve against

    def split_records(self, split: str) -> list[ManifestRecord]:
        return [r for r in self.records if r.split == split]


# ---------------------------------------------------------------------------
# PPM codec

_WHITESPACE = b" \t\r\n\x0b\x0c"


def decode_ppm(data: bytes, stats: NormStats | None = None) -> Tensor:
    """Binary PPM (P6, maxval 255) to network input: a channel-major float
    tensor of v/255, normalized per channel by ``stats`` when given.

    Header comments (#) and arbitrary whitespace between tokens are accepted.
    """
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c in _WHITESPACE:
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos:pos + 1] not in _WHITESPACE \
                and data[pos:pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise PpmError("truncated header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P6":
        raise PpmError(f"bad magic {magic!r}, expected b'P6'")

    dims = []
    for field in ("width", "height", "maxval"):
        tok = next_token()
        if not tok.isdigit():
            raise PpmError(f"non-numeric {field} {tok!r}")
        dims.append(int(tok))
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise PpmError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PpmError(f"unsupported maxval {maxval}, only 255 is handled")

    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise PpmError("missing whitespace after maxval")
    pos += 1

    need, got = 3 * width * height, len(data) - pos
    if got < need:
        raise PpmError(f"truncated pixel data: got {got} bytes, need {need}")
    if got > need:
        raise PpmError(f"{got - need} trailing bytes after pixel data")
    pixels = np.frombuffer(data, np.uint8, count=need, offset=pos).reshape(height, width, 3)
    return _network_input(pixels, stats)


def _network_input(hwc: np.ndarray, stats: NormStats | None = None) -> Tensor:
    """uint8 (H, W, 3) pixels to network input, in one float32 (3, H, W) buffer."""
    chw = hwc.transpose(2, 0, 1).astype(np.float32, order="C")
    chw /= 255.0
    if stats is not None:
        chw -= np.asarray(stats.mean, dtype=np.float32).reshape(3, 1, 1)
        chw /= np.asarray(stats.std, dtype=np.float32).reshape(3, 1, 1)
    return Tensor(chw)


def encode_ppm(image: Tensor) -> bytes:
    """Channel-major float tensor back to canonical P6 bytes (values are
    scaled by 255, rounded and clipped)."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise PpmError(f"expected a (3, H, W) tensor, got {image.shape}")
    _, height, width = image.shape
    u8 = np.clip(np.rint(image.data * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + u8.transpose(1, 2, 0).tobytes()


def read_ppm(path: str | Path, stats: NormStats | None = None) -> Tensor:
    """The one reader of an image file as network input (see ``decode_ppm``)."""
    return decode_ppm(Path(path).read_bytes(), stats)


def write_ppm(path: str | Path, image: Tensor) -> None:
    Path(path).write_bytes(encode_ppm(image))


# ---------------------------------------------------------------------------
# manifests

def _validate_records(records: list[ManifestRecord]) -> None:
    seen = set()
    for r in records:
        if not isinstance(r.path, str):
            raise ManifestError(f"path {r.path!r} is not a string")
        if r.path in seen:
            raise ManifestError(f"duplicate path {r.path!r}")
        seen.add(r.path)
        if (isinstance(r.label, bool) or not isinstance(r.label, int)
                or not 0 <= r.label < N_CLASSES):
            raise ManifestError(f"label {r.label!r} for {r.path!r} not in 0..{N_CLASSES - 1}")
        if r.split not in ("train", "val"):
            raise ManifestError(f"split {r.split!r} for {r.path!r} not train/val")


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as e:
        raise ManifestError(f"manifest is not valid JSON: {e}") from e
    if isinstance(raw, list):
        raw_records, stats = raw, None
    elif isinstance(raw, dict) and "records" in raw:
        raw_records = raw["records"]
        stats = NormStats.from_dict(raw["stats"]) if raw.get("stats") else None
    else:
        raise ManifestError("manifest must be a record array or a {records, stats} object")
    try:
        records = [ManifestRecord(path=r["path"], label=r["label"], split=r["split"])
                   for r in raw_records]
    except (KeyError, TypeError) as e:
        raise ManifestError(f"bad manifest record: {e}") from e
    _validate_records(records)
    return Manifest(records=records, stats=stats, root=path.parent)


def save_manifest(path: str | Path, manifest: Manifest) -> None:
    _validate_records(manifest.records)
    recs = [{"path": r.path, "label": r.label, "split": r.split}
            for r in manifest.records]
    if manifest.stats is None:
        payload = recs
    else:
        payload = {"records": recs, "stats": manifest.stats.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")


def load_images(manifest: Manifest, split: str | None = None,
                normalized: bool = False) -> list[LabeledImage]:
    """Decode every record (optionally one split), in manifest order."""
    if manifest.root is None:
        raise ManifestError("manifest has no root directory to resolve paths against")
    records = manifest.records if split is None else manifest.split_records(split)
    if normalized and manifest.stats is None:
        raise ManifestError("manifest has no normalization stats yet")
    stats = manifest.stats if normalized else None
    return [LabeledImage(pixels=read_ppm(manifest.root / r.path, stats), label=r.label,
                         source_id=r.path) for r in records]


def compute_norm_stats(manifest: Manifest) -> NormStats:
    """Per-channel mean and population std over all train-split pixels,
    accumulated in float64, std floored at 1e-6."""
    train = manifest.split_records("train")
    if not train:
        raise ManifestError("train split is empty")
    count = 0
    total = np.zeros(3, dtype=np.float64)
    total_sq = np.zeros(3, dtype=np.float64)
    for r in train:
        pixels = read_ppm(manifest.root / r.path).data
        count += pixels[0].size
        for c in range(3):  # one float64 channel at a time, squared in place
            x = pixels[c].astype(np.float64)
            total[c] += x.sum()
            total_sq[c] += np.multiply(x, x, out=x).sum()
        del pixels, x  # so that the next image is not read beside this one
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    std = np.maximum(np.sqrt(var), 1e-6)
    return NormStats(mean=tuple(float(m) for m in mean),
                     std=tuple(float(s) for s in std))


# ---------------------------------------------------------------------------
# synthetic textures

@dataclass(frozen=True)
class BlobParams:
    density: float        # expected blob count at 256x192; scales with area
    radius: float
    radius_jitter: float
    elongation: float     # semi-axis ratio; blobs keep their area
    color: tuple[float, float, float]
    color_jitter: float


# density strictly increases with class index
CLASS_TEXTURES: tuple[BlobParams, ...] = (
    BlobParams(20.0, 14.0, 4.0, 1.0, (0.93, 0.80, 0.86), 0.04),   # 0: large pale
    BlobParams(40.0, 5.0, 1.5, 1.0, (0.45, 0.25, 0.42), 0.05),    # 1: small dark
    BlobParams(110.0, 4.0, 1.2, 1.0, (0.62, 0.35, 0.55), 0.05),   # 2: dense small
    BlobParams(170.0, 4.5, 1.5, 3.0, (0.50, 0.22, 0.38), 0.05),   # 3: dense elongated
)

_BACKGROUND = np.array([0.91, 0.84, 0.88])
_BACKGROUND_NOISE = 0.03
_BLOB_ALPHA = 0.85


def max_blob_radius(params: BlobParams) -> float:
    return (params.radius + params.radius_jitter) * math.sqrt(params.elongation)


def synth_image(class_idx: int, image_w: int, image_h: int,
                rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One uint8 (H, W, 3) texture image; returns (pixels, blob count drawn)."""
    if not 0 <= class_idx < N_CLASSES:
        raise ValueError(f"class index {class_idx} not in 0..3")
    params = CLASS_TEXTURES[class_idx]
    min_dim = 2.0 * max_blob_radius(params)
    if image_w < min_dim or image_h < min_dim:
        raise ValueError(
            f"image {image_w}x{image_h} smaller than twice the max blob "
            f"radius ({min_dim:.1f}) for class {class_idx}"
        )

    img = rng.uniform(-_BACKGROUND_NOISE, _BACKGROUND_NOISE, size=(image_h, image_w, 3))
    img += _BACKGROUND
    area_scale = (image_w * image_h) / _REFERENCE_AREA
    n_blobs = int(rng.poisson(params.density * area_scale))
    sq = math.sqrt(params.elongation)
    for _ in range(n_blobs):
        cx = rng.uniform(0, image_w)
        cy = rng.uniform(0, image_h)
        angle = rng.uniform(0, math.pi)
        radius = params.radius + rng.uniform(-params.radius_jitter, params.radius_jitter)
        color = np.array(params.color) + rng.uniform(-params.color_jitter,
                                                     params.color_jitter, size=3)
        a, b = radius * sq, radius / sq  # area-preserving ellipse semi-axes
        reach = int(math.ceil(a)) + 1
        x0, x1 = max(0, int(cx) - reach), min(image_w, int(cx) + reach + 1)
        y0, y1 = max(0, int(cy) - reach), min(image_h, int(cy) + reach + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        yy, xx = np.ogrid[y0:y1, x0:x1]
        dx, dy = xx - cx, yy - cy
        cos_t, sin_t = math.cos(angle), math.sin(angle)
        u = dx * cos_t + dy * sin_t
        v = -dx * sin_t + dy * cos_t
        mask = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        region = img[y0:y1, x0:x1]
        region[mask] = (1.0 - _BLOB_ALPHA) * region[mask] + _BLOB_ALPHA * color

    img *= 255.0
    return np.clip(np.rint(img, out=img), 0, 255, out=img).astype(np.uint8), n_blobs


def synth_dataset(n_per_class: int, image_w: int, image_h: int,
                  seed: int) -> list[LabeledImage]:
    """Deterministic labeled texture images, ``n_per_class`` of each class.
    Same arguments and seed give bitwise-identical pixels."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    images = []
    for c in range(N_CLASSES):
        for i in range(n_per_class):
            rng = derive(seed, f"synth.c{c}", i)
            u8, _ = synth_image(c, image_w, image_h, rng)
            images.append(LabeledImage(pixels=_network_input(u8), label=c,
                                       source_id=f"c{c}_{i:03d}"))
    return images


def split_manifest(records: Iterable[tuple[str, int]], val_fraction: float,
                   seed: int) -> Manifest:
    """Assign stratified train/val splits to (path, label) pairs.

    Per-class val counts follow floor-plus-largest-remainder so the overall
    fraction is honored as closely as integers allow; every class keeps at
    least one image on each side.  Deterministic under the seed.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ManifestError(f"val_fraction must be in (0, 1), got {val_fraction}")
    pairs = [(path, int(label)) for path, label in records]
    by_class: dict[int, list[int]] = {}
    for idx, (_, label) in enumerate(pairs):
        by_class.setdefault(label, []).append(idx)
    for c, idxs in sorted(by_class.items()):
        if len(idxs) < 2:
            raise ManifestError(f"class {c} has {len(idxs)} image(s), need at least 2")

    classes = sorted(by_class)
    targets = {c: len(by_class[c]) * val_fraction for c in classes}
    n_val = {c: int(math.floor(targets[c])) for c in classes}
    leftover = round(sum(targets.values())) - sum(n_val.values())
    for c in sorted(classes, key=lambda c: (-(targets[c] - n_val[c]), c)):
        if leftover <= 0:
            break
        n_val[c] += 1
        leftover -= 1
    for c in classes:
        n_val[c] = min(max(n_val[c], 1), len(by_class[c]) - 1)

    split_of = {}
    for c in classes:
        order = derive(seed, f"split.class{c}").permutation(len(by_class[c]))
        for rank, pos in enumerate(order):
            split_of[by_class[c][pos]] = "val" if rank < n_val[c] else "train"

    out = [ManifestRecord(path=p, label=l, split=split_of[i])
           for i, (p, l) in enumerate(pairs)]
    _validate_records(out)
    return Manifest(records=out)


def generate_dataset_dir(out_dir: str | Path, n_per_class: int, image_w: int,
                         image_h: int, seed: int,
                         val_fraction: float = 0.25) -> Manifest:
    """Write a synthetic dataset (PPM files + manifest.json) to a directory.
    The images and the split are built before the directory is made, so
    sizes they refuse leave no trace on disk."""
    out_dir = Path(out_dir)
    images = synth_dataset(n_per_class, image_w, image_h, seed)
    names = [(f"{img.source_id}.ppm", img.label) for img in images]
    manifest = replace(split_manifest(names, val_fraction, seed), root=out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (name, _), img in zip(names, images):
        write_ppm(out_dir / name, img.pixels)
    save_manifest(out_dir / "manifest.json", manifest)
    return manifest

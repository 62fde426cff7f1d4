"""Binary checkpoint files.

Layout (all integers little-endian):

    magic "HPCK" | u16 version (=2) | u8 kind (0 patchwise, 1 imagewise)
    | u32 header_len | header JSON | u32 n_params
    | per param: u16 name_len | name utf-8 | u8 rank | rank * u32 dims
                 | float32 payload (row-major)
    | u32 crc32 over everything before it

The header JSON carries {"spec": ..., "meta": ...} in canonical form (sorted
keys, no whitespace) so identical inputs serialize to identical bytes.  The
spec is the network's kind and sizes (``NetworkSpec.to_dict``); version 1
headers also listed every layer and do not load.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .model import _TRAINABLE_ROLES, NetworkSpec, _param_entries
from .tensor import Tensor

__all__ = [
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointKindError",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"HPCK"
VERSION = 2
_KIND_CODES = {"patchwise": 0, "imagewise": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class CheckpointError(Exception):
    """Base class for checkpoint problems."""


class CheckpointFormatError(CheckpointError):
    """Bad magic, unsupported version, truncation, checksum mismatch, or a
    header or tensor list that is not a canonical network's."""


class CheckpointKindError(CheckpointError):
    """A patch-wise file offered where an image-wise one is needed, or
    vice versa."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path: str | Path, spec: NetworkSpec, params: dict[str, Tensor],
                    meta: dict | None = None) -> None:
    """Write spec + meta + every parameter tensor (running stats included).
    Non-finite values are refused; the bytes go to a temporary file that is
    then renamed onto ``path``, so ``path`` never holds a partial file."""
    table = list(_param_entries(spec))
    missing = [n for n, _, shape in table if n not in params or params[n].shape != shape]
    if missing:
        raise CheckpointError(f"params lack tensors of the spec's shapes: {missing}")
    non_finite = [n for n, _, _ in table if not np.isfinite(params[n].data).all()]
    if non_finite:
        raise CheckpointError(f"refusing to save non-finite values in {non_finite}")

    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", VERSION)
    out += struct.pack("<B", _KIND_CODES[spec.kind])
    header = _canonical_json({"spec": spec.to_dict(), "meta": meta or {}})
    out += struct.pack("<I", len(header))
    out += header
    out += struct.pack("<I", len(table))
    for name, _, _ in table:
        t = params[name]
        encoded = name.encode("utf-8")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("<B", t.ndim)
        for d in t.shape:
            out += struct.pack("<I", d)
        out += np.ascontiguousarray(t.data, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(bytes(out))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointFormatError("file truncated")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path, expect_kind: str | None = None
                    ) -> tuple[NetworkSpec, dict[str, Tensor], dict]:
    """Read a checkpoint back; returns (spec, params, meta).

    The checksum is verified before anything is interpreted.  Only the two
    canonical stacks load: the stored spec must equal the one its sizes
    rebuild (``NetworkSpec.from_dict``), and the stored (name, shape)
    sequence must equal that spec's ``_param_entries`` table.  Every
    ``CheckpointError`` raised names ``path``.
    """
    buf = Path(path).read_bytes()
    try:
        return _parse(buf, expect_kind)
    except CheckpointError as e:
        raise type(e)(f"checkpoint {path}: {e}") from e


def _parse(buf: bytes, expect_kind: str | None
           ) -> tuple[NetworkSpec, dict[str, Tensor], dict]:
    if len(buf) < len(MAGIC) + 4:
        raise CheckpointFormatError("file truncated")
    if buf[:len(MAGIC)] != MAGIC:
        raise CheckpointFormatError(f"bad magic {buf[:len(MAGIC)]!r}")
    stored_crc = struct.unpack("<I", buf[-4:])[0]
    actual_crc = zlib.crc32(buf[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointFormatError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )

    r = _Reader(buf[:-4])
    r.take(len(MAGIC))
    version = r.u16()
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported version {version} (this build reads {VERSION})")
    kind_code = r.u8()
    if kind_code not in _KIND_NAMES:
        raise CheckpointFormatError(f"unknown network kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointKindError(f"expected a {expect_kind} checkpoint, got {kind}")

    header_len = r.u32()
    try:
        header = json.loads(r.take(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"bad header JSON: {e}") from e
    meta = header.get("meta", {}) if isinstance(header, dict) else None
    if not isinstance(meta, dict):
        raise CheckpointFormatError("header and its meta must be JSON objects")
    try:
        spec = NetworkSpec.from_dict(header.get("spec"))
    except ValueError as e:
        raise CheckpointFormatError(f"bad network spec in header: {e}") from e
    if spec.kind != kind:
        raise CheckpointFormatError(
            f"kind byte says {kind} but the stored spec is {spec.kind}"
        )

    table = list(_param_entries(spec))
    n_params = r.u32()
    if n_params != len(table):
        raise CheckpointFormatError(
            f"{n_params} tensors stored but the network spec has {len(table)}")
    params: dict[str, Tensor] = {}
    for want_name, role, want_shape in table:
        try:
            name = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointFormatError(f"tensor name is not UTF-8: {e}") from None
        shape = tuple(r.u32() for _ in range(r.u8()))
        if (name, shape) != (want_name, want_shape):
            raise CheckpointFormatError(
                f"stored tensor {name} {list(shape)} where the network spec has "
                f"{want_name} {list(want_shape)}")
        data = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)
        params[name] = Tensor(data.copy(), requires_grad=role in _TRAINABLE_ROLES)
    if r.pos != len(r.buf):
        raise CheckpointFormatError(f"{len(r.buf) - r.pos} trailing bytes after parameters")
    return spec, params, meta

"""Checkpoint persistence: bit-exact round-trips, checksum verification,
and rejection of malformed or mismatched files."""

import struct
import zlib

import numpy as np
import pytest

from histopatch.checkpoint import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointKindError,
    load_checkpoint,
    save_checkpoint,
)
from histopatch.model import (
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    init_params,
    trainable_names,
)


@pytest.fixture(scope="module")
def small_pw():
    spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
    return spec, init_params(spec, seed=0)


def test_roundtrip_restores_everything(tmp_path, small_pw):
    spec, params = small_pw
    meta = {"stage": "patchwise", "seed": 0, "note": "unit"}
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params, meta)
    spec2, params2, meta2 = load_checkpoint(path)
    assert spec2 == spec
    assert meta2 == meta
    assert set(params2) == set(params)
    for name in params:
        assert np.array_equal(params2[name].data, params[name].data), name


def test_save_is_deterministic(tmp_path, small_pw):
    spec, params = small_pw
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, spec, params, {"k": 1})
    save_checkpoint(b, spec, params, {"k": 1})
    assert a.read_bytes() == b.read_bytes()


def test_save_load_save_is_bit_identical(tmp_path, small_pw):
    spec, params = small_pw
    first = tmp_path / "first.ckpt"
    second = tmp_path / "second.ckpt"
    save_checkpoint(first, spec, params, {"seed": 3})
    spec2, params2, meta2 = load_checkpoint(first)
    save_checkpoint(second, spec2, params2, meta2)
    assert first.read_bytes() == second.read_bytes()


def test_trainable_flags_restored(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    _, params2, _ = load_checkpoint(path)
    names = set(trainable_names(spec))
    for name, t in params2.items():
        assert t.requires_grad == (name in names), name


def test_expect_kind(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    load_checkpoint(path, expect_kind="patchwise")
    with pytest.raises(CheckpointKindError):
        load_checkpoint(path, expect_kind="imagewise")


def test_imagewise_kind_byte(tmp_path):
    spec = canonical_imagewise_spec(n_patches=2, feature_depth=2, head_depth=8)
    params = init_params(spec, seed=1)
    path = tmp_path / "iw.ckpt"
    save_checkpoint(path, spec, params, {"stage": "imagewise"})
    assert path.read_bytes()[6] == 1  # kind byte after magic + version
    spec2, _, _ = load_checkpoint(path, expect_kind="imagewise")
    assert spec2.kind == "imagewise"


def test_flipped_payload_bit_fails_checksum(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="checksum"):
        load_checkpoint(path)


def test_bad_magic(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_file(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 3])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_tiny_file(tmp_path):
    path = tmp_path / "stub.ckpt"
    path.write_bytes(b"HP")
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(path)


def test_unsupported_version(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    body = bytes(raw[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_missing_param_on_save(tmp_path, small_pw):
    spec, params = small_pw
    partial = dict(params)
    del partial["00.weight"]
    with pytest.raises(CheckpointError, match="00.weight"):
        save_checkpoint(tmp_path / "bad.ckpt", spec, partial)


def test_non_finite_tensor_refused(tmp_path, small_pw):
    spec, params = small_pw
    bad = dict(params)
    bad["01.running_var"] = params["01.running_var"].copy()
    bad["01.running_var"].data[0] = np.inf
    path = tmp_path / "bad.ckpt"
    with pytest.raises(CheckpointError, match="01.running_var"):
        save_checkpoint(path, spec, bad)
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary


def test_save_replaces_existing_file_whole(tmp_path, small_pw):
    spec, params = small_pw
    path = tmp_path / "pw.ckpt"
    path.write_bytes(b"stale")
    save_checkpoint(path, spec, params)
    load_checkpoint(path)
    assert [p.name for p in tmp_path.iterdir()] == ["pw.ckpt"]


def test_running_stats_persisted(tmp_path, small_pw):
    spec, params = small_pw
    # give the running stats distinctive values, as training would
    for name, t in params.items():
        if "running" in name:
            t.data[:] = np.linspace(0.1, 0.9, t.size, dtype=np.float32)
    path = tmp_path / "pw.ckpt"
    save_checkpoint(path, spec, params)
    _, params2, _ = load_checkpoint(path)
    for name, t in params.items():
        if "running" in name:
            assert np.array_equal(params2[name].data, t.data), name

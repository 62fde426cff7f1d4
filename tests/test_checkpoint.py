"""Checkpoint persistence: bit-exact round-trips, checksum verification,
and rejection of malformed or mismatched files."""

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
    _param_entries,
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    init_params,
)
from histopatch.tensor import Tensor

from helpers import IMAGEWISE_BAD, PATCHWISE_BAD, checkpoint_parts, write_hpck


@pytest.fixture(scope="module")
def small_pw():
    spec = canonical_patchwise_spec(base_width=2, feature_depth=3)
    return spec, init_params(spec, seed=0)


@pytest.fixture(scope="module")
def small_iw():
    spec = canonical_imagewise_spec(n_patches=2, feature_depth=2, head_depth=8)
    return spec, init_params(spec, seed=1)


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
    assert list(params2) == [name for name, _, _ in _param_entries(spec)]
    for name, role, _ in _param_entries(spec):
        assert params2[name].requires_grad == (role in ("weight", "bias", "gamma", "beta")), name


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
    path = tmp_path / "pw.ckpt"
    write_hpck(path, 0, *checkpoint_parts(*small_pw), version=9)
    with pytest.raises(CheckpointFormatError, match="version"):
        load_checkpoint(path)


def test_version_1_file_refused(tmp_path, small_pw):
    # version 1 headers listed every layer; there is no loader for them
    path = tmp_path / "pw.ckpt"
    write_hpck(path, 0, *checkpoint_parts(*small_pw), version=1)
    with pytest.raises(CheckpointFormatError,
                       match=r"unsupported version 1 \(this build reads 2\)"):
        load_checkpoint(path)


def test_header_spec_is_kind_and_sizes(small_pw, small_iw):
    assert small_pw[0].to_dict() == {"kind": "patchwise", "base_width": 2, "feature_depth": 3}
    assert small_iw[0].to_dict() == {"kind": "imagewise", "n_patches": 2, "feature_depth": 2,
                                     "head_depth": 8, "dropout_rate": 0.5}


def test_crafting_helper_writes_what_save_writes(tmp_path, small_pw):
    spec, params = small_pw
    saved, crafted = tmp_path / "saved.ckpt", tmp_path / "crafted.ckpt"
    save_checkpoint(saved, spec, params, {"seed": 3})
    write_hpck(crafted, 0, *checkpoint_parts(spec, params, {"seed": 3}))
    assert crafted.read_bytes() == saved.read_bytes()


# the error each PATCHWISE_BAD case must raise, for the base_width=2,
# feature_depth=3 stack (98 tensors)
_PATCHWISE_ERRORS = {
    "5x5 kernel under a 3x3 spec":
        r"stored tensor 03\.weight \[2, 2, 5, 5\] where the network spec has "
        r"03\.weight \[2, 2, 3, 3\]",
    "duplicate name": "99 tensors stored but the network spec has 98",
    "missing tensor": "97 tensors stored but the network spec has 98",
    "extra tensor": "99 tensors stored but the network spec has 98",
    "meta is not an object": "header and its meta must be JSON objects",
    "name is not UTF-8": "tensor name is not UTF-8",
    "base_width is a string": "base_width must be an integer, got '8'",
    "base_width is a bool": "base_width must be an integer, got True",
    "base_width is 0": "base_width and feature_depth must be >= 1",
    "layers hold a number": "not the canonical patchwise stack",
    "n_classes is stored": "not the canonical patchwise stack",
}


@pytest.mark.parametrize("case", list(PATCHWISE_BAD))
def test_malformed_patchwise_file_refused(tmp_path, small_pw, case):
    path = tmp_path / "bad.ckpt"
    write_hpck(path, 0, *PATCHWISE_BAD[case](*checkpoint_parts(*small_pw)))
    with pytest.raises(CheckpointFormatError, match=_PATCHWISE_ERRORS[case]):
        load_checkpoint(path)


# the error each IMAGEWISE_BAD case must raise, for the n_patches=2,
# feature_depth=2, head_depth=8 stack (48 tensors)
_IMAGEWISE_ERRORS = {
    "M7 block removed": "42 tensors stored but the network spec has 48",
    "dropout_rate is a string": "dropout_rate must be a number, got '0.5'",
    "dropout_rate is a bool": "dropout_rate must be a number, got True",
    "dropout_rate is 1.0": r"dropout rate must be in \[0, 1\), got 1.0",
    "dropout_rate missing": "dropout_rate must be a number, got None",
    "n_patches is null": "n_patches must be an integer, got None",
}


@pytest.mark.parametrize("case", list(IMAGEWISE_BAD))
def test_malformed_imagewise_file_refused(tmp_path, small_iw, case):
    path = tmp_path / "bad.ckpt"
    write_hpck(path, 1, *IMAGEWISE_BAD[case](*checkpoint_parts(*small_iw)))
    with pytest.raises(CheckpointFormatError, match=_IMAGEWISE_ERRORS[case]):
        load_checkpoint(path)


def test_misshapen_param_refused_on_save(tmp_path, small_pw):
    spec, params = small_pw
    bad = dict(params)
    bad["03.weight"] = Tensor(np.zeros((2, 2, 5, 5), np.float32))
    with pytest.raises(CheckpointError, match="03.weight"):
        save_checkpoint(tmp_path / "bad.ckpt", spec, bad)
    assert list(tmp_path.iterdir()) == []


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

"""What the bits hang on: every tensor's name, role and shape in checkpoint
order for the paper-size stacks, and the dropout streams' indices.  Init
streams are keyed ``init.<name>`` and dropout streams by layer index, so a
silent renumbering would change every weight and mask without failing any
numeric test."""

import numpy as np
import pytest

from histopatch import ops
from histopatch.model import (
    _param_entries,
    canonical_imagewise_spec,
    canonical_patchwise_spec,
    init_params,
    network_forward,
)
from histopatch.tensor import Tensor

PATCHWISE_16_16 = [
    ("00.weight", "weight", (16, 3, 3, 3)), ("00.bias", "bias", (16,)),
    ("01.gamma", "gamma", (16,)), ("01.beta", "beta", (16,)),
    ("01.running_mean", "running_mean", (16,)), ("01.running_var", "running_var", (16,)),
    ("03.weight", "weight", (16, 16, 3, 3)), ("03.bias", "bias", (16,)),
    ("04.gamma", "gamma", (16,)), ("04.beta", "beta", (16,)),
    ("04.running_mean", "running_mean", (16,)), ("04.running_var", "running_var", (16,)),
    ("06.weight", "weight", (32, 16, 2, 2)), ("06.bias", "bias", (32,)),
    ("07.gamma", "gamma", (32,)), ("07.beta", "beta", (32,)),
    ("07.running_mean", "running_mean", (32,)), ("07.running_var", "running_var", (32,)),
    ("09.weight", "weight", (32, 32, 3, 3)), ("09.bias", "bias", (32,)),
    ("10.gamma", "gamma", (32,)), ("10.beta", "beta", (32,)),
    ("10.running_mean", "running_mean", (32,)), ("10.running_var", "running_var", (32,)),
    ("12.weight", "weight", (32, 32, 3, 3)), ("12.bias", "bias", (32,)),
    ("13.gamma", "gamma", (32,)), ("13.beta", "beta", (32,)),
    ("13.running_mean", "running_mean", (32,)), ("13.running_var", "running_var", (32,)),
    ("15.weight", "weight", (64, 32, 2, 2)), ("15.bias", "bias", (64,)),
    ("16.gamma", "gamma", (64,)), ("16.beta", "beta", (64,)),
    ("16.running_mean", "running_mean", (64,)), ("16.running_var", "running_var", (64,)),
    ("18.weight", "weight", (64, 64, 3, 3)), ("18.bias", "bias", (64,)),
    ("19.gamma", "gamma", (64,)), ("19.beta", "beta", (64,)),
    ("19.running_mean", "running_mean", (64,)), ("19.running_var", "running_var", (64,)),
    ("21.weight", "weight", (64, 64, 3, 3)), ("21.bias", "bias", (64,)),
    ("22.gamma", "gamma", (64,)), ("22.beta", "beta", (64,)),
    ("22.running_mean", "running_mean", (64,)), ("22.running_var", "running_var", (64,)),
    ("24.weight", "weight", (128, 64, 2, 2)), ("24.bias", "bias", (128,)),
    ("25.gamma", "gamma", (128,)), ("25.beta", "beta", (128,)),
    ("25.running_mean", "running_mean", (128,)), ("25.running_var", "running_var", (128,)),
    ("27.weight", "weight", (128, 128, 3, 3)), ("27.bias", "bias", (128,)),
    ("28.gamma", "gamma", (128,)), ("28.beta", "beta", (128,)),
    ("28.running_mean", "running_mean", (128,)), ("28.running_var", "running_var", (128,)),
    ("30.weight", "weight", (128, 128, 3, 3)), ("30.bias", "bias", (128,)),
    ("31.gamma", "gamma", (128,)), ("31.beta", "beta", (128,)),
    ("31.running_mean", "running_mean", (128,)), ("31.running_var", "running_var", (128,)),
    ("33.weight", "weight", (128, 128, 3, 3)), ("33.bias", "bias", (128,)),
    ("34.gamma", "gamma", (128,)), ("34.beta", "beta", (128,)),
    ("34.running_mean", "running_mean", (128,)), ("34.running_var", "running_var", (128,)),
    ("36.weight", "weight", (128, 128, 3, 3)), ("36.bias", "bias", (128,)),
    ("37.gamma", "gamma", (128,)), ("37.beta", "beta", (128,)),
    ("37.running_mean", "running_mean", (128,)), ("37.running_var", "running_var", (128,)),
    ("39.weight", "weight", (128, 128, 3, 3)), ("39.bias", "bias", (128,)),
    ("40.gamma", "gamma", (128,)), ("40.beta", "beta", (128,)),
    ("40.running_mean", "running_mean", (128,)), ("40.running_var", "running_var", (128,)),
    ("42.weight", "weight", (128, 128, 3, 3)), ("42.bias", "bias", (128,)),
    ("43.gamma", "gamma", (128,)), ("43.beta", "beta", (128,)),
    ("43.running_mean", "running_mean", (128,)), ("43.running_var", "running_var", (128,)),
    ("45.weight", "weight", (16, 128, 1, 1)), ("45.bias", "bias", (16,)),
    ("46.gamma", "gamma", (16,)), ("46.beta", "beta", (16,)),
    ("46.running_mean", "running_mean", (16,)), ("46.running_var", "running_var", (16,)),
    ("49.weight", "weight", (4, 16)), ("49.bias", "bias", (4,)),
]
IMAGEWISE_12_16_64 = [
    ("00.weight", "weight", (64, 192, 3, 3)), ("00.bias", "bias", (64,)),
    ("01.gamma", "gamma", (64,)), ("01.beta", "beta", (64,)),
    ("01.running_mean", "running_mean", (64,)), ("01.running_var", "running_var", (64,)),
    ("03.weight", "weight", (64, 64, 3, 3)), ("03.bias", "bias", (64,)),
    ("04.gamma", "gamma", (64,)), ("04.beta", "beta", (64,)),
    ("04.running_mean", "running_mean", (64,)), ("04.running_var", "running_var", (64,)),
    ("06.weight", "weight", (128, 64, 2, 2)), ("06.bias", "bias", (128,)),
    ("07.gamma", "gamma", (128,)), ("07.beta", "beta", (128,)),
    ("07.running_mean", "running_mean", (128,)), ("07.running_var", "running_var", (128,)),
    ("09.weight", "weight", (128, 128, 3, 3)), ("09.bias", "bias", (128,)),
    ("10.gamma", "gamma", (128,)), ("10.beta", "beta", (128,)),
    ("10.running_mean", "running_mean", (128,)), ("10.running_var", "running_var", (128,)),
    ("12.weight", "weight", (128, 128, 3, 3)), ("12.bias", "bias", (128,)),
    ("13.gamma", "gamma", (128,)), ("13.beta", "beta", (128,)),
    ("13.running_mean", "running_mean", (128,)), ("13.running_var", "running_var", (128,)),
    ("15.weight", "weight", (256, 128, 2, 2)), ("15.bias", "bias", (256,)),
    ("16.gamma", "gamma", (256,)), ("16.beta", "beta", (256,)),
    ("16.running_mean", "running_mean", (256,)), ("16.running_var", "running_var", (256,)),
    ("18.weight", "weight", (64, 256, 1, 1)), ("18.bias", "bias", (64,)),
    ("19.gamma", "gamma", (64,)), ("19.beta", "beta", (64,)),
    ("19.running_mean", "running_mean", (64,)), ("19.running_var", "running_var", (64,)),
    ("22.weight", "weight", (256, 64)), ("22.bias", "bias", (256,)),
    ("25.weight", "weight", (128, 256)), ("25.bias", "bias", (128,)),
    ("28.weight", "weight", (4, 128)), ("28.bias", "bias", (4,)),
]


def test_patchwise_table():
    assert list(_param_entries(canonical_patchwise_spec(16, 16))) == PATCHWISE_16_16


def test_imagewise_table():
    assert list(_param_entries(canonical_imagewise_spec(12, 16, 64))) == IMAGEWISE_12_16_64


def test_dropout_streams_are_layers_24_and_27():
    spec = canonical_imagewise_spec(12, 16, 64)
    params = init_params(spec, seed=0)
    x = Tensor(np.random.default_rng(0).uniform(0, 1, (2, 192, 4, 4)).astype(np.float32))
    asked = []

    def dropout_rng(layer):
        asked.append(layer)
        return np.random.default_rng(layer)

    network_forward(spec, params, x, "train", dropout_rng=dropout_rng)
    assert asked == [24, 27]


@pytest.mark.parametrize("spec, shape", [
    (canonical_patchwise_spec(2, 3), (1, 3, 16, 16)),
    (canonical_imagewise_spec(2, 3, 8), (1, 6, 8, 8)),
], ids=["patchwise", "imagewise"])
def test_unknown_mode_refused_before_any_op(spec, shape, monkeypatch):
    def no_op(*args, **kwargs):
        raise AssertionError("an op ran")

    for name in ("conv2d", "batchnorm2d", "relu", "global_avg_pool", "linear"):
        monkeypatch.setattr(ops, name, no_op)
    params = init_params(spec, seed=0)
    with pytest.raises(ValueError, match="mode must be 'train' or 'eval', got 'bogus'"):
        network_forward(spec, params, Tensor(np.zeros(shape, np.float32)), "bogus")

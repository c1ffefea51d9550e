"""Tests for the GPU device spec."""

import pytest

from repro.errors import HardwareModelError
from repro.hardware import MI60, GPUSpec


class TestMemory:
    def test_mi60_capacity(self):
        assert MI60.memory_bytes == 16 * 1024**3


class TestSpecValidation:
    def test_invalid_specs(self):
        with pytest.raises(HardwareModelError):
            GPUSpec("bad", 0, 1, 1.0)
        with pytest.raises(HardwareModelError):
            GPUSpec("bad", 4, 0, 1.0)
        with pytest.raises(HardwareModelError):
            GPUSpec("bad", 4, 1, 0.0)

    def test_mi60_shape(self):
        assert MI60.num_cus == 64

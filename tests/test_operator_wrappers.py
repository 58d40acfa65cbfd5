"""Tests for the public measurement helpers."""

import pytest

from repro.matrix import Identity, Prefix, Total
from repro.operators import laplace_noise_scale


class TestMeasurementWrappers:
    def test_laplace_noise_scale_is_public(self):
        assert laplace_noise_scale(Identity(10), 0.5) == pytest.approx(2.0)
        assert laplace_noise_scale(Prefix(10), 1.0) == pytest.approx(10.0)
        assert laplace_noise_scale(Total(10), 2.0) == pytest.approx(0.5)

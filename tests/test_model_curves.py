"""Throughput curves: interpolation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CalibrationError
from repro.model import ThroughputCurve, instruction_curves, shared_curve


def curve():
    return ThroughputCurve((1.0, 4.0, 8.0, 16.0), (1.0, 4.0, 7.0, 8.0))


class TestInterpolation:
    def test_exact_at_samples(self):
        c = curve()
        for x, y in zip(c.xs, c.ys):
            assert c.at(x) == y

    def test_linear_between_samples(self):
        assert curve().at(2.5) == pytest.approx(2.5)
        assert curve().at(12.0) == pytest.approx(7.5)

    def test_clamped_below(self):
        assert curve().at(0.5) == 1.0

    def test_clamped_above(self):
        assert curve().at(100.0) == 8.0

    def test_bad_curves_rejected(self):
        with pytest.raises(CalibrationError):
            ThroughputCurve((), ())
        with pytest.raises(CalibrationError):
            ThroughputCurve((1.0, 1.0), (1.0, 2.0))
        with pytest.raises(CalibrationError):
            ThroughputCurve((1.0, 2.0), (1.0,))

    @given(st.floats(min_value=0.0, max_value=64.0, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_interpolation_within_sample_range(self, x):
        c = curve()
        value = c.at(x)
        assert min(c.ys) <= value <= max(c.ys)


class TestFromCalibration:
    def test_instruction_curves_cover_all_types(self, tables):
        curves = instruction_curves(tables)
        assert set(curves) == {"I", "II", "III", "IV"}
        for c in curves.values():
            assert c.at(16) > 0

    def test_shared_curve_in_bytes_per_second(self, tables, gpu):
        c = shared_curve(tables)
        assert c.at(32) > 0.5 * gpu.spec.peak_shared_bandwidth

    def test_interpolated_warp_counts(self, tables):
        curves = instruction_curves(tables)
        mid = curves["II"].at(3)
        assert curves["II"].at(2) <= mid <= curves["II"].at(4)

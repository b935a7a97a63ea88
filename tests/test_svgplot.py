import numpy as np
import pytest

from qmsd import svgplot
from oracles import pix_by_point, polylines_by_point


class TestLinePlot:
    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_axis_maps_arrays_like_floats(self, scale):
        # bit for bit, on values where numpy's log10 and math.log10 differ
        v = np.exp(np.random.default_rng(5).uniform(-40.0, 40.0, 4000))
        axis = svgplot._Axis(1e-17, 1e17, 470, 30, scale)
        assert axis.to_pix(v).tolist() == [pix_by_point(axis, u) for u in v.tolist()]

    @pytest.mark.parametrize("xscale,yscale", [("linear", "linear"), ("log", "linear"),
                                               ("linear", "log"), ("log", "log")])
    def test_polylines_equal_per_point_rendering(self, monkeypatch, xscale, yscale):
        rng = np.random.default_rng(11)
        x = np.concatenate(([0.0, -1.0], np.geomspace(1e-3, 1e3, 97)))
        series = [
            {"x": x, "y": rng.uniform(-0.5, 3.0, x.size) * x, "label": "a"},
            {"x": x[::-1], "y": np.cos(x), "dash": "6 3"},
            {"x": [2.0], "y": [0.75], "label": "one point"},
        ]
        got, expected = polylines_by_point(series, monkeypatch, xscale=xscale,
                                           yscale=yscale)
        assert got == expected
        # the log masks drop points, and the one-point series stays a point
        assert (len(got[0].split()) < x.size) == ("log" in (xscale, yscale))
        assert got[2].count(",") == 1

    def test_series_without_points_on_a_log_axis(self, monkeypatch):
        series = [{"x": [1.0, 2.0, 3.0], "y": [-1.0, 0.0, -2.0], "label": "none"},
                  {"x": [], "y": []},
                  {"x": [1.0, 10.0], "y": [2.0, 5.0]}]
        got, expected = polylines_by_point(series, monkeypatch, xscale="log",
                                           yscale="log")
        assert got == expected
        assert got[:2] == ["", ""]

    def test_log_polyline_rounding_uses_math_log10(self, monkeypatch):
        # the middle point lands within an ulp of a .xx5 pixel: 333.33 with
        # math.log10, 333.34 with numpy 2.4's SIMD log10 on AVX-512
        series = [{"x": [1.0, 3.7766477332060533, 24.02501798281538],
                   "y": [1.0, 2.0, 3.0]}]
        got, expected = polylines_by_point(series, monkeypatch, xscale="log")
        assert got == expected

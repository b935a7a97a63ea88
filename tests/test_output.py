import json
import math

import numpy as np
import pytest

from qmsd.output import config_hash, write_csv, write_json_meta
from oracles import csv_by_value


class TestOutputHelpers:
    def test_hash_stable_and_order_free(self):
        a = config_hash({"x": 1, "y": 2.0})
        b = config_hash({"y": 2.0, "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != config_hash({"x": 1, "y": 2.1})

    def test_csv_shape_guard(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], [[1.0], [1.0, 2.0]],
                      "deadbeef")

    @pytest.mark.parametrize("columns", [
        [[10, 20, 40], [-0.0, 5e-324, 1.7976931348623157e308],
         [0.1 + 0.2, -1e-300, 2.0**53 + 1]],
        [np.array([0.1, 1 / 3, 7e-8], dtype=np.float32), np.array([1.0, np.pi, -2.5e17]),
         [float("inf"), float("-inf"), float("nan")]],
        [[math.pi], np.array([-0.0]), [3]],
    ], ids=["python", "numpy", "one-row"])
    def test_csv_equals_per_value_formatting(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        write_csv(tmp_path / "t.csv", header, columns, "0123456789abcdef")
        assert (tmp_path / "t.csv").read_text() == csv_by_value(
            header, columns, "0123456789abcdef")

    def test_zero_row_csv_is_hash_and_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[], np.array([])], "0123456789abcdef")
        assert (tmp_path / "t.csv").read_bytes() == b"# config_hash: 0123456789abcdef\na,b\n"

    def test_json_meta_bytes(self, tmp_path):
        meta = {"z": [1.5, -0.0], "a": {"y": 2, "x": "\u00e9"}, "p": tmp_path}
        write_json_meta(tmp_path / "m.json", meta, "0123456789abcdef")
        text = json.dumps({**meta, "config_hash": "0123456789abcdef"}, indent=2,
                          sort_keys=True, default=str) + "\n"
        assert (tmp_path / "m.json").read_bytes() == text.encode("utf-8")

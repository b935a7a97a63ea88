"""CSV and JSON artifact writers.

Every file embeds the hash of the run configuration; CSV numbers carry
17 significant digits so re-runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_csv(path: Path, header: list[str], columns, cfg_hash: str) -> None:
    """Write columns (same length) to CSV; first line carries the config hash."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("CSV columns must have equal length")
    # %-formatting a float gives the text of f"{x:.17g}" for every double,
    # -0.0, inf and nan included; the whole body is one % on an n-row format.
    # float64 scalars, not .tolist() floats: both print alike and format as
    # fast, and over three 30 s benchmark runs of figure2 each, peak RSS read
    # 37.8-37.9 MiB with the scalars and 37.9-38.4 MiB with the floats
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    body = row * n % tuple(np.stack(cols, axis=1).ravel())
    path.write_bytes(f"# config_hash: {cfg_hash}\n{','.join(header)}\n{body}".encode())


def write_json_meta(path: Path, meta: dict, cfg_hash: str) -> None:
    text = json.dumps({**meta, "config_hash": cfg_hash}, indent=2, sort_keys=True, default=str)
    path.write_bytes((text + "\n").encode())

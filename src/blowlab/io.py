"""Deterministic CSV/JSON writers and run-directory management."""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import numpy as np


def format_value(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    """RFC 4180 output with shortest round-trip doubles."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\r\n")


def write_json(path, payload):
    """Strict RFC 8259 JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _plain(obj):
    """`obj` with numpy values made Python ones and NaN or +-inf made None."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def new_run_dir(root, command: str) -> Path:
    """Timestamped run directory; re-runs never overwrite earlier ones."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    for k in range(10_000):
        candidate = root / f"{command}-{stamp}-{k:03d}"
        try:
            candidate.mkdir()
            return candidate
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a fresh run directory")


def output_root(config_out: str, cli_out: str | None) -> str:
    env = os.environ.get("BLOWLAB_OUT")
    return cli_out or env or config_out

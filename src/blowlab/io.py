"""Deterministic CSV/JSON writers and run-directory management."""

from __future__ import annotations

import json
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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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

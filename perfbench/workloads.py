"""The three workloads: their inputs, what each pass observes, and the checks.

Each workload is a fixed list of `RunConfig` commands that one client
issues in sequence through `blowlab.cli.run`, waiting for each.  One such
list is a *pass*; the benchmark times passes.

- `shoot` and `march` are fixed configs whatever the seed: their split
  between stepping and decomposition changes sharply with `b0` (at
  b0 = 5e-3 the decomposition is lost after 12 steps instead of 27), so a
  seed that moved `b0` would move the layer split the workload exists for.
- `static` draws its 10 profile `b` values log-uniformly in [1e-4, 3e-3]
  from the seed and uses the seed as the `verify` sampler seed.

References were taken from blowlab 0.1.0 at `DEFAULT_SEED`.  On that seed
every observable is compared with them; on other seeds `static` compares
only the seed-independent observables and checks invariants.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCES = Path(__file__).with_name("references.json")
# Not byte identity: a new LAPACK path may change the last bits of every
# float, and criterion-style checks must survive that.
RTOL = 1e-6
# Derived summary columns recomputed from the written ones.
RTOL_DERIVED = 1e-12

WORKLOADS = ("shoot", "march", "static")

# Sampled rows of march's checkpoints.csv (every 20th checkpoint and the
# last) check the whole 6000-step trajectory, not just its first 20 steps.
# Columns left out are not stable to RTOL under a last-bit perturbation of
# the initial data: res_phi and res_hphi are converged to roundoff (~1e-13)
# and E4 moves by up to 1e-1 relative at the early checkpoints.
TRAJECTORY_EVERY = 20
TRAJECTORY_COLUMNS = ("t", "s", "lambda", "b", "kappa", "E", "E1", "E2",
                      "E2_hat", "u_max")

SHOOT_BRACKET = 6.95153980321595e-4  # what find_bracket returns for this config
SHOOT_BUDGET = 1
MARCH_STEPS = 6000
STATIC_N_B = 10
STATIC_B_RANGE = (1e-4, 3e-3)
MODULATION_B0 = (1e-2, 3e-3, 1e-3)
PROFILE_SUMMARY_HEADER = (
    "b", "c_b", "d_b", "norm_H", "norm_w8", "norm_H2", "flux_ratio",
    "ratio_H", "ratio_w8", "ratio_H2", "flux_scaled",
)
SUITES = ("hardy", "subpositivity", "coercivity_H", "coercivity_H2",
          "interpolation")


def static_b_values(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    lo, hi = np.log(STATIC_B_RANGE[0]), np.log(STATIC_B_RANGE[1])
    draws = np.exp(rng.uniform(lo, hi, STATIC_N_B))
    return tuple(float(b) for b in sorted(draws, reverse=True))


def commands(workload: str, seed: int) -> list:
    """The pass of `workload` as RunConfig objects, validated."""
    from blowlab.config import RunConfig

    if workload == "shoot":
        cfgs = [RunConfig(command="shoot", b0=3e-3, kappa_exit_factor=2e4,
                          max_steps=3000, bracket_lo=-SHOOT_BRACKET,
                          bracket_hi=SHOOT_BRACKET, budget=SHOOT_BUDGET)]
    elif workload == "march":
        cfgs = [RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4,
                          max_steps=MARCH_STEPS)]
    elif workload == "static":
        cfgs = [RunConfig(command="profile", grid_n=16384,
                          b_sweep=static_b_values(seed))]
        cfgs += [RunConfig(command="modulation", b0=b0) for b0 in MODULATION_B0]
        cfgs.append(RunConfig(command="verify", samples=400, seed=seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [c.validate() for c in cfgs]


# ---------------------------------------------------------------------------
# observing one pass
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def csv_digests(manifests) -> dict:
    """sha256 of every CSV a pass wrote, keyed by command index and name."""
    out = {}
    for k, m in enumerate(manifests):
        if m is None:
            continue
        for name in m["files"]:
            if name.endswith(".csv"):
                data = (Path(m["run_dir"]) / name).read_bytes()
                out[f"{k}:{name}"] = hashlib.sha256(data).hexdigest()
    return out


def observe(workload: str, manifests, probes) -> dict:
    """The observables of one pass; a failed command contributes none."""
    obs = {}
    if workload == "shoot":
        m = manifests[0]
        if m is not None:
            met = m["metrics"]
            obs["bracket_lo"] = met["bracket_lo"]
            obs["bracket_hi"] = met["bracket_hi"]
            obs["iterations"] = met["iterations"]
            obs["best_classification"] = met["best_classification"]
            _, rows = _read_csv(Path(m["run_dir"]) / "history.csv")
            obs["history"] = [[float(lo), float(hi)] for _, lo, hi in rows]
        obs["probes"] = [[p["a_plus"], p["classification"], p["steps"],
                          p["decompose_calls"], p["lambda"], p["b"]]
                         for p in probes]
    elif workload == "march":
        m = manifests[0]
        if m is not None:
            met = m["metrics"]
            obs["termination"] = met["termination"]
            obs["classification"] = met["classification"]
            obs["steps"] = met["steps"]
            header, rows = _read_csv(Path(m["run_dir"]) / "checkpoints.csv")
            col = {name: i for i, name in enumerate(header)}
            live = [r for r in rows if r[col["decomposed"]] == "1"]
            obs["checkpoints"] = len(rows)
            obs["live_checkpoints"] = len(live)
            if live:
                obs["last_live_step"] = int(live[-1][col["step"]])
                obs["last_live_lambda"] = float(live[-1][col["lambda"]])
                obs["last_live_b"] = float(live[-1][col["b"]])
            keep = rows[::TRAJECTORY_EVERY] + rows[-1:]
            obs["trajectory"] = [
                [int(r[col["step"]]), int(r[col["decomposed"]])]
                + [float(r[col[name]]) for name in TRAJECTORY_COLUMNS]
                for r in keep]
        for p in probes[:1]:
            # One decompose call per step until the first that fails, so
            # the call count is the step at which the decomposition was lost.
            obs["decompose_calls"] = p["decompose_calls"]
            obs["decompose_failures"] = p["decompose_failures"]
    else:
        prof = manifests[0]
        if prof is not None:
            header, rows = _read_csv(Path(prof["run_dir"]) / "summary.csv")
            obs["summary_header"] = list(header)
            obs["summary"] = [[float(v) for v in r] for r in rows]
        for b0, m in zip(MODULATION_B0, manifests[1:4]):
            if m is not None:
                fit = json.loads((Path(m["run_dir"]) / "fit.json").read_text())
                obs[f"fit_exponent_b{b0:g}"] = fit["exponent"]
        ver = manifests[4]
        if ver is not None:
            for name in SUITES:
                path = Path(ver["run_dir"]) / f"suite-{name}.json"
                suite = json.loads(path.read_text())
                obs[f"suite_{name}_worst_ratio"] = suite["worst_ratio"]
                obs[f"suite_{name}_violated"] = suite["violated"]
    return obs


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _same(a, b, rtol) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def _flatten(prefix, value):
    if isinstance(value, list):
        out = [(f"{prefix}.len", len(value))]
        for i, v in enumerate(value):
            out += _flatten(f"{prefix}[{i}]", v)
        return out
    return [(prefix, value)]


def seed_independent(workload: str, key: str) -> bool:
    if workload != "static":
        return True
    return key.startswith("fit_") or key == "summary_header"


def check(workload: str, seed: int, obs: dict, refs: dict,
          expected_b: tuple) -> list:
    """(check name, passed) for every value compared in one pass."""
    results = []
    for key, ref in refs.items():
        if seed != DEFAULT_SEED and not seed_independent(workload, key):
            continue
        if key not in obs:
            results.append((key, False))
            continue
        got = dict(_flatten(key, obs[key]))
        for name, want in _flatten(key, ref):
            results.append((name, name in got and _same(got[name], want, RTOL)))
    if workload == "static":
        results += _static_invariants(obs, expected_b)
    return results


def _static_invariants(obs: dict, expected_b: tuple) -> list:
    out = []
    rows = obs.get("summary")
    out.append(("summary.rows", rows is not None and len(rows) == len(expected_b)))
    for b_in, row in zip(expected_b, rows or []):
        r = dict(zip(PROFILE_SUMMARY_HEADER, row))
        b = r["b"]
        lb = math.log(1.0 / b)
        tag = f"summary[b={b_in:.6g}]"
        out.append((f"{tag}.b", b == b_in))
        out.append((f"{tag}.finite", all(math.isfinite(v) for v in row)))
        out.append((f"{tag}.positive_norms",
                    r["c_b"] > 0 and min(r["norm_H"], r["norm_w8"], r["norm_H2"]) > 0))
        derived = {
            "ratio_H": r["norm_H"] / (b**4 * lb**2),
            "ratio_w8": r["norm_w8"] / b**6,
            "ratio_H2": r["norm_H2"] * lb**2 / b**6,
            "flux_scaled": r["flux_ratio"] * lb / b**2,
        }
        for name, value in derived.items():
            out.append((f"{tag}.{name}", _same(r[name], value, RTOL_DERIVED)))
    for name in SUITES:
        out.append((f"suite_{name}.not_violated",
                    obs.get(f"suite_{name}_violated") is False))
        worst = obs.get(f"suite_{name}_worst_ratio")
        out.append((f"suite_{name}.worst_finite",
                    isinstance(worst, (int, float)) and math.isfinite(worst)))
    return out


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())

"""Command-line front door: one config file per run, one run directory out.

Usage: blowlab <config-path> [--out DIR].  The BLOWLAB_OUT environment
variable overrides the output root from the config; the flag overrides
both.  Exit status is 0 when every invariant asserted by the executed
command held, 1 when one did not, and 2 when the config could not be read
or parsed or the command raised.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__, flow, inequalities, modulation, profiles, radial
from .config import RunConfig, parse_config
from .io import new_run_dir, output_root, write_csv, write_json
from . import schema


def run(config: RunConfig, out_override: str | None = None) -> dict:
    """Execute one command and write its artifacts; returns the manifest.

    A command that raises still leaves a manifest in its run directory,
    with ok false, termination "error: <message>" and the files it wrote,
    before the exception propagates."""
    config.validate()
    root = output_root(config.out, out_override)
    run_dir = new_run_dir(root, config.command)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    handler = _HANDLERS[config.command]
    try:
        ok, termination, files, metrics = handler(config, run_dir)
    except Exception as exc:
        written = [p.name for p in run_dir.iterdir() if p.is_file()]
        _write_manifest(run_dir, config, started, False, f"error: {exc}", written, {})
        raise
    manifest = _write_manifest(run_dir, config, started, ok, termination, files, metrics)
    manifest["run_dir"] = str(run_dir)
    return manifest


def _write_manifest(run_dir, config, started, ok, termination, files, metrics) -> dict:
    manifest = dict(zip(schema.MANIFEST_JSON, (
        "blowlab", __version__, config.command, config.to_dict(), started,
        time.strftime("%Y-%m-%dT%H:%M:%S"), bool(ok), termination, sorted(files),
        metrics)))
    write_json(run_dir / "manifest.json", manifest)
    return manifest


def _cmd_modulation(config: RunConfig, run_dir):
    traj = modulation.integrate_reduced(config.b0, config.lambda0, config.s_end)
    rows = zip(traj.s, traj.t, traj.b, traj.lam)
    write_csv(run_dir / "trajectory.csv", schema.TRAJECTORY_CSV, rows)
    files = ["trajectory.csv", "fit.json"]
    deep = modulation.integrate_reduced(config.b0, config.lambda0, config.fit_s_end)
    fit = modulation.fit_blowup_law(deep)
    write_json(run_dir / "fit.json", dict(zip(schema.FIT_JSON, (
        fit.kappa, fit.exponent, fit.residual, fit.T_est, *fit.window))))
    metrics = {
        "sb_end": float(traj.s[-1] * traj.b[-1]),
        "exponent": fit.exponent,
        "lambda_decay": float(traj.lam[0] / traj.lam[-1]),
    }
    return True, "integrated", files, metrics


def _cmd_profile(config: RunConfig, run_dir):
    # the grid reaches 2M for Phi_M, and 4 B1 of the smallest b for its profiles
    y_max = max([config.grid_y_max, 2.0 * config.M]
                + [4.0 * profiles.zone_radii(b)[1] for b in config.b_sweep])
    grid = radial.make_grid(config.grid_y_min, y_max, config.grid_n)
    rows = []
    files = ["summary.csv"]
    ok = True
    for b in config.b_sweep:
        rep = profiles.error_Psi(b, grid, M=config.M)
        lb = profiles.log_binv(b)
        rows.append((
            b, rep.c_b, rep.d_b, rep.norm_H, rep.norm_w8, rep.norm_H2, rep.flux_ratio,
            rep.norm_H / (b**4 * lb**2), rep.norm_w8 / b**6,
            rep.norm_H2 * lb**2 / b**6, rep.flux_ratio * lb / b**2,
        ))
        name = schema.ERROR_REPORT_FILE.format(b)
        write_json(run_dir / name, dict(zip(schema.ERROR_REPORT_JSON, (
            "tilde", rep.b, rep.norm_H, rep.norm_w8, rep.norm_H2, rep.flux_ratio))))
        files.append(name)
        ok = ok and np.isfinite([rep.norm_H, rep.norm_w8, rep.norm_H2]).all()
    write_csv(run_dir / "summary.csv", schema.PROFILE_SUMMARY_CSV, rows)
    metrics = {"n_b": len(rows)}
    return bool(ok), "swept", files, metrics


def _write_run_series(traj, run_dir):
    cps = traj.checkpoints
    write_csv(run_dir / "checkpoints.csv", schema.CHECKPOINT_CSV, (c.row() for c in cps))
    files = ["checkpoints.csv"]
    mr = flow.modulation_residuals(traj)
    if mr["s"].size:
        write_csv(run_dir / "diagnostics.csv", schema.DIAGNOSTIC_CSV, zip(
            mr["s"], mr["b_mid"], mr["lam_res"], mr["b_res"],
            mr["E2_ratio"], mr["kappa_ratio"]))
        files.append("diagnostics.csv")
    ly = flow.lyapunov_series(traj)
    if len(ly["t"]):
        write_csv(run_dir / "lyapunov.csv", schema.LYAPUNOV_CSV,
                  zip(ly["t"], ly["E2hat_over_lam2"]))
        files.append("lyapunov.csv")
    return files


def _cmd_simulate(config: RunConfig, run_dir):
    traj = flow.simulate(config)
    files = _write_run_series(traj, run_dir)
    metrics = {
        "classification": traj.classification.value,
        "termination": traj.termination,
        "steps": traj.steps,
        "lambda_decay": traj.lambda_decay,
        "step_rejects": traj.step_rejects,
        "decompose_lost_step": traj.decompose_lost_step,
        "newton_iterations": traj.newton_iterations,
        "jacobian_builds": traj.jacobian_builds,
        "profile_builds": traj.profile_builds,
        "profile_serves": traj.profile_serves,
        "remeshes": traj.remeshes,
    }
    ok = traj.termination != "solver_failure"
    return ok, traj.classification.value, files, metrics


def _cmd_shoot(config: RunConfig, run_dir):
    result = flow.shoot(config)
    write_csv(run_dir / "history.csv", schema.SHOOT_HISTORY_CSV,
              ((k, lo, hi) for k, (lo, hi) in enumerate(result.history)))
    files = ["history.csv"] + _write_run_series(result.best, run_dir)
    metrics = {
        "iterations": result.iterations,
        "bracket_lo": result.bracket[0],
        "bracket_hi": result.bracket[1],
        "best_classification": result.best.classification.value,
        "best_lambda_decay": result.best.lambda_decay,
    }
    return True, result.best.classification.value, files, metrics


def _cmd_verify(config: RunConfig, run_dir):
    grid = inequalities.default_grid(M=config.M)
    files = []
    reports = []

    def sampler(offset=0):
        return inequalities.TestFunctionSampler(
            seed=config.seed + offset, family=config.family)

    reports.append(inequalities.hardy_suite(
        sampler(), max(50, config.samples // 4),
        grid=inequalities.default_grid(n=2 * config.grid_n)))
    reports.append(inequalities.subpositivity_suite(sampler(1), config.samples, grid=grid))
    reports.append(inequalities.coercivity_H_suite(sampler(2), config.samples // 2,
                                                   M=config.M, grid=grid))
    reports.append(inequalities.coercivity_H2_suite(sampler(3), config.samples // 2,
                                                    M=config.M, grid=grid))
    eps = 1e-4 * grid.nodes**2 * np.exp(-grid.nodes**2)
    reports.append(inequalities.interpolation_spotcheck(grid, eps, config.b0))
    for rep in reports:
        name = f"suite-{rep.name}.json"
        write_json(run_dir / name, rep.to_json_dict())
        files.append(name)
    violated = [r.name for r in reports if r.violated]
    metrics = {"suites": len(reports), "violated": violated}
    return not violated, "verified" if not violated else "violated", files, metrics


_HANDLERS = {
    "modulation": _cmd_modulation,
    "profile": _cmd_profile,
    "simulate": _cmd_simulate,
    "shoot": _cmd_shoot,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blowlab",
        description="Numerical laboratory for radial energy-critical blow up",
    )
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--out", default=None, help="override the output root")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
        manifest = run(config, out_override=args.out)
    except Exception as exc:  # a bad config or a module error: status 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(manifest["run_dir"])
    return 0 if manifest["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

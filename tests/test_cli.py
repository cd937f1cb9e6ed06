"""Config schema, orchestration, persistence, and determinism."""

import csv
import filecmp
import json
import os
import sys
import types
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import blowlab
from blowlab import cli, flow, profiles, schema
from blowlab.config import B_FLOOR_EXIT, LAMBDA0_MAX, RunConfig, parse_config

from conftest import CHECKPOINT_ATTRS, EXACT_COLUMNS


def test_minimal_config_gets_defaults():
    cfg = parse_config("command=modulation b0=0.01")
    assert cfg.command == "modulation"
    assert cfg.b0 == 0.01
    assert cfg.M == 50.0  # documented default


def test_window_rejection_names_the_window():
    with pytest.raises(ValueError, match=r"\(0, 0.05\)"):
        parse_config("command=modulation\nb0 = 0.2")


def test_the_window_end_itself_is_rejected_at_parse_time():
    # the profiles exist for 0 < b < B_STAR only, so b = 0.05 fails
    # before a run directory is made
    with pytest.raises(ValueError, match=r"b0=0.05 outside"):
        parse_config("command=simulate b0=0.05")
    with pytest.raises(ValueError, match=r"b_sweep=0.05 outside"):
        parse_config("command=profile b_sweep=0.05")


def test_a_sweep_whose_report_names_collide_is_rejected():
    # each b writes error-report-b{b:g}.json, so two b that print alike
    # would share one report and the manifest would list it twice
    for text in ("b_sweep=3e-3,3.0000001e-3", "b_sweep=1e-3,3e-3,1e-3"):
        with pytest.raises(ValueError, match=r"names one error report twice"):
            parse_config(f"command=profile grid_n=2048 {text}")
    assert parse_config("command=profile b_sweep=3e-3,3.001e-3").b_sweep == (3e-3, 3.001e-3)


def test_an_empty_sweep_is_rejected():
    with pytest.raises(ValueError, match=r"b_sweep must hold at least one b"):
        parse_config("command=profile b_sweep=")


def test_an_unparsable_sweep_names_its_key():
    # the same message as every other key, not float()'s bare one
    for val in ("abc", "3e-3,x"):
        with pytest.raises(ValueError, match=rf"^key 'b_sweep': cannot parse '{val}'$"):
            parse_config(f"command=profile b_sweep={val}")


def test_flow_b0_at_the_b_floor_is_rejected_at_parse_time(tmp_path):
    # the flow's profile grid resolves b down to B_FLOOR and a run ends
    # `b_floor` at B_FLOOR_EXIT, so a flow b0 at or below it cannot run
    for command in ("simulate", "shoot"):
        for b0 in (1e-4, B_FLOOR_EXIT):
            with pytest.raises(ValueError, match=r"above the flow's b floor"):
                parse_config(f"command={command} b0={b0!r}")
    for command in ("modulation", "verify"):
        assert parse_config(f"command={command} b0=1e-4").b0 == 1e-4
    cfg = parse_config("command=simulate b0=2.7e-4 max_steps=1")
    assert cli.run(cfg, out_override=str(tmp_path))["ok"]


def test_flow_lambda0_outside_its_window_is_rejected_at_parse_time():
    # a flow run is solved in units of lambda0, so a lambda0 outside
    # [1/LAMBDA0_MAX, LAMBDA0_MAX] would only be a rescaled copy of a run
    # inside it; at 8.6e-78 and 4.7e73 lambda^6 in lyapunov.csv over- or
    # underflows
    lo, hi = 1.0 / LAMBDA0_MAX, LAMBDA0_MAX
    for command in ("simulate", "shoot"):
        for lam in (1e200, 1e-200, 8.636168555094447e-78, 4.73015620804168e+73,
                    np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)):
            with pytest.raises(ValueError, match=rf"{command} needs lambda0 in .* "
                                                 r"got lambda0="):
                parse_config(f"command={command} lambda0={float(lam)!r}")
        for lam in (lo, hi):
            assert parse_config(f"command={command} lambda0={lam!r}").lambda0 == lam
    assert parse_config("command=modulation lambda0=1e100").lambda0 == 1e100


@pytest.mark.parametrize("lambda0", ["1e-30", "1e30"])
def test_flow_at_the_lambda0_edges_writes_a_finite_lyapunov_table(tmp_path, lambda0):
    # lambda^6 and lambda^2 of lyapunov.csv stay normal, with no numpy warning
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"command=simulate lambda0={lambda0} max_steps=2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([str(cfg_path), "--out", str(tmp_path / "runs")]) == 0
    (run_dir,) = (tmp_path / "runs").iterdir()
    rows = (run_dir / "lyapunov.csv").read_text().splitlines()
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert len(values) and np.isfinite(values).all()


def test_unknown_key_rejected_with_path():
    with pytest.raises(ValueError, match="whatever"):
        parse_config("command=modulation\nwhatever = 3")
    with pytest.raises(ValueError, match="grid.bogus"):
        parse_config("command=modulation\n[grid]\nbogus = 3")


def test_sections_prefix_keys():
    cfg = parse_config("command = simulate\n[grid]\ny_min = 1e-3\nn = 1024\n")
    assert cfg.grid_y_min == 1e-3 and cfg.grid_n == 1024


def test_invalid_command():
    with pytest.raises(ValueError, match="command"):
        parse_config("command=explode")
    # verify runs fourth-order suites, so only the C^4 families parse
    for family in ("random-spline", "nope"):
        with pytest.raises(ValueError, match="'gaussian-bumps', 'polynomial-decay'"):
            parse_config(f"command=verify family={family}")
    assert parse_config("command=verify family=polynomial-decay").family == "polynomial-decay"
    # a float that parses is finite, and s_end stays where b, lambda and T - t
    # are normal doubles; NaN in bracket_lo/hi is the "grow a bracket" marker
    for text in ("s_end=inf", "s_end=1e300", "fit_s_end=inf", "fit_s_end=nan",
                 "lambda0=inf", "lambda0=nan", "a_plus=inf", "a_plus=nan",
                 "kappa_exit_factor=inf", "grid_y_max=inf", "bracket_lo=inf",
                 "bracket_hi=-inf"):
        with pytest.raises(ValueError, match=text.split("=")[0]):
            parse_config(f"command=modulation {text}")
    cfg = parse_config("command=shoot bracket_lo=nan bracket_hi=nan s_end=1e280")
    assert np.isnan(cfg.bracket_lo) and cfg.s_end == 1e280
    # every b has one lower bound, and a modulation config's two closed-form
    # runs end on normal doubles, the deep one with the fit's 100-fold decay
    for text, match in (("command=verify b0=1e-300", r"smallest b, 1e-50"),
                        ("command=profile b_sweep=1e-54", r"smallest b, 1e-50"),
                        ("command=modulation fit_s_end=1e4", r"fit_s_end=.*100-fold"),
                        ("command=modulation b0=1e-28", r"fit_s_end=.*100-fold"),
                        ("command=modulation lambda0=1e200", "normal double"),
                        ("command=modulation lambda0=1e-200", "normal double")):
        with pytest.raises(ValueError, match=match):
            parse_config(text)


def test_run_dirs_are_append_only(tmp_path):
    cfg = parse_config("command=modulation b0=0.01 s_end=1e3 fit_s_end=1e8")
    m1 = cli.run(cfg, out_override=str(tmp_path))
    m2 = cli.run(cfg, out_override=str(tmp_path))
    assert m1["run_dir"] != m2["run_dir"]
    assert os.path.isdir(m1["run_dir"]) and os.path.isdir(m2["run_dir"])


def test_env_var_overrides_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOWLAB_OUT", str(tmp_path / "env-root"))
    cfg = parse_config("command=modulation b0=0.01 s_end=1e3 fit_s_end=1e8")
    m = cli.run(cfg)
    assert str(tmp_path / "env-root") in m["run_dir"]


def test_modulation_outputs_and_manifest(tmp_path):
    cfg = parse_config("command=modulation b0=0.01 s_end=1e4 fit_s_end=1e8")
    m = cli.run(cfg, out_override=str(tmp_path))
    assert m["ok"]
    run_dir = m["run_dir"]
    manifest = json.load(open(os.path.join(run_dir, "manifest.json")))
    for fname in manifest["files"]:
        assert os.path.exists(os.path.join(run_dir, fname))
    header = open(os.path.join(run_dir, "trajectory.csv"), "rb").readline()
    assert header == b"s,t,b,lambda\r\n"
    fit = json.load(open(os.path.join(run_dir, "fit.json")))
    assert set(fit) == {"kappa", "exponent", "residual", "T_est",
                        "window_lo", "window_hi"}


@pytest.mark.parametrize("text", [
    "command=modulation b0=0.004 s_end=1e5 fit_s_end=1e8",
    "command=simulate b0=0.001 kappa_exit_factor=1e5 max_steps=800 nodes_per_decade=100",
    "command=profile b_sweep=3e-3",
], ids=["modulation", "simulate", "profile"])
def test_determinism_byte_identical(tmp_path, text):
    cfg = parse_config(text)
    m1 = cli.run(cfg, out_override=str(tmp_path))
    m2 = cli.run(cfg, out_override=str(tmp_path))
    csvs = [f for f in m1["files"] if f.endswith(".csv")]
    assert csvs and m2["files"] == m1["files"]
    match, _, _ = filecmp.cmpfiles(m1["run_dir"], m2["run_dir"], csvs, shallow=False)
    assert match == csvs


def test_verify_command_writes_five_suites(tmp_path):
    cfg = parse_config("command=verify samples=60 seed=2")
    m = cli.run(cfg, out_override=str(tmp_path))
    suites = [f for f in m["files"] if f.startswith("suite-")]
    assert len(suites) == 5
    assert m["ok"]


def test_profile_command_summary(tmp_path):
    cfg = parse_config("command=profile b_sweep=3e-3,1e-3")
    m = cli.run(cfg, out_override=str(tmp_path))
    assert m["ok"]
    rows = open(os.path.join(m["run_dir"], "summary.csv")).read().splitlines()
    assert rows[0].startswith("b,c_b,d_b,norm_H")
    assert len(rows) == 3


def test_profile_command_sizes_its_grid(tmp_path):
    # 4 B1(3e-5) = 7604 lies beyond the default grid_y_max = 4000
    cfg = parse_config("command=profile b_sweep=3e-5")
    m = cli.run(cfg, out_override=str(tmp_path))
    assert m["ok"]
    rows = open(os.path.join(m["run_dir"], "summary.csv")).read().splitlines()
    assert len(rows) == 2
    assert np.isfinite([float(v) for v in rows[1].split(",")]).all()


@pytest.mark.parametrize("text", [
    # error_Psi's centred b-difference probes b + 1e-3 b = 0.05000996 > b*
    "command=profile b_sweep=0.04996",
    # Phi_M needs a grid reaching 2M: beyond the suite grid's 400 ...
    "command=verify M=250 samples=50",
    # ... and beyond grid_y_max and 4 B1(0.04) = 64
    "command=profile grid_y_max=100 M=100 b_sweep=0.04",
    # the smallest b, and the modulation configs at the edges of what parses
    "command=profile b_sweep=1e-50",
    "command=verify b0=1e-50 samples=50",
    "command=modulation fit_s_end=1e5",
    "command=modulation b0=1e-27",
    "command=modulation lambda0=1.3e-143",
    "command=modulation lambda0=1.09e153",
])
def test_every_config_that_parses_runs(tmp_path, text):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text + "\n")
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "runs")]) == 0


def test_simulate_command(tmp_path):
    cfg = parse_config(
        "command=simulate b0=0.001 kappa_exit_factor=1e5 max_steps=800 "
        "nodes_per_decade=100")
    m = cli.run(cfg, out_override=str(tmp_path))
    assert m["metrics"]["classification"] in (
        "ExitUnstableMinus", "ExitUnstablePlus", "GridExhausted")
    cps = open(os.path.join(m["run_dir"], "checkpoints.csv")).read().splitlines()
    assert cps[0] == ("step,t,s,lambda,b,kappa,E,E1,E2,E2_hat,u_max,"
                      "res_phi,res_hphi,decomposed")


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_checkpoints_csv_round_trips_the_checkpoints(tmp_path):
    # b0 = 0.01 loses its decomposition at step 27, so the table holds live
    # rows and rows with no decomposition (NaN energies, decomposed 0).
    # Each column writes the checkpoint attribute of its name: a field
    # formed with the row, or one of the five formed on first read
    formed = [f.name for f in fields(flow.Checkpoint) if f.compare]
    assert sorted(CHECKPOINT_ATTRS) == sorted(formed + list(EXACT_COLUMNS))
    traj = flow.simulate(RunConfig(command="simulate", b0=0.01, kappa_exit_factor=2e4,
                                   max_steps=60))
    cli._write_run_series(traj, tmp_path)
    header, rows = _read_csv(tmp_path / "checkpoints.csv")
    assert tuple(header) == schema.CHECKPOINT_CSV and len(rows) == len(traj.checkpoints)
    assert {row[-1] for row in rows} == {"0", "1"}
    for c, row in zip(traj.checkpoints, rows):
        for name, text in zip(CHECKPOINT_ATTRS, row):
            want = getattr(c, name)
            if name in ("step", "decomposed"):
                assert int(text) == int(want), name
            else:
                assert float(text) == want or np.isnan(want) and text == "nan", name


def test_diagnostics_csv_holds_the_centred_modulation_residuals(tmp_path):
    # this run ends exit_minus at step 76 with 5 live checkpoints (steps 1,
    # 20, 40, 60 and the last), so its diagnostics table has 3 rows
    cfg = parse_config("command=simulate b0=3e-3 kappa_exit_factor=2e4 max_steps=3000")
    m = cli.run(cfg, out_override=str(tmp_path))
    assert m["metrics"]["termination"] == "exit_minus" and m["metrics"]["steps"] == 76
    assert "diagnostics.csv" in m["files"]
    header, rows = _read_csv(os.path.join(m["run_dir"], "diagnostics.csv"))
    assert tuple(header) == schema.DIAGNOSTIC_CSV and len(rows) == 3
    diag = {name: np.array([float(r[k]) for r in rows]) for k, name in enumerate(header)}
    cp_header, cp_rows = _read_csv(os.path.join(m["run_dir"], "checkpoints.csv"))
    col = {name: k for k, name in enumerate(cp_header)}
    live = [r for r in cp_rows if r[col["decomposed"]] == "1"]
    assert len(live) == 5
    s, lam, b = (np.array([float(r[col[name]]) for r in live])
                 for name in ("s", "lambda", "b"))
    ds = s[2:] - s[:-2]
    b_mid = b[1:-1]
    lb = np.array([profiles.log_binv(x) for x in b_mid])
    assert (ds > 0).all()
    np.testing.assert_array_equal(diag["s"], s[1:-1])
    np.testing.assert_array_equal(diag["b"], b_mid)
    np.testing.assert_array_equal(diag["lam_residual"],
                                  (np.log(lam[2:]) - np.log(lam[:-2])) / ds + b_mid)
    np.testing.assert_array_equal(diag["b_residual"],
                                  (b[2:] - b[:-2]) / ds + b_mid**2 * (1.0 + 2.0 / lb))
    e2, kappa = (np.array([float(r[col[name]]) for r in live])[1:-1]
                 for name in ("E2", "kappa"))
    np.testing.assert_array_equal(diag["E2_ratio"], e2 / (b_mid**2 * lb**5))
    np.testing.assert_array_equal(diag["kappa_ratio"], np.abs(kappa) * lb / b_mid**2.5)


def test_simulate_manifest_reports_rejects_and_the_lost_decomposition(tmp_path):
    # b0 = 0.01 loses its decomposition at step 27; step_flow rejects 4
    # trial steps, all within steps 55-58
    cfg = parse_config("command=simulate b0=0.01 kappa_exit_factor=2e4 max_steps=60")
    runs = [cli.run(cfg, out_override=str(tmp_path))["metrics"] for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["decompose_lost_step"] == 27
    assert runs[0]["step_rejects"] == 4
    assert runs[0]["remeshes"] == 0
    short = cli.run(parse_config(
        "command=simulate b0=0.01 kappa_exit_factor=2e4 max_steps=20"),
        out_override=str(tmp_path))["metrics"]
    assert short["decompose_lost_step"] is None and short["step_rejects"] == 0


def test_simulate_manifest_counts_the_newton_work(tmp_path):
    # the carried Jacobian is refreshed only where a chord update is not
    # enough: 3 fresh Jacobians over these 40 decompositions, where a fresh
    # one per Newton update made 77
    cfg = parse_config("command=simulate b0=3e-3 kappa_exit_factor=2e4 max_steps=40")
    runs = [cli.run(cfg, out_override=str(tmp_path)) for _ in range(2)]
    metrics = [m["metrics"] for m in runs]
    assert metrics[0] == metrics[1]
    m = metrics[0]
    assert m["steps"] == 40 and m["decompose_lost_step"] is None
    assert m["newton_iterations"] >= m["steps"]  # every call checks its residual once
    assert 0 < m["jacobian_builds"] < m["steps"]
    assert 0 < m["profile_builds"] < m["steps"]  # the lattice serves most Q~_b
    assert m["profile_serves"] > m["profile_builds"]
    # and the CSVs stay byte-identical run to run
    csvs = [f for f in runs[0]["files"] if f.endswith(".csv")]
    match, _, _ = filecmp.cmpfiles(runs[0]["run_dir"], runs[1]["run_dir"], csvs,
                                   shallow=False)
    assert match == csvs


def test_shoot_command_runs_on_the_cache_built_from_its_config(tmp_path):
    # its three probes share that cache, each carrying its own Newton
    # Jacobian and seed, so a rerun gives the same bytes
    cfg = parse_config(
        "command=shoot b0=0.001 kappa_exit_factor=1e5 max_steps=4000 "
        "nodes_per_decade=100 bracket_lo=-6e-4 bracket_hi=6e-4 budget=1")
    m1, m2 = (cli.run(cfg, out_override=str(tmp_path)) for _ in range(2))
    assert m1["ok"] and m1["metrics"]["iterations"] == 1
    csvs = [f for f in m1["files"] if f.endswith(".csv")]
    assert {"history.csv", "checkpoints.csv"} <= set(csvs)
    match, _, _ = filecmp.cmpfiles(m1["run_dir"], m2["run_dir"], csvs, shallow=False)
    assert match == csvs


def test_a_command_that_raises_leaves_a_manifest(tmp_path, monkeypatch, capsys):
    # the run directory says what happened, and main still exits 2; the
    # files are listed sorted, whatever order the directory lists them in
    def failing(config, run_dir):
        for name in ("partial.csv", "lyapunov.csv", "history.csv"):
            (run_dir / name).write_text("x\r\n")
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "modulation", failing)
    cfg = parse_config("command=modulation")
    with pytest.raises(RuntimeError, match="boom"):
        cli.run(cfg, out_override=str(tmp_path / "runs"))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("command=modulation\n")
    assert cli.main([str(cfg_path), "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == "error: boom\n"
    run_dirs = sorted((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 2
    for run_dir in run_dirs:
        manifest = _strict_json(run_dir / "manifest.json")
        assert set(manifest) == set(schema.MANIFEST_JSON)
        assert manifest["ok"] is False and manifest["termination"] == "error: boom"
        assert manifest["files"] == ["history.csv", "lyapunov.csv", "partial.csv"]
        assert manifest["metrics"] == {}


def _strict_json(path):
    """Parse `path` as RFC 8259 JSON, which has no NaN or Infinity token."""
    def reject(token):
        raise ValueError(f"{path}: non-standard JSON constant {token}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_json_outputs_follow_the_schema(tmp_path):
    # every JSON a command writes is strict and carries the keys that
    # schema.py declares; a float with no finite value is null
    configs = ("command=modulation b0=0.01 s_end=1e3 fit_s_end=1e8",
               "command=profile b_sweep=3e-3",
               "command=verify samples=60 seed=2")
    for text in configs:
        m = cli.run(parse_config(text), out_override=str(tmp_path))
        run_dir = m.pop("run_dir")
        assert set(m) == set(schema.MANIFEST_JSON)
        names = m["files"] + ["manifest.json"]
        for fname in (f for f in names if f.endswith(".json")):
            payload = _strict_json(os.path.join(run_dir, fname))
            keys = set(payload)
            if fname == "manifest.json":
                assert keys == set(schema.MANIFEST_JSON)
                config = payload["config"]
                assert config["bracket_lo"] is None and config["bracket_hi"] is None
            elif fname == "fit.json":
                assert keys == set(schema.FIT_JSON)
            elif fname.startswith("error-report-"):
                assert keys == set(schema.ERROR_REPORT_JSON)
            else:
                assert fname.startswith("suite-"), fname
                assert keys >= set(schema.SUITE_JSON)
                # the fitted-constant suites set no bound
                unbounded = payload["name"] in ("coercivity_H", "coercivity_H2",
                                                "interpolation")
                assert (payload["tolerance"] is None) == unbounded


def test_json_values_are_their_sources_fields(tmp_path, monkeypatch):
    # each JSON field a command writes holds the value of the same name on
    # what it reports: the blow-up fit, the error report, the suite report,
    # and the run's config and handler result in the manifest
    sources = {}

    def recording(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            sources.setdefault(name, []).append(out)
            return out
        monkeypatch.setattr(module, name, wrapper)

    recording(cli.modulation, "fit_blowup_law")
    recording(cli.profiles, "error_Psi")
    for suite in ("hardy_suite", "subpositivity_suite"):
        recording(cli.inequalities, suite)
    handled = []

    def modulation(config, run_dir):
        handled.append(cli._cmd_modulation(config, run_dir))
        return handled[-1]
    monkeypatch.setitem(cli._HANDLERS, "modulation", modulation)
    configs = [parse_config(text) for text in (
        "command=modulation b0=0.01 s_end=1e3 fit_s_end=1e8",
        "command=profile b_sweep=3e-3 grid_n=2048",
        "command=verify samples=60 seed=2")]
    run_dirs = [cli.run(cfg, out_override=str(tmp_path))["run_dir"] for cfg in configs]

    def plain(v):
        # the JSON form of a value: a tuple is a list and a non-finite float null
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (tuple, list)):
            return [plain(x) for x in v]
        return None if isinstance(v, float) and not np.isfinite(v) else v

    fit, = sources["fit_blowup_law"]
    payload = _strict_json(os.path.join(run_dirs[0], "fit.json"))
    window = dict(zip(("window_lo", "window_hi"), fit.window))
    assert payload == {k: window[k] if k in window else getattr(fit, k)
                       for k in schema.FIT_JSON}
    rep, = sources["error_Psi"]
    payload = _strict_json(os.path.join(run_dirs[1], "error-report-b0.003.json"))
    assert payload == {k: "tilde" if k == "variant" else getattr(rep, k)
                       for k in schema.ERROR_REPORT_JSON}
    for suite in ("hardy_suite", "subpositivity_suite"):
        rep, = sources[suite]
        payload = _strict_json(os.path.join(run_dirs[2], f"suite-{rep.name}.json"))
        assert {k: payload[k] for k in schema.SUITE_JSON} == {
            k: plain(getattr(rep, k)) for k in schema.SUITE_JSON}
    (ok, termination, files, metrics), = handled
    manifest = _strict_json(os.path.join(run_dirs[0], "manifest.json"))
    assert manifest.pop("started") <= manifest.pop("finished")
    assert manifest == {
        "artifact": "blowlab", "version": blowlab.__version__,
        "command": configs[0].command, "config": plain(configs[0].to_dict()),
        "ok": ok, "termination": termination, "files": sorted(files),
        "metrics": metrics}


def test_cli_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("command=modulation b0=0.01 s_end=1e3 fit_s_end=1e8\n")
    rc = cli.main([str(cfg_path), "--out", str(tmp_path / "runs")])
    assert rc == 0
    # a config the parser rejects or a missing file is an error, not a
    # failed invariant: status 2 and one line on stderr, no traceback
    bad = tmp_path / "bad.cfg"
    capsys.readouterr()
    for text in ("command=modulation b0=0.5\n", "command=simulate b0=1e-4\n"):
        bad.write_text(text)
        assert cli.main([str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert cli.main([str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _package_bindings():
    """Every attribute of each loaded blowlab module and of each class it
    defines, by (module, name[, attribute])."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "blowlab" or mod_name.startswith("blowlab."):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    out.update(((mod_name, key, a), v) for a, v in vars(value).items())
    return out


def test_the_benchmark_tracer_wraps_the_package_and_restores_it(tmp_path):
    # the benchmark's tracer patches the package's functions by name and
    # skips a name the package no longer has.  Over a short simulate and a
    # small profile sweep it still traces the flow, records no error, and
    # its uninstall puts back every function it replaced.  spans.py is
    # compiled from its source, so nothing is written beside it
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    before = _package_bindings()
    tracer = spans.Tracer().install()
    try:
        assert flow.simulate is not before[("blowlab.flow", "simulate")]
        cli.run(RunConfig(command="simulate", b0=3e-3, kappa_exit_factor=2e4, max_steps=20),
                out_override=str(tmp_path))
        cli.run(RunConfig(command="profile", b_sweep=(1e-2, 3e-3), grid_n=1024),
                out_override=str(tmp_path))
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    names = {span[1] for span in tracer.spans}
    assert {"flow.simulate", "flow.decompose", "flow.init_data", "profiles.error_Psi"} <= names
    assert [span for span in tracer.spans if span[5] and "error" in span[5]] == []

#!/usr/bin/env python3
"""blowlab benchmark: one client issuing `blowlab.cli.run` commands in a loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload shoot --seed 0 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced passes with passes that have every layer wrapped, and
reports the per-layer metrics plus the tracing overhead.  The last line of
standard output is the result object; the line before it holds the
environment, sizes and every derived figure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The baseline is single threaded: pin BLAS before numpy is imported.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _key in BLAS_ENV:
    os.environ[_key] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Observed in every pass, traced or not: a few hundred calls per pass at
# most, whose return values give the probes (failures, classifications,
# steps, the step at which the decomposition is lost) and the grid sizes.
# Their wrappers cost microseconds against seconds of work.
OBSERVED = ("flow.simulate", "flow.decompose", "flow.init_data",
            "radial.make_grid")
COMMANDS = ("shoot", "simulate", "profile", "modulation", "verify")
SUITE_LAYERS = ("hardy_suite", "subpositivity_suite", "coercivity_H_suite",
                "coercivity_H2_suite")


def metric_units(key: str) -> dict:
    """Metric name -> unit for BENCHMARK.json's `end_to_end` or `per_layer`.

    BENCHMARK.json is the one list of reported metrics; every name in it
    must be computed below.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_blowlab():
    """Import blowlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import blowlab
    import blowlab.cli  # noqa: F401  (loads every layer module)

    where = Path(blowlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"blowlab imported from {where}, not from {SRC}")
    return blowlab


def setup(workload: str, seed: int):
    """What a fresh interpreter does before the first command."""
    import_blowlab()
    cfgs = workloads.commands(workload, seed)
    refs = workloads.load_references()[workload]
    return cfgs, refs


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter doing `setup`."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, cfgs, refs):
        from blowlab import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.cfgs = cfgs
        self.refs = refs
        self.expected_b = cfgs[0].b_sweep if workload == "static" else ()
        self.runs = WORK / "runs" / f"{workload}-{os.getpid()}"
        self.digests = None  # CSV digests of the first pass
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.mismatched = []
        self.errors = []
        self.last_obs = {}

    def run_pass(self, tracer: spans.Tracer, unit_before=None) -> dict:
        """One pass, checked; its wall time is the sum of its commands'.

        Given the calibration taken just before it, the pass also takes one
        after each command, outside the timed region, and reports its time
        at the reference speed: each command is rescaled by the windows on
        either side of it (see calibrate.py)."""
        out = self.runs / f"pass-{self.count}"
        self.count += 1
        tracer.clear()
        manifests = []
        ends = []  # span count at the end of each command
        errors = []
        walls = []
        units = [unit_before]
        for cfg in self.cfgs:
            if walls and unit_before is not None:
                units.append(calibrate.unit_seconds())
            t0 = time.perf_counter()
            try:
                m = self.cli.run(cfg, out_override=str(out))
            except Exception:  # a failed command is counted, not fatal
                errors.append(traceback.format_exc())
                m = None
            walls.append(time.perf_counter() - t0)
            manifests.append(m)
            ends.append(len(tracer.spans))
        wall = sum(walls)
        speed = {}
        if unit_before is not None:
            units.append(calibrate.unit_seconds())
            wall_ref = sum(w * calibrate.REF_UNIT_S / math.sqrt(a * b)
                           for w, a, b in zip(walls, units, units[1:]))
            speed = {"unit_after": units[-1], "wall_ref": wall_ref,
                     "unit_s": calibrate.REF_UNIT_S * wall / wall_ref}
        recorded = list(tracer.spans)
        self.errors += errors
        attempted, failed = count_failures(manifests, recorded, ends)
        probes = probe_infos(recorded)
        self._check(manifests, probes)
        shutil.rmtree(out, ignore_errors=True)
        # The profile LRU and the grid it hangs on form a reference cycle, so
        # a finished command's arrays wait for the cyclic collector.  A CLI
        # invocation ends its process instead; collecting here, outside the
        # timed region, keeps later passes from inheriting that heap.
        gc.collect()
        self.attempted += attempted
        self.failed += failed
        return {"wall": wall, "spans": recorded,
                "steps": sum(p["steps"] for p in probes), **speed}

    def _check(self, manifests, probes):
        obs = workloads.observe(self.workload, manifests, probes)
        results = workloads.check(self.workload, self.seed, obs, self.refs,
                                  self.expected_b)
        digests = workloads.csv_digests(manifests)
        if self.digests is None:
            self.digests = digests
        for key in sorted(set(digests) | set(self.digests)):
            results.append((f"bytes:{key}", digests.get(key) == self.digests.get(key)))
        self.checked += len(results)
        self.mismatched += [name for name, ok in results if not ok]
        self.last_obs = obs

    def run_with(self, tracer: spans.Tracer, unit_before=None) -> dict:
        tracer.install()
        try:
            return self.run_pass(tracer, unit_before)
        finally:
            tracer.uninstall()

    def measure(self, seconds: float, tracers: list, between=None) -> list:
        """Passes until the next one would end after `seconds`.

        Pass k runs with `tracers[k % len(tracers)]` installed, so with two
        tracers their passes alternate and share the host's drift.  A
        calibration window sits between consecutive passes and serves both
        (see calibrate.py).  `between(unit)` runs after a pass's closing
        window, whose `unit` it gets; if it returns a fresh window's unit,
        that one opens the next pass.  Its time does not count toward
        `seconds`.  Returns
        one list of passes per tracer, each at least MIN_PASSES long.
        """
        groups = [[] for _ in tracers]
        costs = []
        elapsed = 0.0
        unit = calibrate.unit_seconds()
        for k in itertools.count():
            t0 = time.perf_counter()
            p = self.run_with(tracers[k % len(tracers)], unit)
            groups[k % len(tracers)].append(p)
            costs.append(time.perf_counter() - t0)
            elapsed += costs[-1]
            if len(groups[-1]) >= MIN_PASSES and \
                    elapsed + statistics.median(costs) > seconds:
                return groups
            unit = p["unit_after"]
            if between:
                unit = between(unit) or unit


def count_failures(manifests, recorded, ends) -> tuple:
    """(attempted, failed) over the commands and `simulate` probes of a pass.

    A failure is an exception out of `cli.run`, a manifest with ok=false,
    or a probe that ends in `solver_failure` or raises.  A failing probe
    also fails its command, so a command counts as failed only when none of
    its probes already did: each failing event is counted once.
    """
    attempted = failed = 0
    start = 0
    for m, end in zip(manifests, ends):
        sims = [s for s in recorded[start:end] if s[1] == "flow.simulate"]
        start = end
        bad_probes = sum(1 for s in sims if "error" in s[5]
                         or s[5]["termination"] == "solver_failure")
        attempted += 1 + len(sims)
        failed += bad_probes if bad_probes else int(m is None or not m["ok"])
    return attempted, failed


def probe_infos(recorded) -> list:
    """The finished `simulate` probes of a pass, in call order, each with
    the number of `decompose` calls it made and how many of them failed."""
    calls, failures = {}, {}
    for s in recorded:
        if s[1] == "flow.decompose":
            calls[s[4]] = calls.get(s[4], 0) + 1
            failures[s[4]] = failures.get(s[4], 0) + bool(s[5] and "error" in s[5])
    return [{**s[5], "decompose_calls": calls.get(s[0], 0),
             "decompose_failures": failures.get(s[0], 0)}
            for s in recorded
            if s[1] == "flow.simulate" and s[5] and "steps" in s[5]]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n,
            "value": sorted(values)[n - 11]}


def per_layer(traced: list, untraced: list) -> tuple:
    """Per-layer metrics over the traced passes, and the full layer table."""
    n_pass = len(traced)
    wall = sum(p["wall"] for p in traced)
    all_spans = [s for p in traced for s in p["spans"]]
    self_t = spans.self_times(all_spans)
    by_id = {s[0]: s for s in all_spans}
    table = {name: {"calls": 0, "ms": [], "busy_s": 0.0, "self_s": 0.0}
             for name in spans.LAYERS}
    for s in all_spans:
        row = table[s[1]]
        row["calls"] += 1
        row["ms"].append(1e3 * (s[3] - s[2]))
        row["busy_s"] += s[3] - s[2]
        row["self_s"] += self_t[s[0]]

    def q(name, frac):
        ms = sorted(table[name]["ms"])
        return ms[min(len(ms) - 1, int(frac * len(ms)))] if ms else 0.0

    def infos(name):
        return [s[5] or {} for s in all_spans if s[1] == name]

    def under(sid, ancestor):
        parent = by_id[sid][4]
        while parent >= 0 and parent in by_id:
            if by_id[parent][1] == ancestor:
                return True
            parent = by_id[parent][4]
        return False

    m = {}
    for name in spans.LAYERS:
        row = table[name]
        m[f"{name}.calls"] = row["calls"] / n_pass
        m[f"{name}.ms_p50"] = q(name, 0.5)
        m[f"{name}.busy_s"] = row["busy_s"] / n_pass
        m[f"{name}.self_share"] = row["self_s"] / wall
    m["flow.simulate.ms_p90"] = q("flow.simulate", 0.9)
    for s in SUITE_LAYERS:
        m[f"inequalities.{s}.ms"] = q(f"inequalities.{s}", 0.5)
    m["flow.ProfileCache.ms"] = q("flow.ProfileCache", 0.5)

    steps = table["flow.step_flow"]["calls"]
    rejects = sum(i.get("rejects", 0) for i in infos("flow.step_flow"))
    m["flow.step_flow.rejects"] = rejects / n_pass
    m["flow.step_flow.reject_ratio"] = rejects / (steps + rejects) if steps else 0.0

    dec = infos("flow.decompose")
    dec_ok = [i["iterations"] for i in dec if "iterations" in i]
    m["flow.decompose.iterations_mean"] = statistics.fmean(dec_ok) if dec_ok else 0.0
    m["flow.decompose.failures"] = sum("error" in i for i in dec) / n_pass
    builds = [s for s in all_spans if s[1] == "profiles.assemble_profiles"
              and s[5] and s[5].get("hit") is False]
    in_dec = sum(under(s[0], "flow.decompose") for s in builds)
    m["flow.decompose.profile_builds_per_call"] = in_dec / len(dec) if dec else 0.0
    asm = infos("profiles.assemble_profiles")
    m["profiles.assemble_profiles.hit_ratio"] = \
        sum(i.get("hit") is True for i in asm) / len(asm) if asm else 0.0

    flow_n = [i["n"] for i in infos("flow.init_data") if "n" in i]
    m["flow.grid_n"] = flow_n[0] if flow_n else 0
    grid_n = [i["n"] for i in infos("radial.make_grid") if "n" in i]
    m["profiles.grid_n"] = max(grid_n) if grid_n else 0
    for w in ("io.write_csv", "io.write_json"):
        m[f"{w}.bytes"] = sum(i.get("bytes", 0) for i in infos(w)) / n_pass

    runs = {c: [] for c in COMMANDS}
    for s in all_spans:
        if s[1] == "cli.run" and s[5] and s[5].get("command") in runs:
            runs[s[5]["command"]].append(1e3 * (s[3] - s[2]))
    for c, ms in runs.items():
        m[f"cli.run.{c}.calls"] = len(ms) / n_pass
        m[f"cli.run.{c}.ms_p50"] = statistics.median(ms) if ms else 0.0

    m["wall_s_traced"] = statistics.median(p["wall"] for p in traced)
    # Rescaled pass times, so that the host's speed swings cancel out.
    m["trace_overhead_s"] = statistics.median(
        p["wall_ref"] for p in traced) - statistics.median(
        p["wall_ref"] for p in untraced)
    layers = {name: {"calls_per_pass": m[f"{name}.calls"],
                     "ms_p50": m[f"{name}.ms_p50"],
                     "busy_s_per_pass": m[f"{name}.busy_s"],
                     "self_s_per_pass": table[name]["self_s"] / n_pass,
                     "self_share": m[f"{name}.self_share"]}
              for name in spans.LAYERS}
    return m, layers


def environment(bench_sizes: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_loc = {p.stem: len(p.read_text().splitlines())
               for p in sorted((SRC / "blowlab").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_loc": src_loc,
        "src_loc_total": sum(src_loc.values()),
        **bench_sizes,
    }


def sizes(bench: Bench, warm: dict) -> dict:
    flow_n = [s[5]["n"] for s in warm["spans"] if s[1] == "flow.init_data" and s[5]]
    grid_n = sorted({s[5]["n"] for s in warm["spans"]
                     if s[1] == "radial.make_grid" and s[5]})
    return {"flow_grid_n": flow_n[0] if flow_n else None,
            "profile_grid_n": grid_n,
            "commands": [c.command for c in bench.cfgs],
            "static_b": list(bench.expected_b)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload, then exit")
    ap.add_argument("--write-references", action="store_true",
                    help="run one pass at the default seed and store its "
                         "observables as the workload's references")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    if args.write_references:
        return write_references(args.workload)

    try:
        t0 = time.perf_counter()
        cfgs, refs = setup(args.workload, args.seed)
        import_s = time.perf_counter() - t0
        units = metric_units("per_layer" if args.trace else "end_to_end")
    except (ImportError, OSError, KeyError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, cfgs, refs)
    setup_times = []
    setup_refs = []

    def sample_setup(unit_before):
        """One set-up sample, rescaled like a pass by the calibration
        windows on either side; returns the window after it, or None when
        all samples are taken.  Spread over the run, so that every sample
        does not land in the same few seconds of host noise."""
        if len(setup_times) >= SETUP_REPEATS:
            return None
        elapsed = time_setup(args.workload, args.seed)
        after = calibrate.unit_seconds()
        setup_times.append(elapsed)
        setup_refs.append(elapsed * calibrate.REF_UNIT_S
                          / math.sqrt(unit_before * after))
        return after

    observer = spans.Tracer(OBSERVED)
    try:
        warm = bench.run_with(observer)
        if args.trace:
            untraced, traced = bench.measure(args.seconds,
                                             [observer, spans.Tracer()])
        else:
            untraced, = bench.measure(args.seconds, [observer], sample_setup)
            traced = []
            unit = calibrate.unit_seconds()
            while unit is not None:
                unit = sample_setup(unit)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.runs, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    walls = [p["wall"] for p in untraced]
    walls_ref = [p["wall_ref"] for p in untraced]
    steps = sum(p["steps"] for p in untraced)
    e2e = {"setup_s": statistics.median(setup_refs) if setup_refs else None,
           "wall_ref_s": statistics.median(walls_ref),
           "peak_rss_mb": peak_rss_mb}
    derived = {
        "wall_s": statistics.median(walls),
        "steps_per_s": steps / sum(walls),
        "fail_ratio": bench.failed / bench.attempted,
        "mismatch_ratio": len(bench.mismatched) / max(bench.checked, 1),
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(sizes(bench, warm)),
        "setup_raw_s_samples": setup_times,
        "setup_s_samples": setup_refs,
        "import_s": import_s,
        "passes": len(walls),
        "wall_s_samples": walls,
        "wall_s_tail": tail(walls),
        "unit_s_samples": [p["unit_s"] for p in untraced],
        "ref_unit_s": calibrate.REF_UNIT_S,
        "wall_ref_s_samples": walls_ref,
        "wall_ref_s_tail": tail(walls_ref),
        "attempted": bench.attempted, "failed": bench.failed,
        "checked": bench.checked, "mismatches": bench.mismatched[:50],
        "errors": bench.errors[:5],
        **e2e, **derived,
    }
    if args.trace:
        layer_metrics, layers = per_layer(traced, untraced)
        layer_metrics.update(derived)
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in units.items()}
        detail["layers"] = layers
        detail["traced_passes"] = len(traced)
        detail.update({k: v for k, v in layer_metrics.items()
                       if k in ("wall_s_traced", "trace_overhead_s")})
        write_spans(args.workload, traced)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in units.items()}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not bench.mismatched,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def write_spans(workload: str, traced: list):
    """Every span of the traced passes, one JSON array per line."""
    path = WORK / "results" / f"{workload}-spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, p in enumerate(traced):
            for sid, name, start, end, parent, info in p["spans"]:
                fh.write(json.dumps([k, sid, name, start, end, parent, info]) + "\n")


def write_references(workload: str) -> int:
    import_blowlab()
    cfgs = workloads.commands(workload, workloads.DEFAULT_SEED)
    bench = Bench(workload, workloads.DEFAULT_SEED, cfgs, {})
    try:
        bench.run_with(spans.Tracer(OBSERVED))
    finally:
        shutil.rmtree(bench.runs, ignore_errors=True)
    if bench.failed:
        print("\n".join(bench.errors), file=sys.stderr)
        return 1
    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    refs[workload] = bench.last_obs
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

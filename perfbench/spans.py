"""Spans recorded from outside blowlab by wrapping its public functions.

A `Tracer` replaces each target function with a wrapper that records one
span per call: (id, name, start, end, parent id, info).  Spans stay in
memory until the run ends.  Names that a module bound with
`from .radial import ...` are separate references to the same function
object, so every loaded `blowlab.*` module attribute that *is* the original
function gets the wrapper; otherwise calls through that name would bypass
it (for example `profiles.solve_H_with_derivative`, `flow.assemble_profiles`
and `cli.write_csv`).

Targets that a later version of the program no longer has are skipped, so
the benchmark keeps running across refactors and reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# (layer name, module, attribute path).  A dotted attribute path names a
# method on a class of that module.
TARGETS = (
    ("cli.run", "cli", "run"),
    ("flow.simulate", "flow", "simulate"),
    ("flow.shoot", "flow", "shoot"),
    ("flow.find_bracket", "flow", "find_bracket"),
    ("flow.init_data", "flow", "init_data"),
    ("flow.step_flow", "flow", "step_flow"),
    ("flow.decompose", "flow", "decompose"),
    ("flow.flow_energy", "flow", "flow_energy"),
    ("flow.flow_energies", "flow", "flow_energies"),
    ("flow.classify", "flow", "classify"),
    ("flow.modulation_residuals", "flow", "modulation_residuals"),
    ("flow.lyapunov_series", "flow", "lyapunov_series"),
    ("flow.ProfileCache", "flow", "ProfileCache.__init__"),
    ("profiles.assemble_profiles", "profiles", "assemble_profiles"),
    ("profiles.error_Psi", "profiles", "error_Psi"),
    ("profiles.radiation_sigma", "profiles", "radiation_sigma"),
    ("profiles.direction_phi", "profiles", "direction_phi"),
    ("radial.make_grid", "radial", "make_grid"),
    ("radial.apply_H", "radial", "apply_H"),
    ("radial.solve_H_with_derivative", "radial", "solve_H_with_derivative"),
    ("radial.cumulative_integral", "radial", "cumulative_integral"),
    ("radial.unstable_mode", "radial", "unstable_mode"),
    ("modulation.integrate_reduced", "modulation", "integrate_reduced"),
    ("modulation.fit_blowup_law", "modulation", "fit_blowup_law"),
    ("inequalities.hardy_suite", "inequalities", "hardy_suite"),
    ("inequalities.subpositivity_suite", "inequalities", "subpositivity_suite"),
    ("inequalities.coercivity_H_suite", "inequalities", "coercivity_H_suite"),
    ("inequalities.coercivity_H2_suite", "inequalities", "coercivity_H2_suite"),
    ("inequalities.interpolation_spotcheck", "inequalities", "interpolation_spotcheck"),
    ("inequalities.TestFunctionSampler.sample", "inequalities", "TestFunctionSampler.sample"),
    ("io.write_csv", "io", "write_csv"),
    ("io.write_json", "io", "write_json"),
)

LAYERS = tuple(name for name, _, _ in TARGETS)


# -- per-layer annotations: what a span records besides its interval -------

def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _pre_assemble(fn):
    """Hit when the key is already in the grid's profile LRU before the call.

    `b_star` is part of the key; its default is read from the wrapped
    function, so a changed default in the program cannot turn hits into
    misses here.
    """
    b_star_default = inspect.signature(fn).parameters["b_star"].default

    def pre(args, kwargs):
        b = _arg(args, kwargs, 0, "b")
        grid = _arg(args, kwargs, 1, "grid")
        b_star = _arg(args, kwargs, 2, "b_star", b_star_default)
        lru = getattr(grid, "cache", {}).get("profile_sets", {})
        return (float(b), b_star) in lru

    return pre


def _post_assemble(hit, args, kwargs, result):
    return {"hit": hit}


def _post_step(_, args, kwargs, result):
    return {"rejects": int(result[3])}


def _post_decompose(_, args, kwargs, result):
    return {"iterations": int(result[2]["iterations"])}


def _post_simulate(_, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    final = result.checkpoints[-1]
    return {"a_plus": float(params.a_plus), "steps": int(result.steps),
            "termination": result.termination,
            "classification": getattr(result.classification, "value", None),
            "lambda": float(final.lam), "b": float(final.b)}


def _post_init_data(_, args, kwargs, result):
    return {"n": int(len(result.r))}


def _post_make_grid(_, args, kwargs, result):
    return {"n": int(result.n)}


def _post_write(_, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)}


def _post_run(_, args, kwargs, result):
    return {"command": result["command"]}


# layer name -> (pre-hook factory, post hook).  A factory gets the wrapped
# function and returns `pre(args, kwargs)`, whose result reaches the post hook.
HOOKS = {
    "profiles.assemble_profiles": (_pre_assemble, _post_assemble),
    "flow.step_flow": (None, _post_step),
    "flow.decompose": (None, _post_decompose),
    "flow.simulate": (None, _post_simulate),
    "flow.init_data": (None, _post_init_data),
    "radial.make_grid": (None, _post_make_grid),
    "io.write_csv": (None, _post_write),
    "io.write_json": (None, _post_write),
    "cli.run": (None, _post_run),
}


class Tracer:
    """Records spans for the layers named in `names` while installed."""

    def __init__(self, names=LAYERS):
        self.names = set(names)
        self.spans = []  # (id, name, start, end, parent, info)
        self._stack = []
        self._next_id = 0
        self._undo = []

    def install(self):
        for name, module_name, attr in TARGETS:
            if name not in self.names:
                continue
            module = sys.modules.get(f"blowlab.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            if owner:
                self._patch(holder, leaf, original, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "blowlab" or mod_name.startswith("blowlab."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def _patch(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def _wrap(self, name, fn):
        make_pre, post = HOOKS.get(name, (None, None))
        pre = make_pre(fn) if make_pre else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            state = pre(args, kwargs) if pre else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              {"error": type(exc).__name__}))
                raise
            end = clock()
            stack.pop()
            info = post(state, args, kwargs, result) if post else None
            spans.append((sid, name, start, end, parent, info))
            return result

        return wrapper

    def clear(self):
        self.spans.clear()


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = {}
    for sid, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0)
            for sid, _, start, end, _, _ in spans}

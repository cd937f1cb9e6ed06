"""Run configuration: a flat key-value document with optional sections.

Lines hold `key = value` pairs ('#' starts a comment); a `[section]` header
prefixes the following keys as `section.key`.  Unknown keys are rejected
with their full path, every float must be finite (NaN in bracket_lo/hi means
"grow a bracket"), and every numeric parameter is validated against its
documented window so a config that parses is a config that can run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .inequalities import FAMILIES
from .modulation import FIT_MIN_DECAY, S_MAX, integrate_reduced
from .profiles import B_STAR_DEFAULT, M_DEFAULT

COMMANDS = ("profile", "modulation", "simulate", "shoot", "verify")

B_MIN = 1e-50  # smallest b anywhere: b**6, which the profile summary divides by, is 1e-300
B_FLOOR = 2.5e-4  # smallest b the flow's profile grid must resolve
B_FLOOR_EXIT = 1.05 * B_FLOOR  # a flow run ends `b_floor` once b falls to this
# a flow lambda0 lies in [1/LAMBDA0_MAX, LAMBDA0_MAX]: the flow runs in units
# of lambda0, so any other is a rescaled copy of a run inside.  The window
# kept lambda^+-6 normal when lyapunov.csv divided by it; it divides by
# lambda^2 only, and the window stays
LAMBDA0_MAX = 1e30

NAN_MEANS_UNSET = ("bracket_lo", "bracket_hi")  # NaN: shoot grows its own bracket


@dataclass
class RunConfig:
    command: str = "modulation"
    seed: int = 0
    out: str = "runs"
    # shared numerics
    b0: float = 0.01
    lambda0: float = 1.0
    M: float = M_DEFAULT
    grid_y_min: float = 1e-4
    grid_y_max: float = 4000.0
    grid_n: int = 4096
    # modulation
    s_end: float = 1e6
    fit_s_end: float = 1e30
    # profile sweep
    b_sweep: tuple = (1e-2, 3e-3, 1e-3, 3e-4)
    # flow
    a_plus: float = 0.0
    bracket_lo: float = float("nan")
    bracket_hi: float = float("nan")
    budget: int = 40
    kappa_exit_factor: float = 2.0
    nodes_per_decade: int = 120
    max_steps: int = 60000
    rtol_step: float = 1e-5
    # verify
    samples: int = 200
    family: str = "gaussian-bumps"

    def validate(self):
        _require(self.command in COMMANDS,
                 f"command must be one of {COMMANDS}, got {self.command!r}")
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and not (
                    math.isfinite(v) or (f.name in NAN_MEANS_UNSET and math.isnan(v))):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        _b_window("b0", self.b0)
        _require(self.command not in ("simulate", "shoot") or self.b0 > B_FLOOR_EXIT,
                 f"{self.command} needs b0 above the flow's b floor "
                 f"{B_FLOOR_EXIT:g}, got {self.b0!r}")
        for b in self.b_sweep:
            _b_window("b_sweep", b)
        _require(self.lambda0 > 0, "lambda0 must be positive")
        _require(self.command not in ("simulate", "shoot")
                 or 1.0 / LAMBDA0_MAX <= self.lambda0 <= LAMBDA0_MAX,
                 f"{self.command} needs lambda0 in [1/{LAMBDA0_MAX:g}, {LAMBDA0_MAX:g}], "
                 f"got lambda0={self.lambda0!r}")
        _require(10.0 <= self.M <= 2000.0, f"M must lie in [10, 2000], got {self.M}")
        _require(0 < self.grid_y_min < self.grid_y_max,
                 "grid_y_min must be positive and below grid_y_max")
        _require(64 <= self.grid_n <= 2_000_000, "grid_n must lie in [64, 2e6]")
        _require(0 < self.s_end <= S_MAX and 0 < self.fit_s_end <= S_MAX,
                 f"s_end and fit_s_end must lie in (0, {S_MAX:g}]")
        _require(0 <= self.budget <= 1000, "budget must lie in [0, 1000]")
        _require(self.kappa_exit_factor >= 1.0, "kappa_exit_factor must be >= 1")
        _require(30 <= self.nodes_per_decade <= 2000,
                 "nodes_per_decade must lie in [30, 2000]")
        _require(1 <= self.max_steps <= 10_000_000, "max_steps out of range")
        _require(1e-12 <= self.rtol_step <= 1e-2, "rtol_step out of range")
        _require(self.samples >= 50, "samples must be >= 50")
        _require(self.family in FAMILIES,
                 f"family must be one of {FAMILIES}, got {self.family!r}")
        _require(self.seed >= 0, "seed must be nonnegative")
        if self.command == "modulation":
            # both closed-form runs end on normal doubles, and the deep one
            # decays lambda as much as the blow-up fit needs
            integrate_reduced(self.b0, self.lambda0, self.s_end, n_samples=3)
            deep = integrate_reduced(self.b0, self.lambda0, self.fit_s_end, n_samples=3)
            decay = self.lambda0 / deep.lam[-1]
            _require(decay >= FIT_MIN_DECAY, f"fit_s_end={self.fit_s_end!r} decays "
                     f"lambda {decay:.3g}-fold; the blow-up fit needs {FIT_MIN_DECAY:g}-fold")
        return self

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


def _b_window(name, b):
    # the profiles are built for 0 < b < B_STAR_DEFAULT only
    if not 0.0 < b < B_STAR_DEFAULT:
        raise ValueError(
            f"{name}={b!r} outside the admissible window (0, {B_STAR_DEFAULT})")
    _require(b >= B_MIN, f"{name}={b!r} is below the smallest b, {B_MIN:g}")


_CASTS = {
    int: lambda s: int(s, 0),
    float: float,
    str: str,
}


def parse_config(source: str) -> RunConfig:
    """Parse and validate a config document; defaults fill missing keys."""
    known = {f.name: f for f in fields(RunConfig)}
    values = {}
    section = ""
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        # allow several pairs on one line for terse configs
        tokens = line.split()
        pairs = tokens if len(tokens) > 1 and all("=" in t for t in tokens) else [line]
        for pair in pairs:
            key, _, val = pair.partition("=")
            key = key.strip()
            val = val.strip()
            path = f"{section}.{key}".strip(".").replace(".", "_")
            if path not in known:
                raise ValueError(f"unknown config key {('%s.%s' % (section, key)).strip('.')!r}")
            f = known[path]
            if f.name == "b_sweep":
                values[path] = tuple(float(x) for x in val.split(",") if x)
            else:
                try:
                    values[path] = _CASTS[type(getattr(RunConfig, f.name))](val)
                except (ValueError, KeyError) as exc:
                    raise ValueError(f"key {path!r}: cannot parse {val!r}") from exc
    return RunConfig(**values).validate()

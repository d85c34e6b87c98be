"""Line-oriented experiment configuration with schema validation.

The format is a flat key-value file with bracketed section headers:

    seed = 20240808
    output_dir = out

    [system]
    kind = baker
    m = 2

    [profile]
    family = gumbel
    a = 1.0

    [experiment lyapunov]
    max_t = 2
    n_random = 10

``#`` starts a comment.  Sections are ``system``, ``profile``, and one
``experiment <name>`` per experiment; each experiment name may appear
at most once.  Schema violations are collected with their line numbers
and raised together as a :class:`ConfigError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "ConfigError",
    "ExperimentRequest",
    "ExperimentConfig",
    "parse_config",
    "DEMO_CONFIG",
    "EXPERIMENT_NAMES",
]

EXPERIMENT_NAMES = (
    "covariance",
    "admissibility",
    "lyapunov",
    "positivity",
    "tower",
    "classify",
    "kothe",
    "theorem",
)

DEMO_CONFIG = """\
# built-in demonstration configuration
seed = 20240808
output_dir = out

[system]
kind = baker
m = 2

[profile]
family = gumbel
a = 1.0

[experiment covariance]
t_values = 0 1 2

[experiment admissibility]
grid_lo = -20
grid_hi = 20
t_set = 1 2

[experiment lyapunov]
max_t = 2
n_random = 10

[experiment positivity]
t_values = 1 2
n_random = 5
sweep_a = 0.5 1.0 2.0
gate = false

[experiment tower]
tower_type = B
cutoff = 4

[experiment classify]
spectrum = power 0.5
truncation = 100000

[experiment kothe]
spectrum = geometric 0.5
n1 = 0
n2 = 1/2
truncation = 10000

[experiment theorem]
t_values = 1 2
"""


class ConfigError(ValueError):
    """One or more schema violations, each tagged with its line number."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        lines = "; ".join(f"line {line}: {msg}" for line, msg in self.errors)
        super().__init__(lines)


@dataclass(frozen=True)
class ExperimentRequest:
    name: str
    params: dict
    line: int


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    system_kind: str
    window_lo: int | None
    window_hi: int | None
    baker_m: int | None
    profile_family: str
    profile_a: float
    profile_points: tuple
    experiments: tuple = field(default_factory=tuple)

    def echo(self) -> dict:
        """Canonical nested form, embedded in report manifests."""
        system = {"kind": self.system_kind}
        if self.system_kind == "shift":
            system.update(lo=self.window_lo, hi=self.window_hi)
        else:
            system.update(m=self.baker_m)
        profile = {"family": self.profile_family}
        if self.profile_family == "gumbel":
            profile["a"] = self.profile_a
        if self.profile_points:
            profile["points"] = [list(p) for p in self.profile_points]
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "system": system,
            "profile": profile,
            "experiments": [
                {"name": e.name, "params": _jsonable(e.params)} for e in self.experiments
            ],
        }


def _jsonable(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, Fraction):
            out[key] = str(value)
        elif isinstance(value, tuple):
            out[key] = [str(v) if isinstance(v, Fraction) else v for v in value]
        else:
            out[key] = value
    return out


def _tokenize(text: str):
    """Yield (line_no, kind, payload) over sections and key-value pairs."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            yield line_no, "section", line[1:-1].strip()
        elif "=" in line:
            key, value = line.split("=", 1)
            yield line_no, "pair", (key.strip(), value.strip())
        else:
            yield line_no, "junk", line


class _Collector:
    def __init__(self):
        self.errors = []

    def error(self, line, msg):
        self.errors.append((line, msg))

    def parse_int(self, line, key, value):
        try:
            return int(value)
        except ValueError:
            self.error(line, f"{key} must be an integer, got {value!r}")
            return None

    def parse_float(self, line, key, value):
        try:
            parsed = float(value)
        except ValueError:
            self.error(line, f"{key} must be a number, got {value!r}")
            return None
        if not math.isfinite(parsed):
            self.error(line, f"{key} must be finite, got {value!r}")
            return None
        return parsed

    def parse_fraction(self, line, key, value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            self.error(line, f"{key} must be a rational like 1/2, got {value!r}")
            return None

    def parse_ints(self, line, key, value):
        out = []
        for tok in value.split():
            parsed = self.parse_int(line, key, tok)
            if parsed is None:
                return None
            out.append(parsed)
        if not out:
            self.error(line, f"{key} must list at least one integer")
            return None
        return tuple(out)

    def parse_floats(self, line, key, value):
        out = []
        for tok in value.split():
            parsed = self.parse_float(line, key, tok)
            if parsed is None:
                return None
            out.append(parsed)
        if not out:
            self.error(line, f"{key} must list at least one value")
            return None
        return tuple(out)

    def parse_bool(self, line, key, value):
        low = value.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        self.error(line, f"{key} must be true or false, got {value!r}")
        return None


def _parse_spectrum(col, line, value):
    parts = value.split()
    if len(parts) != 2 or parts[0] not in ("power", "geometric"):
        col.error(line, f"spectrum must be 'power <alpha>' or 'geometric <q>', got {value!r}")
        return None
    param = col.parse_float(line, "spectrum parameter", parts[1])
    if param is None:
        return None
    if parts[0] == "power" and param <= 0:
        col.error(line, "power spectrum needs alpha > 0")
        return None
    if parts[0] == "geometric" and not (0 < param < 1):
        col.error(line, "geometric spectrum needs 0 < q < 1")
        return None
    return (parts[0], param)


_EXPERIMENT_KEYS = {
    "covariance": {"t_values"},
    "admissibility": {"grid_lo", "grid_hi", "t_set"},
    "lyapunov": {"max_t", "n_random"},
    "positivity": {"t_values", "n_random", "sweep_a", "gate"},
    "tower": {"tower_type", "cutoff"},
    "classify": {"spectrum", "truncation"},
    "kothe": {"spectrum", "n1", "n2", "truncation"},
    "theorem": {"t_values"},
}


def _experiment_defaults(name: str) -> dict:
    return {
        "covariance": {"t_values": (0, 1, 2, 3)},
        "admissibility": {"grid_lo": -20, "grid_hi": 20, "t_set": (1, 2)},
        "lyapunov": {"max_t": 3, "n_random": 10},
        "positivity": {"t_values": (1,), "n_random": 5, "sweep_a": (0.5, 1.0, 2.0), "gate": False},
        "tower": {"tower_type": "B", "cutoff": 4},
        "classify": {"spectrum": ("power", 0.5), "truncation": 100_000},
        "kothe": {"spectrum": ("geometric", 0.5), "n1": Fraction(0), "n2": Fraction(1, 2),
                  "truncation": 10_000},
        "theorem": {"t_values": (1,)},
    }[name]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Returns the validated configuration or raises :class:`ConfigError`
    carrying every schema violation with its line reference.
    """
    col = _Collector()
    top = {}
    sections = []
    current = None
    for line_no, kind, payload in _tokenize(text):
        if kind == "section":
            current = {"name": payload, "line": line_no, "pairs": []}
            sections.append(current)
        elif kind == "pair":
            if current is None:
                top[payload[0]] = (line_no, payload[1])
            else:
                current["pairs"].append((line_no, payload[0], payload[1]))
        else:
            col.error(line_no, f"unparseable line {payload!r}")

    seed = 0
    output_dir = "out"
    for key, (line, value) in top.items():
        if key == "seed":
            seed = col.parse_int(line, "seed", value) or 0
        elif key == "output_dir":
            output_dir = value
        else:
            col.error(line, f"unknown top-level key {key!r}")

    system = {"kind": None, "lo": None, "hi": None, "m": None}
    profile = {"family": None, "a": 1.0, "points": ()}
    experiments = []
    seen_sections = set()

    for section in sections:
        name = section["name"]
        if name == "system":
            if "system" in seen_sections:
                col.error(section["line"], "duplicate [system] section")
                continue
            seen_sections.add("system")
            _parse_system(col, section, system)
        elif name == "profile":
            if "profile" in seen_sections:
                col.error(section["line"], "duplicate [profile] section")
                continue
            seen_sections.add("profile")
            _parse_profile(col, section, profile)
        elif name.startswith("experiment"):
            exp_name = name[len("experiment"):].strip()
            if exp_name not in EXPERIMENT_NAMES:
                col.error(section["line"], f"unknown experiment {exp_name!r}")
                continue
            if any(e.name == exp_name for e in experiments):
                col.error(section["line"], f"experiment {exp_name!r} listed twice")
                continue
            request = _parse_experiment(col, section, exp_name)
            if request is not None:
                experiments.append(request)
        else:
            col.error(section["line"], f"unknown section {name!r}")

    if "system" not in seen_sections:
        col.error(0, "system required")
    if "profile" not in seen_sections:
        col.error(0, "profile required")

    if col.errors:
        raise ConfigError(col.errors)

    return ExperimentConfig(
        seed=seed,
        output_dir=output_dir,
        system_kind=system["kind"],
        window_lo=system["lo"],
        window_hi=system["hi"],
        baker_m=system["m"],
        profile_family=profile["family"],
        profile_a=profile["a"],
        profile_points=profile["points"],
        experiments=tuple(experiments),
    )


def _parse_system(col, section, system):
    line0 = section["line"]
    for line, key, value in section["pairs"]:
        if key == "kind":
            if value not in ("shift", "baker"):
                col.error(line, f"kind must be shift or baker, got {value!r}")
            else:
                system["kind"] = value
        elif key == "lo":
            system["lo"] = col.parse_int(line, "lo", value)
        elif key == "hi":
            system["hi"] = col.parse_int(line, "hi", value)
        elif key == "m":
            m = col.parse_int(line, "m", value)
            if m is not None and m > 6:
                col.error(line, "m exceeds desk-scale cap 6")
            elif m is not None and m < 1:
                col.error(line, "m must be at least 1")
            else:
                system["m"] = m
        else:
            col.error(line, f"unknown system key {key!r}")
    if system["kind"] == "shift":
        if system["lo"] is None or system["hi"] is None:
            col.error(line0, "shift system needs lo and hi")
        elif not (system["lo"] < 0 < system["hi"]):
            col.error(line0, "shift window must satisfy lo < 0 < hi")
    elif system["kind"] == "baker":
        if system["m"] is None:
            col.error(line0, "baker system needs m")
    elif system["kind"] is None:
        col.error(line0, "system needs kind = shift or baker")


def _parse_profile(col, section, profile):
    line0 = section["line"]
    for line, key, value in section["pairs"]:
        if key == "family":
            if value not in ("gumbel", "logistic", "custom"):
                col.error(line, f"family must be gumbel, logistic, or custom, got {value!r}")
            else:
                profile["family"] = value
        elif key == "a":
            a = col.parse_float(line, "a", value)
            if a is not None and a <= 0:
                col.error(line, "gumbel steepness a must be positive")
            elif a is not None:
                profile["a"] = a
        elif key == "points":
            points = []
            ok = True
            for tok in value.split():
                if ":" not in tok:
                    col.error(line, f"points entries look like s:value, got {tok!r}")
                    ok = False
                    break
                s_text, v_text = tok.split(":", 1)
                s = col.parse_int(line, "points", s_text)
                v = col.parse_float(line, "points", v_text)
                if v is not None and not 0.0 <= v <= 1.0:
                    col.error(line, f"points values must lie in [0, 1], got {v_text!r}")
                    v = None
                if s is None or v is None:
                    ok = False
                    break
                points.append((s, v))
            if ok:
                profile["points"] = tuple(points)
        else:
            col.error(line, f"unknown profile key {key!r}")
    if profile["family"] is None:
        col.error(line0, "profile needs family = gumbel, logistic, or custom")
    if profile["family"] == "custom" and not profile["points"]:
        col.error(line0, "custom profile needs points")


def _parse_experiment(col, section, name):
    params = _experiment_defaults(name)
    allowed = _EXPERIMENT_KEYS[name]
    for line, key, value in section["pairs"]:
        if key not in allowed:
            col.error(line, f"unknown key {key!r} for experiment {name}")
            continue
        if key in ("t_values", "t_set"):
            parsed = col.parse_ints(line, key, value)
            if parsed is not None:
                if any(t < 0 for t in parsed):
                    col.error(line, f"{key} must be non-negative")
                else:
                    params[key] = parsed
        elif key in ("max_t", "n_random", "cutoff", "truncation", "grid_lo", "grid_hi"):
            parsed = col.parse_int(line, key, value)
            if parsed is None:
                continue
            if key in ("max_t", "cutoff", "truncation") and parsed < 1:
                col.error(line, f"{key} must be at least 1")
            elif key == "n_random" and parsed < 0:
                col.error(line, f"{key} must be non-negative")
            elif key == "grid_lo" and parsed > -20:
                col.error(line, "grid_lo must be at most -20")
            elif key == "grid_hi" and parsed < 20:
                col.error(line, "grid_hi must be at least 20")
            else:
                params[key] = parsed
        elif key == "sweep_a":
            parsed = col.parse_floats(line, key, value)
            if parsed is not None:
                if any(a <= 0 for a in parsed):
                    col.error(line, "sweep_a entries must be positive")
                else:
                    params[key] = parsed
        elif key == "gate":
            parsed = col.parse_bool(line, key, value)
            if parsed is not None:
                params[key] = parsed
        elif key == "tower_type":
            if value not in ("A", "B", "C"):
                col.error(line, f"tower_type must be A, B, or C, got {value!r}")
            else:
                params[key] = value
        elif key == "spectrum":
            parsed = _parse_spectrum(col, line, value)
            if parsed is not None:
                params[key] = parsed
        elif key in ("n1", "n2"):
            parsed = col.parse_fraction(line, key, value)
            if parsed is not None:
                if not (0 <= parsed < 1):
                    col.error(line, f"{key} must lie in [0, 1)")
                else:
                    params[key] = parsed
    if name == "kothe" and not params["n1"] < params["n2"]:
        col.error(section["line"], "kothe needs n1 < n2")
    if name == "theorem" and any(t < 1 for t in params["t_values"]):
        col.error(section["line"], "theorem t_values must be positive (t = 0 is degenerate)")
    return ExperimentRequest(name=name, params=params, line=section["line"])

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
at most once, and each key at most once per section.  One table,
:data:`_SCHEMA`, gives every section's keys with their parsers and
defaults.  Rules that tie keys together are checked by the domain
constructors that ``run`` calls (``AgeWindow``, ``DecayProfile``), so
``validate`` and ``run`` accept the same systems and profiles; on an
otherwise valid config, the Lyapunov and positivity horizons are checked
against the window as ``run`` steps them.  Schema violations are
collected with their line numbers and raised together as a
:class:`ConfigError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cascade import BAKER_SIZE_CAP, AgeWindow
from .profiles import DecayProfile, gumbel
from .rigging import geometric_spectrum, power_spectrum

__all__ = [
    "ConfigError",
    "ExperimentRequest",
    "ExperimentConfig",
    "parse_config",
    "DEMO_CONFIG",
    "TRUNCATION_CAP",
]

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


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config; ``system`` and ``profile`` hold the keys of their variant only."""

    seed: int
    output_dir: str
    system: dict
    profile: dict
    experiments: tuple

    def echo(self) -> dict:
        """Canonical nested form, embedded in report manifests."""
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "system": self.system,
            "profile": self.profile,
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


# Value parsers: (key, text) -> value, raising ValueError(message).

def _text(key, text):
    return text


def _int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def _number(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text!r}")
    return value


def _bounded(lo=-math.inf, hi=math.inf):
    def parse(key, text):
        value = _int(key, text)
        if value < lo:
            raise ValueError(f"{key} must be at least {lo}")
        if value > hi:
            raise ValueError(f"{key} must be at most {hi}")
        return value
    return parse


def _one_of(*options):
    listed = ", ".join(options[:-1]) + ("," if len(options) > 2 else "") + " or " + options[-1]

    def parse(key, text):
        if text not in options:
            raise ValueError(f"{key} must be {listed}, got {text!r}")
        return text
    return parse


def _bool(key, text):
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"{key} must be true or false, got {text!r}")


def _grade(key, text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a rational like 1/2, got {text!r}") from None
    if not 0 <= value < 1:
        raise ValueError(f"{key} must lie in [0, 1)")
    return value


def _times(key, text):
    times = tuple(_int(key, tok) for tok in text.split())
    if not times:
        raise ValueError(f"{key} must list at least one integer")
    if min(times) < 0:
        raise ValueError(f"{key} must be non-negative")
    return times


def _web_times(key, text):
    times = _times(key, text)
    if min(times) < 1:
        raise ValueError("theorem t_values must be positive (t = 0 is degenerate)")
    return times


def _steepness(key, text):
    return gumbel(_number(key, text)).a


def _steepnesses(key, text):
    values = tuple(_steepness(key, tok) for tok in text.split())
    if not values:
        raise ValueError(f"{key} must list at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{key} lists a = {value!r} twice")
    return values


def _baker_m(key, text):
    m = _bounded(lo=1)(key, text)
    if m > BAKER_SIZE_CAP:
        raise ValueError(f"m exceeds desk-scale cap {BAKER_SIZE_CAP}")
    return m


def _points(key, text):
    points = []
    for tok in text.split():
        s_text, colon, v_text = tok.partition(":")
        if not colon:
            raise ValueError(f"points entries look like s:value, got {tok!r}")
        s, v = _int(key, s_text), _number(key, v_text)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"points values must lie in [0, 1], got {v_text!r}")
        points.append((s, v))
    return tuple(points)


_SPECTRA = {"power": power_spectrum, "geometric": geometric_spectrum}


def _spectrum(key, text):
    parts = text.split()
    if len(parts) != 2 or parts[0] not in _SPECTRA:
        raise ValueError(f"spectrum must be 'power <alpha>' or 'geometric <q>', got {text!r}")
    param = _number("spectrum parameter", parts[1])
    _SPECTRA[parts[0]](param)
    return (parts[0], param)


# the largest spectrum window a config may ask for; its sums are closed
# forms, so the cap bounds no allocation
TRUNCATION_CAP = 1_000_000

# section -> key -> (parser, default); "" is the top level
_SCHEMA = {
    "": {"seed": (_int, 0), "output_dir": (_text, "out")},
    "system": {"kind": (_one_of("shift", "baker"), None),
               "lo": (_int, None), "hi": (_int, None), "m": (_baker_m, None)},
    "profile": {"family": (_one_of("gumbel", "logistic", "custom"), None),
                "a": (_steepness, 1.0), "points": (_points, ())},
    "experiment covariance": {"t_values": (_times, (0, 1, 2, 3))},
    "experiment admissibility": {"grid_lo": (_bounded(hi=-20), -20),
                                 "grid_hi": (_bounded(lo=20), 20), "t_set": (_times, (1, 2))},
    "experiment lyapunov": {"max_t": (_bounded(lo=1), 3), "n_random": (_bounded(lo=0), 10)},
    "experiment positivity": {"t_values": (_times, (1,)), "n_random": (_bounded(lo=0), 5),
                              "sweep_a": (_steepnesses, (0.5, 1.0, 2.0)), "gate": (_bool, False)},
    "experiment tower": {"tower_type": (_one_of("A", "B", "C"), "B"),
                         "cutoff": (_bounded(lo=1), 4)},
    "experiment classify": {"spectrum": (_spectrum, ("power", 0.5)),
                            "truncation": (_bounded(lo=1, hi=TRUNCATION_CAP), 100_000)},
    "experiment kothe": {"spectrum": (_spectrum, ("geometric", 0.5)),
                         "n1": (_grade, Fraction(0)), "n2": (_grade, Fraction(1, 2)),
                         "truncation": (_bounded(lo=1, hi=TRUNCATION_CAP), 10_000)},
    "experiment theorem": {"t_values": (_web_times, (1,))},
}


# section -> (selector key, key -> the selector value it belongs to)
_VARIANT_KEYS = {
    "system": ("kind", {"lo": "shift", "hi": "shift", "m": "baker"}),
    "profile": ("family", {"a": "gumbel", "points": "custom"}),
}


def _variant(values, selector, owners):
    """The section's selector and the keys of the variant it selects."""
    return {key: value for key, value in values.items()
            if owners.get(key, values[selector]) == values[selector]}


def _check_system(v):
    if v["kind"] is None:
        raise ValueError("system needs kind = shift or baker")
    if v["kind"] == "baker":
        if v["m"] is None:
            raise ValueError("baker system needs m")
    elif v["lo"] is None or v["hi"] is None:
        raise ValueError("shift system needs lo and hi")
    else:
        AgeWindow(v["lo"], v["hi"])


def _check_profile(v):
    if v["family"] is None:
        raise ValueError("profile needs family = gumbel, logistic, or custom")
    DecayProfile(v["family"], v["a"], v["points"])


def _check_grades(v):
    if not v["n1"] < v["n2"]:
        raise ValueError("kothe needs n1 < n2")


# section -> cross-field check, run only when every key parsed cleanly
_CHECKS = {
    "system": _check_system,
    "profile": _check_profile,
    "experiment kothe": _check_grades,
}


def _parse_section(title, line0, pairs, errors):
    """The section's values, defaults filled in; records (line, message) errors."""
    schema = _SCHEMA[title]
    before = len(errors)
    values = {key: default for key, (_, default) in schema.items()}
    given = {}
    for line, key, text in pairs:
        if key not in schema:
            where = f"in [{title}]" if title else "at the top level"
            errors.append((line, f"unknown key {key!r} {where}"))
        elif key in given:
            errors.append((line, f"duplicate key {key!r} (first set on line {given[key]})"))
        else:
            given[key] = line
            try:
                values[key] = schema[key][0](key, text)
            except ValueError as exc:
                errors.append((line, str(exc)))
    selector, owners = _VARIANT_KEYS.get(title, (None, {}))
    for key, owner in owners.items():
        if key in given and values[selector] not in (None, owner):
            errors.append((given[key], f"{key} applies only to {selector} = {owner}"))
    if title in _CHECKS and len(errors) == before:
        try:
            _CHECKS[title](values)
        except ValueError as exc:
            errors.append((line0, str(exc)))
    return values


def _section_title(name, sections):
    """The schema title of a section header, or raise ValueError."""
    if not name.startswith("experiment"):
        if name not in ("system", "profile"):
            raise ValueError(f"unknown section {name!r}")
        if name in sections:
            raise ValueError(f"duplicate [{name}] section")
        return name
    exp_name = name[len("experiment"):].strip()
    title = f"experiment {exp_name}"
    if title not in _SCHEMA:
        raise ValueError(f"unknown experiment {exp_name!r}")
    if title in sections:
        raise ValueError(f"experiment {exp_name!r} listed twice")
    return title


def _key_line(sections, title, key):
    """The line that sets ``key`` in a section, else the section's header line."""
    line0, pairs = sections[title]
    return next((line for line, k, _ in pairs if k == key), line0)


def _horizon_errors(sections, values):
    """(line, message) of each horizon that the run cannot step on the window.

    Read on a config that is otherwise valid.  The t-margin of each
    covariance and theorem time, the labels of age at most hi - t, must
    hold a label, the Lyapunov margin band [lo + max_t, hi - max_t] too,
    and the positivity sweep's density 1+chi({0}) sits at age 0 of the
    baker window [-m, m], so its times must be at most m.
    """
    system = values["system"]
    lo, hi = ((-system["m"], system["m"]) if system["kind"] == "baker"
              else (system["lo"], system["hi"]))
    errors = []
    for title in ("experiment covariance", "experiment theorem"):
        experiment = values.get(title)
        if experiment and max(experiment["t_values"]) > hi - lo:
            errors.append((_key_line(sections, title, "t_values"),
                           f"t_values must be at most hi - lo = {hi - lo}: "
                           "past it the t-margin [lo, hi - t] is empty"))
    lyapunov = values.get("experiment lyapunov")
    if lyapunov and 2 * lyapunov["max_t"] > hi - lo:
        errors.append((_key_line(sections, "experiment lyapunov", "max_t"),
                       f"max_t must be at most (hi - lo) // 2 = {(hi - lo) // 2}: "
                       "past it the margin band [lo + max_t, hi - max_t] is empty"))
    positivity = values.get("experiment positivity")
    if positivity and max(positivity["t_values"]) > hi:
        errors.append((_key_line(sections, "experiment positivity", "t_values"),
                       f"t_values must be at most m = {hi}: "
                       "past it the density 1+chi({0}) leaves the window"))
    return errors


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Returns the validated configuration or raises :class:`ConfigError`
    carrying every schema violation with its line reference.
    """
    errors = []
    sections = {"": (0, [])}
    pairs = sections[""][1]
    for line_no, kind, payload in _tokenize(text):
        if kind == "pair":
            pairs.append((line_no, *payload))
        elif kind == "junk":
            errors.append((line_no, f"unparseable line {payload!r}"))
        else:
            pairs = []  # the pairs of a rejected section are dropped
            try:
                sections[_section_title(payload, sections)] = (line_no, pairs)
            except ValueError as exc:
                errors.append((line_no, str(exc)))
    values = {title: _parse_section(title, line0, section_pairs, errors)
              for title, (line0, section_pairs) in sections.items()}
    if "experiment positivity" in sections and values.get("system", {}).get("kind") == "shift":
        errors.append((sections["experiment positivity"][0],
                       "positivity is probed on a baker system"))
    for required in ("system", "profile"):
        if required not in sections:
            errors.append((0, f"{required} required"))
    if not errors:
        errors = _horizon_errors(sections, values)
    if errors:
        raise ConfigError(errors)

    return ExperimentConfig(
        seed=values[""]["seed"],
        output_dir=values[""]["output_dir"],
        system=_variant(values["system"], *_VARIANT_KEYS["system"]),
        profile=_variant(values["profile"], *_VARIANT_KEYS["profile"]),
        experiments=tuple(ExperimentRequest(title.split()[1], params)
                          for title, params in values.items() if title.startswith("experiment ")),
    )

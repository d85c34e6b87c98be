"""Config specs for the three benchmark workloads, generated from a seed.

A spec is a plain dict that the checks read as the source of truth; the
program only ever sees the config text rendered from it.  The same seed
always yields the same specs: every random draw comes from a
``random.Random`` seeded with the workload name and the seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("baker5-verify", "baker6-probe", "shift-batch")

# Shift-batch configs keep exp(a * hi) at or below this, so every traced
# norm exp(e^(a n) - e^(a (n + t))) stays above 1e-130, well clear of the
# HVector.norm underflow, and every conjugation weight stays below the
# exp(700) materialization cap.  The underflow itself is kept in every
# round by the fixed demo config below.
SHIFT_LOG_CAP = 300.0
SHIFT_CONFIGS = 200

# A copy of demos/experiment.cfg (shift [-6, 6]), kept here so that the
# workload does not change with the demo; its Lyapunov trace reaches exp(e^2 - e^6) ~ 1e-172 at t = 4, which
# HVector.norm reports as 0.0.  Its inputs do not depend on the seed.
SHIFT_DEMO = {
    "name": "shift-demo",
    "seed": 424242,
    "system": ("shift", -6, 6),
    "a": "1.0",
    "experiments": {
        "covariance": {"t_values": (0, 1, 2, 3)},
        "admissibility": {"grid_lo": -20, "grid_hi": 20, "t_set": (1, 2, 3)},
        "lyapunov": {"max_t": 4, "n_random": 20},
        "tower": {"tower_type": "B", "cutoff": 5},
        "classify": {"spectrum": ("power", "1.5"), "truncation": 50000},
        "kothe": {"spectrum": ("geometric", "0.25"), "n1": "1/3", "n2": "2/3"},
        "theorem": {"t_values": (1, 2)},
    },
}


def baker5_verify(seed: int) -> list:
    """The built-in demo experiment set on baker m = 5, covariance at t = 1."""
    return [{
        "name": "baker5",
        "seed": seed,
        "system": ("baker", 5),
        "a": "1.0",
        "experiments": {
            "covariance": {"t_values": (1,)},
            "admissibility": {"grid_lo": -20, "grid_hi": 20, "t_set": (1, 2)},
            "lyapunov": {"max_t": 2, "n_random": 10},
            "positivity": {"t_values": (1, 2), "n_random": 5, "sweep_a": ("0.5", "1.0", "2.0"),
                           "gate": "false"},
            "tower": {"tower_type": "B", "cutoff": 4},
            "classify": {"spectrum": ("power", "0.5"), "truncation": 100000},
            "kothe": {"spectrum": ("geometric", "0.5"), "n1": "0", "n2": "1/2",
                      "truncation": 10000},
            "theorem": {"t_values": (1, 2)},
        },
    }]


def baker6_probe(seed: int) -> list:
    """Baker m = 6 grid probes: eight seeded steepnesses, t = 1..4.

    The Lyapunov horizon 3 reaches the canonical label {3} at t = 3,
    where the true norm exp(e^3 - e^6) ~ 3.3e-167 underflows; that part
    of the config does not depend on the seed.
    """
    rng = random.Random(f"baker6-probe:{seed}")
    sweep_a = tuple(f"{v / 100:.2f}" for v in rng.sample(range(30, 301), 8))
    return [{
        "name": "baker6",
        "seed": seed,
        "system": ("baker", 6),
        "a": "1.0",
        "experiments": {
            "admissibility": {"grid_lo": -40, "grid_hi": 40, "t_set": (1, 2, 3)},
            "lyapunov": {"max_t": 3, "n_random": 10},
            "positivity": {"t_values": (1, 2, 3, 4), "n_random": 40, "sweep_a": sweep_a,
                           "gate": "false"},
            "tower": {"tower_type": "B", "cutoff": 4},
        },
    }]


def _shift_spec(rng: random.Random, index: int) -> dict:
    """One shift-window config; the seed draws values, the index sets sizes.

    Sizes that set the amount of work (truncations, horizons, cutoffs,
    sample counts, how many times are checked) cycle with the index, so
    every seed asks for about the same work; the seed draws the values.
    """
    # a >= 0.7 so that lambda(-20) >= 1 - 1e-6 on the default certificate
    # grid that build_decay_operator uses
    a = rng.randrange(70, 191, 5) / 100
    lo = -(3 + index % 10)
    hi = rng.randint(3, max(3, min(12, int(math.log(SHIFT_LOG_CAP) / a))))
    if index % 2 == 0:
        spectrum = ("power", f"{rng.randrange(10, 251) / 100:.2f}")
    else:
        spectrum = ("geometric", f"{rng.randrange(5, 96) / 100:.2f}")
    grades = ["0", "1/4", "1/3", "1/2", "2/3", "3/4"]
    n1, n2 = sorted(rng.sample(range(len(grades)), 2))
    if index // 2 % 2 == 0:
        # the kothe gate asks the ratio criterion, never met by a power
        # spectrum, to agree with convergence of sum k^(-2 alpha (n2 - n1)),
        # so only alpha with 2 alpha (n2 - n1) < 1 can pass
        gap = Fraction(grades[n2]) - Fraction(grades[n1])
        kothe_spectrum = ("power", f"{rng.randrange(10, math.ceil(50 / gap) - 1) / 100:.2f}")
    else:
        kothe_spectrum = ("geometric", f"{rng.randrange(5, 96) / 100:.2f}")
    return {
        "name": f"shift-{index:03d}",
        "seed": rng.randrange(2**31),
        "system": ("shift", lo, hi),
        "a": f"{a:.2f}",
        "experiments": {
            "covariance": {"t_values": tuple(sorted(rng.sample(range(4), 1 + index % 3)))},
            "admissibility": {"grid_lo": -20, "grid_hi": 20,
                              "t_set": tuple(sorted(rng.sample(range(1, 4), 1 + index // 3 % 3)))},
            "lyapunov": {"max_t": min(1 + index % 4, (hi - lo) // 2), "n_random": index % 21},
            "tower": {"tower_type": "AB"[index % 2], "cutoff": 1 + index % 6},
            "classify": {"spectrum": spectrum, "truncation": (1000, 10000, 50000)[index % 3]},
            "kothe": {"spectrum": kothe_spectrum, "n1": grades[n1], "n2": grades[n2],
                      "truncation": (1000, 10000)[index // 3 % 2]},
            "theorem": {"t_values": tuple(sorted(rng.sample(range(1, 4), 1 + index % 2)))},
        },
    }


def shift_batch(seed: int) -> list:
    """The fixed demo config plus SHIFT_CONFIGS seeded shift-window configs."""
    rng = random.Random(f"shift-batch:{seed}")
    return [SHIFT_DEMO] + [_shift_spec(rng, i) for i in range(SHIFT_CONFIGS)]


GENERATORS = {
    "baker5-verify": baker5_verify,
    "baker6-probe": baker6_probe,
    "shift-batch": shift_batch,
}


def _value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def render(spec: dict) -> str:
    """Config text in the program's line-oriented format."""
    system = spec["system"]
    lines = [f"seed = {spec['seed']}", "", "[system]", f"kind = {system[0]}"]
    if system[0] == "shift":
        lines += [f"lo = {system[1]}", f"hi = {system[2]}"]
    else:
        lines.append(f"m = {system[1]}")
    lines += ["", "[profile]", "family = gumbel", f"a = {spec['a']}"]
    for name, params in spec["experiments"].items():
        lines += ["", f"[experiment {name}]"]
        lines += [f"{key} = {_value(value)}" for key, value in params.items()]
    return "\n".join(lines) + "\n"

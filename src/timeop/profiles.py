"""Admissible decay profiles and the block decay transform.

A decay profile is a nonincreasing function lambda: Z -> [0, 1] with
lambda -> 1 at -infinity, lambda -> 0 at +infinity, and ratio decay
lambda(s+t)/lambda(s) -> 0 for every fixed t > 0.  Admissibility is
decided in one place, :func:`check_admissible`: every gumbel profile
meets the three conditions in closed form, and logistic and tabulated
profiles are checked on a sampled grid, where logistic fails the ratio
condition.  An admissible profile defines a diagonal weighting of the
age basis; extended blockwise by the identity on the equilibrium
component, the weighting preserves total mass while damping every
fluctuation, and it intertwines the reversible step with an
irreversible contraction semigroup (see the markov module).

All profile evaluation is done in the log domain; the default gumbel
family has log lambda(s) = -exp(a s) exactly, so windows far past the
underflow point of the plain values remain fully usable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cascade import CascadeSystem

__all__ = [
    "ProfileError",
    "DecayProfile",
    "gumbel",
    "logistic",
    "profile_from_table",
    "check_admissible",
    "DecayOperator",
    "build_decay_operator",
    "verify_covariant_transform",
    "covariant_transform_deviations",
    "log_condition_number",
]

LIMIT_TOLERANCE = 1e-6


class ProfileError(ValueError):
    """A profile is malformed, inadmissible, or unusable on a window."""


@dataclass(frozen=True)
class DecayProfile:
    """A decay family with log-domain evaluation.

    Families:
      * ``gumbel``:   lambda(s) = exp(-exp(a s)), a > 0
      * ``logistic``: lambda(s) = 1 / (1 + exp(s))
      * ``custom``:   tabulated integer points (s, lambda(s))
    """

    family: str
    a: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.family not in ("gumbel", "logistic", "custom"):
            raise ProfileError(f"unknown profile family {self.family!r}")
        if self.family == "gumbel" and not (self.a > 0 and math.isfinite(self.a)):
            raise ProfileError(f"gumbel steepness must be positive and finite, got {self.a!r}")
        if self.family == "custom":
            if not self.table:
                raise ProfileError("custom profile needs a table of (s, value) points")
            seen = {}
            for s, v in self.table:
                s = int(s)
                v = float(v)
                if s in seen:
                    raise ProfileError(f"duplicate table point s={s}")
                if not (0.0 <= v <= 1.0):
                    raise ProfileError(f"table value {v!r} at s={s} is outside [0, 1]")
                seen[s] = v
            object.__setattr__(self, "table", tuple(sorted(seen.items())))

    @cached_property
    def _lookup(self):
        return dict(self.table)

    def log_value(self, s):
        """log lambda(s); vectorized over integer arrays."""
        s_arr = np.asarray(s, dtype=float)
        if self.family == "gumbel":
            with np.errstate(over="ignore"):  # -inf past a s = 709: lambda is 0.0 there
                out = -np.exp(self.a * s_arr)
        elif self.family == "logistic":
            out = -np.logaddexp(0.0, s_arr)
        else:
            flat = s_arr.ravel()
            vals = np.empty(flat.shape)
            for i, point in enumerate(flat):
                key = int(point)
                if key != point or key not in self._lookup:
                    shown = key if key == point else float(point)
                    raise ProfileError(f"profile table does not cover s={shown}")
                with np.errstate(divide="ignore"):
                    vals[i] = np.log(self._lookup[key])
            out = vals.reshape(s_arr.shape)
        return out if out.shape else float(out)

    def describe(self) -> str:
        if self.family == "gumbel":
            return f"gumbel(a={self.a:g})"
        if self.family == "logistic":
            return "logistic"
        return f"custom({len(self.table)} points)"


def gumbel(a: float = 1.0) -> DecayProfile:
    return DecayProfile("gumbel", a=float(a))


def logistic() -> DecayProfile:
    return DecayProfile("logistic")


def profile_from_table(points) -> DecayProfile:
    return DecayProfile("custom", table=tuple((int(s), float(v)) for s, v in points))


def check_admissible(profile: DecayProfile, grid=(-20, 20), t_set=(1, 2)) -> dict:
    """Decide the three decay conditions, as a report record.

    ``grid = (lo, hi)`` must have ``lo <= -20`` and ``hi >= 20``, and
    ``t_set`` positive integers.  A gumbel profile, log lambda(s) =
    -exp(a s) with a positive and finite as its constructor enforces, is
    admissible over all integers:

      1. monotone: exp(a s) increases, so log lambda decreases;
      2. limits:   exp(a s) tends to 0 at -infinity and to infinity at
                   +infinity, so lambda tends to 1 and to 0;
      3. ratio:    log lambda(s+t) - log lambda(s) = -exp(a s) (exp(a t) - 1)
                   tends to -infinity for every t > 0.

    Logistic and tabulated profiles are sampled on the integer grid,
    with tol = ``LIMIT_TOLERANCE``:

      1. monotone: lambda nonincreasing across the grid;
      2. limits:   lambda(lo) >= 1 - tol and lambda(hi) <= tol;
      3. ratio:    for each t in ``t_set``, s -> lambda(s+t)/lambda(s)
                   is nonincreasing and its last sampled value is <= tol.

    Ratios are formed as exp of log differences, never by dividing
    plain values.  The record holds the three verdicts, the grid, the
    t values and ``witnesses``, which maps a failed condition to its
    offending sample points.  A sampled record is evidence on a finite
    grid, not a proof over all integers.
    """
    lo, hi = int(grid[0]), int(grid[1])
    if lo > -20 or hi < 20:
        raise ProfileError(f"certificate grid must cover [-20, 20], got [{lo}, {hi}]")
    t_set = tuple(sorted(set(int(t) for t in t_set)))
    if not t_set or t_set[0] < 1:
        raise ProfileError("t_set must contain positive integers")
    if profile.family == "gumbel":
        return {"monotone_ok": True, "limits_ok": True, "ratio_ok": True,
                "grid": (lo, hi), "t_set": t_set, "witnesses": {}}
    t_max = t_set[-1]
    s_values = np.arange(lo, hi + t_max + 1)
    log_vals = profile.log_value(s_values)
    if np.any(np.isnan(log_vals)) or np.any(log_vals > 1e-12):
        raise ProfileError("profile leaves [0, 1] on the sample grid")

    witnesses = {}
    grid_logs = log_vals[: hi - lo + 1]

    # exact zeros give -inf logs; their flat tails diff to NaN, not a rise
    with np.errstate(invalid="ignore"):
        rises = np.nonzero(np.diff(grid_logs) > 0)[0]
    monotone_ok = rises.size == 0
    if not monotone_ok:
        witnesses["monotone"] = tuple(int(s_values[i]) for i in rises[:8])

    lam_lo = float(np.exp(grid_logs[0]))
    lam_hi = float(np.exp(grid_logs[-1]))
    limits_ok = lam_lo >= 1.0 - LIMIT_TOLERANCE and lam_hi <= LIMIT_TOLERANCE
    if not limits_ok:
        ends = []
        if lam_lo < 1.0 - LIMIT_TOLERANCE:
            ends.append((lo, lam_lo))
        if lam_hi > LIMIT_TOLERANCE:
            ends.append((hi, lam_hi))
        witnesses["limits"] = tuple(ends)

    ratio_ok = True
    ratio_witnesses = []
    for t in t_set:
        # an exact zero makes the ratio undefined (NaN); caught below
        with np.errstate(invalid="ignore"):
            log_ratio = log_vals[t : t + hi - lo + 1] - grid_logs
            bad = np.nonzero(np.diff(log_ratio) > 0)[0]
        for i in bad[:4]:
            ratio_ok = False
            ratio_witnesses.append((t, int(s_values[i]), float(np.exp(log_ratio[i + 1]))))
        last = float(np.exp(log_ratio[-1]))
        if np.isnan(log_ratio[-1]) or last > LIMIT_TOLERANCE:
            ratio_ok = False
            ratio_witnesses.append((t, hi, last))
    if not ratio_ok:
        witnesses["ratio"] = tuple(ratio_witnesses)

    return {
        "monotone_ok": monotone_ok,
        "limits_ok": limits_ok,
        "ratio_ok": ratio_ok,
        "grid": (lo, hi),
        "t_set": t_set,
        "witnesses": witnesses,
    }


class DecayOperator:
    """Diagonal age weighting of a cascade, kept in the log domain.

    The diagonal entry over a label of age n is lambda(n); entries are
    strictly positive in the log domain even where the plain float
    value underflows.  Blockwise the transform keeps the equilibrium
    component fixed and takes fluctuation coefficients to
    ``diag * fluct``.  The profile is evaluated once per age of the
    window and gathered onto the labels: every family is elementwise,
    and the labels are age-major, so the values and the first failing
    age are those of an evaluation over the labels.
    """

    def __init__(self, system: CascadeSystem, profile: DecayProfile):
        self.system = system
        self.profile = profile
        window = system.window
        per_age = np.asarray(profile.log_value(np.arange(window.lo, window.hi + 1)), dtype=float)
        if np.any(~np.isfinite(per_age)):
            bad_age = window.lo + int(np.argmax(~np.isfinite(per_age)))
            raise ProfileError(f"decay value 0 at age {bad_age} breaks injectivity")
        log_diag = per_age[system.ages - window.lo]
        log_diag.setflags(write=False)
        self.log_diag = log_diag

    @cached_property
    def diag(self) -> np.ndarray:
        """Plain diagonal values; may underflow to 0.0 on wide windows."""
        d = np.exp(self.log_diag)
        d.setflags(write=False)
        return d


def build_decay_operator(profile: DecayProfile, system: CascadeSystem) -> DecayOperator:
    """Weight the age basis by a profile, refusing one that is not admissible.

    The verdict is :func:`check_admissible`'s, on a grid covering both
    [-20, 20] and the system window; a failing record is refused with
    its witnesses.
    """
    window = system.window
    record = check_admissible(profile, grid=(min(-20, window.lo), max(20, window.hi)))
    failed = [name for name in ("monotone", "limits", "ratio") if not record[f"{name}_ok"]]
    if failed:
        raise ProfileError(
            f"profile {profile.describe()} is not admissible (failed: {', '.join(failed)}); "
            f"witnesses: {record['witnesses']!r}"
        )
    return DecayOperator(system, profile)


def verify_covariant_transform(op: DecayOperator, t: int) -> float:
    """The one-time case of :func:`covariant_transform_deviations`."""
    return float(covariant_transform_deviations(op, [t])[0])


def covariant_transform_deviations(op: DecayOperator, times) -> np.ndarray:
    """Deviation of the weighted covariance at each t of ``times``.

    Checks ``(U^t)' L U^t = lambda(T + t)`` on basis vectors inside the
    t-margin, along the step index map, with both sides compared as log
    weights: plain lambda underflows to 0.0 on wide windows (4 of the 21
    labels of shift [-10, 10] under gumbel(1)), where a float comparison
    reads 0 == 0 whatever the weights.  In log form the squared variant
    ``L^2`` is the doubled arrays, whose deviation is exactly twice this
    one, so it checks nothing more.  A correct construction returns
    exactly 0.0.  All times take one pass of their step maps.
    """
    times = np.asarray(times, dtype=np.int64).reshape(-1, 1)
    system = op.system
    shifted = system.ages + times
    return system.pullback_deviation(times.ravel(), op.log_diag, op.profile.log_value(shifted),
                                     shifted <= system.window.hi)


def log_condition_number(op: DecayOperator) -> float:
    """log of lambda(lo)/lambda(hi); grows without bound as windows widen."""
    return float(op.log_diag.max() - op.log_diag.min())

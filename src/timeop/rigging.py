"""Graded norm towers and singular-spectrum classification.

A positive injective diagonal operator J with entries at most one
generates a family of strengthened Hilbert norms on its range,
``|v|_n = || J^(-n) v ||``, indexed by rational grades n >= 0.  J is
read as its log diagonal ``log_diag`` (a decay operator carries one),
and vectors are rows of ``(rows, dim)`` coefficient arrays, which
:func:`graded_norm_rows` norms at every grade.  Three canonical grade
sets are built:

  A: the single top grade 1 (one strengthened Hilbert norm),
  B: {0, 1/2, 2/3, ..., p/(p+1), ...} with supremum 1 not attained,
  C: {0, 1, 2, ...} unbounded.

Grade-0 always recovers the ambient norm exactly.  All weighted norms
are evaluated per coordinate in the log domain, with their peak log
magnitudes; a norm whose peak passes the float range reads inf.  J is
diagonal, so the tower's monotonicity and the defining isometry hold
for every vector exactly when they hold label by label: they are
checked per label, on no sample, and form no weight as a float.

Separately, closed-form singular spectra (power and geometric families)
are classified as compact / Hilbert-Schmidt / nuclear.  Verdicts are
decided analytically, and partial sums are bracketed with integral tail
bounds.  :func:`build_tower`, :func:`classify_spectrum` and
:func:`kothe_nuclearity` return their verdicts as the plain dicts a
report records, fractions written as text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import vector_norm

__all__ = [
    "graded_norm_rows",
    "build_tower",
    "isometry_check",
    "SingularSpectrum",
    "power_spectrum",
    "geometric_spectrum",
    "classify_spectrum",
    "kothe_nuclearity",
]

# integer powers of an operator that classify_spectrum classifies
MAX_POWER = 6

# spectrum terms below 2**-UNDERFLOW_BITS are +0.0 as floats: the margin
# of six binades under the smallest subnormal 2**-1074 absorbs the
# rounding of the cut and of pow itself
UNDERFLOW_BITS = 1080.0


def graded_norm_rows(coeffs: np.ndarray, grades, log_diag: np.ndarray):
    """Graded norms ``|v|_n = || J^(-n) v ||`` of each row of a ``(rows, dim)`` block.

    J is given by its log diagonal, and each grade n >= 0 is a float.
    Returns the ``(rows, grades)`` norms and the peak log magnitudes
    log|v_k| - n log d_k behind them.  A norm can be finite only while
    exp(peak) is; past that it reads inf.  Grade 0 is the ambient norm,
    exactly :func:`~timeop.hilbert.vector_norm`, and has peak -inf.
    """
    grades = np.asarray(grades, dtype=float)
    if np.any(grades < 0):
        raise ValueError(f"grades are non-negative, got {float(grades.min())}")
    rows, dim = coeffs.shape
    norms = np.zeros((rows, grades.size))
    peaks = np.full((rows, grades.size), -np.inf)
    for g in np.nonzero(grades == 0)[0]:
        norms[:, g] = [vector_norm(row) for row in coeffs]
    up = np.nonzero(grades > 0)[0]
    if up.size:
        live = coeffs != 0
        # a row of zeros has peak -inf and norm 0; a peak past the float
        # range overflows to an inf norm
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logs = np.log(np.abs(coeffs))[:, None, :] - (grades[up, None] * log_diag)
            logs = logs.reshape(-1, dim)  # row-major: (row, grade) pairs
            peak = logs.max(axis=1)  # zero coefficients log to -inf
            logs -= peak[:, None]
            logs *= 2.0
            # each (row, grade) sums the terms of the row's nonzero labels
            sums = [w[live[i // up.size]].sum() for i, w in enumerate(np.exp(logs))]
            norm = np.exp(peak) * np.sqrt(sums)
        norms[:, up] = np.where(peak > -np.inf, norm, 0.0).reshape(rows, up.size)
        peaks[:, up] = peak.reshape(rows, up.size)
    return norms, peaks


def _tower_grades(tower_type: str, cutoff: int) -> tuple:
    if tower_type == "A":
        return (Fraction(1),)
    if tower_type == "B":
        return tuple(Fraction(p, p + 1) for p in range(cutoff + 1))
    if tower_type == "C":
        return tuple(Fraction(k) for k in range(cutoff + 1))
    raise ValueError(f"tower type must be A, B, or C, got {tower_type!r}")


def build_tower(j, tower_type: str, cutoff: int) -> dict:
    """A norm tower of a decay operator, checked per label, as its report record.

    ``|v|_n^2 = sum_k v_k^2 exp(-2 n log d_k)`` is nondecreasing in the
    grade n for every v exactly when every log d_k <= 0, so that
    precondition is the monotonicity verdict; larger entries are
    rejected.  No weight is formed, so every grade is defined on every
    window.  The record holds the grades and the supremum as fraction
    text and the deviation of the defining isometry
    (:func:`isometry_check`).
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
    if np.any(j.log_diag > 0):
        raise ValueError("tower monotonicity needs diagonal entries <= 1")
    grades = _tower_grades(tower_type, cutoff)
    return {
        "tower_type": tower_type,
        "grades": [str(g) for g in grades],
        "supremum": None if tower_type == "C" else "1",
        "supremum_attained": tower_type == "A",
        "isometry_deviation": isometry_check(j),
    }


def isometry_check(j) -> float:
    """Deviation of the defining isometry of the strengthened inner product.

    J is a decay operator.  The grade-1 pairing of J sigma with J rho,
    under the Gram weights lambda(age_k)^-2 read from ``j.profile``, is
    diagonal, so it equals the ambient pairing of sigma with rho for
    every pair exactly when it does on each basis pair (e_k, e_k).
    Each label's pairing of (d_k e_k, d_k e_k) is
    exp(2 (log d_k - log lambda(age_k))), kept in the log domain, and
    the largest |expm1| of its exponent is returned: exactly 0.0 when
    every ``log_diag`` entry is its age's profile value, whatever the
    entry's size, and the relative error of the pairing at a label
    whose weight is off it.
    """
    system = j.system
    window = system.window
    per_age = j.profile.log_value(np.arange(window.lo, window.hi + 1))
    logs = 2.0 * (j.log_diag - per_age[system.ages - window.lo])
    return float(np.abs(np.expm1(logs)).max(initial=0.0))


# -- singular spectra ------------------------------------------------------


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of a positive compact candidate, k = 1, 2, ...

    Closed forms: ``power(alpha)`` has values (k+1)**(-alpha) and
    ``geometric(q)`` has values q**k.  ``truncation`` is the number of
    terms materialized for partial sums.  :meth:`values` calls ``pow``
    only on the terms that can be nonzero and writes +0.0 for the rest,
    so every value is bitwise the closed form's.
    """

    family: str
    alpha: float | None = None
    q: float | None = None
    truncation: int = 100_000

    def __post_init__(self):
        if self.family == "power":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("power spectrum needs alpha > 0")
        elif self.family == "geometric":
            if self.q is None or not (0 < self.q < 1):
                raise ValueError("geometric spectrum needs 0 < q < 1")
        else:
            raise ValueError(f"unknown spectrum family {self.family!r}")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")

    def values(self) -> np.ndarray:
        # pow runs only on the terms of at least 2**-UNDERFLOW_BITS, a
        # prefix since the terms fall as k grows; every other term
        # rounds to the +0.0 already in place
        out = np.zeros(self.truncation)
        if self.family == "power":
            with np.errstate(over="ignore"):
                top = np.exp2(UNDERFLOW_BITS / self.alpha)  # the largest live base k + 1
            live = max(0, math.floor(min(top, self.truncation + 1.0)) - 1)
            np.power(np.arange(2.0, live + 2.0), -self.alpha, out=out[:live])
        else:
            top = UNDERFLOW_BITS / -math.log2(self.q)  # the largest live k
            live = math.floor(min(top, self.truncation))
            np.power(self.q, np.arange(1.0, live + 1.0), out=out[:live])
        return out

    def describe(self) -> str:
        if self.family == "power":
            return f"power({self.alpha:g})"
        return f"geometric({self.q:g})"


def power_spectrum(alpha: float, truncation: int = 100_000) -> SingularSpectrum:
    return SingularSpectrum("power", alpha=float(alpha), truncation=truncation)


def geometric_spectrum(q: float, truncation: int = 100_000) -> SingularSpectrum:
    return SingularSpectrum("geometric", q=float(q), truncation=truncation)


def _partial_sum(values: np.ndarray, exponent: float) -> float:
    """``np.sum(values ** exponent)``, bitwise."""
    with np.errstate(under="ignore"):
        return float(np.sum(_powers(values, exponent)))


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent``, with ``pow`` called only where it can be nonzero.

    Entries below 2**(-UNDERFLOW_BITS / exponent) have powers below
    2**-UNDERFLOW_BITS, which round to +0.0 and are left as the zeros
    of a full-length array, so a sum over it takes the same pairwise
    tree as over ``values ** exponent``.  numpy serves exponents 1, 2
    and 1/2 without the general ``pow`` (a copy, a square, a square
    root), so they get the plain formula.
    """
    if exponent in (0.5, 1.0, 2.0):
        return values ** exponent
    floor = 2.0 ** (-UNDERFLOW_BITS / exponent)  # +0.0 for exponents near 1 and below
    return np.power(values, exponent, out=np.zeros(values.size), where=values >= floor)


def _tail_bounds(spectrum: SingularSpectrum, exponent: float):
    """Closed-form bracket for the tail beyond the truncation, if finite."""
    big_k = spectrum.truncation
    if spectrum.family == "power":
        s = spectrum.alpha * exponent
        if s <= 1.0:
            return None
        lo = (big_k + 2.0) ** (1.0 - s) / (s - 1.0)
        hi = (big_k + 1.0) ** (1.0 - s) / (s - 1.0)
        return lo, hi
    r = spectrum.q ** exponent
    tail = r ** (big_k + 1) / (1.0 - r)
    return tail, tail


def _closed_form_sum(spectrum: SingularSpectrum, exponent: float):
    if spectrum.family == "geometric":
        r = spectrum.q ** exponent
        if r == 1.0:
            # q**p rounds to one: r / (1 - r) would divide by zero, while
            # the sum 1 / (q**-p - 1) is finite
            return 1.0 / math.expm1(-exponent * math.log(spectrum.q))
        return r / (1.0 - r)
    return None


def _converges(spectrum: SingularSpectrum, exponent: float) -> bool:
    """Analytic convergence verdict of sum lambda_k**exponent."""
    if spectrum.family == "power":
        return bool(spectrum.alpha * exponent > 1.0)
    return True


def classify_spectrum(spectrum: SingularSpectrum) -> dict:
    """Classify a singular spectrum and the powers of its operator, as a report record.

    compact iff the values decrease to zero, as both families do;
    Hilbert-Schmidt iff the squares are summable; nuclear iff the values
    themselves are.  For each integer n up to ``MAX_POWER`` the spectrum
    of the n-th power (values**n) is classified the same way under
    ``powers[str(n)]``, and the smallest nuclear power is reported when
    one exists.  Each ``evidence`` entry carries the partial sum of
    values**exponent with its tail bracket, and a convergent entry with
    a bracket also the window ``partial_sum + tail`` that holds the limit.
    """
    powers = {str(n): {"nuclear": _converges(spectrum, n),
                       "hilbert_schmidt": _converges(spectrum, 2 * n)}
              for n in range(1, MAX_POWER + 1)}
    min_nuclear = next((n for n in range(1, MAX_POWER + 1) if _converges(spectrum, n)), None)
    if min_nuclear is None and spectrum.family == "power":
        min_nuclear = math.floor(1.0 / spectrum.alpha) + 1

    values = spectrum.values()
    evidence = []
    for exponent in (1.0, 2.0, 4.0):
        partial = _partial_sum(values, exponent)
        bounds = _tail_bounds(spectrum, exponent)
        entry = {
            "exponent": exponent,
            "partial_sum": partial,
            "converges": _converges(spectrum, exponent),
            "tail_lo": None if bounds is None else bounds[0],
            "tail_hi": None if bounds is None else bounds[1],
        }
        if entry["converges"] and bounds is not None:
            entry["limit_window"] = [partial + bounds[0], partial + bounds[1]]
        evidence.append(entry)

    return {
        "spectrum": spectrum.describe(),
        "compact": True,
        "hilbert_schmidt": _converges(spectrum, 2.0),
        "nuclear": _converges(spectrum, 1.0),
        "min_nuclear_power": min_nuclear,
        "method": "analytic-tail-bound",
        "powers": powers,
        "evidence": evidence,
    }


def kothe_nuclearity(spectrum: SingularSpectrum, n1, n2) -> dict:
    """Nuclearity criterion between two grades of the sequence tower, as a report record.

    Requires 0 <= n1 < n2 < 1, written as fraction text in the record.
    The criterion holds when the successive ratio limit of the singular
    values stays strictly below one; the accompanying series
    sum lambda_k**(2 (n2 - n1)) is reported with its analytic
    convergence verdict.
    """
    n1 = Fraction(n1)
    n2 = Fraction(n2)
    if not (0 <= n1 < n2 < 1):
        raise ValueError(f"grades must satisfy 0 <= n1 < n2 < 1, got {n1}, {n2}")
    exponent = float(2 * (n2 - n1))

    # successive ratios: 1 in the limit for a power spectrum, q for a
    # geometric one
    ratio_limsup = 1.0 if spectrum.family == "power" else spectrum.q

    return {
        "spectrum": spectrum.describe(),
        "n1": str(n1),
        "n2": str(n2),
        "exponent": exponent,
        "ratio_limsup": ratio_limsup,
        "criterion_met": ratio_limsup < 1.0,
        "partial_sum": _partial_sum(spectrum.values(), exponent),
        "sum_converges": _converges(spectrum, exponent),
        "closed_form_sum": _closed_form_sum(spectrum, exponent),
        "method": "analytic-tail-bound",
    }

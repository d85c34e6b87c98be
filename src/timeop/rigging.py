"""Graded norm towers and singular-spectrum classification.

A positive injective diagonal operator J with entries at most one
generates a family of strengthened Hilbert norms on its range,
``|v|_n = || J^(-n) v ||``, indexed by rational grades n >= 0.  Three
canonical grade sets are materialized:

  A: the single top grade 1 (one strengthened Hilbert norm),
  B: {0, 1/2, 2/3, ..., p/(p+1), ...} with supremum 1 not attained,
  C: {0, 1, 2, ...} unbounded.

Grade-0 always recovers the ambient norm exactly.  All weighted norms
and inner products are evaluated per coordinate in the log domain, and
a configurable cap on the per-coordinate log magnitude realizes the
finite-truncation shadow of the unbounded inverse: past the cap a
vector is reported as outside the materialized domain rather than
silently overflowing.

Separately, closed-form singular spectra (power and geometric families)
are classified as compact / Hilbert-Schmidt / nuclear.  Verdicts are
decided analytically, and partial sums are bracketed with integral tail
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import HVector

__all__ = [
    "NormDomainError",
    "LOG_WEIGHT_CAP",
    "weighted_inner",
    "graded_norm",
    "NormTower",
    "build_tower",
    "isometry_check",
    "SingularSpectrum",
    "power_spectrum",
    "geometric_spectrum",
    "PowerVerdict",
    "PartialSumEvidence",
    "OperatorClassReport",
    "classify_spectrum",
    "KotheReport",
    "kothe_nuclearity",
]

LOG_WEIGHT_CAP = 700.0


class NormDomainError(ValueError):
    """A weighted coordinate exceeds the materialized log range."""


def _log_diag_of(j) -> np.ndarray:
    """Log diagonal of a positive diagonal operator J.

    J is any object carrying ``log_diag`` and ``basis_id`` (a decay
    operator does); the log form keeps entries that underflow as plain
    floats strictly positive.
    """
    log_diag = getattr(j, "log_diag", None)
    if log_diag is None:
        raise ValueError("need an object carrying log_diag")
    return np.asarray(log_diag, dtype=float)


def weighted_inner(u: HVector, v: HVector, log_weights) -> float:
    """sum_k u_k v_k exp(log_weights[k]), each term formed in log domain.

    This evaluates Gram-weighted pairings whose weights span hundreds of
    orders of magnitude without intermediate under- or overflow.
    """
    lw = np.asarray(log_weights, dtype=float)
    uc, vc = u.coeffs, v.coeffs
    active = (uc != 0) & (vc != 0)
    if not np.any(active):
        return 0.0
    if not np.any(lw[active]):
        return float(np.dot(uc[active], vc[active]))
    logs = np.log(np.abs(uc[active])) + np.log(np.abs(vc[active])) + lw[active]
    signs = np.sign(uc[active]) * np.sign(vc[active])
    peak = float(logs.max())
    if peak > LOG_WEIGHT_CAP:
        raise NormDomainError(
            f"outside materialized domain: term magnitude exp({peak:.1f}) exceeds the cap"
        )
    return float(np.exp(peak) * np.sum(signs * np.exp(logs - peak)))


def graded_norm(v: HVector, n, j, cap: float = LOG_WEIGHT_CAP) -> float:
    """Strengthened norm of grade n: the ambient norm of J^(-n) v.

    Evaluated per coordinate as exp(log|v_k| - n log d_k); grade 0
    returns the ambient norm exactly.  Coordinates whose weighted log
    magnitude exceeds ``cap`` raise :class:`NormDomainError`, reporting
    the vector as outside the materialized domain of the grade.
    """
    grade = float(Fraction(n)) if isinstance(n, (int, Fraction)) else float(n)
    if grade < 0:
        raise ValueError(f"grades are non-negative, got {n!r}")
    if grade == 0:
        return v.norm()
    log_diag = _log_diag_of(j)
    if v.dim != log_diag.shape[0] or v.basis_id != j.basis_id:
        raise ValueError("vector and operator live over different bases")
    active = v.coeffs != 0
    if not np.any(active):
        return 0.0
    logs = np.log(np.abs(v.coeffs[active])) - grade * log_diag[active]
    peak = float(logs.max())
    if peak > cap:
        raise NormDomainError(
            f"outside materialized domain: grade {n} weights reach exp({peak:.1f})"
        )
    return float(np.exp(peak) * math.sqrt(np.sum(np.exp(2.0 * (logs - peak)))))


@dataclass(frozen=True)
class NormTower:
    """A materialized prefix of one of the three canonical grade sets."""

    tower_type: str
    grades: tuple
    j: object
    cutoff: int
    supremum: Fraction | None
    supremum_attained: bool
    monotone_samples: int

    def norm(self, v: HVector, grade) -> float:
        if Fraction(grade) not in self.grades:
            raise ValueError(f"grade {grade!r} is not materialized in this tower")
        return graded_norm(v, grade, self.j)


def _tower_grades(tower_type: str, cutoff: int) -> tuple:
    if tower_type == "A":
        return (Fraction(1),)
    if tower_type == "B":
        return tuple(Fraction(p, p + 1) for p in range(cutoff + 1))
    if tower_type == "C":
        return tuple(Fraction(k) for k in range(cutoff + 1))
    raise ValueError(f"tower type must be A, B, or C, got {tower_type!r}")


def build_tower(j, tower_type: str, cutoff: int, samples: int = 20, seed: int = 0) -> NormTower:
    """Materialize a norm tower and verify grade monotonicity on samples.

    Monotonicity (higher grade, larger norm) requires every diagonal
    entry of J to be at most one; larger entries are rejected.  The
    sampled verification draws ``samples`` standard normal vectors and
    checks every consecutive grade pair.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be a positive integer, got {cutoff!r}")
    log_diag = _log_diag_of(j)
    if np.any(log_diag > 0):
        raise ValueError("tower monotonicity needs diagonal entries <= 1")
    grades = _tower_grades(tower_type, cutoff)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        v = HVector(rng.standard_normal(log_diag.shape[0]), j.basis_id)
        previous = None
        for grade in grades:
            current = graded_norm(v, grade, j)
            if previous is not None and current < previous * (1.0 - 1e-12):
                raise ValueError(
                    f"grade monotonicity failed between grades around {grade} on a sample"
                )
            previous = current
    supremum = {"A": Fraction(1), "B": Fraction(1), "C": None}[tower_type]
    attained = tower_type == "A"
    return NormTower(tower_type, grades, j, cutoff, supremum, attained, samples)


def isometry_check(j, samples: int = 100, seed: int = 0) -> float:
    """Deviation of the defining isometry of the strengthened inner product.

    Draws random pairs (sigma, rho), applies J to both, and compares
    their grade-1 inner product (Gram weights exp(-2 log d)) against the
    ambient pairing of the originals.  The deviation is normalized by
    the product of the ambient norms; the identity holds algebraically,
    so the return value measures pure round-off.
    """
    log_diag = _log_diag_of(j)
    basis_id = j.basis_id
    dim = log_diag.shape[0]
    diag = np.exp(log_diag)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        sigma = HVector(rng.standard_normal(dim), basis_id)
        rho = HVector(rng.standard_normal(dim), basis_id)
        j_sigma = HVector(diag * sigma.coeffs, basis_id)
        j_rho = HVector(diag * rho.coeffs, basis_id)
        lhs = weighted_inner(j_sigma, j_rho, -2.0 * log_diag)
        rhs = float(np.dot(sigma.coeffs, rho.coeffs))
        scale = sigma.norm() * rho.norm()
        if scale == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


# -- singular spectra ------------------------------------------------------


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of a positive compact candidate, k = 1, 2, ...

    Closed forms: ``power(alpha)`` has values (k+1)**(-alpha) and
    ``geometric(q)`` has values q**k.  ``truncation`` is the number of
    terms materialized for partial sums.
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

    def values(self, count: int | None = None) -> np.ndarray:
        count = count or self.truncation
        k = np.arange(1, count + 1, dtype=float)
        if self.family == "power":
            return (k + 1.0) ** (-self.alpha)
        return self.q ** k

    def describe(self) -> str:
        if self.family == "power":
            return f"power({self.alpha:g})"
        return f"geometric({self.q:g})"


def power_spectrum(alpha: float, truncation: int = 100_000) -> SingularSpectrum:
    return SingularSpectrum("power", alpha=float(alpha), truncation=truncation)


def geometric_spectrum(q: float, truncation: int = 100_000) -> SingularSpectrum:
    return SingularSpectrum("geometric", q=float(q), truncation=truncation)


def _partial_sum(spectrum: SingularSpectrum, exponent: float) -> float:
    vals = spectrum.values()
    with np.errstate(under="ignore"):
        return float(np.sum(vals ** exponent))


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
        return r / (1.0 - r)
    return None


def _converges(spectrum: SingularSpectrum, exponent: float) -> bool:
    """Analytic convergence verdict of sum lambda_k**exponent."""
    if spectrum.family == "power":
        return bool(spectrum.alpha * exponent > 1.0)
    return True


@dataclass(frozen=True)
class PowerVerdict:
    nuclear: bool
    hilbert_schmidt: bool


@dataclass(frozen=True)
class PartialSumEvidence:
    exponent: float
    partial: float
    tail_lo: float | None
    tail_hi: float | None
    converges: bool


@dataclass(frozen=True)
class OperatorClassReport:
    """Compact / Hilbert-Schmidt / nuclear verdicts for J and its powers.

    Every verdict is analytic, so ``method`` is ``analytic-tail-bound``.
    """

    spectrum: str
    compact: bool
    hilbert_schmidt: bool
    nuclear: bool
    power_thresholds: tuple
    min_nuclear_power: int | None
    evidence: tuple
    method: str = "analytic-tail-bound"

    def power_verdict(self, n: int) -> PowerVerdict:
        for power, verdict in self.power_thresholds:
            if power == n:
                return verdict
        raise KeyError(f"power {n} not materialized in this report")


def classify_spectrum(spectrum: SingularSpectrum, max_power: int = 6) -> OperatorClassReport:
    """Classify a singular spectrum and the powers of its operator.

    compact iff the values decrease to zero, as both families do;
    Hilbert-Schmidt iff the squares are summable; nuclear iff the values
    themselves are.  For each integer n up to ``max_power`` the spectrum
    of the n-th power (values**n) is classified the same way, and the
    smallest nuclear power is reported when one exists.
    """
    nuclear = _converges(spectrum, 1.0)
    hilbert_schmidt = _converges(spectrum, 2.0)

    thresholds = []
    min_nuclear = None
    for n in range(1, max_power + 1):
        verdict = PowerVerdict(nuclear=_converges(spectrum, n),
                               hilbert_schmidt=_converges(spectrum, 2 * n))
        thresholds.append((n, verdict))
        if verdict.nuclear and min_nuclear is None:
            min_nuclear = n
    if min_nuclear is None and spectrum.family == "power":
        min_nuclear = math.floor(1.0 / spectrum.alpha) + 1

    evidence = []
    for exponent in (1.0, 2.0, 4.0):
        bounds = _tail_bounds(spectrum, exponent)
        evidence.append(
            PartialSumEvidence(
                exponent=exponent,
                partial=_partial_sum(spectrum, exponent),
                tail_lo=None if bounds is None else bounds[0],
                tail_hi=None if bounds is None else bounds[1],
                converges=_converges(spectrum, exponent),
            )
        )

    return OperatorClassReport(
        spectrum=spectrum.describe(),
        compact=True,
        hilbert_schmidt=hilbert_schmidt,
        nuclear=nuclear,
        power_thresholds=tuple(thresholds),
        min_nuclear_power=min_nuclear,
        evidence=tuple(evidence),
    )


@dataclass(frozen=True)
class KotheReport:
    """Ratio-limit evidence for nuclearity of the graded sequence space."""

    spectrum: str
    n1: Fraction
    n2: Fraction
    exponent: float
    ratio_limsup: float
    criterion_met: bool
    partial_sum: float
    sum_converges: bool
    closed_form_sum: float | None
    method: str = "analytic-tail-bound"


def kothe_nuclearity(spectrum: SingularSpectrum, n1, n2) -> KotheReport:
    """Nuclearity criterion between two grades of the sequence tower.

    Requires 0 <= n1 < n2 < 1.  The criterion holds when the successive
    ratio limit of the singular values stays strictly below one; the
    accompanying series sum lambda_k**(2 (n2 - n1)) is reported with its
    analytic convergence verdict.
    """
    n1 = Fraction(n1)
    n2 = Fraction(n2)
    if not (0 <= n1 < n2 < 1):
        raise ValueError(f"grades must satisfy 0 <= n1 < n2 < 1, got {n1}, {n2}")
    exponent = float(2 * (n2 - n1))

    # successive ratios: 1 in the limit for a power spectrum, q for a
    # geometric one
    ratio_limsup = 1.0 if spectrum.family == "power" else spectrum.q

    return KotheReport(
        spectrum=spectrum.describe(),
        n1=n1,
        n2=n2,
        exponent=exponent,
        ratio_limsup=ratio_limsup,
        criterion_met=ratio_limsup < 1.0,
        partial_sum=_partial_sum(spectrum, exponent),
        sum_converges=_converges(spectrum, exponent),
        closed_form_sum=_closed_form_sum(spectrum, exponent),
    )

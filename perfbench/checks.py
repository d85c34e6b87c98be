"""Independent checks of one config's report against its spec.

Every expected value is computed here from the spec alone, by closed
forms the construction must satisfy, never from a stored copy of an
earlier report.  ``check_report`` returns one ``Op`` per experiment
record and one per independent check; an op fails when its record has
status ``error`` or ``fail`` or when its check disagrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# HVector.norm squares the coefficients, so a norm below about 1e-154
# loses precision in the subnormal range and then reads 0.0.
NORM_UNDERFLOW = 1e-154


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    known_fault: bool = False  # fails only through the HVector.norm underflow


def _age(label: str, kind: str) -> int:
    if kind == "shift":
        return int(label)
    return max(int(i) for i in label.strip("{}").split(","))


def _lyapunov(spec, details):
    """Canonical trace norms equal exp(e^(a n) - e^(a (n + t))) at 1e-12."""
    a = float(spec["a"])
    kind, hi = spec["system"][0], spec["system"][-1]
    max_t = spec["experiments"]["lyapunov"]["max_t"]
    n = _age(details["canonical_label"], kind)
    if n != hi - max_t or details["trace_t"] != list(range(max_t + 1)):
        return False, False
    wrong = []
    for t, norm in zip(details["trace_t"], details["trace_norm"]):
        expected = math.exp(math.exp(a * n) - math.exp(a * (n + t)))
        if abs(norm - expected) > 1e-12 * expected:
            wrong.append(expected)
    return not wrong, bool(wrong) and all(e < NORM_UNDERFLOW for e in wrong)


def _positivity_rows(spec, sweep):
    """Each canonical row 1+chi({0}) has min_cell = 1 - exp(1 - e^(a t))."""
    params = spec["experiments"]["positivity"]
    rows = {(e["a"], e["t"]): e["min_cell"] for e in sweep if e["density"] == "1+chi({0})"}
    for a_text in params["sweep_a"]:
        a = float(a_text)
        for t in params["t_values"]:
            expected = 1.0 - math.exp(1.0 - math.exp(a * t))
            got = rows.get((a, t))
            yield f"positivity:a={a_text},t={t}", got is not None and abs(got - expected) <= 1e-12


def _classify(spec, details):
    """Verdicts follow from alpha; a geometric spectrum is all true."""
    family, value = spec["experiments"]["classify"]["spectrum"]
    if family == "geometric":
        expected_powers = {str(n): {"nuclear": True, "hilbert_schmidt": True} for n in range(1, 7)}
        expected = (True, True, 1)
    else:
        alpha = Fraction(value)
        expected_powers = {str(n): {"nuclear": n * alpha > 1, "hilbert_schmidt": 2 * n * alpha > 1}
                           for n in range(1, 7)}
        expected = (alpha > 1, 2 * alpha > 1, math.floor(1 / alpha) + 1)
    got = (details["nuclear"], details["hilbert_schmidt"], details["min_nuclear_power"])
    return details["compact"] is True and got == expected and details["powers"] == expected_powers


def _kothe(spec, details):
    """closed_form_sum = r/(1 - r), r = q^(2 (n2 - n1)); power spectra fail the criterion."""
    params = spec["experiments"]["kothe"]
    family, value = params["spectrum"]
    if family == "power":
        return details["criterion_met"] is False and details["closed_form_sum"] is None
    exponent = 2 * (Fraction(params["n2"]) - Fraction(params["n1"]))
    r = math.exp(float(exponent) * math.log(float(value)))
    expected = r / (1.0 - r)
    got = details["closed_form_sum"]
    return (details["criterion_met"] is True and got is not None
            and abs(got - expected) <= 1e-12 * expected)


def _covariance(spec, details):
    """Covariance, projector transport and weighted covariance are exact."""
    return (details["time_covariance_deviation"] == 0.0
            and details["projector_transport_deviation"] == 0.0
            and details["weighted_covariance_deviation"] == 0.0)


def _admissibility(spec, details):
    """Every gumbel certificate is admissible."""
    return details["monotone_ok"] and details["limits_ok"] and details["ratio_ok"]


def _tower(spec, details):
    """The defining isometry of the strengthened inner product holds to 1e-10."""
    return details["isometry_deviation"] <= 1e-10


_SINGLE = {
    "covariance": _covariance,
    "admissibility": _admissibility,
    "tower": _tower,
    "classify": _classify,
    "kothe": _kothe,
}


def check_report(spec: dict, report: dict) -> list:
    """Ops for one config: its experiment records and the independent checks."""
    prefix = spec["name"]
    records = {r["name"]: r for r in report["experiments"]}
    ops = []
    for name in spec["experiments"]:
        record = records.get(name)
        ok = record is not None and record["status"] not in ("error", "fail")
        ops.append(Op(f"{prefix}/{name}", ok))
        details = record.get("details") if record else None
        if name == "lyapunov":
            good, known = _lyapunov(spec, details) if details else (False, False)
            ops.append(Op(f"{prefix}/lyapunov:closed-form", good, known))
        elif name == "positivity":
            sweep = details["sweep"] if details else []
            ops += [Op(f"{prefix}/{n}", good) for n, good in _positivity_rows(spec, sweep)]
        elif name in _SINGLE:
            good = bool(details) and bool(_SINGLE[name](spec, details))
            ops.append(Op(f"{prefix}/{name}:check", good))
    return ops

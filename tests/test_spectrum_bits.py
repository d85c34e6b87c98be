"""Spectrum window sums are the plain materialized formulas to 1e-14.

``classify`` and ``kothe`` report the window sums sum_{k<=K} lambda_k**p
in closed form and never form the spectrum.  The plain formula, the
array of K values raised to p and summed, is kept here as the
reference; each sum must lie within 1e-14 of it relative, and be
exactly 0.0 where the reference is, over spectra that underflow early,
late and never.  Exact rational sums give a reference that follows
neither float route.
"""

import math
import tracemalloc
import warnings
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest

from timeop.config import parse_config
from timeop.rigging import (
    SingularSpectrum,
    classify_spectrum,
    geometric_spectrum,
    kothe_nuclearity,
    power_spectrum,
)
from timeop.runner import run_experiments

QS = [n / 100 for n in range(1, 100)] + [1e-3, 0.999, 1.0 - 2.0**-52]
ALPHAS = [0.1, 0.5, 2.5, 100.0]
TRUNCATIONS = [1, 7, 1_000, 10_000, 50_000, 100_000]
# the Köthe grades the shift-batch benchmark draws from, and the distinct
# exponents 2 (n2 - n1) of their pairs
GRADES = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
          Fraction(3, 4)]
KOTHE_EXPONENTS = sorted({float(2 * (n2 - n1)) for n1, n2 in combinations(GRADES, 2)})
RELATIVE = 1e-14


def plain_values(spectrum, count):
    k = np.arange(1, count + 1, dtype=float)
    if spectrum.family == "power":
        return (k + 1.0) ** (-spectrum.alpha)
    return spectrum.q ** k


def plain_sum(values, exponent):
    with np.errstate(under="ignore"):
        return float(np.sum(values ** exponent))


def assert_close(got, reference):
    """Within RELATIVE of the reference, and exactly 0.0 where it is."""
    if reference == 0.0:
        assert got == 0.0
    else:
        assert abs(got - reference) <= RELATIVE * reference, (got, reference)


def kothe_sum(spectrum, exponent):
    """The Köthe partial sum at ``exponent``, from grades 0 and exponent / 2."""
    return kothe_nuclearity(spectrum, 0, Fraction(exponent / 2))["partial_sum"]


def with_truncation(spectrum, truncation):
    return SingularSpectrum(spectrum.family, spectrum.alpha, spectrum.q, truncation)


def assert_sums_match(spectrum, reference):
    """classify's and kothe's sums of ``spectrum`` against a reference value array."""
    for item in classify_spectrum(spectrum)["evidence"]:
        assert_close(item["partial_sum"], plain_sum(reference, item["exponent"]))
    for exponent in KOTHE_EXPONENTS:
        assert_close(kothe_sum(spectrum, exponent), plain_sum(reference, exponent))


SPECTRA = [geometric_spectrum(q) for q in QS] + [power_spectrum(a) for a in ALPHAS]


@pytest.mark.parametrize("base", SPECTRA, ids=lambda s: f"{s.family}({s.q or s.alpha!r})")
def test_values_and_partial_sums_are_the_plain_formulas(base):
    for truncation in TRUNCATIONS:
        spectrum = with_truncation(base, truncation)
        assert_sums_match(spectrum, plain_values(spectrum, truncation))


@pytest.mark.parametrize("spectrum", [
    geometric_spectrum(0.5, truncation=50_000),
    geometric_spectrum(0.95, truncation=100_000),
    power_spectrum(100.0, truncation=10_000),
], ids=lambda s: s.describe())
def test_kothe_partial_sums_are_the_plain_formula(spectrum):
    reference = plain_values(spectrum, spectrum.truncation)
    for n1, n2 in combinations(GRADES, 2):
        report = kothe_nuclearity(spectrum, n1, n2)
        assert_close(report["partial_sum"], plain_sum(reference, report["exponent"]))


def test_grid_reaches_the_skipped_tails():
    """The grid holds references whose terms round to +0.0, in values and in powers."""
    assert plain_values(geometric_spectrum(0.5), 10_000)[-1] == 0.0
    assert plain_values(power_spectrum(100.0), 10_000)[-1] == 0.0
    assert plain_values(geometric_spectrum(0.999), 100_000)[-1] > 0.0
    assert plain_values(power_spectrum(2.5), 100_000)[-1] > 0.0
    # a spectrum whose own values never underflow still has a +0.0 tail
    # in its fourth powers
    values = plain_values(geometric_spectrum(0.99), 50_000)
    assert values[-1] > 0.0
    assert values[-1] ** 4.0 == 0.0


def test_values_of_a_shorter_count():
    # every count up to 40 crosses the power family's split between the
    # terms added one by one and the Euler-Maclaurin tail
    for base in (power_spectrum(0.5), power_spectrum(1.5), power_spectrum(1.0 / 3.0),
                 geometric_spectrum(0.25)):
        for count in range(1, 41):
            spectrum = with_truncation(base, count)
            assert_sums_match(spectrum, plain_values(spectrum, count))


def masked_values(spectrum):
    """The values as the reports formed them before: ``pow`` only on terms of at
    least 2**-1080, a mask over every term, and +0.0 for the rest."""
    k = np.arange(1, spectrum.truncation + 1, dtype=float)
    if spectrum.family == "power":
        base, exponent = k + 1.0, -spectrum.alpha
        with np.errstate(over="ignore"):
            live = base <= np.exp2(1080.0 / spectrum.alpha)
    else:
        base, exponent = spectrum.q, k
        live = k <= 1080.0 / -math.log2(spectrum.q)
    return np.power(base, exponent, out=np.zeros(k.size), where=live)


@pytest.mark.parametrize("truncation", [1_000, 50_000])
@pytest.mark.parametrize("build, value", [
    (power_spectrum, 0.5), (power_spectrum, 1.5), (power_spectrum, 100.0),
    (geometric_spectrum, 0.05), (geometric_spectrum, 0.5), (geometric_spectrum, 0.95),
])
def test_live_prefix_values_are_the_masked_ones(build, value, truncation):
    # the closed form keeps the sums the masked route reported, also
    # where that route skipped the terms below the float range
    spectrum = build(value, truncation=truncation)
    assert_sums_match(spectrum, masked_values(spectrum))


def test_subnormal_values_stay_live_for_exponents_near_one():
    # a value of 2**-1074 raised to 5/6 is about 2**-895, a normal float
    # that must be kept, while raised to 4/3 it is +0.0
    for spectrum in (geometric_spectrum(2.0**-1074), geometric_spectrum(2.0**-1000),
                     power_spectrum(1074.0), power_spectrum(1000.0)):
        assert_sums_match(spectrum, plain_values(spectrum, spectrum.truncation))
    assert kothe_sum(geometric_spectrum(2.0**-1074), 5.0 / 6.0) > 2.0**-900
    assert kothe_sum(geometric_spectrum(2.0**-1074), 4.0 / 3.0) == 0.0


def exact_power_sums(s, count):
    """Exact sum_{n=2}^{K+1} n**-s for K = 1 .. count, s a positive integer."""
    return list(accumulate(Fraction(1, n**s) for n in range(2, count + 2)))


def exact_geometric_sums(q, p, count):
    """Exact sum_{k=1}^{K} q**(k p) for K = 1 .. count."""
    return list(accumulate(q ** (k * p) for k in range(1, count + 1)))


@pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_power_sums_match_exact_rational_sums(alpha):
    # s = alpha * exponent is an integer, so each window sum is a rational
    # number: s = 1 is the harmonic sum the integral's log form covers
    exponents = [p for p in (1, 2, 4) if (alpha * p).denominator == 1]
    exact = {p: exact_power_sums(int(alpha * p), 200) for p in exponents}
    for count in range(1, 201):
        report = classify_spectrum(power_spectrum(float(alpha), truncation=count))
        for item in report["evidence"]:
            if int(item["exponent"]) in exact:
                assert_close(item["partial_sum"], float(exact[int(item["exponent"])][count - 1]))


def test_geometric_sums_match_exact_rational_sums():
    exact = {p: exact_geometric_sums(Fraction(1, 2), p, 200) for p in (1, 2, 4)}
    for count in range(1, 201):
        report = classify_spectrum(geometric_spectrum(0.5, truncation=count))
        for item in report["evidence"]:
            assert_close(item["partial_sum"], float(exact[int(item["exponent"])][count - 1]))


EXTREMES = ["power 1e308", "power 400", "power 1e-300", "geometric 1e-300",
            "geometric 0.9999999999999999"]
EXTREME_CONFIG = """
[system]
kind = shift
lo = -2
hi = 2

[profile]
family = gumbel

[experiment classify]
spectrum = {spectrum}

[experiment kothe]
spectrum = {spectrum}
"""


def finite_floats(value):
    if isinstance(value, dict):
        return all(finite_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_floats(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@pytest.mark.parametrize("spectrum", EXTREMES)
def test_extreme_spectra_run_finite_and_pass(spectrum):
    config = parse_config(EXTREME_CONFIG.format(spectrum=spectrum))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = {r["name"]: r for r in run_experiments(config).records}
    family, value = spectrum.split()
    build = power_spectrum if family == "power" else geometric_spectrum
    for request in config.experiments:
        record = records[request.name]
        assert record["status"] == "pass"
        assert finite_floats(record["details"])
        sums = record["details"].get("evidence", [record["details"]])
        reference = plain_values(build(float(value)), request.params["truncation"])
        for item in sums:
            assert_close(item["partial_sum"], plain_sum(reference, item["exponent"]))


def test_sums_form_no_spectrum_array():
    tracemalloc.start()
    try:
        classify_spectrum(power_spectrum(0.5, truncation=10**6))
        kothe_nuclearity(geometric_spectrum(0.5, truncation=10**6), 0, Fraction(1, 2))
        kothe_nuclearity(power_spectrum(0.5, truncation=10**6), 0, Fraction(1, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024

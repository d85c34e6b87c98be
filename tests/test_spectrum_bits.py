"""Spectrum values and partial sums are bitwise the plain closed forms.

``SingularSpectrum.values`` and the partial sums behind ``classify`` and
``kothe`` skip ``pow`` on terms that round to +0.0.  The plain formulas
are kept here as references, and every float is compared by its bit
pattern over spectra that underflow early, late and never.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from timeop import rigging
from timeop.rigging import (
    classify_spectrum,
    geometric_spectrum,
    kothe_nuclearity,
    power_spectrum,
)

QS = [n / 100 for n in range(1, 100)] + [1e-3, 0.999, 1.0 - 2.0**-52]
ALPHAS = [0.1, 0.5, 2.5, 100.0]
TRUNCATIONS = [1, 7, 1_000, 10_000, 50_000, 100_000]
# the Köthe grades the shift-batch benchmark draws from, and the distinct
# exponents 2 (n2 - n1) of their pairs
GRADES = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
          Fraction(3, 4)]
KOTHE_EXPONENTS = sorted({float(2 * (n2 - n1)) for n1, n2 in combinations(GRADES, 2)})


def bits(values):
    """Float bit patterns, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def plain_values(spectrum, count):
    k = np.arange(1, count + 1, dtype=float)
    if spectrum.family == "power":
        return (k + 1.0) ** (-spectrum.alpha)
    return spectrum.q ** k


def plain_sum(values, exponent):
    with np.errstate(under="ignore"):
        return float(np.sum(values ** exponent))


SPECTRA = [geometric_spectrum(q) for q in QS] + [power_spectrum(a) for a in ALPHAS]


@pytest.mark.parametrize("base", SPECTRA, ids=lambda s: f"{s.family}({s.q or s.alpha!r})")
def test_values_and_partial_sums_are_the_plain_formulas(base):
    for truncation in TRUNCATIONS:
        spectrum = rigging.SingularSpectrum(base.family, base.alpha, base.q, truncation)
        reference = plain_values(spectrum, truncation)
        values = spectrum.values()
        assert np.array_equal(bits(values), bits(reference))
        for item in classify_spectrum(spectrum)["evidence"]:
            assert bits(item["partial_sum"]) == bits(plain_sum(reference, item["exponent"]))
        # kothe_nuclearity's partial sum is this call (checked end to end
        # below); its closed form divides by zero where q**exponent is 1.0
        for exponent in KOTHE_EXPONENTS:
            partial = rigging._partial_sum(values, exponent)
            assert bits(partial) == bits(plain_sum(reference, exponent))


@pytest.mark.parametrize("spectrum", [
    geometric_spectrum(0.5, truncation=50_000),
    geometric_spectrum(0.95, truncation=100_000),
    power_spectrum(100.0, truncation=10_000),
], ids=lambda s: s.describe())
def test_kothe_partial_sums_are_the_plain_formula(spectrum):
    reference = plain_values(spectrum, spectrum.truncation)
    for n1, n2 in combinations(GRADES, 2):
        report = kothe_nuclearity(spectrum, n1, n2)
        assert bits(report["partial_sum"]) == bits(plain_sum(reference, report["exponent"]))


def test_grid_reaches_the_skipped_tails():
    """The grid holds spectra with terms skipped, in values and in sums."""
    assert geometric_spectrum(0.5, truncation=10_000).values()[-1] == 0.0
    assert power_spectrum(100.0, truncation=10_000).values()[-1] == 0.0
    assert geometric_spectrum(0.999).values()[-1] > 0.0
    assert power_spectrum(2.5).values()[-1] > 0.0
    # a spectrum whose own values never underflow still has a skipped
    # tail in its fourth powers
    values = geometric_spectrum(0.99, truncation=50_000).values()
    assert values[-1] > 0.0
    assert values[-1] ** 4.0 == 0.0


def test_values_of_a_shorter_count():
    spectrum = geometric_spectrum(0.25, truncation=600)
    assert np.array_equal(bits(spectrum.values()), bits(plain_values(spectrum, 600)))


def masked_values(spectrum):
    """The values as a mask over every term and a masked ``pow`` computed them."""
    k = np.arange(1, spectrum.truncation + 1, dtype=float)
    if spectrum.family == "power":
        base, exponent = k + 1.0, -spectrum.alpha
        with np.errstate(over="ignore"):
            live = base <= np.exp2(rigging.UNDERFLOW_BITS / spectrum.alpha)
    else:
        base, exponent = spectrum.q, k
        live = k <= rigging.UNDERFLOW_BITS / -math.log2(spectrum.q)
    return np.power(base, exponent, out=np.zeros(k.size), where=live)


@pytest.mark.parametrize("truncation", [1_000, 50_000])
@pytest.mark.parametrize("build, value", [
    (power_spectrum, 0.5), (power_spectrum, 1.5), (power_spectrum, 100.0),
    (geometric_spectrum, 0.05), (geometric_spectrum, 0.5), (geometric_spectrum, 0.95),
])
def test_live_prefix_values_are_the_masked_ones(build, value, truncation):
    # pow on the live prefix alone gives every bit the masked pow gave
    spectrum = build(value, truncation=truncation)
    assert np.array_equal(bits(spectrum.values()), bits(masked_values(spectrum)))


def test_tail_that_is_not_non_increasing_takes_the_plain_formula():
    # a live entry after the first skipped ones: the mask is per entry,
    # so the 0.5 at index 500 is still raised to the power
    values = np.zeros(1_010)
    values[:10] = 1.0
    values[500] = 0.5
    assert rigging._partial_sum(values, 4.0) == 10.0 + 0.5**4
    assert np.array_equal(bits(rigging._powers(values, 4.0)), bits(values ** 4.0))


def test_subnormal_values_stay_live_for_exponents_near_one():
    # (2**-1074)**(4/3) is below 2**-1080 and is skipped, while
    # (2**-1074)**(5/6), about 2**-895, is a normal float and must be kept
    values = np.array([1.0, 0.5, 2.0**-1000, 2.0**-1074, 2.0**-1074, 0.0, 0.0])
    for exponent in (1.0 / 6.0, 5.0 / 6.0, 4.0 / 3.0, 1.5, 4.0):
        assert bits(rigging._partial_sum(values, exponent)) == bits(plain_sum(values, exponent))
        assert np.array_equal(bits(rigging._powers(values, exponent)), bits(values ** exponent))
    assert rigging._powers(values, 5.0 / 6.0)[4] > 2.0**-900

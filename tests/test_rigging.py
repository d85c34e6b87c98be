import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from timeop.cascade import AgeWindow, build_shift_cascade
from timeop.hilbert import vector_norm
from timeop.profiles import DecayOperator, build_decay_operator, gumbel, profile_from_table
from timeop.rigging import (
    build_tower,
    classify_spectrum,
    geometric_spectrum,
    graded_norm_rows,
    isometry_check,
    kothe_nuclearity,
    power_spectrum,
)


def shift_decay(lo=-3, hi=3):
    s = build_shift_cascade(AgeWindow(lo, hi))
    return s, build_decay_operator(gumbel(1.0), s)


def diagonal(entries, basis_id="b"):
    """A stand-in diagonal J: anything carrying log_diag and basis_id."""
    return SimpleNamespace(log_diag=np.log(np.asarray(entries, dtype=float)), basis_id=basis_id)


def graded(v, n, op):
    """|v|_n of one coefficient array: one row and one grade of the block routine."""
    norms, _ = graded_norm_rows(np.asarray(v, dtype=float)[None], [float(n)], op.log_diag)
    assert math.isfinite(norms[0, 0])
    return float(norms[0, 0])


class TestGradedNorm:
    def test_grade_zero_is_ambient_norm(self):
        _, op = shift_decay()
        v = np.arange(1.0, 8.0)
        assert graded(v, 0, op) == vector_norm(v)

    def test_age_zero_vector_grade_two(self):
        s, op = shift_decay(-1, 1)
        assert graded(s.basis_vector(0).coeffs, 2, op) == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_age_zero_vector_grade_half(self):
        s, op = shift_decay(-1, 1)
        v = s.basis_vector(0).coeffs
        assert graded(v, Fraction(1, 2), op) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_kothe_coefficient_identity(self):
        # the squared grade-n norm is the weighted series of squared
        # coefficients against the inverse weights
        s, op = shift_decay()
        rng = np.random.default_rng(9)
        v = rng.standard_normal(s.dim)
        for n in (Fraction(1, 2), Fraction(2, 3), 1, 2):
            direct = graded(v, n, op) ** 2
            series = float(np.sum(v**2 * np.exp(-2.0 * float(n) * op.log_diag)))
            assert direct == pytest.approx(series, rel=1e-12)

    def test_tower_composition(self):
        s, op = shift_decay(-2, 2)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(s.dim)
        for m in (1, 2):
            shifted = np.exp(-m * op.log_diag) * v
            for n in (Fraction(1, 2), 1):
                assert graded(v, m + n, op) == pytest.approx(graded(shifted, n, op), rel=1e-10)

    def test_outside_materialized_domain(self):
        # grade 3 weights the age-6 label by exp(3 e^6): the peak is
        # reported as it is, and the norm past the float range reads inf
        s, op = shift_decay(-6, 6)
        norms, peaks = graded_norm_rows(s.basis_vector(6).coeffs[None], [3.0], op.log_diag)
        assert peaks[0, 0] == pytest.approx(3.0 * math.exp(6.0), rel=1e-12)
        assert norms[0, 0] == math.inf

    def test_negative_grade_rejected(self):
        s, op = shift_decay()
        with pytest.raises(ValueError):
            graded_norm_rows(s.basis_vector(0).coeffs[None], [1.0, -1.0], op.log_diag)


class TestTower:
    def test_type_b_grades(self):
        _, op = shift_decay()
        tower = build_tower(op, "B", 3)
        assert tower["grades"] == ["0", "1/2", "2/3", "3/4"]
        assert tower["supremum"] == "1" and not tower["supremum_attained"]

    def test_type_c_grades(self):
        _, op = shift_decay()
        tower = build_tower(op, "C", 3)
        assert tower["grades"] == ["0", "1", "2", "3"]
        assert tower["supremum"] is None

    def test_type_a_single_grade(self):
        s, op = shift_decay()
        tower = build_tower(op, "A", 1)
        assert tower["grades"] == ["1"]
        assert tower["supremum"] == "1" and tower["supremum_attained"]

    def test_monotonicity_under_the_tower(self):
        s, op = shift_decay()
        tower = build_tower(op, "B", 5)
        rng = np.random.default_rng(12)
        for _ in range(10):
            v = rng.standard_normal(s.dim)
            norms = [graded(v, Fraction(g), op) for g in tower["grades"]]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(norms, norms[1:]))

    def test_expanding_diagonal_rejected(self):
        j = diagonal([0.5, 2.0])
        with pytest.raises(ValueError):
            build_tower(j, "B", 2)

    def test_cutoff_validated(self):
        _, op = shift_decay()
        with pytest.raises(ValueError):
            build_tower(op, "B", 0)

    def test_alternative_grade_set_is_two_sided_bounded(self):
        # a second family with the same supremum interleaves the primary
        # grades, so each alternative norm is squeezed by neighbours
        s, op = shift_decay()
        rng = np.random.default_rng(21)
        primary = [Fraction(p, p + 1) for p in range(8)]
        alternative = [Fraction(2 * p, 2 * p + 1) for p in range(1, 4)]
        for _ in range(10):
            v = rng.standard_normal(s.dim)
            for alt in alternative:
                below = max(g for g in primary if g <= alt)
                above = min(g for g in primary if g >= alt)
                val = graded(v, alt, op)
                assert graded(v, below, op) * (1 - 1e-12) <= val
                assert val <= graded(v, above, op) * (1 + 1e-12)


class TestIsometry:
    def test_identity_rigging(self):
        # a constant table is not admissible, so the operator is built directly
        table = profile_from_table((s, 1.0) for s in range(-2, 3))
        j = DecayOperator(build_shift_cascade(AgeWindow(-2, 2)), table)
        assert isometry_check(j) == 0.0

    def test_decay_rigging_round_off_only(self):
        _, op = shift_decay(-3, 3)
        assert isometry_check(op) <= 1e-10


class TestClassification:
    def test_inverse_sqrt_family(self):
        report = classify_spectrum(power_spectrum(0.5, truncation=10_000))
        assert report["compact"]
        assert not report["nuclear"]
        assert not report["hilbert_schmidt"]
        assert report["powers"]["2"]["hilbert_schmidt"]
        assert report["powers"]["4"]["nuclear"]
        assert report["min_nuclear_power"] == 3
        assert report["method"] == "analytic-tail-bound"

    def test_fourth_power_partial_sum_brackets_the_limit(self):
        spectrum = power_spectrum(0.5, truncation=100_000)
        report = classify_spectrum(spectrum)
        limit = math.pi**2 / 6.0 - 1.0
        item = next(e for e in report["evidence"] if e["exponent"] == 4.0)
        assert item["converges"]
        lo, hi = item["limit_window"]
        assert (lo, hi) == (item["partial_sum"] + item["tail_lo"],
                            item["partial_sum"] + item["tail_hi"])
        assert lo <= limit + 1e-12
        assert limit <= hi + 1e-12

    @pytest.mark.parametrize("alpha,nuclear,hs", [
        (0.25, False, False),
        (0.5, False, False),
        (0.75, False, True),
        (1.0, False, True),
        (1.5, True, True),
        (2.0, True, True),
    ])
    def test_analytic_thresholds(self, alpha, nuclear, hs):
        report = classify_spectrum(power_spectrum(alpha, truncation=100))
        assert report["nuclear"] is nuclear
        assert report["hilbert_schmidt"] is hs
        assert report["compact"]

    def test_geometric_is_nuclear_with_unit_sum(self):
        report = classify_spectrum(geometric_spectrum(0.5, truncation=200))
        assert report["nuclear"] and report["hilbert_schmidt"] and report["compact"]
        item = next(e for e in report["evidence"] if e["exponent"] == 1.0)
        assert item["partial_sum"] + item["tail_hi"] == pytest.approx(1.0, abs=1e-12)


class TestPowerReciprocal:
    @pytest.mark.parametrize("alpha", [5e-324, 1e-310])
    def test_alpha_whose_reciprocal_overflows_is_refused(self, alpha):
        with pytest.raises(ValueError, match="finite 1/alpha"):
            power_spectrum(alpha)

    @pytest.mark.parametrize("alpha, expected", [
        (0.1, 11), (0.5, 3), (1e-308, math.floor(1.0 / 1e-308) + 1),
    ])
    def test_min_nuclear_power_is_the_reciprocal_floor_plus_one(self, alpha, expected):
        report = classify_spectrum(power_spectrum(alpha, truncation=100))
        assert report["min_nuclear_power"] == expected


class TestKothe:
    def test_geometric_criterion(self):
        report = kothe_nuclearity(geometric_spectrum(0.5, truncation=10_000), 0, Fraction(1, 2))
        assert report["ratio_limsup"] == 0.5
        assert report["criterion_met"]
        assert report["sum_converges"]
        assert report["closed_form_sum"] == pytest.approx(1.0, abs=1e-15)
        assert report["partial_sum"] == pytest.approx(1.0, abs=1e-12)
        assert (report["n1"], report["n2"]) == ("0", "1/2")

    def test_inverse_sqrt_fails_the_criterion(self):
        report = kothe_nuclearity(power_spectrum(0.5, truncation=10_000), 0, Fraction(1, 2))
        assert report["ratio_limsup"] == 1.0
        assert not report["criterion_met"]
        assert not report["sum_converges"]

    def test_equal_grades_rejected(self):
        with pytest.raises(ValueError):
            kothe_nuclearity(geometric_spectrum(0.5), Fraction(1, 2), Fraction(1, 2))

    def test_grades_must_stay_below_one(self):
        with pytest.raises(ValueError):
            kothe_nuclearity(geometric_spectrum(0.5), 0, 1)

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeop.hilbert import (
    BasisMismatchError,
    HOperator,
    HVector,
    SpectralDomainError,
    adjoint,
    apply_spectral_function,
    fractional_power,
    inner,
)

B = "test-basis"


def vec(*coeffs):
    return HVector(np.array(coeffs, dtype=float), B)


class TestInner:
    def test_orthogonal_basis_vectors(self):
        assert inner(vec(1, 0), vec(0, 1)) == 0.0

    def test_direct_arithmetic(self):
        assert inner(vec(1, 2), vec(3, 4)) == 11.0

    def test_norm_squared(self):
        v = vec(3, 4)
        assert inner(v, v) == 25.0
        assert v.norm() == 5.0

    def test_basis_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError):
            inner(vec(1, 2), HVector(np.array([1.0, 2.0]), "other"))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(BasisMismatchError):
            inner(vec(1, 2), vec(1, 2, 3))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10))
    def test_symmetric(self, coeffs):
        u = vec(*coeffs)
        v = vec(*reversed(coeffs))
        assert inner(u, v) == inner(v, u)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
           st.floats(-1e3, 1e3))
    def test_bilinear_in_scaling(self, coeffs, scale):
        u = vec(*coeffs)
        v = vec(*coeffs[::-1])
        lhs = inner(scale * u, v)
        rhs = scale * inner(u, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    @given(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
        min_size=1, max_size=10,
    ))
    def test_positive_definite(self, coeffs):
        v = vec(*coeffs)
        if any(c != 0 for c in coeffs):
            assert inner(v, v) > 0.0
        else:
            assert inner(v, v) == 0.0


class TestSpectralCalculus:
    def test_identity_function(self):
        d = HOperator.diagonal([-1.0, 0.0, 1.0], B)
        out = apply_spectral_function(lambda x: x, d)
        assert np.array_equal(out.diag, d.diag)

    def test_double_exponential_at_zero(self):
        d = HOperator.diagonal([0.0], B)
        out = apply_spectral_function(lambda s: math.exp(-math.exp(s)), d)
        assert out.diag[0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_squaring(self):
        d = HOperator.diagonal([-1.0, 0.0, 2.0], B)
        out = apply_spectral_function(lambda s: s * s, d)
        assert np.array_equal(out.diag, np.array([1.0, 0.0, 4.0]))

    def test_composition_law_exact(self):
        d = HOperator.diagonal([0.3, 1.7, 2.9], B)
        f = math.exp
        g = lambda x: -x * x
        composed = apply_spectral_function(lambda x: f(g(x)), d)
        chained = apply_spectral_function(f, apply_spectral_function(g, d))
        assert np.array_equal(composed.diag, chained.diag)

    def test_domain_error_names_eigenvalue(self):
        d = HOperator.diagonal([4.0, -1.0], B)
        with pytest.raises(SpectralDomainError, match="-1.0"):
            apply_spectral_function(math.sqrt, d)

    def test_requires_diagonal(self):
        full = HOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), B)
        with pytest.raises(ValueError):
            apply_spectral_function(lambda x: x, full)


class TestFractionalPower:
    def test_square_root(self):
        a = HOperator.diagonal([4.0], B)
        assert fractional_power(a, Fraction(1, 2)).diag[0] == pytest.approx(2.0, rel=1e-12)

    def test_square_of_inverse_e(self):
        a = HOperator.diagonal([math.exp(-1.0)], B)
        assert fractional_power(a, 2).diag[0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_zeroth_power_is_identity(self):
        a = HOperator.diagonal([0.2, 5.0, 1.0], B)
        assert np.array_equal(fractional_power(a, 0).diag, np.ones(3))

    def test_first_power_is_operand(self):
        a = HOperator.diagonal([0.2, 5.0], B)
        assert np.array_equal(fractional_power(a, 1).diag, a.diag)

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(SpectralDomainError):
            fractional_power(HOperator.diagonal([1.0, 0.0], B), 0.5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            fractional_power(HOperator.diagonal([1.0], B), -1)

    @settings(max_examples=60)
    @given(
        st.fractions(min_value=0, max_value=4, max_denominator=8),
        st.fractions(min_value=0, max_value=4, max_denominator=8),
        st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=6),
    )
    def test_additivity(self, m, n, entries):
        a = HOperator.diagonal(entries, B)
        lhs = fractional_power(a, m + n)
        rhs = fractional_power(a, m) @ fractional_power(a, n)
        assert np.allclose(lhs.diag, rhs.diag, rtol=1e-12, atol=0.0)


class TestNorm:
    def test_norm_below_the_squaring_underflow(self):
        # the squares of 3e-200 and 4e-200 underflow to zero
        assert vec(3e-200, 4e-200).norm() == pytest.approx(5e-200, rel=1e-15)
        assert vec(0.0, -1e-172).norm() == 1e-172

    def test_norms_above_the_cutoff_are_the_plain_norm(self):
        rng = np.random.default_rng(11)
        for scale in (1.0, 1e-100, 1e-139):
            c = scale * rng.standard_normal(9)
            assert vec(*c).norm() == float(np.linalg.norm(c))

    def test_zero_vector(self):
        assert vec(0.0, 0.0).norm() == 0.0


class TestOperatorAlgebra:
    def test_adjoint_involution_exact(self):
        rng = np.random.default_rng(3)
        a = HOperator(rng.standard_normal((5, 5)), B)
        assert np.array_equal(adjoint(adjoint(a)).matrix, a.matrix)

    def test_diagonal_operators_commute_exactly(self):
        a = HOperator.diagonal([0.1, 2.0, 3.5], B)
        b = HOperator.diagonal([7.0, 0.25, 1.0], B)
        assert np.array_equal((a @ b).matrix, (b @ a).matrix)

    def test_diag_marker_must_match_matrix(self):
        with pytest.raises(ValueError):
            HOperator(np.array([[1.0, 0.5], [0.0, 2.0]]), B, diag=np.array([1.0, 2.0]))

    def test_apply_checks_basis(self):
        a = HOperator.identity(2, B)
        with pytest.raises(BasisMismatchError):
            a.apply(HVector(np.array([1.0, 0.0]), "other"))

    def test_vectors_are_immutable(self):
        v = vec(1, 2)
        with pytest.raises(ValueError):
            v.coeffs[0] = 9.0

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from timeop.hilbert import BasisMismatchError, HVector, inner

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
    def test_vectors_are_immutable(self):
        v = vec(1, 2)
        with pytest.raises(ValueError):
            v.coeffs[0] = 9.0

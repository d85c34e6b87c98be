import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from timeop.cascade import AgeWindow, build_baker_cascade, build_shift_cascade, walsh_to_grid
from timeop.hilbert import BasisMismatchError, HVector
from timeop.markov import MarkovEvolution, markov_step
from timeop.profiles import build_decay_operator, gumbel

B = "test-basis"


def vec(*coeffs):
    return HVector(np.array(coeffs, dtype=float), B)


class TestInner:
    def test_norm_squared(self):
        assert vec(3, 4).norm() == 5.0


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

    def test_vectors_have_no_arithmetic(self):
        # sums and multiples are formed on the coefficient arrays
        with pytest.raises(TypeError):
            vec(1, 2) + vec(3, 4)
        with pytest.raises(TypeError):
            2.0 * vec(1, 2)


class TestBasisChecks:
    def test_vector_over_another_basis_rejected(self):
        s = build_shift_cascade(AgeWindow(-3, 3))
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), s), 1)
        with pytest.raises(BasisMismatchError):
            markov_step(ev, HVector(np.zeros(s.dim), "other"), 1)

    def test_coefficient_count_mismatch_rejected(self):
        b = build_baker_cascade(1)
        with pytest.raises(BasisMismatchError):
            walsh_to_grid(b, 1.0, np.zeros(b.dim + 1))

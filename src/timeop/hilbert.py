"""Finite-dimensional real Hilbert-space scaffolding.

Vectors and dense operators over a labelled orthonormal basis, plus a
spectral calculus for operators that are diagonal in that basis
(including fractional powers evaluated in the log domain).

Everything here is immutable after construction and every operation is
a pure function, so concurrent read-only use needs no synchronization.
The scalar field is real: every operator realized downstream (shift
steps, Walsh permutations, decay diagonals) has a real matrix, and the
adjoint is a plain transpose.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "BasisMismatchError",
    "SpectralDomainError",
    "HVector",
    "HOperator",
    "inner",
    "adjoint",
    "apply_spectral_function",
    "fractional_power",
    "NORM_RESCALE_BELOW",
]

# Squaring coefficients below about 1e-154 enters the subnormal range;
# norms under this cutoff are recomputed on the rescaled coefficients.
NORM_RESCALE_BELOW = 1e-140


class BasisMismatchError(ValueError):
    """Operands live over different bases or have different dimensions."""


class SpectralDomainError(ValueError):
    """A scalar function was applied outside its domain on an eigenvalue."""


def _frozen_array(values, ndim):
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HVector:
    """Coefficient vector over a labelled orthonormal basis.

    Parameters
    ----------
    coeffs : array_like
        Real coefficients, one per basis label.
    basis_id : str
        Identifier of the generating basis; operations reject operands
        whose identifiers differ.
    """

    coeffs: np.ndarray
    basis_id: str

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs, 1))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        """Euclidean norm, accurate down to the smallest coefficients.

        A plain norm below ``NORM_RESCALE_BELOW`` has lost precision to
        the squared coefficients underflowing, so it is recomputed with
        the coefficients scaled by the largest magnitude.
        """
        n = float(np.linalg.norm(self.coeffs))
        if n < NORM_RESCALE_BELOW:
            scale = float(np.abs(self.coeffs).max(initial=0.0))
            if scale > 0.0:
                n = scale * float(np.linalg.norm(self.coeffs / scale))
        return n

    def __add__(self, other: "HVector") -> "HVector":
        _check_vectors(self, other)
        return HVector(self.coeffs + other.coeffs, self.basis_id)

    def __sub__(self, other: "HVector") -> "HVector":
        _check_vectors(self, other)
        return HVector(self.coeffs - other.coeffs, self.basis_id)

    def __mul__(self, scalar) -> "HVector":
        return HVector(self.coeffs * float(scalar), self.basis_id)

    __rmul__ = __mul__


@dataclass(frozen=True)
class HOperator:
    """Dense real square operator over a labelled basis.

    ``diag`` marks the operator as exactly diagonal; when present the
    stored matrix must equal ``np.diag(diag)`` entry for entry, and the
    diagonal fast path is used wherever exactness matters.
    """

    matrix: np.ndarray
    basis_id: str
    diag: np.ndarray | None = None

    def __post_init__(self):
        mat = _frozen_array(self.matrix, 2)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        if self.diag is not None:
            d = _frozen_array(self.diag, 1)
            if d.shape[0] != mat.shape[0]:
                raise ValueError("diagonal length does not match the matrix")
            if not np.array_equal(mat, np.diag(d)):
                raise ValueError("matrix is not exactly diagonal with the given entries")
            object.__setattr__(self, "diag", d)

    @classmethod
    def diagonal(cls, entries, basis_id: str) -> "HOperator":
        entries = np.asarray(entries, dtype=float)
        return cls(np.diag(entries), basis_id, diag=entries)

    @classmethod
    def identity(cls, dim: int, basis_id: str) -> "HOperator":
        return cls.diagonal(np.ones(dim), basis_id)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    def apply(self, v: HVector) -> HVector:
        if v.basis_id != self.basis_id or v.dim != self.dim:
            raise BasisMismatchError(
                f"operator over {self.basis_id!r} cannot act on a vector over {v.basis_id!r}"
            )
        if self.diag is not None:
            return HVector(self.diag * v.coeffs, self.basis_id)
        return HVector(self.matrix @ v.coeffs, self.basis_id)

    def __matmul__(self, other: "HOperator") -> "HOperator":
        if not isinstance(other, HOperator):
            return NotImplemented
        if other.basis_id != self.basis_id or other.dim != self.dim:
            raise BasisMismatchError("operator composition requires a common basis")
        if self.diag is not None and other.diag is not None:
            return HOperator.diagonal(self.diag * other.diag, self.basis_id)
        return HOperator(self.matrix @ other.matrix, self.basis_id)


def _check_vectors(u: HVector, v: HVector):
    if u.basis_id != v.basis_id:
        raise BasisMismatchError(f"bases differ: {u.basis_id!r} vs {v.basis_id!r}")
    if u.dim != v.dim:
        raise BasisMismatchError(f"dimensions differ: {u.dim} vs {v.dim}")


def inner(u: HVector, v: HVector) -> float:
    """Euclidean pairing sum_k u_k v_k over a common basis.

    Symmetric and bilinear; ``inner(v, v)`` is the squared norm.
    """
    _check_vectors(u, v)
    return float(np.dot(u.coeffs, v.coeffs))


def adjoint(a: HOperator) -> HOperator:
    """Transpose; an exact involution over the real scalar field."""
    return HOperator(a.matrix.T.copy(), a.basis_id, diag=a.diag)


def apply_spectral_function(f, d: HOperator) -> HOperator:
    """Apply a scalar function to a diagonal operator entrywise.

    The composition law ``apply_spectral_function(f . g, d)`` equals
    ``apply_spectral_function(f, apply_spectral_function(g, d))``
    exactly, because both sides evaluate the same floats in the same
    order.

    Raises
    ------
    SpectralDomainError
        If ``f`` raises or produces a non-finite value on some
        eigenvalue; the message names the offending eigenvalue.
    """
    if d.diag is None:
        raise ValueError("spectral calculus needs an operator marked diagonal")
    out = np.empty(d.dim)
    for i, x in enumerate(d.diag):
        try:
            y = float(f(x))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise SpectralDomainError(f"function undefined at eigenvalue {x!r}: {exc}") from exc
        if not math.isfinite(y):
            raise SpectralDomainError(f"function not finite at eigenvalue {x!r} (got {y!r})")
        out[i] = y
    return HOperator.diagonal(out, d.basis_id)


def _as_exponent(n) -> float:
    if isinstance(n, Fraction):
        return n.numerator / n.denominator
    if isinstance(n, numbers.Real):
        return float(n)
    raise TypeError(f"exponent must be a non-negative rational, got {n!r}")


def fractional_power(a: HOperator, n) -> HOperator:
    """Entrywise power of a positive diagonal operator, in log domain.

    ``n`` is a non-negative rational (int, Fraction, or float).  The
    zeroth power is the exact identity and the first power returns the
    operand unchanged; other exponents evaluate ``exp(n * log(d))`` per
    entry, which keeps products of powers accurate even when entries
    decay super-exponentially.
    """
    exponent = _as_exponent(n)
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {n!r}")
    if a.diag is None:
        raise ValueError("fractional powers need an operator marked diagonal")
    if np.any(a.diag <= 0):
        bad = float(a.diag[a.diag <= 0][0])
        raise SpectralDomainError(f"fractional power needs positive entries, found {bad!r}")
    if exponent == 0:
        return HOperator.identity(a.dim, a.basis_id)
    if exponent == 1:
        return a
    return HOperator.diagonal(np.exp(exponent * np.log(a.diag)), a.basis_id)

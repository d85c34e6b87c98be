"""Finite-dimensional real Hilbert-space scaffolding.

Coefficient vectors over a labelled orthonormal basis and their
Euclidean pairing.  Operators are not represented here: every operator
the package builds is a truncated weighted shift, carried as a step
index map plus per-label log weights (see the cascade module).

Vectors are immutable after construction and every operation is a pure
function, so concurrent read-only use needs no synchronization.  The
scalar field is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisMismatchError",
    "HVector",
    "inner",
    "NORM_RESCALE_BELOW",
]

# Squaring coefficients below about 1e-154 enters the subnormal range;
# norms under this cutoff are recomputed on the rescaled coefficients.
NORM_RESCALE_BELOW = 1e-140


class BasisMismatchError(ValueError):
    """Operands live over different bases or have different dimensions."""


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
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-dimensional array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

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

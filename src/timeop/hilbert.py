"""Finite-dimensional real Hilbert-space scaffolding.

Vectors are plain float arrays of coefficients over a labelled
orthonormal basis, and the batched routines of the other modules work
on ``(rows, dim)`` coefficient blocks; :func:`vector_norm` gives the
norm of one such row as :meth:`HVector.norm` gives it.  Operators
are not represented here: every operator the package builds is a
truncated weighted shift, carried as a step index map plus per-label
log weights (see the cascade module).

:class:`HVector` is the one-row type of the few entry points that take
a single vector (basis vectors, the Markov step, the Lyapunov trace and
the asymmetry probe): a read-only array tagged with its basis.  It has
no arithmetic; sums and multiples are formed on the arrays.  The scalar
field is real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisMismatchError",
    "HVector",
    "NORM_RESCALE_BELOW",
    "vector_norm",
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
        Identifier of the generating basis; the one-row entry points
        reject a vector whose identifier differs from their system's.
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
        return vector_norm(self.coeffs)


def vector_norm(coeffs: np.ndarray) -> float:
    """:meth:`HVector.norm` of a 1-dimensional float array, such as a block row.

    ``np.linalg.norm`` of a real vector is the square root of its dot
    product with itself; the root is taken here directly, with the same
    float.
    """
    n = math.sqrt(coeffs.dot(coeffs))
    if n < NORM_RESCALE_BELOW:
        scale = float(np.abs(coeffs).max(initial=0.0))
        if scale > 0.0:
            scaled = coeffs / scale
            n = scale * math.sqrt(scaled.dot(scaled))
    return n


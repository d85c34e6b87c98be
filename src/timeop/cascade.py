"""Finite-window cascades carrying an age grading.

Two models are realized over an integer age window [lo, hi]:

* the abstract bilateral shift, truncated with an open boundary, and
* the dyadic baker transformation of the unit square in its
  Rademacher/Walsh product basis.

In both, the one-step operator ``U`` raises age by exactly one and
truncates at the top of the window, the age projectors ``E_n`` grade
the fluctuation space, and the internal-time operator ``T = sum n E_n``
satisfies the step covariance ``U^t' T U^t = T + t`` on every basis
label whose t-step image stays inside the window.  The open boundary is
deliberate: a cyclic wrap would restore global unitarity but break the
covariance at the seam, so every verification instead carries a
support-margin precondition.

Walsh basis convention for the baker model: coordinates i in [-m, m]
index binary digits of a point of the unit square, digits i >= 1 giving
the x expansion and digits i <= 0 the y expansion.  A basis label is a
nonempty subset S of coordinates, realized pointwise as the product of
the Rademacher signs of its digits, and its age is max(S), so the
one-step index shift S -> S+1 raises age by one.  The constant function
(empty subset) is kept apart as the equilibrium component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .hilbert import BasisMismatchError, HVector

__all__ = [
    "MarginError",
    "AgeWindow",
    "GridDensity",
    "WeightedShift",
    "CascadeSystem",
    "build_shift_cascade",
    "build_baker_cascade",
    "verify_covariance",
    "verify_imprimitivity",
    "verify_age_transport",
    "walsh_to_grid",
    "grid_to_walsh",
    "walsh_to_cells",
    "cells_to_walsh",
    "grid_cells",
]

BAKER_SIZE_CAP = 6


class MarginError(ValueError):
    """A vector's support leaves the window before the requested time."""


@dataclass(frozen=True)
class AgeWindow:
    """Inclusive integer age range; must contain age zero and both signs."""

    lo: int
    hi: int

    def __post_init__(self):
        if not (isinstance(self.lo, int) and isinstance(self.hi, int)):
            raise ValueError("window bounds must be integers")
        if not (self.lo < 0 < self.hi):
            raise ValueError(f"window must satisfy lo < 0 < hi, got [{self.lo}, {self.hi}]")

    @property
    def ages(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, n) -> bool:
        return self.lo <= n <= self.hi


@dataclass(frozen=True)
class GridDensity:
    """Real cell values over the dyadic grid of the unit square."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("grid values must form a 2-dimensional array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def mass(self) -> float:
        """Integral against the uniform measure (mean of the cell values)."""
        return float(self.values.mean())


class WeightedShift(NamedTuple):
    """A truncated weighted shift: ``sources[j]`` moves onto ``targets[j]``, by ``log_weights[j]``.

    A target of -1 is a truncated image, which receives nothing.
    :meth:`CascadeSystem.step` gives U^t, and diagonal conjugations of it
    give W_t and the evolutions of the web.  Log weights with leading
    axes stack weightings of one index map, and :meth:`apply` moves the
    block under each in turn.
    """

    sources: np.ndarray
    targets: np.ndarray
    log_weights: np.ndarray

    def conjugate(self, left, right) -> WeightedShift:
        """``diag(exp(left)) @ self @ diag(exp(right))``, from per-label log diagonals.

        Each weight becomes ``w + (right[source] + left[target])``; at a
        truncated image it is NaN, and nothing is read at index -1.
        """
        landed = self._landed()
        weights = self.log_weights[landed] + (
            right[self.sources[landed]] + left[self.targets[landed]])
        if isinstance(landed, slice):
            return type(self)(self.sources, self.targets, weights)
        log_weights = np.full(self.targets.size, np.nan)
        log_weights[landed] = weights
        return type(self)(self.sources, self.targets, log_weights)

    def apply(self, block) -> tuple:
        """The landed targets, and each row of ``block`` (a column per source) moved onto them.

        Each product gets +0.0 added, which changes only a -0.0 into the
        +0.0 of a label that receives nothing.
        """
        landed = self._landed()
        moved = block[:, landed] * np.exp(self.log_weights[..., None, landed])
        moved += 0.0
        return self.targets[landed], moved

    def _landed(self):
        """The index of the entries whose image lands: every entry, as a slice, when all do."""
        return slice(None) if self.targets.min(initial=0) >= 0 else self.targets >= 0


class CascadeSystem:
    """A finite-window realization of (U, {E_n}, T).

    A cascade is its kind, its age window and its one-step index map;
    everything else is derived from the first two.  Basis labels are
    never stored: index k holds age lo + k on the shift, and on the
    baker the nonempty coordinate subset whose bitmask is k + 1 (bit j
    for coordinate j - m), so ascending masks are age-major.
    ``index_of`` and ``label_text`` convert between the two by
    arithmetic.  The step index map and the label ages are the
    representation: every operator built here is a truncated weighted
    shift, so ``U^t`` is ``step(t)`` and ``T`` and ``E(delta)``
    are per-label weights, and every identity is checked on those
    arrays in O(dim).  The dense ``U`` matrix is built only on request,
    for small-dim cross-checks.  Instances are immutable after
    construction.
    """

    def __init__(self, kind: str, window: AgeWindow, step):
        self.kind = kind
        self.window = window
        if kind == "shift":
            self.m = None
            self._masks = None
            ages = np.arange(window.lo, window.hi + 1, dtype=np.int64)
            self.basis_id = f"shift[{window.lo},{window.hi}]"
        elif kind == "baker" and window.lo == -window.hi:
            self.m = m = window.hi
            masks = np.arange(1, 1 << (2 * m + 1), dtype=np.int64)
            masks.setflags(write=False)
            self._masks = masks
            # age n holds the 2**(n+m) masks whose highest set bit is n + m
            ages = np.repeat(np.arange(-m, m + 1, dtype=np.int64), 1 << np.arange(2 * m + 1))
            self.basis_id = f"baker(m={m})"
        else:
            raise ValueError(f"no {kind!r} cascade on the window [{window.lo}, {window.hi}]")
        ages.setflags(write=False)
        self.ages = ages
        step = np.asarray(step, dtype=np.int64)
        if step.shape != ages.shape:
            raise ValueError(f"step map of shape {step.shape} does not match the "
                             f"{ages.size} labels of {self.basis_id}")
        step.setflags(write=False)
        self._step = step
        identity = np.arange(ages.size, dtype=np.int64)
        identity.setflags(write=False)
        self._steps = {0: identity}  # t -> step_indices(t)

    # -- basic queries -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.ages.size

    def index_of(self, label) -> int:
        """Index of a label: an age on the shift, a coordinate set on the baker."""
        if isinstance(label, (set, list, tuple)):
            label = frozenset(label)
        if self.kind == "shift":
            if isinstance(label, (int, np.integer)) and label in self.window:
                return int(label) - self.window.lo
        elif (isinstance(label, frozenset) and label
              and all(isinstance(c, (int, np.integer)) and -self.m <= c <= self.m for c in label)):
            return sum(1 << (int(c) + self.m) for c in label) - 1
        raise KeyError(f"{label!r} is not a basis label of {self.basis_id}")

    def basis_vector(self, label) -> HVector:
        c = np.zeros(self.dim)
        c[self.index_of(label)] = 1.0
        return HVector(c, self.basis_id)

    def interior_mask(self, t: int) -> np.ndarray:
        """Boolean mask of labels whose t-step image stays inside the window."""
        if t < 0:
            raise ValueError("margins are defined for t >= 0")
        return self.ages + t <= self.window.hi

    def step_indices(self, t: int) -> np.ndarray:
        """Read-only index map of U^t on labels; -1 where the image leaves the window.

        Each t is composed once, from the map of t - 1, and kept.
        """
        if t < 0:
            raise ValueError("the step map is defined for t >= 0")
        if t not in self._steps:
            known = max(k for k in self._steps if k < t)
            idx = self._steps[known]
            for k in range(known + 1, t + 1):
                idx = np.where(idx >= 0, self._step[idx], -1)
                idx.setflags(write=False)
                self._steps[k] = idx
        return self._steps[t]

    def step(self, t: int, labels=None) -> WeightedShift:
        """U^t, every log weight 0, on ``labels`` (inside the t-margin) or else on the t-margin.

        The labels are age-major, so the t-margin is a prefix of the index
        order.  A truncated image is -1.
        """
        if labels is None:
            labels = np.arange(np.searchsorted(self.ages, self.window.hi - t, side="right"))
        return WeightedShift(labels, self.step_indices(t)[labels], np.zeros(labels.size))

    def age_mask(self, delta) -> np.ndarray:
        """Boolean mask of the labels whose age lies in ``delta``."""
        if isinstance(delta, (int, np.integer)):
            delta = (int(delta),)
        delta = set(int(n) for n in delta)
        for n in delta:
            if n not in self.window:
                raise ValueError(f"age {n} is outside the window [{self.window.lo}, {self.window.hi}]")
        return np.isin(self.ages, sorted(delta))

    def pullback_deviation(self, t: int, weights, target, cols=None) -> float:
        """Largest entry of ``|(U^t)' D U^t - diag(target)|`` over columns ``cols``.

        ``D`` is the diagonal of per-label ``weights`` and ``cols`` a
        boolean column mask (all columns when None).  Only the step map
        is read: ``(U^t)' D U^t`` holds ``weights[k]`` at every (i, j)
        whose labels both step onto k, so column j differs from the
        target by ``weights[k] - target[j]`` on the diagonal, by
        ``weights[k]`` at any other label sharing the image k, and by
        ``-target[j]`` when the image of j is truncated.  The result is
        the float the dense product gives, defective maps included.
        """
        idx = self.step_indices(t)
        alive = idx >= 0
        image = np.where(alive, idx, 0)
        pulled = np.where(alive, np.asarray(weights, dtype=float)[image], 0.0)
        dev = np.abs(pulled - target)
        shared = alive & (np.bincount(idx[alive], minlength=self.dim)[image] > 1)
        dev = np.where(shared, np.maximum(dev, np.abs(pulled)), dev)
        if cols is not None:
            dev = dev[cols]
        return float(dev.max(initial=0.0))

    @property
    def U(self) -> np.ndarray:
        """Dense read-only one-step matrix, built on request from the step map.

        Meant for small-dim cross-checks; no verification route uses it.
        """
        cols = np.nonzero(self._step >= 0)[0]
        mat = np.zeros((self.dim, self.dim))
        mat[self._step[cols], cols] = 1.0
        mat.setflags(write=False)
        return mat

    def label_text(self, i: int) -> str:
        """The label at index i: its age on the shift, ``{c1,c2,...}`` on the baker."""
        if self.kind == "shift":
            return str(int(self.ages[i]))
        m, mask = self.m, int(self._masks[i])
        return "{" + ",".join(str(j - m) for j in range(2 * m + 1) if mask >> j & 1) + "}"


# -- construction -------------------------------------------------------


def build_shift_cascade(window: AgeWindow) -> CascadeSystem:
    """Truncated bilateral shift: one basis vector per age in the window.

    ``U e_n = e_{n+1}`` below the top age and ``U e_hi = 0`` (open
    boundary); ``E({n})`` is the rank-one projector onto ``e_n`` and
    ``T e_n = n e_n``.  The smallest window, [-1, 1], has three labels.
    """
    step = np.arange(1, window.hi - window.lo + 2, dtype=np.int64)
    step[-1] = -1
    return CascadeSystem("shift", window, step)


def build_baker_cascade(m: int) -> CascadeSystem:
    """Dyadic baker model over coordinates [-m, m] in the Walsh basis.

    Basis labels are the nonempty coordinate subsets S with age max(S);
    the one-step action is the index shift S -> S+1, truncated when the
    shifted subset leaves the window.  The age-n eigenspace has
    dimension 2**(n+m).
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"baker size must be a positive integer, got {m!r}")
    if m > BAKER_SIZE_CAP:
        raise ValueError(f"m exceeds desk-scale cap {BAKER_SIZE_CAP}")
    # index k holds mask k + 1, and S -> S+1 doubles the mask
    doubled = 2 * np.arange(1, 1 << (2 * m + 1), dtype=np.int64)
    step = np.where(doubled < 1 << (2 * m + 1), doubled - 1, -1)
    return CascadeSystem("baker", AgeWindow(-m, m), step)


# -- dynamics ------------------------------------------------------------


def verify_covariance(system: CascadeSystem, t: int) -> float:
    """Deviation of the internal-time covariance at time t.

    Returns the maximum, over basis vectors inside the t-margin, of
    ``|| (U^t)' T U^t e - (T + t) e ||``, read off the step index map:
    the image of a label must carry its age plus t, and no other label
    may share that image.  Ages and t are small integers, so a correct
    construction returns exactly 0.0.
    """
    if t < 0:
        raise ValueError("covariance is checked for t >= 0")
    ages = system.ages.astype(float)
    return system.pullback_deviation(t, ages, ages + t, system.interior_mask(t))


def verify_imprimitivity(system: CascadeSystem, delta, t: int) -> float:
    """Deviation of the covariant transport of age projectors at time t.

    Conjugating by t forward steps carries the projector for the ages
    ``delta + t`` onto the projector for ``delta``; this orientation is
    the one compatible with the internal-time covariance ``T -> T + t``.
    Requires ``delta`` and ``delta + t`` inside the window, and then
    holds exactly as an operator identity, with no margin caveat: the
    check runs over every label of the step index map.
    """
    if t < 0:
        raise ValueError("imprimitivity is checked for t >= 0")
    if isinstance(delta, (int, np.integer)):
        delta = (int(delta),)
    delta = [int(n) for n in delta]
    shifted = system.age_mask([n + t for n in delta]).astype(float)
    return system.pullback_deviation(t, shifted, system.age_mask(delta).astype(float))


def verify_age_transport(system: CascadeSystem, t: int) -> float:
    """Largest :func:`verify_imprimitivity` deviation over the single ages at time t.

    The maximum of ``verify_imprimitivity(system, (n,), t)`` over every
    age n with n + t in the window, in one pass of the step index map.
    For one age n, column j of ``(U^t)' E({n+t}) U^t - E({n})`` is off
    by 1 where exactly one of "j has age n" and "the image of j has age
    n + t" holds, and where the image of j has age n + t and is shared
    with another label.  Every entry is 0 or 1, so the maximum is
    exactly the float the per-age calls give, defective maps included.
    """
    if t < 0:
        raise ValueError("imprimitivity is checked for t >= 0")
    lo, hi = system.window.lo, system.window.hi - t
    idx = system.step_indices(t)
    alive = idx >= 0
    image = np.where(alive, idx, 0)
    # the age n whose transport carries j: its image's age minus t, or
    # none (below the window) when the image is truncated
    carried = np.where(alive, system.ages[image] - t, lo - 1)
    shared = alive & (np.bincount(idx[alive], minlength=system.dim)[image] > 1)
    own = system.ages
    off = ((carried >= lo) & (carried <= hi) & ((carried != own) | shared)) | (
        (own >= lo) & (own <= hi) & (carried != own))
    return float(off.any())


# -- Walsh / grid realization --------------------------------------------


def _fwht_in_place(block: np.ndarray) -> np.ndarray:
    """Transform the last axis of a C-contiguous float block in place.

    Stage j adds and subtracts the pairs of entries whose indices differ
    in bit j, for j = 0, 1, ... in order, as the one-vector loop
    ``x, y = a[i], a[i + 2**j]; a[i], a[i + 2**j] = x + y, x - y`` does, so
    every output float is bitwise that loop's.  Only the memory layout
    differs: each stage reads the pairs of neighbours and writes their
    sums to the front half of a spare block and their differences to the
    back half (constant geometry), so every stage is two whole-block
    operations, whatever its j and the number of rows.  Returns
    ``block``.
    """
    n = block.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError("transform length must be a power of two")
    if not block.flags.c_contiguous:
        raise ValueError("the in-place transform needs a C-contiguous block")
    rows = block.size // n
    out = _butterflies(block.reshape(-1), np.empty(block.size), n.bit_length() - 1)
    # each stage rotated the flat index right by one bit: the index bits
    # have come round to the top, ahead of the row
    block.reshape(rows, n)[...] = out.reshape(n, rows).T
    return block


def _butterflies(src: np.ndarray, dst: np.ndarray, stages: int) -> np.ndarray:
    """Radix-2 stages on the lowest index bit, alternating between two flat buffers.

    A stage pairs entries 2k and 2k + 1 and writes their sum to entry k
    and their difference to entry k + size/2, so the bit it paired
    becomes the highest and the next one the lowest.  Returns the
    buffer holding the result.
    """
    half = src.size // 2
    for _ in range(stages):
        x, y = src[0::2], src[1::2]
        np.add(x, y, out=dst[:half])
        np.subtract(x, y, out=dst[half:])
        src, dst = dst, src
    return src


def _require_baker(system: CascadeSystem):
    if system.kind != "baker":
        raise ValueError("grid realization is only available for baker systems")


def _grid_shape(system: CascadeSystem):
    # y carries digits for coordinates -m..0, x for coordinates 1..m
    return 1 << (system.m + 1), 1 << system.m


@lru_cache(maxsize=BAKER_SIZE_CAP)
def _cell_coordinates(m: int):
    """Read-only row/column of each cell bitmask on the dyadic grid.

    Bit j of a cell mask is the binary digit for coordinate i = j - m.
    Digits i <= 0 spell y (digit i contributing 2**(m+i)) and digits
    i >= 1 spell x most-significant-first (contributing 2**(m-i)).
    Depends on m only, so it is computed once per m.
    """
    cells = np.arange(1 << (2 * m + 1))
    iy = cells & ((1 << (m + 1)) - 1)
    ix = np.zeros_like(cells)
    for i in range(1, m + 1):
        bit = cells >> (i + m) & 1
        ix |= bit << (m - i)
    iy.setflags(write=False)
    ix.setflags(write=False)
    return iy, ix


def walsh_to_cells(system: CascadeSystem, equilibrium, fluct, labels=None) -> tuple:
    """Evaluate a block of Walsh expansions on the coarsest dyadic grid that resolves it.

    Row r of ``fluct`` holds the coefficients of the label indices
    ``labels`` (of every label when None; the others get zero) and
    ``equilibrium[r]`` the constant component.  When the nonzero
    columns' labels use only the digits ``low .. top-1``, all rows take
    one length-``2**(top-low)`` transform.  Returns that cell block and
    ``low``, the pair :func:`cells_to_walsh` reads: full cell c is column
    ``(c >> low) % 2**(top-low)``, bit for bit, since every butterfly of
    the full transform outside those digits adds or subtracts an exact
    +0.0, which changes no value but -0.0, and no -0.0 arises when the
    input holds none.  So a block holding a -0.0 keeps every digit.
    """
    _require_baker(system)
    fluct = np.asarray(fluct, dtype=float)
    equilibrium = np.asarray(equilibrium, dtype=float)
    masks = system._masks if labels is None else system._masks[labels]
    if fluct.shape != (equilibrium.size, masks.size):
        raise BasisMismatchError(
            f"expected {equilibrium.size} rows of {masks.size} coefficients, got {fluct.shape}")
    nonzero = fluct != 0.0
    negative_zero = (np.signbit(fluct).any(where=~nonzero)
                     or np.signbit(equilibrium).any(where=equilibrium == 0.0))
    if negative_zero:
        low, top = 0, 2 * system.m + 1
    else:
        span = int(np.bitwise_or.reduce(masks[nonzero.any(axis=0)]))
        low, top = max(0, (span & -span).bit_length() - 1), span.bit_length()
    width = 1 << (top - low)
    # the columns on the span's digits; every other column is +0.0
    fits = (masks & ~((width - 1) << low)) == 0
    cells = np.zeros((equilibrium.size, width))
    cells[:, 0] = equilibrium
    cells[:, masks[fits] >> low] = fluct[:, fits]
    return _fwht_in_place(cells), low


def cells_to_walsh(system: CascadeSystem, cells, low: int) -> tuple:
    """Equilibrium means and Walsh coefficients of a block of cell values.

    ``cells`` is ``(rows, 2**b)``, the values on the digits
    ``low .. low+b-1`` in the bitmask order of :func:`walsh_to_cells`,
    read as a density constant in every other digit:
    ``(cells, 0)`` with b = 2m+1 is the full grid.  Returns the per-row
    equilibrium components, the ``(rows, 2**b - 1)`` coefficients of
    the labels within the b digits and those label indices, ascending:
    the ``(coeffs, labels)`` block of the fluctuation.  Column k of the
    short transform is the label of bitmask ``k << low``.  On finite
    cells the coefficients are bitwise those of the full block the pair
    spreads to, full cell c reading column ``(c >> low) % 2**b``.
    There, each stage outside the b digits adds a value to its equal
    copy and subtracts it from it, giving twice the value and +0.0, so a
    label within the b digits gets the short transform times
    ``2**(2m+1-b)``, exactly, over ``2**(2m+1)``: the same one rounding
    as the short transform over ``2**b``.  Every other label gets +0.0.
    ``cells`` is left as it is.
    """
    _require_baker(system)
    cells = np.asarray(cells, dtype=float)
    width = cells.shape[1] if cells.ndim == 2 else 0
    digits = width.bit_length() - 1
    if width & (width - 1) or not 0 < width or not 0 <= low <= 2 * system.m + 1 - digits:
        raise ValueError(
            f"cell block shape {cells.shape} at digit {low} does not match baker m={system.m}")
    coeffs = _fwht_in_place(np.array(cells, order="C"))
    coeffs /= width
    # index k holds mask k + 1
    labels = (np.arange(1, width, dtype=np.int64) << low) - 1
    return coeffs[:, 0], coeffs[:, 1:], labels


def grid_cells(system: CascadeSystem, grid: GridDensity) -> tuple:
    """A grid density's cell values as one row in bitmask order, and digit 0."""
    _require_baker(system)
    if grid.values.shape != _grid_shape(system):
        raise ValueError(f"grid shape {grid.values.shape} does not match {_grid_shape(system)}")
    iy, ix = _cell_coordinates(system.m)
    return grid.values[iy, ix][None], 0


def walsh_to_grid(system: CascadeSystem, equilibrium: float, fluct) -> GridDensity:
    """Evaluate one Walsh expansion pointwise on the dyadic cells.

    ``fluct`` is the array of label-ordered fluctuation coefficients and
    ``equilibrium`` the constant component; the one-row case of
    :func:`walsh_to_cells`, its block spread over every cell.  The
    transform is orthogonal up to the fixed cell-count normalization, so
    the grid/coefficient round trip is exact for dyadic data and
    accurate to round-off otherwise.
    """
    cells, low = walsh_to_cells(system, [equilibrium], [fluct])
    iy, ix = _cell_coordinates(system.m)
    grid = np.zeros(_grid_shape(system))
    grid[iy, ix] = cells[0, (np.arange(iy.size) >> low) & (cells.shape[1] - 1)]
    return GridDensity(grid)


def grid_to_walsh(system: CascadeSystem, grid: GridDensity) -> tuple:
    """Equilibrium mean and fluctuation coefficient array of a grid density.

    The one-row case of :func:`cells_to_walsh`, its block scattered to
    every label.
    """
    equilibrium, coeffs, labels = cells_to_walsh(system, *grid_cells(system, grid))
    fluct = np.zeros(system.dim)
    fluct[labels] = coeffs[0]
    return float(equilibrium[0]), fluct

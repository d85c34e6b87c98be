"""The contraction semigroup induced by a decay weighting.

Conjugating the forward step by an admissible decay operator yields,
for t >= 0, a strongly contracting evolution on the fluctuation space:
the coefficient sitting at age n moves to age n + t with the weight
lambda(n+t)/lambda(n) in (0, 1].  Every step applies W_t, U^t
conjugated by the log decay diagonal, and the inverse weighting is never
formed as a matrix: its entries reach exp(exp(hi)) on a window topping
out at hi, so the ratio form is the only finitely representable
realization.  An evolution forms U^1, ..., U^horizon on their
t-margins once, as one joined value, and conjugates it once into the
W_t it checks, keeping none of it.  The Lyapunov traces form the W_t of
all their times on the labels their rows support, one joined value,
and decide the margin and the agreement of their two norm routes at
once.  The positivity sweep checks each weighting the same way, then
conjugates only the labels it steps, and takes one Walsh transform per
(density, t) for all its weightings.

Negative times are rejected; the backward weights are unbounded as the
window widens, which :func:`asymmetry_probe` demonstrates, so the
forward family is a semigroup and not a group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import (GridDensity, MarginError, WeightedShift, cells_to_walsh, grid_cells,
                      walsh_to_cells)
from .hilbert import NORM_RESCALE_BELOW, BasisMismatchError, HVector, vector_norm
from .profiles import DecayOperator

__all__ = [
    "MarkovEvolution",
    "markov_step",
    "LyapunovTrace",
    "lyapunov_trace",
    "lyapunov_traces",
    "PositivityReport",
    "positivity_probe",
    "density_walsh",
    "evolved_minima",
    "swept_minima",
    "AsymmetryReport",
    "asymmetry_probe",
]

SUPPORT_TOLERANCE = 1e-12
AGREEMENT_TOLERANCE = 1e-10
_NOT_ADMISSIBLE = "decay ratios exceed one; the profile is not admissible"


class MarkovEvolution:
    """An induced contraction semigroup up to a horizon.

    Construction forms W_1, ..., W_max_t on their t-margins, U^t joined
    over the times and conjugated once by the log diagonal of ``decay``,
    and checks that none of its log weights exceeds zero.  It keeps
    none of them: each caller forms the W_t it applies.
    """

    def __init__(self, decay: DecayOperator, max_t: int):
        if max_t < 0:
            raise ValueError("the horizon must be non-negative")
        self.decay = decay
        self.system = decay.system
        self.max_t = int(max_t)
        _admissible(decay, self.system.step(range(1, self.max_t + 1)))


def _admissible(decay: DecayOperator, u: WeightedShift):
    """Raise if a log weight of W_t, ``u`` conjugated by the log decay diagonal, exceeds zero."""
    if (u.conjugate(decay.log_diag, -decay.log_diag).log_weights > 0).any():
        raise ValueError(_NOT_ADMISSIBLE)


def markov_step(ev: MarkovEvolution, rho: HVector, t: int) -> HVector:
    """Evolve a margin-supported fluctuation vector t steps forward.

    The coefficient at age n contributes exp(log lambda(n+t) -
    log lambda(n)) times itself at age n + t.  Coefficients below
    ``SUPPORT_TOLERANCE`` (relative to the largest) are treated as
    truncation dust and dropped; larger coefficients outside the
    t-margin raise :class:`MarginError`.
    """
    system = ev.system
    if rho.basis_id != system.basis_id:
        raise BasisMismatchError("vector does not belong to the evolved system")
    _check_time(t, ev.max_t)
    coeffs, labels = rho.coeffs[None], np.arange(system.dim)
    inside = _inside(system, coeffs, t, labels)
    log_diag = ev.decay.log_diag
    targets, moved = system.step([t]).conjugate(log_diag, -log_diag).apply(coeffs[:, inside])
    out = np.zeros(system.dim)
    out[targets] = moved[0]
    return HVector(out, system.basis_id)


def _check_time(t: int, horizon: int | None = None):
    if t < 0:
        raise ValueError("negative times are outside the semigroup")
    if horizon is not None and t > horizon:
        raise ValueError(f"t={t} exceeds the horizon {horizon}")


def _inside(system, coeffs: np.ndarray, t: int, labels) -> np.ndarray:
    """The mask of the ``labels`` inside the t-margin, after the margin check.

    Row r of ``coeffs`` holds the coefficients of the label indices
    ``labels``.  The check runs row by row and names the first eight
    labels of the first offending row, in index order.
    """
    inside = system.ages[labels] + t <= system.window.hi
    size = np.abs(coeffs)
    peak = size.max(axis=1, initial=0.0, keepdims=True)
    far = size[:, ~inside] > SUPPORT_TOLERANCE * np.maximum(1.0, peak)
    if far.any():
        row = int(np.nonzero(far.any(axis=1))[0][0])
        offending = np.sort(labels[~inside][far[row]])[:8]
        names = ", ".join(system.label_text(i) for i in offending)
        raise MarginError(f"support leaves the window within {t} steps at labels: {names}")
    return inside


@dataclass(frozen=True)
class LyapunovTrace:
    """Norm decay record of one evolved vector.

    ``norms[t]`` is the evolved norm and ``forms[t]`` the quadratic form
    of the squared weighting against the pulled-back trajectory; the two
    are independent float routes to the same quantity and their
    agreement is asserted at construction.
    """

    t_values: tuple
    norms: tuple
    forms: tuple
    monotone: bool
    ratio_to_zero: float


def lyapunov_trace(ev: MarkovEvolution, rho: HVector, max_t: int | None = None) -> LyapunovTrace:
    """Trace the evolved norm of ``rho`` and cross-check its decay.

    For each t the direct route squares the per-coefficient products
    while the quadratic-form route sums exp(2 log ratio) times the
    squared coefficients; both must agree within ``AGREEMENT_TOLERANCE``
    relative.  Where either route falls below ``NORM_RESCALE_BELOW``
    the plain form has underflowed, so the routes are compared in the
    log domain instead.  Monotone decrease of the norms is reported,
    not assumed.  The one-row case of :func:`lyapunov_traces`.
    """
    if rho.basis_id != ev.system.basis_id:
        raise BasisMismatchError("vector does not belong to the evolved system")
    return lyapunov_traces(ev, rho.coeffs[None], max_t)[0]


def lyapunov_traces(ev: MarkovEvolution, coeffs, max_t: int | None = None) -> list:
    """:func:`lyapunov_trace` of each row of a ``(rows, dim)`` coefficient block.

    Every float is the one the one-row trace gives: per row and t, the
    direct norm is :func:`~timeop.hilbert.vector_norm` of the full-dim
    evolved row, and the form the sum over the row's alive labels.  The
    W_t of every t before the first margin error, on the support labels
    inside its t-margin, are formed as one joined value and applied in
    one move.  The checks are decided for all times at once, on the
    ``(t, label)`` margins and images: the first t at which
    a row's support leaves the window (:class:`MarginError`) or its two
    routes disagree (``AssertionError``) raises, for the first such row;
    at a t with both, the margin error.
    """
    horizon = ev.max_t if max_t is None else int(max_t)
    _check_time(horizon, ev.max_t)
    times = np.arange(horizon + 1)
    coeffs = np.asarray(coeffs, dtype=float)
    if not np.isfinite(coeffs).all():
        raise ValueError("entries must be finite")
    system = ev.system
    rows = coeffs.shape[0]
    size = np.abs(coeffs)
    big = size > SUPPORT_TOLERANCE * np.maximum(1.0, size.max(axis=1, initial=0.0, keepdims=True))
    del size
    # a row leaves the window once its oldest coefficient above the dust
    # does; the times before the first such t are decided
    oldest = np.where(big, system.ages, -np.inf).max(axis=1, initial=-np.inf)
    stop = int(min(times.size, system.window.hi + 1 - oldest.max(initial=-np.inf)))
    # both routes read the support columns only: a label no row holds
    # lands nothing, and every alive label is a support column, in the
    # same order, so each (row, t) sums the same terms
    support = (coeffs != 0.0).any(axis=0).nonzero()[0]
    held = coeffs[:, support]
    # W_t on the support inside each t-margin, every t at once, in t order;
    # its log weights are a table, NaN off the t-margin and at a truncated image
    inside = system.ages[support] + times[:stop, None] <= system.window.hi
    at_t, at_col = inside.nonzero()
    log_diag = ev.decay.log_diag
    w_t = system.step(range(stop), [support[row] for row in inside]).conjugate(log_diag, -log_diag)
    table = np.full((stop, support.size), np.nan)
    table[at_t, at_col] = w_t.log_weights
    targets, moved = w_t.apply(held[:, at_col])
    # the landed entries are in t order: each t moves its own onto one
    # dim-long block of rows, as the one-row step does
    ends = np.searchsorted(at_t[w_t.targets >= 0], np.arange(1, stop + 1)).tolist()
    norms = np.empty((rows, stop))
    for t, a, b in zip(range(stop), [0] + ends, ends):
        evolved = np.zeros((rows, system.dim))
        evolved[:, targets[a:b]] = moved[:, a:b]
        norms[:, t] = [vector_norm(row) for row in evolved]
    alive = (held != 0.0)[:, None, :] & ~np.isnan(table)
    at_row, at_t, at_label = alive.nonzero()
    with np.errstate(under="ignore"):
        terms = np.exp(2.0 * table[at_t, at_label]) * held[at_row, at_label] ** 2
    # one slice of ``terms`` per (row, t), in row-major order
    ends = alive.sum(axis=2).ravel().cumsum().tolist()
    forms = np.array([terms[a:b].sum() for a, b in zip([0] + ends, ends)]).reshape(rows, stop)
    _check_routes(norms, forms, table, held, alive)
    if stop < times.size:  # a row's support leaves the window at stop
        _inside(system, coeffs, stop, np.arange(system.dim))
    t_values = tuple(times.tolist())
    traces = []
    for row_norms, row_forms in zip(norms.tolist(), forms.tolist()):
        monotone = all(b <= a for a, b in zip(row_norms, row_norms[1:]))
        ratio = row_norms[-1] / row_norms[0] if row_norms and row_norms[0] > 0 else 0.0
        traces.append(LyapunovTrace(t_values, tuple(row_norms), tuple(row_forms),
                                    monotone, ratio))
    return traces


def _check_routes(norms, forms, table, coeffs, alive):
    """Raise at the first t, for its first row, where the direct norm and the form root disagree.

    ``norms`` and ``forms`` are ``(rows, t)`` grids; a pair below
    ``NORM_RESCALE_BELOW`` is compared in the log domain, recomputed
    from ``table`` (the log ratios) and ``coeffs`` on the ``alive``
    labels, all three on the same columns.  A subnormal norm is exact
    only to its own spacing, so the relative tolerance is
    ``AGREEMENT_TOLERANCE`` or that spacing over the norm, the larger.
    """
    root = np.sqrt(forms)
    gap = np.zeros(norms.shape)
    checked = norms > 0.0
    plain = checked & (np.minimum(norms, root) >= NORM_RESCALE_BELOW)
    gap[plain] = np.abs(root[plain] - norms[plain]) / norms[plain]
    for r, t in zip(*(checked & ~plain).nonzero()):
        logs = 2.0 * table[t][alive[r, t]] + 2.0 * np.log(np.abs(coeffs[r][alive[r, t]]))
        peak = logs.max()
        log_form = 0.5 * (peak + np.log(np.sum(np.exp(logs - peak))))
        gap[r, t] = abs(log_form - np.log(norms[r, t]))
    with np.errstate(divide="ignore"):  # an unchecked zero norm reads an infinite tolerance
        bad = gap > np.maximum(AGREEMENT_TOLERANCE, np.spacing(norms) / norms)
    if bad.any():
        t = int(np.argmax(bad.any(axis=0)))
        r = int(np.argmax(bad[:, t]))
        raise AssertionError(
            f"norm routes disagree at t={t}: direct {float(norms[r, t])!r} vs form "
            f"{float(root[r, t])!r} (relative gap {gap[r, t]:.3g})"
        )


@dataclass(frozen=True)
class PositivityReport:
    """Minimum cell value of an evolved density; violation if negative."""

    t: int
    min_cell: float
    violation: float


def positivity_probe(ev: MarkovEvolution, rho: GridDensity, t: int) -> PositivityReport:
    """Evolve a nonnegative unit-mass density and report its minimum cell.

    The density is transformed to Walsh coefficients, the equilibrium
    component is held fixed while the fluctuation evolves, and the
    result is mapped back to the grid.  Whether the evolved density
    stays nonnegative is measured, never assumed: the report carries the
    violation magnitude when the minimum dips below zero.  The one-row
    case of :func:`density_walsh` followed by :func:`evolved_minima`.
    """
    if ev.system.kind != "baker":
        raise ValueError("positivity is probed on the baker grid realization")
    block = density_walsh(ev.system, *grid_cells(ev.system, rho))
    min_cell = float(evolved_minima(ev, *block, t)[0])
    return PositivityReport(t=t, min_cell=min_cell, violation=max(0.0, -min_cell))


def density_walsh(system, cells, low: int) -> tuple:
    """Walsh coefficients of a block of probe densities, one per row.

    ``(cells, low)`` is a cell block on the digits from ``low`` up, as
    :func:`~timeop.cascade.walsh_to_cells` returns it and
    :func:`~timeop.cascade.cells_to_walsh` reads it.  Every row must be
    nonnegative and have unit mass, read as its equilibrium component;
    the first row that is not raises ``ValueError``.  Returns the
    equilibrium components and the ``(coeffs, labels)`` block of the
    fluctuation, as :func:`~timeop.cascade.cells_to_walsh` gives them.
    """
    cells = np.asarray(cells, dtype=float)
    if np.any(cells.min(axis=-1) < -1e-12):
        raise ValueError("probe density must be nonnegative")
    equilibrium, coeffs, labels = cells_to_walsh(system, cells, low)
    off = np.nonzero(np.abs(equilibrium - 1.0) > 1e-9)[0]
    if off.size:
        raise ValueError(f"probe density must have unit mass, got {float(equilibrium[off[0]])!r}")
    return equilibrium, coeffs, labels


def evolved_minima(ev: MarkovEvolution, equilibrium, coeffs, labels, t: int) -> np.ndarray:
    """Minimum cell of each density of a block after t steps.

    The one-operator, one-time case of :func:`swept_minima`, under the
    decay operator of ``ev`` and within its horizon.
    """
    _check_time(t, ev.max_t)
    return swept_minima([ev.decay], [(equilibrium, coeffs, labels)], [t])[0][0][0]


def swept_minima(decays, blocks, times) -> list:
    """Minimum cell of each density of each block after each t, under each decay operator.

    ``decays``, a nonempty iterable of
    :class:`~timeop.profiles.DecayOperator` on one system, is read once,
    so a generator keeps one alive at a time; ``blocks`` are as
    :func:`density_walsh` returns them.  Returns, per t and block, the
    ``(decays, rows)`` minima.  Each operator is first checked on every
    label, by the check of a :class:`MarkovEvolution` with the largest t
    for horizon: no log ratio of W_1, ..., W_t may exceed zero.  The
    U^t it conjugates are formed once per sweep, since they depend on
    the system only.  So do the margin check, once per (t, block), and
    U^t on the labels each (t, block) keeps, one joined value; each
    operator conjugates it into its W_t on the blocks' labels only.  Each
    (t, block) then takes one ``apply`` of the W_t of every operator,
    stacked, and one :func:`~timeop.cascade.walsh_to_cells` transform
    for all their rows: the floats are the one-row step's, and the block
    over the union of the rows' spans tiles each row's own, so the minima
    are too.  Raises what a loop over operators, each checked, then
    times, then blocks raises; with no block, one empty list per t.
    """
    steps, weights = None, []
    for decay in decays:
        if steps is None:
            system = decay.system
            margins = system.step(range(1, max(times, default=0) + 1))
        _admissible(decay, margins)
        if steps is None:
            steps = [_block_step(system, t, *block) for t in times for block in blocks]
            joined = system.step([t for t in times for _ in blocks],
                                 [labels for _, _, labels in steps])
        weights.append(joined.conjugate(decay.log_diag, -decay.log_diag).log_weights)
        del decay  # not alive while the next one is built
    if steps is None:
        raise ValueError("the sweep needs at least one decay operator")
    joined = joined._replace(log_weights=np.array(weights))
    minima = [_block_minima(system, equilibrium, coeffs, joined.take(slice(a, b)))
              for (equilibrium, coeffs, _), a, b in zip(steps, joined.offsets, joined.offsets[1:])]
    return [minima[i * len(blocks):(i + 1) * len(blocks)] for i in range(len(times))]


def _block_step(system, t: int, equilibrium, coeffs, labels) -> tuple:
    """A block's t-step, but for U^t: its coefficients in the t-margin, and their labels."""
    _check_time(t)
    labels = np.asarray(labels)
    inside = _inside(system, coeffs, t, labels)
    return equilibrium, coeffs[:, inside], labels[inside]


def _block_minima(system, equilibrium, coeffs, w_t) -> np.ndarray:
    """The ``(decays, rows)`` minima of a block step under ``w_t``, one W_t per decay, stacked."""
    n, rows = w_t.log_weights.shape[0], coeffs.shape[0]
    targets, moved = w_t.apply(coeffs)
    cells, _ = walsh_to_cells(system, np.tile(equilibrium, n),
                              moved.reshape(n * rows, targets.size), labels=targets)
    return cells.min(axis=1).reshape(n, rows)


@dataclass(frozen=True)
class AsymmetryReport:
    """Forward contraction versus backward amplification at time t."""

    t: int
    forward_norm_ratio: float
    backward_log_factor: float
    backward_factor: float
    backward_age: int


def asymmetry_probe(ev: MarkovEvolution, rho: HVector, t: int) -> AsymmetryReport:
    """Contrast the forward contraction with the backward weight table.

    The backward weights log lambda(n-t) - log lambda(n) are all
    nonnegative and their maximum grows like exp(hi) as the window
    widens, so the backward family cannot be bounded: the report carries
    the largest backward factor (and its log, which stays finite when
    the factor itself overflows).
    """
    if t < 0:
        raise ValueError("probe times are non-negative")
    system = ev.system
    window = system.window
    forward = markov_step(ev, rho, t)
    base = rho.norm()
    forward_ratio = forward.norm() / base if base > 0 else 0.0
    ages = np.arange(window.lo + t, window.hi + 1)
    if ages.size == 0:
        raise ValueError("window too narrow for the requested backward time")
    back_logs = ev.decay.profile.log_value(ages - t) - ev.decay.profile.log_value(ages)
    i = int(np.argmax(back_logs))
    log_factor = float(back_logs[i])
    with np.errstate(over="ignore"):
        factor = float(np.exp(log_factor))
    return AsymmetryReport(
        t=t,
        forward_norm_ratio=forward_ratio,
        backward_log_factor=log_factor,
        backward_factor=factor,
        backward_age=int(ages[i]),
    )

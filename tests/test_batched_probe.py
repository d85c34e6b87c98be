"""The row-batched Walsh transform and positivity probe against the one-vector loop.

``_fwht_in_place`` transforms the last axis of a ``(rows, N)`` block in
a layout of its own; the textbook one-vector loop lives here only, as
the reference, and every output float must be bitwise the loop's.  The
positivity sweep probes its random densities in chunks of rows: each
row must give the bits the one-density probe gives, raise the error the
one-density probe raises, and the sweep must stay within a fixed number
of transforms and a small memory budget.  Densities come as
``(cells, low)`` blocks on the digits their labels use; the one-density
references read them spread over the full grid.
"""

import math
import tracemalloc

import numpy as np
import pytest

import timeop.cascade
from timeop.cascade import (
    GridDensity,
    MarginError,
    _cell_coordinates,
    _fwht_in_place,
    build_baker_cascade,
    grid_cells,
    walsh_to_cells,
    walsh_to_grid,
)
from timeop.config import parse_config
from timeop.hilbert import HVector
from timeop.markov import (
    MarkovEvolution,
    density_walsh,
    evolved_minima,
    markov_step,
    positivity_probe,
)
from timeop.profiles import build_decay_operator, gumbel
from timeop.runner import _PROBE_CHUNK, _Context, _random_densities, _run_positivity


def fwht_loop(values):
    """The one-vector transform loop the batched kernel must reproduce."""
    a = np.array(values, dtype=float)
    n = a.shape[0]
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        x = a[:, 0, :].copy()
        y = a[:, 1, :].copy()
        a[:, 0, :] = x + y
        a[:, 1, :] = x - y
        a = a.reshape(n)
        h *= 2
    return a


def bits(values):
    """Float bit patterns, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def reference_random_cells(system, rng, max_age):
    """One random probe density, drawn and scaled one vector at a time."""
    coeffs = np.where(system.ages <= max_age, rng.standard_normal(system.dim), 0.0)
    full = np.zeros(1 << (2 * system.m + 1))
    full[system._masks] = coeffs
    cells = fwht_loop(full)
    low = float(cells.min())
    scale = 0.5 / max(1e-9, -low) if low < 0 else 1.0
    return 1.0 + scale * cells


def reference_min_cell(ev, cells, t):
    """The one-density probe on the loop: Walsh, step, cells, minimum."""
    system = ev.system
    coeffs = fwht_loop(cells) / cells.size
    fluct = coeffs[system._masks]
    alive = np.nonzero((system.ages + t <= system.window.hi) & (fluct != 0.0))[0]
    evolved = np.zeros(system.dim)
    evolved[system.step_indices(t)[alive]] = np.exp(ev.decay.step_log_ratio(t)[alive]) * fluct[alive]
    full = np.zeros(cells.size)
    full[0] = coeffs[0]
    full[system._masks] = evolved
    return fwht_loop(full).min()


def spread(system, cells, low):
    """A ``(cells, low)`` block on every cell of the full grid: cell c reads (c >> low) mod width."""
    c = np.arange(1 << (2 * system.m + 1))
    return cells[:, (c >> low) % cells.shape[1]]


def tiled(cells, width):
    """Coarse cell rows repeated to ``width`` cells: constant in the digits they lack."""
    return np.tile(cells, (1, width // cells.shape[-1]))


def as_grid(system, cells):
    iy, ix = _cell_coordinates(system.m)
    grid = np.zeros((1 << (system.m + 1), 1 << system.m))
    grid[iy, ix] = cells
    return GridDensity(grid)


def signed_zero_density(system):
    """Cells whose Walsh coefficient on the label {-m, 1-m} is -0.0.

    In every block of four cells, (-0.0, +0.0) differ by -0.0 and
    (2, 2) by +0.0, so the pattern-3 sums stay -0.0 all the way up.
    """
    return np.tile([-0.0, 0.0, 2.0, 2.0], 1 << (2 * system.m - 1))


class TestBatchedTransform:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_rows_are_bitwise_the_loop(self, m):
        n = 1 << (2 * m + 1)
        rng = np.random.default_rng(m)
        for shape in [(n,), (1, n), (3, n), (8, n), (13, n)]:
            x = rng.standard_normal(shape)
            x.reshape(-1)[:: 7] = -0.0
            got = _fwht_in_place(np.array(x))
            want = np.array([fwht_loop(row) for row in x.reshape(-1, n)]).reshape(shape)
            assert got.shape == shape
            assert np.array_equal(bits(got), bits(want))

    def test_rejects_lengths_that_are_not_powers_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            _fwht_in_place(np.ones((2, 12)))

    def test_one_row_functions_are_rows_of_the_block(self):
        b = build_baker_cascade(3)
        rng = np.random.default_rng(4)
        equilibrium = rng.standard_normal(5)
        fluct = rng.standard_normal((5, b.dim))
        block = spread(b, *walsh_to_cells(b, equilibrium, fluct))
        for r in range(5):
            cells, low = grid_cells(b, walsh_to_grid(b, equilibrium[r], fluct[r]))
            assert low == 0
            assert np.array_equal(bits(cells[0]), bits(block[r]))


def probe_case(m, seed=3, t_max=2):
    system = build_baker_cascade(m)
    late = system.ages > system.window.hi - t_max
    return system, late, np.random.default_rng(seed)


@pytest.mark.parametrize("m", [3, 4])
def test_chunk_rows_are_bitwise_the_one_density_probe(m):
    system, late, rng = probe_case(m)
    reference_rng = np.random.default_rng(3)
    rows = 13  # a full chunk and a partial one
    chunks = [_random_densities(system, rng, 8, late),
              _random_densities(system, rng, rows - 8, late)]
    assert [low for _, low in chunks] == [0, 0]
    coarse = np.vstack([cells for cells, _ in chunks])
    n_cells = 1 << (2 * m + 1)
    assert coarse.shape == (rows, n_cells >> 2)  # t_max = 2 digits fewer
    block = tiled(coarse, n_cells)
    reference = np.array([reference_random_cells(system, reference_rng, system.window.hi - 2)
                          for _ in range(rows)])
    assert np.array_equal(bits(block), bits(reference))

    canonical = walsh_to_cells(system, [1.0], system.basis_vector(frozenset({0})).coeffs[None])
    assert canonical[0].shape == (1, 2) and canonical[1] == m
    zero = signed_zero_density(system)
    equilibrium, fluct = density_walsh(system, zero[None], 0)
    assert bits(fluct[0, system.index_of({-m, 1 - m})]) == bits(-0.0)
    block = np.vstack([block, spread(system, *canonical), zero])
    ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 2)
    stepped = markov_step(ev, HVector(fluct[0], system.basis_id), 1)
    target = system.step_indices(1)[system.index_of({-m, 1 - m})]
    assert bits(stepped.coeffs[target]) == bits(0.0)  # a zero coefficient is not moved
    for a in (0.5, 2.0):
        ev = MarkovEvolution(build_decay_operator(gumbel(a), system), 2)
        for t in (0, 1, 2):
            minima = evolved_minima(ev, *density_walsh(system, block, 0), t)
            single = [positivity_probe(ev, as_grid(system, row), t).min_cell for row in block]
            loop = [reference_min_cell(ev, row, t) for row in block]
            assert np.array_equal(bits(minima), bits(single))
            assert np.array_equal(bits(minima), bits(loop))
            from_coarse = evolved_minima(ev, *density_walsh(system, coarse, 0), t)
            assert np.array_equal(bits(from_coarse), bits(minima[:rows]))
            from_pair = evolved_minima(ev, *density_walsh(system, *canonical), t)
            assert np.array_equal(bits(from_pair), bits(minima[rows:rows + 1]))


class TestPerRowChecks:
    """A bad row inside a chunk raises the one-density probe's error."""

    def chunk_with(self, bad_cells, m=3):
        system, late, rng = probe_case(m)
        block, low = _random_densities(system, rng, _PROBE_CHUNK, late)
        assert low == 0
        # a bad row on a finer grid than the draws widens the chunk to it
        block = tiled(block, max(block.shape[1], bad_cells.size))
        block[5] = bad_cells
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 2)
        return system, ev, block

    def same_error(self, system, ev, block, kind):
        with pytest.raises(kind) as from_chunk:
            evolved_minima(ev, *density_walsh(system, block, 0), 1)
        with pytest.raises(kind) as from_single:
            positivity_probe(ev, as_grid(system, tiled(block[5:6], 1 << 7)[0]), 1)
        assert str(from_chunk.value) == str(from_single.value)
        return str(from_chunk.value)

    def test_negative_cell(self):
        cells = np.ones(1 << 5)  # the coarse grid of the draws
        cells[17] = -0.25
        cells[18] = 2.25
        message = self.same_error(*self.chunk_with(cells), ValueError)
        assert "nonnegative" in message

    def test_mass_off_one(self):
        message = self.same_error(*self.chunk_with(np.full(1 << 5, 1.5)), ValueError)
        assert "unit mass" in message and "1.5" in message

    def test_coefficient_outside_the_margin(self):
        system = build_baker_cascade(3)
        fluct = np.zeros((1, system.dim))
        fluct[0, system.index_of({0, 3})] = 0.3  # age 3 = hi leaves at t = 1
        cells = spread(system, *walsh_to_cells(system, [1.0], fluct))[0]
        message = self.same_error(*self.chunk_with(cells), MarginError)
        assert "{0,3}" in message


POSITIVITY_M6 = """
seed = 5

[system]
kind = baker
m = 6

[profile]
family = gumbel
a = 1.0

[experiment positivity]
t_values = 1 2
n_random = 10
sweep_a = 0.5 2.0
gate = false
"""


def test_sweep_transform_count_and_memory(monkeypatch):
    # each chunk costs three transforms (draw, forward, evolved) and the
    # canonical row one per (a, t) plus two per run; the peak stays near
    # three (rows, dim) blocks of 0.5 MB, where per-density transforms
    # cost 3 * n_random per (a, t) and a chunk holding many temporaries
    # about 8 MB
    config = parse_config(POSITIVITY_M6)
    ctx = _Context(config)
    params = config.experiments[0].params
    kernel = timeop.cascade._fwht_in_place
    calls = []

    def counted(block):
        calls.append(block.shape)
        return kernel(block)

    monkeypatch.setattr(timeop.cascade, "_fwht_in_place", counted)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, details = _run_positivity(ctx, params, np.random.default_rng([5, 0]))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    n_at = len(params["sweep_a"]) * len(params["t_values"])
    assert len(details["sweep"]) == n_at * (1 + params["n_random"])
    assert len(calls) <= n_at * (3 * math.ceil(params["n_random"] / _PROBE_CHUNK) + 1) + 2
    assert peak < 3 * 2**20

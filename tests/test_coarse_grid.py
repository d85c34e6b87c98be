"""Walsh expansions evaluated on the coarsest dyadic grid their labels resolve.

An expansion whose nonzero labels use only the digits ``low .. top-1``
is constant along every other digit, so ``walsh_to_cells`` transforms a
block of length ``2**(top-low)`` in place of the full ``2**(2m+1)`` and
returns it with ``low``.  Spread over the full grid, the pair's cells
must be the full-grid transform's bit for bit, and ``cells_to_walsh``
must read the pair into the coefficients of that full block bit for
bit, giving the coefficients of the labels within its digits with
those labels.  The full-grid transform lives here only, as the
reference.  The
positivity sweep runs on these short transforms, and its minima must be
the one-density loop's.
"""

import numpy as np
import pytest

import timeop.cascade
from timeop.cascade import _fwht_in_place, build_baker_cascade, cells_to_walsh, walsh_to_cells
from timeop.config import parse_config
from timeop.markov import MarkovEvolution, density_walsh, evolved_minima
from timeop.profiles import build_decay_operator, gumbel
from timeop.runner import _Context, _run_positivity

from test_batched_probe import (
    bits,
    random_densities,
    reference_min_cell,
    signed_zero_density,
    spread,
    tiled,
)


def full_grid_cells(system, equilibrium, fluct, labels=None):
    """The full-grid transform: a zero block, the coefficients scattered at their masks."""
    masks = system._masks if labels is None else system._masks[labels]
    full = np.zeros((len(equilibrium), 1 << (2 * system.m + 1)))
    full[:, 0] = equilibrium
    full[:, masks] = fluct
    return _fwht_in_place(full)


def full_grid_walsh(system, full):
    """Equilibrium and label-ordered coefficients of full-grid cells, by the full transform."""
    coeffs = _fwht_in_place(np.array(full, order="C")) / full.shape[1]
    return coeffs[:, 0], coeffs[:, system._masks]


def check_coarse(system, equilibrium, fluct, labels=None):
    """Assert the coarse evaluation is the full transform; return its width and low digit."""
    equilibrium = np.asarray(equilibrium, dtype=float)
    cells, low = walsh_to_cells(system, equilibrium, fluct, labels)
    want = full_grid_cells(system, equilibrium, fluct, labels)
    assert np.array_equal(bits(spread(system, cells, low)), bits(want))
    return cells.shape[1], low


def span_of(masks):
    span = int(np.bitwise_or.reduce(masks)) if len(masks) else 0
    low = (span & -span).bit_length() - 1 if span else 0
    return 1 << (span.bit_length() - low), low


class TestCoarseEvaluation:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_random_supports(self, m):
        system = build_baker_cascade(m)
        rng = np.random.default_rng(100 + m)
        for size in (1, 2, 5, system.dim // 3):
            support = np.sort(rng.choice(system.dim, size=min(size, system.dim), replace=False))
            fluct = np.zeros((3, system.dim))
            fluct[:, support] = rng.standard_normal((3, support.size))
            fluct[1, support[0]] = 0.0  # a zero entry inside the support
            width, low = check_coarse(system, rng.standard_normal(3), fluct)
            assert (width, low) == span_of(system._masks[support])

    @pytest.mark.parametrize("m", range(1, 7))
    def test_supports_shifted_by_the_step_map(self, m):
        system = build_baker_cascade(m)
        rng = np.random.default_rng(200 + m)
        early = np.nonzero(system.ages <= 0)[0]
        support = np.sort(rng.choice(early, size=min(40, early.size), replace=False))
        coeffs = rng.standard_normal((4, support.size))
        widths = set()
        for t in range(2 * m + 1):
            targets = system.step_indices(t)[support]
            kept = targets >= 0
            width, low = check_coarse(system, np.ones(4), coeffs[:, kept], labels=targets[kept])
            assert (width, low) == span_of(system._masks[targets[kept]])
            widths.add(width)
        # shifting moves the span up without widening it, until it falls off the top
        assert max(widths) <= span_of(system._masks[support])[0]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_canonical_density(self, m):
        system = build_baker_cascade(m)
        fluct = system.basis_vector(frozenset({0})).coeffs[None]
        assert check_coarse(system, [1.0], fluct) == (2, m)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_equilibrium_only_and_all_zero(self, m):
        system = build_baker_cascade(m)
        assert check_coarse(system, [1.75], np.zeros((1, system.dim))) == (1, 0)
        assert check_coarse(system, np.zeros(2), np.zeros((2, system.dim))) == (1, 0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_a_signed_zero_keeps_every_digit(self, m):
        system = build_baker_cascade(m)
        fluct = np.zeros((2, system.dim))
        fluct[0, system.index_of({0})] = 1.0
        fluct[1, -1] = -0.0
        assert check_coarse(system, [1.0, 1.0], fluct) == (1 << (2 * m + 1), 0)
        assert check_coarse(system, [-0.0], np.zeros((1, system.dim))) == (1 << (2 * m + 1), 0)


class TestCoarseCellsToWalsh:
    def assert_same(self, system, cells, low):
        """Check the ``(coeffs, labels)`` block against the full transform; return it scattered."""
        before = cells.copy()
        equilibrium, coeffs, labels = cells_to_walsh(system, cells, low)
        assert np.array_equal(bits(cells), bits(before))
        again = cells_to_walsh(system, np.asfortranarray(cells), low)
        assert np.array_equal(bits(again[0]), bits(equilibrium))
        assert np.array_equal(bits(again[1]), bits(coeffs))
        assert np.array_equal(again[2], labels)
        width = cells.shape[1]
        resolved = (system._masks & ~((width - 1) << low)) == 0
        assert np.array_equal(labels, np.nonzero(resolved)[0])
        assert coeffs.shape == (cells.shape[0], labels.size)
        fluct = np.zeros((cells.shape[0], system.dim))  # every other label is +0.0
        fluct[:, labels] = coeffs
        want = full_grid_walsh(system, spread(system, cells, low))
        for a, b in zip((equilibrium, fluct), want):
            assert a.shape == b.shape
            assert np.array_equal(bits(a), bits(b))
        return equilibrium, fluct

    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_width(self, m):
        # every width at random digits, with -0.0, subnormal and huge cells
        system = build_baker_cascade(m)
        rng = np.random.default_rng(300 + m)
        for b in range(2 * m + 2):
            for scale in (1.0, 1e-310, 1e300):
                cells = rng.standard_normal((3, 1 << b)) * scale
                cells.reshape(-1)[::5] = -0.0
                self.assert_same(system, cells, int(rng.integers(0, 2 * m + 2 - b)))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_signed_zero_density(self, m):
        system = build_baker_cascade(m)
        zero = signed_zero_density(system)
        _, fluct = self.assert_same(system, zero[None, :4], 0)
        assert bits(fluct[0, system.index_of({-m, 1 - m})]) == bits(-0.0)
        _, fluct = self.assert_same(system, zero[None, :4], 2 * m - 1)
        assert bits(fluct[0, system.index_of({m - 1, m})]) == bits(-0.0)

    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_subnormal_coefficients(self, m):
        system = build_baker_cascade(m)
        coarse = np.random.default_rng(400 + m).standard_normal((3, 8)) * 1e-310
        equilibrium, fluct = self.assert_same(system, coarse, 2 * m - 2)
        coeffs = np.concatenate([equilibrium, fluct.ravel()])
        assert np.any((coeffs != 0) & (np.abs(coeffs) < np.finfo(float).tiny))

    def test_widths_that_do_not_fit_are_rejected(self):
        system = build_baker_cascade(2)
        for shape, low in [((1, 3), 0), ((1, 64), 0), ((2, 0), 0), ((32,), 0),
                           ((1, 4), 4), ((1, 32), 1), ((1, 2), -1)]:
            with pytest.raises(ValueError, match="does not match baker m=2"):
                cells_to_walsh(system, np.ones(shape), low)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_evolved_minima_are_the_loop_reference(m):
    system = build_baker_cascade(m)
    t_max = 3
    live = np.nonzero(system.ages + t_max <= system.window.hi)[0]
    coarse, low = random_densities(system, np.random.default_rng(m), 6, live)
    assert coarse.shape[1] == 1 << (2 * m + 1 - t_max) and low == 0
    full = tiled(coarse, 1 << (2 * m + 1))
    for a in (0.4, 1.0, 2.5):
        ev = MarkovEvolution(build_decay_operator(gumbel(a), system), t_max)
        for t in range(t_max + 1):
            minima = evolved_minima(ev, *density_walsh(system, coarse, low), t)
            loop = [reference_min_cell(ev, row, t) for row in full]
            assert np.array_equal(bits(minima), bits(loop))


POSITIVITY_M6 = """
seed = 5

[system]
kind = baker
m = 6

[profile]
family = gumbel
a = 1.0

[experiment positivity]
t_values = 1 2 4
n_random = 10
sweep_a = 0.5 2.0
gate = false
"""


def test_sweep_transforms_are_coarse(monkeypatch):
    # every transform of the sweep is 2**t_max times shorter than the
    # full grid, or shorter, the canonical density's two cells included;
    # steep profiles underflow weights, and no -0.0 product may send an
    # evolved block back to the full grid
    config = parse_config(POSITIVITY_M6)
    kernel = timeop.cascade._fwht_in_place
    widths = []

    def counted(block):
        widths.append(block.shape[-1])
        return kernel(block)

    monkeypatch.setattr(timeop.cascade, "_fwht_in_place", counted)
    _run_positivity(_Context(config), config.experiments[0].params)
    assert max(widths) == 1 << (13 - 4)

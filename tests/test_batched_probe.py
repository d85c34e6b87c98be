"""The row-batched Walsh transform and positivity probe against the one-vector loop.

``_fwht_in_place`` transforms the last axis of a ``(rows, N)`` block in
a layout of its own; the textbook one-vector loop lives here only, as
the reference, and every output float must be bitwise the loop's.
Blocks of random densities, drawn here as reference inputs, are probed
in chunks of rows: each row must give the bits the one-density probe
gives and raise the error the one-density probe raises.  The positivity
sweep takes one transform per (density, t), holding a row per
steepness, within a small memory budget; its rows must be bitwise, and
its first error the one, of a loop of one-evolution steps per (a, t).
Densities come as ``(cells, low)`` blocks on the digits their
labels use; the one-density references read them spread over the full
grid.  Walsh coefficients come as ``(coeffs, labels)`` blocks on the
labels a cell block resolves and are stepped on those labels only; the
dim-wide pipeline, one ``(rows, dim)`` block from the cells to the
minima, lives here only, as the reference those blocks must match bit
for bit.
"""

import tracemalloc

import numpy as np
import pytest

import timeop.cascade
import timeop.markov
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
    SUPPORT_TOLERANCE,
    MarkovEvolution,
    density_walsh,
    evolved_minima,
    markov_step,
    positivity_probe,
    swept_minima,
)
from timeop.profiles import ProfileError, build_decay_operator, gumbel
from timeop.runner import _Context, _run_positivity, run_experiments

# rows per random block: with a partial block, both shapes are covered
CHUNK = 8


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


def random_densities(system, rng, rows, live):
    """Random nonnegative unit-mass densities on the ``live`` labels, as a ``(cells, low)`` block.

    Each row draws one normal coefficient per label of ``live``, every
    other label being zero, and is evaluated on those labels; a row
    dipping below zero is scaled so that its minimum is -1/2 before
    adding the equilibrium 1.
    """
    cells, low = walsh_to_cells(system, np.zeros(rows), rng.standard_normal((rows, live.size)),
                                labels=live)
    least = cells.min(axis=1)
    cells *= np.where(least < 0, 0.5 / np.maximum(1e-9, -least), 1.0)[:, None]
    cells += 1.0
    return cells, low


def dim_wide_walsh(system, cells, low):
    """Equilibrium and the ``(rows, dim)`` coefficient block of a ``(cells, low)`` pair."""
    width = cells.shape[1]
    coeffs = _fwht_in_place(np.array(cells, order="C"))
    coeffs /= width
    resolved = (system._masks & ~((width - 1) << low)) == 0
    fluct = np.zeros((cells.shape[0], system.dim))
    fluct[:, resolved] = coeffs[:, system._masks[resolved] >> low]
    return coeffs[:, 0].copy(), fluct


def w_log_weights(decay, t):
    """W_t's log weight per label, from U^t and the log decay diagonal; NaN off the t-margin."""
    w_t = decay.system.step([t]).conjugate(decay.log_diag, -decay.log_diag)
    out = np.full(decay.system.dim, np.nan)
    out[w_t.sources] = w_t.log_weights
    return out


def dim_wide_step(ev, fluct, t):
    """The t-step of a ``(rows, dim)`` block: margin check on every label, then the move."""
    system = ev.system
    inside = system.ages + t <= system.window.hi
    size = np.abs(fluct)
    far = size[:, ~inside] > SUPPORT_TOLERANCE * np.maximum(1.0, size.max(axis=1, keepdims=True))
    if far.any():
        row = int(np.nonzero(far.any(axis=1))[0][0])
        offending = np.nonzero(~inside)[0][far[row]]
        names = ", ".join(system.label_text(i) for i in offending[:8])
        raise MarginError(f"support leaves the window within {t} steps at labels: {names}")
    moved = fluct[:, inside] * np.exp(w_log_weights(ev.decay, t)[inside]) + 0.0
    return system.step_indices(t)[inside], moved


def dim_wide_minima(ev, cells, low, t):
    """Minima of evolved densities through ``(rows, dim)`` blocks from the cells to the cells."""
    equilibrium, fluct = dim_wide_walsh(ev.system, cells, low)
    targets, moved = dim_wide_step(ev, fluct, t)
    return walsh_to_cells(ev.system, equilibrium, moved, labels=targets)[0].min(axis=1)


def reference_min_cell(ev, cells, t):
    """The one-density probe on the loop: Walsh, step, cells, minimum."""
    system = ev.system
    coeffs = fwht_loop(cells) / cells.size
    fluct = coeffs[system._masks]
    alive = np.nonzero((system.ages + t <= system.window.hi) & (fluct != 0.0))[0]
    evolved = np.zeros(system.dim)
    evolved[system.step_indices(t)[alive]] = np.exp(w_log_weights(ev.decay, t)[alive]) * fluct[alive]
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
    live = np.nonzero(system.ages + t_max <= system.window.hi)[0]
    return system, live, np.random.default_rng(seed)


@pytest.mark.parametrize("m", [3, 4])
def test_chunk_rows_are_bitwise_the_one_density_probe(m):
    system, live, rng = probe_case(m)
    rows = 13  # a full chunk and a partial one
    chunks = [random_densities(system, rng, CHUNK, live),
              random_densities(system, rng, rows - CHUNK, live)]
    assert [low for _, low in chunks] == [0, 0]
    coarse = np.vstack([cells for cells, _ in chunks])
    n_cells = 1 << (2 * m + 1)
    assert coarse.shape == (rows, n_cells >> 2)  # t_max = 2 digits fewer
    block = tiled(coarse, n_cells)

    canonical = walsh_to_cells(system, [1.0], system.basis_vector(frozenset({0})).coeffs[None])
    assert canonical[0].shape == (1, 2) and canonical[1] == m
    zero = signed_zero_density(system)
    equilibrium, fluct, labels = density_walsh(system, zero[None], 0)
    assert np.array_equal(labels, np.arange(system.dim))
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
        system, live, rng = probe_case(m)
        block, low = random_densities(system, rng, CHUNK, live)
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


class TestDimWideReference:
    """The sweep's ``(coeffs, labels)`` blocks against the dim-wide pipeline, bit for bit."""

    @pytest.mark.parametrize("t_max", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_sweep_minima(self, m, t_max):
        system = build_baker_cascade(m)
        live = np.nonzero(system.ages + t_max <= system.window.hi)[0]
        assert np.array_equal(live, np.arange(live.size))  # age-major: a prefix
        rng = np.random.default_rng([m, t_max])
        for a in (0.3, 1.0, 3.0):
            ev = MarkovEvolution(build_decay_operator(gumbel(a), system), t_max)
            for t in range(t_max + 1):
                for rows in (CHUNK, 3):
                    pair = random_densities(system, rng, rows, live)
                    equilibrium, coeffs, labels = density_walsh(system, *pair)
                    assert coeffs.shape == (rows, labels.size) and labels.size < system.dim
                    minima = evolved_minima(ev, equilibrium, coeffs, labels, t)
                    want = dim_wide_minima(ev, *pair, t)
                    assert np.array_equal(bits(minima), bits(want))

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_canonical_pair_is_not_a_prefix(self, m):
        system = build_baker_cascade(m)
        pair = walsh_to_cells(system, [1.0], [[1.0]], labels=[system.index_of({0})])
        equilibrium, coeffs, labels = density_walsh(system, *pair)
        assert labels.tolist() == [system.index_of({0})]
        assert bits(coeffs[0, 0]) == bits(1.0)
        for a in (0.5, 2.0):
            ev = MarkovEvolution(build_decay_operator(gumbel(a), system), m)
            for t in range(m + 1):
                minima = evolved_minima(ev, equilibrium, coeffs, labels, t)
                assert np.array_equal(bits(minima), bits(dim_wide_minima(ev, *pair, t)))

    @pytest.mark.parametrize("m", [3, 6])
    def test_equilibrium_only_block_has_no_labels(self, m):
        system = build_baker_cascade(m)
        cells = np.ones((2, 1))
        equilibrium, coeffs, labels = density_walsh(system, cells, 0)
        assert coeffs.shape == (2, 0) and labels.size == 0
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 1)
        for t in (0, 1):
            minima = evolved_minima(ev, equilibrium, coeffs, labels, t)
            assert np.array_equal(bits(minima), bits(dim_wide_minima(ev, cells, 0, t)))

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_signed_zero_keeps_the_full_grid(self, m):
        system = build_baker_cascade(m)
        cells = signed_zero_density(system)[None]
        equilibrium, coeffs, labels = density_walsh(system, cells, 0)
        assert np.array_equal(labels, np.arange(system.dim))
        assert bits(coeffs[0, system.index_of({-m, 1 - m})]) == bits(-0.0)
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 2)
        for t in (0, 1, 2):
            minima = evolved_minima(ev, equilibrium, coeffs, labels, t)
            assert np.array_equal(bits(minima), bits(dim_wide_minima(ev, cells, 0, t)))

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_margin_error_names_the_same_labels(self, m):
        system = build_baker_cascade(m)
        rng = np.random.default_rng(m)
        fluct = np.zeros((3, system.dim))
        early = np.nonzero(system.ages <= 0)[0]
        fluct[:, early] = 1e-3 * rng.standard_normal((3, early.size))
        top = np.nonzero(system.ages == m)[0]
        fluct[1, top[[-1, 0, 5]]] = 0.3  # the first offending row, three labels of age m
        fluct[2, top[1]] = 0.3
        pair = walsh_to_cells(system, np.ones(3), fluct)
        _, coeffs, labels = density_walsh(system, *pair)
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 1)
        with pytest.raises(MarginError) as from_labels:
            evolved_minima(ev, np.ones(3), coeffs, labels, 1)
        with pytest.raises(MarginError) as from_dim:
            dim_wide_minima(ev, *pair, 1)
        assert str(from_labels.value) == str(from_dim.value)
        assert system.label_text(top[0]) in str(from_labels.value)
        # labels in another order name the same labels, in index order
        order = rng.permutation(labels.size)
        with pytest.raises(MarginError) as shuffled:
            evolved_minima(ev, np.ones(3), coeffs[:, order], labels[order], 1)
        assert str(shuffled.value) == str(from_dim.value)


@pytest.mark.parametrize("m", [3, 6])
def test_swept_blocks_are_the_dim_wide_minima_of_each_evolution(m, monkeypatch):
    # blocks of several rows under several decay operators, one of them
    # steep enough to underflow weights, against the dim-wide pipeline
    # of each one's evolution; the weights the sweep steps by are those
    # of W_t on the kept labels, bit for bit
    system, live, rng = probe_case(m)
    pairs = [random_densities(system, rng, rows, live) for rows in (CHUNK, 3)]
    decays = [build_decay_operator(gumbel(a), system) for a in (0.5, 2.0, 20.0)]
    weighed = []
    block_minima = timeop.markov._block_minima

    def recorded(system, equilibrium, coeffs, w_t):
        weighed.append((w_t.sources, w_t.log_weights))
        return block_minima(system, equilibrium, coeffs, w_t)

    monkeypatch.setattr(timeop.markov, "_block_minima", recorded)
    times = (0, 1, 2)
    swept = swept_minima(iter(decays), [density_walsh(system, *pair) for pair in pairs], times)
    evolutions = [MarkovEvolution(decay, 2) for decay in decays]
    for t, per_block in zip(times, swept):
        for pair, minima in zip(pairs, per_block):
            want = [dim_wide_minima(ev, *pair, t) for ev in evolutions]
            assert np.array_equal(bits(minima), bits(want))
    assert len(weighed) == len(times) * len(pairs)
    for t, (kept, log_ratios) in zip(np.repeat(times, len(pairs)), weighed):
        assert kept.size > 0
        want = [w_log_weights(ev.decay, t)[kept] for ev in evolutions]
        assert np.array_equal(bits(log_ratios), bits(want))
    with pytest.raises(ValueError, match="at least one decay operator"):
        swept_minima(iter(()), [density_walsh(system, *pairs[0])], (1,))


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
    # the canonical and extreme densities take one one-row transform each
    # per run, and then one transform each per t, holding one row per a.
    # The extreme density is one row on the 2**11 cells the live labels
    # resolve (t_max = 2), 16 KB; the peak, about 0.5 MiB, holds the one
    # decay operator alive at a time and no (t, label) weight table.
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
        _, details = _run_positivity(ctx, params)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    n_a, n_t = len(params["sweep_a"]), len(params["t_values"])
    assert len(details["sweep"]) == 2 * n_a * n_t
    densities, sweep = calls[:2], calls[2:]
    assert [shape[0] for shape in densities] == [1, 1]
    assert len(sweep) <= 2 * n_t
    assert all(shape[0] == n_a for shape in sweep)
    assert peak < 1.25 * 2**20


def loop_sweep(system, params):
    """The sweep's minima as a loop of one-evolution steps per (a, t), in record order."""
    t_max = max(params["t_values"])
    canonical = density_walsh(system, [[2.0, 0.0]], system.m)
    width = 1 << max(0, 2 * system.m + 1 - t_max)
    extreme = density_walsh(system, np.eye(1, width) * width, 0)
    minima = []
    for a in params["sweep_a"]:
        ev = MarkovEvolution(build_decay_operator(gumbel(a), system), t_max)
        for t in params["t_values"]:
            minima += [evolved_minima(ev, *canonical, t)[0], evolved_minima(ev, *extreme, t)[0]]
    return minima


def positivity_config(m, sweep_a):
    t_values = " ".join(str(t) for t in range(m + 1))
    return parse_config(f"[system]\nkind = baker\nm = {m}\n\n[profile]\nfamily = gumbel\n\n"
                        f"[experiment positivity]\nt_values = {t_values}\nsweep_a = {sweep_a}\n")


@pytest.mark.parametrize("m", range(1, 7))
def test_sweep_rows_are_bitwise_the_per_a_loop(m):
    # gumbel(0.01) and gumbel(0.3) keep lambda(-20) below 1 - 1e-6; under
    # gumbel(20) the weights of the age-0 labels underflow to +0.0 at
    # t >= 1, so that row's own span is narrower than the block's
    config = positivity_config(m, "0.01 0.3 1.0 2.5 20.0")
    ctx = _Context(config)
    params = config.experiments[0].params
    ev = MarkovEvolution(build_decay_operator(gumbel(20.0), ctx.system), 1)
    image = ctx.system.step_indices(1)[ctx.system.index_of({0})]
    assert bits(markov_step(ev, ctx.system.basis_vector({0}), 1).coeffs[image]) == bits(0.0)
    _, details = _run_positivity(ctx, params)
    got = [row["min_cell"] for row in details["sweep"]]
    assert np.array_equal(bits(got), bits(loop_sweep(ctx.system, params)))


def test_sweep_error_is_the_loop_error():
    # gumbel(300) weighs age 3 by exp(-e^900) = 0: the second a raises,
    # and the record carries what the loop raises there
    config = positivity_config(3, "1.0 300 2.0")
    (record,) = run_experiments(config).records
    with pytest.raises(ProfileError) as from_loop:
        loop_sweep(_Context(config).system, config.experiments[0].params)
    assert record["status"] == "error"
    assert record["error"] == f"ProfileError: {from_loop.value}"
    assert record["error"] == "ProfileError: decay value 0 at age 3 breaks injectivity"


def test_one_evolution_per_run(monkeypatch):
    # the lyapunov experiment builds the one MarkovEvolution of a run;
    # the positivity sweep reads its operators' log ratios directly
    built = []
    init = MarkovEvolution.__init__

    def counted(self, decay, max_t):
        built.append(max_t)
        init(self, decay, max_t)

    monkeypatch.setattr(MarkovEvolution, "__init__", counted)
    config = parse_config("[system]\nkind = baker\nm = 3\n\n[profile]\nfamily = gumbel\n\n"
                          "[experiment lyapunov]\nmax_t = 2\n\n"
                          "[experiment positivity]\nt_values = 1 2\nsweep_a = 0.5 1.0 2.0\n")
    bundle = run_experiments(config)
    assert [record["status"] for record in bundle.records] == ["pass", "recorded"]
    assert built == [2]

"""One cell indicator decides positivity, and its evolved minimum has a closed form.

The densities the live labels (age <= hi - t_max) resolve are the
functions on the 2**(2m+1-t_max) cells of their digits.  The sweep
evolves the indicator of one cell and compares its minimum with
1 - lambda(lo+t)/lambda(lo).  These tests check the pieces of that
argument on the code, rather than assume them: every cell's indicator
gives the same minimum, no random density on the grid goes lower, and
the minimum is the closed form across sizes and steepnesses.
"""

import dataclasses
import math

import numpy as np
import pytest

from timeop.cascade import build_baker_cascade
from timeop.config import ConfigError, parse_config
from timeop.markov import MarkovEvolution, density_walsh, evolved_minima
from timeop.profiles import build_decay_operator, gumbel
from timeop.runner import run_experiments

from test_batched_probe import bits

STEEPNESSES = (0.3, 0.8, 1.0, 2.5, 3.0)


def indicators(system, t_max):
    """The unit-mass indicator of every cell of the live-label grid, one per row."""
    width = 1 << (2 * system.m + 1 - t_max)
    return np.eye(width) * width


def closed_form(a, lo, t):
    """1 - lambda(lo+t)/lambda(lo) for gumbel(a): log lambda(s) = -exp(a s)."""
    return -math.expm1(math.exp(a * lo) - math.exp(a * (lo + t)))


@pytest.mark.parametrize("t_max", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_every_cell_indicator_gives_the_same_minimum(m, t_max):
    system = build_baker_cascade(m)
    block = density_walsh(system, indicators(system, t_max), 0)
    for a in (0.5, 1.0, 2.5):
        ev = MarkovEvolution(build_decay_operator(gumbel(a), system), t_max)
        for t in range(t_max + 1):
            minima = evolved_minima(ev, *block, t)
            assert np.array_equal(bits(minima), bits(np.full(minima.size, minima[0])))


@pytest.mark.parametrize("t_max", [1, 2, 4])
@pytest.mark.parametrize("m", [2, 4, 6])
def test_no_random_density_goes_below_the_extreme(m, t_max):
    system = build_baker_cascade(m)
    width = 1 << (2 * system.m + 1 - t_max)
    rng = np.random.default_rng([m, t_max])
    extreme = density_walsh(system, indicators(system, t_max)[:1], 0)
    # nonnegative cells with unit mean: exponentials, half of them sparse
    cells = rng.exponential(size=(64, width))
    cells[32:] *= rng.random((32, width)) < 0.1
    cells[32:, 0] += 1.0  # no row is all zero
    cells /= cells.mean(axis=1, keepdims=True)
    block = density_walsh(system, cells, 0)
    for a in (0.3, 1.0, 3.0):
        ev = MarkovEvolution(build_decay_operator(gumbel(a), system), t_max)
        for t in range(t_max + 1):
            least = evolved_minima(ev, *extreme, t)[0]
            # a sparse row can tie the indicator (both read 0 at t = 0),
            # up to the rounding of a transform of cells near 10
            assert least <= evolved_minima(ev, *block, t).min() + 1e-12


@pytest.mark.parametrize("m", range(1, 7))
def test_extreme_minimum_is_the_closed_form(m):
    system = build_baker_cascade(m)
    lo = system.window.lo
    for t_max in sorted({1, m}):
        extreme = density_walsh(system, indicators(system, t_max)[:1], 0)
        for a in STEEPNESSES:
            ev = MarkovEvolution(build_decay_operator(gumbel(a), system), t_max)
            for t in range(t_max + 1):
                least = evolved_minima(ev, *extreme, t)[0]
                assert abs(least - closed_form(a, lo, t)) <= 1e-12


@pytest.mark.parametrize("m", range(1, 7))
def test_sweep_rows_are_the_closed_form(m):
    t_values = " ".join(str(t) for t in range(m + 1))
    text = (f"[system]\nkind = baker\nm = {m}\n\n[profile]\nfamily = gumbel\n\n"
            f"[experiment positivity]\nt_values = {t_values}\n"
            f"sweep_a = {' '.join(map(str, STEEPNESSES))}\ngate = true\n")
    (record,) = run_experiments(parse_config(text)).records
    assert record["status"] == "pass"
    extreme = [e for e in record["details"]["sweep"] if e["density"] == "extreme"]
    assert len(extreme) == len(STEEPNESSES) * (m + 1)
    for entry in extreme:
        want = closed_form(entry["a"], -m, entry["t"])
        assert abs(entry["closed_form"] - want) <= 1e-15
        assert abs(entry["min_cell"] - want) <= 1e-12
        assert entry["witness"] == f"cell 0 of {1 << (m + 1)}"
    assert record["details"]["worst_min_cell"] == min(e["min_cell"] for e in extreme)


@pytest.mark.parametrize("t_max", [3, 5, 6])
def test_a_horizon_past_the_window_errors_on_the_canonical_row(t_max):
    # on baker m = 2 the label {0} leaves the window after 2 steps; past
    # t_max = 4 no label is live and the extreme density is one cell.
    # parse_config refuses the horizon, so the run gets it past the parser
    text = ("[system]\nkind = baker\nm = 2\n\n[profile]\nfamily = gumbel\n\n"
            "[experiment positivity]\nt_values = 1 {}\n")
    with pytest.raises(ConfigError) as refused:
        parse_config(text.format(t_max))
    assert refused.value.errors == ((9, "t_values must be at most m = 2: past it the "
                                         "density 1+chi({0}) leaves the window"),)
    config = parse_config(text.format(2))
    (request,) = config.experiments
    wide = dataclasses.replace(request, params={**request.params, "t_values": (1, t_max)})
    (record,) = run_experiments(dataclasses.replace(config, experiments=(wide,))).records
    assert record["status"] == "error"
    assert record["error"] == (
        f"MarginError: support leaves the window within {t_max} steps at labels: {{0}}")

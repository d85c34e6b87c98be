"""W_t's log weights have one route: U^t conjugated by the log decay diagonal.

The W_t that ``markov_step`` applies and the operator web's ``w`` are
both ``system.step([t]).conjugate(log_diag, -log_diag)``.  On a correct
system they equal the closed form log lambda(a + t) - log lambda(a) bit
for bit, on exactly the t-margin labels; on a system whose step map
lowers an age the ratio passes one, and the Markov gate rejects it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    WeightedShift,
    build_baker_cascade,
    build_shift_cascade,
)
from timeop.duals import build_operator_web
from timeop.hilbert import HVector
from timeop.markov import MarkovEvolution, markov_step
from timeop.profiles import DecayOperator, build_decay_operator, gumbel, logistic


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@st.composite
def decay_and_time(draw):
    if draw(st.booleans()):
        lo = draw(st.integers(-8, -1))
        system = build_shift_cascade(AgeWindow(lo, draw(st.integers(max(1, lo + 2), 6))))
    else:
        system = build_baker_cascade(draw(st.integers(1, 4)))
    # logistic fails the ratio condition, so only the operator takes it
    if draw(st.booleans()):
        decay = build_decay_operator(gumbel(draw(st.floats(0.005, 1.0))), system)
    else:
        decay = DecayOperator(system, logistic())
    t = draw(st.integers(0, system.window.hi - system.window.lo))
    return decay, t


def markov_route(decay, t):
    """The W_t that ``markov_step`` applies to a vector of the system, recorded off ``apply``."""
    applied = []
    honest = WeightedShift.apply

    def record(shift, block):
        applied.append(shift)
        return honest(shift, block)

    system = decay.system
    with mock.patch.object(WeightedShift, "apply", record):
        markov_step(MarkovEvolution(decay, t), HVector(np.zeros(system.dim), system.basis_id), t)
    (w_t,) = applied
    return w_t


@settings(max_examples=60, deadline=None)
@given(decay_and_time())
def test_markov_and_web_weights_are_the_closed_form_on_the_margin(case):
    decay, t = case
    system = decay.system
    margin = system.ages + t <= system.window.hi
    expected = decay.profile.log_value(system.ages[margin] + t) - decay.log_diag[margin]
    routes = {
        "markov": markov_route(decay, t),
        "web": build_operator_web(decay, t).evolutions["w"],
    }
    for route in routes.values():
        assert np.array_equal(route.sources, np.flatnonzero(margin))
        assert np.array_equal(bits(route.log_weights), bits(expected))


def test_a_step_that_lowers_an_age_fails_the_markov_gate():
    # the age-0 label steps onto age -1, where lambda is larger
    system = build_shift_cascade(AgeWindow(-4, 4))
    step = np.array(system._step)
    step[system.index_of(0)] = system.index_of(-1)
    bad = CascadeSystem(system.kind, system.window, step)
    decay = build_decay_operator(gumbel(1.0), bad)
    with pytest.raises(ValueError, match="decay ratios exceed one"):
        MarkovEvolution(decay, 2)

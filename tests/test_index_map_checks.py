"""The O(dim) verification routines against the dense matrix formulas.

``verify_covariance``, ``verify_imprimitivity`` and
``verify_covariant_transform``, and the time-axis forms of the first
and last, read the step index map instead of forming (U^t)' D U^t.
The dense formulas live here only, as the reference: the index-map
routines must return the very same float, on correct systems and on
systems with an injected defect, and every defect must show as a
nonzero deviation.  These routines and the operator web with its
verification must also allocate far less than one dense matrix.
"""

import tracemalloc

import numpy as np
import pytest

from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    build_baker_cascade,
    build_shift_cascade,
    covariance_deviations,
    verify_covariance,
    verify_imprimitivity,
)
from timeop.duals import _jordan_type_gap, build_operator_web, verify_web
from timeop.hilbert import HVector
from timeop.markov import MarkovEvolution, evolved_minima, lyapunov_traces, markov_step
from timeop.profiles import (
    build_decay_operator,
    covariant_transform_deviations,
    gumbel,
    verify_covariant_transform,
)

T_VALUES = (0, 1, 2, 3)


def dense_projector(system, delta):
    return np.diag(system.age_mask(delta).astype(float))


def dense_covariance(system, t):
    ut = np.linalg.matrix_power(system.U, t)
    time_op = np.diag(system.ages.astype(float))
    diff = ut.T @ time_op @ ut - (time_op + t * np.eye(system.dim))
    cols = system.ages + t <= system.window.hi
    return float(np.abs(diff[:, cols]).max()) if np.any(cols) else 0.0


def dense_imprimitivity(system, delta, t):
    ut = np.linalg.matrix_power(system.U, t)
    lhs = ut.T @ dense_projector(system, [n + t for n in delta]) @ ut
    return float(np.abs(lhs - dense_projector(system, delta)).max())


def dense_covariant_transform(op, t):
    # log weights; the squared side would be the doubled arrays, whose
    # deviation is exactly twice this one
    system = op.system
    ut = np.linalg.matrix_power(system.U, t)
    cols = system.ages + t <= system.window.hi
    if not np.any(cols):
        return 0.0
    diff = ut.T @ np.diag(op.log_diag) @ ut - np.diag(op.profile.log_value(system.ages + t))
    return float(np.abs(diff[:, cols]).max())


def systems():
    return [build_shift_cascade(AgeWindow(-4, 4)), build_baker_cascade(2)]


def with_step(system, step):
    """The same kind and window over a different (defective) step map."""
    return CascadeSystem(system.kind, system.window, step)


def deltas(system, t):
    """Every single age, and one two-age set, that the transport admits."""
    singles = [(n,) for n in range(system.window.lo, system.window.hi - t + 1)]
    return singles + [(system.window.lo, system.window.hi - t)]


def assert_matches_dense(system, t_values=T_VALUES):
    """Every routine returns the dense float; returns the covariance deviations."""
    op = build_decay_operator(gumbel(1.0), system)
    out = {}
    for t in t_values:
        out[t] = verify_covariance(system, t)
        assert out[t] == dense_covariance(system, t)
        for delta in deltas(system, t):
            assert verify_imprimitivity(system, delta, t) == dense_imprimitivity(system, delta, t)
        assert verify_covariant_transform(op, t) == dense_covariant_transform(op, t)
    # the time-axis forms, all times in one pass
    assert covariance_deviations(system, t_values).tolist() == [out[t] for t in t_values]
    assert (covariant_transform_deviations(op, t_values).tolist()
            == [dense_covariant_transform(op, t) for t in t_values])
    return out


@pytest.mark.parametrize("system", systems(), ids=lambda s: s.basis_id)
def test_correct_systems_match_dense_and_are_exact(system):
    covariance = assert_matches_dense(system)
    assert all(dev == 0.0 for dev in covariance.values())
    op = build_decay_operator(gumbel(1.0), system)
    for t in T_VALUES:
        assert verify_covariant_transform(op, t) == 0.0
        for delta in deltas(system, t):
            assert verify_imprimitivity(system, delta, t) == 0.0


@pytest.mark.parametrize("system", systems(), ids=lambda s: s.basis_id)
def test_off_by_one_step_map(system):
    # every image one position lower; (one higher would stay inside the
    # next age block of the baker order, a legitimate age-raising map)
    step = system._step
    bad = with_step(system, np.where(step > 0, step - 1, -1))
    covariance = assert_matches_dense(bad)
    assert covariance[1] > 0.0
    assert max(verify_imprimitivity(bad, delta, 1) for delta in deltas(bad, 1)) > 0.0
    assert verify_covariant_transform(build_decay_operator(gumbel(1.0), bad), 1) > 0.0


@pytest.mark.parametrize("system", systems(), ids=lambda s: s.basis_id)
def test_step_collision(system):
    # a label of age 0 steps onto the image of a label of age -1
    i = int(np.nonzero(system.ages == -1)[0][0])
    j = int(np.nonzero(system.ages == 0)[0][0])
    step = np.array(system._step)
    step[j] = step[i]
    bad = with_step(system, step)
    covariance = assert_matches_dense(bad)
    assert covariance[1] == 1.0
    assert verify_imprimitivity(bad, (0,), 1) == 1.0
    assert verify_covariant_transform(build_decay_operator(gumbel(1.0), bad), 1) > 0.0


def test_collision_alone_is_seen_through_the_off_diagonal_entry():
    # two labels of age 0 step onto one age-1 label: every diagonal entry
    # stays right, and only the shared image puts age 1 (or the
    # projector's 1.0, or log lambda(1)) off the diagonal
    system = build_baker_cascade(2)
    i, j = np.nonzero(system.ages == 0)[0][:2]
    step = np.array(system._step)
    step[j] = step[i]
    bad = with_step(system, step)
    assert verify_covariance(bad, 1) == 1.0 == dense_covariance(bad, 1)
    assert verify_imprimitivity(bad, (0,), 1) == 1.0 == dense_imprimitivity(bad, (0,), 1)
    op = build_decay_operator(gumbel(1.0), bad)
    expected = float(-op.log_diag[step[i]])
    assert verify_covariant_transform(op, 1) == expected == dense_covariant_transform(op, 1)


@pytest.mark.parametrize("system", systems(), ids=lambda s: s.basis_id)
def test_truncated_image_inside_the_margin(system):
    j = int(np.nonzero(system.ages == 1)[0][0])
    step = np.array(system._step)
    step[j] = -1
    bad = with_step(system, step)
    covariance = assert_matches_dense(bad)
    assert covariance[1] == 2.0  # the dense column value |age + t|
    assert verify_imprimitivity(bad, (1,), 1) == 1.0
    op = build_decay_operator(gumbel(1.0), bad)
    assert verify_covariant_transform(op, 1) == float(-op.profile.log_value(system.ages + 1)[j])
    # the Markov step reads a truncated image as U e_k = 0: nothing lands
    # on index -1, the top label, and no weight exp(NaN) is formed; no
    # later label's image covers index -1 for the last label of the margin
    last = int(np.nonzero(system.ages + 1 <= system.window.hi)[0][-1])
    for k in (j, last):
        step = np.array(system._step)
        step[k] = -1
        bad = with_step(system, step)
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), bad), 1)
        evolved = markov_step(ev, HVector(np.eye(bad.dim)[k], bad.basis_id), 1)
        assert not evolved.coeffs.any()
        (trace,) = lyapunov_traces(ev, np.eye(1, bad.dim, k))
        assert trace.norms == (1.0, 0.0)
        if bad.kind == "baker":
            # 1 + chi/2 on label k: the fluctuation vanishes, every cell reads 1
            minima = evolved_minima(ev, np.ones(1), np.full((1, 1), 0.5), np.array([k]), 1)
            assert minima.tolist() == [1.0]


@pytest.mark.parametrize("system", systems(), ids=lambda s: s.basis_id)
def test_perturbed_decay_entry(system):
    op = build_decay_operator(gumbel(1.0), system)
    log_diag = np.array(op.log_diag)
    log_diag[int(np.nonzero(system.ages == 1)[0][0])] *= 1.0 + 1e-9
    op.log_diag = log_diag
    for t in T_VALUES:
        assert verify_covariant_transform(op, t) == dense_covariant_transform(op, t)
    assert verify_covariant_transform(op, 1) > 0.0


def jordan_type_gap_loop(web):
    """The Jordan-type gap of the web's z, one dim-long mask of chain ends per power."""
    system = web.system
    safe = system.ages + web.t <= system.window.hi
    z = web.evolutions["z"]
    log_weights = np.full(system.dim, np.nan)
    log_weights[z.sources] = z.log_weights
    nxt = np.where(np.isfinite(log_weights), system.step_indices(web.t), -1)
    nxt = np.where((nxt >= 0) & safe[nxt], nxt, -1)
    ends = safe
    gap = 0
    for k in range(1, (system.window.hi - system.window.lo) // web.t + 2):
        images = nxt[ends]
        ends = np.zeros(system.dim, dtype=bool)
        ends[images[images >= 0]] = True
        expected = np.count_nonzero(system.ages + (k + 1) * web.t <= system.window.hi)
        gap = max(gap, abs(np.count_nonzero(ends) - expected))
    return float(gap)


def defective_steps(system):
    """The off-by-one, collision and truncated-image step maps of the tests above."""
    step = system._step
    i = int(np.nonzero(system.ages == -1)[0][0])
    j = int(np.nonzero(system.ages == 0)[0][0])
    collision = np.array(step)
    collision[j] = step[i]
    truncated = np.array(step)
    truncated[int(np.nonzero(system.ages == 1)[0][0])] = -1
    return {"off_by_one": np.where(step > 0, step - 1, -1), "collision": collision,
            "truncated": truncated}


@pytest.mark.parametrize("system", systems() + [build_baker_cascade(4)], ids=lambda s: s.basis_id)
def test_jordan_type_gap_is_the_mask_loop(system):
    gaps = {}
    for name, step in {"correct": system._step, **defective_steps(system)}.items():
        op = build_decay_operator(gumbel(1.0), with_step(system, step))
        for t in T_VALUES[1:]:
            web = build_operator_web(op, t)
            gaps[name, t] = _jordan_type_gap(web)
            assert gaps[name, t] == jordan_type_gap_loop(web)
    assert all(gaps["correct", t] == 0.0 for t in T_VALUES[1:])
    # the defects reach the ranks; on baker m = 2 the truncated image, of
    # age 1, lies past every compression
    assert any(gap > 0.0 for (name, _), gap in gaps.items() if name != "correct")


def test_routines_allocate_no_dense_matrix():
    system = build_baker_cascade(5)
    op = build_decay_operator(gumbel(1.0), system)
    op.diag  # noqa: B018 - cached before measuring
    dense_bytes = system.dim**2 * 8
    # a long shift at t = 1: z's Jordan type has about dim powers
    shallow = build_decay_operator(gumbel(0.005), build_shift_cascade(AgeWindow(-3, 2000)))
    calls = [
        lambda: verify_covariance(system, 1),
        lambda: verify_imprimitivity(system, (0,), 1),
        lambda: verify_covariant_transform(op, 1),
        lambda: build_operator_web(op, 1),
        lambda: verify_web(build_operator_web(op, 1)),
        lambda: verify_web(build_operator_web(shallow, 1)),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 20

"""Each record forms its U^t once, over all its times, and reads every per-t quantity from it.

The ``covariance``, ``lyapunov`` and ``theorem`` records join the U^t of
all their times into one :class:`~timeop.cascade.WeightedShift` and
conjugate it once per weighting.  Every time's slice of such a joined
value must be, bit for bit, U^t built straight from the step index map
on the same labels and conjugated the same way.  The per-t loops of the
three records live here as their references: each record must equal
its loop, on correct systems and on defective step maps.  The number of
``CascadeSystem.step`` and ``WeightedShift.conjugate`` calls a record
makes must not grow with its number of times.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    WeightedShift,
    age_transport_deviations,
    build_baker_cascade,
    build_shift_cascade,
    covariance_deviations,
    verify_covariance,
)
from timeop.config import parse_config
from timeop.duals import build_operator_web, build_operator_webs, verify_web, verify_webs
from timeop.markov import swept_minima
from timeop.profiles import (
    DecayOperator,
    build_decay_operator,
    covariant_transform_deviations,
    gumbel,
    verify_covariant_transform,
)
from timeop.runner import _interior_band, _run_covariance, _run_lyapunov, run_experiments


def systems():
    return [build_shift_cascade(AgeWindow(-3, 3)), build_shift_cascade(AgeWindow(-6, 6)),
            build_baker_cascade(1), build_baker_cascade(2), build_baker_cascade(3)]


ids = lambda s: s.basis_id  # noqa: E731


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def one_step(system, t, labels=None):
    """U^t on ``labels``, every t-margin label when None, from the step index map alone."""
    if labels is None:
        labels = np.flatnonzero(system.ages + t <= system.window.hi)
    return WeightedShift(labels, system.step_indices(t)[labels], np.zeros(labels.size))


def parts(joined):
    """Each time's slice of a joined value."""
    return [joined.take(slice(a, b)) for a, b in zip(joined.offsets, joined.offsets[1:])]


def assert_same(shift, reference):
    assert np.array_equal(shift.sources, reference.sources)
    assert np.array_equal(shift.targets, reference.targets)
    assert np.array_equal(bits(shift.log_weights), bits(reference.log_weights))


def off_by_one(system):
    step = system._step
    return CascadeSystem(system.kind, system.window, np.where(step > 0, step - 1, -1))


def decay_of(system, a=1.0):
    return build_decay_operator(gumbel(a), system)


# -- joined values, slice by slice ---------------------------------------------


@pytest.mark.parametrize("system", systems(), ids=ids)
def test_every_slice_of_a_joined_step_is_the_one_time_step(system):
    span = system.window.hi - system.window.lo
    times = [2, 0, *range(span + 2), 1]
    for shift, t in zip(parts(system.step(times)), times):
        assert_same(shift, one_step(system, t))
    labels = [np.flatnonzero(system.ages + span <= system.window.hi)[::2]] * len(times)
    for shift, t, own in zip(parts(system.step(times, labels)), times, labels):
        assert_same(shift, one_step(system, t, own))


@pytest.mark.parametrize("system", systems(), ids=ids)
def test_every_web_is_its_one_time_conjugations(system):
    decay = decay_of(system)
    log_diag = decay.log_diag
    log_riesz = log_diag + log_diag
    times = [t for t in (3, 1, 2, 1) if t <= system.window.hi - system.window.lo]
    for web, t in zip(build_operator_webs(decay, times), times):
        u = one_step(system, t)
        w = u.conjugate(log_diag, -log_diag)
        references = {"u_ext": u, "w": w, "v": u.conjugate(-log_diag, log_diag),
                      "x": w.conjugate(-log_riesz, log_riesz), "y": w,
                      "z": u.conjugate(log_riesz, -log_riesz)}
        assert web.t == t
        for name, reference in references.items():
            assert_same(web.evolutions[name], reference)


@pytest.mark.parametrize("system", systems(), ids=ids)
def test_every_slice_of_the_dual_transport_is_the_one_time_step(system, monkeypatch):
    decay = decay_of(system)
    log_diag = decay.log_diag
    steps = []
    honest = CascadeSystem.step

    def recorded(system, times, labels=None):
        steps.append((list(times), labels))
        return honest(system, times, labels)

    times = [t for t in (1, 2, 3) if t <= system.window.hi - system.window.lo]
    webs = build_operator_webs(decay, times)
    monkeypatch.setattr(CascadeSystem, "step", recorded)
    verify_webs(webs)
    ((dual_times, dual_labels),) = steps
    dual = honest(system, dual_times, dual_labels).conjugate(log_diag, log_diag)
    for shift, t, band in zip(parts(dual), dual_times, dual_labels):
        assert_same(shift, one_step(system, t, band).conjugate(log_diag, log_diag))


# -- each record against its per-t loop ----------------------------------------


def covariance_loop(system, decay, times):
    """The covariance record's three deviations, one time at a time; no transport at t = 0."""
    worst_t = worst_transport = worst_weighted = 0.0
    for t in times:
        worst_t = max(worst_t, verify_covariance(system, t))
        worst_weighted = max(worst_weighted, verify_covariant_transform(decay, t))
        if t >= 1:
            worst_transport = max(worst_transport, age_transport_deviations(system, [t])[0])
    return worst_t, worst_transport, worst_weighted


@pytest.mark.parametrize("system", systems(), ids=ids)
@pytest.mark.parametrize("defect", [None, off_by_one])
def test_covariance_record_is_its_time_loop(system, defect):
    if defect:
        system = defect(system)
    decay = DecayOperator(system, gumbel(1.0))
    times = (3, 0, 1, 2, 1)
    joined = [covariance_deviations(system, times), age_transport_deviations(system, times),
              covariant_transform_deviations(decay, times)]
    loop = [[verify_covariance(system, t) for t in times],
            [age_transport_deviations(system, [t])[0] for t in times],
            [verify_covariant_transform(decay, t) for t in times]]
    for deviations, reference in zip(joined, loop):
        assert np.array_equal(bits(deviations), bits(reference))
    _, details = _run_covariance(SimpleNamespace(system=system, decay=decay), {"t_values": times})
    record = [details[f"{name}_deviation"] for name in ("time_covariance", "projector_transport",
                                                          "weighted_covariance")]
    assert np.array_equal(bits(record), bits(covariance_loop(system, decay, times)))


def lyapunov_loop(decay, max_t):
    """The lyapunov record's ratio and stray verdicts, one U^t per t on the band."""
    system = decay.system
    labels = np.nonzero(_interior_band(system, max_t))[0]
    log_diag, ages = decay.log_diag, system.ages
    steps = [one_step(system, t, labels) for t in range(max_t + 1)]
    ratios = np.array([u.conjugate(log_diag, -log_diag).log_weights for u in steps])
    strays = np.array([u.conjugate(ages, -ages).log_weights != t for t, u in enumerate(steps)])
    offending = labels[(~(ratios[1:] <= ratios[:-1])).any(axis=0) | strays.any(axis=0)]
    worst = int(np.argmax(ratios[-1]))
    return {"monotone": not offending.size,
            "offending_label": system.label_text(offending[0]) if offending.size else None,
            "worst_final_ratio": float(np.exp(ratios[-1, worst])),
            "worst_label": system.label_text(labels[worst])}


@pytest.mark.parametrize("system", systems(), ids=ids)
@pytest.mark.parametrize("defect", [None, off_by_one])
def test_lyapunov_record_is_its_time_loop(system, defect):
    if defect:
        system = defect(system)
    decay = DecayOperator(system, gumbel(1.0))
    ctx = SimpleNamespace(system=system, decay=decay)
    verdicts = []
    for max_t in range(1, (system.window.hi - system.window.lo) // 2 + 1):
        _, details = _run_lyapunov(ctx, {"max_t": max_t})
        loop = lyapunov_loop(decay, max_t)
        assert {key: details[key] for key in loop} == loop
        assert bits(details["worst_final_ratio"]) == bits(loop["worst_final_ratio"])
        verdicts.append(details["monotone"])
    # the defect shows at every horizon
    assert verdicts == [defect is None] * len(verdicts)


# on a defective map z's weights leave the closed form by more than the
# float range, and the conjugacy deviation overflows to inf without a warning
@pytest.mark.parametrize("system", systems(), ids=ids)
@pytest.mark.parametrize("defect", [None, off_by_one])
def test_theorem_record_is_its_time_loop(system, defect):
    if defect:
        system = defect(system)
    decay = DecayOperator(system, gumbel(1.0))
    times = [t for t in (3, 1, 2, 1) if t <= system.window.hi - system.window.lo]
    joined = verify_webs(build_operator_webs(decay, times))
    loop = [verify_web(build_operator_web(decay, t)) for t in times]
    assert json.dumps(joined) == json.dumps(loop)


def test_webs_of_two_decay_operators_are_refused():
    system = build_shift_cascade(AgeWindow(-3, 3))
    webs = [build_operator_web(decay_of(system, a), 1) for a in (1.0, 2.0)]
    with pytest.raises(ValueError, match="share one decay operator"):
        verify_webs(webs)
    assert verify_webs([]) == [] and build_operator_webs(decay_of(system), []) == []


# -- call counts ----------------------------------------------------------------


def record_calls(monkeypatch, system_text, experiment):
    """The ``step`` and ``conjugate`` calls one record makes, by method."""
    calls = {"step": 0, "conjugate": 0}
    for cls, name in ((CascadeSystem, "step"), (WeightedShift, "conjugate")):
        def counted(*args, _honest=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _honest(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    config = parse_config(f"{system_text}\n[profile]\nfamily = gumbel\n\n{experiment}\n")
    (record,) = run_experiments(config).records
    monkeypatch.undo()
    assert record["status"] == "pass", record
    return calls


@pytest.mark.parametrize("system_text", [
    "[system]\nkind = shift\nlo = -6\nhi = 6\n",
    "[system]\nkind = baker\nm = 6\n",
], ids=["shift", "baker"])
@pytest.mark.parametrize("few, many", [
    ("[experiment lyapunov]\nmax_t = 1", "[experiment lyapunov]\nmax_t = 6"),
    ("[experiment theorem]\nt_values = 1", "[experiment theorem]\nt_values = 1 2 3"),
    ("[experiment covariance]\nt_values = 1", "[experiment covariance]\nt_values = 1 2 3"),
], ids=["lyapunov", "theorem", "covariance"])
def test_calls_do_not_grow_with_the_times(monkeypatch, system_text, few, many):
    assert (record_calls(monkeypatch, system_text, few)
            == record_calls(monkeypatch, system_text, many))


# -- the sweep with no block ----------------------------------------------------


def test_sweep_of_no_block_checks_every_decay_and_returns_an_empty_list_per_t():
    system = build_baker_cascade(2)
    assert swept_minima([decay_of(system, 0.5), decay_of(system)], [], [1, 2]) == [[], []]
    assert swept_minima([decay_of(system)], [], []) == []
    raised = DecayOperator(system, gumbel(1.0))
    raised.log_diag = np.where(system.ages == 1, 0.5, raised.log_diag)
    with pytest.raises(ValueError, match="decay ratios exceed one"):
        swept_minima([decay_of(system), raised], [], [1, 2])
    with pytest.raises(ValueError, match="at least one decay operator"):
        swept_minima([], [], [1])

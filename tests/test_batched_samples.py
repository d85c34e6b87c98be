"""The batched and per-label routines against their one-at-a-time loops.

``lyapunov_traces`` decides all times of its rows in one pass; ``build_tower``,
``isometry_check`` and the ``lyapunov`` experiment decide their verdicts
per basis label; ``classify_spectrum`` forms its spectrum values once;
the covariance experiment checks every single-age projector transport
in one pass.  The loops live here only, as the references: every float
must be bitwise the loop's, every error the loop's first error, defects
must still show, and at baker m = 6 the experiments must stay within a
small memory budget.  A random-pair isometry, formed from the
materialized d_k, is a second reference: it agrees with the per-label
check within 1e-10 where no d_k underflows, and reads more than the
per-label 0.0 where one does.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from test_batched_probe import w_log_weights
from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    MarginError,
    WeightedShift,
    age_transport_deviations,
    build_baker_cascade,
    build_shift_cascade,
    verify_imprimitivity,
)
from timeop.config import parse_config
from timeop.hilbert import HVector
from timeop.markov import MarkovEvolution, lyapunov_trace, lyapunov_traces, markov_step
from timeop.profiles import DecayOperator, build_decay_operator, gumbel, profile_from_table
from timeop.rigging import (
    _tower_grades,
    build_tower,
    classify_spectrum,
    geometric_spectrum,
    isometry_check,
    kothe_nuclearity,
    power_spectrum,
)
from timeop.runner import _Context, _interior_band, _run_lyapunov, _run_tower, run_experiments

T_VALUES = (0, 1, 2, 3)


def bits(values):
    """Float bit patterns, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


# -- the one-sample loops -------------------------------------------------


def norm_loop(coeffs):
    n = float(np.linalg.norm(coeffs))
    if n < 1e-140:
        scale = float(np.abs(coeffs).max(initial=0.0))
        if scale > 0.0:
            n = scale * float(np.linalg.norm(coeffs / scale))
    return n


def weighted_inner_loop(uc, vc, lw):
    active = (uc != 0) & (vc != 0)
    if not np.any(active):
        return 0.0
    if not np.any(lw[active]):
        return float(np.dot(uc[active], vc[active]))
    logs = np.log(np.abs(uc[active])) + np.log(np.abs(vc[active])) + lw[active]
    signs = np.sign(uc[active]) * np.sign(vc[active])
    peak = float(logs.max())
    assert np.isfinite(np.exp(peak))
    return float(np.exp(peak) * np.sum(signs * np.exp(logs - peak)))


def isometry_loop(j, samples, seed):
    log_diag = np.asarray(j.log_diag, dtype=float)
    diag = np.exp(log_diag)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        sigma = rng.standard_normal(log_diag.size)
        rho = rng.standard_normal(log_diag.size)
        lhs = weighted_inner_loop(diag * sigma, diag * rho, -2.0 * log_diag)
        rhs = float(np.dot(sigma, rho))
        scale = norm_loop(sigma) * norm_loop(rho)
        if scale == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def isometry_basis_loop(j):
    """The grade-1 pairing of (d_k e_k, d_k e_k) against 1, one label at a time.

    The Gram weight lambda(age_k)^-2 is read from the profile one scalar
    age at a time, and the pairing is kept in the log domain.
    """
    worst = 0.0
    for k in range(j.log_diag.size):
        log_lam = j.profile.log_value(int(j.system.ages[k]))
        worst = max(worst, abs(float(np.expm1(2.0 * (float(j.log_diag[k]) - log_lam)))))
    return worst


def tower_loop(j, grades):
    """The per-label verdict: None, or the error of a basis norm that drops between grades.

    The grade-n norm of each basis vector e_k, exp(-n log d_k), is
    compared in the log domain grade after grade, from the ambient
    norm 1 of grade 0.
    """
    previous = [0.0] * j.log_diag.size
    for grade in grades:
        current = [-float(grade) * float(d) for d in j.log_diag]
        if any(c < p for c, p in zip(current, previous)):
            return ValueError, "tower monotonicity needs diagonal entries <= 1"
        previous = current
    return None


def tower_verdict(j, tower_type, cutoff):
    try:
        build_tower(j, tower_type, cutoff)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def trace_loop(ev, coeffs, horizon, agreement_tol=1e-10):
    """(norms, forms) of one row, stepped one vector at a time.

    A subnormal norm is exact only to its own spacing, so the routes
    must agree within ``agreement_tol`` or that spacing over the norm,
    the larger.
    """
    rho = HVector(coeffs, ev.system.basis_id)
    norms, forms = [], []
    for t in range(horizon + 1):
        norm_direct = norm_loop(markov_step(ev, rho, t).coeffs)
        log_ratio = w_log_weights(ev.decay, t)
        alive = (rho.coeffs != 0.0) & ~np.isnan(log_ratio)
        with np.errstate(under="ignore"):
            form = float(np.sum(np.exp(2.0 * log_ratio[alive]) * rho.coeffs[alive] ** 2))
        if norm_direct > 0.0:
            root = float(np.sqrt(form))
            if min(norm_direct, root) >= 1e-140:
                rel_gap = abs(root - norm_direct) / norm_direct
            else:
                logs = 2.0 * log_ratio[alive] + 2.0 * np.log(np.abs(rho.coeffs[alive]))
                peak = logs.max()
                log_form = 0.5 * (peak + np.log(np.sum(np.exp(logs - peak))))
                rel_gap = abs(log_form - np.log(norm_direct))
            if rel_gap > max(agreement_tol, np.spacing(norm_direct) / norm_direct):
                raise AssertionError(
                    f"norm routes disagree at t={t}: direct {norm_direct!r} vs form {root!r} "
                    f"(relative gap {rel_gap:.3g})"
                )
        norms.append(norm_direct)
        forms.append(form)
    return norms, forms


def corrupt_route(monkeypatch, system, marker, t_fault):
    """Scale by 1 + 1e-6 what W_t moves at ``t_fault``, in the rows whose label 0 holds ``marker``.

    ``lyapunov_traces`` applies the W_t of every t as one joined value,
    read off the evolution, and ``markov_step``, and so ``trace_loop``,
    one W_t at a time; each ``apply`` is off on the entries that move
    ``t_fault`` ages up, which on a correct system are W_{t_fault}'s.
    Faults installed one after another all apply.
    """
    apply = WeightedShift.apply

    def faulty_apply(shift, block):
        targets, moved = apply(shift, block)
        sources = shift.sources[shift.targets >= 0]
        at = system.ages[targets] - system.ages[sources] == t_fault
        moved[np.ix_(block[:, 0] == marker, at)] *= 1.0 + 1e-6
        return targets, moved

    monkeypatch.setattr(WeightedShift, "apply", faulty_apply)


# -- systems ----------------------------------------------------------------


def decays():
    """Shift windows, the widest with underflowing lambda, and baker m = 3."""
    return [
        build_decay_operator(gumbel(1.0), build_shift_cascade(AgeWindow(-4, 4))),
        build_decay_operator(gumbel(1.0), build_shift_cascade(AgeWindow(-10, 10))),
        build_decay_operator(gumbel(0.7), build_shift_cascade(AgeWindow(-3, 12))),
        build_decay_operator(gumbel(1.0), build_baker_cascade(3)),
    ]


def table_operator(lo, log_diag):
    """A decay operator on shift [lo, lo + len - 1] whose table holds exp(log_diag).

    Built directly: a window-confined table is not admissible.
    """
    values = np.exp(np.asarray(log_diag, dtype=float))
    table = profile_from_table((lo + k, v) for k, v in enumerate(values))
    return DecayOperator(build_shift_cascade(AgeWindow(lo, lo + values.size - 1)), table)


def subnormal_operator():
    # exp(-744) is subnormal, so J sigma underflows to 0.0 at label 3 for
    # some samples and not others: the active labels of the grade-1
    # pairing differ from row to row
    log_diag = -np.linspace(0.0, 9.0, 12)
    log_diag[3] = -744.0
    return table_operator(-5, log_diag)


def off_profile(op, seed):
    """The operator with every log weight moved off its profile value by up to 1/8."""
    rng = np.random.default_rng(seed)
    log_diag = op.log_diag - rng.uniform(0.0, 0.125, op.log_diag.size)
    log_diag.setflags(write=False)
    moved = DecayOperator(op.system, op.profile)
    moved.log_diag = log_diag
    return moved


ids = lambda op: op.system.basis_id  # noqa: E731


def underflows(j):
    with np.errstate(under="ignore"):
        return bool(np.any(np.exp(j.log_diag) == 0.0))


class TestIsometry:
    @pytest.mark.parametrize("op", decays(), ids=ids)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_bitwise_the_loop(self, op, seed):
        deviation = isometry_check(op)
        assert bits(deviation) == bits(isometry_basis_loop(op)) == bits(0.0)
        # the random pairs agree where no d_k underflows; where one does,
        # they lose its label, and the per-label check reads 0.0
        pairs = isometry_loop(op, 50, seed)
        if underflows(op):
            assert pairs > deviation
        else:
            assert abs(deviation - pairs) <= 1e-10

    @pytest.mark.parametrize("op", decays(), ids=ids)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_off_profile_weights_are_the_loop(self, op, seed):
        moved = off_profile(op, seed)
        deviation = isometry_check(moved)
        assert bits(deviation) == bits(isometry_basis_loop(moved))
        assert 1e-10 < deviation <= -math.expm1(-0.25)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_active_labels_differ_by_row(self, seed):
        # the random pairs lose the subnormal label in some rows and not
        # in others; the per-label check, on the table's own weights,
        # reads none of that rounding
        j = subnormal_operator()
        rng = np.random.default_rng(seed)
        pairs = rng.standard_normal((40, 2, j.log_diag.size))
        underflow = np.exp(j.log_diag[3]) * pairs[:, :, 3] == 0.0
        assert underflow.any() and not underflow.all()
        deviation = isometry_check(j)
        assert bits(deviation) == bits(isometry_basis_loop(j)) == bits(0.0)
        assert isometry_loop(j, 40, seed) > 1e-10

    def test_plain_rows_pair_by_the_dot_product(self):
        # log weights zero on every label: the loop's plain dot product
        j = table_operator(-4, np.zeros(9))
        assert bits(isometry_check(j)) == bits(isometry_basis_loop(j)) == bits(0.0)
        assert isometry_loop(j, 30, 2) == 0.0


def tower_record(bounds, tower_type, cutoff):
    text = (f"[system]\nkind = shift\nlo = {bounds[0]}\nhi = {bounds[1]}\n\n"
            f"[profile]\nfamily = gumbel\na = 1.0\n\n"
            f"[experiment tower]\ntower_type = {tower_type}\ncutoff = {cutoff}\n")
    (record,) = run_experiments(parse_config(text)).records
    return record


class TestTower:
    @pytest.mark.parametrize("op", decays(), ids=ids)
    @pytest.mark.parametrize("tower_type,cutoff", [("A", 1), ("B", 4), ("C", 2), ("C", 3)])
    def test_verdict_is_the_loop(self, op, tower_type, cutoff):
        grades = _tower_grades(tower_type, cutoff)
        assert tower_verdict(op, tower_type, cutoff) == tower_loop(op, grades) is None

    def test_raised_weight_verdict_is_the_loop(self):
        op = DecayOperator(build_shift_cascade(AgeWindow(-4, 4)), gumbel(1.0))
        op.log_diag = np.where(op.system.ages == 4, 0.5, op.log_diag)
        for tower_type, cutoff in (("A", 1), ("B", 4), ("C", 3)):
            verdict = tower_verdict(op, tower_type, cutoff)
            assert verdict == tower_loop(op, _tower_grades(tower_type, cutoff))
            assert verdict == (ValueError, "tower monotonicity needs diagonal entries <= 1")

    def test_shift_wide_grade_one_error(self):
        # grade 1 weights on shift [-10, 10] reach past any float range, yet
        # the tower forms none of them: grade 1 and every later grade pass
        op = build_decay_operator(gumbel(1.0), build_shift_cascade(AgeWindow(-10, 10)))
        assert tower_verdict(op, "C", 3) == tower_loop(op, _tower_grades("C", 3)) is None
        assert build_tower(op, "C", 3)["isometry_deviation"] == 0.0

    def test_first_domain_error_in_grade_order(self):
        # the weight exp(-932.4) at age 2 puts every grade from 4/5 on past
        # any float range; no grade is formed, so each cutoff passes as in
        # the loop, and the isometry reads the label off its profile value
        op = DecayOperator(build_shift_cascade(AgeWindow(-4, 4)), gumbel(1.0))
        op.log_diag = np.where(op.system.ages == 2, -932.4, op.log_diag)
        for cutoff in (3, 4, 6):
            grades = _tower_grades("B", cutoff)
            assert tower_verdict(op, "B", cutoff) == tower_loop(op, grades) is None
        assert build_tower(op, "B", 6)["isometry_deviation"] == isometry_basis_loop(op) == 1.0

    def test_every_grade_on_wide_shift_windows(self):
        # lambda underflows at the top ages and the grade weights pass any
        # float range, yet the tower forms none of them: every grade passes
        for bounds in ((-8, 8), (-10, 10)):
            for tower_type in "ABC":
                record = tower_record(bounds, tower_type, 3)
                assert record["status"] == "pass", (bounds, tower_type, record)
                assert record["details"]["isometry_deviation"] == 0.0
        # lambda(7) = exp(-exp(7)) is 0.0 as a float, with grade 1/2 inside the float range
        record = tower_record((-9, 7), "B", 1)
        assert record["status"] == "pass"
        assert record["details"]["isometry_deviation"] == 0.0


def sample_block(system, horizon, rng, rows=12):
    """Random rows inside the margin, plus rows whose zero patterns differ."""
    inside = system.ages <= system.window.hi - horizon
    block = np.where(inside, rng.standard_normal((rows, system.dim)), 0.0)
    block[1, inside.nonzero()[0][::2]] = 0.0  # another zero pattern
    block[2] = 0.0  # nothing to evolve
    block[3] *= 1e-160  # below the underflow point: the log-domain route
    block[4, inside.nonzero()[0][-1]] = -0.0
    return block


class TestLyapunovTraces:
    @pytest.mark.parametrize("op", decays(), ids=ids)
    def test_norms_and_forms_are_the_loop(self, op):
        system = op.system
        horizon = 3
        ev = MarkovEvolution(op, horizon)
        block = sample_block(system, horizon, np.random.default_rng(8))
        traces = lyapunov_traces(ev, block)
        assert len(traces) == block.shape[0]
        for row, trace in zip(block, traces):
            norms, forms = trace_loop(ev, row, horizon)
            assert np.array_equal(bits(trace.norms), bits(norms))
            assert np.array_equal(bits(trace.forms), bits(forms))
            assert trace.t_values == tuple(T_VALUES)
            assert trace.monotone == all(b <= a for a, b in zip(norms, norms[1:]))
            assert bits(trace.ratio_to_zero) == bits(norms[-1] / norms[0] if norms[0] > 0 else 0.0)
            one = lyapunov_trace(ev, HVector(row, system.basis_id))
            assert one == trace

    def test_subnormal_norms_are_the_loop(self):
        # the band of max_t = 18 on shift [-10, 35] under gumbel(0.3): at
        # t = 14 its indicator's norm is 3.46e-315, exact only to its spacing
        system = build_shift_cascade(AgeWindow(-10, 35))
        ev = MarkovEvolution(build_decay_operator(gumbel(0.3), system), 14)
        block = sample_block(system, 14, np.random.default_rng(3), rows=6)
        block[5] = ((system.ages >= 8) & (system.ages <= 17)).astype(float)
        traces = lyapunov_traces(ev, block)
        assert 0.0 < traces[5].norms[14] < np.finfo(float).tiny
        for row, trace in zip(block, traces):
            norms, forms = trace_loop(ev, row, 14)
            assert np.array_equal(bits(trace.norms), bits(norms))
            assert np.array_equal(bits(trace.forms), bits(forms))

    def test_route_disagreement_of_one_corrupted_row(self, monkeypatch):
        system = build_shift_cascade(AgeWindow(-6, 6))
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 3)
        block = sample_block(system, 3, np.random.default_rng(2), rows=9)
        block[6, 0] = 0.125  # the marker of the corrupted row
        corrupt_route(monkeypatch, system, 0.125, 2)
        with pytest.raises(AssertionError, match="t=2") as batched:
            lyapunov_traces(ev, block)
        with pytest.raises(AssertionError) as one:
            lyapunov_trace(ev, HVector(block[6], system.basis_id))
        with pytest.raises(AssertionError) as loop:
            trace_loop(ev, block[6], 3)
        assert str(batched.value) == str(one.value) == str(loop.value)
        for row in np.delete(block, 6, axis=0):
            trace_loop(ev, row, 3)  # the other rows pass

    def test_baker_experiment_rows_are_the_loop(self):
        # the canonical row and band indicator of the lyapunov experiment,
        # and a random row, on baker m = 4
        system = build_baker_cascade(4)
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 3)
        labels = np.nonzero(_interior_band(system, 3))[0]
        block = np.zeros((3, system.dim))
        block[0, labels[-1]] = 1.0
        block[1, labels] = 1.0
        block[2] = sample_block(system, 3, np.random.default_rng(9), rows=5)[0]
        for row, trace in zip(block, lyapunov_traces(ev, block)):
            norms, forms = trace_loop(ev, row, 3)
            assert np.array_equal(bits(trace.norms), bits(norms))
            assert np.array_equal(bits(trace.forms), bits(forms))

    def test_first_route_fault_in_time_then_in_row_order(self, monkeypatch):
        # row 1 is off at t = 2; rows 4 and 7, later in the block, at t = 0
        system = build_shift_cascade(AgeWindow(-6, 6))
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 3)
        block = sample_block(system, 3, np.random.default_rng(5), rows=8)
        block[1, 0] = 0.25
        block[[4, 7], 0] = 0.125
        corrupt_route(monkeypatch, system, 0.25, 2)
        corrupt_route(monkeypatch, system, 0.125, 0)
        with pytest.raises(AssertionError, match="t=0") as batched:
            lyapunov_traces(ev, block)
        with pytest.raises(AssertionError) as loop:
            trace_loop(ev, block[4], 3)
        assert str(batched.value) == str(loop.value)
        with pytest.raises(AssertionError, match="t=2") as batched:
            lyapunov_traces(ev, np.delete(block, [4, 7], axis=0))
        with pytest.raises(AssertionError) as loop:
            trace_loop(ev, block[1], 3)
        assert str(batched.value) == str(loop.value)

    @pytest.mark.parametrize("system", [build_shift_cascade(AgeWindow(-6, 6)),
                                        build_baker_cascade(3)],
                             ids=lambda s: s.basis_id)
    def test_margin_error_comes_before_a_route_fault_at_its_t(self, system, monkeypatch):
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 3)
        block = sample_block(system, 3, np.random.default_rng(6), rows=6)
        block[0, 0] = 0.125  # off at t = 2, in the first row
        k = int(np.nonzero(system.ages == system.window.hi - 1)[0][0])
        block[4, k] = 0.5  # leaves the window at t = 2
        corrupt_route(monkeypatch, system, 0.125, 2)
        with pytest.raises(MarginError) as batched:
            lyapunov_traces(ev, block)
        with pytest.raises(MarginError) as loop:
            trace_loop(ev, block[4], 3)
        assert str(batched.value) == str(loop.value)
        assert str(batched.value).endswith(f"within 2 steps at labels: {system.label_text(k)}")
        # a route fault one step earlier comes first
        corrupt_route(monkeypatch, system, 0.125, 1)
        with pytest.raises(AssertionError, match="t=1") as batched:
            lyapunov_traces(ev, block)
        with pytest.raises(AssertionError) as loop:
            trace_loop(ev, block[0], 3)
        assert str(batched.value) == str(loop.value)

    def test_margin_error_names_the_first_offending_row(self):
        system = build_shift_cascade(AgeWindow(-6, 6))
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), system), 3)
        block = sample_block(system, 3, np.random.default_rng(4), rows=6)
        block[5, system.index_of(5)] = 0.5  # leaves the window at t = 2
        with pytest.raises(Exception) as batched:
            lyapunov_traces(ev, block)
        with pytest.raises(Exception) as one:
            lyapunov_trace(ev, HVector(block[5], system.basis_id))
        assert type(batched.value) is type(one.value)
        assert str(batched.value) == str(one.value)
        assert "within 2 steps at labels: 5" in str(one.value)

    @pytest.mark.parametrize("bounds,n_random", [((-10, 10), 20), ((-4, 4), 7)])
    def test_experiment_is_the_sample_loop(self, bounds, n_random):
        # n_random is accepted and ignored: the reference is one trace per
        # band label, its basis vector, plus the canonical one
        config = parse_config(f"""
seed = 3

[system]
kind = shift
lo = {bounds[0]}
hi = {bounds[1]}

[profile]
family = gumbel
a = 1.0

[experiment lyapunov]
max_t = 3
n_random = {n_random}
""")
        ctx = _Context(config)
        _, details = _run_lyapunov(ctx, config.experiments[0].params)
        band = _interior_band(ctx.system, 3)
        ev = MarkovEvolution(ctx.decay, 3)
        canonical = np.zeros(ctx.system.dim)
        canonical[int(np.nonzero(band)[0][np.argmax(ctx.system.ages[band])])] = 1.0
        norms, forms = trace_loop(ev, canonical, 3)
        monotone, worst, worst_label = True, 0.0, None
        for k in np.nonzero(band)[0]:
            trace = lyapunov_trace(ev, ctx.system.basis_vector(int(ctx.system.ages[k])))
            monotone = monotone and trace.monotone
            if trace.ratio_to_zero > worst:
                worst, worst_label = trace.ratio_to_zero, ctx.system.label_text(k)
        assert np.array_equal(bits(details["trace_norm"]), bits(norms))
        assert np.array_equal(bits(details["trace_form"]), bits(forms))
        assert details["monotone"] == monotone
        assert details["offending_label"] is None
        assert details["worst_label"] == worst_label
        assert abs(details["worst_final_ratio"] - worst) <= 1e-12 * worst


class TestSpectrumSums:
    @pytest.mark.parametrize("spectrum", [
        power_spectrum(0.7, truncation=50000),
        power_spectrum(1.79, truncation=1000),
        geometric_spectrum(0.25, truncation=10000),
        geometric_spectrum(0.95, truncation=50000),
    ], ids=lambda s: s.describe())
    def test_partial_sums_are_the_per_exponent_loop(self, spectrum):
        def loop(exponent):
            with np.errstate(under="ignore"):
                return float(np.sum(spectrum.values() ** exponent))

        report = classify_spectrum(spectrum)
        for item in report["evidence"]:
            assert bits(item["partial_sum"]) == bits(loop(item["exponent"]))
        kothe = kothe_nuclearity(spectrum, Fraction(1, 3), Fraction(3, 4))
        assert bits(kothe["partial_sum"]) == bits(loop(kothe["exponent"]))


def with_step(system, step):
    return CascadeSystem(system.kind, system.window, step)


def transport_loop(system, t):
    """The per-age calls the covariance experiment made before."""
    worst = 0.0
    for n in range(system.window.lo, system.window.hi - t + 1):
        worst = max(worst, verify_imprimitivity(system, (n,), t))
    return worst


def defective(system):
    """Off-by-one, colliding and truncated step maps."""
    step = system._step
    collide = np.array(step)
    i = int(np.nonzero(system.ages == -1)[0][0])
    j = int(np.nonzero(system.ages == 0)[0][0])
    collide[j] = collide[i]
    same_age = np.array(step)
    a, b = np.nonzero(system.ages == 0)[0][:2] if system.kind == "baker" else (i, j)
    same_age[b] = same_age[a]
    truncated = np.array(step)
    truncated[int(np.nonzero(system.ages == 1)[0][0])] = -1
    return {
        "off-by-one": with_step(system, np.where(step > 0, step - 1, -1)),
        "collision": with_step(system, collide),
        "shared-image": with_step(system, same_age),
        "truncated": with_step(system, truncated),
    }


class TestAgeTransport:
    @pytest.mark.parametrize("system", [
        build_shift_cascade(AgeWindow(-4, 4)),
        build_shift_cascade(AgeWindow(-10, 10)),
        build_baker_cascade(3),
    ], ids=lambda s: s.basis_id)
    def test_one_pass_is_the_per_age_maximum(self, system):
        times = (*T_VALUES, system.window.hi - system.window.lo + 1)
        deviations = age_transport_deviations(system, times)
        assert np.array_equal(bits(deviations), bits([transport_loop(system, t) for t in times]))
        assert not deviations.any()
        for name, bad in defective(system).items():
            deviations = age_transport_deviations(bad, T_VALUES)
            loop = [transport_loop(bad, t) for t in T_VALUES]
            assert np.array_equal(bits(deviations), bits(loop)), name
            assert deviations[T_VALUES.index(1)] == 1.0, name

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            age_transport_deviations(build_shift_cascade(AgeWindow(-4, 4)), [-1])


def test_step_map_is_composed_once_and_read_only():
    system = build_baker_cascade(3)
    later = system.step_indices(3)
    for t in (0, 1, 2, 3, 5):
        idx = system.step_indices(t)
        assert idx is system.step_indices(t)
        assert not idx.flags.writeable
        expected = np.arange(system.dim)
        for _ in range(t):
            alive = expected >= 0
            expected[alive] = system._step[expected[alive]]
        assert np.array_equal(idx, expected)
    assert later is system.step_indices(3)


BAKER6 = """
seed = 5

[system]
kind = baker
m = 6

[profile]
family = gumbel
a = 1.0

[experiment tower]
tower_type = B
cutoff = 4

[experiment lyapunov]
max_t = 3
n_random = 10
"""


@pytest.mark.parametrize("position,runner", [(0, _run_tower), (1, _run_lyapunov)],
                         ids=["tower-and-isometry", "lyapunov"])
def test_baker6_sample_blocks_stay_small(position, runner):
    # one (rows, 8191) row is 64 kB; the per-label verdicts hold a few
    # dim-long rows per t, where a block of every label would hold 512 MB
    config = parse_config(BAKER6)
    ctx = _Context(config)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        passed, _ = runner(ctx, config.experiments[position].params)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert passed
    assert peak < 3 * 2**20

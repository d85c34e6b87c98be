import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timeop.duals
from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    MarginError,
    build_baker_cascade,
    build_shift_cascade,
)
from timeop.duals import IDENTITY_TOL, build_operator_web, riesz_map, verify_web
from timeop.hilbert import vector_norm
from timeop.profiles import build_decay_operator, gumbel


def gram(u, v, log_weights):
    """sum_k u_k v_k exp(log_weights[k]) over the last axis."""
    return np.sum(u * v * np.exp(log_weights), axis=-1)


def dense(web, name):
    """Dense dim x dim array of the named evolution of a web.

    Columns outside the safe labels, and those of safe labels whose
    image is truncated, are zero.
    """
    cols = np.nonzero(web.safe_mask & (web.targets >= 0))[0]
    mat = np.zeros((web.system.dim, web.system.dim))
    with np.errstate(under="ignore"):
        mat[web.targets[cols], cols] = np.exp(web.log_weights[name][cols])
    return mat


def shift_decay(lo=-4, hi=4):
    s = build_shift_cascade(AgeWindow(lo, hi))
    return s, build_decay_operator(gumbel(1.0), s)


class TestRieszMap:
    def test_square_of_the_decay_diagonal(self):
        riesz = np.exp(riesz_map(shift_decay(-1, 1)[1]))
        oracle = [
            math.exp(-2.0 * math.exp(-1.0)),
            math.exp(-2.0),
            math.exp(-2.0 * math.e),
        ]
        assert np.allclose(riesz, oracle, rtol=1e-12)
        assert riesz[0] == pytest.approx(0.4791417087880153, rel=1e-12)
        assert riesz[1] == pytest.approx(0.1353352832366127, rel=1e-12)
        assert riesz[2] == pytest.approx(0.004354420874722253, rel=1e-12)

    def test_inverse_kept_in_log_form(self):
        s, op = shift_decay()
        log_riesz = riesz_map(op)
        assert np.array_equal(log_riesz, 2.0 * op.log_diag)
        with pytest.raises(ValueError):
            log_riesz[0] = 0.0

    def test_quadratic_form_nonnegative(self):
        s, op = shift_decay()
        log_riesz = riesz_map(op)
        rng = np.random.default_rng(2)
        v = rng.standard_normal((100, s.dim))
        assert np.all(gram(v, v, log_riesz) >= 0.0)

    def test_riesz_transport_is_isometric(self):
        # pairing of transported functionals in the strengthened Gram
        # equals their antidual pairing
        s, op = shift_decay(-3, 3)
        log_riesz = riesz_map(op)
        rng = np.random.default_rng(23)
        for _ in range(50):
            f = rng.standard_normal(s.dim)
            g = rng.standard_normal(s.dim)
            rf, rg = np.exp(log_riesz) * f, np.exp(log_riesz) * g
            lhs = gram(rf, rg, -2.0 * op.log_diag)
            rhs = gram(f, g, 2.0 * op.log_diag)
            scale = max(abs(rhs), vector_norm(f) * vector_norm(g))
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestWeb:
    def test_time_zero_all_identity(self):
        s, op = shift_decay()
        web = build_operator_web(op, 0)
        for name in web.NAMES:
            assert np.array_equal(dense(web, name), np.eye(s.dim))

    def test_committed_weights_at_age_zero(self):
        s, op = shift_decay(-3, 3)
        web = build_operator_web(op, 1)
        assert web.weight("v", 0) == pytest.approx(math.exp(math.e - 1.0), rel=1e-12)
        assert web.weight("w", 0) == pytest.approx(math.exp(1.0 - math.e), rel=1e-12)
        assert web.weight("z", 0) == pytest.approx(math.exp(2.0 * (1.0 - math.e)), rel=1e-12)
        assert web.weight("u_ext", 0) == 1.0
        assert web.weight("x", 0) == pytest.approx(web.weight("v", 0), rel=1e-10)

    def test_u_extension_acts_as_the_plain_step(self):
        s, op = shift_decay()
        web = build_operator_web(op, 1)
        cols = web.safe_mask
        assert np.array_equal(dense(web, "u_ext")[:, cols], s.U[:, cols])

    def test_y_equals_w_in_this_realization(self):
        s, op = shift_decay()
        web = build_operator_web(op, 1)
        assert np.array_equal(dense(web, "y"), dense(web, "w"))

    @pytest.mark.parametrize("lo, hi, a", [
        (-8, 8, 1.0), (-10, 10, 1.0), (-20, 20, 1.0), (-3, 40, 1.0),
        # |R| reaches 2 e^13.4: x must not carry a rounding that grows with |R|
        (-3, 13400, 0.001),
    ])
    def test_wide_window_passes_with_v_equal_to_x(self, lo, hi, a):
        # v and x weigh up to exp(e^(a hi) - e^(a (hi - 1))), past the float
        # range from [-8, 8] on; as log weights they agree bit for bit
        s = build_shift_cascade(AgeWindow(lo, hi))
        report = verify_web(build_operator_web(build_decay_operator(gumbel(a), s), 1))
        assert report["all_passed"]
        assert report["v_equals_x_deviation"] == 0.0

    def test_float_edge_refusal_names_the_age(self):
        # 2 log lambda(709) = -2 e^(709 a) leaves the float range just
        # past a = 1, though the decay operator itself is built
        s = build_shift_cascade(AgeWindow(-3, 709))
        assert verify_web(build_operator_web(build_decay_operator(gumbel(1.0), s), 1))["all_passed"]
        with pytest.raises(MarginError, match="at age 709 is not a finite float"):
            build_operator_web(build_decay_operator(gumbel(1.0002), s), 1)

    def test_margin_guard(self):
        s, op = shift_decay(-3, 3)
        with pytest.raises(MarginError):
            build_operator_web(op, 7)

    def test_truncated_image_leaves_its_column_empty(self):
        # a safe label whose image is -1 has no edge; -1 must not index
        # the last row, which keeps only the edge from age 3
        s = build_shift_cascade(AgeWindow(-4, 4))
        step = np.array(s._step)
        step[s.index_of(1)] = -1
        bad = CascadeSystem(s.kind, s.window, step)
        mat = dense(build_operator_web(build_decay_operator(gumbel(1.0), bad), 1), "u_ext")
        assert not mat[:, s.index_of(1)].any()
        assert np.array_equal(mat[-1], np.eye(s.dim)[s.index_of(3)])


def dual_trace_loop(op, t, steps=3):
    """Per-label verdict and band-indicator traces, one label at a time.

    A label i of the band carries exp(L(i) + L(i_k)) after k blocks of t
    steps, i_k its image under the step map, walked here one step at a
    time; a truncated image carries nothing.
    """
    system = op.system
    steps = min(steps, max((system.window.hi - system.window.lo) // t, 1))
    band = [i for i in range(system.dim) if system.ages[i] + steps * t <= system.window.hi]
    logs = np.empty((steps + 1, len(band)))
    for col, i in enumerate(band):
        image = i
        for k in range(steps + 1):
            logs[k, col] = op.log_diag[i] + op.log_diag[image] if image >= 0 else -np.inf
            for _ in range(t):
                image = int(system._step[image]) if image >= 0 else -1
    monotone = all(logs[k + 1, c] <= logs[k, c] for k in range(steps) for c in range(len(band)))
    with np.errstate(under="ignore"):
        traces = tuple(float(np.sqrt(np.sum(np.exp(2.0 * row)))) for row in logs)
    return monotone, traces


class TestVerifyWeb:
    def test_identity_part_within_round_off(self):
        for t in (1, 2):
            s, op = shift_decay(-4, 4)
            report = verify_web(build_operator_web(op, t))
            assert report["v_equals_x_deviation"] <= 1e-10

    def test_witnesses_certify_the_inequalities(self):
        s, op = shift_decay(-4, 4)
        report = verify_web(build_operator_web(op, 1))
        assert report["v_vs_u_witness"]["deviation"] >= 1e-3
        assert report["y_vs_u_witness"]["deviation"] >= 1e-3
        assert report["w_vs_z_witness"]["deviation"] >= 1e-3

    def test_age_zero_separations_match_direct_evaluation(self):
        s, op = shift_decay(-4, 4)
        web = build_operator_web(op, 1)
        r = math.exp(1.0 - math.e)
        assert abs(web.weight("v", 0) - web.weight("u_ext", 0)) == pytest.approx(
            math.exp(math.e - 1.0) - 1.0, rel=1e-12
        )
        assert abs(web.weight("y", 0) - 1.0) == pytest.approx(1.0 - r, rel=1e-12)
        assert abs(web.weight("w", 0) - web.weight("z", 0)) == pytest.approx(
            r - r * r, rel=1e-12
        )

    def test_spectrum_and_conjugacy_of_the_riesz_twist(self):
        s, op = shift_decay(-4, 4)
        report = verify_web(build_operator_web(op, 1))
        assert report["z_spectrum_deviation"] <= 1e-8
        assert report["z_conjugacy_deviation"] <= 1e-10

    def test_transported_traces_decay(self):
        s, op = shift_decay(-6, 6)
        for t in (1, 2, 3):
            report = verify_web(build_operator_web(op, t))
            assert report["dual_markov_monotone"]
            assert len(report["dual_markov_traces"]) >= 2
            assert report["dual_markov_traces"][-1] < report["dual_markov_traces"][0]
            assert (report["dual_markov_monotone"], report["dual_markov_traces"]) == \
                dual_trace_loop(op, t)

    def test_degenerate_time_rejected(self):
        s, op = shift_decay()
        with pytest.raises(ValueError, match="degenerate"):
            verify_web(build_operator_web(op, 0))

    def test_full_report_passes(self):
        s, op = shift_decay(-6, 6)
        for t in (1, 2):
            assert verify_web(build_operator_web(op, t))["all_passed"]

    @pytest.mark.parametrize("system, t", [
        (build_shift_cascade(AgeWindow(-3, 3)), 6),
        (build_baker_cascade(3), 6),
        (build_shift_cascade(AgeWindow(-6, 6)), 9),
        (build_shift_cascade(AgeWindow(-6, 6)), 12),
    ], ids=lambda p: p.basis_id if isinstance(p, CascadeSystem) else f"t={p}")
    def test_long_time_witness_on_a_correct_system(self, system, t):
        # w and z weigh r and r^2 with r = exp(-e^3 + e^-3) on shift
        # [-3, 3] at t = 6: their absolute difference, about 2e-9, is
        # below WITNESS_FLOOR, their relative deviation 1 - r is not
        report = verify_web(build_operator_web(build_decay_operator(gumbel(1.0), system), t))
        assert report["w_vs_z_witness"]["deviation"] == pytest.approx(1.0)
        assert report["all_passed"]


@st.composite
def accepted_web(draw):
    """A window, a gumbel steepness with a * hi <= 709, and a time, as drawn in a sweep."""
    if draw(st.booleans()):
        lo, hi = draw(st.integers(-15, -1)), draw(st.integers(1, 80))
        system = build_shift_cascade(AgeWindow(lo, hi))
    else:
        system = build_baker_cascade(draw(st.integers(1, 6)))
    lo, hi = system.window.lo, system.window.hi
    a = draw(st.floats(0.005, min(3.0, 709.0 / hi)))
    return build_decay_operator(gumbel(a), system), draw(st.integers(1, hi - lo))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(accepted_web())
def test_every_accepted_web_passes(case):
    decay, t = case
    assert verify_web(build_operator_web(decay, t))["all_passed"]


def off_by_one(system):
    """The same labels and ages, every image one position lower.

    As in ``test_index_map_checks.py``; on these windows the map gains
    fixed points, so z loses its nilpotent Jordan type.
    """
    step = system._step
    return CascadeSystem(system.kind, system.window, np.where(step > 0, step - 1, -1))


def web_systems():
    return [build_shift_cascade(AgeWindow(-6, 6)), build_baker_cascade(3)]


class TestWebDefects:
    """Each injected defect must fail the theorem gate at t = 1."""

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_correct_web_passes_exactly(self, system):
        report = verify_web(build_operator_web(build_decay_operator(gumbel(1.0), system), 1))
        assert report["z_spectrum_deviation"] == 0.0
        assert report["z_conjugacy_deviation"] == 0.0
        assert report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_off_by_one_step_map(self, system):
        op = build_decay_operator(gumbel(1.0), off_by_one(system))
        report = verify_web(build_operator_web(op, 1))
        assert report["z_spectrum_deviation"] > 1e-8
        assert report["z_conjugacy_deviation"] > 1e-10
        assert not report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_doubled_z_weights(self, system):
        web = build_operator_web(build_decay_operator(gumbel(1.0), system), 1)
        web.log_weights["z"] = web.log_weights["z"] + math.log(2.0)
        report = verify_web(web)
        assert report["z_conjugacy_deviation"] > 1e-10
        assert not report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_riesz_map_of_three_log_lambda_breaks_v_equals_x(self, system, monkeypatch):
        monkeypatch.setattr(timeop.duals, "riesz_map", lambda decay: 3.0 * decay.log_diag)
        report = verify_web(build_operator_web(build_decay_operator(gumbel(1.0), system), 1))
        assert report["v_equals_x_deviation"] > IDENTITY_TOL
        assert not report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_halved_age_one_log_weight(self, system):
        # v and x both read the defect, so they still agree; the z closed
        # form, read from the profile, does not
        op = build_decay_operator(gumbel(1.0), system)
        log_diag = np.array(op.log_diag)
        log_diag[int(np.nonzero(system.ages == 1)[0][0])] *= 0.5
        op.log_diag = log_diag
        report = verify_web(build_operator_web(op, 1))
        assert report["v_equals_x_deviation"] == 0.0
        assert report["z_conjugacy_deviation"] > IDENTITY_TOL
        assert not report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_rising_log_weight_breaks_the_dual_traces(self, system):
        # lambda at the first age-2 label lifted above lambda at age 1:
        # the orbit of an age-0 label carries a rising weight at k = 2
        op = build_decay_operator(gumbel(1.0), system)
        log_diag = np.array(op.log_diag)
        log_diag[int(np.nonzero(system.ages == 2)[0][0])] = -0.5
        op.log_diag = log_diag
        report = verify_web(build_operator_web(op, 1))
        assert (report["dual_markov_monotone"], dual_trace_loop(op, 1)[0]) == (False, False)
        assert not report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_one_vanishing_z_weight(self, system):
        # a label of age 0, whose image at age 1 is itself margin-safe
        web = build_operator_web(build_decay_operator(gumbel(1.0), system), 1)
        web.log_weights["z"][int(np.nonzero(system.ages == 0)[0][0])] = -np.inf
        report = verify_web(web)
        assert report["z_spectrum_deviation"] > 1e-8
        assert not report["all_passed"]

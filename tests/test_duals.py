import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    MarginError,
    build_baker_cascade,
    build_shift_cascade,
)
from timeop.config import parse_config
from timeop.duals import IDENTITY_TOL, build_operator_web, verify_web
from timeop.profiles import build_decay_operator, gumbel
from timeop.runner import run_experiments


def dense(shift, dim):
    """Dense dim x dim array of a weighted shift.

    Columns of labels that are not sources, and those of sources whose
    image is truncated, are zero.
    """
    landed = shift.targets >= 0
    mat = np.zeros((dim, dim))
    with np.errstate(under="ignore"):
        mat[shift.targets[landed], shift.sources[landed]] = np.exp(shift.log_weights[landed])
    return mat


def shift_decay(lo=-4, hi=4):
    s = build_shift_cascade(AgeWindow(lo, hi))
    return s, build_decay_operator(gumbel(1.0), s)


def riesz_conjugations(web, log_riesz):
    """The web with x and z conjugated by the log Riesz diagonal ``log_riesz``."""
    u, w = web.evolutions["u_ext"], web.evolutions["w"]
    web.evolutions["x"] = w.conjugate(-log_riesz, log_riesz)
    web.evolutions["z"] = u.conjugate(log_riesz, -log_riesz)
    return web


class TestRieszMap:
    def test_square_of_the_decay_diagonal(self):
        # the Riesz twist z carries the square of w's weight lambda(a+1)/lambda(a)
        web = build_operator_web(shift_decay(-1, 1)[1], 1)
        z = np.exp(web.evolutions["z"].log_weights)
        oracle = [
            math.exp(2.0 * (math.exp(-1.0) - 1.0)),
            math.exp(2.0 * (1.0 - math.e)),
        ]
        assert np.allclose(z, oracle, rtol=1e-12)
        assert np.allclose(z, np.exp(web.evolutions["w"].log_weights) ** 2, rtol=1e-12)
        assert z[0] == pytest.approx(0.2824535638505403, rel=1e-12)
        assert z[1] == pytest.approx(0.0321750601216774, rel=1e-12)

    def test_inverse_kept_in_log_form(self):
        # lambda^2 underflows past age 9 here, and its inverse overflows;
        # x conjugates w by the log diagonal 2 log lambda and its negation
        s, op = shift_decay(-10, 10)
        web = build_operator_web(op, 1)
        log_riesz = 2.0 * op.log_diag
        w, x = web.evolutions["w"], web.evolutions["x"]
        i, k = w.sources, w.targets
        assert np.all(np.isfinite(x.log_weights))
        assert np.array_equal(x.log_weights, w.log_weights + (log_riesz[i] - log_riesz[k]))
        assert np.array_equal(x.log_weights, web.evolutions["v"].log_weights)


@pytest.mark.parametrize("system", [build_shift_cascade(AgeWindow(-3, 3)), build_baker_cascade(1),
                                    build_baker_cascade(2)], ids=lambda s: s.basis_id)
@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_every_weighted_shift_is_its_dense_product(system, t):
    # U^t, W_t, the six evolutions and the dual-trace transport, each the
    # product of system.U and the decay diagonal on its margin columns
    decay = build_decay_operator(gumbel(1.0), system)
    lam, inv = np.diag(np.exp(decay.log_diag)), np.diag(np.exp(-decay.log_diag))
    ut = np.linalg.matrix_power(system.U, t)
    margin = np.diag(system.interior_mask(t).astype(float))
    w = lam @ ut @ inv
    products = {"u_ext": ut, "w": w, "v": inv @ ut @ lam, "x": inv @ inv @ w @ lam @ lam,
                "y": w, "z": lam @ lam @ ut @ inv @ inv}
    u = system.step(t)
    assert np.array_equal(dense(u, system.dim), ut @ margin)
    if not u.sources.size:
        with pytest.raises(MarginError):
            build_operator_web(decay, t)
        return
    web = build_operator_web(decay, t)
    for name, product in products.items():
        assert np.allclose(dense(web.evolutions[name], system.dim), product @ margin,
                           rtol=1e-12, atol=0.0), name
    if t == 0:
        return
    # the band indicator after k blocks of t steps, transported by lambda on both sides
    report = verify_web(web)
    steps = len(report["dual_markov_traces"]) - 1
    band = (system.ages + steps * t <= system.window.hi).astype(float)
    traces = [np.linalg.norm(lam @ np.linalg.matrix_power(system.U, k * t) @ lam @ band)
              for k in range(steps + 1)]
    assert np.allclose(report["dual_markov_traces"], traces, rtol=1e-12, atol=0.0)


class TestWeb:
    def test_time_zero_all_identity(self):
        s, op = shift_decay()
        web = build_operator_web(op, 0)
        for name in web.NAMES:
            assert np.array_equal(dense(web.evolutions[name], s.dim), np.eye(s.dim))

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
        cols = s.interior_mask(1)
        assert np.array_equal(dense(web.evolutions["u_ext"], s.dim)[:, cols], s.U[:, cols])

    def test_y_equals_w_in_this_realization(self):
        s, op = shift_decay()
        web = build_operator_web(op, 1)
        assert np.array_equal(dense(web.evolutions["y"], s.dim), dense(web.evolutions["w"], s.dim))

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
        web = build_operator_web(build_decay_operator(gumbel(1.0), bad), 1)
        mat = dense(web.evolutions["u_ext"], s.dim)
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


@st.composite
def accepted_lyapunov(draw):
    """A shift window, a gumbel steepness with a * hi <= 709, and a horizon the config accepts."""
    lo, hi = draw(st.integers(-15, -1)), draw(st.integers(1, 60))
    a = draw(st.floats(0.005, min(3.0, 709.0 / hi)))
    return lo, hi, a, draw(st.integers(1, (hi - lo) // 2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(accepted_lyapunov())
@example((-10, 35, 0.3, 18))  # the band norm at t = 14, about 3.5e-315, is subnormal
def test_every_accepted_lyapunov_row_passes(case):
    lo, hi, a, max_t = case
    config = parse_config(f"[system]\nkind = shift\nlo = {lo}\nhi = {hi}\n\n"
                          f"[profile]\nfamily = gumbel\na = {a!r}\n\n"
                          f"[experiment lyapunov]\nmax_t = {max_t}\n")
    (record,) = run_experiments(config).records
    assert record["status"] == "pass", record.get("error")


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
        z = web.evolutions["z"]
        web.evolutions["z"] = z._replace(log_weights=z.log_weights + math.log(2.0))
        report = verify_web(web)
        assert report["z_conjugacy_deviation"] > 1e-10
        assert not report["all_passed"]

    @pytest.mark.parametrize("system", web_systems(), ids=lambda s: s.basis_id)
    def test_riesz_map_of_three_log_lambda_breaks_v_equals_x(self, system):
        op = build_decay_operator(gumbel(1.0), system)
        report = verify_web(riesz_conjugations(build_operator_web(op, 1), 3.0 * op.log_diag))
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
        z = web.evolutions["z"]
        log_weights = np.array(z.log_weights)
        log_weights[int(np.nonzero(system.ages == 0)[0][0])] = -np.inf
        web.evolutions["z"] = z._replace(log_weights=log_weights)
        report = verify_web(web)
        assert report["z_spectrum_deviation"] > 1e-8
        assert not report["all_passed"]

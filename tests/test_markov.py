import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeop.cascade import (
    AgeWindow,
    GridDensity,
    MarginError,
    WeightedShift,
    build_baker_cascade,
    build_shift_cascade,
    walsh_to_grid,
)
from timeop.hilbert import HVector
from timeop.markov import (
    MarkovEvolution,
    asymmetry_probe,
    lyapunov_trace,
    markov_step,
    positivity_probe,
)
from timeop.profiles import build_decay_operator, gumbel


def evolution(lo=-6, hi=6, max_t=6, a=1.0):
    s = build_shift_cascade(AgeWindow(lo, hi))
    return s, MarkovEvolution(build_decay_operator(gumbel(a), s), max_t)


class TestStep:
    def test_time_zero_is_identity(self):
        s, ev = evolution()
        rng = np.random.default_rng(0)
        v = HVector(np.where(s.ages <= 0, rng.standard_normal(s.dim), 0.0), s.basis_id)
        assert np.array_equal(markov_step(ev, v, 0).coeffs, v.coeffs)

    def test_single_step_weight(self):
        s, ev = evolution()
        out = markov_step(ev, s.basis_vector(0), 1)
        assert out.coeffs[s.index_of(1)] == pytest.approx(math.exp(1.0 - math.e), rel=1e-12)

    def test_double_step_weight(self):
        s, ev = evolution()
        out = markov_step(ev, s.basis_vector(0), 2)
        assert out.coeffs[s.index_of(2)] == pytest.approx(math.exp(1.0 - math.e**2), rel=1e-9)

    def test_negative_time_rejected(self):
        s, ev = evolution()
        with pytest.raises(ValueError, match="semigroup"):
            markov_step(ev, s.basis_vector(0), -1)

    def test_margin_violation_names_labels(self):
        s, ev = evolution()
        with pytest.raises(MarginError, match="6"):
            markov_step(ev, s.basis_vector(6), 1)

    def test_truncation_dust_is_dropped(self):
        s, ev = evolution()
        coeffs = np.zeros(s.dim)
        coeffs[s.index_of(0)] = 1.0
        coeffs[s.index_of(6)] = 1e-15
        out = markov_step(ev, HVector(coeffs, s.basis_id), 1)
        assert out.coeffs[s.index_of(1)] != 0.0

    def test_agrees_with_dense_conjugation(self):
        # the matrix route is evaluable without overflow on narrow windows;
        # W_t is also compared entrywise, on its margin columns
        rng = np.random.default_rng(8)
        for s in (build_shift_cascade(AgeWindow(-3, 3)), build_baker_cascade(1),
                  build_baker_cascade(2)):
            ev = MarkovEvolution(build_decay_operator(gumbel(1.0), s), 3)
            lam = np.exp(ev.decay.log_diag)
            for t in (0, 1, 2, 3):
                dense = np.diag(lam) @ np.linalg.matrix_power(s.U, t) @ np.diag(1.0 / lam)
                margin = s.ages + t <= s.window.hi
                v = np.where(margin, rng.standard_normal(s.dim), 0.0)
                direct = markov_step(ev, HVector(v, s.basis_id), t).coeffs
                assert np.allclose(direct, dense @ v, rtol=1e-12, atol=1e-300)
                w_t = s.step([t]).conjugate(ev.decay.log_diag, -ev.decay.log_diag)
                matrix = np.zeros((s.dim, s.dim))
                matrix[w_t.targets, w_t.sources] = np.exp(w_t.log_weights)
                assert np.allclose(matrix, dense * margin, rtol=1e-12, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16), st.integers(0, 2), st.integers(0, 2))
    def test_semigroup_property(self, seed, s_time, t_time):
        sys_, ev = evolution(-6, 6, 6)
        rng = np.random.default_rng(seed)
        band = sys_.ages <= 6 - (s_time + t_time)
        v = HVector(np.where(band, rng.standard_normal(sys_.dim), 0.0), sys_.basis_id)
        joint = markov_step(ev, v, s_time + t_time)
        chained = markov_step(ev, markov_step(ev, v, s_time), t_time)
        assert np.allclose(chained.coeffs, joint.coeffs, rtol=1e-12, atol=1e-300)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**16), st.integers(0, 4))
    def test_contraction(self, seed, t):
        sys_, ev = evolution(-6, 6, 6)
        rng = np.random.default_rng(seed)
        band = sys_.ages <= 6 - t
        v = HVector(np.where(band, rng.standard_normal(sys_.dim), 0.0), sys_.basis_id)
        assert markov_step(ev, v, t).norm() <= v.norm()

    def test_weight_table_invariants(self):
        s, ev = evolution()
        log_diag = ev.decay.log_diag
        for t in range(ev.max_t + 1):
            log_ratio = s.step([t]).conjugate(log_diag, -log_diag).log_weights
            valid = log_ratio[~np.isnan(log_ratio)]
            assert np.all(valid <= 0.0)
            if t == 0:
                assert np.all(valid == 0.0)


class TestLyapunovTrace:
    def test_spot_values(self):
        s, ev = evolution()
        trace = lyapunov_trace(ev, s.basis_vector(0), 2)
        assert trace.norms[0] == 1.0
        assert trace.norms[1] == pytest.approx(math.exp(1.0 - math.e), abs=1e-9)
        assert trace.norms[2] == pytest.approx(math.exp(1.0 - math.e**2), abs=1e-9)
        assert trace.monotone

    def test_form_route_agrees(self):
        s, ev = evolution()
        rng = np.random.default_rng(5)
        v = HVector(np.where(s.ages <= 0, rng.standard_normal(s.dim), 0.0), s.basis_id)
        trace = lyapunov_trace(ev, v, 6)
        for norm, form in zip(trace.norms, trace.forms):
            assert math.sqrt(form) == pytest.approx(norm, rel=1e-10)

    def test_trace_below_the_underflow_point(self):
        # the demo window: the canonical label 2 reaches age 6 at t = 4
        s, ev = evolution(-6, 6, 4)
        trace = lyapunov_trace(ev, s.basis_vector(2))
        assert trace.forms[4] == 0.0  # the plain quadratic form underflows
        expected = math.exp(math.e**2 - math.e**6)
        assert trace.norms[4] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_route_guard_fails_below_the_underflow_point(self, monkeypatch):
        s, ev = evolution(-6, 6, 4)
        apply = WeightedShift.apply

        def off_at_4(shift, block):
            # the entries that move four ages up are W_4's
            targets, moved = apply(shift, block)
            sources = shift.sources[shift.targets >= 0]
            moved[:, s.ages[targets] - s.ages[sources] == 4] *= 1.0 + 1e-6
            return targets, moved

        # only the underflowed step is off, so only the log-domain route can see it
        monkeypatch.setattr(WeightedShift, "apply", off_at_4)
        with pytest.raises(AssertionError, match="t=4"):
            lyapunov_trace(ev, s.basis_vector(2))

    def test_randomized_monotone_decay(self):
        s, ev = evolution(-10, 10, 6)
        rng = np.random.default_rng(77)
        band = (s.ages >= -4) & (s.ages <= 4)
        for _ in range(20):
            v = HVector(np.where(band, rng.standard_normal(s.dim), 0.0), s.basis_id)
            trace = lyapunov_trace(ev, v, 6)
            assert trace.monotone

    def test_horizon_guard(self):
        s, ev = evolution(-6, 6, 2)
        with pytest.raises(ValueError):
            lyapunov_trace(ev, s.basis_vector(0), 3)


class TestPositivity:
    def oracle_minimum(self, system, decay, equilibrium, fluct, t):
        """Direct grid evolution: shift every coefficient by t with its
        ratio weight, then evaluate pointwise over all sign patterns."""
        m = system.m
        coeffs = {}
        for k, c in enumerate(fluct):
            if c == 0.0:
                continue
            # index k holds the coordinate set of bitmask k + 1
            label = frozenset(j - m for j in range(2 * m + 1) if (k + 1) >> j & 1)
            shifted = frozenset(i + t for i in label)
            weight = math.exp(
                float(decay.profile.log_value(system.ages[k] + t))
                - float(decay.profile.log_value(system.ages[k]))
            )
            coeffs[shifted] = coeffs.get(shifted, 0.0) + weight * c
        best = None
        ny, nx = 1 << (m + 1), 1 << m
        for iy in range(ny):
            for ix in range(nx):
                value = equilibrium
                for label, c in coeffs.items():
                    sign = 1
                    for i in label:
                        digit = (ix >> (m - i)) & 1 if i >= 1 else (iy >> (m + i)) & 1
                        sign *= 1 - 2 * digit
                    value += c * sign
                best = value if best is None else min(best, value)
        return best

    def test_single_coefficient_density(self):
        b = build_baker_cascade(2)
        decay = build_decay_operator(gumbel(1.0), b)
        ev = MarkovEvolution(decay, 2)
        rho = walsh_to_grid(b, 1.0, b.basis_vector(frozenset({0})).coeffs)
        report = positivity_probe(ev, rho, 1)
        assert report.min_cell == pytest.approx(1.0 - math.exp(1.0 - math.e), rel=1e-12)
        assert report.min_cell >= 0.82
        assert report.violation == 0.0

    def test_equilibrium_is_a_fixed_point(self):
        b = build_baker_cascade(1)
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), b), 1)
        rho = GridDensity(np.ones((4, 2)))
        report = positivity_probe(ev, rho, 1)
        assert report.min_cell == 1.0

    def test_two_coefficient_density_matches_grid_oracle(self):
        # the unit-coefficient pair dips to -1 pointwise, so the probe
        # takes its boundary-nonnegative scaling
        b = build_baker_cascade(2)
        decay = build_decay_operator(gumbel(1.0), b)
        ev = MarkovEvolution(decay, 1)
        fluct = 0.5 * b.basis_vector(frozenset({0})).coeffs \
            + 0.5 * b.basis_vector(frozenset({1})).coeffs
        rho = walsh_to_grid(b, 1.0, fluct)
        assert float(rho.values.min()) == 0.0
        report = positivity_probe(ev, rho, 1)
        oracle = self.oracle_minimum(b, decay, 1.0, fluct, 1)
        assert report.min_cell == pytest.approx(oracle, rel=1e-12)
        direct = 1.0 - 0.5 * math.exp(1.0 - math.e) - 0.5 * math.exp(math.e - math.e**2)
        assert report.min_cell == pytest.approx(direct, rel=1e-12)

    def test_requires_nonnegative_unit_mass(self):
        b = build_baker_cascade(1)
        ev = MarkovEvolution(build_decay_operator(gumbel(1.0), b), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            positivity_probe(ev, GridDensity(-np.ones((4, 2))), 1)
        with pytest.raises(ValueError, match="unit mass"):
            positivity_probe(ev, GridDensity(2.0 * np.ones((4, 2))), 1)

    def test_requires_baker(self):
        s, ev = evolution()
        with pytest.raises(ValueError, match="baker"):
            positivity_probe(ev, GridDensity(np.ones((4, 2))), 1)


class TestAsymmetry:
    def test_backward_factor_on_a_narrow_window(self):
        s, ev = evolution(-3, 3, 3)
        report = asymmetry_probe(ev, s.basis_vector(0), 1)
        assert report.backward_factor == pytest.approx(
            math.exp(math.e**3 - math.e**2), rel=1e-12
        )
        assert report.backward_age == 3
        assert report.forward_norm_ratio == pytest.approx(math.exp(1.0 - math.e), rel=1e-12)

    def test_time_zero_is_symmetric(self):
        s, ev = evolution(-3, 3, 3)
        report = asymmetry_probe(ev, s.basis_vector(0), 0)
        assert report.backward_factor == 1.0
        assert report.forward_norm_ratio == 1.0

    def test_backward_factor_grows_with_the_window(self):
        logs = []
        for m in (2, 3, 4):
            s, ev = evolution(-m, m, 1)
            logs.append(asymmetry_probe(ev, s.basis_vector(0), 1).backward_log_factor)
        assert logs[0] < logs[1] < logs[2]

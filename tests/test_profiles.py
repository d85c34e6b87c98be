import math

import numpy as np
import pytest

from timeop.cascade import (
    AgeWindow,
    build_baker_cascade,
    build_shift_cascade,
    grid_to_walsh,
    walsh_to_grid,
)
from timeop.profiles import (
    DecayOperator,
    ProfileError,
    build_decay_operator,
    check_admissible,
    gumbel,
    log_condition_number,
    logistic,
    profile_from_table,
    verify_covariant_transform,
)


class TestProfiles:
    def test_gumbel_log_values_are_exact(self):
        p = gumbel(1.0)
        assert p.log_value(0) == -1.0
        assert p.log_value(20) == -math.exp(20.0)

    def test_gumbel_needs_positive_steepness(self):
        with pytest.raises(ProfileError):
            gumbel(0.0)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_gumbel_needs_finite_steepness(self, a):
        with pytest.raises(ProfileError, match="^gumbel steepness must be positive and finite"):
            gumbel(a)

    def test_table_values_outside_unit_interval_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_table([(0, 1.5)])

    def test_table_duplicate_point_rejected(self):
        with pytest.raises(ProfileError):
            profile_from_table([(0, 0.5), (0, 0.4)])

    def test_table_lookup_outside_coverage(self):
        p = profile_from_table([(0, 0.5), (1, 0.25)])
        with pytest.raises(ProfileError, match=r"^profile table does not cover s=2$"):
            p.log_value(2)
        with pytest.raises(ProfileError, match=r"^profile table does not cover s=2\.5$"):
            p.log_value(np.array([0.0, 2.5]))


class TestAdmissibility:
    def test_gumbel_passes_all_three(self):
        record = check_admissible(gumbel(1.0), grid=(-20, 20), t_set=(1, 2))
        assert record["monotone_ok"] and record["limits_ok"] and record["ratio_ok"]
        assert record["witnesses"] == {}

    def test_gumbel_ratio_values(self):
        # the ratio at s = -1 exceeds the ratio at s = 0 and the tail
        # value collapses to zero
        p = gumbel(1.0)
        ratio = lambda s, t: math.exp(p.log_value(s + t) - p.log_value(s))
        assert ratio(-1, 1) == pytest.approx(0.5314636053866156, rel=1e-12)
        assert ratio(0, 1) == pytest.approx(0.1793740787340172, rel=1e-12)
        assert ratio(-1, 1) > ratio(0, 1)
        assert ratio(20, 1) == 0.0

    def test_logistic_fails_only_the_ratio_condition(self):
        record = check_admissible(logistic(), grid=(-20, 20), t_set=(1,))
        assert record["monotone_ok"]
        assert record["limits_ok"]
        assert not record["ratio_ok"]
        ((t, s, value),) = record["witnesses"]["ratio"]
        assert (t, s) == (1, 20)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_constant_profile_fails_limits(self):
        table = [(s, 1.0) for s in range(-25, 26)]
        record = check_admissible(profile_from_table(table), grid=(-20, 20), t_set=(1, 2))
        assert record["monotone_ok"]
        assert not record["limits_ok"]

    def test_grid_must_cover_the_reference_range(self):
        # the input checks come before the closed-form gumbel verdict
        for kwargs in ({"grid": (-10, 20)}, {"t_set": (0,)}):
            with pytest.raises(ProfileError):
                check_admissible(gumbel(1.0), **kwargs)

    def test_verdicts_are_deterministic(self):
        a = check_admissible(logistic(), grid=(-20, 20), t_set=(1, 2))
        b = check_admissible(logistic(), grid=(-20, 20), t_set=(1, 2))
        assert a == b


class TestDecayOperator:
    def test_shift_window_diagonal(self):
        s = build_shift_cascade(AgeWindow(-1, 1))
        op = build_decay_operator(gumbel(1.0), s)
        oracle = [math.exp(-math.exp(-1.0)), math.exp(-1.0), math.exp(-math.e)]
        assert np.allclose(op.diag, oracle, rtol=1e-12, atol=0)
        assert op.diag[0] == pytest.approx(0.6922006275553464, rel=1e-12)
        assert op.diag[1] == pytest.approx(0.36787944117144233, rel=1e-12)
        assert op.diag[2] == pytest.approx(0.06598803584531254, rel=1e-12)

    @pytest.mark.parametrize("system", [build_shift_cascade(AgeWindow(-6, 6)),
                                        build_baker_cascade(6)], ids=lambda s: s.basis_id)
    @pytest.mark.parametrize("a", [0.01, 0.02, 0.5])
    def test_every_gumbel_steepness_is_admissible(self, a, system):
        # lambda(-20) < 1 - 1e-6 for these steepnesses, so a sampled grid
        # would need a far wider reach to see the limits; the verdict is
        # the family's, and the weights are the profile's
        op = build_decay_operator(gumbel(a), system)
        assert np.array_equal(op.log_diag, gumbel(a).log_value(system.ages))
        record = check_admissible(gumbel(a), grid=(-20, 20))
        assert (record["monotone_ok"], record["limits_ok"], record["ratio_ok"]) == (True,) * 3

    def test_inadmissible_profile_rejected(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        with pytest.raises(ProfileError) as refused:
            build_decay_operator(logistic(), s)
        # the message of the sampled record: the ratio tends to exp(-t), not 0
        assert str(refused.value) == (
            "profile logistic is not admissible (failed: ratio); "
            "witnesses: {'ratio': ((1, 20, 0.3678794416507515), (2, 20, 0.13533528347780785))}")

    def test_zero_in_window_fails_the_ratio_condition(self):
        # a profile that hits exact zero inside the window has undefined
        # decay ratios, so the sampled check already rejects it
        table = [(s, 1.0) for s in range(-25, 0)] + [(0, 0.5)] + [(s, 0.0) for s in range(1, 26)]
        profile = profile_from_table(table)
        s = build_shift_cascade(AgeWindow(-2, 2))
        with pytest.raises(ProfileError) as refused:
            build_decay_operator(profile, s)
        assert str(refused.value) == (
            "profile custom(51 points) is not admissible (failed: ratio); "
            "witnesses: {'ratio': ((1, 20, nan), (2, 20, nan))}")

    def test_zero_weight_built_unchecked_breaks_injectivity(self):
        # the operator itself refuses a zero weight, with no check of the profile
        table = [(s, 1.0) for s in range(-25, 0)] + [(0, 0.5)] + [(s, 0.0) for s in range(1, 26)]
        profile = profile_from_table(table)
        s = build_shift_cascade(AgeWindow(-2, 2))
        with pytest.raises(ProfileError, match="injectivity"):
            DecayOperator(s, profile)

    def test_custom_table_verdicts_and_messages(self):
        # a table is checked on [-20, 20] widened to the window
        shift = build_shift_cascade(AgeWindow(-3, 3))
        flat = profile_from_table([(s, 1.0) for s in range(-25, 26)])
        with pytest.raises(ProfileError) as refused:
            build_decay_operator(flat, shift)
        assert str(refused.value) == (
            "profile custom(51 points) is not admissible (failed: limits, ratio); "
            "witnesses: {'limits': ((20, 1.0),), 'ratio': ((1, 20, 1.0), (2, 20, 1.0))}")
        wide = build_shift_cascade(AgeWindow(-3, 24))
        steep = profile_from_table([(n, 1.0 if n <= 0 else math.exp(-n * n))
                                    for n in range(-20, 27)])
        assert np.array_equal(build_decay_operator(steep, wide).log_diag,
                              steep.log_value(wide.ages))
        with pytest.raises(ProfileError, match=r"^profile table does not cover s=26$"):
            build_decay_operator(profile_from_table(steep.table[:-1]), wide)

    def test_custom_table_must_cover_the_certificate_reach(self):
        # on shift [-3, 3] the sampled grid is [-20, 20] and its ratio
        # condition reads up to 20 + max(t_set) = 22; the table is 1 up to
        # age 0 and exp(-s**2) after, which is admissible
        s = build_shift_cascade(AgeWindow(-3, 3))

        def table(hi):
            return profile_from_table(
                [(n, 1.0 if n <= 0 else math.exp(-n * n)) for n in range(-20, hi + 1)])

        with pytest.raises(ProfileError, match=r"^profile table does not cover s=22$"):
            build_decay_operator(table(21), s)
        assert np.array_equal(build_decay_operator(table(22), s).log_diag,
                              table(22).log_value(s.ages))

    @pytest.mark.parametrize("system", [build_shift_cascade(AgeWindow(-6, 6)),
                                        build_shift_cascade(AgeWindow(-10, 3)),
                                        *(build_baker_cascade(m) for m in range(1, 7))],
                             ids=lambda s: s.basis_id)
    @pytest.mark.parametrize("family", ["gumbel", "logistic", "custom"])
    def test_log_diag_is_the_profile_over_the_labels(self, family, system):
        # the profile is evaluated once per age and gathered onto the
        # labels; every bit must be that of an evaluation over the labels
        window = system.window
        profile = {"gumbel": gumbel(0.7), "logistic": logistic(),
                   "custom": profile_from_table([(s, math.exp(-math.exp(0.4 * s)))
                                                 for s in range(window.lo, window.hi + 1)])}[family]
        op = DecayOperator(system, profile)
        want = np.asarray(profile.log_value(system.ages), dtype=float)
        assert np.array_equal(op.log_diag.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("system", [build_shift_cascade(AgeWindow(-3, 3)),
                                        build_baker_cascade(3)], ids=lambda s: s.basis_id)
    def test_table_errors_name_the_first_failing_age(self, system):
        gaps = profile_from_table([(s, 0.5) for s in (-3, -2, -1, 0, 3)])
        with pytest.raises(ProfileError, match=r"^profile table does not cover s=1$"):
            DecayOperator(system, gaps)
        zeros = profile_from_table([(s, 0.5 if s < 1 else 0.0) for s in range(-3, 4)])
        with pytest.raises(ProfileError, match=r"^decay value 0 at age 1 breaks injectivity$"):
            DecayOperator(system, zeros)

    def test_baker_weights_follow_age_classes(self):
        b = build_baker_cascade(1)
        op = build_decay_operator(gumbel(1.0), b)
        for i, age in enumerate(b.ages):
            assert op.diag[i] == pytest.approx(math.exp(-math.exp(age)), rel=1e-12)
        age_one = op.diag[b.age_mask(1)]
        assert len(age_one) == 4
        assert all(w == pytest.approx(0.06598803584531254, rel=1e-12) for w in age_one)

    def test_equilibrium_fixed_exactly(self):
        b = build_baker_cascade(1)
        op = build_decay_operator(gumbel(1.0), b)
        # the block transform: equilibrium held, fluctuation weighted by diag
        grid = walsh_to_grid(b, 3.25, op.diag * b.basis_vector(frozenset({0})).coeffs)
        equilibrium, fluct = grid_to_walsh(b, grid)
        assert equilibrium == 3.25
        assert fluct[b.index_of(frozenset({0}))] == op.diag[b.index_of(frozenset({0}))]

    def test_commutes_with_age_projectors_exactly(self):
        b = build_baker_cascade(2)
        op = build_decay_operator(gumbel(1.0), b)
        for n in range(-2, 3):
            p = np.diag(b.age_mask(n).astype(float))
            lam = np.diag(op.diag)
            assert np.array_equal(lam @ p, p @ lam)

    def test_log_condition_number_grows_with_window(self):
        values = []
        for m in (2, 3, 4, 5):
            s = build_shift_cascade(AgeWindow(-m, m))
            values.append(log_condition_number(build_decay_operator(gumbel(1.0), s)))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCovariantTransform:
    def test_shift_exact(self):
        s = build_shift_cascade(AgeWindow(-4, 4))
        op = build_decay_operator(gumbel(1.0), s)
        assert verify_covariant_transform(op, 0) == 0.0
        assert verify_covariant_transform(op, 1) == 0.0
        assert verify_covariant_transform(op, 2) == 0.0

    def test_baker_exact(self):
        b = build_baker_cascade(1)
        op = build_decay_operator(gumbel(1.0), b)
        assert verify_covariant_transform(op, 1) == 0.0

    def test_perturbed_underflowed_weight_is_seen(self):
        # lambda(n) = exp(-e^n) is 0.0 in floats for n >= 7, so a plain
        # comparison there reads 0 == 0 whatever the weight
        s = build_shift_cascade(AgeWindow(-10, 10))
        op = build_decay_operator(gumbel(1.0), s)
        assert np.count_nonzero(op.diag == 0.0) == 4
        assert verify_covariant_transform(op, 1) == 0.0
        log_diag = np.array(op.log_diag)
        log_diag[s.index_of(8)] += 1.0
        op.log_diag = log_diag
        assert math.exp(log_diag[s.index_of(8)]) == 0.0
        assert verify_covariant_transform(op, 1) == 1.0

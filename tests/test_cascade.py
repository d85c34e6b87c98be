import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeop.cascade import (
    AgeWindow,
    CascadeSystem,
    GridDensity,
    build_baker_cascade,
    build_shift_cascade,
    grid_to_walsh,
    verify_covariance,
    verify_imprimitivity,
    walsh_to_grid,
)


def step(system, coeffs, t):
    """U^t on a coefficient array: label k's coefficient moves to step_indices(t)[k]."""
    idx = system.step_indices(t)
    kept = idx >= 0
    out = np.zeros(system.dim)
    out[idx[kept]] = coeffs[kept]
    return out


def all_subsets(coords):
    out = []
    for r in range(1, len(coords) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(coords, r))
    return out


def stored_labels(system):
    """The labels as the construction that stored them built them, age-major."""
    if system.kind == "shift":
        return list(system.window.ages)
    m = system.m
    return [frozenset(j - m for j in range(2 * m + 1) if mask >> j & 1)
            for mask in range(1, 1 << (2 * m + 1))]


def brute_force_cell_value(system, equilibrium, fluct, iy, ix):
    """Pointwise Walsh evaluation straight from the digit convention."""
    m = system.m
    total = equilibrium
    for label, coeff in zip(stored_labels(system), fluct):
        if coeff == 0.0:
            continue
        sign = 1
        for i in label:
            if i >= 1:
                digit = (ix >> (m - i)) & 1
            else:
                digit = (iy >> (m + i)) & 1
            sign *= 1 - 2 * digit
        total += coeff * sign
    return total


class TestWindow:
    def test_must_contain_zero(self):
        with pytest.raises(ValueError):
            AgeWindow(1, 5)
        with pytest.raises(ValueError):
            AgeWindow(-5, 0)

    def test_ages(self):
        assert list(AgeWindow(-2, 2).ages) == [-2, -1, 0, 1, 2]


class TestShiftCascade:
    def test_five_dimensional_window(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        assert s.dim == 5
        assert np.array_equal(s.ages, np.array([-2, -1, 0, 1, 2]))

    def test_smallest_window(self):
        s = build_shift_cascade(AgeWindow(-1, 1))
        assert s.dim == 3
        assert s.step_indices(1).tolist() == [1, 2, -1]
        with pytest.raises(ValueError, match="lo < 0 < hi"):
            build_shift_cascade(AgeWindow(0, 1))

    def test_step_raises_age(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        out = s.U @ s.basis_vector(0).coeffs
        assert np.array_equal(out, s.basis_vector(1).coeffs)

    def test_open_boundary(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        out = s.U @ s.basis_vector(2).coeffs
        assert np.array_equal(out, np.zeros(5))

    def test_covariance_exact(self):
        s = build_shift_cascade(AgeWindow(-4, 4))
        for t in range(4):
            assert verify_covariance(s, t) == 0.0

    def test_projector_transport_exact(self):
        s = build_shift_cascade(AgeWindow(-3, 3))
        assert verify_imprimitivity(s, (0,), 1) == 0.0
        assert verify_imprimitivity(s, (-1, 1), 2) == 0.0

    def test_projector_transport_matches_conjugation(self):
        # conjugating the age-(n+1) projector by one forward step gives
        # exactly the age-n projector
        s = build_shift_cascade(AgeWindow(-3, 3))
        u = s.U
        lhs = u.T @ np.diag(s.age_mask(1).astype(float)) @ u
        assert np.array_equal(lhs, np.diag(s.age_mask(0).astype(float)))


class TestBakerCascade:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_baker_cascade(0)
        with pytest.raises(ValueError, match="desk-scale cap 6"):
            build_baker_cascade(7)

    def test_fluctuation_dimension(self):
        # every nonempty subset of the three coordinates
        b = build_baker_cascade(1)
        assert b.dim == 2 ** 3 - 1 == 7

    def test_age_one_eigenspace_by_enumeration(self):
        b = build_baker_cascade(1)
        expected = {s for s in all_subsets(range(-1, 2)) if max(s) == 1}
        got = {label for label in stored_labels(b) if b.ages[b.index_of(label)] == 1}
        assert got == expected
        assert len(got) == 4

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_eigenspace_dimensions(self, m):
        b = build_baker_cascade(m)
        counts = {}
        for s in all_subsets(range(-m, m + 1)):
            counts[max(s)] = counts.get(max(s), 0) + 1
        for n in range(-m, m + 1):
            assert counts[n] == 2 ** (n + m)
            assert int(np.sum(b.ages == n)) == counts[n]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_ascending_masks_are_the_age_major_order(self, m):
        # the construction that sorted the masks by age and looked up
        # each shifted mask's position in a dict
        full = 1 << (2 * m + 1)
        masks = np.arange(1, full, dtype=np.int64)
        ages = np.floor(np.log2(masks)).astype(np.int64) - m
        order = np.lexsort((masks, ages))
        masks, ages = masks[order], ages[order]
        position = {int(mask): i for i, mask in enumerate(masks)}
        step = [position[int(k) << 1] if (int(k) << 1) < full else -1 for k in masks]
        labels = [frozenset(j - m for j in range(2 * m + 1) if k >> j & 1) for k in masks]
        b = build_baker_cascade(m)
        assert np.array_equal(b._masks, masks)
        assert np.array_equal(b.ages, ages)
        assert b._step.tolist() == step
        assert [b.index_of(label) for label in labels] == list(range(b.dim))

    def test_step_shifts_index_set(self):
        b = build_baker_cascade(1)
        out = step(b, b.basis_vector(frozenset({0})).coeffs, 1)
        assert np.array_equal(out, b.basis_vector(frozenset({1})).coeffs)

    def test_step_shifts_pairs(self):
        b = build_baker_cascade(2)
        out = step(b, b.basis_vector(frozenset({-1, 0})).coeffs, 1)
        assert np.array_equal(out, b.basis_vector(frozenset({0, 1})).coeffs)

    def test_covariance_exact(self):
        b = build_baker_cascade(1)
        for t in range(3):
            assert verify_covariance(b, t) == 0.0

    def test_projector_transport_exact(self):
        b = build_baker_cascade(2)
        assert verify_imprimitivity(b, (0,), 1) == 0.0
        assert verify_imprimitivity(b, (-1, 0), 2) == 0.0

    def test_age_projectors_grade_the_space(self):
        b = build_baker_cascade(2)
        total = np.zeros((b.dim, b.dim))
        for n in range(-2, 3):
            p = np.diag(b.age_mask(n).astype(float))
            assert np.array_equal(p @ p, p)
            total += p
        assert np.array_equal(total, np.eye(b.dim))
        assert np.array_equal(
            np.diag(b.age_mask(0).astype(float)) @ np.diag(b.age_mask(1).astype(float)),
            np.zeros((b.dim, b.dim)),
        )


class TestKoopman:
    def test_zero_steps_identity(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        assert np.array_equal(s.step_indices(0), np.arange(s.dim))
        v = np.array([0.1, 0.2, 0.3, 0.0, 0.0])
        assert np.array_equal(step(s, v, 0), v)

    def test_double_shift(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        assert s.step_indices(2)[s.index_of(0)] == s.index_of(2)
        assert np.array_equal(step(s, s.basis_vector(0).coeffs, 2), s.basis_vector(2).coeffs)

    @pytest.mark.parametrize("system", [
        build_shift_cascade(AgeWindow(-4, 4)),
        build_baker_cascade(2),
    ], ids=["shift", "baker"])
    def test_inner_products_preserved_on_margin(self, system):
        # the relabelling preserves the multiset of summands; the baker
        # permutation may reorder the summation, so compare termwise
        rng = np.random.default_rng(7)
        hi = system.window.hi
        idx = system.step_indices(2)
        for _ in range(20):
            u = np.where(system.ages <= hi - 2, rng.standard_normal(system.dim), 0.0)
            v = np.where(system.ages <= hi - 2, rng.standard_normal(system.dim), 0.0)
            mu, mv = step(system, u, 2), step(system, v, 2)
            moved = idx >= 0
            assert np.array_equal((mu * mv)[idx[moved]], (u * v)[moved])
            assert np.dot(mu, mv) == pytest.approx(np.dot(u, v), rel=1e-12)

    def test_mixing_overlap_vanishes_exactly(self):
        # once t exceeds the age-support diameter the supports are disjoint
        s = build_shift_cascade(AgeWindow(-5, 5))
        u = s.basis_vector(-1).coeffs + s.basis_vector(0).coeffs
        v = s.basis_vector(-2).coeffs + s.basis_vector(-1).coeffs
        diameter = 0 - (-2)
        for t in range(diameter + 1, 5):
            assert np.dot(u, step(s, v, t)) == 0.0


class TestWalshGrid:
    def test_transform_matches_brute_force_kernel(self):
        from timeop.cascade import _fwht_in_place

        rng = np.random.default_rng(0)
        x = rng.standard_normal(16)
        direct = np.array(
            [sum(x[c] * (-1) ** bin(s & c).count("1") for c in range(16)) for s in range(16)]
        )
        assert np.allclose(_fwht_in_place(np.array(x)), direct, rtol=1e-12, atol=1e-12)

    def test_equilibrium_is_constant_one(self):
        b = build_baker_cascade(2)
        grid = walsh_to_grid(b, 1.0, np.zeros(b.dim))
        assert np.array_equal(grid.values, np.ones(grid.values.shape))

    def test_single_rademacher_balance(self):
        b = build_baker_cascade(1)
        grid = walsh_to_grid(b, 0.0, b.basis_vector(frozenset({0})).coeffs)
        flat = grid.values.ravel()
        assert sorted(flat.tolist()) == [-1.0] * 4 + [1.0] * 4
        assert grid.mass == 0.0

    def test_two_coefficient_minimum(self):
        b = build_baker_cascade(1)
        fluct = b.basis_vector(frozenset({0})).coeffs + b.basis_vector(frozenset({1})).coeffs
        grid = walsh_to_grid(b, 1.0, fluct)
        # pointwise values over the four sign patterns: 3, 1, 1, -1
        assert float(grid.values.min()) == -1.0
        assert float(grid.values.max()) == 3.0

    def test_matches_pointwise_oracle(self):
        b = build_baker_cascade(2)
        rng = np.random.default_rng(11)
        equilibrium, fluct = rng.standard_normal(), rng.standard_normal(b.dim)
        grid = walsh_to_grid(b, equilibrium, fluct)
        ny, nx = grid.values.shape
        for iy in range(0, ny, 3):
            for ix in range(nx):
                oracle = brute_force_cell_value(b, equilibrium, fluct, iy, ix)
                assert grid.values[iy, ix] == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_round_trip_exact_on_dyadic_grids(self):
        b = build_baker_cascade(2)
        rng = np.random.default_rng(5)
        values = rng.integers(-8, 9, size=(8, 4)).astype(float) / 8.0
        grid = GridDensity(values)
        back = walsh_to_grid(b, *grid_to_walsh(b, grid))
        assert np.array_equal(back.values, grid.values)

    def test_round_trip_close_on_random_grids(self):
        b = build_baker_cascade(3)
        rng = np.random.default_rng(6)
        grid = GridDensity(rng.standard_normal((16, 8)))
        back = walsh_to_grid(b, *grid_to_walsh(b, grid))
        assert np.allclose(back.values, grid.values, rtol=0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**14 - 1), st.integers(0, 2**14 - 1))
    def test_inner_product_preserved_up_to_cell_measure(self, seed_a, seed_b):
        b = build_baker_cascade(1)
        fa = np.random.default_rng(seed_a).standard_normal(b.dim)
        fb = np.random.default_rng(seed_b).standard_normal(b.dim)
        ga = walsh_to_grid(b, 0.25, fa)
        gb = walsh_to_grid(b, -2.0, fb)
        cell_pairing = float((ga.values * gb.values).mean())
        block_pairing = float(np.dot(fa, fb)) + 0.25 * (-2.0)
        assert cell_pairing == pytest.approx(block_pairing, rel=1e-12, abs=1e-12)

    def test_grid_requires_baker(self):
        s = build_shift_cascade(AgeWindow(-2, 2))
        with pytest.raises(ValueError):
            walsh_to_grid(s, 1.0, s.basis_vector(0).coeffs)


class TestDerivedLabels:
    @pytest.mark.parametrize("system", [build_baker_cascade(m) for m in range(1, 7)] + [
        build_shift_cascade(AgeWindow(-3, 3)),
        build_shift_cascade(AgeWindow(-10, 10)),
    ], ids=lambda s: s.basis_id)
    def test_index_and_text_are_the_stored_labels(self, system):
        # the label tuple, its index dict and its text as they were stored
        labels = stored_labels(system)
        index = {label: i for i, label in enumerate(labels)}
        assert len(labels) == system.dim
        for label in labels:
            i = system.index_of(label)
            assert i == index[label]
            if system.kind == "baker":
                assert system.index_of(sorted(label)) == i
                assert system.label_text(i) == "{" + ",".join(map(str, sorted(label))) + "}"
                assert system.ages[i] == max(label)
            else:
                assert system.label_text(i) == str(label)
                assert system.ages[i] == label

    @pytest.mark.parametrize("label", [frozenset(), set(), {-3}, {0, 3}, {0.5}, 0])
    def test_baker_rejects_foreign_labels(self, label):
        b = build_baker_cascade(2)
        with pytest.raises(KeyError, match=r"is not a basis label of baker\(m=2\)"):
            b.index_of(label)

    @pytest.mark.parametrize("label", [{0}, frozenset({1}), -4, 4, 0.5])
    def test_shift_rejects_foreign_labels(self, label):
        s = build_shift_cascade(AgeWindow(-3, 3))
        with pytest.raises(KeyError, match=r"is not a basis label of shift\[-3,3\]"):
            s.index_of(label)

    @pytest.mark.parametrize("system", [
        build_shift_cascade(AgeWindow(-3, 3)),
        build_baker_cascade(2),
    ], ids=lambda s: s.basis_id)
    def test_step_map_of_the_wrong_length_is_rejected(self, system):
        for step in (system._step[:-1], np.append(system._step, -1), system._step[None]):
            with pytest.raises(ValueError, match="does not match"):
                CascadeSystem(system.kind, system.window, step)
        assert np.array_equal(CascadeSystem(system.kind, system.window, system._step).U, system.U)

    def test_unknown_kind_and_asymmetric_baker_window_are_rejected(self):
        with pytest.raises(ValueError, match="no 'cat' cascade"):
            CascadeSystem("cat", AgeWindow(-1, 1), [1, 2, -1])
        with pytest.raises(ValueError, match="no 'baker' cascade"):
            CascadeSystem("baker", AgeWindow(-1, 2), np.full(15, -1))

    def test_largest_baker_builds_no_per_label_objects(self):
        # a few dim-long int64 arrays (64 KiB each at dim 8191); a Python
        # object per label took several MB
        build_baker_cascade(6)  # warm the imports and any lazy setup
        tracemalloc.start()
        try:
            system = build_baker_cascade(6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.dim == 8191
        assert peak < 500_000

"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail
line (run with ``pytest -s`` to see them) and asserting its pinned
tolerance and runtime budget.  Expected values are frozen from
independent oracles: direct scalar evaluation, exhaustive enumeration,
closed-form series, or brute-force pointwise evolution; never from the
code paths under test.
"""

import itertools
import math
import time

import numpy as np

from timeop.cascade import (
    AgeWindow,
    GridDensity,
    build_baker_cascade,
    build_shift_cascade,
    verify_covariance,
    verify_imprimitivity,
    walsh_to_grid,
)
from timeop.config import DEMO_CONFIG, parse_config
from timeop.duals import build_operator_web, verify_web
from timeop.hilbert import HVector
from timeop.markov import MarkovEvolution, lyapunov_trace, positivity_probe
from timeop.profiles import build_decay_operator, check_admissible, gumbel, logistic
from timeop.rigging import (
    classify_spectrum,
    geometric_spectrum,
    isometry_check,
    kothe_nuclearity,
    power_spectrum,
)
from timeop.runner import emit_report, run_experiments


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(number, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} {description}{extra}")
    assert ok, f"criterion {number} failed: {description}{extra}"


def test_01_covariance_exactness():
    with _Budget(1.0) as budget:
        systems = [build_shift_cascade(AgeWindow(-8, 8))]
        systems += [build_baker_cascade(m) for m in (1, 2, 3)]
        worst = max(
            verify_covariance(system, t) for system in systems for t in (0, 1, 2, 3)
        )
    _report(1, "time-operator covariance bit-exact on shift [-8,8] and baker m<=3",
            worst == 0.0 and budget.elapsed < 1.0,
            f" (deviation {worst}, {budget.elapsed:.2f}s)")


def test_02_projector_transport():
    with _Budget(1.0) as budget:
        worst = 0.0
        for system in (build_shift_cascade(AgeWindow(-8, 8)), build_baker_cascade(3)):
            lo, hi = system.window.lo, system.window.hi
            for t in (1, 2):
                ages = range(lo, hi - t + 1)
                deltas = [(n,) for n in ages]
                deltas += list(itertools.combinations(ages, 2))
                for delta in deltas:
                    worst = max(worst, verify_imprimitivity(system, delta, t))
    _report(2, "age-projector transport exact for singleton and pair sets, t in {1,2}",
            worst == 0.0 and budget.elapsed < 1.0,
            f" (deviation {worst}, {budget.elapsed:.2f}s)")


def test_03_lyapunov_decay():
    with _Budget(1.0) as budget:
        system = build_shift_cascade(AgeWindow(-10, 10))
        decay = build_decay_operator(gumbel(1.0), system)
        ev = MarkovEvolution(decay, 6)
        rng = np.random.default_rng(20240803)
        band = (system.ages >= -4) & (system.ages <= 4)
        ok = True
        for _ in range(20):
            v = HVector(np.where(band, rng.standard_normal(system.dim), 0.0),
                        system.basis_id)
            trace = lyapunov_trace(ev, v, 6)
            ok = ok and trace.monotone and trace.ratio_to_zero <= 1e-3
            for norm, form in zip(trace.norms, trace.forms):
                if norm > 0:
                    ok = ok and abs(math.sqrt(form) - norm) <= 1e-10 * norm
        spot = lyapunov_trace(ev, system.basis_vector(0), 2)
        # oracle: direct evaluation of exp(1-e) and exp(1-e^2)
        ok = ok and abs(spot.norms[1] - math.exp(1.0 - math.e)) <= 1e-9
        ok = ok and abs(spot.norms[2] - math.exp(1.0 - math.e**2)) <= 1e-9
    _report(3, "contraction semigroup decays monotonically with matching quadratic form",
            ok and budget.elapsed < 1.0, f" ({budget.elapsed:.2f}s)")


def test_04_isometry():
    with _Budget(1.0) as budget:
        system = build_shift_cascade(AgeWindow(-6, 6))
        decay = build_decay_operator(gumbel(1.0), system)
        deviation = isometry_check(decay)
    _report(4, "strengthened-pairing isometry within 1e-10 at every basis label",
            deviation <= 1e-10 and budget.elapsed < 1.0,
            f" (deviation {deviation:.3e}, {budget.elapsed:.2f}s)")


def test_05_evolution_web():
    with _Budget(2.0) as budget:
        system = build_shift_cascade(AgeWindow(-6, 6))
        decay = build_decay_operator(gumbel(1.0), system)
        ok = True
        for t in (1, 2):
            report = verify_web(build_operator_web(decay, t))
            ok = ok and report["v_equals_x_deviation"] <= 1e-10
            ok = ok and report["v_vs_u_witness"]["deviation"] >= 1e-3
            ok = ok and report["y_vs_u_witness"]["deviation"] >= 1e-3
            ok = ok and report["w_vs_z_witness"]["deviation"] >= 1e-3
            ok = ok and report["z_spectrum_deviation"] <= 1e-8
            ok = ok and report["dual_markov_monotone"]
    _report(5, "evolution-web identities, separations, and spectral equivalence at t in {1,2}",
            ok and budget.elapsed < 2.0, f" ({budget.elapsed:.2f}s)")


def test_06_spectrum_classification():
    with _Budget(2.0) as budget:
        spectrum = power_spectrum(0.5, truncation=10**6)
        report = classify_spectrum(spectrum)
        ok = report["compact"]
        ok = ok and not report["nuclear"]
        ok = ok and not report["hilbert_schmidt"]
        ok = ok and report["powers"]["2"]["hilbert_schmidt"]
        ok = ok and report["powers"]["4"]["nuclear"]
        ok = ok and report["min_nuclear_power"] == 3
        # oracle: closed-form series value pi^2/6 - 1 for the 4th power
        limit = math.pi**2 / 6.0 - 1.0
        item = next(e for e in report["evidence"] if e["exponent"] == 4.0)
        ok = ok and item["partial_sum"] + item["tail_lo"] <= limit + 1e-12
        ok = ok and limit <= item["partial_sum"] + item["tail_hi"] + 1e-12
    _report(6, "inverse-sqrt spectrum classification with bracketed partial sums at K=1e6",
            ok and budget.elapsed < 2.0, f" ({budget.elapsed:.2f}s)")


def test_07_kothe_nuclearity():
    with _Budget(1.0) as budget:
        good = kothe_nuclearity(geometric_spectrum(0.5, truncation=10_000), 0, 0.5)
        bad = kothe_nuclearity(power_spectrum(0.5, truncation=10_000), 0, 0.5)
        ok = good["ratio_limsup"] == 0.5 and good["criterion_met"]
        ok = ok and abs(good["partial_sum"] - 1.0) <= 1e-12
        ok = ok and abs(good["closed_form_sum"] - 1.0) <= 1e-12
        ok = ok and bad["ratio_limsup"] == 1.0 and not bad["criterion_met"]
    _report(7, "ratio-limit nuclearity criterion separates geometric from inverse-sqrt",
            ok and budget.elapsed < 1.0, f" ({budget.elapsed:.2f}s)")


def test_08_mass_preservation():
    from timeop.cascade import grid_to_walsh

    with _Budget(1.0) as budget:
        system = build_baker_cascade(2)
        decay = build_decay_operator(gumbel(1.0), system)
        rng = np.random.default_rng(20240808)
        worst = 0.0
        for _ in range(50):
            values = np.abs(rng.standard_normal((8, 4))) + 0.01
            grid = GridDensity(values / values.mean())
            equilibrium, fluct = grid_to_walsh(system, grid)
            after = walsh_to_grid(system, equilibrium, decay.diag * fluct)
            worst = max(worst, abs(after.mass - grid.mass))
    _report(8, "block transform preserves unit mass on 50 seeded baker densities",
            worst <= 1e-12 and budget.elapsed < 1.0,
            f" (deviation {worst:.3e}, {budget.elapsed:.2f}s)")


def test_09_admissibility_gate():
    with _Budget(1.0) as budget:
        good_a = check_admissible(gumbel(1.0), grid=(-20, 20), t_set=(1, 2))
        good_b = check_admissible(gumbel(1.0), grid=(-20, 20), t_set=(1, 2))
        bad_a = check_admissible(logistic(), grid=(-20, 20), t_set=(1, 2))
        bad_b = check_admissible(logistic(), grid=(-20, 20), t_set=(1, 2))
        ok = good_a["monotone_ok"] and good_a["limits_ok"] and good_a["ratio_ok"]
        ok = ok and good_a == good_b
        ok = ok and not bad_a["ratio_ok"] and bad_a["monotone_ok"] and bad_a["limits_ok"]
        ok = ok and bad_a["witnesses"]["ratio"] and bad_a == bad_b
    _report(9, "profile gate: gumbel passes, logistic fails the ratio condition, deterministically",
            ok and budget.elapsed < 1.0, f" ({budget.elapsed:.2f}s)")


def test_10_positivity_probe():
    system = build_baker_cascade(2)
    decay = build_decay_operator(gumbel(1.0), system)
    ev = MarkovEvolution(decay, 1)
    rho = walsh_to_grid(system, 1.0, system.basis_vector(frozenset({0})).coeffs)
    probe = positivity_probe(ev, rho, 1)
    # oracle: pointwise evaluation, min cell = 1 - lambda(1)/lambda(0)
    oracle = 1.0 - math.exp(1.0 - math.e)
    ok = abs(probe.min_cell - oracle) <= 1e-12 and probe.min_cell >= 0.82
    bundle = run_experiments(parse_config(DEMO_CONFIG))
    record = next(r for r in bundle.records if r["name"] == "positivity")
    ok = ok and record["status"] == "recorded"
    ok = ok and len(record["details"]["sweep"]) > 0
    _report(10, "positivity probe matches its pointwise oracle and stays non-gating",
            ok, f" (min cell {probe.min_cell:.6f})")


def test_11_determinism(tmp_path):
    config = parse_config(DEMO_CONFIG)
    emit_report(run_experiments(config), tmp_path / "first")
    emit_report(run_experiments(config), tmp_path / "second")
    first = (tmp_path / "first/report.json").read_bytes()
    second = (tmp_path / "second/report.json").read_bytes()
    _report(11, "two demo runs with one seed emit byte-identical reports",
            first == second, f" ({len(first)} bytes)")

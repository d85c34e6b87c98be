"""Gated experiments record ``fail`` when the objects they check carry a defect.

The runner builds its system and decay operator through
``timeop.runner.build_system`` and ``build_decay_operator``; each test
wraps the honest builder so that it hands the run one injected defect,
and the gated experiment that checks the broken identity must record
``fail`` and clear ``all_gated_passed``.  The correct objects pass the
same configs, so the defect alone makes the difference.  The
admissibility experiment checks the profile itself, so its defect is in
the config: a custom table that covers the sampled grid and breaks
the ratio condition.  The positivity sweep builds its own gumbel
operators, so its defects wrap the same builders; one hands it an
operator on a decreasing table whose ratio is not monotone, built past
its failing sampled check, and one an operator whose ratio exceeds one
only on labels no swept density steps, which must still be refused.
The Lyapunov defects raise one label's W_2 log weight above its W_1
weight, or lower every step image by one position, and the isometry's
move one log weight off its age's profile value, by 1/4 or to -800.
"""

import math

import numpy as np
import pytest

import timeop.runner as runner
from test_batched_probe import w_log_weights
from timeop.cascade import CascadeSystem, WeightedShift
from timeop.config import parse_config
from timeop.markov import MarkovEvolution
from timeop.profiles import DecayOperator, check_admissible, gumbel, profile_from_table
from timeop.rigging import isometry_check
from timeop.runner import run_experiments

SYSTEMS = {
    "shift": "[system]\nkind = shift\nlo = -6\nhi = 6\n",
    "baker": "[system]\nkind = baker\nm = 3\n",
}


def config(system, experiment):
    return parse_config(f"{SYSTEMS[system]}\n[profile]\nfamily = gumbel\n\n{experiment}\n")


def with_step(system, step):
    """The same kind and window over a different (defective) step map."""
    return CascadeSystem(system.kind, system.window, step)


def off_by_one(system):
    # every image one position lower; (one higher would stay inside the
    # next age block of the baker order, a legitimate age-raising map)
    step = system._step
    return with_step(system, np.where(step > 0, step - 1, -1))


def perturbed(op):
    """The operator with the log weight of its first age-1 label lowered by 1/4."""
    log_diag = np.array(op.log_diag)
    log_diag[int(np.nonzero(op.system.ages == 1)[0][0])] -= 0.25
    log_diag.setflags(write=False)
    op.log_diag = log_diag
    return op


def rising_ratio(op, monkeypatch):
    """The operator with the W_2 log weight of its first age-0 label raised above W_1's.

    Every conjugation by the operator's log diagonal gives the (label,
    t = 2 image) entry half of the W_1 log weight there: still at most
    zero, so the semigroup is built, but the label's ratio rises from
    t = 1 to 2.  The evolution conjugates U^1 ... U^max_t joined into one
    value, where that entry is the label's one entry of time 2.
    """
    k = int(np.nonzero(op.system.ages == 0)[0][0])
    first, second = (int(op.system.step_indices(t)[k]) for t in (1, 2))
    honest = WeightedShift.conjugate

    def conjugate(shift, left, right):
        out = honest(shift, left, right)
        if left is op.log_diag:
            at = (shift.sources == k) & (shift.targets == second)
            out.log_weights[at] = 0.5 * (op.log_diag[first] - op.log_diag[k])
        return out

    monkeypatch.setattr(WeightedShift, "conjugate", conjugate)
    return op


def underflowing(op):
    """The operator with the log weight of its first top-age label at -800, off its profile value."""
    log_diag = np.array(op.log_diag)
    log_diag[int(np.argmax(op.system.ages))] = -800.0
    log_diag.setflags(write=False)
    op.log_diag = log_diag
    return op


TOWER = "[experiment tower]\ntower_type = B\ncutoff = 1"


def only_record(bundle):
    (record,) = bundle.records
    return record


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_correct_objects_pass(system):
    for experiment in ("[experiment covariance]", "[experiment theorem]",
                       "[experiment lyapunov]", TOWER):
        bundle = run_experiments(config(system, experiment))
        assert only_record(bundle)["status"] == "pass"
        assert bundle.all_gated_passed


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_off_by_one_step_map_fails_covariance(system, monkeypatch):
    honest = runner.build_system
    monkeypatch.setattr(runner, "build_system", lambda cfg: off_by_one(honest(cfg)))
    bundle = run_experiments(config(system, "[experiment covariance]"))
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert record["details"]["time_covariance_deviation"] > 0.0
    assert not bundle.all_gated_passed


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_perturbed_log_weight_fails_theorem(system, monkeypatch):
    honest = runner.build_decay_operator
    monkeypatch.setattr(runner, "build_decay_operator",
                        lambda profile, sys_: perturbed(honest(profile, sys_)))
    bundle = run_experiments(config(system, "[experiment theorem]"))
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert any(part["z_conjugacy_deviation"] > 1e-10 for part in record["details"]["parts"])
    assert not bundle.all_gated_passed


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_rising_ratio_fails_lyapunov(system, monkeypatch):
    honest = runner.build_decay_operator
    monkeypatch.setattr(runner, "build_decay_operator",
                        lambda profile, sys_: rising_ratio(honest(profile, sys_), monkeypatch))
    bundle = run_experiments(config(system, "[experiment lyapunov]"))
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert record["details"]["monotone"] is False
    assert record["details"]["offending_label"] == {"shift": "0", "baker": "{0}"}[system]
    assert not bundle.all_gated_passed


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_off_by_one_step_map_fails_lyapunov(system, monkeypatch):
    # on the shift the labels become fixed points, whose constant ratio
    # reads as a contraction; on the baker the ratios still decay, but
    # {-1} steps onto a label of age -1, not 0
    honest = runner.build_system
    monkeypatch.setattr(runner, "build_system", lambda cfg: off_by_one(honest(cfg)))
    bundle = run_experiments(config(system, "[experiment lyapunov]\nmax_t = 2"))
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert record["details"]["monotone"] is False
    assert record["details"]["worst_final_ratio"] <= 1.0
    assert record["details"]["offending_label"] == {"shift": "-4", "baker": "{-1}"}[system]
    assert not bundle.all_gated_passed


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_underflowing_weight_fails_isometry(system, monkeypatch):
    honest = runner.build_decay_operator
    op = underflowing(honest(gumbel(), runner.build_system(config(system, ""))))
    assert isometry_check(op) == 1.0
    monkeypatch.setattr(runner, "build_decay_operator",
                        lambda profile, sys_: underflowing(honest(profile, sys_)))
    bundle = run_experiments(config(system, TOWER))
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert record["details"]["isometry_deviation"] > 1e-10
    assert not bundle.all_gated_passed


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_perturbed_log_weight_fails_tower(system, monkeypatch):
    # the grade-1 pairing of the lowered label is exp(-1/2), not 1
    honest = runner.build_decay_operator
    monkeypatch.setattr(runner, "build_decay_operator",
                        lambda profile, sys_: perturbed(honest(profile, sys_)))
    bundle = run_experiments(config(system, TOWER))
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert record["details"]["isometry_deviation"] == -math.expm1(-0.5) == 0.3934693402873666
    assert not bundle.all_gated_passed


def test_ratio_defect_fails_admissibility():
    # lambda(s) = e^-s for s > 0: lambda(s + t)/lambda(s) = e^-t never decays
    points = " ".join(f"{s}:{min(1.0, math.exp(-s))!r}" for s in range(-20, 25))
    experiment = "[experiment admissibility]\ngrid_lo = -20\ngrid_hi = 20\nt_set = 1 2\n"

    def run(profile):
        system = "[system]\nkind = shift\nlo = -3\nhi = 3\n"
        return run_experiments(parse_config(f"{system}\n[profile]\n{profile}\n\n{experiment}"))

    bundle = run(f"family = custom\npoints = {points}")
    record = only_record(bundle)
    assert record["status"] == "fail"
    assert not record["details"]["ratio_ok"]
    assert record["details"]["monotone_ok"] and record["details"]["limits_ok"]
    assert not bundle.all_gated_passed

    honest = run("family = gumbel")
    assert only_record(honest)["status"] == "pass"
    assert honest.all_gated_passed


POSITIVITY = "[experiment positivity]\nt_values = 1 2\ngate = true\n"


def positivity_record(monkeypatch=None, name=None, wrap=None, experiment=POSITIVITY):
    """The gated positivity record on baker m = 3, with ``runner.<name>`` wrapped by ``wrap``."""
    if name is not None:
        honest = getattr(runner, name)
        monkeypatch.setattr(runner, name, lambda *args: wrap(honest(*args), *args))
    bundle = run_experiments(config("baker", experiment))
    record = only_record(bundle)
    assert bundle.all_gated_passed == (record["status"] == "pass")
    return record


def test_correct_objects_pass_positivity():
    record = positivity_record()
    assert record["status"] == "pass"
    assert record["details"]["worst_closed_form_deviation"] <= 1e-12


def test_off_by_one_step_map_fails_positivity(monkeypatch):
    record = positivity_record(monkeypatch, "build_system", lambda system, cfg: off_by_one(system))
    assert record["status"] == "fail"
    assert record["details"]["worst_closed_form_deviation"] > 1e-12


def test_perturbed_log_weight_fails_positivity(monkeypatch):
    # the label of the perturbed weight is live: its age 1 is at most hi - t_max
    record = positivity_record(monkeypatch, "build_decay_operator",
                               lambda op, profile, system: perturbed(op))
    assert record["status"] == "fail"
    assert record["details"]["worst_closed_form_deviation"] > 1e-12


def test_raised_weight_at_the_lowest_age_fails_positivity(monkeypatch):
    # raising log lambda on the one label of age lo by 0.1 keeps the
    # ratios nonincreasing at a = 1 and 2, so the minimum is the closed
    # form of the operator's own weights; only the profile's tells
    def raised(op, profile, system):
        log_diag = np.array(op.log_diag)
        log_diag[system.ages == system.window.lo] += 0.1
        log_diag.setflags(write=False)
        op.log_diag = log_diag
        return op

    record = positivity_record(monkeypatch, "build_decay_operator", raised,
                               POSITIVITY + "sweep_a = 1.0 2.0\n")
    assert record["status"] == "fail"
    assert record["details"]["worst_min_cell"] > 0.0
    assert record["details"]["worst_closed_form_deviation"] > 1e-3


def test_ratio_above_one_off_the_swept_labels_errors_positivity(monkeypatch):
    # every age-3 log weight set midway between the age-1 and age-2
    # ones raises only the t = 1 ratio of the age-2 labels above one;
    # no swept density steps an age-2 label at t = 1, yet the sweep
    # rejects the operator as a MarkovEvolution does, on every label
    def midway(op, profile, system):
        log_diag = np.array(op.log_diag)
        first = {n: log_diag[system.ages == n][0] for n in (1, 2)}
        log_diag[system.ages == 3] = 0.5 * (first[1] + first[2])
        log_diag.setflags(write=False)
        op.log_diag = log_diag
        return op

    system = runner.build_system(config("baker", ""))
    op = midway(runner.build_decay_operator(gumbel(), system), None, system)
    assert np.all((w_log_weights(op, 1) > 0) == (system.ages == 2))
    assert not np.any(w_log_weights(op, 2) > 0)
    record = positivity_record(monkeypatch, "build_decay_operator", midway)
    assert record["status"] == "error"
    assert record["error"] == "ValueError: decay ratios exceed one; the profile is not admissible"
    # the one check a MarkovEvolution runs too
    with pytest.raises(ValueError) as from_evolution:
        MarkovEvolution(op, 2)
    assert f"ValueError: {from_evolution.value}" == record["error"]


def test_nonmonotone_ratio_fails_positivity(monkeypatch):
    # decreasing, but lambda(n+1)/lambda(n) runs 0.999, 0.5005, 0.98,
    # 0.0204, 0.99, 0.0101 over the window: every ratio is at most one,
    # so W_t is built, and the sampled check fails only on the ratio
    values = {-3: 1.0, -2: 0.999, -1: 0.5, 0: 0.49, 1: 0.01, 2: 0.0099, 3: 1e-4}
    table = profile_from_table(
        (s, 1.0 if s < -3 else values.get(s, 1e-4 * 0.5 ** (s - 3))) for s in range(-20, 23))
    sampled = check_admissible(table)
    assert (sampled["monotone_ok"], sampled["limits_ok"], sampled["ratio_ok"]) == (True, True, False)
    record = positivity_record(monkeypatch, "build_decay_operator",
                               lambda op, profile, system: DecayOperator(system, table))
    assert record["status"] == "fail"
    assert record["details"]["negative_cells_observed"]
    assert record["details"]["worst_min_cell"] < -1.0

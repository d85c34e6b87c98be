"""The induced contraction semigroup: decay, positivity, asymmetry.

Conjugating the step by the decay weighting sends the coefficient at
age n to age n+t with weight lambda(n+t)/lambda(n).  Every weight lies
in (0, 1], norms decrease monotonically, and the backward direction is
unboundedly amplifying, which is why only t >= 0 exists.
"""

import math

import numpy as np

from timeop import (
    AgeWindow,
    HVector,
    MarkovEvolution,
    asymmetry_probe,
    build_baker_cascade,
    build_decay_operator,
    build_shift_cascade,
    gumbel,
    lyapunov_trace,
    markov_step,
    positivity_probe,
    walsh_to_grid,
)

shift = build_shift_cascade(AgeWindow(-6, 6))
decay = build_decay_operator(gumbel(1.0), shift)
ev = MarkovEvolution(decay, 6)

print("=== norm decay from the age-0 basis vector ===")
trace = lyapunov_trace(ev, shift.basis_vector(0), 4)
print("t, norm, quadratic form (two independent float routes):")
for t, norm, form in zip(trace.t_values, trace.norms, trace.forms):
    print(f"  {t}  {norm:.12g}  {form:.12g}")
print("monotone:", trace.monotone, " final/initial ratio:", trace.ratio_to_zero)
print("spot check against direct evaluation:",
      math.isclose(trace.norms[1], math.exp(1.0 - math.e), rel_tol=1e-12))

print("\n=== random interior vectors decay too ===")
rng = np.random.default_rng(0)
band = (shift.ages >= -2) & (shift.ages <= 2)
for k in range(3):
    v = HVector(np.where(band, rng.standard_normal(shift.dim), 0.0), shift.basis_id)
    tr = lyapunov_trace(ev, v, 4)
    print(f"  sample {k}: norms {[f'{n:.4f}' for n in tr.norms]} monotone={tr.monotone}")

print("\n=== positivity probe on the baker grid ===")
baker = build_baker_cascade(2)
bdecay = build_decay_operator(gumbel(1.0), baker)
bev = MarkovEvolution(bdecay, 2)
rho = walsh_to_grid(baker, 1.0, baker.basis_vector(frozenset({0})).coeffs)
print("density 1 + chi{0} (cells 0 or 2, mass 1):")
for t in (1, 2):
    probe = positivity_probe(bev, rho, t)
    print(f"  t={t}: min cell {probe.min_cell:.6f}  violation {probe.violation}")
print("whether positivity survives is measured per density, never asserted")

print("\n=== time asymmetry ===")
for m in (3, 4, 5):
    s_m = build_shift_cascade(AgeWindow(-m, m))
    ev_m = MarkovEvolution(build_decay_operator(gumbel(1.0), s_m), 1)
    rep = asymmetry_probe(ev_m, s_m.basis_vector(0), 1)
    print(f"  window [-{m},{m}]: forward ratio {rep.forward_norm_ratio:.6f}, "
          f"backward factor e^{rep.backward_log_factor:.1f} at age {rep.backward_age}")
print("the backward family blows up with the window: no group, only a semigroup")

print("\nnegative times are rejected:")
try:
    markov_step(ev, shift.basis_vector(0), -1)
except ValueError as exc:
    print(" ", exc)

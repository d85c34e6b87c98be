"""The six conjugated evolutions and their verified relations.

One forward step, conjugated through the decay map, the antitransposed
decay map, and the Riesz map, yields six evolutions.  Over real scalars
the antitransposed decay map is the decay diagonal itself, so every map
here is a log weight per label and every evolution a truncated weighted
shift.  Two pairs coincide in this real-pairing realization (v with x,
y with w); the others separate with explicit basis-vector witnesses;
and the Riesz twist of the extended step has the Jordan type of the
step itself (its powers have the step's ranks, counted along the index
map) and the closed-form weights of that conjugation.
"""

import numpy as np

from timeop import (
    AgeWindow,
    build_decay_operator,
    build_operator_web,
    build_shift_cascade,
    gumbel,
    verify_web,
)

shift = build_shift_cascade(AgeWindow(-5, 5))
decay = build_decay_operator(gumbel(1.0), shift)

print("=== the maps the rigging defines ===")
log_riesz = decay.log_diag + decay.log_diag
print("Riesz diagonal = squared decay diagonal, kept as 2 log lambda; entries at ages -1, 0, 1:")
for age in (-1, 0, 1):
    print(f"  age {age:+d}: {np.exp(log_riesz[shift.index_of(age)]):.9f}")

print("\n=== the web at t = 1 ===")
web = build_operator_web(decay, 1)
print("weights carried by the age-0 basis vector:")
for name in web.NAMES:
    print(f"  {name:5s}: {web.weight(name, 0):.9f}")
print("(v inverts the contraction w; x reproduces v through the Riesz route;")
print(" y reproduces w; z squares the contraction ratio)")

print("\n=== verified relations ===")
report = verify_web(web)
print(f"v = x (antidual operator metric):     deviation {report['v_equals_x_deviation']:.3e}")
print(f"transported traces decay monotonically: {report['dual_markov_monotone']}")
print(f"  traces: {[f'{x:.6f}' for x in report['dual_markov_traces']]}")
for key, pair in (("v_vs_u_witness", "v != u_ext"), ("y_vs_u_witness", "y != plain step"),
                  ("w_vs_z_witness", "w != z")):
    witness = report[key]
    print(f"{pair} witness {witness['label']}: relative deviation {witness['deviation']:.6g}")
print(f"z ~ u_ext: Jordan-type rank gap {report['z_spectrum_deviation']:.3e}, "
      f"closed-form weight deviation {report['z_conjugacy_deviation']:.3e}")
print("all relations verified:", report["all_passed"])

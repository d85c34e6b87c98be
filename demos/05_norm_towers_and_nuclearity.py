"""Graded norm towers, the defining isometry, and spectrum classes.

The decay operator generates strengthened norms |v|_n = ||J^-n v||.
Three canonical grade families are built (single top grade,
grades accumulating at one, unbounded integer grades), the defining
isometry of the strengthened pairing is checked label by label, and
standalone singular spectra are classified as compact, Hilbert-Schmidt,
or nuclear with analytic tail bounds.
"""

import math
from fractions import Fraction

from timeop import (
    AgeWindow,
    build_decay_operator,
    build_shift_cascade,
    build_tower,
    classify_spectrum,
    geometric_spectrum,
    graded_norm_rows,
    gumbel,
    kothe_nuclearity,
    power_spectrum,
)

shift = build_shift_cascade(AgeWindow(-3, 3))
op = build_decay_operator(gumbel(1.0), shift)

print("=== strengthened norms of the age-0 basis vector ===")
grades = (0, Fraction(1, 2), 1, 2)
# one row, every grade at once; the peaks stay far inside the float range here
norms, _ = graded_norm_rows(shift.basis_vector(0).coeffs[None], [float(n) for n in grades],
                            op.log_diag)
for n, norm in zip(grades, norms[0]):
    print(f"  grade {n}: {norm:.9f}")
print("  (grade 1/2 is e^(1/2), grade 2 is e^2: inverse weights at age 0)")

print("\n=== the three canonical towers ===")
# each verdict is the record a report stores: fractions as text
for kind, cutoff in (("A", 1), ("B", 4), ("C", 4)):
    tower = build_tower(op, kind, cutoff)
    sup = tower["supremum"] if tower["supremum"] is not None else "unbounded"
    print(f"  type {kind}: grades {tower['grades']}, "
          f"supremum {sup}, attained: {tower['supremum_attained']}")

print("\n=== the defining isometry, per label ===")
print(f"  largest deviation over the basis labels: {tower['isometry_deviation']:.3e}")

print("\n=== spectrum classification ===")
inverse_sqrt = power_spectrum(0.5, truncation=100_000)
report = classify_spectrum(inverse_sqrt)
print(f"values (k+1)^(-1/2): compact={report['compact']}, "
      f"Hilbert-Schmidt={report['hilbert_schmidt']}, nuclear={report['nuclear']}")
print("powers of the operator:")
for n in ("1", "2", "3", "4"):
    verdict = report["powers"][n]
    print(f"  power {n}: nuclear={verdict['nuclear']}, "
          f"Hilbert-Schmidt={verdict['hilbert_schmidt']}")
print(f"smallest nuclear power: {report['min_nuclear_power']}")
item = next(e for e in report["evidence"] if e["exponent"] == 4.0)
print(f"4th-power series: partial {item['partial_sum']:.9f} + tail in "
      f"[{item['tail_lo']:.3e}, {item['tail_hi']:.3e}]  "
      f"(brackets pi^2/6 - 1 = {math.pi**2 / 6 - 1:.9f})")

print("\n=== nuclearity of the graded sequence space ===")
good = kothe_nuclearity(geometric_spectrum(0.5, truncation=10_000), 0, Fraction(1, 2))
print(f"geometric(1/2): ratio limit {good['ratio_limsup']}, "
      f"criterion met: {good['criterion_met']}, "
      f"series sum {good['partial_sum']} (closed form {good['closed_form_sum']})")
bad = kothe_nuclearity(inverse_sqrt, 0, Fraction(1, 2))
print(f"(k+1)^(-1/2): ratio limit {bad['ratio_limsup']}, criterion met: {bad['criterion_met']}, "
      f"series converges: {bad['sum_converges']}")

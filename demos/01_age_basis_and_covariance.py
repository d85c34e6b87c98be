"""Build the two finite-window cascades and verify their exact identities.

The truncated bilateral shift is the minimal model: one basis vector per
age, the step operator moves each up by one and truncates at the top.
The baker model realizes the same structure on functions over the unit
square, with Walsh products as the age-graded basis.  Both carry an
internal-time operator T whose covariance under the step is exact in
floating point, because everything is permutation and small-integer
arithmetic.
"""

import numpy as np

from timeop import (
    AgeWindow,
    build_baker_cascade,
    build_shift_cascade,
    verify_covariance,
    verify_imprimitivity,
)

print("=== the truncated shift ===")
shift = build_shift_cascade(AgeWindow(-4, 4))
print(f"window [-4, 4], dimension {shift.dim}")
print("time operator diagonal (the label ages):", shift.ages)

print("\nstep index map of U: label i moves to entry i, -1 past the top (open boundary):")
print(" ", shift.step_indices(1))
print("U e_0 =", shift.U @ shift.basis_vector(0).coeffs)
print("U e_4 =", shift.U @ shift.basis_vector(4).coeffs)

print("\ncovariance deviation max_e ||(U^t)' T U^t e - (T + t) e|| on margin labels:")
for t in range(4):
    print(f"  t={t}: {verify_covariance(shift, t)}")

print("\n=== the baker model ===")
baker = build_baker_cascade(2)
print(f"m=2: coordinates -2..2, fluctuation dimension {baker.dim} (= 2^5 - 1)")
for n in range(-2, 3):
    count = int(np.sum(baker.ages == n))
    print(f"  age {n:+d} eigenspace dimension {count} (= 2^(n+m))")

print("\nindex-set shift: U chi{-1,0} lands on chi{0,1}:")
image = baker.step_indices(1)[baker.index_of(frozenset({-1, 0}))]
print("  image label =", baker.label_text(image))

print("\ncovariance deviation on the baker window:")
for t in range(3):
    print(f"  t={t}: {verify_covariance(baker, t)}")

print("\nage-projector transport: conjugating the age-(n+t) projector by")
print("t forward steps recovers the age-n projector, exactly:")
for system, name in ((shift, "shift"), (baker, "baker")):
    dev = max(
        verify_imprimitivity(system, (n,), 1)
        for n in range(system.window.lo, system.window.hi)
    )
    print(f"  {name}: max deviation over singletons at t=1: {dev}")

print("\nmixing surrogate: once t exceeds the age-support diameter, evolved")
print("fluctuations are exactly orthogonal to any fixed observable:")
u = shift.basis_vector(-1).coeffs + shift.basis_vector(0).coeffs
v = shift.basis_vector(-2).coeffs
for t in range(1, 5):
    # U^t moves the coefficient of label k onto label step_indices(t)[k]
    idx = shift.step_indices(t)
    kept = idx >= 0
    overlap = float(np.dot(u[idx[kept]], v[kept]))
    print(f"  t={t}: <u, U^t v> = {overlap}")

"""Which decay profiles qualify, and what the certificates record.

A profile needs three sampled conditions: monotone decrease, the right
limits at both ends, and decaying ratios lambda(s+t)/lambda(s).  The
double-exponential (gumbel) family passes; the logistic family looks
fine until the ratio condition exposes its merely-exponential tail; a
constant profile fails the limits outright.  Certificates carry their
grid and the offending sample points, so a rejection is reproducible.
"""

import math

from timeop import (
    AgeWindow,
    build_decay_operator,
    build_shift_cascade,
    check_admissible,
    gumbel,
    log_condition_number,
    logistic,
    profile_from_table,
)

print("=== gumbel(1): lambda(s) = exp(-e^s) ===")
cert = check_admissible(gumbel(1.0), grid=(-20, 20), t_set=(1, 2))
print("monotone:", cert.monotone_ok, " limits:", cert.limits_ok, " ratio:", cert.ratio_ok)
p = gumbel(1.0)
for s in (-2, -1, 0, 1):
    ratio = math.exp(p.log_value(s + 1) - p.log_value(s))
    print(f"  ratio lambda(s+1)/lambda(s) at s={s:+d}: {ratio:.6f}")
print("  the ratio is itself decreasing and collapses to zero up the grid")

print("\n=== logistic: lambda(s) = 1/(1+e^s) ===")
cert = check_admissible(logistic(), grid=(-20, 20), t_set=(1, 2))
print("monotone:", cert.monotone_ok, " limits:", cert.limits_ok, " ratio:", cert.ratio_ok)
print("witnesses:", cert.witnesses["ratio"])
print("  the ratio tends to e^-t, not zero: an exponential tail is too slow")

print("\n=== constant 1 ===")
cert = check_admissible(profile_from_table([(s, 1.0) for s in range(-25, 26)]))
print("monotone:", cert.monotone_ok, " limits:", cert.limits_ok)
print("witnesses:", cert.witnesses["limits"])

print("\n=== the induced diagonal weighting ===")
shift = build_shift_cascade(AgeWindow(-3, 3))
op = build_decay_operator(gumbel(1.0), shift)
for age, value, logv in zip(shift.ages, op.diag, op.log_diag):
    print(f"  age {age:+d}: lambda = {value:.9g}   (log {logv:+.6f})")

print("\nthe inverse is unbounded in the window limit: the log condition")
print("number lambda(lo)/lambda(hi) grows with the window:")
for m in (2, 4, 6, 8):
    op_m = build_decay_operator(gumbel(1.0), build_shift_cascade(AgeWindow(-m, m)))
    print(f"  window [-{m}, {m}]: log cond = {log_condition_number(op_m):.3f}")

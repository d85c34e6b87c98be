"""Which decay profiles qualify, and what a sampled check records.

A profile needs three conditions: monotone decrease, the right limits
at both ends, and decaying ratios lambda(s+t)/lambda(s).  The
double-exponential (gumbel) family meets them for every steepness, in
closed form; the logistic family looks fine until the ratio condition
exposes its merely-exponential tail; a constant profile fails the
limits outright.  A sampled check's record carries its grid and the
offending sample points, so a rejection is reproducible.
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
record = check_admissible(gumbel(1.0), grid=(-20, 20), t_set=(1, 2))
print("monotone:", record["monotone_ok"], " limits:", record["limits_ok"],
      " ratio:", record["ratio_ok"])
p = gumbel(1.0)
for s in (-2, -1, 0, 1):
    ratio = math.exp(p.log_value(s + 1) - p.log_value(s))
    print(f"  ratio lambda(s+1)/lambda(s) at s={s:+d}: {ratio:.6f}")
print("  the ratio is itself decreasing and collapses to zero up the grid")

print("\n=== logistic: lambda(s) = 1/(1+e^s) ===")
record = check_admissible(logistic(), grid=(-20, 20), t_set=(1, 2))
print("monotone:", record["monotone_ok"], " limits:", record["limits_ok"],
      " ratio:", record["ratio_ok"])
print("witnesses:", record["witnesses"]["ratio"])
print("  the ratio tends to e^-t, not zero: an exponential tail is too slow")

print("\n=== constant 1 ===")
record = check_admissible(profile_from_table([(s, 1.0) for s in range(-25, 26)]))
print("monotone:", record["monotone_ok"], " limits:", record["limits_ok"])
print("witnesses:", record["witnesses"]["limits"])

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

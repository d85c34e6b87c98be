"""Walsh coefficients versus pointwise grid values of baker densities.

Each baker basis label is a product of Rademacher signs of binary
digits, so a coefficient vector evaluates pointwise on dyadic cells of
the unit square.  The transform is orthogonal up to the cell count:
round trips are exact on dyadic data and inner products survive up to
the fixed cell-measure normalization.
"""

import numpy as np

from timeop import GridDensity, build_baker_cascade, grid_to_walsh, walsh_to_grid

baker = build_baker_cascade(2)
ny, nx = 8, 4
print(f"baker m=2 evaluates on a {ny} x {nx} dyadic grid (y digits -2..0, x digits 1..2)")

print("\nthe equilibrium component alone is the constant density 1:")
flat = walsh_to_grid(baker, 1.0, np.zeros(baker.dim))
print(flat.values)

print("\na single Rademacher coefficient splits the square into half positive,")
print("half negative cells with exactly zero mass:")
chi0 = baker.basis_vector(frozenset({0})).coeffs
one = walsh_to_grid(baker, 0.0, chi0)
print(one.values)
print("mass =", one.mass)

print("\n1 + chi{0} + chi{1} dips to -1 (densities built from unit Walsh")
print("coefficients need not stay nonnegative):")
pair = walsh_to_grid(baker, 1.0, chi0 + baker.basis_vector(frozenset({1})).coeffs)
print(pair.values)
print("min cell =", pair.values.min())

print("\nround trip grid -> coefficients -> grid is exact on dyadic data:")
rng = np.random.default_rng(1)
dyadic = GridDensity(rng.integers(-8, 9, size=(ny, nx)).astype(float) / 8.0)
back = walsh_to_grid(baker, *grid_to_walsh(baker, dyadic))
print("bit-identical:", np.array_equal(back.values, dyadic.values))

print("\ninner products transfer up to the cell-measure normalization:")
eq_a, fluct_a = grid_to_walsh(baker, GridDensity(rng.standard_normal((ny, nx))))
eq_b, fluct_b = grid_to_walsh(baker, GridDensity(rng.standard_normal((ny, nx))))
ga = walsh_to_grid(baker, eq_a, fluct_a)
gb = walsh_to_grid(baker, eq_b, fluct_b)
cell = float((ga.values * gb.values).mean())
block = float(np.dot(fluct_a, fluct_b)) + eq_a * eq_b
print(f"cell-mean pairing {cell:.15f}")
print(f"block pairing     {block:.15f}")

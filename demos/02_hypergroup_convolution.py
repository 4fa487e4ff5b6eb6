"""Products of basis polynomials expand back into the basis; when every
expansion coefficient is nonnegative, the index set becomes a hypergroup
with translation and convolution operators.  This script walks through
the objects for a healthy family and for the classic failure."""

import numpy as np

from hyplab import (
    LinearizationTable,
    check_nlp,
    convolve,
    haar_values,
    l1h_norm,
    make_family,
    szwarc_criterion,
    translate,
)

seq = make_family("km", alpha=2.0, beta=5.0)
t = LinearizationTable(seq, N=12)

print("linearization row for P_3 * P_4 (km, alpha=2, beta=5):")
row = t.row(3, 4)
for k, g in enumerate(row):
    if abs(g) > 1e-14:
        print(f"   g(3,4;{k}) = {g:.6f}")
print(f"   row sum = {row.sum():.15f}")

print()
rep = check_nlp(seq, N=20)
print(f"nonnegativity audit (N=20): nonneg={rep.is_nonnegative}, "
      f"min coeff={rep.min_coeff:.2e}")

# translation smears a point mass along a linearization row; convolution
# of two point masses is supported on the admissible band; sequences on
# the index set are plain arrays, entry k at degree k
delta2, delta5 = np.eye(3)[2], np.eye(6)[5]
f = translate(seq, delta2, 5)
print()
print("T_5 delta_2 is supported on", np.nonzero(np.abs(f) > 1e-14)[0])

g = convolve(seq, delta2, delta5)
h = haar_values(seq, g.size - 1)
print("delta_2 * delta_5: h-weighted mass =",
      f"{float(np.sum(g * h)):.6f}",
      f"(= h(2) h(5) = {h[2] * h[5]:.6f})")
print("l1(h) norm of delta_2:", l1h_norm(seq, delta2))

print()
print("--- the failure case ---")
bad = make_family("grinspun", c1=0.7)
rep = check_nlp(bad, N=10)
m, n, k = rep.min_witness
print(f"grinspun(0.7): nonneg={rep.is_nonnegative}; "
      f"worst coefficient g({m},{n};{k}) = {rep.min_coeff:.6f}")
print("Szwarc-type sufficient check:", szwarc_criterion(bad))
print()
print("One negative coefficient is enough: there is no hypergroup here, and")
print("the Haar-weight floor h >= 2 indeed fails for this family (h -> 6/7).")

"""Tour of Haar weights across the built-in families.

Run:  python3 demos/01_haar_weights_tour.py
"""

import numpy as np

from hyplab import closed_form_haar, haar_values, make_family

FAMILIES = [
    ("cheb1", {}),
    ("gencheb", {"alpha": 0.5, "beta": 0.5}),
    ("gencheb", {"alpha": -0.25, "beta": -5.0 / 6.0}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.3}),
    ("grinspun", {"c1": 0.7}),
    ("km", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 8.0, "beta": 5.0}),
]

print("family                     h(1)      h(2)      h(5)      h(12)     max rel err vs closed form (n<=40)")
for tag, params in FAMILIES:
    seq = make_family(tag, **params)
    h = haar_values(seq, 40)
    err = max(
        abs(h[n] - closed_form_haar(seq, n)) / closed_form_haar(seq, n)
        for n in range(41)
    )
    label = tag + "(" + ",".join(f"{v:g}" for v in params.values()) + ")"
    print(f"{label:26s} {h[1]:<9.4f} {h[2]:<9.4f} {h[5]:<9.4f} {h[12]:<9.4f} {err:.2e}")

print()
print("Things to notice:")
print(" * cheb1 sits exactly at the degree-2 floor: h(n) = 2 for every n >= 1.")
print(" * grinspun(0.7) has h(n) = 6/7 < 1 eventually -- the product formula")
print("   for that family has negative coefficients, so no floor applies.")
print(" * modkm(2,5) has h(1) = 1.8 < 2 even though all its linearization")
print("   coefficients are nonnegative; the dual space is NOT all of [-1,1].")
print(" * modkm(8,5) has min h = 4.32 >= 2 although its dual space has a gap:")
print("   the degree-2 floor criterion is sufficient, not necessary.")

# forward-recurrence drift: how far the three-term recurrence walks away
# from the closed form, measured on the family where we know the answer
seq = make_family("cheb1")
theta = 1.234
from hyplab import eval_basis_grid

vals = eval_basis_grid(seq, 200, [np.cos(theta)])[:, 0]
drift = np.abs(vals - np.cos(np.arange(201) * theta))
print()
print("recurrence drift for cheb1 at x = cos(1.234):")
for n in (10, 50, 100, 200):
    print(f"   n = {n:3d}   |P_n - cos(n theta)| = {drift[n]:.3e}")
print(f"   max over n <= 200: {drift.max():.3e}  (stays comfortably below 5e-13)")

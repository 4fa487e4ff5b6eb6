"""Two ways to make h(1) = 1 + eps with every product coefficient
nonnegative -- the counterexamples at the heart of the package.

A natural guess would be that a polynomial hypergroup always has Haar
weights h(n) >= 2 for n >= 1 (true whenever the structure space covers
all of [-1,1]).  Both families below refute the guess, each with a
different geometry."""

import numpy as np

from hyplab import (
    beta_for_epsilon,
    check_nlp,
    dual_estimate,
    haar_values,
    make_family,
    exclusion_bound,
    spectrum_atoms,
)

print("=" * 68)
print("Construction 1: rescaled two-parameter walk, alpha = 2")
print("=" * 68)
for eps in (0.2, 0.5, 0.8):
    beta = beta_for_epsilon(eps)
    seq = make_family("modkm", alpha=2.0, beta=beta)
    h1 = haar_values(seq, 1)[1]
    cut = exclusion_bound(seq)
    nlp = check_nlp(seq, N=14).is_nonnegative
    print(f" eps={eps}:  beta = {beta:9.4f}   h(1) = {h1:.12f}   "
          f"nonneg = {nlp}   dual = +-[{cut:.4f}, 1]")
print()
print("h(1) can be pushed anywhere in (1, 2); the price is a dual space")
print("that shrinks to two short intervals around +-1 as eps -> 0.")

print()
print("=" * 68)
print("Construction 2: convex weight sequences (discrete measure)")
print("=" * 68)
for eps in (0.2, 0.5, 0.8):
    seq = make_family("convex", eps=eps, q=0.5)
    h = [seq.haar(n) for n in range(13)]
    nlp = check_nlp(seq, N=14).is_nonnegative
    print(f" eps={eps}:  h(1) = {h[1]:.12f}   nonneg = {nlp}   "
          f"h(2), h(4), h(6) = {h[2]:.2f}, {h[4]:.2f}, {h[6]:.2f}")
print()
print("Here only h(1) dips below 2; the rest of the sequence grows")
print("geometrically (h(2n+2) > 4 h(2n)).  The orthogonality measure is")
print("purely discrete: atoms at +-1 and a sequence of points accumulating")
print("inside +-[cut, 1).")

seq = make_family("convex", eps=0.5, q=0.5)
eig, _ = spectrum_atoms(seq, 200)
pos = eig[eig > 0]
print()
print("convex(eps=0.5): largest positive spectral points",
      np.round(pos[-4:], 8))
print("                 smallest positive point", round(float(pos[0]), 8),
      " vs exclusion bound", round(exclusion_bound(seq), 8))

est = dual_estimate(seq, N=400, grid_step=2e-4)
print("grid dual estimate finds:", [tuple(np.round(iv, 6))
                                    for iv in est.intervals])
print("(the interior atoms are invisible at ANY grid resolution: each")
print(" membership window is narrower than 1e-30 already at degree 40)")

print()
print("=" * 68)
print("The converse direction also fails")
print("=" * 68)
seq = make_family("modkm", alpha=8.0, beta=5.0)
h = haar_values(seq, 50)
est = dual_estimate(seq, N=400, grid_step=2e-4)
print(f"modkm(8,5): min h(n) = {h[1:].min():.4f} >= 2, yet the dual space")
print("is punctured:", [tuple(np.round(iv, 4)) for iv in est.intervals])
print("The floor h >= 2 does NOT force the dual to cover [-1,1]: this")
print("family keeps the floor while opening a gap (plus an isolated")
print("member at 0 carrying the measure's atom).")

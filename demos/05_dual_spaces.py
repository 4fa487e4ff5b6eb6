"""Where does sup_n |P_n(x)| stay <= 1?

That set (the structure space of the hypergroup, when there is one)
controls everything in the Haar-floor story.  This script estimates it
on a grid for each family and scans the complex plane for the one
family whose structure space is genuinely two-dimensional."""

import numpy as np

from hyplab import (
    complex_scan,
    divergence_classify,
    dual_estimate,
    make_family,
    exclusion_bound,
)

CASES = [
    ("cheb1", {}),
    ("cosh", {"a": 1.0}),
    ("grinspun", {"c1": 0.3}),
    ("grinspun", {"c1": 0.7}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 8.0, "beta": 5.0}),
    ("convex", {"eps": 0.5, "q": 0.5}),
]

print(f"{'family':22s} {'bound':>8s}   intervals found on the grid")
for tag, params in CASES:
    seq = make_family(tag, **params)
    est = dual_estimate(seq, N=300, grid_step=1e-3)
    ivs = [(round(a, 4), round(b, 4)) for a, b in est.intervals]
    label = tag + "(" + ",".join(f"{v:g}" for v in params.values()) + ")"
    print(f"{label:22s} {exclusion_bound(seq):8.4f}   {ivs}")

print()
print("Notes.  'bound' is the degree-2 exclusion radius: no point with")
print("0 < |x| < bound can belong.  grinspun(0.7) keeps only the endpoints;")
print("modkm(2,5) keeps two intervals; the convex family keeps only {-1, 1}")
print("on ANY grid -- its interior members are isolated points whose")
print("membership windows are far below grid resolution (the truncated-")
print("matrix spectrum certifies them instead, see the measures demo).")

print()
x = 0.2
verdict = divergence_classify(make_family("modkm", alpha=2.0, beta=5.0), x)
print(f"single-point check at x = {x}: {verdict}")

print()
print("complex scan (cosh a=1): the structure space is an ellipse")
seq = make_family("cosh", a=1.0)
surv, _ = complex_scan(seq, N=200, step=0.02)  # the square |Re z|, |Im z| <= 1.5
off = surv[np.abs(surv.imag) > 0.02]
print(f"   survivors: {surv.size}  (off the real axis: {off.size})")
print(f"   max |Im z| among survivors: {np.abs(surv.imag).max():.4f}"
      f"   vs tanh(1) = {np.tanh(1.0):.4f}")

surv, _ = complex_scan(make_family("modkm", alpha=2.0, beta=5.0),
                       N=400, step=0.02)
print(f"   same scan for modkm(2,5): {surv.size} survivors, "
      f"max |Im z| = {np.abs(surv.imag).max():.4f} (real axis only)")

"""Orthogonalization measures: densities, atoms, Gram matrices, and the
spectra of truncated Jacobi matrices."""

import numpy as np

from hyplab import (
    basis_gram,
    haar_values,
    make_family,
    measure_mass,
    measure_of,
    orthogonality_error,
    second_moment,
    spectrum_atoms,
)

for tag, params in (("km", {"alpha": 2.0, "beta": 5.0}),
                    ("km", {"alpha": 8.0, "beta": 5.0})):
    seq = make_family(tag, **params)
    spec = measure_of(seq)
    print(f"{tag}{tuple(params.values())}:")
    print(f"   mass          = {measure_mass(spec):.12f}")
    print(f"   second moment = {second_moment(spec):.12f}  (c(1) = {seq.c(1):.12f})")
    print(f"   atoms         = {spec.atoms}")
    print(f"   orthogonality error at N=12: {orthogonality_error(seq):.2e}")
    print()

# Gram diagonal vs Haar weights -- the two views must be reciprocal
seq = make_family("modkm", alpha=2.0, beta=5.0)
G = basis_gram(seq, 6)
h = haar_values(seq, 6)
print("modkm(2,5): diag(Gram) * h(n) =", np.round(np.diag(G) * h, 12))

print()
print("spectra of truncated Jacobi matrices")
print("-" * 50)
seq85 = make_family("km", alpha=8.0, beta=5.0)
eig, tails = spectrum_atoms(seq85, 151)
gamma1 = (np.sqrt(7.0) + 2.0) / np.sqrt(40.0)
gamma2 = (np.sqrt(7.0) - 2.0) / np.sqrt(40.0)
print(f"km(8,5), N=151: {eig.size} eigenvalues")
print(f"   band edges      gamma1 = {gamma1:.6f}, gamma2 = {gamma2:.6f}")
print(f"   spectrum range  [{eig.min():.6f}, {eig.max():.6f}]")
inner = eig[np.abs(eig) < gamma2 - 1e-8]
print(f"   eigenvalues inside the gap: {np.round(inner, 10)}")
print("   -> only the atom at 0 lives between the bands")

i0 = int(np.argmin(np.abs(eig)))
print(f"   eigenvector localization at 0: last-component size {tails[i0]:.1e}")
print("   (a tiny tail means the eigenvalue is a real spectral point,")
print("    not an artifact of cutting the matrix at N)")

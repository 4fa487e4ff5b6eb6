"""Expanding each family over first-kind Chebyshev polynomials.

The connection coefficients answer a question the linearization table
cannot: nonnegative connection rows force the Haar floor h(n) >= 2
WITHOUT assuming anything about products.  The criterion report collects
that check together with the other sufficient conditions."""

from hyplab import (
    check_nlp,
    connection_coeffs,
    connection_nonneg,
    connection_row_checks,
    criterion_report,
    make_family,
    minimax_probe,
)

seq = make_family("grinspun", c1=0.3)
C = connection_coeffs(seq, 6)
print("grinspun(0.3) connection rows (P_n = sum_k C[n,k] T_k):")
for n in range(2, 7):
    nz = {k: round(C[n, k], 6) for k in range(n + 1) if abs(C[n, k]) > 1e-13}
    print(f"   P_{n} = {nz}")
print("   -> exactly two terms, both positive: h >= 2 is forced.")

print()
checks = connection_row_checks(seq, 30)
rows = checks.pop("finite_rows")
print(f"row diagnostics over {rows} rows:", {k: f"{v:.2e}" for k, v in checks.items()})

ok, worst = connection_nonneg(make_family("grinspun", c1=0.7), 20)
print(f"grinspun(0.7): connection nonneg = {ok} (worst entry {worst:.4f})")

print()
print("criterion report for three stories")
print("=" * 60)
for tag, params in (
    ("cosh", {"a": 1.0}),
    ("modkm", {"alpha": 2.0, "beta": 5.0}),
    ("modkm", {"alpha": 8.0, "beta": 5.0}),
):
    seq = make_family(tag, **params)
    nlp = check_nlp(seq, N=16).is_nonnegative
    rep = criterion_report(seq, nlp_verified=nlp)
    print()
    for line in rep.lines():
        print(line)

print()
print("monic minimax values (sup-norm of the monic member on [-1,1])")
print("the degree-n value can never drop below 2^(1-n), and only the")
print("Chebyshev family attains it:")
for tag, params in (("cheb1", {}), ("km", {"alpha": 2.0, "beta": 5.0})):
    seq = make_family(tag, **params)
    for n in (4, 8):
        sup, floor = minimax_probe(seq, n)
        print(f"   {tag:6s} n={n}:  sup = {sup:.6e}   floor = {floor:.6e}"
              f"   ratio = {sup / floor:.4f}")

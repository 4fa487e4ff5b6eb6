"""The benchmark tracer's hooks: which ones the package no longer has.

``benchmarks/tracing.py`` wraps package functions by name and lists a
name it cannot find in ``Tracer.unobserved``, whose metrics then read 0.
Pinning that list makes a rename that silently zeroes a per-layer metric
fail here."""

import importlib.util
from pathlib import Path

from hyplab import cli

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# the five convex-backbone views deleted with the Fraction API, the
# report serializer's conversion pass, which reports no longer need, and
# the order-N eigenvalue solver, whose eigenvalues spectrum_atoms returns
# (no workload called it; measures.spectrum.* still times spectrum_atoms)
UNOBSERVED = [
    "ConvexSeqSpec.a_exact",
    "ConvexSeqSpec.c_exact",
    "ConvexSeqSpec.lam_exact",
    "ConvexSeqSpec.q1",
    "ConvexSeqSpec.q1_exact",
    "hyplab.cli._jsonable",
    "hyplab.measures.jacobi_spectrum",
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unobserved_hooks_are_pinned():
    build_report = cli.build_report
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.build_report is not build_report
    finally:
        tracer.uninstall()
    assert sorted(tracer.unobserved) == UNOBSERVED
    assert cli.build_report is build_report

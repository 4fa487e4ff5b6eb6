"""Tanh-sinh (double-exponential) quadrature with endpoint-distance nodes.

The rule integrates over (-1, 1) through the substitution
u = tanh((pi/2) sinh t); integrands receive, besides the node position,
the distances to both interval endpoints computed directly from the
transformation (2 / (1 + exp(+-2g)) with g = (pi/2) sinh t).  That keeps
endpoint-singular densities like (1-x)^(-1/2) evaluable long after 1-x
has rounded to zero in plain arithmetic.

Refinement halves the step per level; callers accumulate
S_l = S_{l-1}/2 + h_l * (new-node contributions) and stop on agreement.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuadratureConvergenceError", "TanhSinhRule"]

T_MAX = 4.0
START_LEVEL = 2
MAX_LEVEL = 12


class QuadratureConvergenceError(RuntimeError):
    """Successive refinement levels disagreed beyond tolerance."""


class TanhSinhRule:
    """Cached node tables per refinement level on the canonical (-1, 1).

    ``level_nodes(level)`` returns ``(u, omu, opu, w)`` for the nodes that
    are new at that level: all multiples t of h = 2**-START_LEVEL with
    |t| <= T_MAX at the start level, the odd multiples of h = 2**-level
    afterwards.  ``omu`` and ``opu`` are 1 - u and 1 + u in stable form;
    ``w`` is du/dt at the node (callers multiply by the step h themselves).
    """

    def __init__(self):
        self._cache: dict[int, tuple] = {}

    def level_nodes(self, level: int):
        if level not in self._cache:
            h = 2.0**-level
            if level == START_LEVEL:
                k = np.arange(-int(T_MAX / h), int(T_MAX / h) + 1)
                t = k * h
            else:
                kmax = int(T_MAX / h)
                k = np.arange(-kmax, kmax + 1)
                t = k[k % 2 != 0] * h
            g = 0.5 * np.pi * np.sinh(t)
            u = np.tanh(g)
            omu = 2.0 / (1.0 + np.exp(2.0 * g))    # 1 - u
            opu = 2.0 / (1.0 + np.exp(-2.0 * g))   # 1 + u
            w = 0.5 * np.pi * np.cosh(t) / np.cosh(g) ** 2
            self._cache[level] = (u, omu, opu, w)
        return self._cache[level]


_DEFAULT_RULE = TanhSinhRule()


def default_rule() -> TanhSinhRule:
    return _DEFAULT_RULE

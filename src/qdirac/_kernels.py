"""branch_mom2_grid: step.branch_mom2 on a float64 energy grid, with numpy.

The zones table and the verify window scan call it. It stays a function of
its own, in this module, because qbench/tracer.py wraps it by module and
name and counts `kernels.branch_mom2_grid.points` from the grid length;
every other array caller passes numpy to the shared formula itself. numpy
is imported on the first call, not with the module.
"""

from __future__ import annotations

from .step import branch_mom2

__all__ = ["branch_mom2_grid"]


def branch_mom2_grid(energies, mass: float, v0: float, w_abs: float):
    """Squared branch momenta over an energy grid.

    Returns (p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus) as float64
    arrays, equal bit for bit to what kinematics gives at each energy. No
    mass-shell check here: callers validate their grids; energies below the
    mass give negative p2 under the root, producing nan, which the scalar API
    rejects up front instead.
    """
    import numpy as np

    e = np.asarray(energies, dtype=np.float64)
    return branch_mom2(e, float(mass), float(v0), float(w_abs), np)

"""Array forms of the step kinematics, for the table paths.

branch_mom2_grid evaluates step.branch_mom2, the one written form of the
dispersion relation, over a float64 energy grid with np.sqrt, and
zone_minus_grid labels the minus branch over the same grid with
step._zone_minus, the one written window rule, and np.where. Only +, -, *,
sqrt and comparisons occur, so every grid value and label equals what the
scalar kinematics gives at that energy, bit for bit. numpy is imported by
the functions, on the first call, not with the module.
"""

from __future__ import annotations

from .step import _zone_minus, branch_mom2

__all__ = ["branch_mom2_grid", "zone_minus_grid"]


def branch_mom2_grid(energies, mass: float, v0: float, w_abs: float):
    """Squared branch momenta over an energy grid.

    Returns (p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus) as float64
    arrays. No mass-shell check here: callers validate their grids; energies
    below the mass give negative p2 under the root, producing nan, which the
    scalar API rejects up front instead.
    """
    import numpy as np

    e = np.asarray(energies, dtype=np.float64)
    return branch_mom2(e, float(mass), float(v0), float(w_abs), np.sqrt)


def zone_minus_grid(energies, mass: float, v0: float, w_abs: float, mom2_minus):
    """Minus-branch zone of every grid energy, as indices into list(Zone).

    mom2_minus is branch_mom2_grid's last output on the same grid; only the
    leftover point E = E_low = m reads its sign.
    """
    import numpy as np

    e = np.asarray(energies, dtype=np.float64)
    return _zone_minus(e, mass, v0, w_abs, np.asarray(mom2_minus), np.where)

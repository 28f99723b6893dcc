"""Array forms of the step kinematics, for the table paths.

branch_mom2_grid evaluates step.branch_mom2, the one written form of the
dispersion relation, over a float64 energy grid with np.sqrt. zone_minus_grid
labels the minus branch over the same grid with step._zone_minus's window
rule, as nested np.where in that function's order. Only +, -, *, sqrt and
comparisons occur, so every grid value and label equals what the scalar
kinematics gives at that energy, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .step import Zone, branch_mom2, evanescent_width

__all__ = ["branch_mom2_grid", "zone_minus_grid"]

_CODE = {zone: i for i, zone in enumerate(Zone)}


def branch_mom2_grid(energies, mass: float, v0: float, w_abs: float):
    """Squared branch momenta over an energy grid.

    Returns (p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus) as float64
    arrays. No mass-shell check here: callers validate their grids; energies
    below the mass give negative p2 under the root, producing nan, which the
    scalar API rejects up front instead.
    """
    e = np.asarray(energies, dtype=np.float64)
    return branch_mom2(e, float(mass), float(v0), float(w_abs), np.sqrt)


def zone_minus_grid(energies, mass: float, v0: float, w_abs: float, mom2_minus):
    """Minus-branch zone of every grid energy, as indices into list(Zone).

    mom2_minus is branch_mom2_grid's last output on the same grid; only the
    leftover point E = E_low = m reads it, taking its sign as
    step._zone_minus does.
    """
    e = np.asarray(energies, dtype=np.float64)
    e_low, e_up, _ = evanescent_width(mass, v0, w_abs)
    if e_low > mass:
        below = _CODE[Zone.KLEIN]
    else:
        below = np.where(np.asarray(mom2_minus) < 0,
                         _CODE[Zone.EVANESCENT], _CODE[Zone.KLEIN])
    return np.where((e_low < e) & (e < e_up), _CODE[Zone.EVANESCENT],
                    np.where(e >= e_up, _CODE[Zone.DIFFUSION], below))

"""Non-relativistic limit of the quaternionic well: parameters, spinors,
and the Dirichlet spectrum.

In this limit the travelling momenta collapse to p +- w_abs, the spinor
amplitudes freeze (they no longer depend on energy or on the magnitude of the
quaternionic potential, only on its phase), and the Dirichlet conditions on
the scalar superposition factor quantize the momentum at n*pi/L -- twice the
confined relativistic spacing. The limiting coefficients divide by w_abs, so
nr_parameters raises InputError at w_abs = 0 (the ordinary complex well, not
a smooth limit); nr_quantize accepts it, with equal branch energies, and the
CLI refuses nr-spectrum --w0-abs 0.

The stated regime of the limiting formulas is p > w_abs; outside it the
fields are reported verbatim (the minus momentum may come out negative) with
regime_flag set, and no signs are silently adjusted. These limit states carry
the time phase exp(+iEt), opposite to the exact plane waves; they are limit
forms, not solutions of the full equation of motion.
"""

from __future__ import annotations

import cmath
import math

from .dirac import (InputError, PlaneWaveState, _block_spinor, _momentum_ladder,
                    _record, _require_finite, _require_magnitude, _require_mass,
                    _require_spin)
from .quaternion import Quaternion
from .step import Branch, as_branch

__all__ = [
    "NonRelParams",
    "NonRelLevel",
    "nr_parameters",
    "nr_wavefunction",
    "nr_quantize",
]


@_record
class NonRelParams:
    """The limiting parameter set at one (energy, mass).

    momentum is the free momentum p; mom_plus / mom_minus are the branch
    momenta p +- w_abs. amp_ratio, j_chi_*, j_sigma_* mirror the travelling-
    mode coefficient names: amp_ratio = p/(E+m), j_chi_pm = -+amp_ratio/w_abs,
    j_sigma_pm = -+1/w_abs. regime_flag is set when p <= w_abs, where the
    formulas leave their stated regime.
    """

    energy: float
    mass: float
    momentum: float
    w_abs: float
    w_phase: float
    mom_plus: float
    mom_minus: float
    amp_ratio: float
    j_chi_plus: float
    j_chi_minus: float
    j_sigma_plus: float
    j_sigma_minus: float
    regime_flag: bool


@_record
class NonRelLevel:
    """One Dirichlet level, both branches side by side.

    momentum is the quantized wavenumber n*pi/L; eff_plus / eff_minus are the
    shifted momenta whose squares give the branch energies. regime_flag
    mirrors the nr_parameters criterion at the plus branch's inverted
    momentum: set when eff_plus <= w_abs.
    """

    index: int
    momentum: float
    eff_plus: float
    eff_minus: float
    energy_plus: float
    energy_minus: float
    regime_flag: bool


def nr_parameters(energy: float, mass: float, w_abs: float,
                  w_phase: float = 0.0) -> NonRelParams:
    """The limiting coefficient set; w_abs = 0 is singular by design.

    Every field is finite: where E^2 or 1/w_abs leaves float64 range,
    InputError.
    """
    _require_finite(energy=energy, mass=mass, w_abs=w_abs, w_phase=w_phase)
    _require_mass(mass)
    if w_abs <= 0:
        raise InputError(
            "the limiting coefficients divide by w_abs; the w_abs = 0 "
            "problem is the ordinary complex well, not a limit of this one"
        )
    if energy <= mass:
        raise InputError("need energy > mass for a travelling mode")
    p = math.sqrt(energy * energy - mass * mass)
    # ratio = p/(E + m) < 1, so 1/w_abs bounds the largest coefficient
    if not (p < math.inf and 1.0 / w_abs < math.inf):
        raise InputError("energy %r, mass %r, w_abs %r: the limiting coefficients "
                         "leave float64 range" % (energy, mass, w_abs))
    ratio = p / (energy + mass)
    return NonRelParams(
        energy=energy, mass=mass, momentum=p, w_abs=w_abs, w_phase=w_phase,
        mom_plus=p + w_abs, mom_minus=p - w_abs, amp_ratio=ratio,
        j_chi_plus=-ratio / w_abs, j_chi_minus=ratio / w_abs,
        j_sigma_plus=-1.0 / w_abs, j_sigma_minus=1.0 / w_abs, regime_flag=p <= w_abs)


def nr_wavefunction(branch, spin: str, params: NonRelParams) -> PlaneWaveState:
    """The limiting plane-wave state of one branch and spin.

    The spinor blocks are energy-independent: the minus branch carries chi on
    top and -j*exp(i*w_phase)*sigma3*chi below; the plus branch carries
    j*exp(-i*w_phase)*sigma3*chi on top and chi below. Note the exp(+iEt)
    phase (energy_sign +1).
    """
    br = as_branch(branch)
    _require_spin(spin)
    if br is Branch.MINUS:
        j_part = Quaternion(0.0, -cmath.exp(1j * params.w_phase))
        momentum = params.mom_minus
    else:
        j_part = Quaternion(0.0, cmath.exp(-1j * params.w_phase))
        momentum = params.mom_plus
    return PlaneWaveState(
        spinor=_block_spinor(br is Branch.MINUS, spin, Quaternion(1.0, 0.0), j_part),
        momentum=momentum,
        energy=params.energy,
        direction=1,
        energy_sign=1,
    )


def nr_quantize(length: float, n_max: int, mass: float,
                w_abs: float) -> list:
    """Dirichlet levels Q_n = n*pi/L with both branch energies per level.

    The energies follow from the shifted momenta: E^2 = (Q_n -+ w_abs)^2 +
    mass^2 with the minus branch shifted up and the plus branch shifted down.
    """
    _require_finite(length=length, mass=mass, w_abs=w_abs)
    momenta = _momentum_ladder(length, n_max, 1.0)
    _require_mass(mass)
    _require_magnitude(w_abs)
    levels = []
    for n, q_n in enumerate(momenta, start=1):
        eff_plus = q_n - w_abs
        eff_minus = q_n + w_abs
        # |eff_plus| <= eff_minus, so energy_minus is the level's largest value
        energy_minus = math.hypot(eff_minus, mass)
        if energy_minus == math.inf:
            raise InputError("level %d: the energy hypot(%r, %r) overflows float64"
                             % (n, eff_minus, mass))
        levels.append(NonRelLevel(n, q_n, eff_plus, eff_minus,
                                  math.hypot(eff_plus, mass), energy_minus,
                                  eff_plus <= w_abs))
    return levels

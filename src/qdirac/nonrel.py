"""Non-relativistic limit of the quaternionic well: parameters, spinors,
and the Dirichlet spectrum.

In this limit the travelling momenta collapse to p +- w_abs, the spinor
amplitudes freeze (they no longer depend on energy or on the magnitude of the
quaternionic potential, only on its phase), and the Dirichlet conditions on
the scalar superposition factor quantize the momentum at n*pi/L -- twice the
confined relativistic spacing. The limiting formulas divide by w_abs, so a
vanishing quaternionic potential is a hard error here, not a smooth limit.

The stated regime of the limiting formulas is p > w_abs; outside it the
fields are reported verbatim (the minus momentum may come out negative) with
regime_flag set, and no signs are silently adjusted. These limit states carry
the time phase exp(+iEt), opposite to the exact plane waves; they are limit
forms, not solutions of the full equation of motion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .dirac import PlaneWaveState, QSpinor
from .quaternion import Quaternion
from .step import Branch, as_branch

__all__ = [
    "NonRelParams",
    "NonRelLevel",
    "nr_parameters",
    "nr_wavefunction",
    "nr_quantize",
]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def nr_parameters(energy: float, mass: float, w_abs: float,
                  w_phase: float = 0.0) -> NonRelParams:
    """The limiting coefficient set; w_abs = 0 is singular by design."""
    _require_finite(energy=energy, mass=mass, w_abs=w_abs)
    if w_abs <= 0:
        raise ValueError(
            "the limiting coefficients divide by w_abs; the w_abs = 0 "
            "problem is the ordinary complex well, not a limit of this one"
        )
    if energy <= mass:
        raise ValueError("need energy > mass for a travelling mode")
    p = math.sqrt(energy * energy - mass * mass)
    ratio = p / (energy + mass)
    return NonRelParams(
        energy=energy,
        mass=mass,
        momentum=p,
        w_abs=w_abs,
        w_phase=w_phase,
        mom_plus=p + w_abs,
        mom_minus=p - w_abs,
        amp_ratio=ratio,
        j_chi_plus=-ratio / w_abs,
        j_chi_minus=ratio / w_abs,
        j_sigma_plus=-1.0 / w_abs,
        j_sigma_minus=1.0 / w_abs,
        regime_flag=p <= w_abs,
    )


def nr_wavefunction(branch, spin: str, params: NonRelParams) -> PlaneWaveState:
    """The limiting plane-wave state of one branch and spin.

    The spinor blocks are energy-independent: the minus branch carries chi on
    top and -j*exp(i*w_phase)*sigma3*chi below; the plus branch carries
    j*exp(-i*w_phase)*sigma3*chi on top and chi below. Note the exp(+iEt)
    phase (energy_sign +1).
    """
    br = as_branch(branch)
    if spin not in ("up", "down"):
        raise ValueError("spin must be 'up' or 'down'")
    idx = 0 if spin == "up" else 1
    sigma_sign = 1.0 if idx == 0 else -1.0
    zero = Quaternion()
    comp = [zero, zero, zero, zero]
    if br is Branch.MINUS:
        j_part = Quaternion(0.0, -cmath.exp(1j * params.w_phase))
        comp[idx] = Quaternion(1.0, 0.0)
        comp[2 + idx] = sigma_sign * j_part
        momentum = params.mom_minus
    else:
        j_part = Quaternion(0.0, cmath.exp(-1j * params.w_phase))
        comp[idx] = sigma_sign * j_part
        comp[2 + idx] = Quaternion(1.0, 0.0)
        momentum = params.mom_plus
    return PlaneWaveState(
        spinor=QSpinor(comp),
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
    if length <= 0:
        raise ValueError("length must be > 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if mass < 0:
        raise ValueError("mass must be >= 0")
    if w_abs < 0:
        raise ValueError("w_abs must be >= 0")
    levels = []
    for n in range(1, n_max + 1):
        q_n = n * math.pi / length
        eff_plus = q_n - w_abs
        eff_minus = q_n + w_abs
        levels.append(
            NonRelLevel(
                index=n,
                momentum=q_n,
                eff_plus=eff_plus,
                eff_minus=eff_minus,
                energy_plus=math.hypot(eff_plus, mass),
                energy_minus=math.hypot(eff_minus, mass),
                regime_flag=eff_plus <= w_abs,
            )
        )
    return levels

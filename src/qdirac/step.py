"""Closed-form kinematics and spinors for the constant quaternionic potential.

The potential has a time-component strength v0 (entering like an electrostatic
step) and a pure-quaternionic part of magnitude w_abs and phase w_phase. Both
dispersion branches of the plane-wave problem are covered: branch momenta,
zone classification (diffusion / evanescent / Klein) with the closed-form
window edges, the three spinor coefficients of each travelling mode, and the
assembled plane-wave states. The consistency_residual diagnostic quantifies a
relation between the coefficients that the closed forms do not actually
satisfy; it is reported, never asserted.

Both squared branch momenta collapse to the even-in-v0 form

    mom2_pm = E^2 + v0^2 - m^2 + w_abs^2 +- 2*sqrt(E^2 v0^2 + p^2 w_abs^2),

so the plus branch is nonnegative whenever E >= m and the evanescent window
depends on v0 only through |v0|.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

from .dirac import PlaneWaveState, _block_spinor
from .quaternion import Quaternion

__all__ = [
    "Branch",
    "Zone",
    "PotentialStep",
    "BranchKinematics",
    "ModeCoefficients",
    "SingularCoefficientsError",
    "kinematics",
    "evanescent_width",
    "classify_zone",
    "principal_momentum",
    "mode_coefficients",
    "step_spinor",
    "consistency_residual",
]


class Branch(enum.Enum):
    """The two dispersion branches; MINUS is the one with the richer zones."""

    MINUS = "minus"
    PLUS = "plus"


class Zone(enum.Enum):
    DIFFUSION = "diffusion"
    EVANESCENT = "evanescent"
    KLEIN = "klein"


def as_branch(value) -> Branch:
    if isinstance(value, Branch):
        return value
    try:
        return Branch(str(value).lower())
    except ValueError:
        raise ValueError("branch must be 'minus' or 'plus', got %r" % (value,)) from None


class SingularCoefficientsError(ValueError):
    """The mode coefficients divide by zero at this energy: on the mass shell,
    or where a denominator of mode_coefficients vanishes exactly."""


@dataclass(frozen=True)
class PotentialStep:
    """Constant quaternionic vector potential: strength v0 plus a pure part.

    The pure-quaternionic part is stored in polar form (w_abs, w_phase); its
    complex representative is w0 = w_abs * exp(i * w_phase), whose real and
    imaginary parts are the two pure-quaternionic component strengths.
    """

    v0: float = 0.0
    w_abs: float = 0.0
    w_phase: float = 0.0

    def __post_init__(self):
        for name in ("v0", "w_abs", "w_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.w_abs < 0:
            raise ValueError("w_abs is a magnitude and must be >= 0")

    @property
    def w0(self) -> complex:
        return complex(
            self.w_abs * math.cos(self.w_phase),
            self.w_abs * math.sin(self.w_phase),
        )


@dataclass(frozen=True)
class BranchKinematics:
    """Squared momenta and zone labels for both branches at one (E, m).

    q2_plus / q2_minus are the complex-limit branch momenta squared (the pure
    w_abs = 0 problem); mom2_plus / mom2_minus are the full quaternionic ones.
    delta is the square-root shift that separates them.
    """

    energy: float
    mass: float
    p2: float
    q2_plus: float
    q2_minus: float
    delta: float
    mom2_plus: float
    mom2_minus: float
    zone_minus: Zone
    zone_plus: Zone


@dataclass(frozen=True)
class ModeCoefficients:
    """The three coefficients of one travelling mode.

    amp_ratio is the complex amplitude of the sigma3*chi spinor block relative
    to the chi block (the small-component ratio of the complex limit); j_chi
    and j_sigma are the quaternionic admixtures on the chi and sigma3*chi
    blocks, each entering the spinor as -j*w0*coefficient. All three are
    stored as complex so evanescent momenta are admitted; they are real for
    real momentum.
    """

    branch: Branch
    momentum: complex
    amp_ratio: complex
    j_chi: complex
    j_sigma: complex


# math's functions under numpy's names. A formula written once takes one of
# them as xp: numpy to run on a float64 array, _MATH to run on a float.
_MATH = SimpleNamespace(sqrt=math.sqrt, hypot=math.hypot, sin=math.sin,
                        arctan2=math.atan2, copysign=math.copysign,
                        where=lambda cond, yes, no: yes if cond else no)


def branch_mom2(e, mass, v0, w_abs, xp):
    """(p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus) at energy e.

    The one written form of the dispersion relation: kinematics passes a
    float and _MATH, _kernels.branch_mom2_grid a float64 array and numpy.
    Only +, -, * and sqrt occur, each correctly rounded, so the scalar and
    the array results agree bit for bit.
    """
    p2 = e * e - mass * mass
    t_plus = e + v0
    t_minus = e - v0
    q2_plus = t_plus * t_plus - mass * mass
    q2_minus = t_minus * t_minus - mass * mass
    ev0 = e * v0
    w2 = w_abs * w_abs
    delta = xp.sqrt(ev0 * ev0 + p2 * w2) - ev0
    mom2_plus = q2_plus + w2 + 2.0 * delta
    mom2_minus = q2_minus + w2 - 2.0 * delta
    return p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus


def kinematics(energy: float, mass: float, pot: PotentialStep) -> BranchKinematics:
    """Both squared branch momenta and zone labels at one energy.

    The energy must sit on or above the mass shell; below it the square-root
    shift turns complex and nothing downstream is defined.
    """
    if mass < 0:
        raise ValueError("mass must be >= 0")
    if energy < mass:
        raise ValueError(
            "energy %g below mass %g: sub-mass-shell kinematics unsupported"
            % (energy, mass)
        )
    p2, q2_plus, q2_minus, delta, mom2_plus, mom2_minus = branch_mom2(
        energy, mass, pot.v0, pot.w_abs, _MATH
    )
    zone_minus = _ZONES[_zone_minus(energy, mass, pot.v0, pot.w_abs, mom2_minus, _MATH)]
    return BranchKinematics(
        energy=energy,
        mass=mass,
        p2=p2,
        q2_plus=q2_plus,
        q2_minus=q2_minus,
        delta=delta,
        mom2_plus=mom2_plus,
        mom2_minus=mom2_minus,
        zone_minus=zone_minus,
        zone_plus=Zone.DIFFUSION,
    )


def evanescent_width(mass: float, v0: float, w_abs: float):
    """Edges (E_low, E_up, width) of the minus-branch evanescent window.

    E_up = hypot(w_abs, mass + |v0|) and E_low = max(mass, hypot(w_abs,
    mass - |v0|)); the squared branch momenta are even in v0, so only |v0|
    matters. The width is zero when v0 = 0 (no window for a purely
    quaternionic step) and also collapses with the mass.
    """
    if mass < 0:
        raise ValueError("mass must be >= 0")
    a = abs(v0)
    e_up = math.hypot(w_abs, mass + a)
    e_low = max(mass, math.hypot(w_abs, mass - a))
    return e_low, e_up, e_up - e_low


_ZONES = tuple(Zone)
_DIFFUSION, _EVANESCENT, _KLEIN = range(3)  # the zone codes, in Zone's order


def _zone_minus(energy, mass, v0, w_abs, mom2_minus, xp):
    """Minus-branch zone as an index into tuple(Zone).

    The one written window rule: kinematics passes a float and _MATH, the
    zones table a float64 array and numpy. Strictly inside (E_low, E_up) is
    evanescent; at or above E_up is diffusion; the remaining band [m, E_low]
    is Klein when it has positive width. The leftover point E = E_low = m
    (window edge touching the mass shell) is assigned by the sign of the
    squared momentum.
    """
    e_low, e_up, _ = evanescent_width(mass, v0, w_abs)
    below = _KLEIN if e_low > mass else xp.where(mom2_minus < 0, _EVANESCENT, _KLEIN)
    return xp.where((e_low < energy) & (energy < e_up), _EVANESCENT,
                    xp.where(energy >= e_up, _DIFFUSION, below))


def classify_zone(energy: float, mass: float, pot: PotentialStep):
    """Zone labels (minus branch, plus branch). The plus branch is always
    diffusion: its squared momentum is a sum of nonnegative terms for
    E >= m."""
    kin = kinematics(energy, mass, pot)
    return kin.zone_minus, kin.zone_plus


def principal_momentum(mom2: float) -> complex:
    """Principal square root: positive real, or positive imaginary when the
    squared momentum is negative (decaying evanescent convention)."""
    if mom2 >= 0:
        return complex(math.sqrt(mom2), 0.0)
    return complex(0.0, math.sqrt(-mom2))


def amp_denominator(energy, mass, v0, delta, sgn):
    """Denominator of amp_ratio = momentum / denom_a, with sgn = +1 on the
    plus branch and -1 on the minus branch.

    The one written form: mode_coefficients passes floats,
    bag._residual_chain floats or float64 arrays.
    """
    return energy + sgn * v0 + mass + sgn * delta / (energy - mass)


def mode_coefficients(energy: float, mass: float, pot: PotentialStep,
                      branch) -> ModeCoefficients:
    """Coefficients (amp_ratio, j_chi, j_sigma) of one travelling mode.

    Strictly above the mass shell only: the amp_ratio denominator carries a
    delta/(E - m) term that is singular at E = m. Exact zeros of either
    denominator (the resonant case where one branch momentum collides with
    the other complex-limit momentum) raise SingularCoefficientsError rather
    than divide.
    """
    br = as_branch(branch)
    if energy == mass:
        raise SingularCoefficientsError(
            "coefficients singular at E = m (delta/(E - m) pole)")
    kin = kinematics(energy, mass, pot)
    sgn = 1.0 if br is Branch.PLUS else -1.0
    mom2 = kin.mom2_plus if br is Branch.PLUS else kin.mom2_minus
    q2_other = kin.q2_minus if br is Branch.PLUS else kin.q2_plus
    momentum = principal_momentum(mom2)
    denom_a = amp_denominator(energy, mass, pot.v0, kin.delta, sgn)
    if denom_a == 0:
        raise SingularCoefficientsError(
            "amp_ratio denominator vanishes at these parameters")
    denom_mn = q2_other - mom2
    if denom_mn == 0:
        raise SingularCoefficientsError(
            "resonant denominator: branch momentum squared equals the "
            "opposite complex-limit momentum squared"
        )
    amp_ratio = momentum / denom_a
    j_chi = (energy - sgn * pot.v0 - mass + momentum * amp_ratio) / denom_mn
    j_sigma = (momentum + amp_ratio * (energy - sgn * pot.v0 + mass)) / denom_mn
    return ModeCoefficients(
        branch=br,
        momentum=momentum,
        amp_ratio=amp_ratio,
        j_chi=j_chi,
        j_sigma=j_sigma,
    )


def step_spinor(energy: float, mass: float, pot: PotentialStep, branch,
                direction: int = 1, spin: str = "up") -> PlaneWaveState:
    """The plane-wave state of one branch, direction, and spin projection.

    The minus-branch amplitude puts (1 - j*w0*j_chi) on the chi block (upper)
    and (amp_ratio - j*w0*j_sigma) on the sigma3*chi block (lower); the plus
    branch swaps the block order and conjugates w0. direction = -1 applies
    the left-mover map (amp_ratio and j_sigma change sign, j_chi does not)
    and flips the phase's momentum sign.
    """
    br = as_branch(branch)
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if spin not in ("up", "down"):
        raise ValueError("spin must be 'up' or 'down'")
    mc = mode_coefficients(energy, mass, pot, br)
    amp, j_chi, j_sigma = mc.amp_ratio, mc.j_chi, mc.j_sigma
    if direction == -1:
        amp, j_sigma = -amp, -j_sigma
    w0 = pot.w0 if br is Branch.MINUS else pot.w0.conjugate()
    return PlaneWaveState(
        spinor=_block_spinor(br is Branch.MINUS, spin, Quaternion(1.0, -w0 * j_chi),
                             Quaternion(amp, -w0 * j_sigma)),
        momentum=mc.momentum,
        energy=energy,
        direction=direction,
    )


def consistency_residual(energy: float, mass: float, pot: PotentialStep):
    """Diagnostic distance |amp_ratio + conj(j_sigma)/conj(j_chi)| per branch.

    This is the relation the source material claims the coefficients satisfy
    in general; the closed forms here do not, so the value is reported for
    inspection and never asserted to vanish. Returns (r_minus, r_plus); nan
    flags the undefined w_abs = 0 case (no quaternionic admixture to compare)
    and inf flags j_chi = 0.
    """
    out = []
    for br in (Branch.MINUS, Branch.PLUS):
        if pot.w_abs == 0:
            out.append(math.nan)
            continue
        mc = mode_coefficients(energy, mass, pot, br)
        if mc.j_chi == 0:
            out.append(math.inf)
            continue
        out.append(abs(mc.amp_ratio + mc.j_sigma.conjugate() / mc.j_chi.conjugate()))
    return tuple(out)

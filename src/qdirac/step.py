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

import cmath
import enum
import math
from types import SimpleNamespace

from .dirac import (InputError, PlaneWaveState, SingularCoefficientsError, _block_spinor,
                    _record, _require_finite, _require_magnitude, _require_mass,
                    _require_real, _require_spin)
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
        raise InputError("branch must be 'minus' or 'plus', got %r" % (value,)) from None


@_record
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
        _require_finite(v0=self.v0, w_abs=self.w_abs, w_phase=self.w_phase)
        _require_magnitude(self.w_abs)

    @property
    def w0(self) -> complex:
        return complex(
            self.w_abs * math.cos(self.w_phase),
            self.w_abs * math.sin(self.w_phase),
        )


@_record
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


@_record
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

    The one written form of the dispersion relation, for a float with _MATH
    (kinematics, _branch_denominators) or a float64 array with numpy
    (_kernels.branch_mom2_grid, _branch_denominators). Only +, -, * and sqrt
    occur, each correctly rounded, so the two agree bit for bit.
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


def _require_on_shell(energy, mass):
    """Finite real energy >= mass >= 0. Floats pass on one comparison chain
    on the per-level path; any other argument goes through the named checks,
    which decide on their own."""
    if not (type(energy) is float and type(mass) is float
            and 0.0 <= mass <= energy < math.inf):
        _require_finite(energy=energy, mass=mass)
        _require_mass(mass)
        if not mass <= energy:
            raise InputError("energy %r below mass %r: sub-mass-shell kinematics "
                             "unsupported" % (energy, mass))


def _branch_mom2_in_range(energy, mass, pot):
    """branch_mom2 at one energy, or InputError where its terms leave float64
    range: any overflow among them reaches mom2_plus or mom2_minus as inf or
    nan, so those two are the ones checked."""
    mom2 = branch_mom2(energy, mass, pot.v0, pot.w_abs, _MATH)
    if not (abs(mom2[4]) < math.inf and abs(mom2[5]) < math.inf):
        raise InputError("branch momenta at energy %r overflow float64" % (energy,))
    return mom2


def kinematics(energy: float, mass: float, pot: PotentialStep) -> BranchKinematics:
    """Both squared branch momenta and zone labels at one energy.

    The energy must be finite and sit on or above the shell of a finite
    mass >= 0, and the squared momenta must stay in float64 range
    (InputError otherwise); below the shell the square-root shift turns
    complex and nothing downstream is defined.
    """
    _require_on_shell(energy, mass)
    # branch_mom2's six values are BranchKinematics' fields p2 .. mom2_minus
    mom2 = _branch_mom2_in_range(energy, mass, pot)
    zone_minus = _ZONES[_zone_minus(energy, mass, pot.v0, pot.w_abs, mom2[-1], _MATH)]
    return BranchKinematics(energy, mass, *mom2, zone_minus, Zone.DIFFUSION)


def evanescent_width(mass: float, v0: float, w_abs: float):
    """Edges (E_low, E_up, width) of the minus-branch evanescent window.

    E_up = hypot(w_abs, mass + |v0|) and E_low = max(mass, hypot(w_abs,
    mass - |v0|)); the squared branch momenta are even in v0, so only |v0|
    matters. The width is zero when v0 = 0 (no window for a purely
    quaternionic step) and also collapses with the mass. A v0 or w_abs
    that is not a finite real number, a negative w_abs, or an edge that
    leaves float64 range raises InputError.
    """
    _require_mass(mass)
    _require_finite(v0=v0, w_abs=w_abs)
    a = abs(v0)
    e_up = math.hypot(w_abs, mass + a)
    # e_up bounds the other two edges
    if not e_up < math.inf:
        raise InputError("the evanescent window edge hypot(w_abs, mass + |v0|) "
                         "overflows float64 at mass %r, v0 %r, w_abs %r"
                         % (mass, v0, w_abs))
    _require_magnitude(w_abs)
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
    squared momentum is negative (decaying evanescent convention). A mom2
    that is no real number, or beyond float64 range, raises InputError; a
    float, as mode_coefficients passes at every level, skips that check."""
    if type(mom2) is not float:
        _require_real(mom2=mom2)
    if mom2 >= 0:
        return complex(math.sqrt(mom2), 0.0)
    return complex(0.0, math.sqrt(-mom2))


def _branch_denominators(energy, mass, v0, w_abs, plus, xp):
    """(mom2, denom_a, denom_mn): a branch's squared momentum and the
    denominators of amp_ratio = momentum/denom_a and of j_chi and j_sigma.

    The one written form: mode_coefficients passes floats and _MATH,
    bag._residual_chain floats or float64 arrays with its own xp.
    """
    _, q2_plus, q2_minus, delta, mom2_plus, mom2_minus = branch_mom2(
        energy, mass, v0, w_abs, xp)
    sgn = 1.0 if plus else -1.0
    mom2, q2_other = (mom2_plus, q2_minus) if plus else (mom2_minus, q2_plus)
    denom_a = energy + sgn * v0 + mass + sgn * delta / (energy - mass)
    return mom2, denom_a, q2_other - mom2


def mode_coefficients(energy: float, mass: float, pot: PotentialStep,
                      branch) -> ModeCoefficients:
    """Coefficients (amp_ratio, j_chi, j_sigma) of one travelling mode.

    Strictly above the mass shell only: the amp_ratio denominator carries a
    delta/(E - m) term that is singular at E = m. Exact zeros of either
    denominator (the resonant case where one branch momentum collides with
    the other complex-limit momentum) raise SingularCoefficientsError rather
    than divide. _branch_denominators, shared with bag, forms both. Where
    the momentum or a coefficient leaves float64 range, InputError.
    """
    br = as_branch(branch)
    if energy == mass:
        raise SingularCoefficientsError(
            "coefficients singular at E = m (delta/(E - m) pole)")
    _require_on_shell(energy, mass)
    mom2, denom_a, denom_mn = _branch_denominators(
        energy, mass, pot.v0, pot.w_abs, br is Branch.PLUS, _MATH)
    momentum = principal_momentum(mom2)
    if denom_a == 0:
        raise SingularCoefficientsError(
            "amp_ratio denominator vanishes at these parameters")
    if denom_mn == 0:
        raise SingularCoefficientsError(
            "resonant denominator: branch momentum squared equals the "
            "opposite complex-limit momentum squared"
        )
    sgn = 1.0 if br is Branch.PLUS else -1.0
    amp_ratio = momentum / denom_a
    j_chi = (energy - sgn * pot.v0 - mass + momentum * amp_ratio) / denom_mn
    j_sigma = (momentum + amp_ratio * (energy - sgn * pot.v0 + mass)) / denom_mn
    # an overflow in the momentum or a denominator makes one of these four
    # inf or nan, and one in amp_ratio reaches j_chi and j_sigma
    if not (abs(denom_a) < math.inf and abs(denom_mn) < math.inf
            and cmath.isfinite(j_chi) and cmath.isfinite(j_sigma)):
        raise InputError("energy %r: the mode coefficients overflow float64"
                         % (energy,))
    return ModeCoefficients(br, momentum, amp_ratio, j_chi, j_sigma)


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
        raise InputError("direction must be +1 or -1")
    _require_spin(spin)
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

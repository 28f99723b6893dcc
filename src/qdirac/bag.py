"""The confined quaternionic Dirac particle in a hard one-dimensional well.

The well is the infinite-mass bag limit: the wavefunction vanishes identically
outside [0, L] and the walls impose the no-flux conditions psi = beta*alpha3*
psi*i at z = 0 and psi = -beta*alpha3*psi*i at z = L (right-multiplication by
i). The z = 0 condition fixes the boundary phase of the standing wave through
cot(phase/2) = +-amp_ratio; the z = L condition then quantizes the momentum at
Q_n = n*pi/(2L).

A subtlety worth stating once: at z = L the standing-wave family satisfies two
scalar cotangent conditions that generically disagree; only their antisymmetry
combination

    g(Q) = cot(QL - phase/2) + cot(QL + phase/2)
         = 2*sin(2QL) / (cos(phase) - cos(2QL))

vanishes along the family, and its zeros are exactly Q_n = n*pi/(2L) for every
phase. quantization_residual computes g with the phase carried through the
physical energy chain; quantization_residual_grid is the same chain over a
whole array of momenta, with numpy's functions and masks in place of the
scalar guards. Verify scans g with the array form, which only brackets the
roots; every root it prints is the scalar quantization_residual bisected.
The full spinor mismatch at z = L is available separately
(boundary_residual) and is reported by the verify command rather than
asserted.

Energies, norms and densities are closed-form: at v0 != 0 the energy is a
root of a quadratic in E^2, the norm integrates the cos^2/sin^2(Qz -+ phase/2)
density exactly (Alberto, Fiolhais & Gil, Eur. J. Phys. 17 (1996) 19), and
density_split evaluates that form on whole arrays. The spinor (evaluate)
serves the wall checks and is the tests' oracle for the density.

solve_spectrum, stationary_wavefunction and normalize use math and cmath
only; numpy is imported by the array functions when they are called.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .dirac import QSpinor, _block_spinor, apply_matrix, build_matrices
from .quaternion import ZERO, Quaternion
from .step import (_MATH, Branch, PotentialStep, SingularCoefficientsError,
                   amp_denominator, as_branch, branch_mom2, mode_coefficients)

__all__ = [
    "NoSolutionError",
    "BoundaryPhase",
    "BagLevel",
    "StationaryWavefunction",
    "boundary_operator",
    "boundary_residual",
    "boundary_phase",
    "quantized_momenta",
    "quantization_residual",
    "quantization_residual_grid",
    "solve_spectrum",
    "stationary_wavefunction",
    "normalize",
    "density_profile",
]


class NoSolutionError(ValueError):
    """No energy in the admissible range carries the requested momentum."""


@dataclass(frozen=True)
class BoundaryPhase:
    """Phase offset of the standing wave fixed by the z = 0 wall.

    Lives in (0, 2*pi); the minus branch satisfies cot(phase/2) = amp_ratio,
    the plus branch cot(phase/2) = -amp_ratio.
    """

    branch: Branch
    phase: float


@dataclass(frozen=True)
class BagLevel:
    """One quantized confined state.

    momentum is the quantized wavenumber n*pi/(2L); eff_momentum is the
    shifted momentum (momentum + w_abs on the minus branch, - w_abs on the
    plus branch) whose square enters the energy. regime_flag marks plus-branch
    levels with momentum < w_abs, where the closed-form energy still follows
    from the squared shifted momentum but the travelling-mode decomposition
    behind the coefficients leaves its stated regime.
    """

    branch: Branch
    index: int
    momentum: float
    eff_momentum: float
    energy: float
    phase: float
    norm_const: float
    length: float
    regime_flag: bool = False


@dataclass(frozen=True)
class StationaryWavefunction:
    """Closed-form standing wave of one level; zero outside [0, length].

    w_factor is the complex representative of the quaternionic potential as it
    appears in this branch's spinor (conjugated on the plus branch); j_chi is
    the quaternionic admixture coefficient. amplitude A multiplies the whole
    spinor. With a, b = Qz -+ phase/2, wm = w_factor*j_chi and r = amp_ratio
    the density on [0, length] is, for either branch and spin, the complex part
    A^2 [cos^2 a + r^2 sin^2 a] plus the quaternionic part A^2 |wm|^2 [cos^2 b +
    r^2 sin^2 b], which normalize integrates in closed form.
    """

    branch: Branch
    spin: str
    momentum: float
    phase: float
    amp_ratio: float
    j_chi: float
    w_factor: complex
    length: float
    energy: float
    mass: float
    pot: PotentialStep
    amplitude: float = 1.0

    def evaluate(self, z: float) -> QSpinor:
        if z < 0.0 or z > self.length:
            return QSpinor([ZERO] * 4)
        a = self.momentum * z - 0.5 * self.phase
        b = self.momentum * z + 0.5 * self.phase
        wm = self.w_factor * self.j_chi
        chi_block = Quaternion(math.cos(a), -wm * math.cos(b))
        i_amp = 1j * self.amp_ratio
        if self.branch is Branch.MINUS:
            sigma_block = Quaternion(math.sin(a), wm * math.sin(b)) * i_amp
        else:
            sigma_block = i_amp * Quaternion(math.sin(a), -wm * math.sin(b))
        return _block_spinor(self.branch is Branch.MINUS, self.spin,
                             self.amplitude * chi_block, sigma_block, self.amplitude)

    def _weights(self):
        """(amplitude^2, amp_ratio^2, |wm|^2) of the closed-form density."""
        return (self.amplitude * self.amplitude, self.amp_ratio * self.amp_ratio,
                abs(self.w_factor * self.j_chi) ** 2)

    def density(self, z):
        rho_c, rho_q = self.density_split(z)
        return rho_c + rho_q

    def density_split(self, z):
        """(rho_c, rho_q) of the closed form above at z, a float or an array."""
        import numpy as np

        amp2, r2, wm2 = self._weights()
        z = np.asarray(z, dtype=float)
        outside = (z < 0.0) | (z > self.length)
        qz = self.momentum * np.clip(z, 0.0, self.length)  # masked below; no cos(inf)
        a, b = qz - 0.5 * self.phase, qz + 0.5 * self.phase
        rho_c = amp2 * (np.square(np.cos(a)) + r2 * np.square(np.sin(a)))
        rho_q = amp2 * wm2 * (np.square(np.cos(b)) + r2 * np.square(np.sin(b)))
        return np.where(outside, 0.0, rho_c)[()], np.where(outside, 0.0, rho_q)[()]


_ENDS = ("left", "right")


def boundary_operator(end: str):
    """The wall map psi -> +-beta*alpha3*psi*i ('left' is z=0, 'right' z=L).

    Both maps are involutions since (beta*alpha3)^2 = -identity; a spinor
    meets the no-flux condition at that wall exactly when it is a fixed point.
    """
    if end not in _ENDS:
        raise ValueError("end must be 'left' or 'right'")
    mats = build_matrices()
    ba = mats.beta @ mats.alpha[2]
    sign = 1.0 if end == "left" else -1.0

    def wall_map(psi: QSpinor) -> QSpinor:
        return apply_matrix(sign * ba, psi).scale_right(1j)

    return wall_map


def boundary_residual(psi: QSpinor, end: str) -> float:
    """Norm of the no-flux defect ||psi - wall_map(psi)|| at one wall."""
    return (psi - boundary_operator(end)(psi)).norm()


def boundary_phase(amp_ratio: float, branch) -> BoundaryPhase:
    """Standing-wave phase from the block amplitude ratio at the z = 0 wall.

    phase = 2*arccot(amp_ratio) on the minus branch and 2*arccot(-amp_ratio)
    on the plus branch, with arccot into (0, pi) -- the unique continuous
    choice. The tan identity tan(phase) = +-2A/(A^2 - 1) then holds wherever
    tan is finite.
    """
    br = as_branch(branch)
    if not math.isfinite(amp_ratio):
        raise ValueError("amp_ratio must be finite")
    a = amp_ratio if br is Branch.MINUS else -amp_ratio
    return BoundaryPhase(branch=br, phase=2.0 * math.atan2(1.0, a))


def quantized_momenta(length: float, n_max: int) -> list:
    """The quantized wavenumbers n*pi/(2*length), n = 1..n_max."""
    if not 0.0 < length < math.inf:
        raise ValueError("length must be finite and > 0, got %r" % length)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not math.isfinite(n_max * math.pi / (2.0 * length)):
        raise ValueError("length %r is too small: the momentum %d*pi/(2*length) "
                         "overflows float64" % (length, n_max))
    return [n * math.pi / (2.0 * length) for n in range(1, n_max + 1)]


def _energy_root(momentum, mass, pot, branch, xp):
    """(energy, in_range): the energy at which the branch's travelling
    momentum equals `momentum`, nan where none does.

    The one written form: _energy_for_momentum passes a float and
    step._MATH as xp, quantization_residual_grid a float64 array and numpy.
    With v0 = 0, p = momentum +- w_abs per branch, and p <= 0 has no energy.
    With v0 != 0, X = E^2 and r = Q^2 - v0^2 + m^2 - w^2, mom2 = Q^2 reads
    -+2*sqrt(X v0^2 + (X - m^2) w^2) = r - X and squares to
    X^2 - 2*half_b*X + c = 0. E^2 is its smallest root with X > m^2 that
    keeps the unsquared sign (X >= r minus, X <= r plus). half_b =
    Q^2 + v0^2 + m^2 + w^2 >= 0, so the small root c/big does not cancel.
    in_range is false where disc overflows or big underflows to 0.
    """
    minus = branch is Branch.MINUS
    if pot.v0 == 0.0:
        p = momentum + pot.w_abs if minus else momentum - pot.w_abs
        return xp.hypot(xp.where(p > 0.0, p, math.nan), mass), True
    m2 = mass * mass
    w2 = pot.w_abs * pot.w_abs
    r = momentum * momentum - pot.v0 * pot.v0 + m2 - w2
    half_b = r + 2.0 * (pot.v0 * pot.v0 + w2)
    c = r * r + 4.0 * m2 * w2
    disc = half_b * half_b - c
    big = half_b + xp.sqrt(xp.where(disc >= 0.0, disc, math.nan))
    in_range = (abs(disc) < math.inf) & (big != 0.0)
    big = xp.where(in_range, big, math.nan)
    small = c / big
    lo, hi = xp.where(small < big, small, big), xp.where(small < big, big, small)

    def admissible(x):
        return (x > m2) & ((x >= r) if minus else (x <= r))

    x = xp.where(admissible(lo), lo, xp.where(admissible(hi), hi, math.nan))
    return xp.sqrt(x), in_range


def _energy_for_momentum(momentum: float, mass: float, pot: PotentialStep,
                         branch: Branch, level=None) -> float:
    """_energy_root at one momentum. nan where v0 = 0 and no energy carries
    it (so residual scans can skip the region); NoSolutionError where
    v0 != 0 and none does; ValueError, naming the level if given, where the
    quadratic in E^2 leaves float64 range."""
    energy, in_range = _energy_root(momentum, mass, pot, branch, _MATH)
    if not in_range:
        at = "" if level is None else "level %d at " % level
        raise ValueError("%smomentum %r: the quadratic in E^2 leaves float64 "
                         "range" % (at, momentum))
    if math.isnan(energy) and pot.v0 != 0.0:
        raise NoSolutionError(
            "no energy above the mass %g carries momentum %g on the %s branch"
            % (mass, momentum, branch.value))
    return energy


def _residual_chain(momentum, energy, mass, pot, length, branch, xp):
    """(g, regular, amp): g(Q) from a level's energy, through amp_ratio and
    the boundary phase, operation for operation as mode_coefficients and
    boundary_phase compute them.

    The one written form: quantization_residual passes floats and
    step._MATH as xp, quantization_residual_grid float64 arrays and numpy.
    branch_mom2 takes the same xp; amp_denominator uses only +, -, * and /
    and takes none. regular is false where a denominator of
    mode_coefficients vanishes; amp is amp_ratio.real, nan where it is not
    finite. g = cot a + cot b = num/den is +-inf at a pole, nan where num and
    den are both 0.
    """
    plus = branch is Branch.PLUS
    _, q2_plus, q2_minus, delta, mom2_plus, mom2_minus = branch_mom2(
        energy, mass, pot.v0, pot.w_abs, xp)
    mom2 = mom2_plus if plus else mom2_minus
    q2_other = q2_minus if plus else q2_plus
    denom_a = amp_denominator(energy, mass, pot.v0, delta, 1.0 if plus else -1.0)
    regular = (denom_a != 0.0) & (q2_other - mom2 != 0.0)
    # principal_momentum is imaginary for mom2 < 0: amp_ratio.real is then 0
    amp = (xp.sqrt(xp.where(mom2 < 0.0, 0.0, mom2))
           / xp.where(regular, denom_a, math.nan))
    amp = xp.where(abs(amp) < math.inf, amp, math.nan)
    phase = 2.0 * xp.arctan2(1.0, -amp if plus else amp)
    a = momentum * length - 0.5 * phase
    b = momentum * length + 0.5 * phase
    num, den = xp.sin(a + b), xp.sin(a) * xp.sin(b)
    pole = xp.where(num != 0.0, xp.copysign(math.inf, num), math.nan)
    g = xp.where(den == 0.0, pole, num / xp.where(den == 0.0, math.nan, den))
    return g, regular, amp


def quantization_residual(momentum: float, mass: float, pot: PotentialStep,
                          length: float, branch) -> float:
    """The z = L antisymmetry defect g(Q) of the standing-wave family.

    Zero exactly at the quantized momenta n*pi/(2L); diverges at the poles
    where the two cotangent conditions collide. nan where the energy chain
    leaves its regime (plus branch at momentum <= w_abs with v0 = 0).
    """
    if mass < 0:
        raise ValueError("mass must be >= 0")
    br = as_branch(branch)
    energy = _energy_for_momentum(momentum, mass, pot, br)
    if not mass < energy < math.inf:
        return math.nan
    g, regular, amp = _residual_chain(momentum, energy, mass, pot, length, br, _MATH)
    if not regular:
        raise SingularCoefficientsError("coefficients singular at E = %r" % energy)
    if math.isnan(amp):
        raise ValueError("amp_ratio is not finite at energy %r" % energy)
    return g


def quantization_residual_grid(momenta, mass: float, pot: PotentialStep,
                               length: float, branch):
    """quantization_residual at every momentum of a float64 array, in one pass.

    The same _energy_root and _residual_chain on numpy, with masks where the
    scalar form tests: every point where it returns nan or raises is nan
    here. np.hypot and np.arctan2 may differ from math's in the last bit, so
    these values choose root brackets; refine a root with the scalar form.
    """
    import numpy as np

    br = as_branch(branch)
    q = np.asarray(momenta, dtype=np.float64)
    # where the E^2 quadratic leaves float64 range its terms overflow to inf
    # and inf - inf; the masks turn those lanes into nan
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _energy_root(q, mass, pot, br, np)[0]
        energy = np.where((mass < energy) & (energy < np.inf) & (mass >= 0.0),
                          energy, np.nan)
        return _residual_chain(q, energy, mass, pot, length, br, np)[0]


def solve_spectrum(mass: float, pot: PotentialStep, length: float, n_max: int,
                   branch) -> list:
    """All confined levels of one branch up to n_max.

    With v0 = 0 the energy is closed-form: E_n^2 = eff_momentum^2 + mass^2
    with eff_momentum = Q_n + w_abs (minus) or Q_n - w_abs (plus). With
    v0 != 0 it is a root of the quadratic in E^2 of _energy_for_momentum;
    eff_momentum is still reported as the shifted wavenumber and the closed
    form is checked by the verify command as a diagnostic, not assumed here.
    norm_const comes from normalize's closed-form integral. Plus-branch
    levels with Q_n < w_abs carry regime_flag; Q_n = w_abs puts the level
    exactly on the mass shell where the coefficients are singular, which
    raises.
    """
    if not (math.isfinite(mass) and mass >= 0):
        raise ValueError("mass must be finite and >= 0, got %r" % (mass,))
    br = as_branch(branch)
    shift = pot.w_abs if br is Branch.MINUS else -pot.w_abs
    levels = []
    for n, q_n in enumerate(quantized_momenta(length, n_max), start=1):
        eff = q_n + shift
        if pot.v0 == 0.0:
            energy = math.hypot(eff, mass)
        else:
            energy = _energy_for_momentum(q_n, mass, pot, br, n)
        regime = br is Branch.PLUS and q_n < pot.w_abs
        mc = mode_coefficients(energy, mass, pot, br)
        if not all(map(cmath.isfinite, (mc.amp_ratio, mc.j_chi, mc.j_sigma))):
            raise ValueError("level %d at energy %r: the mode coefficients "
                             "overflow float64" % (n, energy))
        ph = boundary_phase(mc.amp_ratio.real, br).phase
        level = BagLevel(branch=br, index=n, momentum=q_n, eff_momentum=eff,
                         energy=energy, phase=ph, norm_const=1.0, length=length,
                         regime_flag=regime)
        norm_const, _ = normalize(stationary_wavefunction(level, mass, pot))
        levels.append(replace(level, norm_const=norm_const))
    return levels


def stationary_wavefunction(level: BagLevel, mass: float, pot: PotentialStep,
                            spin: str = "up") -> StationaryWavefunction:
    """The standing-wave evaluator for one confined level.

    The chi block carries cos(Qz - phase/2) minus the j-admixture at the
    shifted argument; the sigma3*chi block carries the matching sines times
    i*amp_ratio (right factor on the minus branch, left factor on the plus
    branch, whose spinor also conjugates the potential representative and
    swaps the block order). The level's norm_const enters as the amplitude.
    """
    if spin not in ("up", "down"):
        raise ValueError("spin must be 'up' or 'down'")
    mc = mode_coefficients(level.energy, mass, pot, level.branch)
    w_factor = pot.w0 if level.branch is Branch.MINUS else pot.w0.conjugate()
    return StationaryWavefunction(
        branch=level.branch,
        spin=spin,
        momentum=level.momentum,
        phase=level.phase,
        amp_ratio=mc.amp_ratio.real,
        j_chi=mc.j_chi.real,
        w_factor=w_factor,
        length=level.length,
        energy=level.energy,
        mass=mass,
        pot=pot,
        amplitude=level.norm_const,
    )


def normalize(psi: StationaryWavefunction):
    """Rescale so the density integrates to 1 over the well.

    Returns (norm_const, normalized wavefunction); norm_const is the total
    amplitude of the normalized state. Closed form of the density integral:
    int_0^L cos^2(Qz + s) dz = L/2 + [sin(2QL + 2s) - sin(2s)]/(4Q), and sin^2
    gives L/2 minus the same term. ValueError unless it is finite and > 0.
    """
    q, length, phase = psi.momentum, psi.length, psi.phase
    amp2, r2, wm2 = psi._weights()
    osc_a = (math.sin(2.0 * q * length - phase) + math.sin(phase)) / (4.0 * q)
    osc_b = (math.sin(2.0 * q * length + phase) - math.sin(phase)) / (4.0 * q)
    total = amp2 * (
        0.5 * length * (1.0 + r2) * (1.0 + wm2) + (1.0 - r2) * (osc_a + wm2 * osc_b))
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError("cannot normalize: the density integrates to %r" % total)
    norm_const = psi.amplitude / math.sqrt(total)
    return norm_const, replace(psi, amplitude=norm_const)


def density_profile(psi: StationaryWavefunction, grid_points: int):
    """Sampled (z, density) arrays on a uniform grid over the well."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    import numpy as np

    z = np.linspace(0.0, psi.length, grid_points)
    return z, psi.density(z)

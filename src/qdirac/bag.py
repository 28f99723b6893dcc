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
physical energy chain, whose coefficient denominators are mode_coefficients'
own (step._branch_denominators); quantization_residual_grid is the same chain
over a whole array of momenta, with numpy's functions and masks in place of
the scalar guards. Verify scans g with the array form, which only brackets the
roots; report._scan_roots rules out the brackets that hold a pole by g's
numerator sin(2QL), which it computes itself, and every root it prints is the
scalar quantization_residual bisected.
The full spinor mismatch at z = L (boundary_residual) is reported by the
verify command rather than asserted.

Energies, norms and densities are closed-form: the energy is a root of a
quadratic in E^2 (a hypot at v0 = 0), _density_integral (the one written norm
integral) integrates the cos^2/sin^2(Qz -+ phase/2) density exactly (Alberto,
Fiolhais & Gil, Eur. J. Phys. 17 (1996) 19), and density_split evaluates that
form on whole arrays. solve_spectrum solves each level's mode coefficients once
and the BagLevel carries them with its w_factor, so stationary_wavefunction
solves nothing and reads nothing of the well. _phase is the one phase formula.
The spinor (evaluate) serves the wall checks and is the tests' density oracle.

solve_spectrum, stationary_wavefunction and normalize use math only;
numpy is imported by the array functions when they are called.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .dirac import (InputError, NoSolutionError, QSpinor, SingularCoefficientsError,
                    _block_spinor, _built, _momentum_ladder, _norm, _pairs, _record,
                    _require_count, _require_finite, _require_length, _require_mass,
                    _require_real, _require_spin, _row_sums)
from .quaternion import ZERO, Quaternion
from .step import (_MATH, Branch, PotentialStep, _branch_denominators, as_branch,
                   mode_coefficients)

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


@_record
class BoundaryPhase:
    """Phase offset of the standing wave fixed by the z = 0 wall.

    Lives in (0, 2*pi); the minus branch satisfies cot(phase/2) = amp_ratio,
    the plus branch cot(phase/2) = -amp_ratio.
    """

    branch: Branch
    phase: float


@_record
class BagLevel:
    """One quantized confined state.

    momentum is the quantized wavenumber n*pi/(2L); eff_momentum is the
    shifted momentum (momentum + w_abs on the minus branch, - w_abs on the
    plus branch) whose square enters the energy (one root per branch of
    bag._energy_root, continuous in v0). regime_flag marks plus-branch
    levels with momentum < w_abs, where the closed-form energy still follows
    from the squared shifted momentum but the travelling-mode decomposition
    behind the coefficients leaves its stated regime. amp_ratio (which fixes
    the phase) and j_chi are the real parts of the level's mode coefficients
    and w_factor is the potential's w0 in this branch's spinor (conjugated on
    the plus branch): every weight of the level's density.
    """

    branch: Branch
    index: int
    momentum: float
    eff_momentum: float
    energy: float
    phase: float
    norm_const: float
    length: float
    amp_ratio: float
    j_chi: float
    w_factor: complex
    regime_flag: bool = False


@_record
class StationaryWavefunction:
    """Closed-form standing wave of one level; zero outside [0, length].

    w_factor is the complex representative of the quaternionic potential as it
    appears in this branch's spinor (conjugated on the plus branch); j_chi is
    the quaternionic admixture coefficient. amplitude A multiplies the whole
    spinor. With a, b = Qz -+ phase/2, wm = w_factor*j_chi and r = amp_ratio
    the density on [0, length] is, for either branch and spin, the complex part
    A^2 [cos^2 a + r^2 sin^2 a] plus the quaternionic part A^2 |wm|^2 [cos^2 b +
    r^2 sin^2 b], which _density_integral integrates in closed form.
    """

    branch: Branch
    spin: str
    momentum: float
    phase: float
    amp_ratio: float
    j_chi: float
    w_factor: complex
    length: float
    amplitude: float = 1.0

    def evaluate(self, z: float) -> QSpinor:
        """The spinor at z. InputError where z or a real field is no real
        number in float64 range, or where an infinite momentum or phase
        makes the angles of the wave infinite."""
        _require_real(z=z)
        self._require_fields()
        if z < 0.0 or z > self.length:
            return QSpinor([ZERO] * 4)
        a = self.momentum * z - 0.5 * self.phase
        b = self.momentum * z + 0.5 * self.phase
        if math.isinf(a) or math.isinf(b):
            raise InputError("momentum %r, phase %r: the wave's angles at z = %r are "
                             "infinite" % (self.momentum, self.phase, z))
        wm = self.w_factor * self.j_chi
        chi_block = Quaternion(math.cos(a), -wm * math.cos(b))
        i_amp = 1j * self.amp_ratio
        if self.branch is Branch.MINUS:
            sigma_block = Quaternion(math.sin(a), wm * math.sin(b)) * i_amp
        else:
            sigma_block = i_amp * Quaternion(math.sin(a), -wm * math.sin(b))
        return _block_spinor(self.branch is Branch.MINUS, self.spin,
                             self.amplitude * chi_block, self.amplitude * sigma_block)

    def _require_fields(self):
        """InputError naming the first real field that is no real number in
        float64 range, which the arithmetic would refuse bare."""
        _require_real(momentum=self.momentum, phase=self.phase, amp_ratio=self.amp_ratio,
                      j_chi=self.j_chi, amplitude=self.amplitude)

    def _weights(self):
        """(amplitude^2, amp_ratio^2, |wm|^2) of the closed-form density,
        after _require_fields. InputError where |wm| passes about 1.34e154:
        a float's ** 2 raises OverflowError there (x * x would round
        differently; see dirac._norm)."""
        self._require_fields()
        try:
            wm2 = abs(self.w_factor * self.j_chi) ** 2
        except OverflowError:
            raise InputError("w_factor %r, j_chi %r: the density weight |w_factor*j_chi|^2 "
                             "overflows float64" % (self.w_factor, self.j_chi)) from None
        return self.amplitude * self.amplitude, self.amp_ratio * self.amp_ratio, wm2

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


def _wall_rows(end):
    """dirac._built's row table of the wall at end; the tuple test first, so
    that an unhashable end is an InputError too."""
    if end not in ("left", "right"):
        raise InputError("end must be 'left' or 'right'")
    return _built().walls[end]


def boundary_operator(end: str):
    """The wall map psi -> +-beta*alpha3*psi*i ('left' is z=0, 'right' z=L).

    Both maps are involutions since (beta*alpha3)^2 = -identity; a spinor
    meets the no-flux condition at that wall exactly when it is a fixed point.
    """
    rows = _wall_rows(end)

    def wall_map(psi: QSpinor) -> QSpinor:
        return QSpinor([Quaternion(u * 1j, w * 1j)
                        for u, w in _row_sums(rows, _pairs(psi))])

    return wall_map


def boundary_residual(psi: QSpinor, end: str) -> float:
    """Norm of the no-flux defect ||psi - wall_map(psi)|| at one wall.

    The components are carried as (u, w) pairs through the operations of
    the QSpinor form, which is the test oracle
    (tests/oracles.boundary_residual_by_quaternions).
    """
    rows = _wall_rows(end)
    pairs = _pairs(psi)
    return _norm([(u - mu * 1j, w - mw * 1j)
                  for (u, w), (mu, mw) in zip(pairs, _row_sums(rows, pairs))])


def boundary_phase(amp_ratio: float, branch) -> BoundaryPhase:
    """Standing-wave phase from the block amplitude ratio at the z = 0 wall.

    phase = 2*arccot(amp_ratio) on the minus branch and 2*arccot(-amp_ratio)
    on the plus branch, with arccot into (0, pi) -- the unique continuous
    choice. The tan identity tan(phase) = +-2A/(A^2 - 1) then holds wherever
    tan is finite.
    """
    br = as_branch(branch)
    _require_finite(amp_ratio=amp_ratio)
    return BoundaryPhase(branch=br, phase=_phase(amp_ratio, br is Branch.PLUS, _MATH))


def _phase(amp, plus, xp):
    """2*arccot(amp) (minus), 2*arccot(-amp) (plus); xp as in _residual_chain."""
    return 2.0 * xp.arctan2(1.0, -amp if plus else amp)


def quantized_momenta(length: float, n_max: int) -> list:
    """The quantized wavenumbers n*pi/(2*length), n = 1..n_max, formed as
    n*pi/2/length: the same bits wherever 2*length is finite, and never 0."""
    return _momentum_ladder(length, n_max, 2.0)


def _energy_root(momentum, mass, pot, branch, xp):
    """(energy, in_range): the energy at which the branch's travelling
    momentum equals `momentum`, nan where none does.

    The one written form: _energy_for_momentum passes a float and
    step._MATH as xp, quantization_residual_grid a float64 array and numpy.
    X = E^2 and r = Q^2 - v0^2 + m^2 - w^2: mom2 = Q^2 reads
    -+2*sqrt(X v0^2 + (X - m^2) w^2) = r - X and squares to
    X^2 - 2*half_b*X + c = 0, half_b = r + 2(v0^2 + w^2). Its larger root
    big is > r and > m^2, so the minus branch (X >= r) takes big and the
    plus branch (X <= r) the smaller root c/big, which does not cancel: nan
    where that fails X > m^2 or X <= r (on the minus branch the mask only
    guards rounding). in_range is false where disc overflows or big
    underflows to 0. v0 = 0, decided here alone, is the degenerate case
    hypot(Q +- w_abs, m): an energy at every momentum, the regime band
    Q < w_abs of the plus branch included, out of range where it overflows.
    """
    minus = branch is Branch.MINUS
    if pot.v0 == 0.0:
        energy = xp.hypot(momentum + pot.w_abs if minus else momentum - pot.w_abs, mass)
        return energy, energy < math.inf
    m2 = mass * mass
    w2 = pot.w_abs * pot.w_abs
    r = momentum * momentum - pot.v0 * pot.v0 + m2 - w2
    half_b = r + 2.0 * (pot.v0 * pot.v0 + w2)
    c = r * r + 4.0 * m2 * w2
    disc = half_b * half_b - c
    big = half_b + xp.sqrt(xp.where(disc >= 0.0, disc, math.nan))
    in_range = (abs(disc) < math.inf) & (big != 0.0)
    big = xp.where(in_range, big, math.nan)
    x = big if minus else c / big
    x = xp.where((x > m2) & ((x >= r) if minus else (x <= r)), x, math.nan)
    return xp.sqrt(x), in_range


def _energy_for_momentum(momentum: float, mass: float, pot: PotentialStep,
                         branch: Branch) -> float:
    """_energy_root at one momentum, nan where no energy carries it;
    InputError where it leaves float64 range."""
    energy, in_range = _energy_root(momentum, mass, pot, branch, _MATH)
    if not in_range:
        raise InputError("momentum %r: the quadratic in E^2 leaves float64 "
                         "range" % (momentum,))
    return energy


def _residual_chain(momentum, energy, mass, pot, length, branch, xp):
    """(g, regular, amp): g(Q) from a level's energy, through amp_ratio and
    the boundary phase.

    The one written form: quantization_residual passes floats and
    step._MATH as xp, quantization_residual_grid float64 arrays and numpy.
    The denominators are mode_coefficients' own (step._branch_denominators,
    same xp). Above the mass shell, regular is false exactly where
    mode_coefficients raises; E = m divides by zero and the callers skip it.
    amp is amp_ratio.real, nan where it is not finite. g = cot a + cot b =
    num/den is +-inf at a pole, nan where num and den are both 0.
    """
    plus = branch is Branch.PLUS
    mom2, denom_a, denom_mn = _branch_denominators(
        energy, mass, pot.v0, pot.w_abs, plus, xp)
    regular = (denom_a != 0.0) & (denom_mn != 0.0)
    # principal_momentum is imaginary for mom2 < 0: amp_ratio.real is then 0
    amp = (xp.sqrt(xp.where(mom2 < 0.0, 0.0, mom2))
           / xp.where(regular, denom_a, math.nan))
    amp = xp.where(abs(amp) < math.inf, amp, math.nan)
    phase = _phase(amp, plus, xp)
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
    where the two cotangent conditions collide. nan where no energy above
    the mass carries the momentum, at every v0 (see _energy_root).
    A negative or non-finite mass, and a momentum or length that is not
    finite and > 0, raise InputError. Floats pass on one comparison chain
    (verify calls this in its bisections); any other argument goes through
    the named checks, which decide on their own.
    So does a momentum whose energy or mode coefficients overflow float64,
    or whose phase 2*momentum*length does.
    """
    if not (type(momentum) is float and type(mass) is float and type(length) is float
            and 0.0 <= mass < math.inf and 0.0 < length < math.inf
            and 0.0 < momentum < math.inf and 2.0 * (momentum * length) < math.inf):
        _require_mass(mass)
        _require_length(length)
        _require_real(momentum=momentum)
        if not 0.0 < momentum < math.inf:
            raise InputError("momentum must be finite and > 0, got %r" % (momentum,))
        if not 2.0 * (momentum * length) < math.inf:
            raise InputError("momentum %r, length %r: the phase 2*momentum*length "
                             "overflows float64" % (momentum, length))
    br = as_branch(branch)
    energy = _energy_for_momentum(momentum, mass, pot, br)
    if not mass < energy:
        return math.nan
    g, regular, amp = _residual_chain(momentum, energy, mass, pot, length, br, _MATH)
    if not regular:
        raise SingularCoefficientsError("coefficients singular at E = %r" % energy)
    if math.isnan(amp):
        # regular and mass < energy: only float64 overflow is left
        raise InputError("momentum %r: the mode coefficients overflow float64"
                         % (momentum,))
    return g


def quantization_residual_grid(momenta, mass: float, pot: PotentialStep,
                               length: float, branch):
    """quantization_residual at every momentum of a float64 array, in one pass.

    The same _energy_root and _residual_chain on numpy, with masks where the
    scalar form tests a momentum: every point where it returns nan or raises
    is nan here, a momentum that is nan or <= 0 included. A mass or length
    that the scalar form refuses raises the same InputError. np.hypot and
    np.arctan2 may differ from math's in the last bit, so these values
    choose root brackets; refine a root with the scalar form.
    """
    import numpy as np

    _require_mass(mass)
    _require_length(length)
    br = as_branch(branch)
    q = np.asarray(momenta, dtype=np.float64)
    # where the E^2 quadratic leaves float64 range its terms overflow to inf
    # and inf - inf; the masks turn those lanes into nan
    with np.errstate(over="ignore", invalid="ignore"):
        energy = _energy_root(q, mass, pot, br, np)[0]
        energy = np.where((mass < energy) & (energy < np.inf) & (q > 0.0), energy, np.nan)
        return _residual_chain(q, energy, mass, pot, length, br, np)[0]


def solve_spectrum(mass: float, pot: PotentialStep, length: float, n_max: int,
                   branch) -> list:
    """All confined levels of one branch up to n_max.

    Each energy is _energy_for_momentum's root of the quadratic in E^2,
    closed-form at v0 = 0: E_n^2 = eff_momentum^2 + mass^2, where
    eff_momentum = Q_n + w_abs (minus) or Q_n - w_abs (plus) is the shifted
    wavenumber reported at every v0 and checked by verify as a diagnostic.
    A level that no energy carries raises NoSolutionError, and an InputError
    from a level's energy or coefficients gets the prefix "level N at ", as
    does the one where its density weight |w_factor*j_chi|^2 overflows
    float64 (past about 1.34e154, where a float's ** 2 raises OverflowError).
    Each level's one mode_coefficients call gives the amp_ratio and j_chi it
    carries, its phase and, with its w_factor, its norm_const.
    Plus-branch levels with Q_n < w_abs carry regime_flag; Q_n = w_abs puts
    the level exactly on the mass shell where the coefficients are singular,
    which raises.
    """
    _require_mass(mass)
    br = as_branch(branch)
    shift = pot.w_abs if br is Branch.MINUS else -pot.w_abs
    w_factor = pot.w0 if br is Branch.MINUS else pot.w0.conjugate()
    levels = []
    for n, q_n in enumerate(quantized_momenta(length, n_max), start=1):
        try:
            energy = _energy_for_momentum(q_n, mass, pot, br)
            if math.isnan(energy):
                raise NoSolutionError(
                    "no energy above the mass %g carries momentum %g on the %s branch"
                    % (mass, q_n, br.value))
            mc = mode_coefficients(energy, mass, pot, br)
        except InputError as exc:
            raise InputError("level %d at %s" % (n, exc)) from None
        amp, j_chi = mc.amp_ratio.real, mc.j_chi.real
        ph = _phase(amp, br is Branch.PLUS, _MATH)
        try:
            wm2 = abs(w_factor * j_chi) ** 2
        except OverflowError:
            raise InputError("level %d at momentum %r: j_chi %r makes the density weight "
                             "|w0*j_chi|^2 overflow float64" % (n, q_n, j_chi)) from None
        total = _density_integral(q_n, length, ph, 1.0, amp * amp, wm2)
        levels.append(BagLevel(br, n, q_n, q_n + shift, energy, ph,
                               1.0 / math.sqrt(total), length, amp, j_chi, w_factor,
                               br is Branch.PLUS and q_n < pot.w_abs))
    return levels


def stationary_wavefunction(level: BagLevel, mass: float, pot: PotentialStep,
                            spin: str = "up") -> StationaryWavefunction:
    """The standing-wave evaluator for one confined level.

    The chi block carries cos(Qz - phase/2) minus the j-admixture at the
    shifted argument; the sigma3*chi block carries the matching sines times
    i*amp_ratio (right factor on the minus branch, left factor on the plus
    branch, whose spinor also conjugates the potential representative and
    swaps the block order). The level's norm_const enters as the amplitude.
    Nothing is solved and mass and pot are not read: amp_ratio, j_chi and
    w_factor are read off the level, as solved in its own well.
    """
    _require_spin(spin)
    return StationaryWavefunction(level.branch, spin, level.momentum, level.phase,
                                  level.amp_ratio, level.j_chi, level.w_factor,
                                  level.length, level.norm_const)


def _density_integral(q, length, phase, amp2, r2, wm2):
    """int_0^L of the density at the weights (amp2, r2, wm2) of
    StationaryWavefunction._weights, for normalize and solve_spectrum:
    int_0^L cos^2(Qz + s) dz = L/2 + [sin(2QL + 2s) - sin(2s)]/(4Q), and
    sin^2 gives L/2 minus that. InputError unless it is finite and > 0."""
    osc_a = (math.sin(2.0 * q * length - phase) + math.sin(phase)) / (4.0 * q)
    osc_b = (math.sin(2.0 * q * length + phase) - math.sin(phase)) / (4.0 * q)
    total = amp2 * (
        0.5 * length * (1.0 + r2) * (1.0 + wm2) + (1.0 - r2) * (osc_a + wm2 * osc_b))
    if not (math.isfinite(total) and total > 0.0):
        raise InputError("cannot normalize: the density integrates to %r" % total)
    return total


def normalize(psi: StationaryWavefunction):
    """Rescale so the density integrates to 1 over the well. Returns
    (norm_const, normalized wavefunction); norm_const is the total amplitude
    of the normalized state. InputError where the momentum is 0 or either
    it or the phase is not finite: the closed form divides by the momentum
    and takes sines of both."""
    if not (0.0 < abs(psi.momentum) < math.inf and abs(psi.phase) < math.inf):
        raise InputError("cannot normalize at momentum %r, phase %r: both must be "
                         "finite and the momentum nonzero" % (psi.momentum, psi.phase))
    total = _density_integral(psi.momentum, psi.length, psi.phase, *psi._weights())
    norm_const = psi.amplitude / math.sqrt(total)
    return norm_const, replace(psi, amplitude=norm_const)


def density_profile(psi: StationaryWavefunction, grid_points: int):
    """(z, density) arrays on a uniform grid of grid_points, an int >= 2."""
    _require_count("grid_points", grid_points, 2)
    import numpy as np

    z = np.linspace(0.0, psi.length, grid_points)
    return z, psi.density(z)

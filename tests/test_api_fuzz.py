"""Public-API fuzz: every call returns what its docstring promises or raises
one of the library's typed errors.

Floats are drawn from an ordinary range, from the edges of float64 (NaN,
+-inf, +-0, +-1e308, 5e-324, and the ints +-10**400 beyond its range, which
float() refuses) and from all floats; counts are bounded ints, with 3.0,
10**400 and (as a grid size only) 2**63 as examples.
test_solve_spectrum also draws a well (mass 1e-200, v0 = pi, w_abs 1e-8,
length 1e12) whose level 1 has |w0*j_chi| beyond 1e154, so its density
weight overflows float64.
The draws are derandomized and their number is fixed. A call may raise
InputError, NoSolutionError or SingularCoefficientsError; any other
exception, or a return value outside its promise, fails the test.
"""

import cmath
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdirac import (
    BagLevel,
    BranchKinematics,
    InputError,
    ModeCoefficients,
    NonRelLevel,
    NonRelParams,
    NoSolutionError,
    PotentialStep,
    SingularCoefficientsError,
    StationaryWavefunction,
    Zone,
    density_profile,
    evanescent_width,
    kinematics,
    mode_coefficients,
    nr_parameters,
    nr_quantize,
    quantization_residual,
    solve_spectrum,
    stationary_wavefunction,
)

TYPED = (InputError, NoSolutionError, SingularCoefficientsError)
EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324,
         10**400, -10**400)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def floats(low, high):
    """Half ordinary values in [low, high], so that many calls get past the
    argument checks, and half float64 edges or any float at all."""
    ordinary = st.floats(low, high)
    return st.one_of(ordinary, ordinary, st.sampled_from(EDGES), st.floats())


MASS, SIGNED, POSITIVE = floats(0.0, 4.0), floats(-4.0, 4.0), floats(1e-3, 4.0)
ENERGY = floats(0.0, 12.0)
BRANCH = st.sampled_from(("minus", "plus", "up"))
SPIN = st.sampled_from(("up", "down", "sideways"))
COUNT = st.integers(-2, 12)


def finite(*values):
    return all(cmath.isfinite(v) for v in values)


def call(fn, *args):
    """fn(*args), or None where it raises one of the typed errors."""
    try:
        return fn(*args)
    except TYPED:
        return None


@FUZZ
@given(ENERGY, MASS, SIGNED, POSITIVE)
@example(10**400, 1.0, 0.3, 0.5)  # once OverflowError from float(energy)
def test_kinematics(energy, mass, v0, w_abs):
    pot = call(PotentialStep, v0, w_abs)
    kin = pot and call(kinematics, energy, mass, pot)
    if kin is not None:
        assert type(kin) is BranchKinematics
        assert finite(kin.p2, kin.q2_plus, kin.q2_minus, kin.delta, kin.mom2_plus,
                      kin.mom2_minus)
        assert kin.zone_minus in Zone and kin.zone_plus is Zone.DIFFUSION


@FUZZ
@given(MASS, SIGNED, SIGNED)
@example(1.0, math.inf, 0.0)
@example(1.0, math.nan, 0.0)
@example(1e308, 1e308, 0.0)
@example(1.0, 0.5, -1.0)
def test_evanescent_width(mass, v0, w_abs):
    edges = call(evanescent_width, mass, v0, w_abs)
    if edges is not None:
        e_low, e_up, width = edges
        assert not w_abs < 0
        assert finite(e_low, e_up, width)
        assert mass <= e_low <= e_up and width == e_up - e_low


@FUZZ
@given(ENERGY, MASS, SIGNED, POSITIVE, BRANCH)
@example(1e200, 1.0, 0.3, 0.5, "minus")
@example(1e155, 1.0, 0.3, 0.5, "plus")
def test_mode_coefficients(energy, mass, v0, w_abs, branch):
    pot = call(PotentialStep, v0, w_abs)
    mc = pot and call(mode_coefficients, energy, mass, pot, branch)
    if mc is not None:
        assert type(mc) is ModeCoefficients
        assert finite(mc.momentum, mc.amp_ratio, mc.j_chi, mc.j_sigma)


def levels_are_sound(levels, n_max, mass, length):
    assert [lvl.index for lvl in levels] == list(range(1, n_max + 1))
    for lvl in levels:
        assert type(lvl) is BagLevel and lvl.length == length
        assert finite(lvl.momentum, lvl.eff_momentum, lvl.energy, lvl.phase,
                      lvl.norm_const, lvl.amp_ratio, lvl.j_chi, lvl.w_factor)
        assert lvl.energy >= mass and lvl.norm_const > 0.0


@FUZZ
@given(MASS, SIGNED, POSITIVE, POSITIVE, COUNT, BRANCH)
@example(1.0, 0.3, 0.5, 1.0, 3.0, "minus")  # once TypeError from range
@example(1.0, 0.3, 0.5, 1.0, 10**400, "minus")  # once OverflowError from n_max * pi
@example(10**400, 0.3, 0.5, 1.0, 2, "minus")  # once OverflowError from float(mass)
@example(1e-200, 3.141592653589793, 1e-8, 1e12, 1, "minus")  # once OverflowError: |w0 j_chi|^2
def test_solve_spectrum(mass, v0, w_abs, length, n_max, branch):
    pot = call(PotentialStep, v0, w_abs)
    levels = pot and call(solve_spectrum, mass, pot, length, n_max, branch)
    if levels is not None:
        levels_are_sound(levels, n_max, mass, length)
        # each level's real-arithmetic coefficients are the real parts of
        # the complex ones at its energy, bit for bit
        for lvl in levels:
            mc = mode_coefficients(lvl.energy, mass, pot, branch)
            assert [float.hex(lvl.amp_ratio), float.hex(lvl.j_chi)] == [
                float.hex(mc.amp_ratio.real), float.hex(mc.j_chi.real)]


@FUZZ
@given(MASS, SIGNED, POSITIVE, SIGNED, POSITIVE, st.integers(1, 4), BRANCH, SPIN,
       st.integers(-2, 64))
@example(1.0, 0.3, 0.5, 0.0, 1.0, 2, "minus", "up", 3.0)  # once TypeError
@example(1.0, 0.3, 0.5, 0.0, 1.0, 2, "minus", "up", 10**400)  # once a bare ValueError
@example(1.0, 0.3, 0.5, 0.0, 1.0, 2, "minus", "up", 2**63)  # once IndexError
def test_stationary_wavefunction_and_density_profile(mass, v0, w_abs, w_phase, length,
                                                     n_max, branch, spin, grid_points):
    pot = call(PotentialStep, v0, w_abs, w_phase)
    levels = pot and call(solve_spectrum, mass, pot, length, n_max, branch)
    if levels is None:
        return
    psi = call(stationary_wavefunction, levels[-1], mass, pot, spin)
    if psi is None:
        return
    assert type(psi) is StationaryWavefunction and psi.spin == spin
    profile = call(density_profile, psi, grid_points)
    if profile is not None:
        z, rho = profile
        assert z.shape == rho.shape == (grid_points,)
        assert z[0] == 0.0 and z[-1] == length
        assert all(map(math.isfinite, rho.tolist())) and (rho >= 0.0).all()


@FUZZ
@given(ENERGY, MASS, SIGNED, SIGNED)
@example(1e200, 1.0, 0.5, 0.0)
@example(2.0, 1.0, 5e-324, 0.0)
def test_nr_parameters(energy, mass, w_abs, w_phase):
    params = call(nr_parameters, energy, mass, w_abs, w_phase)
    if params is not None:
        assert type(params) is NonRelParams
        assert finite(params.momentum, params.mom_plus, params.mom_minus,
                      params.amp_ratio, params.j_chi_plus, params.j_chi_minus,
                      params.j_sigma_plus, params.j_sigma_minus, params.w_phase)
        assert params.regime_flag is (params.momentum <= w_abs)


@FUZZ
@given(POSITIVE, COUNT, MASS, SIGNED)
@example(1.0, 3.0, 1.0, 0.5)  # once TypeError from range
@example(1.0, 10**400, 1.0, 0.5)  # once OverflowError from n_max * pi
def test_nr_quantize(length, n_max, mass, w_abs):
    levels = call(nr_quantize, length, n_max, mass, w_abs)
    if levels is not None:
        assert [lvl.index for lvl in levels] == list(range(1, n_max + 1))
        for lvl in levels:
            assert type(lvl) is NonRelLevel
            assert finite(lvl.momentum, lvl.eff_plus, lvl.eff_minus, lvl.energy_plus,
                          lvl.energy_minus)
            assert lvl.regime_flag is (lvl.eff_plus <= w_abs)


@FUZZ
@given(POSITIVE, MASS, SIGNED, POSITIVE, POSITIVE, BRANCH)
@example(1.0, 0.0, 0.0, 1.0, 1e308, "minus")  # sin(2*momentum*length) of inf
def test_quantization_residual(momentum, mass, v0, w_abs, length, branch):
    # a float: nan outside the energy chain's regime, +-inf at a pole
    pot = call(PotentialStep, v0, w_abs)
    g = pot and call(quantization_residual, momentum, mass, pot, length, branch)
    if g is not None:
        assert type(g) is float

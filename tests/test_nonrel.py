"""Non-relativistic limit: frozen coefficients, Dirichlet spectrum, scaling."""

import cmath
import math
import re

import pytest

from qdirac import (
    Branch,
    InputError,
    nr_parameters,
    nr_quantize,
    nr_wavefunction,
    quantized_momenta,
)


class TestParameters:
    def test_frozen_example(self):
        pars = nr_parameters(math.sqrt(2.0), 1.0, 0.25)
        assert pars.momentum == 1.0000000000000002
        assert pars.amp_ratio == 0.41421356237309515
        assert pars.mom_plus == pars.momentum + 0.25
        assert pars.mom_minus == pars.momentum - 0.25
        assert pars.j_chi_minus == 1.6568542494923806
        assert pars.j_chi_plus == -1.6568542494923806
        assert pars.j_sigma_minus == 4.0
        assert pars.j_sigma_plus == -4.0
        assert pars.regime_flag is False

    def test_vanishing_w_is_a_hard_error(self):
        with pytest.raises(ValueError, match="w_abs"):
            nr_parameters(2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            nr_parameters(2.0, 1.0, -0.5)

    def test_negative_mass_raises(self):
        # it once returned amp_ratio 1.732...
        with pytest.raises(InputError, match=r"^mass must be finite and >= 0, got -1\.0$"):
            nr_parameters(2.0, -1.0, 0.5)

    def test_mass_shell_raises(self):
        with pytest.raises(ValueError):
            nr_parameters(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            nr_parameters(0.9, 1.0, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["energy", "mass", "w_abs"])
    def test_non_finite_input_is_rejected(self, field, value):
        args = {"energy": 2.0, "mass": 1.0, "w_abs": 0.5}
        args[field] = value
        with pytest.raises(ValueError, match="^%s must be finite, got %r$" % (field, value)):
            nr_parameters(**args)

    @pytest.mark.parametrize("energy,w_abs", [(1e200, 0.5), (2.0, 5e-324)])
    def test_coefficients_out_of_float64_range_are_rejected(self, energy, w_abs):
        # (1e200, 0.5) once returned momentum = amp_ratio = inf: E*E overflows
        message = ("energy %r, mass 1.0, w_abs %r: the limiting coefficients leave "
                   "float64 range" % (energy, w_abs))
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            nr_parameters(energy, 1.0, w_abs)

    def test_non_finite_phase_is_rejected(self):
        with pytest.raises(InputError, match="^w_phase must be finite, got nan$"):
            nr_parameters(2.0, 1.0, 0.5, math.nan)

    def test_regime_flag_tracks_slow_momentum(self):
        slow = nr_parameters(math.hypot(0.2, 1.0), 1.0, 0.5)
        assert slow.regime_flag is True
        assert slow.mom_minus < 0.0
        fast = nr_parameters(math.hypot(2.0, 1.0), 1.0, 0.5)
        assert fast.regime_flag is False

    def test_decade_scaling_with_mass(self):
        prev = None
        for mass in (1e2, 1e3, 1e4):
            pars = nr_parameters(math.hypot(1.0, mass), mass, 0.5)
            if prev is not None:
                assert prev.amp_ratio / pars.amp_ratio == pytest.approx(10.0, rel=0.02)
                assert prev.j_chi_minus / pars.j_chi_minus == pytest.approx(
                    10.0, rel=0.02
                )
            assert pars.j_sigma_minus == 2.0
            prev = pars


class TestWavefunction:
    PARS = nr_parameters(math.hypot(1.2, 1.0), 1.0, 0.5, w_phase=0.6)

    def test_unit_blocks_and_norm(self):
        pars0 = nr_parameters(math.hypot(1.2, 1.0), 1.0, 0.5)
        state = nr_wavefunction(Branch.MINUS, "up", pars0)
        assert state.spinor.norm_sq() == 2.0
        generic = nr_wavefunction(Branch.MINUS, "up", self.PARS)
        assert generic.spinor.norm_sq() == pytest.approx(2.0, rel=1e-15)

    def test_minus_branch_layout(self):
        state = nr_wavefunction("minus", "up", self.PARS)
        comp = state.spinor.comp
        assert comp[0].u == 1.0 and comp[0].w == 0.0
        assert comp[1] == 0 and comp[3] == 0
        assert comp[2].u == 0.0
        assert comp[2].w == pytest.approx(-cmath.exp(0.6j), abs=1e-15)
        assert state.momentum == self.PARS.mom_minus
        assert state.energy_sign == 1

    def test_plus_branch_layout(self):
        state = nr_wavefunction(Branch.PLUS, "up", self.PARS)
        comp = state.spinor.comp
        assert comp[0].u == 0.0
        assert comp[0].w == pytest.approx(cmath.exp(-0.6j), abs=1e-15)
        assert comp[2].u == 1.0 and comp[2].w == 0.0
        assert state.momentum == self.PARS.mom_plus

    def test_spin_down_moves_and_flips(self):
        state = nr_wavefunction(Branch.MINUS, "down", self.PARS)
        comp = state.spinor.comp
        assert comp[0] == 0 and comp[2] == 0
        assert comp[1].u == 1.0
        assert comp[3].w == pytest.approx(cmath.exp(0.6j), abs=1e-15)

    def test_spinor_is_w_abs_independent(self):
        a = nr_parameters(2.0, 1.0, 0.3, w_phase=1.1)
        b = nr_parameters(2.0, 1.0, 1.7, w_phase=1.1)
        sa = nr_wavefunction(Branch.MINUS, "up", a)
        sb = nr_wavefunction(Branch.MINUS, "up", b)
        for qa, qb in zip(sa.spinor.comp, sb.spinor.comp):
            assert qa == qb
        assert sa.momentum != sb.momentum

    def test_negative_momentum_reported_verbatim(self):
        slow = nr_parameters(math.hypot(0.2, 1.0), 1.0, 0.5)
        state = nr_wavefunction(Branch.MINUS, "up", slow)
        assert state.momentum < 0.0

    def test_time_phase_is_positive_frequency(self):
        state = nr_wavefunction(Branch.MINUS, "up", self.PARS)
        z, t = 0.3, 0.7
        got = state.evaluate(z, t).comp[0].u
        want = cmath.exp(1j * (state.momentum * z + state.energy * t))
        assert got == pytest.approx(want, rel=1e-15)

    def test_spin_validation(self):
        with pytest.raises(ValueError):
            nr_wavefunction(Branch.MINUS, "sideways", self.PARS)


class TestQuantize:
    def test_momenta_are_harmonics(self):
        levels = nr_quantize(1.5, 4, 1.0, 0.5)
        for n, level in enumerate(levels, start=1):
            assert level.momentum == n * math.pi / 1.5
            assert abs(math.sin(level.momentum * 1.5)) < 1e-12
            assert level.index == n

    def test_energies_from_shifted_momenta(self):
        levels = nr_quantize(1.0, 3, 1.0, 0.5)
        for level in levels:
            assert level.eff_minus - level.eff_plus == 1.0
            assert level.energy_minus == math.hypot(level.momentum + 0.5, 1.0)
            assert level.energy_plus == math.hypot(level.momentum - 0.5, 1.0)
            assert level.energy_minus > level.energy_plus

    def test_spacing_is_twice_the_confined_spacing(self):
        for length in (0.5, 1.0, 2.0, 3.0):
            nr_levels = nr_quantize(length, 3, 1.0, 0.5)
            bag_q = quantized_momenta(length, 3)
            nr_spacing = nr_levels[1].momentum - nr_levels[0].momentum
            bag_spacing = bag_q[1] - bag_q[0]
            assert nr_spacing / bag_spacing == 2.0

    def test_regime_flag_at_strong_w(self):
        levels = nr_quantize(1.0, 2, 1.0, 2.0)
        assert levels[0].regime_flag is True
        assert levels[1].regime_flag is False

    def test_w_zero_degenerate_pair(self):
        levels = nr_quantize(1.0, 2, 1.0, 0.0)
        for level in levels:
            assert level.energy_minus == level.energy_plus

    def test_inversion_consistency(self):
        levels = nr_quantize(1.0, 3, 1.0, 0.5)
        for level in levels:
            back = nr_parameters(level.energy_minus, 1.0, 0.5)
            assert back.momentum == pytest.approx(level.eff_minus, rel=1e-12)
            if level.eff_plus > 0:
                back = nr_parameters(level.energy_plus, 1.0, 0.5)
                assert back.momentum == pytest.approx(level.eff_plus, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            nr_quantize(0.0, 3, 1.0, 0.5)
        with pytest.raises(ValueError):
            nr_quantize(1.0, 0, 1.0, 0.5)
        with pytest.raises(ValueError):
            nr_quantize(1.0, 3, -1.0, 0.5)
        # the message PotentialStep and evanescent_width give for the rule
        with pytest.raises(InputError, match="^w_abs is a magnitude and must be >= 0$"):
            nr_quantize(1.0, 3, 1.0, -0.5)
        with pytest.raises(ValueError, match=r"^length 1e-310 is too small: the "
                           r"momentum 2\*pi/length overflows float64$"):
            nr_quantize(1e-310, 2, 1.0, 0.5)

    def test_overflowing_energy_names_the_first_level(self):
        with pytest.raises(ValueError, match=r"^level 1: the energy hypot\(1\.7e\+308, "
                           r"1\.7e\+308\) overflows float64$"):
            nr_quantize(1.0, 2, 1.7e308, 1.7e308)
        # the momentum grows with the level, so a later level can be first
        with pytest.raises(ValueError, match=r"^level 4: "):
            nr_quantize(math.pi / 2.5e307, 5, 0.0, 1e308)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["length", "mass", "w_abs"])
    def test_non_finite_input_is_rejected(self, field, value):
        args = {"length": 1.0, "n_max": 3, "mass": 1.0, "w_abs": 0.5}
        args[field] = value
        with pytest.raises(ValueError, match="^%s must be finite, got %r$" % (field, value)):
            nr_quantize(**args)

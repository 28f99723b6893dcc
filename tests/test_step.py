"""Step-potential kinematics, zones, coefficients, and travelling spinors."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qdirac import step
from qdirac import (
    Branch,
    InputError,
    PotentialStep,
    Zone,
    classify_zone,
    consistency_residual,
    dirac_residual,
    evanescent_width,
    kinematics,
    mode_coefficients,
    principal_momentum,
    step_spinor,
)

GENERIC = dict(energy=2.2, mass=0.9, pot=PotentialStep(v0=0.6, w_abs=0.8, w_phase=0.7))


class TestKinematics:
    def test_frozen_point(self):
        kin = kinematics(2.0, 1.0, PotentialStep(v0=1.0, w_abs=1.0))
        assert kin.p2 == 3.0
        assert kin.q2_plus == 8.0
        assert kin.q2_minus == 0.0
        assert kin.delta == pytest.approx(math.sqrt(7.0) - 2.0, abs=1e-15)
        assert kin.mom2_minus == pytest.approx(-0.29150262212918143, abs=1e-15)
        assert kin.mom2_plus == pytest.approx(10.291502622129181, abs=1e-14)
        assert kin.mom2_minus == oracles.branch_mom2_minus(2.0, 1.0, 1.0, 1.0)

    def test_v0_zero_collapse(self):
        kin = kinematics(2.0, 1.0, PotentialStep(w_abs=0.5))
        p = math.sqrt(3.0)
        assert kin.q2_plus == kin.q2_minus == kin.p2
        assert kin.delta == pytest.approx(p * 0.5, rel=1e-15)
        assert kin.mom2_minus == pytest.approx((p - 0.5) ** 2, rel=1e-14)
        assert kin.mom2_plus == pytest.approx((p + 0.5) ** 2, rel=1e-14)

    def test_w_zero_collapse_is_exact(self):
        for v0 in (0.0, 0.7, 2.0, -1.3):
            kin = kinematics(3.0, 1.0, PotentialStep(v0=v0))
            assert kin.delta == (0.0 if v0 >= 0 else -2.0 * 3.0 * v0)
            if v0 >= 0:
                assert kin.mom2_plus == kin.q2_plus
                assert kin.mom2_minus == kin.q2_minus

    def test_tiny_w_stays_within_1e9(self):
        kin = kinematics(3.0, 1.0, PotentialStep(v0=2.0, w_abs=1e-12))
        assert abs(kin.mom2_plus - kin.q2_plus) < 1e-9
        assert abs(kin.mom2_minus - kin.q2_minus) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            kinematics(0.5, 1.0, PotentialStep())
        with pytest.raises(ValueError):
            kinematics(1.0, -1.0, PotentialStep())
        with pytest.raises(ValueError):
            PotentialStep(w_abs=-0.1)
        # the message shows the two values it compares in full
        with pytest.raises(ValueError, match=r"^energy 1\.0000001 below mass "
                                             r"1\.0000002: "):
            kinematics(1.0000001, 1.0000002, PotentialStep())

    @pytest.mark.parametrize("energy,pot", [
        (1e308, PotentialStep(v0=0.3, w_abs=0.5)),
        (1e308, PotentialStep()),
        (1e155, PotentialStep(v0=0.3, w_abs=0.5)),
        (2.0, PotentialStep(v0=1e200, w_abs=0.5)),
        (2.0, PotentialStep(v0=0.3, w_abs=1e200)),
        (2.0, PotentialStep(v0=-1.3e154, w_abs=0.5)),
    ])
    def test_squares_out_of_float64_range_are_rejected(self, energy, pot):
        # (1e308, v0=0.3) once returned p2 = inf and mom2_minus = nan
        # labelled diffusion
        message = "^branch momenta at energy %s overflow float64$" % re.escape(
            repr(energy))
        with pytest.raises(InputError, match=message):
            kinematics(energy, 1.0, pot)
        with pytest.raises(InputError, match=message):
            classify_zone(energy, 1.0, pot)

    def test_squares_in_float64_range_stay_finite(self):
        kin = kinematics(1e150, 1.0, PotentialStep(v0=1e3, w_abs=1e3))
        assert all(map(math.isfinite, (kin.p2, kin.q2_plus, kin.q2_minus, kin.delta,
                                       kin.mom2_plus, kin.mom2_minus)))

    @pytest.mark.parametrize("energy,mass,message", [
        (math.nan, 1.0, "energy must be finite, got nan"),
        (math.inf, 1.0, "energy must be finite, got inf"),
        (-math.inf, 1.0, "energy must be finite, got -inf"),
        (2.0, math.nan, "mass must be finite, got nan"),
        (2.0, math.inf, "mass must be finite, got inf"),
        (2.0, -1.0, "mass must be finite and >= 0, got -1.0"),
    ])
    def test_non_finite_energy_or_mass_raises(self, energy, mass, message):
        # kinematics(nan, ...) once returned nan momenta labelled klein, and
        # mode_coefficients(inf, ...) nan coefficients
        pot = PotentialStep(v0=0.3, w_abs=0.5)
        calls = (lambda: kinematics(energy, mass, pot),
                 lambda: mode_coefficients(energy, mass, pot, "minus"),
                 lambda: step_spinor(energy, mass, pot, "plus"))
        for call in calls:
            with pytest.raises(InputError, match="^%s$" % re.escape(message)):
                call()

    @pytest.mark.parametrize("field", ["v0", "w_abs", "w_phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_potential_raises(self, field, value):
        with pytest.raises(ValueError, match="%s must be finite" % field):
            PotentialStep(**{field: value})

    def test_branch_gap_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            mass = float(rng.uniform(0.0, 5.0))
            energy = mass + float(rng.uniform(0.0, 5.0))
            pot = PotentialStep(
                v0=float(rng.uniform(-5.0, 5.0)), w_abs=float(rng.uniform(0.0, 5.0))
            )
            kin = kinematics(energy, mass, pot)
            gap = kin.mom2_plus - kin.mom2_minus
            want = 4.0 * energy * pot.v0 + 4.0 * kin.delta
            scale = max(1.0, abs(kin.mom2_plus), abs(kin.mom2_minus))
            assert abs(gap - want) <= 1e-12 * scale

    def test_delta_nonnegative_bulk(self):
        rng = np.random.default_rng(37)
        mass = rng.uniform(0.0, 5.0, 10000)
        energy = mass + rng.uniform(0.0, 5.0, 10000)
        v0 = rng.uniform(-5.0, 5.0, 10000)
        w = rng.uniform(0.0, 5.0, 10000)
        p2 = energy * energy - mass * mass
        delta = np.sqrt(energy * energy * v0 * v0 + p2 * w * w) - energy * v0
        assert np.all(delta >= 0.0)

    def test_continuity_on_fine_grid(self):
        pot = PotentialStep(v0=3.0, w_abs=0.5)
        e = np.arange(1.0, 10.0, 1e-4)
        kins = [kinematics(float(x), 1.0, pot) for x in e[:: len(e) // 500]]
        # spot continuity on the subsampled closed form, then densely via numpy
        p2 = e * e - 1.0
        delta = np.sqrt(e * e * 9.0 + p2 * 0.25) - 3.0 * e
        mom2 = (e - 3.0) ** 2 - 1.0 + 0.25 - 2.0 * delta
        assert np.max(np.abs(np.diff(mom2))) < 1e-2
        assert kins[0].mom2_minus == pytest.approx(float(mom2[0]), abs=1e-12)


class TestZones:
    def test_window_edges_frozen(self):
        assert evanescent_width(1.0, 3.0, 0.0) == (2.0, 4.0, 2.0)
        lo, up, width = evanescent_width(1.0, 1.0, 1.0)
        assert lo == 1.0
        assert up == math.sqrt(5.0)
        assert width == up - 1.0

    @pytest.mark.parametrize("v0,w_abs,message", [
        # (inf, 0) once returned (inf, inf, nan) and (nan, 0) (1.0, nan, nan)
        (math.inf, 0.0, "v0 must be finite, got inf"),
        (math.nan, 0.0, "v0 must be finite, got nan"),
        (0.0, -math.inf, "w_abs must be finite, got -inf"),
        (1e308, 1e308, "the evanescent window edge hypot(w_abs, mass + |v0|) "
                       "overflows float64 at mass 1e+308, v0 1e+308, w_abs 1e+308"),
    ])
    def test_window_edges_out_of_float64_range_are_rejected(self, v0, w_abs, message):
        with pytest.raises(InputError, match="^%s$" % re.escape(message)):
            evanescent_width(1e308 if v0 == 1e308 else 1.0, v0, w_abs)

    def test_negative_w_abs_is_rejected(self):
        # once the window of |w_abs|; PotentialStep and nr_quantize refuse it too
        for w_abs in (-1.0, -5e-324):
            with pytest.raises(InputError, match="^w_abs is a magnitude and must be >= 0$"):
                evanescent_width(1.0, 0.5, w_abs)
        assert evanescent_width(1.0, 0.5, -0.0) == evanescent_width(1.0, 0.5, 0.0)

    def test_window_is_even_in_v0(self):
        assert evanescent_width(1.0, -3.0, 0.5) == evanescent_width(1.0, 3.0, 0.5)

    def test_zone_examples_across_the_window(self):
        pot = PotentialStep(v0=3.0)
        cases = [
            (1.5, Zone.KLEIN),
            (2.0, Zone.KLEIN),
            (2.5, Zone.EVANESCENT),
            (4.0, Zone.DIFFUSION),
            (5.0, Zone.DIFFUSION),
        ]
        for energy, want in cases:
            zm, zp = classify_zone(energy, 1.0, pot)
            assert zm is want, energy
            assert zp is Zone.DIFFUSION

    def test_pure_quaternionic_step_has_no_evanescent_zone(self):
        # v0 = 0 collapses the window; below its degenerate edge the rule
        # reads Klein even though the squared momentum stays positive
        pot = PotentialStep(w_abs=1.0)
        zm, _ = classify_zone(1.2, 1.0, pot)
        assert zm is Zone.KLEIN
        zm, _ = classify_zone(2.0, 1.0, pot)
        assert zm is Zone.DIFFUSION

    def test_zone_matches_momentum_sign_on_grid(self):
        for mass, v0, w in ((1.0, 3.0, 0.5), (0.5, 1.0, 2.0), (2.0, 4.0, 1.0)):
            pot = PotentialStep(v0=v0, w_abs=w)
            _, e_up, _ = evanescent_width(mass, v0, w)
            for energy in np.arange(mass, e_up + 1.0, 1e-3):
                kin = kinematics(float(energy), mass, pot)
                if kin.zone_minus is Zone.EVANESCENT:
                    assert kin.mom2_minus < 0.0
                else:
                    assert kin.mom2_minus >= 0.0

    def test_sign_scan_oracle_agrees_with_closed_form(self):
        step = 1e-3
        rng = np.random.default_rng(41)
        configs = [(1.0, 3.0, 0.0), (1.0, 1.0, 1.0)] + [
            (float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0)),
             float(rng.uniform(0.0, 5.0)))
            for _ in range(10)
        ]
        for mass, v0, w in configs:
            lo, up, width = evanescent_width(mass, v0, w)
            edges = oracles.window_sign_scan(mass, v0, w, e_step=step)
            if edges is None:
                assert width <= 2.0 * step
            else:
                assert abs(edges[0] - lo) <= 1.5 * step
                assert abs(edges[1] - up) <= 1.5 * step

    def test_principal_momentum_conventions(self):
        assert principal_momentum(4.0) == 2.0 + 0.0j
        assert principal_momentum(-4.0) == 2.0j
        kin = kinematics(2.0, 1.0, PotentialStep(v0=1.0, w_abs=1.0))
        mom = principal_momentum(kin.mom2_minus)
        assert mom == pytest.approx(0.5399098277760662j, abs=1e-15)


class TestCoefficients:
    def test_free_limit_values(self):
        pot = PotentialStep(w_abs=0.5)
        p = math.sqrt(3.0)
        for branch, sgn in ((Branch.MINUS, 1.0), (Branch.PLUS, -1.0)):
            mc = mode_coefficients(2.0, 1.0, pot, branch)
            assert mc.amp_ratio == pytest.approx(p / 3.0, rel=1e-14)
            assert mc.j_chi == pytest.approx(sgn * p / (0.5 * 3.0), rel=1e-13)
            assert mc.j_sigma == pytest.approx(sgn * 2.0, rel=1e-13)
        assert mode_coefficients(2.0, 1.0, pot, "minus").momentum == pytest.approx(
            p - 0.5, rel=1e-14
        )
        assert mode_coefficients(2.0, 1.0, pot, "plus").momentum == pytest.approx(
            p + 0.5, rel=1e-14
        )

    def test_complex_limit_amp_ratio(self):
        # w -> 0 at nonzero v0: amp_ratio -> Q / (E - v0 + m) on the minus branch
        mc = mode_coefficients(3.0, 1.0, PotentialStep(v0=1.0), Branch.MINUS)
        assert mc.amp_ratio == pytest.approx(math.sqrt(3.0) / 3.0, rel=1e-15)
        mc_near = mode_coefficients(
            3.0, 1.0, PotentialStep(v0=1.0, w_abs=1e-8), Branch.MINUS
        )
        assert abs(mc_near.amp_ratio - mc.amp_ratio) < 1e-7

    def test_resonant_free_case_raises(self):
        with pytest.raises(ValueError, match="resonant"):
            mode_coefficients(2.0, 1.0, PotentialStep(), Branch.MINUS)
        with pytest.raises(ValueError, match="resonant"):
            mode_coefficients(2.0, 1.0, PotentialStep(), Branch.PLUS)

    def test_mass_shell_raises(self):
        with pytest.raises(ValueError):
            mode_coefficients(1.0, 1.0, PotentialStep(w_abs=0.5), Branch.MINUS)

    def test_branch_argument_forms(self):
        pot = PotentialStep(w_abs=0.5)
        assert mode_coefficients(2.0, 1.0, pot, "minus").branch is Branch.MINUS
        assert mode_coefficients(2.0, 1.0, pot, Branch.PLUS).branch is Branch.PLUS
        with pytest.raises(ValueError):
            mode_coefficients(2.0, 1.0, pot, "sideways")

    @pytest.mark.parametrize("energy,branch", [(1e200, "minus"), (1e155, "plus")])
    def test_coefficients_out_of_float64_range_are_rejected(self, energy, branch):
        # (1e200, minus) once returned momentum nanj, (1e155, plus) inf + 0j,
        # and the spinor and the consistency residual built on them nan
        pot = PotentialStep(v0=0.3, w_abs=0.5)
        message = "^energy %s: the mode coefficients overflow float64$" % re.escape(
            repr(energy))
        with pytest.raises(InputError, match=message):
            mode_coefficients(energy, 1.0, pot, branch)
        with pytest.raises(InputError, match=message):
            step_spinor(energy, 1.0, pot, branch)
        with pytest.raises(InputError, match=message):
            consistency_residual(energy, 1.0, pot)

    def test_evanescent_coefficients_are_complex(self):
        pot = PotentialStep(v0=1.0, w_abs=1.0)
        mc = mode_coefficients(2.0, 1.0, pot, Branch.MINUS)
        assert mc.momentum.imag > 0.0
        assert abs(mc.amp_ratio.imag) > 0.0


class TestSpinors:
    def test_minus_branch_solves_equation_of_motion(self):
        for direction in (1, -1):
            for spin in ("up", "down"):
                st_ = step_spinor(
                    GENERIC["energy"], GENERIC["mass"], GENERIC["pot"],
                    Branch.MINUS, direction, spin,
                )
                res = dirac_residual(st_, GENERIC["pot"], GENERIC["mass"])
                assert res < 1e-12, (direction, spin)

    def test_minus_branch_solves_in_evanescent_zone(self):
        pot = PotentialStep(v0=1.0, w_abs=1.0)
        st_ = step_spinor(2.0, 1.0, pot, Branch.MINUS)
        assert st_.momentum.imag > 0.0
        assert dirac_residual(st_, pot, 1.0) < 1e-12

    def test_plus_branch_disagreement_is_order_one(self):
        # the travelling plus form does not solve the equation of motion;
        # the verify report quantifies this, the test pins the behavior
        st_ = step_spinor(
            GENERIC["energy"], GENERIC["mass"], GENERIC["pot"], Branch.PLUS
        )
        assert dirac_residual(st_, GENERIC["pot"], GENERIC["mass"]) > 0.1
        st_w0 = step_spinor(3.0, 1.0, PotentialStep(v0=1.0), Branch.PLUS)
        assert dirac_residual(st_w0, PotentialStep(v0=1.0), 1.0) > 0.1

    def test_w_zero_reduction_to_complex_spinor(self):
        pot = PotentialStep(v0=1.0)
        st_ = step_spinor(3.0, 1.0, pot, Branch.MINUS)
        a = math.sqrt(3.0) / 3.0
        assert st_.spinor.comp[0].u == 1.0
        assert st_.spinor.comp[0].w == 0.0
        assert st_.spinor.comp[2].u == pytest.approx(a, rel=1e-15)
        assert st_.spinor.comp[2].w == 0.0
        assert dirac_residual(st_, pot, 1.0) < 1e-15

    def test_direction_flip_negates_amp_and_j_sigma(self):
        right = step_spinor(**GENERIC, branch=Branch.MINUS, direction=1)
        left = step_spinor(**GENERIC, branch=Branch.MINUS, direction=-1)
        assert left.spinor.comp[0].u == right.spinor.comp[0].u
        assert left.spinor.comp[0].w == right.spinor.comp[0].w
        assert left.spinor.comp[2].u == -right.spinor.comp[2].u
        assert left.spinor.comp[2].w == -right.spinor.comp[2].w
        assert left.direction == -1

    def test_spin_down_block_placement(self):
        st_ = step_spinor(**GENERIC, branch=Branch.MINUS, spin="down")
        up = step_spinor(**GENERIC, branch=Branch.MINUS, spin="up")
        assert st_.spinor.comp[0].norm() == 0.0
        assert st_.spinor.comp[1].u == up.spinor.comp[0].u
        assert st_.spinor.comp[3].u == -up.spinor.comp[2].u

    def test_plus_branch_block_order_swapped(self):
        st_ = step_spinor(**GENERIC, branch=Branch.PLUS)
        # chi block (unit complex part) sits in the lower components
        assert st_.spinor.comp[2].u == 1.0
        assert st_.spinor.comp[1].norm() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            step_spinor(**GENERIC, branch=Branch.MINUS, direction=0)
        with pytest.raises(ValueError):
            step_spinor(**GENERIC, branch=Branch.MINUS, spin="strange")


class TestConsistencyRelation:
    def test_frozen_value_and_flags(self):
        r_minus, r_plus = consistency_residual(2.0, 1.0, PotentialStep(w_abs=0.5))
        assert r_minus == pytest.approx(2.309401076758503, abs=1e-14)
        assert r_plus == pytest.approx(2.309401076758503, abs=1e-14)
        r_minus, r_plus = consistency_residual(2.0, 1.0, PotentialStep(v0=0.5))
        assert math.isnan(r_minus) and math.isnan(r_plus)

    def test_free_limit_matches_closed_form(self):
        # at v0 = 0 the minus-branch distance reduces to (1 + A^2)/A
        mc = mode_coefficients(2.0, 1.0, PotentialStep(w_abs=0.5), Branch.MINUS)
        a = mc.amp_ratio.real
        r_minus, _ = consistency_residual(2.0, 1.0, PotentialStep(w_abs=0.5))
        assert r_minus == pytest.approx((1.0 + a * a) / a, rel=1e-13)

    def test_a_vanishing_j_chi_is_inf(self, monkeypatch):
        # no known input makes j_chi round to exactly 0, so the minus-branch
        # coefficients are patched to carry one
        pot = PotentialStep(w_abs=0.5)
        real = mode_coefficients

        def zero_minus_j_chi(energy, mass, pot, branch):
            mc = real(energy, mass, pot, branch)
            return dataclasses.replace(mc, j_chi=0j) if branch is Branch.MINUS else mc

        monkeypatch.setattr(step, "mode_coefficients", zero_minus_j_chi)
        r_minus, r_plus = consistency_residual(2.0, 1.0, pot)
        assert r_minus == math.inf
        assert r_plus == pytest.approx(2.309401076758503, abs=1e-14)


finite_mass = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
finite_gap = st.floats(min_value=1e-6, max_value=5.0, allow_nan=False)
finite_v0 = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
finite_w = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(finite_mass, finite_gap, finite_v0, finite_w)
def test_delta_never_substantially_negative(mass, gap, v0, w):
    # delta >= 0 in exact arithmetic; floats may round one ulp below zero
    # (and underflow makes sqrt(ev0^2) lose to ev0 outright at |v0| ~ 1e-300)
    kin = kinematics(mass + gap, mass, PotentialStep(v0=v0, w_abs=w))
    assert kin.delta >= -1e-12 * max(1.0, kin.energy * abs(v0))


@settings(max_examples=200, deadline=None)
@given(finite_mass, finite_gap, finite_v0, finite_w)
def test_plus_branch_momentum_never_negative(mass, gap, v0, w):
    kin = kinematics(mass + gap, mass, PotentialStep(v0=v0, w_abs=w))
    assert kin.mom2_plus >= -1e-9 * max(1.0, abs(kin.q2_plus))
    assert kin.zone_plus is Zone.DIFFUSION

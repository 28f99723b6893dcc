"""Hard-wall well: boundary maps, quantization, spectrum, normalization."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

import oracles
from qdirac import bag, report
from qdirac import (
    Branch,
    NoSolutionError,
    PotentialStep,
    QSpinor,
    Quaternion,
    SingularCoefficientsError,
    boundary_operator,
    boundary_phase,
    boundary_residual,
    build_matrices,
    density_profile,
    kinematics,
    mode_coefficients,
    normalize,
    principal_momentum,
    quantization_residual,
    quantization_residual_grid,
    quantized_momenta,
    solve_spectrum,
    stationary_wavefunction,
)

POT = PotentialStep(w_abs=0.5)


def random_spinor(rng):
    return QSpinor([Quaternion.from_coeffs(*rng.standard_normal(4)) for _ in range(4)])


class TestBoundaryMaps:
    def test_wall_maps_are_involutions(self):
        rng = np.random.default_rng(43)
        for end in ("left", "right"):
            wall = boundary_operator(end)
            for _ in range(5):
                psi = random_spinor(rng)
                twice = wall(wall(psi))
                assert np.allclose(
                    twice.to_real_vector(), psi.to_real_vector(), atol=1e-14
                )

    def test_beta_alpha3_squares_to_minus_identity(self):
        mats = build_matrices()
        ba = mats.beta @ mats.alpha[2]
        assert np.array_equal(ba @ ba, -np.eye(4, dtype=complex))

    def test_end_validation(self):
        with pytest.raises(ValueError):
            boundary_operator("top")

    def test_phase_special_values(self):
        assert boundary_phase(1.0, Branch.MINUS).phase == pytest.approx(
            math.pi / 2, abs=1e-15
        )
        assert boundary_phase(0.0, Branch.MINUS).phase == pytest.approx(
            math.pi, abs=1e-15
        )
        assert boundary_phase(0.5, Branch.MINUS).phase == pytest.approx(
            2.214297435588181, abs=1e-14
        )
        # plus branch flips the sign fed to the arccot
        assert boundary_phase(0.5, Branch.PLUS).phase == 2.0 * math.atan2(1.0, -0.5)
        with pytest.raises(ValueError):
            boundary_phase(math.inf, Branch.MINUS)

    def test_phase_tan_identity(self):
        for a in (0.5, 0.3, 2.0, -0.7, 5.0):
            th = boundary_phase(a, Branch.MINUS).phase
            assert math.tan(th) == pytest.approx(
                2.0 * a / (a * a - 1.0), rel=1e-12, abs=1e-12
            )
        th = boundary_phase(0.5, Branch.MINUS).phase
        assert math.tan(th) == pytest.approx(-4.0 / 3.0, rel=1e-12)

    def test_left_wall_residual_small_both_branches(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            mass = float(rng.uniform(0.2, 2.0))
            length = float(rng.uniform(0.5, 3.0))
            q1 = math.pi / (2.0 * length)
            w_abs = float(rng.uniform(0.05, min(2.0, 0.6 * q1)))
            pot = PotentialStep(w_abs=w_abs, w_phase=float(rng.uniform(-math.pi, math.pi)))
            for branch in (Branch.MINUS, Branch.PLUS):
                levels = solve_spectrum(mass, pot, length, 2, branch)
                for level in levels:
                    for spin in ("up", "down"):
                        wf = stationary_wavefunction(level, mass, pot, spin)
                        res = boundary_residual(wf.evaluate(0.0), "left")
                        assert res < 1e-12, (branch, spin)


class TestQuantization:
    def test_momenta_are_half_harmonics(self):
        assert quantized_momenta(2.0, 3) == [
            math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0
        ]
        with pytest.raises(ValueError):
            quantized_momenta(0.0, 3)
        with pytest.raises(ValueError):
            quantized_momenta(1.0, 0)
        for length in (math.nan, math.inf):
            with pytest.raises(ValueError, match="length must be finite"):
                quantized_momenta(length, 3)

    def test_residual_zero_at_roots_large_off_roots(self):
        length = 1.0
        for branch in (Branch.MINUS, Branch.PLUS):
            for q_n in quantized_momenta(length, 6):
                g = quantization_residual(q_n, 1.0, POT, length, branch)
                assert abs(g) < 1e-10, (branch, q_n)
                g_off = quantization_residual(q_n + 0.1 / length, 1.0, POT, length, branch)
                assert abs(g_off) > 1e-2

    def test_residual_equals_cotangent_sum(self):
        length, mass = 1.3, 0.8
        for q in (0.7, 1.1, 2.9):
            g = quantization_residual(q, mass, POT, length, Branch.MINUS)
            energy = math.hypot(q + POT.w_abs, mass)
            mc = mode_coefficients(energy, mass, POT, Branch.MINUS)
            ph = boundary_phase(mc.amp_ratio.real, Branch.MINUS).phase
            want = 1.0 / math.tan(q * length - ph / 2.0) + 1.0 / math.tan(
                q * length + ph / 2.0
            )
            assert g == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_plus_branch_below_shift_is_nan(self):
        assert math.isnan(quantization_residual(0.3, 1.0, POT, 1.0, Branch.PLUS))

    def test_bisection_recovers_all_roots(self):
        rng = np.random.default_rng(53)
        for _ in range(3):
            length = float(rng.uniform(0.5, 2.0))
            q1 = math.pi / (2.0 * length)
            pot = PotentialStep(w_abs=float(rng.uniform(0.05, 0.5 * q1)))
            mass = float(rng.uniform(0.2, 2.0))
            expected = quantized_momenta(length, 10)
            q_max = 10.5 * math.pi / (2.0 * length)
            for branch in (Branch.MINUS, Branch.PLUS):
                def g(q, _b=branch):
                    return quantization_residual(q, mass, pot, length, _b)

                grid = np.linspace(q_max / 4096, q_max, 4096)
                roots = []
                for lo, hi in oracles.scan_sign_changes(g, grid):
                    r = oracles.bisect(g, float(lo), float(hi))
                    if abs(g(r)) < 1e-6:
                        roots.append(r)
                assert len(roots) == 10, branch
                for q_n, root in zip(expected, sorted(roots)):
                    assert abs(root - q_n) < 1e-9


def residual_draws(seed, n_wells=24, n_grid=512):
    """Seeded (mass, pot, length, branch, momenta) over both branches, v0
    zero, positive and negative, a nonzero w0 phase, and momenta from near 0,
    below the plus-branch shift, past the tenth quantized level."""
    rng = np.random.default_rng(seed)
    for i in range(n_wells):
        mass = float(rng.uniform(0.0, 2.0))
        length = float(rng.uniform(0.5, 2.0))
        v0 = (0.0, float(rng.uniform(0.1, 1.5)), -float(rng.uniform(0.1, 1.5)))[i // 2 % 3]
        pot = PotentialStep(v0=v0, w_abs=float(rng.uniform(0.05, 1.5)),
                            w_phase=float(rng.uniform(-math.pi, math.pi)))
        q_max = 10.5 * math.pi / (2.0 * length)
        momenta = np.linspace(q_max / n_grid, q_max, n_grid)
        yield mass, pot, length, (Branch.MINUS, Branch.PLUS)[i % 2], momenta
    # v0 = w_abs = 0 is resonant at every momentum
    yield 1.0, PotentialStep(), 1.0, Branch.MINUS, np.linspace(0.1, 10.0, 64)


def nan_where_raises(g):
    def safe(q):
        try:
            return g(q)
        except ValueError:
            return math.nan
    return safe


def scalar_grid(g):
    """The scan's grid values from one scalar call per point."""
    safe = nan_where_raises(g)
    return lambda qs: np.array([safe(q) for q in qs.tolist()])


class TestResidualGrid:
    def test_array_form_matches_scalar(self):
        seen = set()
        for mass, pot, length, branch, momenta in residual_draws(61):
            got = quantization_residual_grid(momenta, mass, pot, length, branch)
            for q, g_arr in zip(momenta.tolist(), got.tolist()):
                try:
                    g = quantization_residual(q, mass, pot, length, branch)
                except (NoSolutionError, SingularCoefficientsError) as exc:
                    seen.add(type(exc))
                    assert math.isnan(g_arr), (q, exc)
                    continue
                assert math.isfinite(g_arr) == math.isfinite(g), (q, g, g_arr)
                if math.isfinite(g):
                    seen.add("finite")
                    assert (g_arr < 0.0) == (g < 0.0), (q, g, g_arr)
                    assert abs(g_arr - g) <= 1e-10 * max(1.0, abs(g)), (q, g, g_arr)
                else:
                    seen.add("nan" if math.isnan(g) else "inf")
                    assert math.isnan(g_arr) if math.isnan(g) else g_arr == g
        assert {"finite", "nan", NoSolutionError, SingularCoefficientsError} <= seen

    def test_scan_roots_equal_a_scalar_scan(self, monkeypatch):
        # verify's own three configurations, through its section
        scans = []
        scan = report._scan_roots

        def both_scans(f, f_grid, q_max):
            roots = scan(f, f_grid, q_max)
            scans.append((roots, scan(f, scalar_grid(f), q_max)))
            return roots

        monkeypatch.setattr(report, "_scan_roots", both_scans)
        assert report._section_quantization()["passed"]
        assert len(scans) == 6
        # and three seeded v0 != 0 wells, where the scalar form also raises
        rng = np.random.default_rng(67)
        for v0 in (0.6, -0.9, 1.3):
            length = float(rng.uniform(0.5, 2.0))
            args = dict(mass=float(rng.uniform(0.2, 2.0)), length=length,
                        pot=PotentialStep(v0=v0, w_abs=float(rng.uniform(0.05, 1.0))))
            q_max = 10.5 * math.pi / (2.0 * length)
            for branch in (Branch.MINUS, Branch.PLUS):
                g = nan_where_raises(partial(quantization_residual, branch=branch, **args))
                grid = partial(quantization_residual_grid, branch=branch, **args)
                scans.append((scan(g, grid, q_max), scan(g, scalar_grid(g), q_max)))
        for roots, want in scans:
            assert roots and [r.hex() for r in roots] == [r.hex() for r in want]


class TestSpectrum:
    def test_frozen_minus_levels(self):
        levels = solve_spectrum(1.0, POT, 1.0, 3, Branch.MINUS)
        want = [2.2996081029312876, 3.776400012535636, 5.307447492235391]
        for level, e in zip(levels, want):
            assert level.energy == pytest.approx(e, rel=1e-14)
        assert [l.index for l in levels] == [1, 2, 3]
        assert levels[0].eff_momentum == pytest.approx(
            math.pi / 2.0 + 0.5, rel=1e-15
        )

    def test_frozen_plus_levels(self):
        levels = solve_spectrum(1.0, POT, 1.0, 3, Branch.PLUS)
        want = [1.4651296097879678, 2.824537439564143, 4.32945965705495]
        for level, e in zip(levels, want):
            assert level.energy == pytest.approx(e, rel=1e-14)

    def test_ordering_and_branch_gap(self):
        minus = solve_spectrum(1.0, POT, 1.0, 4, Branch.MINUS)
        plus = solve_spectrum(1.0, POT, 1.0, 4, Branch.PLUS)
        for i in range(3):
            assert minus[i + 1].energy > minus[i].energy
            assert plus[i + 1].energy > plus[i].energy
        for m, p in zip(minus, plus):
            assert m.energy > p.energy

    def test_free_well_is_resonant(self):
        # v0 = w_abs = 0 collides the branch momentum with the opposite
        # complex-limit momentum; the coefficients refuse to divide by zero.
        with pytest.raises(ValueError, match="resonant"):
            solve_spectrum(1.0, PotentialStep(), 1.0, 1, Branch.MINUS)

    def test_tiny_w_energies_converge_across_branches(self):
        pot = PotentialStep(w_abs=1e-12)
        minus = solve_spectrum(1.0, pot, 1.0, 3, Branch.MINUS)
        plus = solve_spectrum(1.0, pot, 1.0, 3, Branch.PLUS)
        for m_level, p_level, q_n in zip(minus, plus, quantized_momenta(1.0, 3)):
            free = math.hypot(q_n, 1.0)
            assert abs(m_level.energy - free) < 1e-9
            assert abs(p_level.energy - free) < 1e-9

    def test_w_zero_closed_form_energies(self):
        # pure complex step: the numeric inversion must land on E = hypot +- v0
        pot = PotentialStep(v0=0.3)
        minus = solve_spectrum(1.0, pot, 1.0, 3, Branch.MINUS)
        plus = solve_spectrum(1.0, pot, 1.0, 3, Branch.PLUS)
        for m_level, p_level, q_n in zip(minus, plus, quantized_momenta(1.0, 3)):
            free = math.hypot(q_n, 1.0)
            assert m_level.energy == pytest.approx(free + 0.3, rel=1e-10)
            assert p_level.energy == pytest.approx(free - 0.3, rel=1e-10)

    def test_regime_flag_and_shifted_energy(self):
        levels = solve_spectrum(1.0, PotentialStep(w_abs=2.0), 1.0, 2, Branch.PLUS)
        assert levels[0].regime_flag is True
        q1 = math.pi / 2.0
        assert levels[0].energy == pytest.approx(math.hypot(q1 - 2.0, 1.0), rel=1e-14)
        assert levels[1].regime_flag is False
        minus = solve_spectrum(1.0, PotentialStep(w_abs=2.0), 1.0, 1, Branch.MINUS)
        assert minus[0].regime_flag is False

    def test_momentum_on_the_shift_raises(self):
        with pytest.raises(ValueError):
            solve_spectrum(1.0, PotentialStep(w_abs=math.pi / 2.0), 1.0, 1, Branch.PLUS)

    def test_v0_inversion_consistency(self):
        pot = PotentialStep(v0=0.5, w_abs=0.3)
        levels = solve_spectrum(1.0, pot, 1.0, 3, Branch.MINUS)
        for level in levels:
            kin = kinematics(level.energy, 1.0, pot)
            mom = principal_momentum(kin.mom2_minus)
            assert abs(mom.real - level.momentum) < 1e-9
            assert mom.imag == 0.0

    def test_no_solution_raises(self):
        with pytest.raises(NoSolutionError):
            solve_spectrum(1.0, PotentialStep(v0=3.0), 1.0, 1, Branch.PLUS)

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("v0", [0.0, 0.7])
    def test_mass_is_checked_up_front(self, mass, v0):
        with pytest.raises(ValueError, match=r"^mass must be finite and >= 0, got "):
            solve_spectrum(mass, PotentialStep(v0=v0, w_abs=0.5), 1.0, 1, "minus")

    @pytest.mark.parametrize("v0", [0.0, 0.7])
    @pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
    def test_two_hundred_levels(self, v0, branch):
        levels = solve_spectrum(1.0, PotentialStep(v0=v0, w_abs=0.5), 1.0, 200, branch)
        assert [l.index for l in levels] == list(range(1, 201))
        energies = [l.energy for l in levels]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert all(math.isfinite(l.norm_const) and l.norm_const > 0 for l in levels)

    def test_v0_inversion_matches_bisection_oracle(self):
        # oracle: first sign change of mom2(E) - Q^2 on a fine scan above the
        # mass shell, refined by plain bisection; no sign change means no level
        def mom2(e, m, v0, w_abs, branch):
            root = math.sqrt(e * e * v0 * v0 + (e * e - m * m) * w_abs * w_abs)
            sign = -1.0 if branch is Branch.MINUS else 1.0
            return e * e + v0 * v0 - m * m + w_abs * w_abs + sign * 2.0 * root

        rng = np.random.default_rng(59)
        solved = 0
        for i in range(120):
            m = float(rng.uniform(0.0, 2.0))
            v0 = float(rng.uniform(-2.0, 2.0))
            w_abs = float(rng.uniform(0.0, 2.0))
            q = float(rng.uniform(0.05, 6.0))
            branch = (Branch.MINUS, Branch.PLUS)[i % 2]

            def defect(e):
                return mom2(e, m, v0, w_abs, branch) - q * q

            lo = m + 1e-9
            hi = math.hypot(q + w_abs, m) + abs(v0) + 1.0
            while defect(hi) <= 0.0:
                hi *= 2.0
            grid = np.linspace(lo, hi, 4096)
            vals = [defect(float(e)) for e in grid]
            brackets = [
                (float(grid[k]), float(grid[k + 1]))
                for k in range(len(grid) - 1) if (vals[k] > 0) != (vals[k + 1] > 0)
            ]
            pot = PotentialStep(v0=v0, w_abs=w_abs)
            if not brackets:
                with pytest.raises(NoSolutionError):
                    bag._energy_for_momentum(q, m, pot, branch)
                continue
            want = oracles.bisect(defect, *brackets[0], tol=1e-15)
            got = bag._energy_for_momentum(q, m, pot, branch)
            assert got == pytest.approx(want, rel=1e-12), (m, v0, w_abs, q, branch)
            solved += 1
        assert 40 < solved < 120


class TestNormalization:
    def test_frozen_norm_const(self):
        levels = solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)
        assert levels[0].norm_const == pytest.approx(0.9637046785587431, rel=1e-12)

    def test_massless_complex_well_norm_is_inverse_sqrt_length(self):
        # m = 0, w = 0: amp_ratio is exactly 1 and the density is flat
        pot = PotentialStep(v0=0.7)
        for length in (1.0, 2.0, 0.5):
            levels = solve_spectrum(0.0, pot, length, 1, Branch.MINUS)
            assert levels[0].norm_const == pytest.approx(
                1.0 / math.sqrt(length), rel=1e-12
            )

    def test_density_integrates_to_one(self):
        levels = solve_spectrum(1.0, POT, 1.5, 2, Branch.MINUS)
        wf = stationary_wavefunction(levels[1], 1.0, POT)
        z, rho = density_profile(wf, 4001)
        assert np.all(rho >= 0.0)
        assert trapezoid(rho, z) == pytest.approx(1.0, abs=1e-6)
        assert wf.density(-0.1) == 0.0
        assert wf.density(wf.length + 0.1) == 0.0

    def test_density_split_adds_up(self):
        levels = solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)
        wf = stationary_wavefunction(levels[0], 1.0, POT)
        for z in (0.0, 0.3, 0.7, 1.0):
            rho_c, rho_q = wf.density_split(z)
            assert rho_c >= 0.0 and rho_q >= 0.0
            assert rho_c + rho_q == wf.density(z)
        # quaternionic weight vanishes when the potential is complex
        pot0 = PotentialStep(v0=0.7)
        wf0 = stationary_wavefunction(
            solve_spectrum(1.0, pot0, 1.0, 1, Branch.MINUS)[0], 1.0, pot0
        )
        assert wf0.density_split(0.4)[1] == 0.0

    def test_amplitude_scaling_cancels(self):
        levels = solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)
        wf = stationary_wavefunction(levels[0], 1.0, POT)
        doubled = replace(wf, amplitude=2.0 * wf.amplitude)
        n1, wf1 = normalize(wf)
        n2, wf2 = normalize(doubled)
        assert n1 == pytest.approx(n2, rel=1e-12)
        assert wf1.amplitude == pytest.approx(wf2.amplitude, rel=1e-12)

    def test_closed_form_matches_quad_oracle(self):
        rng = np.random.default_rng(61)
        checked = 0
        for i in range(24):
            mass = float(rng.uniform(0.0, 2.0))
            length = float(rng.uniform(0.5, 3.0))
            q1 = math.pi / (2.0 * length)
            pot = PotentialStep(
                v0=float(rng.uniform(-0.8, 0.8)) if i % 3 else 0.0,
                w_abs=float(rng.uniform(0.05, 0.6 * q1)),
                w_phase=float(rng.uniform(-math.pi, math.pi)),
            )
            branch = (Branch.MINUS, Branch.PLUS)[i % 2]
            try:
                levels = solve_spectrum(mass, pot, length, 6, branch)
            except NoSolutionError:
                continue
            for level in levels:
                for spin in ("up", "down"):
                    wf = replace(stationary_wavefunction(level, mass, pot, spin),
                                 amplitude=1.0)
                    total, _ = quad(wf.density, 0.0, wf.length, epsabs=1e-13,
                                    epsrel=1e-13, limit=200)
                    assert normalize(wf)[0] == pytest.approx(
                        1.0 / math.sqrt(total), rel=1e-12
                    )
                    checked += 1
        assert checked >= 200

    def test_non_finite_integral_raises(self):
        levels = solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)
        wf = stationary_wavefunction(levels[0], 1.0, POT)
        for bad in (replace(wf, phase=math.nan), replace(wf, amplitude=math.inf),
                    replace(wf, amplitude=0.0)):
            with pytest.raises(ValueError, match="cannot normalize"):
                normalize(bad)

    def test_normalize_is_idempotent(self):
        levels = solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)
        wf = stationary_wavefunction(levels[0], 1.0, POT)
        n1, wf1 = normalize(wf)
        n2, wf2 = normalize(wf1)
        assert n2 == pytest.approx(n1, rel=1e-10)

    def test_grid_validation(self):
        levels = solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)
        wf = stationary_wavefunction(levels[0], 1.0, POT)
        with pytest.raises(ValueError):
            density_profile(wf, 1)
        with pytest.raises(ValueError):
            stationary_wavefunction(levels[0], 1.0, POT, spin="none")


def density_draws(seed, n_wells=24, n_levels=4):
    """Seeded standing waves over both branches and spins, v0 zero, positive
    and negative, and a nonzero w0 phase."""
    rng = np.random.default_rng(seed)
    for i in range(n_wells):
        mass = float(rng.uniform(0.2, 2.0))
        length = float(rng.uniform(0.5, 3.0))
        q1 = math.pi / (2.0 * length)
        v0 = (0.0, float(rng.uniform(0.1, 0.8)), -float(rng.uniform(0.1, 0.8)))[i // 2 % 3]
        pot = PotentialStep(v0=v0, w_abs=float(rng.uniform(0.05, 0.6 * q1)),
                            w_phase=float(rng.uniform(-math.pi, math.pi)))
        branch = (Branch.MINUS, Branch.PLUS)[i % 2]
        try:
            levels = solve_spectrum(mass, pot, length, n_levels, branch)
        except NoSolutionError:
            continue
        for level in levels:
            for spin in ("up", "down"):
                yield stationary_wavefunction(level, mass, pot, spin)


def sample_points(rng, length):
    """Both walls, points inside the well and points outside it, where the
    oracle is exactly zero and so must the closed form be."""
    outside = [-math.inf, -length, -5e-324, math.nextafter(length, math.inf),
               1.5 * length, 1e6, math.inf]
    return np.concatenate(([0.0, length], rng.uniform(0.0, length, 40), outside))


class TestDensity:
    def test_closed_form_matches_spinor_oracle(self):
        rng = np.random.default_rng(83)
        seen = set()
        for wf in density_draws(79):
            seen.add((wf.branch, wf.spin, np.sign(wf.pot.v0)))
            z = sample_points(rng, wf.length)
            rho_c, rho_q = wf.density_split(z)
            for zz, got_c, got_q in zip(z.tolist(), rho_c.tolist(), rho_q.tolist()):
                comp = wf.evaluate(zz).comp
                want_c = sum(abs(q.u) ** 2 for q in comp)
                want_q = sum(abs(q.w) ** 2 for q in comp)
                for got, want in ((got_c, want_c), (got_q, want_q)):
                    assert abs(got - want) <= 2e-15 * want, (wf, zz, got, want)
        assert len(seen) == 12  # 2 branches x 2 spins x 3 signs of v0

    def test_scalar_call_is_the_array_element(self):
        rng = np.random.default_rng(89)
        for wf in density_draws(97, n_wells=12, n_levels=2):
            z = sample_points(rng, wf.length)
            rho_c, rho_q = wf.density_split(z)
            rho = wf.density(z)
            for k, zz in enumerate(z.tolist()):
                c, q = wf.density_split(zz)
                assert isinstance(c, float) and isinstance(wf.density(zz), float)
                got = np.array([c, q, wf.density(zz)])
                assert got.tobytes() == np.array([rho_c[k], rho_q[k], rho[k]]).tobytes()

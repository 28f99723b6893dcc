"""Hard-wall well: boundary maps, quantization, spectrum, normalization."""

import contextlib
import io
import math
import re
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

import oracles
from qdirac import bag, cli, dirac, report, step
from qdirac import (
    Branch,
    InputError,
    NoSolutionError,
    PotentialStep,
    QSpinor,
    Quaternion,
    SingularCoefficientsError,
    StationaryWavefunction,
    boundary_operator,
    boundary_phase,
    boundary_residual,
    build_matrices,
    density_profile,
    evanescent_width,
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


def signed_spinor(rng):
    """A spinor whose parts are drawn from zeros of both signs and reals."""
    parts = (0.0, -0.0, 1.0, -2.5)

    def part():
        if rng.integers(2):
            return parts[rng.integers(4)]
        return float(rng.standard_normal())

    return QSpinor([Quaternion(complex(part(), part()), complex(part(), part()))
                    for _ in range(4)])


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

    def test_boundary_residual_equals_the_quaternion_sums_bit_for_bit(self):
        # random spinors with zero parts of both signs, and the standing
        # waves at both walls, on both walls
        rng = np.random.default_rng(59)
        spinors = [signed_spinor(rng) for _ in range(60)]
        spinors += [random_spinor(rng) for _ in range(20)]
        for _ in range(4):
            length = float(rng.uniform(0.5, 3.0))
            pot = PotentialStep(w_abs=float(rng.uniform(0.05, 0.5)),
                                w_phase=float(rng.uniform(-math.pi, math.pi)))
            for branch in (Branch.MINUS, Branch.PLUS):
                for level in solve_spectrum(1.0, pot, length, 2, branch):
                    for spin in ("up", "down"):
                        wf = stationary_wavefunction(level, 1.0, pot, spin)
                        spinors += [wf.evaluate(0.0), wf.evaluate(length)]
        assert len(spinors) >= 100
        assert any(x == 0.0 and math.copysign(1.0, x) < 0 for psi in spinors
                   for q in psi.comp for x in (q.u.real, q.u.imag, q.w.real, q.w.imag))
        mats = build_matrices()
        for psi in spinors:
            for end, sign in (("left", 1.0), ("right", -1.0)):
                got = boundary_residual(psi, end)
                want = oracles.boundary_residual_by_quaternions(dirac, psi, end)
                assert float.hex(got) == float.hex(want), (psi, end)
                want_map = oracles.apply_matrix_by_quaternions(
                    dirac, sign * (mats.beta @ mats.alpha[2]), psi).scale_right(1j)
                # tobytes tells -0.0 from 0.0
                got_map = boundary_operator(end)(psi).to_real_vector()
                assert got_map.tobytes() == want_map.to_real_vector().tobytes()

    def test_end_validation(self):
        with pytest.raises(ValueError):
            boundary_operator("top")

    def test_residual_names_a_norm_that_overflows(self):
        # once OverflowError from the ** 2 of the norm
        psi = QSpinor([Quaternion(1e300, 1e300j)] * 4)
        for end in ("left", "right"):
            with pytest.raises(InputError, match="^the spinor norm overflows float64$"):
                boundary_residual(psi, end)
        with pytest.raises(ValueError):
            boundary_residual(random_spinor(np.random.default_rng(1)), "top")

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

    def test_overflowing_momentum_names_the_length(self):
        with pytest.raises(ValueError, match=r"^length 1e-310 is too small: the "
                           r"momentum 2\*pi/\(2\*length\) overflows float64$"):
            quantized_momenta(1e-310, 2)

    def test_momenta_stay_positive_and_keep_their_bits(self):
        # n*pi/2/length is n*pi/(2*length) wherever 2*length is finite
        # (halving is exact) and stays > 0 where 2*length overflows
        rng = np.random.default_rng(107)
        lengths = [1e-300, 0.3, 1.0, 2.0 ** 1022, 8.98e307]
        lengths += (10.0 ** rng.uniform(-300.0, 307.9, 200)).tolist()
        for length in lengths:
            assert quantized_momenta(length, 3) == [
                n * math.pi / (2.0 * length) for n in (1, 2, 3)], length
        for length in (2.0 ** 1023, 1e308, 1.7976931348623157e308):
            assert min(quantized_momenta(length, 3)) > 0.0

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
    def test_residuals_reject_a_bad_length(self, length):
        # nan once returned nan and -1.0 returned 7.9993, on both forms
        pot = PotentialStep(v0=0.3, w_abs=0.5)
        message = "^length must be finite and > 0, got %s$" % re.escape(repr(length))
        with pytest.raises(InputError, match=message):
            quantization_residual(1.0, 1.0, pot, length, "minus")
        with pytest.raises(InputError, match=message):
            quantization_residual_grid(np.array([1.0, 2.0]), 1.0, pot, length, "minus")

    @pytest.mark.parametrize("momentum", [math.nan, math.inf, -math.inf])
    def test_residual_rejects_a_non_finite_momentum(self, momentum):
        # nan once gave "the quadratic in E^2 leaves float64 range"
        pot = PotentialStep(v0=0.3, w_abs=0.5)
        with pytest.raises(InputError, match="^momentum must be finite and > 0, got %s$"
                           % re.escape(repr(momentum))):
            quantization_residual(momentum, 1.0, pot, 1.0, "minus")
        # the array form keeps a nan lane nan, and the other lanes as they were
        g = quantization_residual_grid(np.array([math.nan, 1.0, 2.0]), 1.0, pot, 1.0,
                                       "minus")
        assert math.isnan(g[0])
        assert g[1:].tolist() == quantization_residual_grid(
            np.array([1.0, 2.0]), 1.0, pot, 1.0, "minus").tolist()

    @pytest.mark.parametrize("v0", [0.0, 0.3])
    def test_residual_phase_out_of_float64_range_is_an_input_error(self, v0):
        # 2*momentum*length = inf once reached math.sin: a bare ValueError
        with pytest.raises(InputError, match=r"^momentum 1\.0, length 1e\+308: the "
                           r"phase 2\*momentum\*length overflows float64$"):
            quantization_residual(1.0, 0.0, PotentialStep(v0=v0, w_abs=1.0), 1e308,
                                  "minus")
        # the array form gives nan there, as it does wherever the scalar raises
        g = quantization_residual_grid(np.array([1.0]), 0.0,
                                       PotentialStep(v0=v0, w_abs=1.0), 1e308, "minus")
        assert math.isnan(g[0])

    @pytest.mark.parametrize("v0", [0.0, 0.3])
    def test_residual_has_one_momentum_domain_at_every_v0(self, v0):
        # -1.0 once returned 7.9993 at v0 = 0.3 and nan at v0 = 0, and 0.0
        # returned -0.0 at v0 = 0.3 and raised SingularCoefficientsError at 0
        pot = PotentialStep(v0=v0, w_abs=0.5)
        for momentum in (-1.0, -0.0, 0.0, -5e-324):
            with pytest.raises(InputError, match="^momentum must be finite and > 0, "
                               "got %s$" % re.escape(repr(momentum))):
                quantization_residual(momentum, 1.0, pot, 1.0, "minus")
        g = quantization_residual_grid(np.array([-1.0, -0.0, 0.0, 1.0]), 1.0, pot,
                                       1.0, "minus")
        assert np.isnan(g[:3]).all()
        assert g[3] == quantization_residual(1.0, 1.0, pot, 1.0, "minus")

    @pytest.mark.parametrize("v0", [0.0, 0.3])
    def test_residual_out_of_float64_range_is_an_input_error(self, v0):
        # at v0 = 0 this once raised the bare "amp_ratio is not finite"
        # ValueError, an internal fault (exit 4) in the CLI
        pot = PotentialStep(v0=v0, w_abs=0.5)
        with pytest.raises(InputError, match="^momentum 1e[+]300: "):
            quantization_residual(1e300, 1.0, pot, 1.0, "minus")

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

    def test_plus_branch_below_shift_is_finite(self):
        # at v0 = 0 a plus-branch momentum below w_abs has the closed-form
        # energy hypot(Q - w_abs, m), as solve_spectrum's regime levels do
        assert math.isfinite(quantization_residual(0.3, 1.0, POT, 1.0, Branch.PLUS))
        pot = PotentialStep(w_abs=2.0)
        level = solve_spectrum(1.0, pot, 1.0, 1, Branch.PLUS)[0]
        assert level.regime_flag
        g = quantization_residual(level.momentum, 1.0, pot, 1.0, Branch.PLUS)
        assert abs(g) <= 1e-12
        # Q = w_abs puts the energy on the mass shell
        assert math.isnan(quantization_residual(0.5, 1.0, POT, 1.0, Branch.PLUS))

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


def lane_outcomes(mass, pot, length, branch, momenta):
    """The kinds of scalar outcome over momenta, each checked against its
    lane of quantization_residual_grid: a nan lane where the scalar form is
    nan or raises InputError or SingularCoefficientsError, the same value
    to 1e-10 elsewhere. Any other exception, NoSolutionError included,
    propagates."""
    seen = set()
    got = quantization_residual_grid(momenta, mass, pot, length, branch)
    for q, g_arr in zip(momenta.tolist(), got.tolist()):
        try:
            g = quantization_residual(q, mass, pot, length, branch)
        except (InputError, SingularCoefficientsError) as exc:
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
    return seen


def nan_where_raises(g):
    def safe(q):
        try:
            return g(q)
        except ValueError:
            return math.nan
    return safe


def scalar_grid(g):
    """The scan's grid values from one scalar call per point; scanned with a
    nan length, the pole rule skips no bracket."""
    safe = nan_where_raises(g)
    return lambda qs: np.array([safe(q) for q in qs.tolist()])


def denominator_draws(seed, n_wells=36, n_energies=8):
    """Seeded wells over v0 < 0, v0 = 0 and v0 > 0 on both branches, each
    with energies above the mass shell (inside the minus-branch evanescent
    window for half of them), then the energies of the pinned singular
    argv: bag-spectrum's defaults (resonant denominator) and --w0-abs 0.5
    --length 1e308 (a zero amp_ratio denominator), on both branches."""
    rng = np.random.default_rng(seed)
    for i in range(n_wells):
        mass = float(rng.uniform(0.0, 2.0))
        v0 = (-1.0, 0.0, 1.0)[i % 3] * float(rng.uniform(0.1, 1.5))
        w_abs = 0.0 if i % 9 == 4 else float(rng.uniform(0.05, 1.5))
        pot = PotentialStep(v0=v0, w_abs=w_abs,
                            w_phase=float(rng.uniform(-math.pi, math.pi)))
        e_low, e_up, width = evanescent_width(mass, v0, w_abs)
        energies = [e_low + float(rng.uniform(0.0, 1.0)) * width if width and k % 2
                    else mass + float(rng.uniform(1e-3, 3.0)) for k in range(n_energies)]
        yield mass, pot, (Branch.MINUS, Branch.PLUS)[i // 3 % 2], energies
    for w_abs, length in ((0.0, 1.0), (0.5, 1e308)):
        q = quantized_momenta(length, 1)[0]
        for branch in (Branch.MINUS, Branch.PLUS):
            yield 1.0, PotentialStep(w_abs=w_abs), branch, [math.hypot(q + w_abs, 1.0)]


class TestResidualGrid:
    def test_chain_shares_the_coefficient_denominators_bitwise(self):
        # the residual chain's amp_ratio.real and regular mask are
        # mode_coefficients' own, for floats and for each array lane
        seen = set()
        for mass, pot, branch, energies in denominator_draws(83):
            want = []
            for energy in energies:
                try:
                    mc = mode_coefficients(energy, mass, pot, branch)
                except SingularCoefficientsError as exc:
                    want.append((False, math.nan))
                    seen.add(str(exc).split(":")[0])
                    continue
                amp = mc.amp_ratio.real
                want.append((True, amp if math.isfinite(amp) else math.nan))
                sign = (pot.v0 > 0) - (pot.v0 < 0)
                seen.add((sign, branch, mc.momentum.imag > 0))
            got = [bag._residual_chain(1.0, e, mass, pot, 1.0, branch, step._MATH)[1:3]
                   for e in energies]
            assert repr(got) == repr(want), (mass, pot, branch)
            _, regular, amp = bag._residual_chain(
                np.ones(len(energies)), np.array(energies), mass, pot, 1.0, branch, np)
            assert repr(list(zip(regular.tolist(), amp.tolist()))) == repr(got)
        for sign in (-1, 0, 1):
            for branch in (Branch.MINUS, Branch.PLUS):
                assert (sign, branch, False) in seen
        assert {"resonant denominator", "amp_ratio denominator vanishes at these "
                "parameters", (1, Branch.MINUS, True), (-1, Branch.MINUS, True)} <= seen

    @pytest.mark.parametrize("mass,w_abs,length,n,branch", [
        (1.0, 3.141592653589793, 1.0, 2, Branch.PLUS),
        (1e308, 0.5, 1.0, 2, Branch.MINUS),
    ])
    def test_mass_shell_is_outside_the_chain(self, mass, w_abs, length, n, branch):
        # the E = m levels of the pinned singular argv: mode_coefficients
        # raises before any denominator, the chain divides by E - m = 0,
        # and quantization_residual's guard returns nan instead
        q = quantized_momenta(length, n)[-1]
        pot = PotentialStep(w_abs=w_abs)
        energy = math.hypot(q - w_abs if branch is Branch.PLUS else q + w_abs, mass)
        assert energy == mass
        with pytest.raises(SingularCoefficientsError, match=r"E = m"):
            mode_coefficients(energy, mass, pot, branch)
        with pytest.raises(ZeroDivisionError):
            bag._residual_chain(q, energy, mass, pot, length, branch, step._MATH)
        assert math.isnan(quantization_residual(q, mass, pot, length, branch))

    def test_array_form_matches_scalar(self):
        seen = set()
        for mass, pot, length, branch, momenta in residual_draws(61):
            seen |= lane_outcomes(mass, pot, length, branch, momenta)
        assert {"finite", "nan", SingularCoefficientsError} <= seen

    @pytest.mark.parametrize("v0", [0.0, 1e-300, -1e-300, 0.7])
    def test_each_lane_has_the_scalar_outcome(self, v0):
        # the plus-branch regime band Q <= w_abs, a level inside it (pi/2)
        # and a lane whose energy overflows float64, on both branches: nan
        # or InputError in the scalar form is a nan lane, at every v0
        band = np.append(np.linspace(0.05, 2.0, 40), math.pi / 2.0)
        seen = set()
        for branch in (Branch.MINUS, Branch.PLUS):
            seen |= lane_outcomes(1.0, PotentialStep(v0=v0, w_abs=2.0), 1.0, branch, band)
            seen |= lane_outcomes(1.0, PotentialStep(v0=v0, w_abs=1e308), 1e-10, branch,
                                  np.array([1e308]))
        assert {"finite", "nan", InputError} <= seen

    @pytest.mark.parametrize("w_abs", [0.5, 1e300])
    def test_out_of_range_lanes_are_nan_without_warnings(self, w_abs):
        # the E^2 quadratic overflows in the first lane; the grid masks it
        # to nan where the scalar form raises, and numpy's overflow and
        # invalid-value warnings stay inside the call
        pot = PotentialStep(v0=0.3, w_abs=w_abs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = quantization_residual_grid(np.array([1.57e200, 1.0]), 1.0, pot,
                                           1.0, "minus")
        assert math.isnan(g[0])

    @pytest.mark.parametrize("mass, message", [
        (-1.0, "mass must be finite and >= 0, got -1.0"),
        (math.nan, "mass must be finite and >= 0, got nan"),
        ("1", "mass must be a real number, got '1'"),
    ])
    def test_a_bad_mass_raises_as_in_the_scalar_form(self, mass, message):
        # the grid once gave array([nan]) for -1.0 and nan, and numpy's
        # TypeError for "1"
        pot = PotentialStep(v0=0.3, w_abs=0.5)
        for residual in (partial(quantization_residual, 1.0),
                         partial(quantization_residual_grid, np.array([1.0]))):
            with pytest.raises(InputError, match="^%s$" % re.escape(message)):
                residual(mass, pot, 1.0, "minus")

    def test_scan_roots_equal_a_scalar_scan(self, monkeypatch):
        # verify's own three configurations, through its section
        scans = []
        scan = report._scan_roots

        def both_scans(f, f_grid, q_max, length):
            roots = scan(f, f_grid, q_max, length)
            scans.append((roots, scan(f, scalar_grid(f), q_max, math.nan)))
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
                scans.append((scan(g, grid, q_max, length),
                              scan(g, scalar_grid(g), q_max, math.nan)))
        for roots, want in scans:
            assert roots and [r.hex() for r in roots] == [r.hex() for r in want]


def pole_rule_wells(seed, n_wells=20):
    """Seeded (mass, pot, length) wells with a nonzero w0 phase, v0 zero,
    positive and negative, for the root scans of both branches."""
    rng = np.random.default_rng(seed)
    for i in range(n_wells):
        length = float(rng.uniform(0.5, 2.0))
        v0 = (0.0, float(rng.uniform(0.1, 1.5)), -float(rng.uniform(0.1, 1.5)))[i % 3]
        q1 = math.pi / (2.0 * length)
        pot = PotentialStep(v0=v0, w_abs=float(rng.uniform(0.05, 0.5 * q1)),
                            w_phase=float(rng.uniform(-math.pi, math.pi)))
        yield float(rng.uniform(0.2, 2.0)), pot, length


class TestPoleRule:
    """report._scan_roots skips the brackets where g's numerator keeps one
    sign well away from 0; the roots equal those of bisecting every bracket
    (oracles.scan_roots_bisecting_every_bracket) bit for bit."""

    @staticmethod
    def counting_bisect(monkeypatch):
        cells = []
        bisect = report._bisect

        def counted(f, lo, hi, *args):
            cells.append((lo, hi))
            return bisect(f, lo, hi, *args)

        monkeypatch.setattr(report, "_bisect", counted)
        return cells

    def test_verify_bisects_only_the_root_brackets(self, monkeypatch):
        cells = self.counting_bisect(monkeypatch)
        scan = report._scan_roots
        scans = []

        def both_scans(f, f_grid, q_max, length):
            n = len(cells)
            roots = scan(f, f_grid, q_max, length)
            n_rule = len(cells) - n
            want = oracles.scan_roots_bisecting_every_bracket(report, f, f_grid, q_max)
            scans.append((roots, want, n_rule, len(cells) - n - n_rule))
            return roots

        monkeypatch.setattr(report, "_scan_roots", both_scans)
        assert report._section_quantization()["passed"]
        assert len(scans) == 6
        for roots, want, _, _ in scans:
            assert len(roots) == 10
            assert [r.hex() for r in roots] == [r.hex() for r in want]
        assert sum(s[2] for s in scans) == 60
        assert sum(s[3] for s in scans) == 120

    def test_seeded_wells_keep_every_root(self, monkeypatch):
        cells = self.counting_bisect(monkeypatch)
        # the v0 != 0 wells of test_scan_roots_equal_a_scalar_scan, then 20
        # wells with a nonzero w0 phase
        rng = np.random.default_rng(67)
        wells = []
        for v0 in (0.6, -0.9, 1.3):
            length = float(rng.uniform(0.5, 2.0))
            mass = float(rng.uniform(0.2, 2.0))
            wells.append((mass, PotentialStep(v0=v0, w_abs=float(rng.uniform(0.05, 1.0))),
                          length))
        wells += list(pole_rule_wells(71))
        n_roots = n_rule = n_every = 0
        for mass, pot, length in wells:
            q_max = 10.5 * math.pi / (2.0 * length)
            for branch in (Branch.MINUS, Branch.PLUS):
                args = dict(mass=mass, pot=pot, length=length, branch=branch)
                g = nan_where_raises(partial(quantization_residual, **args))
                n = len(cells)
                roots = report._scan_roots(g, partial(quantization_residual_grid, **args),
                                           q_max, length)
                n_rule += len(cells) - n
                n = len(cells)
                want = oracles.scan_roots_bisecting_every_bracket(
                    report, g, partial(quantization_residual_grid, **args), q_max)
                n_every += len(cells) - n
                assert [r.hex() for r in roots] == [r.hex() for r in want], args
                n_roots += len(roots)
        assert n_roots >= 20 * 2 * 5
        assert n_rule < n_every

    def test_a_cell_with_a_root_and_a_pole_is_still_bisected(self, monkeypatch):
        # on the grid 1, 2, ..., 8, num = sin(2QL) has its zeros at
        # multiples of 2.9999: a root at 2.3 beside a double pole at 2.6
        # where num changes sign, a pole at 3.45 where |num| < 1e-3 at q = 3,
        # and a pole at 4.45 where num keeps one sign well away from 0
        cells = self.counting_bisect(monkeypatch)

        def f(q):
            return (q - 2.3) / ((q - 2.6) ** 2 * (q - 3.45) * (q - 4.45))

        def f_grid(qs):
            return np.array([f(q) for q in qs.tolist()])

        monkeypatch.setattr(report, "_N_GRID", 8)
        roots = report._scan_roots(f, f_grid, 8.0, math.pi / (2.0 * 2.9999))
        assert cells == [(2.0, 3.0), (3.0, 4.0)]
        assert len(roots) == 1 and abs(roots[0] - 2.3) < 1e-12
        want = oracles.scan_roots_bisecting_every_bracket(report, f, f_grid, 8.0, n_grid=8)
        assert cells[2:] == [(2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
        assert [r.hex() for r in roots] == [r.hex() for r in want]


class TestExactZeros:
    def test_grid_zeros_and_a_midpoint_zero_are_roots(self, monkeypatch):
        # on the grid 1, 2, ..., 8, f is exactly 0 at the grid point 3, at the
        # last grid point 8, and at 5.5, the first midpoint that bisecting
        # (5, 6) tries; bisecting on past it would not end on 5.5 exactly
        cells = TestPoleRule.counting_bisect(monkeypatch)

        def f(q):
            return (q - 3.0) * (q - 5.5) * (q - 8.0)

        def f_grid(qs):
            return np.array([f(q) for q in qs.tolist()])

        monkeypatch.setattr(report, "_N_GRID", 8)
        roots = report._scan_roots(f, f_grid, 8.0, math.nan)
        assert cells == [(5.0, 6.0)]
        assert [r.hex() for r in roots] == [q.hex() for q in (3.0, 5.5, 8.0)]


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

    @pytest.mark.parametrize("w_abs,length,energy", [
        (1e300, 1.0, "1e+300"), (0.5, 1e-200, "1.5707963267948964e+200"),
    ])
    def test_overflowing_coefficients_name_the_level(self, w_abs, length, energy):
        match = (r"^level 1 at energy %s: the mode coefficients overflow float64$"
                 % re.escape(energy))
        with pytest.raises(ValueError, match=match):
            solve_spectrum(1.0, PotentialStep(w_abs=w_abs), length, 2, "minus")

    def test_overflowing_energy_names_the_level(self):
        # at v0 = 0 the energy hypot(eff_momentum, mass) is the quadratic's
        # degenerate root, out of range as the quadratic is at v0 != 0; it
        # once reached the coefficients as inf ("at energy inf")
        with pytest.raises(InputError, match=r"^level 1 at momentum 1\.5707963267948966: "
                           r"the quadratic in E\^2 leaves float64 range$"):
            solve_spectrum(1.7e308, PotentialStep(w_abs=1.7e308), 1.0, 2, "minus")

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
        # oracle: last sign change of mom2(E) - Q^2 on a fine scan above the
        # mass shell, refined by plain bisection; no sign change means no
        # level. Where the minus branch changes sign twice, the level is the
        # rising root, the one that meets hypot(Q + w_abs, m) at v0 = 0
        def mom2(e, m, v0, w_abs, branch):
            root = math.sqrt(e * e * v0 * v0 + (e * e - m * m) * w_abs * w_abs)
            sign = -1.0 if branch is Branch.MINUS else 1.0
            return e * e + v0 * v0 - m * m + w_abs * w_abs + sign * 2.0 * root

        rng = np.random.default_rng(59)
        solved = two_roots = 0
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
                assert math.isnan(bag._energy_for_momentum(q, m, pot, branch))
                continue
            two_roots += len(brackets) > 1
            want = oracles.bisect(defect, *brackets[-1], tol=1e-15)
            got = bag._energy_for_momentum(q, m, pot, branch)
            assert got == pytest.approx(want, rel=1e-12), (m, v0, w_abs, q, branch)
            solved += 1
        assert 40 < solved < 120
        assert two_roots > 0

    @pytest.mark.parametrize("w_abs", [3.0, 0.5])
    @pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
    @pytest.mark.parametrize("v0", [1e-300, -1e-300, 1e-12, -1e-12])
    def test_energies_are_continuous_through_v0_zero(self, v0, branch, w_abs):
        # each branch takes one root of the E^2 quadratic, the one that meets
        # hypot(Q -+ w_abs, m) at v0 = 0; at w_abs = 3 minus-branch level 1
        # has both roots on the minus sign (1.744 and 4.679)
        flat = solve_spectrum(1.0, PotentialStep(w_abs=w_abs), 1.0, 8, branch)
        pot = PotentialStep(v0=v0, w_abs=w_abs)
        if flat[0].regime_flag:
            # plus branch, Q_1 < w_abs: no energy carries Q_1 once v0 != 0
            with pytest.raises(NoSolutionError):
                solve_spectrum(1.0, pot, 1.0, 8, branch)
            flat = [level for level in flat if not level.regime_flag]
            energies = [bag._energy_for_momentum(level.momentum, 1.0, pot, branch)
                        for level in flat]
        else:
            energies = [level.energy for level in solve_spectrum(1.0, pot, 1.0, 8, branch)]
        assert len(energies) == len(flat) > 0
        for level, energy in zip(flat, energies):
            assert energy == pytest.approx(level.energy, rel=1e-12), level.index

    def test_minus_branch_energy_always_exists_and_solves_the_unsquared_relation(self):
        # the larger root of the E^2 quadratic keeps the minus sign for every
        # well, so the minus branch never lacks a level; its mom2_minus meets
        # Q^2 to tol relative to E^2 + v0^2 + m^2 + w^2, the size of its
        # terms. tol covers disc = half_b^2 - c, which cancels where v0^2 and
        # (w*Q)^2 are small against half_b^2 (5e-14 at worst on these draws)
        tol = 1e-12
        rng = np.random.default_rng(97)
        for i in range(120):
            mass = float(rng.uniform(0.0, 3.0))
            v0 = (float(rng.uniform(0.01, 4.0)), 1e-300, 1e-12)[i % 3] * (1.0, -1.0)[i % 2]
            w_abs = float(rng.uniform(0.0, 4.0))
            momenta = rng.uniform(0.01, 8.0, 256)
            energy, in_range = bag._energy_root(
                momenta, mass, PotentialStep(v0=v0, w_abs=w_abs), Branch.MINUS, np)
            assert in_range.all() and np.isfinite(energy).all(), (mass, v0, w_abs)
            mom2_minus = step.branch_mom2(energy, mass, v0, w_abs, np)[5]
            scale = energy * energy + v0 * v0 + mass * mass + w_abs * w_abs
            assert np.max(np.abs(mom2_minus - momenta * momenta) / scale) < tol, (
                mass, v0, w_abs)


    def test_energy_root_is_the_same_bits_for_floats_and_arrays(self):
        # _energy_root is written once; with sqrt, +, -, *, / and comparisons
        # only, a float call and an array call must agree bit for bit
        rng = np.random.default_rng(83)
        seen = set()
        for i in range(24):
            mass = float(rng.uniform(0.0, 2.0))
            v0 = float(rng.uniform(0.1, 2.0)) * (1.0, -1.0)[i % 2]
            pot = PotentialStep(v0=v0, w_abs=float(rng.uniform(0.0, 1.5)))
            momenta = rng.uniform(0.01, 6.0, 64)
            for branch in (Branch.MINUS, Branch.PLUS):
                energies, in_range = bag._energy_root(momenta, mass, pot, branch, np)
                assert in_range.all()
                for q, e_arr in zip(momenta.tolist(), energies.tolist()):
                    e = bag._energy_for_momentum(q, mass, pot, branch)
                    if math.isnan(e):
                        seen.add("none")
                        assert math.isnan(e_arr), (q, mass, pot, branch)
                        continue
                    seen.add(branch)
                    assert e_arr.hex() == e.hex(), (q, mass, pot, branch)
        assert seen == {"none", Branch.MINUS, Branch.PLUS}

    @pytest.mark.parametrize("mass,pot,length,momentum", [
        (1.0, PotentialStep(v0=0.3, w_abs=0.5), 1e-200, "1.5707963267948964e+200"),
        (1.0, PotentialStep(v0=1.0, w_abs=1e300), 1.0, "1.5707963267948966"),
        (0.0, PotentialStep(v0=1e-200), 1e300, "1.5707963267948965e-300"),
    ])
    def test_quadratic_out_of_range_names_the_level(self, mass, pot, length, momentum):
        # overflow (the first two) and underflow to big = 0 (the third) are
        # out of float64 range, not a missing level
        match = (r"^level 1 at momentum %s: the quadratic in E\^2 leaves float64 "
                 r"range$" % re.escape(momentum))
        with pytest.raises(ValueError, match=match) as info:
            solve_spectrum(mass, pot, length, 2, "minus")
        assert not isinstance(info.value, NoSolutionError)
        q = float(momentum)
        with pytest.raises(ValueError, match=r"^momentum "):
            quantization_residual(q, mass, pot, length, Branch.MINUS)
        with np.errstate(over="ignore", invalid="ignore"):
            energy, in_range = bag._energy_root(np.array([q]), mass, pot, Branch.MINUS, np)
        # the public array form masks these lanes without warning
        g = quantization_residual_grid(np.array([q]), mass, pot, length, Branch.MINUS)
        assert not in_range[0] and math.isnan(energy[0]) and math.isnan(g[0])


def composition_draws(seed, n_wells=72):
    """Seeded wells: v0 zero, positive and negative; both branches; small
    w_abs, or w_abs between Q_1 and 4*Q_1 so the first plus-branch levels
    carry regime_flag; 1, 100, or a random 2 to 99 levels."""
    rng = np.random.default_rng(seed)
    for i in range(n_wells):
        mass = float(rng.uniform(0.0, 2.0))
        length = float(rng.uniform(0.3, 3.0))
        q1 = math.pi / (2.0 * length)
        v0 = (0.0, 1.0, -1.0)[i % 3] * float(rng.uniform(0.1, 1.5))
        branch = (Branch.MINUS, Branch.PLUS)[i // 3 % 2]
        w_abs = float(rng.uniform(0.02, 0.6) if i // 6 % 2 else rng.uniform(1.1, 3.9)) * q1
        n_max = (1, 100, int(rng.integers(2, 100)))[i // 12 % 3]
        pot = PotentialStep(v0=v0, w_abs=w_abs, w_phase=float(rng.uniform(-math.pi, math.pi)))
        yield mass, pot, length, n_max, branch


def outcome(fn, *args):
    """repr of what fn returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


class TestOneSolvePerLevel:
    def test_spectrum_equals_the_composed_oracle(self):
        # solve_spectrum solves each level's coefficients once; the oracle
        # chains kinematics, a placeholder BagLevel, normalize and replace,
        # and every field must come out the same bits
        oracle = partial(oracles.spectrum_by_composition, bag, step)
        seen = set()
        for seed in (67, 71):
            for args in composition_draws(seed):
                got = outcome(solve_spectrum, *args)
                assert got == outcome(oracle, *args), args
                if got.startswith("["):
                    levels = solve_spectrum(*args)
                    sign = (args[1].v0 > 0) - (args[1].v0 < 0)
                    seen.add((sign, args[4], len(levels)))
                    seen.update(("regime", sign) for l in levels if l.regime_flag)
        # a plus-branch level under the shift exists only at v0 = 0: with
        # v0 != 0, mom2_plus >= w_abs^2 + v0^2 > Q^2 from the mass shell up
        assert ("regime", 0) in seen
        for sign in (-1, 0, 1):
            for branch in (Branch.MINUS, Branch.PLUS):
                assert {(sign, branch, 1), (sign, branch, 100)} <= seen

    def test_wavefunction_equals_the_solving_oracle(self):
        # the coefficients a level carries are the ones a fresh solve at its
        # energy gives, and its w_factor the one its pot gives: every field
        # of the wavefunction, bit for bit
        seen = set()
        for args in composition_draws(101, n_wells=36):
            mass, pot = args[0], args[1]
            try:
                levels = solve_spectrum(*args)
            except ValueError:
                continue
            for level in levels:
                for spin in ("up", "down"):
                    want = oracles.wavefunction_by_solving(bag, step, level, mass, pot, spin)
                    got = stationary_wavefunction(level, mass, pot, spin)
                    assert repr(got) == repr(want), (args, level)
                    sign = (pot.v0 > 0) - (pot.v0 < 0)
                    seen.add((sign, level.branch, spin, level.regime_flag))
        for sign in (-1, 0, 1):
            for branch in (Branch.MINUS, Branch.PLUS):
                for spin in ("up", "down"):
                    assert (sign, branch, spin, False) in seen
        assert {(0, Branch.PLUS, "up", True), (0, Branch.PLUS, "down", True)} <= seen

    def test_mode_coefficients_equal_the_kinematics_composition(self):
        # evanescent energies (mom2_minus < 0) inside the minus-branch window,
        # energies above it, and the mass-shell and sub-mass-shell errors
        rng = np.random.default_rng(73)
        evanescent = 0
        for i in range(200):
            mass = float(rng.uniform(0.0, 2.0))
            pot = PotentialStep(v0=(1.0, -1.0)[i % 2] * float(rng.uniform(0.1, 2.0)),
                                w_abs=float(rng.uniform(0.0, 1.5)),
                                w_phase=float(rng.uniform(-math.pi, math.pi)))
            e_low, e_up, width = evanescent_width(mass, pot.v0, pot.w_abs)
            energy = (e_low + float(rng.uniform(0.0, 1.0)) * width if i % 4
                      else e_up + float(rng.uniform(0.0, 3.0)))
            evanescent += kinematics(energy, mass, pot).mom2_minus < 0.0
            for branch in (Branch.MINUS, Branch.PLUS):
                for e in (energy, mass, 0.5 * mass):
                    want = outcome(oracles.mode_coefficients_via_kinematics, step,
                                   e, mass, pot, branch)
                    assert outcome(mode_coefficients, e, mass, pot, branch) == want
        assert evanescent > 100
        for e, m in ((1.0, -1.0), (-1.0, -1.0), (math.nan, 1.0)):
            want = outcome(oracles.mode_coefficients_via_kinematics, step, e, m,
                           POT, Branch.MINUS)
            assert outcome(mode_coefficients, e, m, POT, Branch.MINUS) == want

    @pytest.mark.parametrize("v0", [0.0, 0.7])
    @pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
    @pytest.mark.parametrize("n_max", [1, 7, 100])
    def test_one_coefficient_solve_per_level(self, monkeypatch, v0, branch, n_max):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # each level solves its coefficients once, through step's core in
        # real arithmetic, and builds no ModeCoefficients record
        for name in ("_coefficients", "normalize", "stationary_wavefunction", "replace"):
            counted(bag, name)
        counted(step, "mode_coefficients")
        counted(step, "kinematics")
        levels = solve_spectrum(1.0, PotentialStep(v0=v0, w_abs=0.5), 1.0, n_max, branch)
        assert len(levels) == n_max
        assert calls == Counter(_coefficients=n_max)

    def test_real_and_complex_momenta_give_the_same_bits(self):
        # the core on a float momentum gives the real parts of its results
        # on the complex one, signed zeros included: energies above the
        # shell, both branches, v0 zero and of either sign
        rng = np.random.default_rng(79)
        real = Counter()
        for i in range(300):
            mass = float(rng.uniform(0.0, 2.0))
            v0 = (0.0, 1.0, -1.0)[i % 3] * float(rng.uniform(0.1, 2.0))
            w_abs = float(rng.uniform(0.05, 1.5))
            energy = mass + float(rng.uniform(1e-3, 4.0))
            for plus in (False, True):
                mom2 = step._branch_denominators(energy, mass, v0, w_abs, plus, step._MATH)[0]
                got = step._coefficients(energy, mass, v0, w_abs, plus, True)
                want = step._coefficients(energy, mass, v0, w_abs, plus, False)
                assert type(got[0]) is (float if mom2 >= 0.0 else complex)
                assert [float.hex(x.real) for x in got[1:]] == [
                    float.hex(x.real) for x in want[1:]], (energy, mass, v0, w_abs, plus)
                real[(v0 > 0) - (v0 < 0), plus] += mom2 >= 0.0
        assert min(real.values()) > 50 and len(real) == 6

    @pytest.mark.parametrize("mass, pot, length", [
        (1.9173813062551959, PotentialStep(w_abs=0.5422324589249886), 609676835891.4634),
        (1.9242414904132492, PotentialStep(v0=-0.6670310454174107, w_abs=0.20756362027516495),
         9169450856.299553),
    ])
    def test_a_level_below_zero_mom2_keeps_the_complex_momentum(self, mass, pot, length):
        # in these wide wells the squared momentum rounds below 0 at the
        # level's energy; its real parts read the imaginary momentum, so
        # neither sqrt(mom2) nor sqrt(max(mom2, 0)) gives the level
        (level,) = solve_spectrum(mass, pot, length, 1, "minus")
        mom2 = step._branch_denominators(level.energy, mass, pot.v0, pot.w_abs, False,
                                         step._MATH)[0]
        assert mom2 < 0.0
        (want,) = oracles.spectrum_by_composition(bag, step, mass, pot, length, 1, "minus")
        assert repr(level) == repr(want)

    def test_wavefunction_reads_nothing_of_the_well(self, monkeypatch):
        # a level carries its w_factor: with PotentialStep.w0 made to raise,
        # every wavefunction still builds, and to the same bits as the
        # oracle that takes w_factor from the level's own pot
        cases = []
        for mass, pot, length, n_max, branch in composition_draws(103, n_wells=36):
            try:
                levels = solve_spectrum(mass, pot, length, n_max, branch)
            except ValueError:
                continue
            cases += [(level, mass, pot, spin, repr(oracles.wavefunction_by_solving(
                bag, step, level, mass, pot, spin)))
                for level in levels for spin in ("up", "down")]

        def unread(_):
            raise AssertionError("stationary_wavefunction read pot.w0")

        monkeypatch.setattr(PotentialStep, "w0", property(unread))
        for level, mass, pot, spin, want in cases:
            assert repr(stationary_wavefunction(level, mass, pot, spin)) == want
        assert {(c[0].branch, c[3]) for c in cases} == {
            (b, s) for b in (Branch.MINUS, Branch.PLUS) for s in ("up", "down")}

    @pytest.mark.parametrize("v0", [0.0, 0.7])
    @pytest.mark.parametrize("branch", [Branch.MINUS, Branch.PLUS])
    def test_wavefunction_solves_nothing(self, monkeypatch, v0, branch):
        pot = PotentialStep(v0=v0, w_abs=0.5)
        levels = solve_spectrum(1.0, pot, 1.0, 7, branch)
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[module.__name__, name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((bag, "_coefficients"), (step, "mode_coefficients"),
                             (step, "kinematics")):
            counted(module, name)
        wfs = [stationary_wavefunction(level, 1.0, pot, spin)
               for level in levels for spin in ("up", "down")]
        assert len(wfs) == 14 and calls == Counter()


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
        for bad in (replace(wf, phase=math.nan), replace(wf, amplitude=0.0)):
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
    """(v0, wavefunction): seeded standing waves over both branches and
    spins, v0 zero, positive and negative, and a nonzero w0 phase."""
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
                yield v0, stationary_wavefunction(level, mass, pot, spin)


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
        for v0, wf in density_draws(79):
            seen.add((wf.branch, wf.spin, np.sign(v0)))
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
        for _, wf in density_draws(97, n_wells=12, n_levels=2):
            z = sample_points(rng, wf.length)
            rho_c, rho_q = wf.density_split(z)
            rho = wf.density(z)
            for k, zz in enumerate(z.tolist()):
                c, q = wf.density_split(zz)
                assert isinstance(c, float) and isinstance(wf.density(zz), float)
                got = np.array([c, q, wf.density(zz)])
                assert got.tobytes() == np.array([rho_c[k], rho_q[k], rho[k]]).tobytes()


# a well whose level 1 has |w0*j_chi| near 2.5e174, and a wave with j_chi
# 1e300: past about 1.34e154 a float's ** 2 raises OverflowError, which
# once left solve_spectrum and the density weights bare (the CLI's exit 4)
HEAVY_WELL = ["--mass", "1e-200", "--v0", "3.141592653589793", "--w0-abs", "1e-8",
              "--length", "1e12"]
HEAVY_WAVE = StationaryWavefunction(Branch.MINUS, "up", 1.0, 1.0, 0.5, 1e300, 1 + 0j, 1.0)
LEVEL_WEIGHT = (r"level 1 at momentum 1\.5707963267948965e-12: j_chi [-+.e0-9]+ makes "
                r"the density weight \|w0\*j_chi\|\^2 overflow float64")
WAVE_WEIGHT = (r"w_factor \(1\+0j\), j_chi 1e\+300: the density weight "
               r"\|w_factor\*j_chi\|\^2 overflows float64")
HEAVY_WEIGHT = {
    "solve_spectrum": (lambda: solve_spectrum(1e-200, PotentialStep(v0=math.pi, w_abs=1e-8),
                                              1e12, 1, "minus"), LEVEL_WEIGHT),
    "normalize": (lambda: normalize(HEAVY_WAVE), WAVE_WEIGHT),
    "density_split": (lambda: HEAVY_WAVE.density_split(0.5), WAVE_WEIGHT),
    "density": (lambda: HEAVY_WAVE.density(0.5), WAVE_WEIGHT),
    "density_profile": (lambda: density_profile(HEAVY_WAVE, 5), WAVE_WEIGHT),
    "cli-bag-spectrum": (["bag-spectrum", *HEAVY_WELL, "--levels", "1"], LEVEL_WEIGHT),
    "cli-density": (["density", *HEAVY_WELL, "--level", "1"], LEVEL_WEIGHT),
}


@pytest.mark.parametrize("case", HEAVY_WEIGHT)
def test_an_overflowing_density_weight_is_an_input_error(case):
    call, message = HEAVY_WEIGHT[case]
    if callable(call):
        with pytest.raises(InputError, match="^%s$" % message):
            call()
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(call)
    assert (code, out.getvalue()) == (2, "")
    assert re.fullmatch("error: %s\n" % message, err.getvalue()), err.getvalue()


WAVE = stationary_wavefunction(solve_spectrum(1.0, POT, 1.0, 1, Branch.MINUS)[0], 1.0, POT)
NOT_FINITE = "%s must be finite, got %r"
# (a call on WAVE with one field replaced, and the whole message it raises)
BAD_WAVE = {
    # each once raised a bare error: ZeroDivisionError, then math's
    # ValueError("math domain error") from sin(inf) or cos(inf)
    "normalize-momentum-0": (lambda: normalize(replace(WAVE, momentum=0.0)),
                             "cannot normalize at momentum 0.0, phase %r: both must be "
                             "finite and the momentum nonzero" % WAVE.phase),
    "normalize-phase-inf": (lambda: normalize(replace(WAVE, phase=math.inf)),
                            "cannot normalize at momentum %r, phase inf: both must be "
                            "finite and the momentum nonzero" % WAVE.momentum),
    "normalize-amplitude-inf": (lambda: normalize(replace(WAVE, amplitude=math.inf)),
                                NOT_FINITE % ("amplitude", math.inf)),
    "evaluate-momentum-inf": (lambda: replace(WAVE, momentum=math.inf).evaluate(0.5),
                              NOT_FINITE % ("momentum", math.inf)),
    "evaluate-phase-inf": (lambda: replace(WAVE, phase=-math.inf).evaluate(0.0),
                           NOT_FINITE % ("phase", -math.inf)),
    # finite fields whose angle at z overflows
    "evaluate-angle-overflow": (
        lambda: replace(WAVE, momentum=1e308, length=10.0).evaluate(5.0),
        "momentum 1e+308, phase %r: the wave's angles at z = 5.0 are infinite"
        % WAVE.phase),
    # each once gave nan without an error: inf * 0 at z = 0, a nan field, or
    # an infinite weight times a zero sine or cosine
    "evaluate-momentum-inf-at-0": (lambda: replace(WAVE, momentum=math.inf).evaluate(0.0),
                                   NOT_FINITE % ("momentum", math.inf)),
    "evaluate-momentum-nan": (lambda: replace(WAVE, momentum=math.nan).evaluate(0.5),
                              NOT_FINITE % ("momentum", math.nan)),
    "evaluate-phase-nan": (lambda: replace(WAVE, phase=math.nan).evaluate(0.5),
                           NOT_FINITE % ("phase", math.nan)),
    "evaluate-amp_ratio-inf": (lambda: replace(WAVE, amp_ratio=math.inf).evaluate(0.0),
                               NOT_FINITE % ("amp_ratio", math.inf)),
    "evaluate-j_chi-nan": (lambda: replace(WAVE, j_chi=math.nan).evaluate(0.5),
                           NOT_FINITE % ("j_chi", math.nan)),
    "evaluate-amplitude-nan": (lambda: replace(WAVE, amplitude=math.nan).evaluate(0.5),
                               NOT_FINITE % ("amplitude", math.nan)),
    "density-momentum-inf": (lambda: replace(WAVE, momentum=math.inf).density(0.5),
                             NOT_FINITE % ("momentum", math.inf)),
    "density-phase-nan": (lambda: replace(WAVE, phase=math.nan).density(0.5),
                          NOT_FINITE % ("phase", math.nan)),
    "density-amp_ratio-nan": (lambda: replace(WAVE, amp_ratio=math.nan).density(0.5),
                              NOT_FINITE % ("amp_ratio", math.nan)),
    "density-j_chi-inf": (lambda: replace(WAVE, j_chi=-math.inf).density(0.5),
                          NOT_FINITE % ("j_chi", -math.inf)),
    "density-amplitude-inf": (lambda: replace(WAVE, amplitude=math.inf).density(0.0),
                              NOT_FINITE % ("amplitude", math.inf)),
    "density_split-momentum-nan": (
        lambda: replace(WAVE, momentum=math.nan).density_split(np.linspace(0.0, 1.0, 5)),
        NOT_FINITE % ("momentum", math.nan)),
    "density_split-phase-inf": (
        lambda: replace(WAVE, phase=math.inf).density_split(0.0),
        NOT_FINITE % ("phase", math.inf)),
    "density_split-amp_ratio-inf": (
        lambda: replace(WAVE, amp_ratio=math.inf).density_split(np.linspace(0.0, 1.0, 5)),
        NOT_FINITE % ("amp_ratio", math.inf)),
}


@pytest.mark.parametrize("case", BAD_WAVE)
def test_a_wave_the_closed_form_cannot_take_is_an_input_error(case):
    call, message = BAD_WAVE[case]
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        call()

"""Self-verification report: every check the package can run on itself.

The report is a single JSON-ready dict with stable key order and a fixed
random seed, so repeated runs are byte-identical. Sections carry a kind tag:
"assert" sections gate the process exit code, "diagnostic" sections report
numbers that the source material leaves ambiguous (sign conventions of the
plus-branch travelling spinor, the coefficient consistency relation, the full
spinor mismatch at the far wall) and never fail the run.

The quantization section scans g(Q) on each 4096-point grid in one call to
its array form (bag.quantization_residual_grid). Those values only bracket
the roots; every root in the report is the scalar quantization_residual
bisected, so the array form's last-bit differences from math never reach the
output. A bracket where g's numerator sin(2QL) keeps one sign well away from
0 holds a pole and no root, and is not bisected (_scan_roots computes that
numerator and says why the roots stay the same). The quaternion section
multiplies whole arrays with quaternion._quat_mul, the product Quaternion
itself uses. The oracle section stacks its 100 operators, on and off the
branches, and decomposes them in one SVD call (dirac._nullspace_stack); the
realified-operator section takes its six ranks in one matrix_rank call.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import combinations

from . import _kernels
from .bag import (
    boundary_residual,
    normalize,
    quantization_residual,
    quantization_residual_grid,
    quantized_momenta,
    solve_spectrum,
    stationary_wavefunction,
)
from .dirac import (
    QSpinor,
    _nullspace_stack,
    _operator_stack,
    build_matrices,
    stationary_residual,
)
from .nonrel import nr_parameters, nr_quantize
from .quaternion import Quaternion, _quat_mul
from .step import (
    Branch,
    PotentialStep,
    consistency_residual,
    evanescent_width,
    kinematics,
    mode_coefficients,
    principal_momentum,
    step_spinor,
)

SEED = 20240915
# grid points of each root scan's brackets (_scan_roots)
_N_GRID = 4096

__all__ = ["build_report", "report_passed"]


def _rng():
    import numpy as np

    return np.random.default_rng(SEED)


def _max(vals):
    return float(max(vals)) if vals else 0.0


def _bisect(f, lo, hi):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _scan_roots(f, f_grid, q_max, length):
    """Bisection roots of f on (0, q_max], skipping poles and gaps.

    f is g(Q) = num/den of a well of this length, with num = sin(2QL) and
    den = sin a sin b (bag._residual_chain); f_grid gives f on the whole
    grid in one call. Its values only choose the brackets: a grid point
    where f is exactly 0, or a sign change between two finite neighbours
    that the pole rule keeps. Every other root is the scalar f bisected.

    The pole rule skips a cell where num keeps one sign with |num| > 1e-3 at
    both ends: f changes sign there at a pole, and the filter after the
    bisection would drop what it returns. The zeros of num lie pi/(2L)
    apart, wider than a cell on verify's grids, so such a cell holds no zero
    of num; |sin| is concave between its zeros, so |num| stays above its
    smaller end value inside; and |den| <= 1, so |f| > 1e-6 throughout the
    cell. A nan length makes num nan, and the rule skips no cell.
    """
    import numpy as np

    grid = np.linspace(q_max / _N_GRID, q_max, _N_GRID)
    vals, num = f_grid(grid), np.sin(2.0 * length * grid)
    a, b = vals[:-1], vals[1:]
    pole = ((np.sign(num[:-1]) == np.sign(num[1:]))
            & (np.minimum(abs(num[:-1]), abs(num[1:])) > 1e-3))
    brackets = (np.isfinite(a) & np.isfinite(b)
                & ((a == 0.0) | ((np.sign(a) * np.sign(b) < 0.0) & ~pole)))
    roots = []
    for i in np.flatnonzero(brackets).tolist():
        if a[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        r = _bisect(f, float(grid[i]), float(grid[i + 1]))
        if abs(f(r)) < 1e-6:  # sign changes at poles bisect too; drop them
            roots.append(r)
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _section_matrix_algebra():
    import numpy as np

    mats = build_matrices()
    beta, alphas = mats.beta, list(enumerate(mats.alpha, start=1))
    eye, zero = np.eye(4, dtype=complex), np.zeros((4, 4), dtype=complex)
    checks = {"beta_squared_is_identity": bool(np.array_equal(beta @ beta, eye))}
    for i, a in alphas:
        checks["alpha%d_squared_is_identity" % i] = bool(np.array_equal(a @ a, eye))
        checks["alpha%d_hermitian" % i] = bool(np.array_equal(a, a.conj().T))
        checks["beta_anticommutes_alpha%d" % i] = bool(
            np.array_equal(beta @ a + a @ beta, zero))
    for (i, a), (j, b) in combinations(alphas, 2):
        checks["alpha%d_anticommutes_alpha%d" % (i, j)] = bool(
            np.array_equal(a @ b + b @ a, zero))
    checks["beta_hermitian"] = bool(np.array_equal(beta, beta.conj().T))
    return {"kind": "assert", "passed": all(checks.values()), "checks": checks}


def _section_quaternion_algebra():
    import numpy as np

    n = 10000
    rng = _rng()
    u1, w1, u2, w2, u3, w3 = (
        rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(6)
    )
    # associativity, with Quaternion's own product on whole arrays
    u12, w12 = _quat_mul(u1, w1, u2, w2)
    ul, wl = _quat_mul(u12, w12, u3, w3)
    u23, w23 = _quat_mul(u2, w2, u3, w3)
    ur, wr = _quat_mul(u1, w1, u23, w23)
    assoc = float(np.max(np.hypot(np.abs(ul - ur), np.abs(wl - wr))))
    # norm multiplicativity
    n1 = np.sqrt(np.abs(u1) ** 2 + np.abs(w1) ** 2)
    n2 = np.sqrt(np.abs(u2) ** 2 + np.abs(w2) ** 2)
    n12 = np.sqrt(np.abs(u12) ** 2 + np.abs(w12) ** 2)
    norm_dev = float(np.max(np.abs(n12 - n1 * n2) / (n1 * n2)))
    # j z = conj(z) j on scalars
    z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    jz_dev = 0.0
    j = Quaternion(0.0, 1.0)
    for zz in z:
        lhs = j * Quaternion(zz, 0.0)
        rhs = Quaternion(zz.conjugate(), 0.0) * j
        jz_dev = max(jz_dev, (lhs - rhs).norm())
    passed = assoc <= 1e-13 and norm_dev <= 1e-13 and jz_dev <= 1e-15
    return {
        "kind": "assert",
        "passed": bool(passed),
        "samples": n,
        "associativity_max_dev": assoc,
        "norm_multiplicativity_max_rel_dev": norm_dev,
        "j_commutation_max_dev": jz_dev,
    }


def _draw_point(rng, mass, span):
    """A random well and an energy 0.1 to span above its window's upper edge."""
    pot = PotentialStep(
        v0=float(rng.uniform(0.0, 2.0)),
        w_abs=float(rng.uniform(0.05, 1.5)),
        w_phase=float(rng.uniform(-math.pi, math.pi)),
    )
    _, e_up, _ = evanescent_width(mass, pot.v0, pot.w_abs)
    return pot, float(rng.uniform(e_up + 0.1, e_up + span))


def _section_oracle_residuals():
    """(section, plus_points): plus_points holds each draw's plus-branch
    (pot, energy, momentum, nullspace basis), for _section_plus_branch."""
    n_draws = 25
    rng = _rng()
    mass = 1.0
    oracle_res, minus_res, plus_points, branches, points = [], [], [], [], []
    for _ in range(n_draws):
        pot, energy = _draw_point(rng, mass, 4.0)
        kin = kinematics(energy, mass, pot)
        for branch, mom2 in ((Branch.MINUS, kin.mom2_minus), (Branch.PLUS, kin.mom2_plus)):
            branches.append(branch)
            points.append((energy, principal_momentum(mom2), mass, pot))
    # one SVD call for the on-branch points and the off-branch ones at mom + 0.1
    bases = _nullspace_stack(points + [(e, q + 0.1, m, p) for e, q, m, p in points])
    for branch, (energy, mom, _, pot), basis in zip(branches, points, bases):
        for psi in basis:
            oracle_res.append(stationary_residual(psi, energy, mom, mass, pot))
        if branch is Branch.MINUS:
            st = step_spinor(energy, mass, pot, branch)
            minus_res.append(stationary_residual(st.spinor, energy, complex(mom), mass, pot))
        else:
            plus_points.append((pot, energy, mom, basis))
    empty_offbranch = sum(len(off) == 0 for off in bases[len(points):])
    passed = (
        _max(oracle_res) < 1e-12
        and _max(minus_res) < 1e-10
        and empty_offbranch == 2 * n_draws
    )
    return {
        "kind": "assert",
        "passed": bool(passed),
        "draws": n_draws,
        "oracle_max_residual": _max(oracle_res),
        "minus_closed_form_max_residual": _max(minus_res),
        "off_branch_nullspaces_empty": int(empty_offbranch),
        "off_branch_nullspaces_expected": 2 * n_draws,
    }, plus_points


def _spin_up_nullvector(basis):
    """The unique (up to right complex scale) spin-up nullvector of the
    nullspace_oracle basis.

    The nullspace is a right-complex module of complex dimension 2; combining
    its real basis to annihilate the spin-down components isolates the one
    spin-up line. The result is normalized so the complex part of the third
    component (the chi-like block) is 1.
    """
    import numpy as np

    rows = np.array([b.to_real_vector() for b in basis])
    down = rows[:, list(range(4, 8)) + list(range(12, 16))].T
    _, _, vt = np.linalg.svd(down)
    psi = QSpinor.from_real_vector(vt[-1] @ rows)
    scale = psi.comp[2].u
    return QSpinor([Quaternion(q.u / scale, q.w / scale) for q in psi.comp])


def _section_plus_branch(points):
    """The travelling plus-branch form does not solve the equation of motion;
    quantify the failure and measure what the true solution looks like, at
    the oracle section's (pot, energy, momentum, basis) points."""
    import numpy as np

    mass = 1.0
    printed_res = []
    deficits = []
    phase_defects = []
    w_ratio_defects = []
    u_ratio_defects = []
    for pot, energy, mom, basis in points:
        st = step_spinor(energy, mass, pot, Branch.PLUS)
        printed_res.append(stationary_residual(st.spinor, energy, mom, mass, pot))
        v = st.spinor.to_real_vector()
        v = v / np.linalg.norm(v)
        proj2 = sum(float(np.dot(v, b.to_real_vector())) ** 2 for b in basis)
        deficits.append(1.0 - proj2)
        psi = _spin_up_nullvector(basis)
        mc = mode_coefficients(energy, mass, pot, Branch.PLUS)
        eiph = complex(math.cos(pot.w_phase), math.sin(pot.w_phase))
        d = psi.comp[2].w
        phase_defects.append(abs((d * eiph.conjugate()).imag) / abs(d))
        w_ratio_defects.append(abs(psi.comp[0].w / d - mc.amp_ratio))
        u_ratio_defects.append(abs(psi.comp[0].u - mc.j_sigma / mc.j_chi))
    return {
        "kind": "diagnostic",
        "note": (
            "the plus-branch travelling form (swapped blocks, conjugated "
            "potential representative) leaves an O(1) equation-of-motion "
            "residual and sits far outside the numerical nullspace; the "
            "actual spin-up nullvector carries its quaternionic parts with "
            "the unconjugated potential phase, with the two quaternionic "
            "parts in the ratio amp_ratio and the two complex parts in the "
            "ratio j_sigma/j_chi (both measured below)"
        ),
        "draws": len(points),
        "printed_form_residual_min": float(min(printed_res)),
        "printed_form_residual_max": float(max(printed_res)),
        "printed_form_projection_deficit_max": float(max(deficits)),
        "nullvector_unconjugated_phase_max_defect": _max(phase_defects),
        "nullvector_w_ratio_vs_amp_ratio_max_defect": _max(w_ratio_defects),
        "nullvector_u_ratio_vs_jsigma_over_jchi_max_defect": _max(u_ratio_defects),
    }


def _section_consistency():
    n_draws = 8
    rng = _rng()
    mass = 1.0
    samples = []
    for _ in range(n_draws):
        pot, energy = _draw_point(rng, mass, 3.0)
        r_minus, r_plus = consistency_residual(energy, mass, pot)
        samples.append(
            {
                "energy": energy,
                "v0": pot.v0,
                "w_abs": pot.w_abs,
                "r_minus": r_minus,
                "r_plus": r_plus,
            }
        )
    frozen = consistency_residual(2.0, 1.0, PotentialStep(w_abs=0.5))
    return {
        "kind": "diagnostic",
        "note": (
            "distance |amp_ratio + conj(j_sigma)/conj(j_chi)|; claimed to "
            "vanish in general by the source material, nonzero for these "
            "closed forms, so reported and never asserted"
        ),
        "spot_check_e2_m1_w05": {"r_minus": frozen[0], "r_plus": frozen[1]},
        "samples": samples,
    }


def _section_quantization():
    n_levels = 10
    rng = _rng()
    mass = 1.0
    configs = []
    all_ok = True
    for _ in range(3):
        length = float(rng.uniform(0.5, 2.0))
        q1 = math.pi / (2.0 * length)
        pot = PotentialStep(w_abs=float(rng.uniform(0.05, 0.5 * q1)))
        expected = quantized_momenta(length, n_levels)
        q_max = (n_levels + 0.5) * math.pi / (2.0 * length)
        per_branch = {}
        for branch in (Branch.MINUS, Branch.PLUS):
            args = dict(mass=mass, pot=pot, length=length, branch=branch)
            roots = _scan_roots(partial(quantization_residual, **args),
                                partial(quantization_residual_grid, **args), q_max, length)
            matched = []
            for q_n in expected:
                best = min(roots, key=lambda r: abs(r - q_n)) if roots else math.inf
                matched.append(abs(best - q_n))
            ok = len(roots) == n_levels and _max(matched) < 1e-9
            all_ok = all_ok and ok
            per_branch[branch.value] = {
                "roots_found": len(roots),
                "max_distance_to_n_pi_over_2L": _max(matched),
                "ok": bool(ok),
            }
        configs.append(
            {"length": length, "w_abs": pot.w_abs, "branches": per_branch}
        )
    return {
        "kind": "assert",
        "passed": bool(all_ok),
        "levels_per_config": n_levels,
        "configs": configs,
    }


def _section_boundary():
    n_draws, n_levels = 6, 4
    rng = _rng()
    z0_res = []
    g_at_roots = []
    g_off_roots = []
    antisym = []
    wall_full = []
    cond_defects = []
    for _ in range(n_draws):
        mass = float(rng.uniform(0.2, 2.0))
        length = float(rng.uniform(0.5, 3.0))
        q1 = math.pi / (2.0 * length)
        w_abs = float(rng.uniform(0.05, min(2.0, 0.6 * q1)))
        pot = PotentialStep(w_abs=w_abs, w_phase=float(rng.uniform(-math.pi, math.pi)))
        for branch in (Branch.MINUS, Branch.PLUS):
            levels = solve_spectrum(mass, pot, length, n_levels, branch)
            for level in levels:
                for spin in ("up", "down"):
                    wf = stationary_wavefunction(level, mass, pot, spin)
                    z0_res.append(boundary_residual(wf.evaluate(0.0), "left"))
                    if spin == "up":
                        wall_full.append(
                            boundary_residual(wf.evaluate(level.length), "right")
                        )
                g = quantization_residual(level.momentum, mass, pot, length, branch)
                g_at_roots.append(abs(g))
                g_off = quantization_residual(
                    level.momentum + 0.1 / length, mass, pot, length, branch
                )
                g_off_roots.append(abs(g_off))
                a = level.momentum * length - 0.5 * level.phase
                b = level.momentum * length + 0.5 * level.phase
                antisym.append(abs(1.0 / math.tan(a) + 1.0 / math.tan(b)))
                # the individual far-wall condition targets cot(phase/2),
                # which already carries the branch sign
                target = math.cos(0.5 * level.phase) / math.sin(0.5 * level.phase)
                cond_defects.append(abs(1.0 / math.tan(a) - target))
    passed = (
        _max(z0_res) < 1e-12
        and _max(g_at_roots) < 1e-10
        and min(g_off_roots) > 1e-2
        and _max(antisym) < 1e-9
    )
    return {
        "kind": "assert",
        "passed": bool(passed),
        "near_wall_max_residual": _max(z0_res),
        "far_wall_antisymmetry_max_residual": _max(g_at_roots),
        "far_wall_off_root_min_residual": float(min(g_off_roots)),
        "cotangent_antisymmetry_max_defect": _max(antisym),
        "diagnostic_full_far_wall_mismatch_max": _max(wall_full),
        "diagnostic_cotangent_vs_amp_ratio_max_defect": _max(cond_defects),
        "note": (
            "only the antisymmetry combination of the two far-wall cotangent "
            "conditions vanishes at the quantized momenta; the individual "
            "conditions and the full spinor mismatch stay O(1) and are "
            "reported here as diagnostics"
        ),
    }


def _section_spectrum():
    pot = PotentialStep(w_abs=0.5)
    minus = solve_spectrum(1.0, pot, 1.0, 1, Branch.MINUS)[0].energy
    plus = solve_spectrum(1.0, pot, 1.0, 1, Branch.PLUS)[0].energy
    expected_minus = math.hypot(math.pi / 2.0 + 0.5, 1.0)
    expected_plus = math.hypot(math.pi / 2.0 - 0.5, 1.0)
    # general-v0 check: the inverted energy really carries Q_1, and
    # the closed-form shifted-momentum energy differs there (diagnostic)
    pot_v = PotentialStep(v0=1.0, w_abs=1.0)
    lvl = solve_spectrum(1.0, pot_v, 1.0, 1, Branch.MINUS)[0]
    kin = kinematics(lvl.energy, 1.0, pot_v)
    mom_defect = abs(principal_momentum(kin.mom2_minus).real - lvl.momentum)
    closed = math.hypot(lvl.eff_momentum, 1.0)
    passed = (
        abs(minus - expected_minus) < 1e-12
        and abs(plus - expected_plus) < 1e-12
        and mom_defect < 1e-9
    )
    return {
        "kind": "assert",
        "passed": bool(passed),
        "e1_minus": minus,
        "e1_plus": plus,
        "e1_minus_closed_form": expected_minus,
        "e1_plus_closed_form": expected_plus,
        "v0_inversion_momentum_defect": mom_defect,
        "diagnostic_v0_shifted_momentum_energy_gap": abs(closed - lvl.energy),
        "note": (
            "with v0 nonzero the shifted-momentum closed form no longer "
            "reproduces the inverted energy; the gap is reported, the "
            "inversion is asserted"
        ),
    }


def _section_normalization():
    import numpy as np

    pot = PotentialStep(w_abs=0.5)
    level = solve_spectrum(1.0, pot, 1.0, 2, Branch.MINUS)[1]
    wf = stationary_wavefunction(level, 1.0, pot)
    norm_const, wf_n = normalize(wf)
    nodes, weights = np.polynomial.legendre.leggauss(16)  # 8 panels of 16 nodes
    half = wf_n.length / 16.0
    z = half * (2 * np.arange(8)[:, None] + 1 + nodes)  # k-major, as summed
    total = float(sum((half * weights * wf_n.density(z)).ravel().tolist()))
    passed = abs(total - 1.0) < 1e-10
    return {
        "kind": "assert",
        "passed": bool(passed),
        "norm_const": norm_const,
        "reintegrated_density": total,
    }


def _section_window():
    import numpy as np

    n_draws, e_step = 4, 1e-3
    rng = _rng()
    samples = []
    all_ok = True
    fixed = [(1.0, 3.0, 0.0), (1.0, 1.0, 1.0)]
    drawn = [
        (float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.0, 5.0)))
        for _ in range(n_draws)
    ]
    for mass, v0, w_abs in fixed + drawn:
        e_low, e_up, width = evanescent_width(mass, v0, w_abs)
        e = np.arange(mass, e_up + 1.0, e_step)
        mom2_minus = _kernels.branch_mom2_grid(e, mass, v0, w_abs)[5]
        neg = np.nonzero(mom2_minus < 0)[0]
        lo_err = abs(float(e[neg[0]]) - e_low)
        up_err = abs(float(e[neg[-1]]) - e_up)
        edge_err = max(lo_err, up_err)
        ok = edge_err <= 2 * e_step
        all_ok = all_ok and ok
        samples.append(
            {
                "mass": mass,
                "v0": v0,
                "w_abs": w_abs,
                "e_low": e_low,
                "e_up": e_up,
                "width": width,
                "scan_edge_max_error": edge_err,
                "negative_samples": int(len(neg)),
                "ok": bool(ok),
            }
        )
    return {"kind": "assert", "passed": bool(all_ok), "grid_step": e_step, "samples": samples}


def _section_complex_limit():
    exact_ok = True
    tiny_dev = 0.0
    for energy, mass, v0 in ((2.0, 1.0, 1.0), (3.5, 0.5, 2.0), (1.5, 1.0, 0.0)):
        kin0 = kinematics(energy, mass, PotentialStep(v0=v0))
        exact_ok = exact_ok and kin0.delta == 0.0
        exact_ok = exact_ok and kin0.mom2_plus == kin0.q2_plus
        exact_ok = exact_ok and kin0.mom2_minus == kin0.q2_minus
        kin1 = kinematics(energy, mass, PotentialStep(v0=v0, w_abs=1e-12))
        tiny_dev = max(
            tiny_dev,
            abs(kin1.mom2_plus - kin1.q2_plus),
            abs(kin1.mom2_minus - kin1.q2_minus),
        )
    passed = exact_ok and tiny_dev < 1e-9
    return {
        "kind": "assert",
        "passed": bool(passed),
        "w0_zero_exact": bool(exact_ok),
        "w0_tiny_max_shift": tiny_dev,
    }


def _section_nonrel():
    p, w_abs = 1.0, 0.5
    ratios = {}
    ok = True
    prev = None
    for mass in (1e2, 1e3, 1e4):
        energy = math.hypot(p, mass)
        pars = nr_parameters(energy, mass, w_abs)
        if prev is not None:
            r_amp = prev.amp_ratio / pars.amp_ratio
            r_jchi = prev.j_chi_minus / pars.j_chi_minus
            ratios["m_%g_to_%g" % (prev.mass, mass)] = {
                "amp_ratio_decade": r_amp,
                "j_chi_decade": r_jchi,
            }
            ok = ok and abs(r_amp - 10.0) < 0.2 and abs(r_jchi - 10.0) < 0.2
        prev = pars
    spacing_ratios = []
    for length in (0.5, 1.0, 2.0):
        nr_levels = nr_quantize(length, 3, 1.0, w_abs)
        bag_q = quantized_momenta(length, 3)
        nr_spacing = nr_levels[1].momentum - nr_levels[0].momentum
        bag_spacing = bag_q[1] - bag_q[0]
        spacing_ratios.append(nr_spacing / bag_spacing)
    spacing_exact = all(r == 2.0 for r in spacing_ratios)
    ok = ok and spacing_exact
    return {
        "kind": "assert",
        "passed": bool(ok),
        "decade_ratios": ratios,
        "spacing_ratio_exactly_two": bool(spacing_exact),
        "spacing_ratios": spacing_ratios,
        "time_phase_note": (
            "the limit states carry exp(+iEt), opposite to the exact plane "
            "waves; they are limit forms, not solutions of the full equation "
            "of motion, so no residual is asserted for them"
        ),
    }


def _section_realified_operator():
    import numpy as np

    rng = _rng()
    mass = 1.0
    pot = PotentialStep(v0=1.0, w_abs=1.0, w_phase=0.3)
    trials = 5
    # energy, then momentum, drawn per trial
    points = [(float(rng.uniform(1.5, 5.0)), float(rng.uniform(0.3, 4.0)), mass, pot)
              for _ in range(trials)]
    points.append((3.0, principal_momentum(kinematics(3.0, mass, pot).mom2_minus), mass, pot))
    ranks = np.linalg.matrix_rank(_operator_stack(points), tol=1e-8)
    full_rank = int(np.sum(ranks[:trials] == 16))
    deficiency = 16 - int(ranks[trials])
    passed = full_rank == trials and deficiency >= 2
    return {
        "kind": "assert",
        "passed": bool(passed),
        "random_pairs_full_rank": int(full_rank),
        "random_pairs_total": trials,
        "on_branch_rank_deficiency": int(deficiency),
    }


def build_report() -> dict:
    sections = {}
    sections["matrix_algebra"] = _section_matrix_algebra()
    sections["quaternion_algebra"] = _section_quaternion_algebra()
    sections["realified_operator"] = _section_realified_operator()
    sections["oracle_residuals"], plus_points = _section_oracle_residuals()
    sections["plus_branch_disagreement"] = _section_plus_branch(plus_points[:10])
    sections["consistency_relation"] = _section_consistency()
    sections["quantization_roots"] = _section_quantization()
    sections["boundary_conditions"] = _section_boundary()
    sections["spectrum_values"] = _section_spectrum()
    sections["normalization"] = _section_normalization()
    sections["evanescent_window"] = _section_window()
    sections["complex_limit"] = _section_complex_limit()
    sections["nonrel_limit"] = _section_nonrel()
    passed = all(
        s["passed"] for s in sections.values() if s["kind"] == "assert"
    )
    return {
        "seed": SEED,
        "sections": sections,
        "all_assertions_passed": bool(passed),
    }


def report_passed(report: dict) -> bool:
    return bool(report["all_assertions_passed"])

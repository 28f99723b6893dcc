"""Independent oracles used to adjudicate the library's closed forms.

Nothing in here imports the package. The quaternion multiplication is done on
real coefficient 4-tuples straight from the basis product table, the root
finding is a plain bisection, the rank comes from row reduction, and the
evanescent-window locator is a brute sign scan of the dispersion, and the
table renderer formats cell by cell and hands JSON to the json encoder. These
are the ground truth the tests freeze expected values from. The spectrum
composition oracle takes the package's step and bag modules as arguments and
builds each level through kinematics, a placeholder BagLevel, normalize and
dataclasses.replace; its wavefunction oracle solves the level's mode
coefficients again instead of reading them off the level. The realified
operator, nullspace, apply_matrix, residual and wall-residual oracles take
the package's dirac module as an argument and keep its earlier forms:
np.kron of the 4x4 blocks, one SVD call per operator, a row sum of
Quaternion terms c * q, and the residuals as sums of QSpinor terms. The
root-scan oracle takes the report module and bisects every sign-change
bracket with its _bisect.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math

import numpy as np

# Basis product table for 1, i, j, k (row times column, in that index order).
# Entry (s, idx): e_a * e_b = s * e_idx.
_BASIS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def mul_coeffs(x, y):
    """Multiply two quaternions given as real coefficient 4-tuples (A, B, C, D)."""
    out = [0.0, 0.0, 0.0, 0.0]
    for a in range(4):
        if x[a] == 0:
            continue
        for b in range(4):
            if y[b] == 0:
                continue
            s, idx = _BASIS[(a, b)]
            out[idx] += s * x[a] * y[b]
    return tuple(out)


def coeffs_from_pair(u, w):
    """(U, W) with q = U + jW  ->  (A, B, C, D) with q = A + Bi + Cj + Dk."""
    return (u.real, u.imag, w.real, -w.imag)


def pair_from_coeffs(c):
    """(A, B, C, D) -> (U, W)."""
    return complex(c[0], c[1]), complex(c[2], -c[3])


def conj_coeffs(c):
    return (c[0], -c[1], -c[2], -c[3])


def norm_coeffs(c):
    return math.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + c[3] ** 2)


def bisect(f, lo, hi, tol=1e-13, max_iter=200):
    """Plain bisection on a sign change. Returns the midpoint estimate."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change on [%g, %g]" % (lo, hi))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scan_sign_changes(f, grid):
    """Brackets [grid[i], grid[i+1]] where f changes sign (f finite at both ends)."""
    vals = [f(q) for q in grid]
    brackets = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        if a == 0.0:
            brackets.append((grid[i], grid[i]))
        elif (a > 0) != (b > 0):
            brackets.append((grid[i], grid[i + 1]))
    return brackets


def row_reduce_rank(mat, tol=1e-10):
    """Rank by Gaussian elimination with partial pivoting (no SVD)."""
    a = np.array(mat, dtype=float, copy=True)
    n_rows, n_cols = a.shape
    rank = 0
    row = 0
    scale = max(1.0, np.abs(a).max())
    for col in range(n_cols):
        if row >= n_rows:
            break
        piv = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[piv, col]) <= tol * scale:
            continue
        a[[row, piv]] = a[[piv, row]]
        a[row] = a[row] / a[row, col]
        for r in range(n_rows):
            if r != row and a[r, col] != 0.0:
                a[r] = a[r] - a[r, col] * a[row]
        row += 1
        rank += 1
    return rank


def branch_mom2_minus(e, m, v0, w_abs):
    """Q_-^2 written straight from the dispersion (independent of the package)."""
    p2 = e * e - m * m
    delta = math.sqrt(e * e * v0 * v0 + p2 * w_abs * w_abs) - e * v0
    return (e - v0) ** 2 - m * m + w_abs * w_abs - 2.0 * delta


def window_sign_scan(m, v0, w_abs, e_step=1e-3, e_pad=1.0):
    """Locate the negative-Q_-^2 energy window by brute sign scan.

    Returns (e_lo, e_hi) bracketing grid values, or None when no grid point
    goes negative.
    """
    e_top = math.sqrt((m + v0) ** 2 + w_abs * w_abs) + e_pad
    n = int(math.ceil((e_top - m) / e_step)) + 1
    grid = m + e_step * np.arange(n)
    p2 = grid * grid - m * m
    delta = np.sqrt(grid * grid * v0 * v0 + p2 * w_abs * w_abs) - grid * v0
    q2 = (grid - v0) ** 2 - m * m + w_abs * w_abs - 2.0 * delta
    neg = np.flatnonzero(q2 < 0.0)
    if neg.size == 0:
        return None
    return float(grid[neg[0]]), float(grid[neg[-1]])


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return "%d" % value
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def render_reference(command: str, params: dict, columns: list, rows: list,
                     fmt: str) -> str:
    """The CLI's table text, one cell at a time (CSV) or through json.dumps."""
    if fmt == "json":
        obj = {
            "command": command,
            "params": params,
            "columns": columns,
            "rows": rows,
        }
        return json.dumps(obj, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def mode_coefficients_via_kinematics(step, energy, mass, pot, branch):
    """step.mode_coefficients read off a full step.kinematics record: the
    same checks in the same order and the same expressions on the
    BranchKinematics fields, each denominator spelled out here."""
    br = step.as_branch(branch)
    if energy == mass:
        raise step.SingularCoefficientsError(
            "coefficients singular at E = m (delta/(E - m) pole)")
    kin = step.kinematics(energy, mass, pot)
    plus = br is step.Branch.PLUS
    sgn = 1.0 if plus else -1.0
    mom2 = kin.mom2_plus if plus else kin.mom2_minus
    q2_other = kin.q2_minus if plus else kin.q2_plus
    momentum = step.principal_momentum(mom2)
    denom_a = energy + sgn * pot.v0 + mass + sgn * kin.delta / (energy - mass)
    if denom_a == 0:
        raise step.SingularCoefficientsError(
            "amp_ratio denominator vanishes at these parameters")
    denom_mn = q2_other - mom2
    if denom_mn == 0:
        raise step.SingularCoefficientsError(
            "resonant denominator: branch momentum squared equals the "
            "opposite complex-limit momentum squared")
    amp_ratio = momentum / denom_a
    return step.ModeCoefficients(
        branch=br, momentum=momentum, amp_ratio=amp_ratio,
        j_chi=(energy - sgn * pot.v0 - mass + momentum * amp_ratio) / denom_mn,
        j_sigma=(momentum + amp_ratio * (energy - sgn * pot.v0 + mass)) / denom_mn)


def wavefunction_by_solving(bag, step, level, mass, pot, spin="up"):
    """bag.stationary_wavefunction with the level's mode coefficients solved
    again by step.mode_coefficients at its energy and w_factor taken from
    pot, not read off the level."""
    mc = step.mode_coefficients(level.energy, mass, pot, level.branch)
    return bag.StationaryWavefunction(
        branch=level.branch,
        spin=spin,
        momentum=level.momentum,
        phase=level.phase,
        amp_ratio=mc.amp_ratio.real,
        j_chi=mc.j_chi.real,
        w_factor=pot.w0 if level.branch is step.Branch.MINUS else pot.w0.conjugate(),
        length=level.length,
        amplitude=level.norm_const,
    )


def spectrum_by_composition(bag, step, mass, pot, length, n_max, branch):
    """bag.solve_spectrum composed from the public pieces: per level the
    coefficients via kinematics, a BagLevel with norm_const 1, the
    normalize(wavefunction_by_solving(...)) norm, and a replaced copy."""
    br = step.as_branch(branch)
    shift = pot.w_abs if br is step.Branch.MINUS else -pot.w_abs
    levels = []
    for n, q_n in enumerate(bag.quantized_momenta(length, n_max), start=1):
        eff = q_n + shift
        if pot.v0 == 0.0:
            energy = math.hypot(eff, mass)
        else:
            try:
                energy = bag._energy_for_momentum(q_n, mass, pot, br)
            except bag.InputError as exc:
                raise bag.InputError("level %d at %s" % (n, exc)) from None
        if math.isnan(energy):
            raise bag.NoSolutionError(
                "no energy above the mass %g carries momentum %g on the %s branch"
                % (mass, q_n, br.value))
        mc = mode_coefficients_via_kinematics(step, energy, mass, pot, br)
        if not all(map(cmath.isfinite, (mc.amp_ratio, mc.j_chi, mc.j_sigma))):
            raise ValueError("level %d at energy %r: the mode coefficients "
                             "overflow float64" % (n, energy))
        level = bag.BagLevel(
            branch=br, index=n, momentum=q_n, eff_momentum=eff, energy=energy,
            phase=bag.boundary_phase(mc.amp_ratio.real, br).phase,
            norm_const=1.0, length=length, amp_ratio=mc.amp_ratio.real,
            j_chi=mc.j_chi.real,
            w_factor=pot.w0 if br is step.Branch.MINUS else pot.w0.conjugate(),
            regime_flag=br is step.Branch.PLUS and q_n < pot.w_abs)
        norm_const, _ = bag.normalize(wavefunction_by_solving(bag, step, level, mass, pot))
        levels.append(dataclasses.replace(level, norm_const=norm_const))
    return levels


def realify_by_kron(dirac, energy, momentum, mass, pot):
    """dirac.realify_stationary_operator with every block product by np.kron."""
    t = dirac._built()
    mats, l_i, l_j, l_k, r_i = t.mats, t.l_i, t.l_j, t.l_k, t.r_i
    eye4 = np.eye(4)

    def right_mult(c):
        c = complex(c)
        return c.real * eye4 + c.imag * r_i

    w0 = complex(pot.w0)
    v1, v2, v3 = pot.v0, w0.imag, w0.real
    op = np.kron(eye4, right_mult(-1j * energy))
    op += np.kron(mats.alpha[2].real, right_mult(1j * momentum))
    op += np.kron(mats.beta.real, mass * l_i)
    op += np.kron(eye4, v1 * l_i + v2 * l_j + v3 * l_k)
    return op


def nullspace_by_one_svd(dirac, energy, momentum, mass, pot, tol=1e-8):
    """dirac.nullspace_oracle as one np.linalg.svd of one 16x16 operator,
    each right singular vector kept below tol times the largest value."""
    _, svals, vt = np.linalg.svd(realify_by_kron(dirac, energy, momentum, mass, pot))
    return [dirac.QSpinor.from_real_vector(row)
            for s, row in zip(svals, vt) if s < tol * svals[0]]


def apply_matrix_by_quaternions(dirac, mat, psi):
    """dirac.apply_matrix as a sum of Quaternion products c * q per row."""
    out = []
    for row in np.asarray(mat, dtype=complex).tolist():
        acc = dirac.Quaternion()
        for c, q in zip(row, psi.comp):
            if c != 0:
                acc = acc + c * q
        out.append(acc)
    return dirac.QSpinor(out)


def dirac_residual_by_quaternions(dirac, state, pot, mass):
    """dirac.dirac_residual as a sum of QSpinor terms: scale_right, the
    matrices applied by apply_matrix_by_quaternions and the potential
    quaternion's products, then QSpinor.norm."""
    psi = state.spinor
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValueError("zero-norm spinor has no defined residual")
    mats = dirac.build_matrices()
    t_term = psi.scale_right(1j * state.energy_sign * state.energy)
    z_term = apply_matrix_by_quaternions(dirac, mats.alpha[2], psi).scale_right(
        1j * state.direction * state.momentum)
    mass_term = apply_matrix_by_quaternions(dirac, 1j * mass * mats.beta, psi)
    pq = dirac.potential_quaternion(pot)
    pot_term = dirac.QSpinor([pq * q for q in psi.comp])
    return (t_term + z_term + mass_term + pot_term).norm() / nrm


def boundary_residual_by_quaternions(dirac, psi, end):
    """bag.boundary_residual as ||psi - (+-beta*alpha3 psi)*i|| in QSpinor
    arithmetic, the matrix formed with numpy on every call."""
    mats = dirac.build_matrices()
    sign = 1.0 if end == "left" else -1.0
    mapped = apply_matrix_by_quaternions(dirac, sign * (mats.beta @ mats.alpha[2]), psi)
    return (psi - mapped.scale_right(1j)).norm()


def scan_roots_bisecting_every_bracket(report, f, f_grid, q_max, n_grid=4096):
    """report._scan_roots without its pole rule: f_grid gives f alone, and
    every sign change between finite neighbours is bisected with
    report._bisect, the filter dropping what the poles give."""
    grid = np.linspace(q_max / n_grid, q_max, n_grid)
    vals = f_grid(grid)
    a, b = vals[:-1], vals[1:]
    brackets = (np.isfinite(a) & np.isfinite(b)
                & ((a == 0.0) | (np.sign(a) * np.sign(b) < 0.0)))
    roots = []
    for i in np.flatnonzero(brackets).tolist():
        if a[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        r = report._bisect(f, float(grid[i]), float(grid[i + 1]))
        if abs(f(r)) < 1e-6:
            roots.append(r)
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots

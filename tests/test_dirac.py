"""Dirac matrices, spinor plumbing, and the realified nullspace oracle."""

import math
from functools import partial

import numpy as np
import pytest

import oracles
from qdirac import (
    Branch,
    InputError,
    PlaneWaveState,
    PotentialStep,
    QSpinor,
    Quaternion,
    apply_matrix,
    build_matrices,
    build_report,
    dirac_residual,
    kinematics,
    nr_parameters,
    nr_wavefunction,
    nullspace_oracle,
    principal_momentum,
    realify_stationary_operator,
    report_passed,
    solve_spectrum,
    stationary_residual,
    stationary_wavefunction,
    step_spinor,
)
from qdirac import dirac
from qdirac.dirac import potential_quaternion

FREE = PotentialStep()


def free_spinor(energy, mass, spin="up"):
    """The textbook free spin-up/down amplitude [chi, sigma3*chi * p/(E+m)]."""
    p = math.sqrt(energy * energy - mass * mass)
    a = p / (energy + mass)
    zero = Quaternion()
    idx = 0 if spin == "up" else 1
    sign = 1.0 if idx == 0 else -1.0
    comp = [zero, zero, zero, zero]
    comp[idx] = Quaternion(1.0, 0.0)
    comp[2 + idx] = Quaternion(sign * a, 0.0)
    return QSpinor(comp), p


def test_algebra_identities_are_exact():
    mats = build_matrices()
    eye = np.eye(4, dtype=complex)
    zero = np.zeros((4, 4), dtype=complex)
    assert np.array_equal(mats.beta @ mats.beta, eye)
    for i in range(3):
        a = mats.alpha[i]
        assert np.array_equal(a @ a, eye)
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(mats.beta @ a + a @ mats.beta, zero)
        for jj in range(i + 1, 3):
            b = mats.alpha[jj]
            assert np.array_equal(a @ b + b @ a, zero)
    assert np.array_equal(mats.beta, mats.beta.conj().T)


def test_matrices_are_shared_and_read_only():
    mats = build_matrices()
    assert build_matrices() is mats
    for arr in (*mats.alpha, mats.beta, mats.identity, *mats.pauli):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 7.0
    assert mats.beta[0, 0] == 1.0


def test_apply_matrix_beta_and_alpha3():
    mats = build_matrices()
    q = [Quaternion.from_coeffs(1, 2, 3, 4) for _ in range(4)]
    psi = QSpinor(q)
    b = apply_matrix(mats.beta, psi)
    assert b.comp[0] == q[0] and b.comp[1] == q[1]
    assert b.comp[2] == -q[2] and b.comp[3] == -q[3]
    a3 = apply_matrix(mats.alpha[2], psi)
    assert a3.comp[0] == q[2] and a3.comp[1] == -q[3]
    assert a3.comp[2] == q[0] and a3.comp[3] == -q[1]


def test_apply_matrix_conjugates_w_parts_of_complex_entries():
    psi = QSpinor([Quaternion(0.0, 1.0), Quaternion(), Quaternion(), Quaternion()])
    mat = np.diag([1j, 1, 1, 1])
    out = apply_matrix(mat, psi)
    # 1j * (j*1) = j * (-1j): the w part picks up the conjugated scalar
    assert out.comp[0].u == 0
    assert out.comp[0].w == -1j


def test_apply_matrix_is_right_linear():
    rng = np.random.default_rng(11)
    mats = build_matrices()
    mat = mats.alpha[0] + 1j * mats.beta
    a = QSpinor([Quaternion.from_coeffs(*rng.standard_normal(4)) for _ in range(4)])
    b = QSpinor([Quaternion.from_coeffs(*rng.standard_normal(4)) for _ in range(4)])
    z = complex(0.3, -1.7)
    lhs = apply_matrix(mat, a + b).to_real_vector()
    rhs = (apply_matrix(mat, a) + apply_matrix(mat, b)).to_real_vector()
    assert np.allclose(lhs, rhs, atol=1e-13)
    lhs = apply_matrix(mat, a.scale_right(z)).to_real_vector()
    rhs = apply_matrix(mat, a).scale_right(z).to_real_vector()
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_potential_quaternion_coefficients():
    pot = PotentialStep(v0=1.5, w_abs=2.0, w_phase=math.pi / 2)
    pq = potential_quaternion(pot)
    a, b, c, d = pq.coeffs()
    assert a == 0.0
    assert b == 1.5
    # w0 = 2i here, so V2 = 2 and V3 = 0
    assert c == pytest.approx(2.0, abs=1e-15)
    assert abs(d) < 1e-15


def test_real_vector_round_trip():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(16)
    assert np.array_equal(QSpinor.from_real_vector(vec).to_real_vector(), vec)
    # a k coordinate is negated on the way in and again on the way out; a
    # -0.0 there, or in any other coordinate, keeps its sign bit
    signed = np.where(np.arange(16) % 3 == 0, -0.0, vec)
    back = QSpinor.from_real_vector(signed).to_real_vector()
    assert back.tobytes() == signed.tobytes()
    assert np.signbit(back).sum() == np.signbit(signed).sum() > 5
    with pytest.raises(ValueError):
        QSpinor.from_real_vector(np.zeros(15))
    with pytest.raises(ValueError):
        QSpinor([Quaternion()] * 3)


def test_free_particle_residual_vanishes():
    psi, p = free_spinor(2.0, 1.0)
    state = PlaneWaveState(spinor=psi, momentum=p, energy=2.0)
    assert dirac_residual(state, FREE, 1.0) < 1e-15


def test_massless_free_particle():
    psi = QSpinor([Quaternion(1.0), Quaternion(), Quaternion(1.0), Quaternion()])
    state = PlaneWaveState(spinor=psi, momentum=3.0, energy=3.0)
    assert dirac_residual(state, FREE, 0.0) < 1e-15


def test_perturbed_momentum_leaves_big_residual():
    psi, p = free_spinor(2.0, 1.0)
    state = PlaneWaveState(spinor=psi, momentum=1.1 * p, energy=2.0)
    assert dirac_residual(state, FREE, 1.0) > 1e-3


def test_left_mover_and_spin_down_also_solve():
    psi_down, p = free_spinor(2.0, 1.0, spin="down")
    state = PlaneWaveState(spinor=psi_down, momentum=p, energy=2.0)
    assert dirac_residual(state, FREE, 1.0) < 1e-15
    psi_up, _ = free_spinor(2.0, 1.0)
    flipped = QSpinor([psi_up.comp[0], psi_up.comp[1], -psi_up.comp[2], -psi_up.comp[3]])
    left = PlaneWaveState(spinor=flipped, momentum=p, energy=2.0, direction=-1)
    assert dirac_residual(left, FREE, 1.0) < 1e-15


def test_zero_spinor_rejected():
    zero = QSpinor([Quaternion()] * 4)
    state = PlaneWaveState(spinor=zero, momentum=1.0, energy=2.0)
    with pytest.raises(ValueError):
        dirac_residual(state, FREE, 1.0)
    with pytest.raises(ValueError):
        stationary_residual(zero, 2.0, 1.0, 1.0, FREE)


def manual_defect(psi, energy, momentum, mass, pot):
    """The stationary defect assembled from public pieces only."""
    mats = build_matrices()
    pq = potential_quaternion(pot)
    t_term = psi.scale_right(-1j * energy)
    z_term = apply_matrix(mats.alpha[2], psi).scale_right(1j * momentum)
    m_term = apply_matrix(1j * mass * mats.beta, psi)
    p_term = QSpinor([pq * q for q in psi.comp])
    return t_term + z_term + m_term + p_term


def test_realified_operator_columns_match_quaternion_arithmetic():
    pot = PotentialStep(v0=0.8, w_abs=1.1, w_phase=-0.4)
    energy, momentum, mass = 2.5, 1.3, 0.9
    op = realify_stationary_operator(energy, momentum, mass, pot)
    for b in range(16):
        e_b = np.zeros(16)
        e_b[b] = 1.0
        psi = QSpinor.from_real_vector(e_b)
        want = manual_defect(psi, energy, momentum, mass, pot).to_real_vector()
        assert np.allclose(op @ e_b, want, atol=1e-13)


def random_wells(rng, n):
    """(energy, momentum, mass, pot) draws: zero and nonzero v0 and w_abs,
    each branch's momentum (imaginary inside the evanescent window) and an
    off-branch complex momentum."""
    cases = [(2.0, principal_momentum(kinematics(2.0, 1.0, PotentialStep(
        v0=1.0, w_abs=1.0)).mom2_minus), 1.0, PotentialStep(v0=1.0, w_abs=1.0))]
    for k in range(n):
        mass = float(rng.uniform(0.0, 3.0))
        energy = mass + 0.1 + float(rng.uniform(0.0, 4.0))
        pot = PotentialStep(
            v0=0.0 if k % 3 == 0 else float(rng.uniform(-3.0, 3.0)),
            w_abs=0.0 if k % 4 == 0 else float(rng.uniform(0.0, 3.0)),
            w_phase=float(rng.uniform(-math.pi, math.pi)),
        )
        kin = kinematics(energy, mass, pot)
        off = complex(rng.uniform(-4.0, 4.0), rng.uniform(-1.0, 1.0))
        for mom in (principal_momentum(kin.mom2_minus),
                    principal_momentum(kin.mom2_plus), off):
            cases.append((energy, mom, mass, pot))
    return cases


def stack_cases():
    """random_wells plus massless points on both branches: real and
    evanescent momenta, v0 = 0, w_abs = 0 and mass 0.0 all occur."""
    cases = random_wells(np.random.default_rng(31), 40)
    for energy, _, _, pot in cases[1::12]:
        kin = kinematics(energy, 0.0, pot)
        cases += [(energy, principal_momentum(m2), 0.0, pot)
                  for m2 in (kin.mom2_minus, kin.mom2_plus)]
    moms = [complex(c[1]) for c in cases]
    assert any(m.real == 0.0 and m.imag > 0.0 for m in moms)
    assert any(m.imag == 0.0 for m in moms)
    assert any(c[2] == 0.0 for c in cases)
    assert any(c[3].v0 == 0.0 for c in cases)
    assert any(c[3].w_abs == 0.0 for c in cases)
    return cases


def test_realified_operator_equals_the_kron_form_bit_for_bit():
    cases = stack_cases()
    stack = dirac._operator_stack(cases)
    assert stack.shape == (len(cases), 16, 16)
    negative_zeros = 0
    for op, case in zip(stack, cases):
        want = oracles.realify_by_kron(dirac, *case)
        # tobytes tells -0.0 from 0.0; the SVD basis can turn with that sign
        assert op.tobytes() == want.tobytes(), case
        assert realify_stationary_operator(*case).tobytes() == want.tobytes(), case
        negative_zeros += bool(np.any((op == 0.0) & np.signbit(op)))
    assert negative_zeros >= 10


def real_hex(basis):
    return [[float.hex(x) for x in psi.to_real_vector()] for psi in basis]


def test_nullspace_stack_equals_each_basis_bit_for_bit():
    cases = stack_cases()
    bases = dirac._nullspace_stack(cases)
    assert len(bases) == len(cases)
    assert any(bases) and not all(bases)
    for basis, case in zip(bases, cases):
        assert real_hex(basis) == real_hex(nullspace_oracle(*case)), case
        assert real_hex(basis) == real_hex(oracles.nullspace_by_one_svd(dirac, *case)), case


@pytest.mark.parametrize("energy,momentum,mass,pot", [
    (1e308, 1e308, 1e308, PotentialStep(w_abs=0.5)),
    (1e308, 1e308, 1.0, PotentialStep(v0=1e308, w_abs=1e308)),
    (1.7e308, 1.7e308, 1.7e308, PotentialStep(v0=1.7e308)),
])
def test_an_operator_that_overflows_is_an_input_error(energy, momentum, mass, pot):
    # finite arguments whose operator entries overflow once gave a
    # RuntimeWarning and then "SVD did not converge" (exit 4 in the CLI)
    for fn in (realify_stationary_operator, nullspace_oracle):
        with pytest.raises(InputError, match="^the realified operator overflows float64$"):
            fn(energy, momentum, mass, pot)


def test_verify_decomposes_its_operators_in_few_svd_calls(monkeypatch):
    # one stacked call for the oracle section's 100 operators and one per
    # plus-branch nullvector (10); one call per operator would make 110
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert report_passed(build_report())
    assert 0 < len(calls) <= 11


def signed_complex(rng):
    """A complex number whose parts are drawn from zeros of both signs and
    random reals, so purely real, purely imaginary and zero values occur."""
    parts = (0.0, -0.0, 1.0, -2.5, float(rng.standard_normal()))
    return complex(parts[rng.integers(5)], parts[rng.integers(5)])


def hex_parts(psi):
    return [float.hex(x) for q in psi.comp for x in (q.u.real, q.u.imag,
                                                     q.w.real, q.w.imag)]


def test_apply_matrix_equals_the_quaternion_sums_bit_for_bit():
    rng = np.random.default_rng(37)
    mats = build_matrices()
    fixed = [mats.beta, mats.alpha[2], 1j * 0.7 * mats.beta, np.zeros((4, 4))]
    seen = set()
    for k in range(300):
        if k < len(fixed):
            mat = fixed[k]
        else:
            mat = np.array([[signed_complex(rng) for _ in range(4)]
                            for _ in range(4)])
        psi = QSpinor([Quaternion(signed_complex(rng), signed_complex(rng))
                       for _ in range(4)])
        got = apply_matrix(mat, psi)
        want = oracles.apply_matrix_by_quaternions(dirac, mat, psi)
        assert hex_parts(got) == hex_parts(want), (mat, psi)
        for c in np.asarray(mat).ravel().tolist():
            seen.add((c == 0, c.real == 0 and c.imag != 0,
                      math.copysign(1.0, c.real) < 0 and c.real == 0))
    # zero entries, purely imaginary entries and entries with a -0.0 real part
    assert {(True, False, False), (False, True, False), (False, True, True),
            (True, False, True)} <= seen


def residual_states(rng):
    """(state, pot, mass) draws for the residual oracle: random spinors with
    zero parts of both signs on random_wells' points (evanescent imaginary
    momenta included) in either direction and either time phase, the
    step_spinor states of both branches and directions, the energy_sign +1
    limit states of nr_wavefunction, and nullspace_oracle basis vectors."""
    out = []
    for k, (energy, mom, mass, pot) in enumerate(random_wells(rng, 40)):
        psi = QSpinor([Quaternion(signed_complex(rng), signed_complex(rng))
                       for _ in range(4)])
        out.append((PlaneWaveState(psi, mom, energy, direction=(1, -1)[k % 2],
                                   energy_sign=(-1, 1)[k // 2 % 2]), pot, mass))
    for _ in range(8):
        mass = float(rng.uniform(0.2, 2.0))
        energy = mass + 0.1 + float(rng.uniform(0.0, 3.0))
        pot = PotentialStep(v0=float(rng.uniform(-2.0, 2.0)),
                            w_abs=float(rng.uniform(0.1, 1.5)),
                            w_phase=float(rng.uniform(-math.pi, math.pi)))
        for branch in (Branch.MINUS, Branch.PLUS):
            for direction in (1, -1):
                for spin in ("up", "down"):
                    st = step_spinor(energy, mass, pot, branch, direction, spin)
                    out.append((st, pot, mass))
        mom = principal_momentum(kinematics(energy, mass, pot).mom2_minus)
        for b in nullspace_oracle(energy, mom, mass, pot)[:2]:
            out.append((PlaneWaveState(b, mom, energy), pot, mass))
    for mass in (1e2, 1e3):
        pars = nr_parameters(math.hypot(1.0, mass), mass, 0.5, 0.7)
        pot = PotentialStep(w_abs=0.5, w_phase=0.7)
        for branch in (Branch.MINUS, Branch.PLUS):
            for spin in ("up", "down"):
                out.append((nr_wavefunction(branch, spin, pars), pot, mass))
    return out


def test_dirac_residual_equals_the_quaternion_sums_bit_for_bit():
    cases = residual_states(np.random.default_rng(41))
    assert len(cases) >= 200
    seen = set()
    for state, pot, mass in cases:
        got = dirac_residual(state, pot, mass)
        want = oracles.dirac_residual_by_quaternions(dirac, state, pot, mass)
        assert float.hex(got) == float.hex(want), (state, pot, mass)
        mom = complex(state.momentum)
        parts = [x for q in state.spinor.comp for x in (q.u.real, q.u.imag,
                                                        q.w.real, q.w.imag)]
        seen.update({("evanescent", mom.real == 0.0 and mom.imag > 0.0),
                     ("direction", state.direction),
                     ("energy_sign", state.energy_sign),
                     ("-0.0", any(x == 0.0 and math.copysign(1.0, x) < 0 for x in parts))})
    assert {("evanescent", True), ("direction", -1), ("energy_sign", 1),
            ("-0.0", True)} <= seen
    for zero in (Quaternion(), Quaternion(complex(-0.0, -0.0), complex(-0.0, 0.0))):
        state = PlaneWaveState(QSpinor([zero] * 4), 1.0, 2.0)
        for residual in (dirac_residual,
                         lambda *a: oracles.dirac_residual_by_quaternions(dirac, *a)):
            with pytest.raises(ValueError, match="zero-norm spinor"):
                residual(state, FREE, 1.0)


def test_dirac_residual_equals_the_oracle_at_signed_zero_subnormal_and_int_masses():
    # the i*m*beta term is formed inline: a zero of either sign, the smallest
    # subnormal and an int mass give the oracle's bits, in any order of calls
    cases = residual_states(np.random.default_rng(47))[::10]
    for mass in (0.0, -0.0, 1.0, 0.0, 5e-324, 3):
        for state, pot, _ in cases:
            got = dirac_residual(state, pot, mass)
            want = oracles.dirac_residual_by_quaternions(dirac, state, pot, mass)
            assert float.hex(got) == float.hex(want), (state, pot, mass)


def test_a_zero_spinor_is_an_input_error():
    # a caller's zero spinor is a bad argument, not an internal fault (exit 4)
    zero = QSpinor([Quaternion()] * 4)
    for residual in (partial(stationary_residual, zero, 2.0, 1.0, 1.0,
                             PotentialStep(w_abs=0.5)),
                     partial(dirac_residual, PlaneWaveState(zero, 1.0, 2.0), FREE, 1.0)):
        with pytest.raises(InputError, match="^zero-norm spinor has no defined residual$"):
            residual()


BAD_STATES = [
    (math.nan, 1.0, 1.0, "energy"),
    (math.inf, 1.0, 1.0, "energy"),
    (-math.inf, 1.0, 1.0, "energy"),
    (2.0, complex(math.nan), 1.0, "momentum"),
    (2.0, complex(1.0, math.inf), 1.0, "momentum"),
    (2.0, math.inf, 1.0, "momentum"),
    (2.0, 1.0, math.nan, "mass"),
    (2.0, 1.0, math.inf, "mass"),
    (2.0, 1.0, -1.0, "mass"),
]


@pytest.mark.parametrize("energy,momentum,mass,name", BAD_STATES)
def test_operator_rejects_non_finite_arguments_and_negative_mass(
        energy, momentum, mass, name, monkeypatch):
    # numpy once raised "SVD did not converge" for these, or returned no
    # vector for mass = -1; now the argument is named before numpy is used
    def no_numpy(*args, **kwargs):
        raise AssertionError("numpy was called")

    monkeypatch.setattr(np, "eye", no_numpy)
    monkeypatch.setattr(np.linalg, "svd", no_numpy)
    pot = PotentialStep(w_abs=0.5)
    for fn in (realify_stationary_operator, nullspace_oracle):
        with pytest.raises(ValueError, match="^%s must be" % name):
            fn(energy, momentum, mass, pot)


@pytest.mark.parametrize("energy,momentum,mass,name", BAD_STATES)
def test_residuals_reject_what_the_operator_rejects(energy, momentum, mass, name):
    # both residuals once returned nan for these, and 2.0134 for mass = -1
    psi = step_spinor(2.0, 1.0, PotentialStep(w_abs=0.5), "minus").spinor
    pot = PotentialStep(w_abs=0.5)
    with pytest.raises(InputError, match="^%s must be finite" % name):
        stationary_residual(psi, energy, momentum, mass, pot)
    with pytest.raises(InputError, match="^%s must be finite" % name):
        dirac_residual(PlaneWaveState(psi, momentum, energy), pot, mass)


@pytest.mark.parametrize("energy,momentum,mass", [
    (1e308, 1e308, 1.0), (1e200, 1e200, 1.0), (2.0, 1e308, 1.0), (1e308, 1e308j, 1.0),
    (-1e308, -1e308, 1.0), (2.0, 1.0, 1e308),
])
def test_residuals_name_a_norm_that_overflows(energy, momentum, mass):
    # finite arguments whose squares overflow float64 once raised
    # OverflowError from the ** 2 of the norm
    pot = PotentialStep(v0=0.3, w_abs=0.5)
    psi = step_spinor(2.0, 1.0, pot, "minus").spinor
    message = "^the spinor norm overflows float64$"
    with pytest.raises(InputError, match=message):
        stationary_residual(psi, energy, momentum, mass, pot)
    with pytest.raises(InputError, match=message):
        dirac_residual(PlaneWaveState(psi, momentum, energy), pot, mass)
    # a spinor whose own norm overflows, with finite parts
    huge = QSpinor([Quaternion(1e200 + 1e200j, 1e200)] * 4)
    with pytest.raises(InputError, match=message):
        stationary_residual(huge, 2.0, 1.0, 1.0, pot)


def test_residual_norm_stays_finite_up_to_the_range():
    # sixteen parts of 2**509 square and sum to 2**1022, still finite
    big = 2.0 ** 509
    psi = QSpinor([Quaternion(complex(big, big), complex(big, big))] * 4)
    assert psi.norm() == 2.0 ** 511 == dirac._norm(dirac._pairs(psi))
    with pytest.raises(InputError, match="^the spinor norm overflows float64$"):
        dirac._norm(dirac._pairs(psi.scale_right(2.0)))


def test_spinors_compare_and_hash_by_value():
    pot = PotentialStep(w_abs=0.5)
    a, b = (step_spinor(2.0, 1.0, pot, "minus") for _ in range(2))
    assert a.spinor is not b.spinor
    assert a.spinor == b.spinor and hash(a.spinor) == hash(b.spinor)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    level = solve_spectrum(1.0, pot, 1.0, 1, "minus")[0]
    x, y = (stationary_wavefunction(level, 1.0, pot).evaluate(0.3) for _ in range(2))
    assert x == y and len({x, y}) == 1
    assert x != x.scale_right(1j) and x != -x
    # like Quaternion's, the equality is by value: -0.0 equals 0.0
    zeros = QSpinor([Quaternion(complex(-0.0, -0.0), complex(-0.0, 0.0))] * 4)
    assert zeros == QSpinor([Quaternion()] * 4)
    assert hash(zeros) == hash(QSpinor([Quaternion()] * 4))
    assert (x == x.comp) is False


def test_operator_rank_off_and_on_shell():
    pot = PotentialStep(v0=1.0, w_abs=1.0, w_phase=0.3)
    mass = 1.0
    rng = np.random.default_rng(17)
    for _ in range(10):
        energy = float(rng.uniform(1.5, 6.0))
        momentum = float(rng.uniform(0.1, 5.0))
        op = realify_stationary_operator(energy, momentum, mass, pot)
        assert oracles.row_reduce_rank(op, tol=1e-8) == 16
    kin = kinematics(3.0, mass, pot)
    mom = principal_momentum(kin.mom2_minus)
    op_on = realify_stationary_operator(3.0, mom, mass, pot)
    rank = oracles.row_reduce_rank(op_on, tol=1e-8)
    assert 16 - rank == 4


def test_nullspace_free_particle_contains_the_textbook_spinor():
    energy, mass = 2.0, 1.0
    psi, p = free_spinor(energy, mass)
    basis = nullspace_oracle(energy, p, mass, FREE)
    # both branch momenta coincide at the free point, so the two dim-4
    # solution spaces merge: right-j conjugation is unbroken without a
    # quaternionic potential and the nullspace doubles
    assert len(basis) == 8
    rows = np.array([b.to_real_vector() for b in basis])
    assert np.allclose(rows @ rows.T, np.eye(8), atol=1e-12)
    for b in basis:
        assert stationary_residual(b, energy, p, mass, FREE) < 1e-12
    v = psi.to_real_vector()
    v /= np.linalg.norm(v)
    proj_sq = float(np.sum((rows @ v) ** 2))
    assert proj_sq > 0.999


def test_nullspace_empty_off_branch():
    assert nullspace_oracle(2.0, 1.9, 1.0, FREE) == []
    pot = PotentialStep(v0=1.0, w_abs=1.0)
    kin = kinematics(2.0, 1.0, pot)
    mom = principal_momentum(kin.mom2_minus)
    assert nullspace_oracle(2.0, mom + 0.1, 1.0, pot) == []


def test_nullspace_tol_validation():
    # nan once kept no vector on a dispersion branch, inf kept all 16
    energy, mass = 2.0, 1.0
    _, p = free_spinor(energy, mass)
    assert len(nullspace_oracle(energy, p, mass, FREE)) == 8
    for tol in (0.0, -1e-8, math.nan, math.inf, 1.0, 2.0):
        with pytest.raises(ValueError, match="tol must lie in"):
            nullspace_oracle(energy, p, mass, FREE, tol=tol)


def test_nullspace_nonempty_on_both_branches_100_draws():
    rng = np.random.default_rng(23)
    for _ in range(100):
        mass = float(rng.uniform(0.0, 5.0))
        energy = mass + 0.1 + float(rng.uniform(0.0, 5.0))
        pot = PotentialStep(
            v0=float(rng.uniform(0.0, 5.0)),
            w_abs=float(rng.uniform(0.0, 5.0)),
            w_phase=float(rng.uniform(-math.pi, math.pi)),
        )
        kin = kinematics(energy, mass, pot)
        for mom2 in (kin.mom2_minus, kin.mom2_plus):
            mom = principal_momentum(mom2)
            basis = nullspace_oracle(energy, mom, mass, pot)
            assert basis, (energy, mass, pot, mom)
            for b in basis:
                assert stationary_residual(b, energy, mom, mass, pot) < 1e-12


def test_evanescent_momentum_keeps_dimension_four():
    pot = PotentialStep(v0=1.0, w_abs=1.0)
    kin = kinematics(2.0, 1.0, pot)
    assert kin.mom2_minus < 0
    mom = principal_momentum(kin.mom2_minus)
    assert mom.real == 0.0 and mom.imag > 0.0
    basis = nullspace_oracle(2.0, mom, 1.0, pot)
    assert len(basis) == 4


def test_plane_wave_evaluate_applies_right_phase():
    psi, p = free_spinor(2.0, 1.0)
    state = PlaneWaveState(spinor=psi, momentum=p, energy=2.0)
    at = state.evaluate(0.5, 0.25)
    phase = np.exp(1j * (p * 0.5 - 2.0 * 0.25))
    want = psi.scale_right(phase)
    assert np.allclose(at.to_real_vector(), want.to_real_vector(), atol=1e-15)

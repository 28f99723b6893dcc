"""Dirac matrices, quaternionic 4-spinors, and the stationary-operator oracle.

The equation of motion used throughout is the anti-hermitian form

    d_t Psi = -[alpha . grad + i m beta + (i V1 + j V2 + k V3)] Psi,

reduced to one dimension along z (only alpha_3 acts). Matrix entries multiply
spinor components by *left* quaternion multiplication; plane-wave phases
multiply on the *right*. Because the potential quaternion involves j, the
stationary problem is not complex-hermitian; it is handled as a 16x16 real
linear map on the real coordinates of a spinor, and its numerical nullspace
(via SVD) serves as the independent ground truth for every closed-form spinor
in the package.

numpy is imported where an array is made, not with the module: the matrices
and the realified operator's 4x4 blocks are built on first use, so the
closed-form spinors that step and bag assemble from QSpinor and
PlaneWaveState never load it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .quaternion import I, J, K, ONE, ZERO, Quaternion, left_matrix

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DiracMatrices",
    "QSpinor",
    "PlaneWaveState",
    "build_matrices",
    "apply_matrix",
    "potential_quaternion",
    "dirac_residual",
    "stationary_residual",
    "realify_stationary_operator",
    "nullspace_oracle",
]


@dataclass(frozen=True)
class DiracMatrices:
    """The 4x4 alpha/beta representation with off-diagonal Pauli blocks.

    All entries are Gaussian integers, so products and anticommutators are
    exact in floating point and the algebra identities can be checked with
    strict equality.
    """

    alpha: tuple
    beta: np.ndarray
    identity: np.ndarray
    pauli: tuple


@cache
def _built():
    """(DiracMatrices, L_i, L_j, L_k, R_i), made once on first use.

    The L blocks are the real 4x4 matrices of left multiplication by i, j
    and k, R_i that of right multiplication by i; they are generated from
    the quaternion product itself, so there is a single source of truth for
    the sign conventions of the realified operator.
    """
    import numpy as np

    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    alpha = tuple(np.block([[zero, s], [s, zero]]) for s in (s1, s2, s3))
    beta = np.block([[eye2, zero], [zero, -eye2]])
    identity = np.eye(4, dtype=complex)
    for arr in (*alpha, beta, identity, s1, s2, s3):
        arr.flags.writeable = False
    mats = DiracMatrices(alpha=alpha, beta=beta, identity=identity, pauli=(s1, s2, s3))
    r_i = np.array([(b * I).coeffs() for b in (ONE, I, J, K)], dtype=float).T
    return mats, left_matrix(I), left_matrix(J), left_matrix(K), r_i


def build_matrices() -> DiracMatrices:
    """The one read-only DiracMatrices instance, built on first use."""
    return _built()[0]


class QSpinor:
    """A column of four quaternions; the wavefunction value at one point."""

    __slots__ = ("comp",)

    def __init__(self, comp):
        c = tuple(comp)
        if len(c) != 4:
            raise ValueError("QSpinor needs exactly 4 components")
        object.__setattr__(self, "comp", c)

    def __setattr__(self, name, value):
        raise AttributeError("QSpinor is immutable")

    def __getitem__(self, idx):
        return self.comp[idx]

    def __add__(self, other):
        return QSpinor([a + b for a, b in zip(self.comp, other.comp)])

    def __sub__(self, other):
        return QSpinor([a - b for a, b in zip(self.comp, other.comp)])

    def __neg__(self):
        return QSpinor([-a for a in self.comp])

    def scale_right(self, z: complex) -> "QSpinor":
        """Right-multiply every component by a complex scalar."""
        return QSpinor([a * z for a in self.comp])

    def norm_sq(self) -> float:
        return sum(a.norm_sq() for a in self.comp)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def to_real_vector(self) -> np.ndarray:
        """The 16 real coordinates, component-major."""
        import numpy as np

        out = np.empty(16)
        for a, q in enumerate(self.comp):
            out[4 * a : 4 * a + 4] = q.coeffs()
        return out

    @classmethod
    def from_real_vector(cls, vec) -> "QSpinor":
        import numpy as np

        v = np.asarray(vec, dtype=float)
        if v.shape != (16,):
            raise ValueError("expected 16 real coordinates")
        return cls([Quaternion.from_coeffs(*v[4 * a : 4 * a + 4]) for a in range(4)])

    def __repr__(self):
        return "QSpinor(%s)" % (", ".join(repr(q) for q in self.comp),)


def _block_spinor(minus: bool, spin: str, chi, sigma, scale: float = 1.0) -> QSpinor:
    """The spinor of one branch and spin from its chi and sigma3*chi blocks.

    The chi block goes on top (components 0, 1) on the minus branch and below
    on the plus branch. Spin up takes each half's first component, spin down
    the second, where sigma3 puts -1 on the sigma block: that sign times
    scale multiplies it from the left. chi is placed as given.
    """
    idx = 0 if spin == "up" else 1
    sigma = ((1.0 if idx == 0 else -1.0) * scale) * sigma
    comp = [ZERO] * 4
    comp[idx], comp[2 + idx] = (chi, sigma) if minus else (sigma, chi)
    return QSpinor(comp)


def apply_matrix(mat, psi: QSpinor) -> QSpinor:
    """Apply a 4x4 complex matrix to a spinor by left multiplication.

    Matrix entries act on the left of each quaternion component, which matters:
    a complex entry c sends u + jw to c*u + j*conj(c)*w.
    """
    import numpy as np

    out = []
    for row in np.asarray(mat, dtype=complex).tolist():
        acc = Quaternion()
        for c, q in zip(row, psi.comp):
            if c != 0:
                acc = acc + c * q
        out.append(acc)
    return QSpinor(out)


@dataclass(frozen=True)
class PlaneWaveState:
    """A plane wave: constant spinor amplitude times exp(i(dir*Q*z + sgn*E*t)).

    The amplitude multiplies the phase on the right, never the left. momentum
    may be complex (evanescent modes); energy_sign is -1 for the standard
    exp(-iEt) convention and +1 for the non-relativistic-limit states that
    carry exp(+iEt).
    """

    spinor: QSpinor
    momentum: complex
    energy: float
    direction: int = 1
    energy_sign: int = -1

    def evaluate(self, z: float, t: float = 0.0) -> QSpinor:
        phase = cmath.exp(
            1j * (self.direction * self.momentum * z + self.energy_sign * self.energy * t)
        )
        return self.spinor.scale_right(phase)


def potential_quaternion(pot) -> Quaternion:
    """The left-multiplying potential quaternion i*V1 + j*V2 + k*V3.

    In pair form this is (i*v0, -i*w0) with w0 = V3 + i*V2; the object passed
    in only needs .v0 and .w0 attributes.
    """
    return Quaternion(1j * pot.v0, -1j * complex(pot.w0))


def _operator_defect(psi: QSpinor, t_factor: complex, z_factor: complex,
                     mass: float, pot) -> QSpinor:
    """d_t-side plus RHS-side of the equation of motion on a bare amplitude.

    t_factor and z_factor are the complex scalars the analytic derivatives
    bring down on the right (i*sgn*E and i*dir*Q respectively).
    """
    mats = _built()[0]
    t_term = psi.scale_right(t_factor)
    z_term = apply_matrix(mats.alpha[2], psi).scale_right(z_factor)
    mass_term = apply_matrix(1j * mass * mats.beta, psi)
    pq = potential_quaternion(pot)
    pot_term = QSpinor([pq * q for q in psi.comp])
    return t_term + z_term + mass_term + pot_term


def dirac_residual(state: PlaneWaveState, pot, mass: float) -> float:
    """Relative norm of the equation of motion applied to a plane wave.

    Derivatives are taken analytically: d_z brings down i*dir*Q on the right,
    d_t brings down i*energy_sign*E on the right. The overall phase drops out
    of the norm, so the residual is evaluated at z = t = 0.
    """
    psi = state.spinor
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValueError("zero-norm spinor has no defined residual")
    defect = _operator_defect(
        psi,
        1j * state.energy_sign * state.energy,
        1j * state.direction * state.momentum,
        mass,
        pot,
    )
    return defect.norm() / nrm


def stationary_residual(psi: QSpinor, energy: float, momentum: complex,
                        mass: float, pot) -> float:
    """Residual of the stationary operator on a bare spinor amplitude.

    Same operator as dirac_residual with the exp(-iEt), exp(+iQz) convention
    and no plane-wave bookkeeping; used by the oracle self-checks and the bag
    module.
    """
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValueError("zero-norm spinor has no defined residual")
    defect = _operator_defect(psi, -1j * energy, 1j * momentum, mass, pot)
    return defect.norm() / nrm


def realify_stationary_operator(energy: float, momentum: complex, mass: float,
                                pot) -> np.ndarray:
    """The stationary plane-wave operator as a 16x16 real matrix.

    Acting on the 16 real coordinates of a spinor amplitude psi it computes

        psi * (-iE) + alpha3 psi * (iQ) + i m beta psi + (iV1+jV2+kV3) psi,

    i.e. the equation-of-motion defect of the plane-wave ansatz with the
    right-multiplications by -iE and iQ folded in. Left multiplication by j is
    antilinear over left-acting complex scalars, so the map is assembled over
    the reals.
    """
    import numpy as np

    mats, l_i, l_j, l_k, r_i = _built()
    eye4 = np.eye(4)

    def right_mult(c):
        """Real 4x4 matrix of right multiplication by the complex scalar c."""
        c = complex(c)
        return c.real * eye4 + c.imag * r_i

    w0 = complex(pot.w0)
    v1, v2, v3 = pot.v0, w0.imag, w0.real
    op = np.kron(eye4, right_mult(-1j * energy))
    op += np.kron(mats.alpha[2].real, right_mult(1j * momentum))
    op += np.kron(mats.beta.real, mass * l_i)
    op += np.kron(eye4, v1 * l_i + v2 * l_j + v3 * l_k)
    return op


def nullspace_oracle(energy: float, momentum: complex, mass: float, pot,
                     tol: float = 1e-8) -> list:
    """Orthonormal basis of the numerical nullspace of the stationary operator.

    Singular vectors whose singular value falls below tol times the largest
    one are kept. An empty list signals that (energy, momentum) is not on a
    dispersion branch. Every returned spinor satisfies the equation of motion
    to better than 1e-12 by construction; the caller is expected to check that
    independently (and the test suite does).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    import numpy as np

    op = realify_stationary_operator(energy, momentum, mass, pot)
    _, svals, vt = np.linalg.svd(op)
    cutoff = tol * svals[0]
    out = []
    for s, row in zip(svals, vt):
        if s < cutoff:
            out.append(QSpinor.from_real_vector(row))
    return out

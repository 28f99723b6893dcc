"""Dirac matrices, quaternionic 4-spinors, and the stationary-operator oracle.

The equation of motion used throughout is the anti-hermitian form

    d_t Psi = -[alpha . grad + i m beta + (i V1 + j V2 + k V3)] Psi,

reduced to one dimension along z (only alpha_3 acts). Matrix entries multiply
spinor components by *left* quaternion multiplication; plane-wave phases
multiply on the *right*. Because the potential quaternion involves j, the
stationary problem is not complex-hermitian; it is handled as a 16x16 real
linear map on the real coordinates of a spinor, and its numerical nullspace
(via SVD) serves as the independent ground truth for every closed-form spinor
in the package. _operator_stack builds it for a stack of points at once and
_nullspace_stack decomposes that stack in one SVD call; the public
realify_stationary_operator and nullspace_oracle are their n = 1 case.

The residuals carry each spinor component as its (u, w) complex pair through
the operations, in the order, of the Quaternion and QSpinor arithmetic:
_row_sums is the one row sum of a matrix on a spinor, for apply_matrix,
dirac_residual and bag's wall maps; dirac_residual forms the i*m*beta term
from beta's diagonal inline. So every bit of each norm equals the object
form, which the tests keep as the oracle. Each constant table, the row tables
of alpha3 and of the two walls and beta's diagonal among them, is made once
by _built, the one cached function of the package, and read by name. So are
the operator's four realified blocks, left multiplication by i, j and k and
right multiplication by i: one expression makes them from the quaternion
product, which keeps quaternion itself free of numpy.

InputError, NoSolutionError and SingularCoefficientsError (bag and step
re-export the last two), _record, which declares the frozen records of all
four modules, and the argument checks that step, bag, nonrel and cli share
live here, in the lowest module that checks an argument, each written
once. Two guards on the per-level path, step._require_on_shell and
bag.quantization_residual, pass floats on one type test and comparison
chain and send any other argument through those checks;
_require_plane_wave runs the checks on every argument. None catches a
TypeError.

numpy is imported where an array is made, not with the module: _built makes
its tables on first use, so the closed-form spinors that step and bag
assemble from QSpinor and PlaneWaveState never load it.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .quaternion import I, J, K, ONE, ZERO, Quaternion, _quat_mul

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InputError",
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


class InputError(ValueError):
    """A bad argument, or a value derived from the arguments that leaves
    float64 range: the caller's fault (exit 2 in the CLI)."""


class NoSolutionError(ValueError):
    """No energy in the admissible range carries the requested momentum."""


class SingularCoefficientsError(ValueError):
    """The mode coefficients divide by zero at this energy: on the mass shell,
    or where a denominator of mode_coefficients vanishes exactly."""


def _require_real(**values):
    """InputError naming the first value that is not a real number, which a
    comparison would refuse with a TypeError (a complex, a str) or abs()
    would let pass (a complex), or that float() cannot hold (10**400, which
    float arithmetic would refuse with an OverflowError). That value is not
    formatted: str() refuses an int of more than 4300 digits. A float skips
    both slower checks."""
    for name, value in values.items():
        if type(value) is not float:
            if not isinstance(value, numbers.Real):
                raise InputError("%s must be a real number, got %r" % (name, value))
            try:
                float(value)
            except OverflowError:
                raise InputError("%s lies beyond float64 range" % name) from None


def _require_finite(**values):
    """InputError naming the first value that is not a real number, else the
    first that is not finite: the one check for finite real values."""
    _require_real(**values)
    for name, value in values.items():
        if not math.isfinite(value):
            raise InputError("%s must be finite, got %r" % (name, value))


def _require_mass(mass):
    _require_real(mass=mass)
    if not 0.0 <= mass < math.inf:
        raise InputError("mass must be finite and >= 0, got %r" % (mass,))


def _require_magnitude(w_abs):
    """w_abs >= 0, for a w_abs that _require_finite has passed."""
    if w_abs < 0:
        raise InputError("w_abs is a magnitude and must be >= 0")


def _require_spin(spin):
    if spin not in ("up", "down"):
        raise InputError("spin must be 'up' or 'down'")


def _require_plane_wave(energy, momentum, mass):
    """Finite real energy, finite momentum (real or complex), finite real
    mass >= 0, each refused by name in that order; a real momentum goes
    through _require_finite, as energy and mass do. There is no float fast
    path: at 341 calls per verify report it would save about 0.4 ms of some
    46 ms (2-core x86-64, Python 3.11)."""
    _require_finite(energy=energy, mass=mass)
    if isinstance(momentum, numbers.Real):
        _require_finite(momentum=momentum)
    elif not isinstance(momentum, numbers.Number):
        raise InputError("momentum must be a number, got %r" % (momentum,))
    elif not cmath.isfinite(momentum):
        raise InputError("momentum must be finite, got %r" % (momentum,))
    _require_mass(mass)


def _require_length(length):
    _require_real(length=length)
    if not 0.0 < length < math.inf:
        raise InputError("length must be finite and > 0, got %r" % (length,))


def _require_count(name, value, least):
    """value as an int from least to sys.maxsize, or InputError naming it: a
    float such as 3.0 is no count, and 10**400 would overflow float64 in n*pi."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError("%s must be an int, got %r" % (name, value)) from None
    if value < least:
        raise InputError("%s must be >= %d" % (name, least))
    if value > sys.maxsize:
        raise InputError("%s must be at most sys.maxsize" % name)
    return value


def _momentum_ladder(length, n_max, d):
    """n*pi/d/length for n = 1..n_max: d = 2.0 gives the bag's n*pi/(2L), 1.0
    the Dirichlet n*pi/L (n*pi/1.0 is exact). Never 0 or inf."""
    _require_length(length)
    n_max = _require_count("n_max", n_max, 1)
    if not math.isfinite(n_max * math.pi / d / length):
        raise InputError("length %r is too small: the momentum %d*pi/%s overflows "
                         "float64" % (length, n_max, "(2*length)" if d == 2 else "length"))
    return [n * math.pi / d / length for n in range(1, n_max + 1)]


def _record(cls):
    """dataclass(frozen=True) with an __init__ that writes each field into
    the instance __dict__, where the dataclass's own calls object.__setattr__
    once per field: 1.0 against 2.9 us for nine fields (timeit, Python
    3.11, 2-core x86-64).

    The __init__ is one generated def, as dataclasses makes its own, with the
    same parameters, defaults and annotations; it ends in __post_init__ where
    the class defines one, so replace re-runs the validation. eq, hash, repr,
    FrozenInstanceError, fields and replace stay the dataclass's.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    flds = fields(cls)
    namespace = {"__name__": cls.__module__}
    params = []
    for f in flds:
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace["_dflt_" + f.name] = f.default
            params.append("%s=_dflt_%s" % (f.name, f.name))
    body = ["def __init__(__self, %s):" % ", ".join(params),
            "    __d = __self.__dict__"]
    body += ["    __d[%r] = %s" % (f.name, f.name) for f in flds]
    if hasattr(cls, "__post_init__"):
        body.append("    __self.__post_init__()")
    exec("\n".join(body), namespace)
    init = namespace["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    init.__annotations__ = {**{f.name: f.type for f in flds}, "return": None}
    cls.__init__ = init
    return cls


@_record
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
    """Every constant table of the Dirac layer, made once on first use and
    read by name; the one cached function of the package.

    mats is the DiracMatrices. l_i, l_j and l_k, the realified operator's
    blocks, are the real 4x4 matrices of left multiplication by i, j and k,
    r_i that of right multiplication by i; mult makes all four from the
    quaternion product itself, column n the coefficients of the product
    with the n-th basis element of (ONE, I, J, K), so there is a single
    source of truth for the sign conventions of the realified operator.
    alpha3 is alpha3's _matrix_rows table and beta_diag beta's diagonal,
    for dirac_residual. walls maps 'left' to the _matrix_rows table of
    1.0 * beta*alpha3 and 'right' to that of -1.0 * beta*alpha3, for bag's
    wall maps.
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

    def mult(product):
        return np.array([product(b).coeffs() for b in (ONE, I, J, K)], dtype=float).T

    return SimpleNamespace(
        mats=DiracMatrices(alpha=alpha, beta=beta, identity=identity, pauli=(s1, s2, s3)),
        l_i=mult(lambda b: I * b), l_j=mult(lambda b: J * b),
        l_k=mult(lambda b: K * b), r_i=mult(lambda b: b * I),
        alpha3=_matrix_rows(alpha[2].tolist()), beta_diag=beta.diagonal().tolist(),
        walls={end: _matrix_rows((sign * (beta @ alpha[2])).tolist())
               for end, sign in (("left", 1.0), ("right", -1.0))})


def build_matrices() -> DiracMatrices:
    """The one read-only DiracMatrices instance, built on first use."""
    return _built().mats


class QSpinor:
    """A column of four quaternions; the wavefunction value at one point."""

    __slots__ = ("comp",)

    def __init__(self, comp):
        c = tuple(comp)
        if len(c) != 4:
            raise InputError("QSpinor needs exactly 4 components")
        object.__setattr__(self, "comp", c)

    def __setattr__(self, name, value):
        raise AttributeError("QSpinor is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the refused __setattr__
        return type(self), (self.comp,)

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
        try:
            return math.sqrt(self.norm_sq())
        except OverflowError:
            # a square leaves float64 although the norm may not; hypot scales
            return math.hypot(*(x for q in self.comp for x in q.coeffs()))

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
            raise InputError("expected 16 real coordinates")
        x = v.tolist()
        return cls([Quaternion.from_coeffs(*x[4 * a : 4 * a + 4]) for a in range(4)])

    def __eq__(self, other):
        if isinstance(other, QSpinor):
            return self.comp == other.comp
        return NotImplemented

    def __hash__(self):
        return hash(self.comp)

    def __repr__(self):
        return "QSpinor(%s)" % (", ".join(repr(q) for q in self.comp),)


def _block_spinor(minus: bool, spin: str, chi, sigma) -> QSpinor:
    """The spinor of one branch and spin from its chi and sigma3*chi blocks.

    The chi block goes on top (components 0, 1) on the minus branch and below
    on the plus branch. Spin up takes each half's first component, spin down
    the second, where sigma3 puts -1 on the sigma block: that sign multiplies
    it from the left. chi is placed as given; a caller that scales the spinor
    scales both blocks before the call.
    """
    idx = 0 if spin == "up" else 1
    sigma = (1.0 if idx == 0 else -1.0) * sigma
    comp = [ZERO] * 4
    comp[idx], comp[2 + idx] = (chi, sigma) if minus else (sigma, chi)
    return QSpinor(comp)


def _pairs(psi: QSpinor) -> list:
    """The (u, w) pair of each component."""
    return [(q.u, q.w) for q in psi.comp]


def _norm(pairs) -> float:
    """QSpinor.norm of a spinor held as (u, w) pairs, summed the same way.
    InputError where the sum of squares overflows float64: a float's ** 2
    raises OverflowError there. x * x would give inf instead, but it rounds
    differently from ** 2 (libm pow) for about one x in 1200 (glibc 2.36),
    which would move residual bits."""
    try:
        total = sum(u.real ** 2 + u.imag ** 2 + w.real ** 2 + w.imag ** 2
                    for u, w in pairs)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise InputError("the spinor norm overflows float64")
    return math.sqrt(total)


def _matrix_rows(rows) -> tuple:
    """The nonzero terms (k, c, conj(c)) of each row of a complex matrix
    given as nested lists: the table _row_sums reads."""
    return tuple(tuple((k, c, c.conjugate()) for k, c in enumerate(row) if c != 0)
                 for row in rows)


def _row_sums(rows, pairs) -> list:
    """(u, w) of each row of a _matrix_rows table applied to (u, w) pairs:
    c*u and conj(c)*w summed from 0j in column order, as apply_matrix
    documents."""
    out = []
    for row in rows:
        u = w = 0j
        for k, c, cc in row:
            pu, pw = pairs[k]
            u = u + c * pu
            w = w + cc * pw
        out.append((u, w))
    return out


def apply_matrix(mat, psi: QSpinor) -> QSpinor:
    """Apply a 4x4 complex matrix to a spinor by left multiplication.

    Matrix entries act on the left of each quaternion component, which matters:
    a complex entry c sends u + jw to c*u + j*conj(c)*w. Each row sums its
    nonzero terms' u and w parts as complex numbers (_row_sums), the same
    operations in the same order as summing the quaternions c * q, which is
    the test oracle (tests/oracles.apply_matrix_by_quaternions).
    """
    import numpy as np

    rows = _matrix_rows(np.asarray(mat, dtype=complex).tolist())
    return QSpinor([Quaternion(u, w) for u, w in _row_sums(rows, _pairs(psi))])


@_record
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
        _require_real(z=z, t=t)
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


def dirac_residual(state: PlaneWaveState, pot, mass: float) -> float:
    """Relative norm of the equation of motion applied to a plane wave.

    Derivatives are taken analytically: d_z brings down i*dir*Q on the right,
    d_t brings down i*energy_sign*E on the right. The overall phase drops out
    of the norm, so the residual is evaluated at z = t = 0. Each component
    is carried as its (u, w) pair through the operations, in the order, of
    the object form psi*(i sgn E) + (alpha3 psi)*(i dir Q) + (i m beta) psi
    + (iV1 + jV2 + kV3) psi summed as QSpinors, so every bit of the norm equals
    that form's, the test oracle (tests/oracles.dirac_residual_by_quaternions).
    A non-finite energy, momentum or mass, a negative mass, or a spinor of
    zero norm raises InputError.
    """
    _require_plane_wave(state.energy, state.momentum, mass)
    psi = _pairs(state.spinor)
    nrm = _norm(psi)
    if nrm == 0.0:
        raise InputError("zero-norm spinor has no defined residual")
    tables = _built()
    z_t = 1j * state.energy_sign * state.energy
    z_q = 1j * state.direction * state.momentum
    pq = potential_quaternion(pot)
    out = []
    for (u, w), (au, aw), b in zip(psi, _row_sums(tables.alpha3, psi), tables.beta_diag):
        c = 1j * mass * b
        vu, vw = _quat_mul(pq.u, pq.w, u, w)
        out.append((u * z_t + au * z_q + c * u + vu,
                    w * z_t + aw * z_q + c.conjugate() * w + vw))
    return _norm(out) / nrm


def stationary_residual(psi: QSpinor, energy: float, momentum: complex,
                        mass: float, pot) -> float:
    """Residual of the stationary operator on a bare spinor amplitude.

    dirac_residual of the plane wave with the exp(-iEt), exp(+iQz)
    convention; used by the oracle self-checks of the verify report.
    """
    return dirac_residual(PlaneWaveState(psi, momentum, energy), pot, mass)


def _operator_stack(points) -> np.ndarray:
    """realify_stationary_operator of each (energy, momentum, mass, pot) in
    points as one (n, 16, 16) array, every point checked before numpy is
    used. Each Kronecker product of a 4x4 block with the stack is one
    np.kron call, so every entry (the sign of each zero too) equals the test
    oracle tests/oracles.realify_by_kron, its one-point form."""
    for energy, momentum, mass, _ in points:
        _require_plane_wave(energy, momentum, mass)
    import numpy as np

    tables = _built()
    eye4 = np.eye(4)
    energies, momenta, masses, pots = zip(*points)
    w0 = np.array([p.w0 for p in pots], dtype=complex)[:, None, None]
    v1 = np.array([p.v0 for p in pots], dtype=float)[:, None, None]
    mass = np.array(masses, dtype=float)[:, None, None]

    def right_mult(cs):
        c = np.array(cs, dtype=complex)[:, None, None]
        return c.real * eye4 + c.imag * tables.r_i

    with np.errstate(over="ignore"):
        op = np.kron(eye4, right_mult([-1j * e for e in energies]))
        op += np.kron(tables.mats.alpha[2].real, right_mult([1j * q for q in momenta]))
        op += np.kron(tables.mats.beta.real, mass * tables.l_i)
        op += np.kron(eye4, v1 * tables.l_i + w0.imag * tables.l_j + w0.real * tables.l_k)
    if not np.isfinite(op).all():
        raise InputError("the realified operator overflows float64")
    return op


def realify_stationary_operator(energy: float, momentum: complex, mass: float,
                                pot) -> np.ndarray:
    """The stationary plane-wave operator as a 16x16 real matrix.

    Acting on the 16 real coordinates of a spinor amplitude psi it computes

        psi * (-iE) + alpha3 psi * (iQ) + i m beta psi + (iV1+jV2+kV3) psi,

    i.e. the equation-of-motion defect of the plane-wave ansatz with the
    right-multiplications by -iE and iQ folded in. Left multiplication by j is
    antilinear over left-acting complex scalars, so the map is assembled over
    the reals. It is the one-point case of the stack _operator_stack builds.
    A non-finite energy, mass or momentum, a negative mass, or an entry that
    overflows float64 raises InputError.
    """
    return _operator_stack([(energy, momentum, mass, pot)])[0]


def _nullspace_stack(points, tol: float = 1e-8) -> list:
    """nullspace_oracle of each (energy, momentum, mass, pot) in points, from
    one np.linalg.svd call on their _operator_stack."""
    if not 0 < tol < 1:
        raise InputError("tol must lie in (0, 1), got %r" % (tol,))
    import numpy as np

    _, svals, vt = np.linalg.svd(_operator_stack(points))
    return [[QSpinor.from_real_vector(row) for row in v[s < tol * s[0]]]
            for s, v in zip(svals, vt)]


def nullspace_oracle(energy: float, momentum: complex, mass: float, pot,
                     tol: float = 1e-8) -> list:
    """Orthonormal basis of the numerical nullspace of the stationary operator.

    Singular vectors whose singular value falls below tol times the largest
    one are kept, for a tol inside (0, 1); any other tol (nan, inf, 1.0)
    raises InputError. An empty list signals that (energy, momentum) is not
    on a dispersion branch. Every returned spinor satisfies the equation of
    motion to better than 1e-12 by construction; the caller is expected to
    check that independently (and the test suite does). It is the one-point
    case of _nullspace_stack, which decomposes a stack in one SVD call.
    """
    return _nullspace_stack([(energy, momentum, mass, pot)], tol)[0]

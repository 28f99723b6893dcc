"""Quaternion arithmetic in the symplectic (complex pair) representation.

A quaternion q = A + Bi + Cj + Dk is stored as the ordered pair of complex
numbers (u, w) with q = u + j*w, u = A + Bi and w = C - Di. The second
imaginary unit j anti-commutes with i, so complex scalars do not commute
through j; instead j*z = conj(z)*j for every complex z. That one rule fixes
all the sign conventions below, and the whole package leans on it: left and
right multiplication by the same complex number are different operations.

Examples
--------
>>> I * J == K
True
>>> J * I == -K
True
>>> (ONE + I) * (ONE + J) == Quaternion.from_coeffs(1, 1, 1, 1)
True
>>> J * Quaternion.from_complex(2 + 3j) == Quaternion.from_complex(2 - 3j) * J
True
"""

from __future__ import annotations

import math

__all__ = ["Quaternion", "I", "J", "K", "ONE", "ZERO"]


def _quat_mul(u1, w1, u2, w2):
    """(u, w) of (u1 + j w1)(u2 + j w2) = (u1 u2 - conj(w1) w2) + j (conj(u1) w2
    + u2 w1), by j z = conj(z) j and j^2 = -1, for complex numbers or arrays.

    Expanded into real arithmetic in the order Python multiplies complex
    numbers, so an array element equals the object product bit for bit
    (re + 1j*im may drop the sign of a zero part, which complex() keeps).
    """
    u1re, u1im, w1re, w1im = u1.real, u1.imag, w1.real, w1.imag
    u2re, u2im, w2re, w2im = u2.real, u2.imag, w2.real, w2.imag
    ure = u1re * u2re - u1im * u2im - (w1re * w2re + w1im * w2im)
    uim = u1re * u2im + u1im * u2re - (w1re * w2im - w1im * w2re)
    wre = u1re * w2re + u1im * w2im + (u2re * w1re - u2im * w1im)
    wim = u1re * w2im - u1im * w2re + (u2re * w1im + u2im * w1re)
    if isinstance(ure, float):
        return complex(ure, uim), complex(wre, wim)
    return ure + 1j * uim, wre + 1j * wim


class Quaternion:
    """An immutable quaternion u + j*w with u, w complex."""

    __slots__ = ("u", "w")

    def __init__(self, u: complex = 0j, w: complex = 0j):
        object.__setattr__(self, "u", complex(u))
        object.__setattr__(self, "w", complex(w))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the refused __setattr__
        return type(self), (self.u, self.w)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(cls, a: float, b: float, c: float, d: float) -> "Quaternion":
        """Build from real coefficients of a + b*i + c*j + d*k."""
        return cls(complex(a, b), complex(c, -d))

    @classmethod
    def from_complex(cls, z: complex) -> "Quaternion":
        return cls(z, 0j)

    # -- conversions ---------------------------------------------------

    def coeffs(self) -> tuple[float, float, float, float]:
        """Real coefficients (a, b, c, d) of a + b*i + c*j + d*k."""
        return (self.u.real, self.u.imag, self.w.real, -self.w.imag)

    # -- algebra -------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(*_quat_mul(self.u, self.w, other.u, other.w))
        if isinstance(other, (int, float, complex)):
            # right multiplication by a complex scalar
            return Quaternion(self.u * other, self.w * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            # left multiplication by a complex scalar: j w c = conj(c) j w
            return Quaternion(other * self.u, complex(other).conjugate() * self.w)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.u + other.u, self.w + other.w)
        if isinstance(other, (int, float, complex)):
            return Quaternion(self.u + other, self.w)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.u - other.u, self.w - other.w)
        if isinstance(other, (int, float, complex)):
            return Quaternion(self.u - other, self.w)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Quaternion(-self.u, -self.w)

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return self.u == other.u and self.w == other.w
        if isinstance(other, (int, float, complex)):
            return self.w == 0 and self.u == other
        return NotImplemented

    def __hash__(self):
        # equal to a number exactly when w == 0, so hash like that number
        return hash(self.u) if self.w == 0 else hash((self.u, self.w))

    def conjugate(self) -> "Quaternion":
        """Quaternion conjugate (negates the i, j, k parts)."""
        return Quaternion(self.u.conjugate(), -self.w)

    def norm_sq(self) -> float:
        return (
            self.u.real ** 2 + self.u.imag ** 2
            + self.w.real ** 2 + self.w.imag ** 2
        )

    def norm(self) -> float:
        try:
            return math.sqrt(self.norm_sq())
        except OverflowError:
            # a square leaves float64 although the norm may not; hypot scales
            return math.hypot(*self.coeffs())

    def is_close(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).norm() <= tol

    def __abs__(self):
        return self.norm()

    def __repr__(self):
        # adding 0.0 normalizes negative zeros out of the display
        a, b, c, d = (x + 0.0 for x in self.coeffs())
        return "Quaternion(%g%+gi%+gj%+gk)" % (a, b, c, d)


ONE = Quaternion.from_coeffs(1, 0, 0, 0)
I = Quaternion.from_coeffs(0, 1, 0, 0)
J = Quaternion.from_coeffs(0, 0, 1, 0)
K = Quaternion.from_coeffs(0, 0, 0, 1)
ZERO = Quaternion()

"""Quaternion arithmetic against the coefficient-table oracle."""

import doctest
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import qdirac.quaternion
from qdirac import I, J, K, ONE, ZERO, Quaternion, dirac

BASIS = (ONE, I, J, K)
BASIS_COEFFS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def quats(draw_zero=True):
    return st.builds(Quaternion.from_coeffs, finite, finite, finite, finite)


def test_all_basis_products_match_the_table_exactly():
    for a, ca in zip(BASIS, BASIS_COEFFS):
        for b, cb in zip(BASIS, BASIS_COEFFS):
            assert (a * b).coeffs() == oracles.mul_coeffs(ca, cb)


def test_coeff_round_trip_and_pair_storage():
    q = Quaternion.from_coeffs(1.25, -2.5, 3.0, -4.75)
    assert q.coeffs() == (1.25, -2.5, 3.0, -4.75)
    u, w = oracles.pair_from_coeffs((1.25, -2.5, 3.0, -4.75))
    assert q.u == u and q.w == w


def test_conjugate_and_norm_match_oracle():
    q = Quaternion.from_coeffs(0.5, 1.5, -2.0, 0.75)
    assert q.conjugate().coeffs() == oracles.conj_coeffs(q.coeffs())
    assert q.norm() == pytest.approx(oracles.norm_coeffs(q.coeffs()), rel=1e-15)
    assert abs(q) == q.norm()


@pytest.mark.parametrize("coeffs,norm", [
    ((1e200, 0.0, 0.0, 0.0), 1e200),
    ((0.0, 0.0, 0.0, -1e200), 1e200),
    ((1e308, 1e308, 1e308, 1e308), math.inf),  # the norm itself overflows
    ((1e300, 1e300, 1e300, 1e300), 2e300),
])
def test_norm_is_returned_where_only_its_squares_overflow(coeffs, norm):
    q = Quaternion.from_coeffs(*coeffs)
    assert q.norm() == norm and abs(q) == norm
    spinor = dirac.QSpinor([q, Quaternion(), Quaternion(), Quaternion()])
    assert spinor.norm() == norm
    # four equal components double it, as long as the double is finite
    four = dirac.QSpinor([q] * 4).norm()
    assert four == (2 * norm if norm < 1e308 else math.inf)


def test_j_anticommutes_complex_scalars():
    z = 2.0 + 3.0j
    assert J * Quaternion.from_complex(z) == Quaternion.from_complex(z.conjugate()) * J
    # j times a complex scalar is the pure pair (0, z)
    assert (J * Quaternion.from_complex(z)).u == 0
    assert (J * Quaternion.from_complex(z)).w == z


def test_module_docstring_examples_run():
    result = doctest.testmod(qdirac.quaternion)
    assert result.failed == 0
    assert result.attempted >= 1


def test_left_and_right_j_maps_on_the_pair():
    q = Quaternion(1.0 + 2.0j, 3.0 - 4.0j)
    lj = J * q
    assert (lj.u, lj.w) == (-q.w, q.u)
    rj = q * J
    assert (rj.u, rj.w) == (-q.w.conjugate(), q.u.conjugate())
    # adjudicate both against the coefficient table
    jc = (0, 0, 1, 0)
    assert lj.coeffs() == oracles.mul_coeffs(jc, q.coeffs())
    assert rj.coeffs() == oracles.mul_coeffs(q.coeffs(), jc)


def test_left_and_right_complex_scalars_differ():
    q = Quaternion(1.0 + 1.0j, 2.0 - 1.0j)
    c = 0.5 - 2.0j
    left = c * q
    right = q * c
    assert left.u == c * q.u and left.w == c.conjugate() * q.w
    assert right.u == q.u * c and right.w == q.w * c
    assert left != right


def test_arithmetic_with_plain_scalars():
    q = Quaternion.from_coeffs(1.0, 2.0, 3.0, 4.0)
    assert (q + 1.0) - 1.0 == q
    assert 2.0 - q == -(q - 2.0)
    assert q * 2 == Quaternion.from_coeffs(2.0, 4.0, 6.0, 8.0)
    assert ZERO == 0 and ONE == 1


@pytest.mark.parametrize("op,refused", [
    (lambda q: q * "x", True), (lambda q: "x" * q, True), (lambda q: q + "x", True),
    (lambda q: q - "x", True), (lambda q: q == "x", False),
], ids=["mul", "rmul", "add", "sub", "eq"])
def test_an_operand_that_is_no_number_is_not_implemented(op, refused):
    # each operator returns NotImplemented: Python then refuses the sum,
    # difference and products, and == falls back to identity
    q = Quaternion(1.0, 2j)
    if refused:
        with pytest.raises(TypeError):
            op(q)
    else:
        assert op(q) is False


def test_immutability_and_hash():
    q = Quaternion(1.0, 2.0)
    with pytest.raises(AttributeError):
        q.u = 5.0
    assert hash(Quaternion(1.0, 2.0)) == hash(q)
    assert "Quaternion" in repr(q)


@pytest.mark.parametrize("w", [0.0, -0.0])
@pytest.mark.parametrize("number", [1, 1.0, 1 + 0j, 0, 0.0, -0.0, complex(-0.0, -0.0),
                                    2.5 - 3j])
def test_hash_agrees_with_equal_numbers(number, w):
    q = Quaternion(number, w)
    assert q == number
    assert hash(q) == hash(number)
    assert q in {number} and number in {q}


def test_is_close():
    q = Quaternion.from_coeffs(1.0, 0.0, 0.0, 0.0)
    assert q.is_close(ONE)
    assert not q.is_close(I)


def test_left_blocks_intertwine_products():
    """dirac._built's l_i, l_j and l_k give left multiplication by
    q = a + bi + cj + dk as a*I4 + b*l_i + c*l_j + d*l_k on coefficients."""
    tables = dirac._built()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c, d = rng.standard_normal(4)
        q = Quaternion.from_coeffs(a, b, c, d)
        x = Quaternion.from_coeffs(*rng.standard_normal(4))
        left = a * np.eye(4) + b * tables.l_i + c * tables.l_j + d * tables.l_k
        got = left @ np.array(x.coeffs())
        want = np.array((q * x).coeffs())
        assert np.allclose(got, want, atol=1e-13)


def test_right_block_is_right_multiplication_by_i():
    """dirac._built's r_i maps coeffs(x) to coeffs(x * i); its entries are
    0 and +-1, so the match is exact."""
    r_i = dirac._built().r_i
    rng = np.random.default_rng(4)
    for x in (*BASIS, *(Quaternion.from_coeffs(*rng.standard_normal(4))
                        for _ in range(20))):
        assert np.array_equal(r_i @ np.array(x.coeffs()), np.array((x * I).coeffs()))


@settings(max_examples=300, deadline=None)
@given(quats(), quats(), quats())
def test_product_is_associative(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(1.0, a.norm() * b.norm() * c.norm())
    assert (lhs - rhs).norm() <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(quats(), quats())
def test_norm_is_multiplicative(a, b):
    assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(quats(), quats())
def test_conjugate_reverses_products(a, b):
    lhs = (a * b).conjugate()
    rhs = b.conjugate() * a.conjugate()
    scale = max(1.0, a.norm() * b.norm())
    assert (lhs - rhs).norm() <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
def test_j_threading_rule_for_all_scalars(z):
    lhs = J * Quaternion.from_complex(z)
    rhs = Quaternion.from_complex(z.conjugate()) * J
    assert (lhs - rhs).norm() <= 1e-15 * max(1.0, abs(z))


@settings(max_examples=200, deadline=None)
@given(quats())
def test_norm_sq_consistency(q):
    assert q.norm_sq() == pytest.approx(
        sum(c * c for c in q.coeffs()), rel=1e-13, abs=1e-13
    )
    assert q.conjugate().norm() == q.norm()

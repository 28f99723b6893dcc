"""The array paths against the scalar ones, bit for bit.

branch_mom2_grid and kinematics share step.branch_mom2, so every grid value
must equal the scalar value at the same energy. zone_minus_grid and
classify_zone share step._zone_minus, so the grid must give classify_zone's
label on every row, the leftover point E = E_low = m included. The shared
quaternion product, quaternion._quat_mul, must give on arrays what
Quaternion's own product gives element for element.
"""

import numpy as np
import pytest

from qdirac import PotentialStep, Quaternion, Zone, classify_zone, kinematics
from qdirac import _kernels
from qdirac.quaternion import _quat_mul as _quat_mul_batch

GRID_SPEC = dict(seed=71, n=257, mass=0.8, v0=-1.3, w_abs=0.6)


def _grid_energies(spec):
    rng = np.random.default_rng(spec["seed"])
    return spec["mass"] + rng.uniform(0.05, 6.0, spec["n"])


def test_grid_matches_scalar_kinematics_bitwise():
    e = _grid_energies(GRID_SPEC)
    pot = PotentialStep(
        v0=GRID_SPEC["v0"], w_abs=GRID_SPEC["w_abs"], w_phase=0.4
    )
    p2, q2p, q2m, delta, m2p, m2m = _kernels.branch_mom2_grid(
        e, GRID_SPEC["mass"], GRID_SPEC["v0"], GRID_SPEC["w_abs"]
    )
    assert len(e) == 257
    for i in range(len(e)):
        kin = kinematics(float(e[i]), GRID_SPEC["mass"], pot)
        assert p2[i] == kin.p2
        assert q2p[i] == kin.q2_plus
        assert q2m[i] == kin.q2_minus
        assert delta[i] == kin.delta
        assert m2p[i] == kin.mom2_plus
        assert m2m[i] == kin.mom2_minus


# (mass, v0, w_abs). E_low = m in the first four, so the grid's first point
# E = m is the leftover point that takes the sign of mom2_minus: zero (klein)
# in the first two, negative (evanescent) in the next two. Then a Klein band
# of positive width, v0 = 0, w_abs = 0 and the massless case.
ZONE_CASES = [
    (1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 0.7, 0.5), (0.8, -1.3, 0.6),
    (1.0, 3.0, 0.5), (1.0, 0.0, 0.5), (1.0, 0.5, 0.0), (0.0, 0.5, 0.3),
]


@pytest.mark.parametrize("mass,v0,w_abs", ZONE_CASES)
def test_zone_labels_match_classify_zone(mass, v0, w_abs):
    rng = np.random.default_rng(79)
    pot = PotentialStep(v0=v0, w_abs=w_abs)
    # a uniform grid from the mass shell across the window, then random energies
    e = np.concatenate([
        mass + np.arange(64) * 0.0625, mass + rng.uniform(0.0, 5.0, 256)
    ])
    mom2_minus = _kernels.branch_mom2_grid(e, mass, v0, w_abs)[5]
    codes = _kernels.zone_minus_grid(e, mass, v0, w_abs, mom2_minus)
    zones = list(Zone)
    for energy, code in zip(e.tolist(), codes.tolist()):
        assert zones[code] is classify_zone(energy, mass, pot)[0], energy


def test_quat_mul_batch_matches_object_product_exactly():
    rng = np.random.default_rng(73)
    n = 128
    u1, w1, u2, w2 = (
        rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(4)
    )
    ur, wr = _quat_mul_batch(u1, w1, u2, w2)
    for i in range(n):
        prod = Quaternion(u1[i], w1[i]) * Quaternion(u2[i], w2[i])
        assert ur[i] == prod.u
        assert wr[i] == prod.w


def test_non_contiguous_and_listlike_inputs():
    e_strided = np.linspace(1.0, 5.0, 100)[::3]
    assert not e_strided.flags["C_CONTIGUOUS"] or e_strided.base is None
    out = _kernels.branch_mom2_grid(e_strided, 0.5, 0.2, 0.3)
    ref = _kernels.branch_mom2_grid(np.array(e_strided), 0.5, 0.2, 0.3)
    for a, b in zip(out, ref):
        assert np.array_equal(a, b)
    from_list = _kernels.branch_mom2_grid([2.0, 3.0], 0.5, 0.2, 0.3)
    assert from_list[0].shape == (2,)

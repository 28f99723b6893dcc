"""The ten frozen records: each is a real frozen dataclass, built by
dirac._record, whose __init__ writes the fields into the instance __dict__
instead of calling object.__setattr__ once per field. Everything a caller
can see of a record is checked against its declaration here."""

import ast
import copy
import dataclasses
import inspect
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qdirac
from qdirac import (ZERO, BagLevel, BoundaryPhase, BranchKinematics, DiracMatrices,
                    InputError, ModeCoefficients, NonRelLevel, NonRelParams,
                    PlaneWaveState, PotentialStep, QSpinor, Quaternion,
                    StationaryWavefunction)

REQUIRED = object()

# each record's fields in declaration order, with their defaults
RECORDS = {
    DiracMatrices: [("alpha", REQUIRED), ("beta", REQUIRED), ("identity", REQUIRED),
                    ("pauli", REQUIRED)],
    PlaneWaveState: [("spinor", REQUIRED), ("momentum", REQUIRED), ("energy", REQUIRED),
                     ("direction", 1), ("energy_sign", -1)],
    PotentialStep: [("v0", 0.0), ("w_abs", 0.0), ("w_phase", 0.0)],
    BranchKinematics: [(name, REQUIRED) for name in (
        "energy", "mass", "p2", "q2_plus", "q2_minus", "delta", "mom2_plus",
        "mom2_minus", "zone_minus", "zone_plus")],
    ModeCoefficients: [(name, REQUIRED) for name in (
        "branch", "momentum", "amp_ratio", "j_chi", "j_sigma")],
    BoundaryPhase: [("branch", REQUIRED), ("phase", REQUIRED)],
    BagLevel: [(name, REQUIRED) for name in (
        "branch", "index", "momentum", "eff_momentum", "energy", "phase",
        "norm_const", "length", "amp_ratio", "j_chi", "w_factor")]
        + [("regime_flag", False)],
    StationaryWavefunction: [(name, REQUIRED) for name in (
        "branch", "spin", "momentum", "phase", "amp_ratio", "j_chi", "w_factor",
        "length")] + [("amplitude", 1.0)],
    NonRelParams: [(name, REQUIRED) for name in (
        "energy", "mass", "momentum", "w_abs", "w_phase", "mom_plus", "mom_minus",
        "amp_ratio", "j_chi_plus", "j_chi_minus", "j_sigma_plus", "j_sigma_minus",
        "regime_flag")],
    NonRelLevel: [(name, REQUIRED) for name in (
        "index", "momentum", "eff_plus", "eff_minus", "energy_plus", "energy_minus",
        "regime_flag")],
}

ALL = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def values(cls, offset=0.5):
    """One hashable value per field, every one distinct; PotentialStep's
    validation accepts them (finite, w_abs >= 0)."""
    return [offset + i for i in range(len(RECORDS[cls]))]


def build_both(cls):
    args = values(cls)
    return cls(*args), cls(**{name: v for (name, _), v in zip(RECORDS[cls], args)})


@ALL
def test_fields_and_signature_follow_the_declaration(cls):
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq
    got = [(f.name, REQUIRED if f.default is dataclasses.MISSING else f.default)
           for f in dataclasses.fields(cls)]
    assert got == RECORDS[cls]
    # the declaration: annotations in order, a class attribute as the default
    want = inspect.Signature(
        [inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                           default=cls.__dict__.get(name, inspect.Parameter.empty),
                           annotation=annotation)
         for name, annotation in cls.__annotations__.items()],
        return_annotation=None)
    assert inspect.signature(cls) == want
    assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
    assert cls.__init__.__module__ == cls.__module__


@ALL
def test_fields_live_in_the_instance_dict(cls):
    record, _ = build_both(cls)
    assert record.__dict__ == dict(zip([name for name, _ in RECORDS[cls]], values(cls)))
    defaults = {name: d for name, d in RECORDS[cls] if d is not REQUIRED}
    if defaults:
        required = [v for (_, d), v in zip(RECORDS[cls], values(cls)) if d is REQUIRED]
        bare = cls(*required)
        assert {name: getattr(bare, name) for name in defaults} == defaults


@ALL
def test_records_are_frozen(cls):
    record, _ = build_both(cls)
    name = RECORDS[cls][0][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, 7.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.not_a_field = 1.0
    assert record == build_both(cls)[0]


@ALL
def test_replace_builds_a_new_record(cls):
    record, _ = build_both(cls)
    name = RECORDS[cls][-1][0]
    changed = dataclasses.replace(record, **{name: 99.0})
    assert getattr(changed, name) == 99.0 and getattr(record, name) != 99.0
    assert changed != record
    assert dataclasses.replace(changed, **{name: getattr(record, name)}) == record


def test_replace_reruns_the_potential_checks():
    pot = PotentialStep(v0=0.3, w_abs=0.5)
    with pytest.raises(InputError, match="^w_abs is a magnitude and must be >= 0$"):
        dataclasses.replace(pot, w_abs=-1.0)
    with pytest.raises(InputError, match="^v0 must be finite, got nan$"):
        dataclasses.replace(pot, v0=math.nan)
    with pytest.raises(InputError, match="^w_phase must be finite, got inf$"):
        PotentialStep(0.3, 0.5, math.inf)
    assert pot == PotentialStep(v0=0.3, w_abs=0.5)


@pytest.mark.parametrize("field,value", [
    # 1j in v0 or w_phase once built a potential that solve_spectrum then
    # met with a TypeError; 1j in w_abs and "1" in v0 raised TypeError at once
    ("v0", 1j), ("w_phase", 1j), ("w_abs", 1j), ("v0", "1"), ("w_abs", complex(0.5)),
])
def test_a_potential_field_that_is_not_real_is_an_input_error(field, value):
    message = "^%s must be a real number, got %s$" % (field, re.escape(repr(value)))
    with pytest.raises(InputError, match=message):
        PotentialStep(**{field: value})
    with pytest.raises(InputError, match=message):
        dataclasses.replace(PotentialStep(v0=0.3, w_abs=0.5), **{field: value})


def test_a_potential_takes_any_real_number():
    for value in (1, True, np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
        pot = PotentialStep(v0=value, w_abs=value, w_phase=value)
        assert (pot.v0, pot.w_abs, pot.w_phase) == (value,) * 3


@ALL
def test_positional_and_keyword_builds_agree(cls):
    positional, keyword = build_both(cls)
    assert positional == keyword and hash(positional) == hash(keyword)
    assert repr(positional) == repr(keyword)
    assert repr(positional).startswith(cls.__qualname__ + "(")
    other = cls(*values(cls, offset=1.5))
    assert other != positional and repr(other) != repr(positional)


@ALL
def test_wrong_arity_is_a_type_error(cls):
    args = values(cls)
    with pytest.raises(TypeError):
        cls(*args, 0.0)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=0.0)
    with pytest.raises(TypeError):
        cls(*args[:1], **{RECORDS[cls][0][0]: 0.0})
    n_required = sum(d is REQUIRED for _, d in RECORDS[cls])
    if n_required:
        with pytest.raises(TypeError):
            cls(*args[:n_required - 1])


@ALL
def test_copies_and_pickles_are_equal(cls):
    record, _ = build_both(cls)
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and repr(clone) == repr(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, RECORDS[cls][0][0], 7.0)


def test_library_records_round_trip():
    # records as the library builds them, positionally at the per-level sites
    pot = PotentialStep(v0=0.7, w_abs=0.5, w_phase=0.3)
    level = qdirac.solve_spectrum(1.0, pot, 1.0, 3, "plus")[2]
    built = [level, qdirac.stationary_wavefunction(level, 1.0, pot, "down"),
             qdirac.nr_quantize(1.0, 2, 40.0, 0.5)[1],
             qdirac.nr_parameters(2.0, 1.0, 0.5), qdirac.kinematics(2.0, 1.0, pot),
             qdirac.mode_coefficients(2.0, 1.0, pot, "minus"),
             qdirac.boundary_phase(0.4, "minus"),
             qdirac.step_spinor(2.0, 1.0, pot, "plus"), pot]
    assert {type(r) for r in built} == set(RECORDS) - {DiracMatrices}
    for record in built:
        fields = [getattr(record, f.name) for f in dataclasses.fields(record)]
        clones = [type(record)(*fields), dataclasses.replace(record),
                  pickle.loads(pickle.dumps(record))]
        for clone in clones:
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == repr(record)
    mats = qdirac.build_matrices()
    assert repr(copy.copy(mats)) == repr(mats)


def test_dirac_matrices_compare_and_hash_by_content():
    # the dataclass's == asked an array for its truth (ValueError) and its
    # hash hashed the arrays (TypeError)
    mats = qdirac.build_matrices()
    for clone in (copy.copy(mats), copy.deepcopy(mats), pickle.loads(pickle.dumps(mats))):
        assert clone == mats and hash(clone) == hash(mats)
    assert {mats: 1}[copy.deepcopy(mats)] == 1
    zero, minus_zero = (dataclasses.replace(mats, beta=sign * 0.0 * mats.beta)
                        for sign in (1.0, -1.0))
    assert np.signbit(minus_zero.beta.real).any()
    assert zero == minus_zero and hash(zero) == hash(minus_zero)
    assert zero != mats and mats != dataclasses.replace(mats, pauli=mats.pauli[::-1])
    # the same cells in another shape are other content
    assert mats != dataclasses.replace(mats, beta=mats.beta.reshape(2, 8))
    assert (mats == "matrices") is False


def coefficient_bits(value):
    quaternions = value.comp if isinstance(value, QSpinor) else (value,)
    return [x.hex() for q in quaternions for x in q.coeffs()]


@pytest.mark.parametrize("value", [
    Quaternion(1.0, 2j),
    Quaternion(complex(-0.0, 5e-324), complex(1e308, -0.0)),
    QSpinor([Quaternion(1.0, 2j), Quaternion(-3j), ZERO, Quaternion(0j, -0.5)]),
], ids=["quaternion", "signed_zeros", "spinor"])
def test_quaternions_and_spinors_copy_and_pickle(value):
    # the slot state was restored through the __setattr__ both classes
    # refuse, so copy.copy raised "Quaternion is immutable"
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value
        assert coefficient_bits(clone) == coefficient_bits(value)
        assert not hasattr(clone, "__dict__")
        with pytest.raises(AttributeError, match="is immutable$"):
            clone.u = 0j


def decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else None


def test_no_record_is_declared_with_a_bare_dataclass():
    """A class decorated with dataclasses.dataclass itself would bring back
    the per-field object.__setattr__ of a frozen __init__; every record is
    declared with dirac._record."""
    records, bare = [], []
    for path in sorted(Path(qdirac.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            names = [decorator_name(d) for d in node.decorator_list]
            if "dataclass" in names:
                bare.append("%s:%d: %s" % (path.name, node.lineno, node.name))
            if "_record" in names:
                records.append(node.name)
    assert bare == []
    assert sorted(records) == sorted(cls.__name__ for cls in RECORDS)

"""The frozen records: construction, immutability, equality, hashing and
field lists, checked over every subclass of simcore._Record."""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import pytest

import qetsim.cli  # noqa: F401  (loads every module that defines a record)
from qetsim.analysis import ComparisonRow, SweepGrid
from qetsim.model import (
    EntropyReport,
    HamiltonianSet,
    ModelParams,
    ProtocolAngles,
    build_hamiltonians,
)
from qetsim.noise import ReadoutNoise
from qetsim.simcore import (
    Circuit,
    ClassicallyControlledRy,
    Cnot,
    ControlledRy,
    Hadamard,
    MeasureZ,
    Ry,
    _Record,
)

# two distinct field-value tuples per record class. HamiltonianSet takes
# stand-in scalars: records check no types, and matrices do not hash.
# ProtocolAngles shares ModelParams' values, so that only the type tells them
# apart.
RECORDS = {
    Ry: ((0.1, 0), (0.2, 0)),
    Hadamard: ((0,), (1,)),
    Cnot: ((0, 1), (1, 0)),
    ControlledRy: ((0, 1, 0.1, 1), (0, 0, 0.1, 1)),
    MeasureZ: ((0, 1), (1, 1)),
    ClassicallyControlledRy: ((1, 0, 0.1, 0), (1, 1, 0.1, 0)),
    Circuit: (((MeasureZ(0, 0),),), ((MeasureZ(1, 1),),)),
    ModelParams: ((1.0, 0.5), (0.5, 1.0)),
    HamiltonianSet: ((1, 2, 3, 4), (4, 3, 2, 1)),
    ProtocolAngles: ((1.0, 0.5), (0.5, 1.0)),
    EntropyReport: ((1.0, 1.0, 0.5, 0.2, 0.3, 0.1), (1.0, 1.0, 0.5, 0.2, 0.3, 0.2)),
    ReadoutNoise: (((0.1, 0.02), (0.3, 0.05)), ((0.3, 0.05), (0.1, 0.02))),
    SweepGrid: (((1.0,), (0.5,)), ((0.5,), (1.0,))),
    ComparisonRow: (
        (ModelParams(1.0, 1.0), "V", 1.0, 2.0, 0.1, 3.0, 0.2, 4.0, 0.3),
        (ModelParams(1.0, 1.0), "H1", 1.0, 2.0, 0.1, 3.0, 0.2, 4.0, 0.3),
    ),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    # a base with no fields of its own (the steps' _Step) makes no records
    assert {cls for cls in _subclasses(_Record) if cls._fields} == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_frozen(cls):
    record = cls(*RECORDS[cls][0])
    for name in (*cls._fields, "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert record == cls(*RECORDS[cls][0])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_construction(cls):
    values = RECORDS[cls][0]
    keywords = dict(zip(cls._fields, values, strict=True))
    record = cls(*values)
    assert record == cls(**keywords)
    assert record._values() == tuple(getattr(record, name) for name in cls._fields)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**keywords, extra=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_equality_and_hash_go_by_type_and_fields(cls):
    first, second = RECORDS[cls]
    record = cls(*first)
    assert record == cls(*first) and hash(record) == hash(cls(*first))
    assert record != cls(*second) and hash(record) != hash(cls(*second))
    assert record.__eq__(first) is NotImplemented and record != first
    for other, (values, _) in RECORDS.items():
        if other is not cls:
            assert record != other(*values)


def test_hamiltonian_sets_compare_by_their_matrices():
    hams = build_hamiltonians(ModelParams(1.0, 1.0))
    assert hams == build_hamiltonians(ModelParams(1.0, 1.0))
    assert not hams != build_hamiltonians(ModelParams(1.0, 1.0))
    assert hams != build_hamiltonians(ModelParams(1.0, 0.5))
    for i in range(4):
        fields = list(hams._values())
        fields[i] = fields[i].copy()
        fields[i][3, 0] += 1e-9
        assert hams != HamiltonianSet(*fields)
        assert not hams == HamiltonianSet(*fields)
    assert hams != ModelParams(1.0, 1.0) and hams.__eq__(hams._values()) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(hams)

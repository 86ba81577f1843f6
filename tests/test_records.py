import copy
import pickle
from fractions import Fraction

import pytest

from projquant import BranchLabel, Decomposition, EigenvaluePoly, IrrepLabel, YoungDiagram
from projquant.flatmodel import (
    DiffOperator,
    EquivarianceReport,
    LiftNode,
    LiftPlan,
    Poly,
    PolyVectorField,
    QuantCoefficients,
    TensorSection,
)
from projquant.records import Record

X = Poly.variable(2, 0)


def _label(weight=Fraction(1, 2)):
    return IrrepLabel(YoungDiagram((2, 1)), 4, 1, weight)


def _node(coefficient=Fraction(-2, 3)):
    return LiftNode(BranchLabel((0, 1)), _label(), coefficient)


_FAILURE = "generator 4 (grading 1), symbol 0, function 0"
_LABEL_REPR = "IrrepLabel(diagram=YoungDiagram(rows=(2, 1)), rank=4, twist=1, weight=Fraction(1, 2))"
_NODE_REPR = (
    f"LiftNode(removals=BranchLabel(removals=(0, 1)), component={_LABEL_REPR}, "
    "coefficient=Fraction(-2, 3))"
)

# per record: a builder taking one varied argument, the two values it is
# built with, and the repr of the first, as the dataclass versions printed it
RECORDS = {
    "YoungDiagram": (
        lambda v: YoungDiagram((3, v, 0)), 1, 2, "YoungDiagram(rows=(3, 1))",
    ),
    "IrrepLabel": (_label, Fraction(1, 2), Fraction(1, 3), _LABEL_REPR),
    "BranchLabel": (
        lambda v: BranchLabel((1, 0, v, 0)), 2, 3, "BranchLabel(removals=(1, 0, 2))",
    ),
    "EigenvaluePoly": (
        lambda v: EigenvaluePoly(Fraction(1), v, Fraction(3, 2)),
        Fraction(-3, 2),
        Fraction(-1, 2),
        "EigenvaluePoly(c0=Fraction(1, 1), c1=Fraction(-3, 2), c2=Fraction(3, 2))",
    ),
    "Decomposition": (
        lambda v: Decomposition(((_label(), v),)),
        2,
        3,
        f"Decomposition(terms=(({_LABEL_REPR}, 2),))",
    ),
    "LiftNode": (_node, Fraction(-2, 3), None, _NODE_REPR),
    "LiftPlan": (
        lambda v: LiftPlan(_label(), v, (_node(),), ((BranchLabel(), BranchLabel((1,))),)),
        Fraction(1, 3),
        Fraction(1, 5),
        f"LiftPlan(label={_LABEL_REPR}, delta=Fraction(1, 3), nodes=({_NODE_REPR},), "
        "edges=((BranchLabel(removals=()), BranchLabel(removals=(1,))),))",
    ),
    "QuantCoefficients": (
        lambda v: QuantCoefficients((1, v)),
        Fraction(1, 2),
        Fraction(1, 4),
        "QuantCoefficients(values=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "EquivarianceReport": (
        lambda v: EquivarianceReport(True, v, True, (_FAILURE,)),
        False,
        True,
        "EquivarianceReport(translations_exact=True, linear_exact=False, quadratic_exact=True, "
        f"failures=({_FAILURE!r},))",
    ),
    "PolyVectorField": (
        lambda v: PolyVectorField((X * X, Poly.constant(2, v))),
        3,
        4,
        "PolyVectorField(components=(Poly(1*x0^2), Poly(3*1)))",
    ),
    "DiffOperator": (
        lambda v: DiffOperator(v, {(1, 0): X, (0, 0): Poly.zero(2)}),
        2,
        3,
        "DiffOperator(rank=2, coeffs={(1, 0): Poly(1*x0)})",
    ),
    "TensorSection": (
        lambda v: TensorSection(2, 1, 0, v, {(0,): X, (1,): Poly.zero(2)}),
        Fraction(1, 3),
        Fraction(1, 5),
        "TensorSection(rank=2, degree=1, twist=0, weight=1/3, 1 coeffs)",
    ),
}  # fmt: skip

# records whose constructors validate, derive or drop zero entries; every
# other record is built by the base constructor
OWN_CONSTRUCTORS = {
    BranchLabel, DiffOperator, IrrepLabel, PolyVectorField, QuantCoefficients, TensorSection,
    YoungDiagram,
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hash_repr_and_immutability(name):
    build, value, other_value, expected_repr = RECORDS[name]
    record, twin, other = build(value), build(value), build(other_value)
    cls = type(record)
    assert cls.__name__ == name and isinstance(record, Record)
    assert not hasattr(record, "__dict__")
    assert record == twin and not record != twin
    assert record != other and not record == other
    assert repr(record) == expected_repr

    # never equal to another class, not even a subclass holding the same fields
    args = record.__reduce__()[1]
    subclass = type("Sub" + name, (cls,), {"__slots__": ()})
    assert record != subclass(*args) and subclass(*args) != record
    assert record != args and record != None  # noqa: E711
    assert record != YoungDiagram((1,)) and BranchLabel((1,)) != YoungDiagram((1,))

    clones = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for clone in clones:
        assert type(clone) is cls and clone == record

    if isinstance(record.__reduce__()[1][-1], dict):
        # a record holding a dict is unhashable through it
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin, other}) == 2
    for field in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == twin and repr(record) == expected_repr


def test_poly_vector_field_compares_only_its_components():
    field = PolyVectorField((X * X, Poly.constant(2, 3)))
    twin = PolyVectorField((X * X, Poly.constant(2, 3)))
    object.__setattr__(twin, "div", Poly.constant(2, 7))
    assert field == twin and hash(field) == hash(twin) and repr(field) == repr(twin)
    assert field.div == Poly.variable(2, 0).scale(2)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_construction_by_position_and_by_name(name):
    build, value, _, _ = RECORDS[name]
    record = build(value)
    cls = type(record)
    assert ("__init__" in cls.__dict__) == (cls in OWN_CONSTRUCTORS)
    args = record.__reduce__()[1]
    first, *rest = cls._fields
    named = dict(zip(cls._fields, args))
    assert cls(*args) == record and cls(**named) == record
    assert cls(args[0], **{field: named[field] for field in rest}) == record
    if cls not in (YoungDiagram, BranchLabel):  # their one field defaults to empty
        with pytest.raises(TypeError):
            cls(**{field: named[field] for field in rest})
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, **{first: args[0]})
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)


def test_base_constructor_names_the_field_at_fault():
    half = Fraction(1, 2)
    assert EigenvaluePoly(half, c2=3, c1=2) == EigenvaluePoly(half, 2, 3)
    for args, named, message in [
        ((half, 2), {}, "EigenvaluePoly is missing field 'c2'"),
        ((half, 2, 3, 4), {}, "EigenvaluePoly takes 3 fields, got 4"),
        ((half, 2, 3), {"c1": 2}, "EigenvaluePoly got repeated or unknown field 'c1'"),
        ((half, 2, 3), {"c3": 4}, "EigenvaluePoly got repeated or unknown field 'c3'"),
        ((half,), {"c0": 1, "c1": 2, "c2": 3}, "EigenvaluePoly got repeated or unknown field 'c0'"),
    ]:
        with pytest.raises(TypeError) as info:
            EigenvaluePoly(*args, **named)
        assert str(info.value) == message

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
)

X = Poly.variable(2, 0)


def _label(weight=Fraction(1, 2)):
    return IrrepLabel(YoungDiagram((2, 1)), 4, 1, weight)


def _node(coefficient=Fraction(-2, 3)):
    return LiftNode(BranchLabel((0, 1)), _label(), coefficient)


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
        lambda v: EquivarianceReport(True, v, True, ("grading 1, symbol 0, function 0",)),
        False,
        True,
        "EquivarianceReport(translations_exact=True, linear_exact=False, quadratic_exact=True, "
        "failures=('grading 1, symbol 0, function 0',))",
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
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hash_repr_and_immutability(name):
    build, value, other_value, expected_repr = RECORDS[name]
    record, twin, other = build(value), build(value), build(other_value)
    cls = type(record)
    assert cls.__name__ == name and not hasattr(record, "__dict__")
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

    if cls is DiffOperator:
        # the one mutable record: unhashable, and its fields may be reassigned
        with pytest.raises(TypeError):
            hash(record)
        record.rank = other_value
        assert record == other
        return

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
    object.__setattr__(twin, "jacobian", ())
    object.__setattr__(twin, "div", Poly.constant(2, 7))
    assert field == twin and hash(field) == hash(twin) and repr(field) == repr(twin)
    assert field.div == Poly.variable(2, 0).scale(2)

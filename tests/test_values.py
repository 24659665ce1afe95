"""Value semantics of every `udet` value type: built from its declared fields
like a Python function's parameters, immutable, compared and hashed by class
and fields, copied and pickled through the constructor."""

from __future__ import annotations

import copy
import inspect
import pickle
import re

import pytest

from udet import cli, corpus
from udet.model import (
    LOWER_BETTER,
    NUMERIC,
    AttributeSchema,
    BoundConstraint,
    CriterionSpec,
    Fact,
    Immutable,
    Instance,
    OrdinalScale,
    PinConstraint,
    PreferencePremise,
    Violation,
)
from udet.policy import PolicyDecision
from udet.responses import Clarify, Conditional, Decisive, Equivalence, Refuse, Verdict, _Form
from udet.semantics import (
    AdmissibleSet,
    Analysis,
    ScoreMatrix,
    SemanticsResult,
    WinnerStats,
)
from udet.trilemma import GeneratorConfig, PairwiseCheck, TrilemmaReport, VerdictTable

INSTANCE = Instance("i", "q?", ("A", "B"), (), (AttributeSchema("x", NUMERIC),),
                    (Fact("A", "x", 1.0), Fact("B", "x", 0.0)), (), (), (), True)
MATRIX = ScoreMatrix(("A", "B"), ("x",), ((1.0,), (0.0,)))
ADM = AdmissibleSet(("x",), (1.0,), (1.0,))
STATS = WinnerStats(("A", "B"), (True, False), (True, False),
                    ((False, True), (False, False)), ((True, False), (False, True)))
SEMANTICS = SemanticsResult(("A",), False, "A", ())
VERDICT = Verdict(True, True, False, True, False, 0.75, False)
SUMMARY = corpus.ExpectedSummary(("A",), False, "direct")

# (class, positional arguments, a new value for the first field)
VALUES = [
    (OrdinalScale, ("s", ("lo", "hi")), "t"),
    (AttributeSchema, ("x", NUMERIC, LOWER_BETTER, None), "y"),
    (Fact, ("A", "x", 1.5), "B"),
    (PreferencePremise, ("A", "B"), "C"),
    (CriterionSpec, ("c", (("x", 1.0),)), "d"),
    (PinConstraint, ("c",), "d"),
    (BoundConstraint, ("x", ">=", 0.5), "y"),
    (Instance, tuple(getattr(INSTANCE, f) for f in Instance.__slots__), "j"),
    (Violation, ("e", "rule", "message", ("facts", 0)), "f"),
    (Decisive, ("A", "c"), "B"),
    (Conditional, ((("c", "A"), ("d", "B")),), (("c", "B"),)),
    (Equivalence, (("A", "B"),), ("A", "C")),
    (Clarify, (("weight for x",),), ("weight for y",)),
    (Refuse, ("reason",), "other"),
    (Verdict, (True, True, False, True, False, 0.75, False), False),
    (ScoreMatrix, (("A", "B"), ("x",), ((1.0,), (0.0,))), ("B", "A")),
    (AdmissibleSet, (("x",), (1.0,), (1.0,)), ("y",)),
    (SemanticsResult, (("A",), False, "A", ()), ("B",)),
    (WinnerStats, tuple(getattr(STATS, f) for f in WinnerStats.__slots__), ("B", "A")),
    (Analysis, (INSTANCE, MATRIX, ADM, STATS, ((False, True), (False, False)), SEMANTICS,
                {}, {}, None, (), {}), INSTANCE.replace(id="j")),
    (PairwiseCheck, ("p", 1, (Decisive("A"),)), "q"),
    (TrilemmaReport, ("i", False, 9, (), (), Decisive("A")), "j"),
    (VerdictTable, (("A", "B"), (None,), (9, 1), (), (("A", "B"),), (18,),
                    Clarify(("weight for x",)), Refuse("reason"), ((22, VERDICT),)), ("B",)),
    (GeneratorConfig, (1, (2, 3), (1, 2), (0, 1), 0.1, 0.2, 0.3, 0.4), 2),
    (PolicyDecision, ("direct", Decisive("A"), "why"), "clarify"),
    (cli._Json, ("[]",), "{}"),
    (corpus.ExpectedSummary, (("A",), False, "direct"), ("B",)),
    (corpus.CorpusEntry, ("i", "instance i", SUMMARY, INSTANCE), "j"),
]

BY_IDENTITY = {ScoreMatrix, AdmissibleSet, WinnerStats, Analysis}


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


def _subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in (direct, *_subclasses(direct))}


def test_every_value_type_is_covered():
    # `_Form` is the fieldless base of the response forms.
    declared = {cls for cls in _subclasses(Immutable) if cls.__module__.startswith("udet")}
    assert declared - {_Form} == {cls for cls, _, _ in VALUES}


@pytest.mark.parametrize("cls, args, new", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_semantics(cls, args, new):
    value, twin = cls(*args), cls(*copy.deepcopy(args))
    assert fields(value) == args
    assert cls._fields == cls.__slots__

    # Construction binds the fields as a Python function binds parameters.
    names = cls._fields
    first = names[0]
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in parameters) == names
    defaults = tuple(p.default for p in parameters if p.default is not p.empty)
    required = len(names) - len(defaults)
    assert fields(cls(**dict(zip(names, args)))) == args
    assert fields(cls(*args[:1], **dict(zip(names[1:], args[1:])))) == args
    assert fields(cls(*args[:required])) == args[:required] + defaults
    calls = [(args, {"undeclared": 1}, "unexpected keyword argument 'undeclared'"),
             (args, {first: new}, f"multiple values for argument '{first}'"),
             ((*args, None), {}, "positional argument")]
    if required:
        calls.append((args[:required - 1], {}, f"missing .*'{names[required - 1]}'"))
    for call_args, call_kwargs, message in calls:
        with pytest.raises(TypeError, match=message) as raised:
            cls(*call_args, **call_kwargs)
        assert re.match(rf"{cls.__qualname__}\(\) ", str(raised.value))

    if cls in BY_IDENTITY:
        assert value == value and value != twin
        assert hash(value) != hash(twin)
    else:
        assert value == twin and not value != twin
        assert hash(value) == hash(twin)
        assert value != args and value != list(args)
        # A value of another class with the same fields is not equal.
        other = object.__new__(type(cls.__name__, (Immutable,), {"__slots__": cls.__slots__}))
        for name, field in zip(cls.__slots__, args):
            object.__setattr__(other, name, field)
        assert value != other and other != value

    with pytest.raises(AttributeError):
        setattr(value, first, new)
    with pytest.raises(AttributeError):
        value.undeclared = 1
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert fields(value) == args

    changed = value.replace(**{first: new})
    assert type(changed) is cls
    assert getattr(changed, first) == new
    assert fields(changed)[1:] == args[1:]
    assert all(a is b for a, b in zip(fields(changed)[1:], args[1:]))
    if cls not in BY_IDENTITY:
        assert changed != value
        assert value.replace() == value
    with pytest.raises(TypeError):
        value.replace(undeclared=1)

    shallow = copy.copy(value)
    assert fields(shallow) == fields(value)
    for clone in (shallow, copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone is not value
        assert repr(clone) == repr(value)
        assert (clone == value) is (cls not in BY_IDENTITY)

    listed = ", ".join(f"{name}={field!r}" for name, field in zip(cls.__slots__, args))
    assert repr(value) == f"{cls.__qualname__}({listed})"


def test_equality_needs_the_same_class():
    assert Decisive("A") != ("A", None)
    assert PinConstraint("x") != Refuse("x")
    assert Refuse("x") != PinConstraint("x")
    assert repr(Decisive("A")) == "Decisive(candidate='A', declared_theta=None)"
    assert str(Violation("e", "rule", "message")) == "e [rule]: message"


def test_subclass_without_fields():
    class Mine(Decisive):
        __slots__ = ()

    value = Mine("A", declared_theta="c")
    assert Mine._fields == ("candidate", "declared_theta")
    assert value == Mine("A", "c") and hash(value) == hash(Mine("A", "c"))
    assert value != Decisive("A", "c") and Mine("A") != Mine("B")
    assert repr(value) == f"{Mine.__qualname__}(candidate='A', declared_theta='c')"
    changed = value.replace(candidate="B")
    assert type(changed) is Mine and changed == Mine("B", "c")


def test_replace_goes_through_init():
    # A replaced field is coerced as construction coerces it.
    assert Equivalence(("A", "B")).replace(candidates=["C", "A", "C"]).candidates == ("A", "C")
    assert Conditional((("c", "A"),)).replace(branches=[["c", 1]]).branches == (("c", "1"),)
    assert Clarify(("x",)).replace(missing=[1]).missing == ("1",)

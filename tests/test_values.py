"""Value semantics of the hand-written frozen classes on the import path
of ``softsets.cli``: ``Token``, the expression and formula nodes,
``Context`` and ``Workspace``.  Each behaves as the frozen dataclass it
replaced: the same ``repr``, ``==``, ``hash`` and ``__match_args__``,
``FrozenInstanceError`` on assignment and deletion, and round trips
through pickle and copy."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from softsets.expr import (
    Complement,
    Difference,
    Empty,
    Formula,
    Intersect,
    Name,
    Token,
    Union,
    Universal,
)
from softsets.model import Context, new_context, soft_set
from softsets.workspace import Workspace

CTX = new_context(("x1", "x2"), ("e1",))
OTHER_CTX = new_context(("x1", "x2"), ("e2",))
F, G = Name("F"), Name("G")


def _workspace(ctx=CTX, **images):
    pairs = {name: soft_set(ctx, [(ctx.parameters[0], objs)]) for name, objs in images.items()}
    return Workspace(ctx, pairs)


# (value, an equal value built apart, an unequal value of the same
# class, the repr of the frozen dataclass the class replaced)
CASES = {
    "Token": (
        Token("NAME", "F", 1, 2),
        Token("NAME", "F", 1, 2),
        Token("NAME", "F", 1, 3),
        "Token(kind='NAME', text='F', line=1, column=2)",
    ),
    "Name": (F, Name("F"), G, "Name(identifier='F')"),
    "Empty": (Empty(), Empty(), Universal(), "Empty()"),
    "Universal": (Universal(), Universal(), Empty(), "Universal()"),
    "Complement": (
        Complement(F),
        Complement(Name("F")),
        Complement(G),
        "Complement(child=Name(identifier='F'))",
    ),
    "Intersect": (
        Intersect(F, G),
        Intersect(Name("F"), Name("G")),
        Intersect(G, F),
        "Intersect(left=Name(identifier='F'), right=Name(identifier='G'))",
    ),
    "Union": (
        Union(F, Empty()),
        Union(Name("F"), Empty()),
        Intersect(F, Empty()),
        "Union(left=Name(identifier='F'), right=Empty())",
    ),
    "Difference": (
        Difference(Universal(), G),
        Difference(Universal(), Name("G")),
        Difference(G, Universal()),
        "Difference(left=Universal(), right=Name(identifier='G'))",
    ),
    "Formula": (
        Formula("=", F, G),
        Formula("=", Name("F"), Name("G")),
        Formula("<=", F, G),
        "Formula(op='=', left=Name(identifier='F'), right=Name(identifier='G'))",
    ),
    "Context": (
        CTX,
        new_context(["x1", "x2"], ["e1"]),
        OTHER_CTX,
        "Context(objects=['x1', 'x2'], parameters=['e1'])",
    ),
    "Workspace": (
        _workspace(F=["x2"]),
        _workspace(F=["x2"]),
        _workspace(F=["x1"]),
        "Workspace(context=Context(objects=['x1', 'x2'], parameters=['e1']), "
        "bindings={'F': SoftSet({e1: x2})})",
    ),
}

MATCH_ARGS = {
    "Token": ("kind", "text", "line", "column"),
    "Name": ("identifier",),
    "Empty": (),
    "Universal": (),
    "Complement": ("child",),
    "Intersect": ("left", "right"),
    "Union": ("left", "right"),
    "Difference": ("left", "right"),
    "Formula": ("op", "left", "right"),
    "Context": ("objects", "parameters"),
    "Workspace": ("context", "bindings"),
}

NODES = ("Name", "Empty", "Universal", "Complement", "Intersect", "Union", "Difference", "Formula")


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_repr_is_the_dataclass_form(case):
    name, value, _, _, expected = case
    assert repr(value) == expected


def test_match_args_are_the_fields(case):
    name, value, *_ = case
    assert type(value).__name__ == name
    assert type(value).__match_args__ == MATCH_ARGS[name]
    if name in NODES:
        assert type(value)._fields == MATCH_ARGS[name]


def test_equality(case):
    name, value, twin, different, _ = case
    assert value is not twin
    assert value == twin and not value != twin
    assert value != different and not value == different
    assert value != _fields(value)  # never equal to a value of another class
    assert (value == object()) is False


def test_hash(case):
    name, value, twin, _, _ = case
    if name == "Workspace":
        with pytest.raises(TypeError):  # its bindings are a dict
            hash(value)
    elif name in NODES:
        assert hash(value) == hash(twin) == hash(value._key())
    else:
        assert hash(value) == hash(twin) == hash(_fields(value))


@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips(case, round_trip):
    name, value, *_ = case
    clone = round_trip(value)
    assert type(clone) is type(value)
    assert clone == value and repr(clone) == repr(value)
    assert _fields(clone) == _fields(value)


def test_frozen(case):
    name, value, *_ = case
    for attr in (*MATCH_ARGS[name], "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(value, attr, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, attr)
    assert not hasattr(value, "__dict__")
    assert repr(value) == case[4]


def test_match_by_position():
    match Formula("<=", Complement(F), Intersect(F, G)):
        case Formula("<=", Complement(Name(a)), Intersect(Name(b), Name(c))):
            assert (a, b, c) == ("F", "F", "G")
        case _:
            pytest.fail("no match")
    match Token("NAME", "F", 3, 4):
        case Token(kind, text, line, column):
            assert (kind, text, line, column) == ("NAME", "F", 3, 4)
        case _:
            pytest.fail("no match")
    match _workspace(F=["x1"]):
        case Workspace(ctx, {"F": s}):
            assert ctx is CTX and s.bits == 0b01
        case _:
            pytest.fail("no match")
    match CTX:
        case Workspace():
            pytest.fail("matched another class")
        case Context(objects, parameters):
            assert (objects, parameters) == (("x1", "x2"), ("e1",))


def test_context_lookup_maps_are_lazy_and_survive_copies():
    ctx = new_context(("a", "b"), ("p", "q"))
    assert ctx.object_bit == {"a": 0b01, "b": 0b10}
    assert ctx.object_bit is ctx.object_bit  # built once
    assert copy.deepcopy(ctx).parameter_offset == {"p": 2, "q": 0}
    with pytest.raises(AttributeError):
        ctx.no_such_attribute


def test_workspace_copies_its_bindings():
    bindings = {"F": soft_set(CTX, [("e1", ["x1"])])}
    ws = Workspace(CTX, bindings)
    bindings.clear()
    assert list(ws.bindings) == ["F"]
    assert Workspace(CTX).bindings == {} and Workspace(CTX) != Workspace(OTHER_CTX)

"""The term contract: every class that ``syntax.term`` builds behaves as
``dataclass(frozen=True)`` would, with a stored hash and its own
``replace``.  The classes are found by their field tuple, so a new term
class that ``termsamples`` lacks fails here."""

import dataclasses
import importlib
import pkgutil

import pytest

import gcq
from gcq.captypes import Report
from gcq.correspond import Verdict
from gcq.epq import Branch, Inact, OutMsg
from gcq.genchor import GenConfig, _SessionState
from gcq.gtypes import GammaEnv
from gcq.netsem import NetTrace
from gcq.parser import SourceProgram
from gcq.semantics import Trace
from gcq.syntax import Q_ALL, SomeV, stable_repr
from termsamples import samples

_MODULES = [importlib.import_module(f"gcq.{m.name}") for m in pkgutil.iter_modules(gcq.__path__)]
_MODULES.append(importlib.import_module("label_correspondence"))  # the judgment's own terms
_CLASSES = [c for mod in _MODULES for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__]
TERMS = [c for c in _CLASSES if "__term_fields__" in vars(c)]
# mutable records, and one whose fields need a default factory
RECORDS = {Report, Verdict, GenConfig, _SessionState, GammaEnv, NetTrace, SourceProgram, Trace}


def _fields(t) -> tuple:
    return tuple(getattr(t, name) for name in type(t).__term_fields__)


def _twin(t):
    """A frozen dataclass of the same name and fields, holding ``t``'s values."""
    cls = type(t)
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__term_fields__, frozen=True)
    return twin(*_fields(t))


def test_every_term_class_has_a_sample():
    assert sorted(c.__qualname__ for c in TERMS) == sorted(type(t).__qualname__ for t in samples())


def test_only_records_remain_dataclasses():
    assert {c for c in _CLASSES if dataclasses.is_dataclass(c)} == RECORDS


@pytest.mark.parametrize("i", range(len(samples())), ids=[type(t).__qualname__ for t in samples()])
class TestContract:
    def test_fields_follow_the_annotations(self, i):
        cls = type(samples()[i])
        assert cls.__term_fields__ == cls.__match_args__ == tuple(cls.__annotations__)

    def test_repr_is_the_dataclass_text(self, i):
        t = samples()[i]
        assert repr(t) == repr(_twin(t))
        assert stable_repr(t).startswith(f"{type(t).__qualname__}(")

    def test_hash_is_the_fields_tuple_hash_stored_once(self, i):
        t, twin = samples()[i], samples()[i]
        before = repr(t), stable_repr(t)
        assert t._hash is None
        assert hash(t) == hash(_fields(t)) == hash(_twin(t)) == hash(twin)
        assert t._hash == hash(t) and twin._hash is not None
        assert (repr(t), stable_repr(t)) == before and "_hash" not in type(t).__term_fields__
        object.__setattr__(t, "_hash", 12345)  # a stored hash is read, not recomputed
        assert hash(t) == 12345

    def test_equality_is_class_strict(self, i):
        t, twin = samples()[i], samples()[i]
        assert t is not twin and t == twin and not t != twin
        assert t != _twin(t) and t != _fields(t)

    def test_replace(self, i):
        t = samples()[i]
        hash(t)
        copy = t.replace()
        assert copy is not t and copy == t and copy._hash is None
        for name in type(t).__term_fields__:
            assert t.replace(**{name: getattr(t, name)}) == t
        with pytest.raises(TypeError):
            t.replace(no_such_field=1)

    def test_frozen(self, i):
        t = samples()[i]
        for name in (*type(t).__term_fields__, "_hash", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        assert _fields(t) == _fields(samples()[i])


def test_replace_reruns_post_init():
    b = Branch("k", "B", "A", (("l", Inact()),))
    assert b.replace(branches=(("r", Inact()), ("l", Inact()))).branches == (
        ("l", Inact()), ("r", Inact()))
    msg = OutMsg("A", Q_ALL, (("B", False), ("C", False)), SomeV(1))
    with pytest.raises(ValueError, match="duplicate recipient"):
        msg.replace(recipients=(("B", False), ("B", True)))


def test_replace_changes_only_the_named_fields():
    msg = OutMsg("A", Q_ALL, (("B", False),), SomeV(1))
    assert msg.replace(sender="C", payload=SomeV(2)) == OutMsg("C", Q_ALL, (("B", False),),
                                                               SomeV(2))


def test_match_patterns_read_fields_in_order():
    match OutMsg("A", Q_ALL, (("B", False),), SomeV(1)):
        case OutMsg(sender, quality, recipients, SomeV(value)):
            assert (sender, quality, recipients, value) == ("A", Q_ALL, (("B", False),), 1)
        case _:
            pytest.fail("no match")

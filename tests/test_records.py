"""The package's records (adelic.util.record) behave as the standard
library's frozen records declared from the same annotations: the same
construction by position, keyword and default, the same repr, == and hash,
the same refusals. Each record is checked against a `dataclasses` twin
made here from its annotations, defaults and own methods."""
import dataclasses
import importlib
import math
import types
from fractions import Fraction as F

import pytest

from adelic import util
from adelic.errors import ToleranceError
from adelic.heatkernel import KernelParams
from adelic.radial import RadialStep

MODULES = ("primepow", "adele", "heatkernel", "markov", "cauchy", "checks",
           "cli")
W = RadialStep.sphere_indicator(F(2)).ft()
KP = KernelParams(1.0, 2.0)

# record -> two valid field tuples that differ, and argument tuples that
# __post_init__ refuses
SAMPLES = {
    "PrimePower": ([(2, 3), (3, -1)], [(4, 1), (2, 0)]),
    "PAdicComponent": ([(5, -2, 3, None), (7, 0, 1, 16)], [(5, 1, 10, None)]),
    "Region": ([("ball", F(4), None), ("sphere", F(1, 2), None)],
               [("cube", F(4)), ("ball", F(6))]),
    "SymbolSpec": ([(2.0, 1.5), (1.5, None)],
                   [(0.0,), (math.nan,), (2.0, 3.0)]),
    "InnerPiece": ([(1.0, F(1, 2), "heat", 2.0, 0.5),
                    (0.5, F(2), "power", 1.5, 0.0)], []),
    "EvaluableRadial": ([(RadialStep.zero(), (), 1e-10, 0.0),
                         (W, (), 1e-8, 1e-9)], []),
    "ForcingGrid": ([((0.0, 1.0), (RadialStep.zero(), W)), ((0.0,), (W,))],
                    [((0.5,), (W,)), ((0.0, 0.0), (W, W)), ((), ())]),
    "RealGridFunction": ([(0.0, 0.1, (1.0, 2.0)), (-1.0, 0.5, (3.0,))],
                         [(0.0, 0.0, (1.0,)), (0.0, 1.0, ())]),
    "CheckResult": ([("a", True, "", 0.5, None), ("b", False, "x", 1.0, 9.0)],
                    []),
    "KernelParams": ([(1.0, 2.0, None), (0.5, 1.5, 1.3)],
                     [(1.0, 1.0), (-1.0, 2.0), (1.0, 2.0, 3.0),
                      (math.inf, 2.0)]),
    "SphereMasses": ([(0, (0.5, 0.25), 0.125, 0.125), (-1, (1.0,), 0.0, 0.0)],
                     []),
    "RadiusDistribution": ([(((F(2), 1.0),), 0.0, KP),
                            (((F(2), 0.5), (F(3), 0.25)), 0.25, KP)],
                           [(((F(2), 0.5),), 0.0, KP),
                            (((F(2), 1.5),), -0.5, KP)]),
    "Truncation": ([(F(1, 128), F(1024), 131, 12), (F(1, 4), F(4), 5, 8)],
                   []),
    "PathSample": ([((0.0,), ("x",), (), 0, None, 0, 0),
                    ((0.0, 0.1), ("x", "y"), (F(2),), 3, (0.0, 1.0), 1, 2)],
                   []),
    "RunConfig": ([("phi", {"x": 1}, None, None, None),
                   ("simulate", {}, "p.csv", "m.json", 7)], []),
    "RunResult": ([("out", {"a": "b"}, {"v": 0.0}, {}),
                   ("", {}, {}, {"k": 1})], []),
}


def _records():
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"adelic.{name}")
        for obj in vars(module).values():
            init = getattr(obj, "__init__", None)
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and getattr(init, "__module__", None) == util.__name__):
                found[obj.__name__] = obj
    return found


RECORDS = _records()


def _fields(cls):
    return tuple(cls.__annotations__)


def _default(cls, f):
    default = vars(cls).get(f, dataclasses.MISSING)
    if isinstance(default, types.MemberDescriptorType):  # a slot
        return dataclasses.MISSING
    return default


def _twin(cls):
    """The standard library's record of the same declaration."""
    names = _fields(cls)
    own = {
        k: v for k, v in vars(cls).items()
        if k not in names and getattr(v, "__module__", None) != util.__name__
        and k not in ("__annotations__", "__dict__", "__weakref__",
                      "__slots__")
    }
    specs = []
    for f in names:
        default = _default(cls, f)
        if isinstance(default, util.field):
            spec = dataclasses.field(default_factory=default.default_factory)
        else:
            spec = dataclasses.field(default=default)
        specs.append((f, cls.__annotations__[f], spec))
    return dataclasses.make_dataclass(
        cls.__name__, specs, namespace=own,
        frozen="__setattr__" in vars(cls), slots="__slots__" in vars(cls),
    )


def _required(cls):
    return sum(
        _default(cls, f) is dataclasses.MISSING for f in _fields(cls)
    )


def _raised(make, args):
    try:
        make(*args)
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    return None


def test_every_record_is_sampled():
    assert set(RECORDS) == set(SAMPLES)
    assert len(RECORDS) == 16


@pytest.mark.parametrize("name", sorted(SAMPLES))
class TestParity:
    def test_construction_repr_eq_hash(self, name):
        cls = RECORDS[name]
        twin = _twin(cls)
        (a, b), _ = SAMPLES[name]
        names = _fields(cls)
        required = _required(cls)
        for args in (a, b):
            kw = dict(zip(names, args))
            built = [
                (cls(*args), twin(*args)),
                (cls(**kw), twin(**kw)),
                (cls(*args[:2], **dict(zip(names[2:], args[2:]))),
                 twin(*args[:2], **dict(zip(names[2:], args[2:])))),
                (cls(*args[:required]), twin(*args[:required])),
                (cls(**dict(zip(names[:required], args))),
                 twin(**dict(zip(names[:required], args)))),
            ]
            for rec, ref in built:
                assert repr(rec) == repr(ref)
                for f in names:
                    assert getattr(rec, f) == getattr(ref, f)
            (rec, ref), (rec_kw, ref_kw) = built[:2]
            assert (rec == rec_kw) is True and (rec != rec_kw) is False
            assert rec.__eq__(ref) is NotImplemented
            if cls.__eq__.__module__ == util.__name__:  # not the class's own
                assert (ref == ref_kw) is True
            if ref.__hash__ is None:
                assert cls.__hash__ is None
                with pytest.raises(TypeError):
                    hash(rec)
            else:
                assert hash(rec) == hash(ref) == hash(rec_kw)
        assert (cls(*a) == cls(*b)) is (twin(*a) == twin(*b)) is False
        assert (cls(*a) != cls(*b)) is True

    def test_frozen_and_slots(self, name):
        cls = RECORDS[name]
        twin = _twin(cls)
        (a, _), _ = SAMPLES[name]
        rec, ref = cls(*a), twin(*a)
        first = _fields(cls)[0]
        assert hasattr(rec, "__dict__") is hasattr(ref, "__dict__")
        if "__setattr__" not in vars(cls):
            setattr(rec, first, a[0])
            delattr(rec, first)
            return
        for obj in (rec, ref):
            with pytest.raises(AttributeError):
                setattr(obj, first, a[0])
            with pytest.raises(AttributeError):
                delattr(obj, first)
        with pytest.raises(util.FrozenRecordError):
            rec.other = 1
        assert repr(rec) == repr(ref)

    def test_bad_arguments_raise_type_error(self, name):
        cls = RECORDS[name]
        (a, _), _ = SAMPLES[name]
        names = _fields(cls)
        required = _required(cls)
        calls = [
            ((*a, 0), {}),                           # one too many
            (a, {"nope": 1}),                        # unknown keyword
            (a, {names[0]: a[0]}),                   # repeated
            (a[:1], {names[0]: a[0], **dict(zip(names[1:], a[1:]))}),
        ]
        if required:
            calls += [
                (a[:required - 1], {}),              # a field missing
                ((), dict(zip(names[1:], a[1:]))),   # the first missing
            ]
        for args, kwargs in calls:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_post_init_refusals_unchanged(self, name):
        cls = RECORDS[name]
        twin = _twin(cls)
        _, bad = SAMPLES[name]
        for args in bad:
            got = _raised(cls, args)
            assert got is not None and got == _raised(twin, args), args
            assert issubclass(got[0], (ValueError, ToleranceError))


def test_fresh_defaults_are_not_shared():
    RunResult = RECORDS["RunResult"]
    one, two = RunResult(), RunResult()
    one.files["a"] = "b"
    assert two.files == {} and one.files is not two.files
    assert RunResult(files=one.files).files is one.files


def test_slotted_record_has_its_slot_setters():
    from adelic import adele as ad

    assert ad.PAdicComponent.__slots__ == (
        "p", "valuation", "unit", "known_to"
    )
    c = ad._trusted_component(5, -2, 3, None)
    assert c == ad.PAdicComponent(5, -2, 3, None)


def test_own_methods_are_kept():
    # PrimePower defines its own repr, == and hash: by value
    q = RECORDS["PrimePower"](2, 3)
    assert repr(q) == "PrimePower(2, 3)"
    assert q == 8 and hash(q) == hash(F(8))

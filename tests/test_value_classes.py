"""The ten value classes against reference dataclasses of the same fields:
equality, hash, order, repr, ``__match_args__``, frozenness, copying,
pickling and construction must read exactly as ``@dataclass(frozen=True)``
(``order=True`` for the ordered three) gives them."""

import copy
import json
import operator
import pickle
import sys
from dataclasses import field, make_dataclass
from functools import cache

import pytest
from hypothesis import given, strategies as st

from conealg import (
    BigradedMonomial,
    Cone2,
    Fan,
    FanAlgebraSpec,
    FanLinearFunction,
    GeneratorSet,
    LatticePoint2,
    Monomial,
    MonomialIdeal,
    VerificationReport,
    build_fan,
    cone,
    ideal_power,
    intersection_as_fan_algebra,
    intersection_generators,
)
from conealg.lattice import HilbertBasis2, _point

small = st.integers(0, 2)
points = st.builds(LatticePoint2, small, small)
rays = points.filter(lambda p: not p.is_origin())
pairs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.tuples(*[small] * n), st.tuples(*[small] * n))
).filter(lambda ab: any(ab[0]) and any(ab[1]))
fans = pairs.map(lambda ab: build_fan(*ab))
monomials = st.builds(Monomial, st.tuples(small, small))

# class, its fields, ordered, a strategy for the values of its fields, and
# reference-only fields (name, type, field()) after them
CLASSES = [
    (LatticePoint2, ("r", "s"), True, st.tuples(small, small), ()),
    (Cone2, ("ray_low", "ray_high"), False,
     st.builds(cone, rays, rays).map(lambda c: (c.ray_low, c.ray_high)), ()),
    (HilbertBasis2, ("elements",), False, st.tuples(st.lists(points, max_size=2).map(tuple)), ()),
    (Monomial, ("exponents",), True, st.tuples(st.tuples(small, small)), ()),
    (BigradedMonomial, ("coeff", "degree"), True, st.tuples(monomials, points), ()),
    (Fan, ("a", "b", "order", "cones"), False,
     fans.map(lambda f: (f.a, f.b, f.order, f.cones)), ()),
    (GeneratorSet, ("generators", "fan"), False,
     pairs.map(lambda ab: intersection_generators(*ab)).map(lambda g: (g.generators, g.fan)), ()),
    (VerificationReport, ("passed", "total", "failures", "first_failure", "reason"), False,
     st.tuples(st.booleans(), small, small, st.none() | points, st.sampled_from([None, "why"])),
     ()),
    (FanLinearFunction, ("fan", "pieces"), False,
     fans.flatmap(lambda f: st.tuples(
         st.just(f), st.tuples(*[st.tuples(small, small)] * len(f.cones)))), ()),
    (FanAlgebraSpec, ("variables", "ideals", "functions"), False,
     pairs.map(lambda ab: intersection_as_fan_algebra(*ab))
     .map(lambda s: (s.variables, s.ideals, s.functions)),
     (("_power", object, field(default_factory=lambda: cache(ideal_power), init=False,
                               repr=False, compare=False)),)),
]
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def reference(cls, names, ordered, extra):
    return make_dataclass(cls.__name__, [(n, object) for n in names] + list(extra),
                          frozen=True, order=ordered)


def outcome(call):
    """The value of call(), or the type and text of what it raised."""
    try:
        return call()
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("cls, names, ordered, values, extra", CLASSES,
                         ids=[c[0].__name__ for c in CLASSES])
@given(data=st.data())
def test_value_semantics_match_a_frozen_dataclass(cls, names, ordered, values, extra, data):
    ref = reference(cls, names, ordered, extra)
    u, v = data.draw(values), data.draw(values)
    x, y, rx, ry = cls(*u), cls(*v), ref(*u), ref(*v)
    assert cls(**dict(zip(names, u))) == x
    assert cls.__match_args__ == ref.__match_args__ == names
    assert repr(x) == repr(rx)
    assert hash(x) == hash(rx) == hash(u)
    assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    assert x.__eq__(rx) is NotImplemented and x != rx
    for op in COMPARISONS:
        assert outcome(lambda: op(x, y)) == outcome(lambda: op(rx, ry))
        assert outcome(lambda: op(x, 0)) == outcome(lambda: op(rx, 0))
    for name in (names[0], "other"):  # the reference raises FrozenInstanceError, a subclass
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            (error, text), (ref_error, ref_text) = outcome(lambda: act(x)), outcome(lambda: act(rx))
            assert error is AttributeError and issubclass(ref_error, error) and text == ref_text
    assert tuple(getattr(x, n) for n in names) == u
    for clone in (copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is cls and clone == x and hash(clone) == hash(x)
    if cls is FanAlgebraSpec:  # its power cache pickles no more than the reference's did
        assert outcome(lambda: pickle.dumps(x))[0] is outcome(lambda: pickle.dumps(rx))[0]
    else:
        assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("cls, names, ordered, values, extra", CLASSES,
                         ids=[c[0].__name__ for c in CLASSES])
def test_signature_errors_match_a_frozen_dataclass(cls, names, ordered, values, extra):
    ref = reference(cls, names, ordered, extra)
    calls = [(), (None,) * (len(names) + 1)]
    for args in calls:
        assert outcome(lambda: cls(*args)) == outcome(lambda: ref(*args))
    assert outcome(lambda: cls(bogus=1)) == outcome(lambda: ref(bogus=1))


def test_spec_power_cache_is_no_field():
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    twin = intersection_as_fan_algebra((5, 2), (2, 3))
    assert spec._power is not twin._power and spec == twin and hash(spec) == hash(twin)
    assert "_power" not in repr(spec)
    assert copy.copy(spec)._power is spec._power


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LatticePoint2(1.5, 0), TypeError, "r must be an integer, got 1.5"),
        (lambda: LatticePoint2(0, True), TypeError, "s must be an integer, got True"),
        (lambda: LatticePoint2(0, -1), ValueError, "s must be nonnegative, got -1"),
        (lambda: LatticePoint2(r=-2, s=0), ValueError, "r must be nonnegative, got -2"),
        (lambda: Cone2(LatticePoint2(2, 4), LatticePoint2(0, 1)), ValueError,
         "ray_low (2,4) is not primitive"),
        (lambda: Cone2(LatticePoint2(1, 0), LatticePoint2(0, 0)), ValueError, "zero ray"),
        (lambda: Cone2(LatticePoint2(0, 1), LatticePoint2(1, 0)), ValueError,
         "ray_high (1,0) has smaller slope than ray_low (0,1)"),
        (lambda: Monomial((1, -1)), ValueError, "exponents must be nonnegative integers, got -1"),
        (lambda: Monomial([1, 2.0]), ValueError, "exponents must be nonnegative integers, got 2.0"),
        (lambda: Monomial(5), TypeError, "'int' object is not iterable"),
        (lambda: FanAlgebraSpec(("x",), (), ()), ValueError,
         "need equally many ideals and functions, at least one each"),
        (lambda: FanAlgebraSpec(("u",), *_spec_parts()), ValueError,
         "variables[0]: u and v name the grading and cannot be variables"),
        (lambda: FanAlgebraSpec(("x", "y", "z"), *_spec_parts()), ValueError,
         "ideal arity 2 does not match 3 variables"),
    ],
)
def test_constructor_check_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _spec_parts():
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    return spec.ideals[:1], spec.functions[:1]


def test_value_classes_keep_their_dict():
    p = LatticePoint2(1, 2)
    assert not hasattr(p, "__dict__")  # a point is its pair: no dict beside it
    fan = build_fan((5, 2), (2, 3))
    assert fan.chains is fan.chains and "chains" in vars(fan)  # cached_property stores there
    assert Monomial([1, 2]).exponents == (1, 2)  # a list is converted to the tuple field


@given(small, small)
def test_a_point_is_its_pair(r, s):
    p = LatticePoint2(r, s)
    assert p == (r, s) and (r, s) == p and hash(p) == hash((r, s))
    assert {(r, s): "pair"}[p] == "pair" and {p: "point"}[(r, s)] == "point"
    assert tuple(p) == (r, s) and (p.r, p.s) == (r, s)
    assert json.dumps(p) == f"[{r}, {s}]"
    assert not hasattr(p, "__dict__") and sys.getsizeof(p) == sys.getsizeof((r, s))
    assert _point(r, s) == p and type(_point(r, s)) is LatticePoint2


def test_a_point_does_not_repeat_as_a_tuple():
    p = LatticePoint2(1, 2)
    for product, left, right in ((lambda: p * 2, "LatticePoint2", "int"),
                                 (lambda: 2 * p, "int", "LatticePoint2"),
                                 (lambda: p * p, "LatticePoint2", "LatticePoint2")):
        assert outcome(product) == (
            TypeError, f"unsupported operand type(s) for *: '{left}' and '{right}'")
    assert p + LatticePoint2(3, 4) == (4, 6) and type(p + p) is LatticePoint2


def test_a_point_adds_and_subtracts_a_point_or_a_pair_on_either_side():
    p, q = LatticePoint2(3, 3), LatticePoint2(1, 2)
    for result, expected in ((p + q, (4, 5)), (p + (1, 2), (4, 5)), ((1, 2) + p, (4, 5)),
                             (p - q, (2, 1)), (p - (1, 2), (2, 1)), ((4, 5) - p, (1, 2))):
        assert result == expected and type(result) is LatticePoint2
    # a result off N^2 raises the checked constructor's ValueError
    assert outcome(lambda: q - p) == (ValueError, "r must be nonnegative, got -2")
    assert outcome(lambda: q - (1, 3)) == (ValueError, "s must be nonnegative, got -1")
    assert outcome(lambda: (1, 5) - p) == (ValueError, "r must be nonnegative, got -2")
    # any other tuple raises TypeError and never concatenates
    for other in ((), (1,), (1, 1, 1), (1, 2, 3, 4)):
        for call in (lambda: p + other, lambda: other + p, lambda: p - other, lambda: other - p):
            error, text = outcome(call)
            assert error is TypeError and "not a pair" in text


@pytest.mark.parametrize("gens", [[], [(0, 0)], [(1, 0), (0, 1)], [(2, 1), (1, 3), (3, 1)]])
def test_monomial_ideal_is_a_slotted_value_class(gens):
    # MonomialIdeal takes generators, not its fields, and keeps its own repr,
    # so it is no part of the dataclass comparison above
    ideal = MonomialIdeal(2, gens)
    for name in ("nvars", "exponents", "gens", "other"):
        assert outcome(lambda: setattr(ideal, name, 1)) == (
            AttributeError, f"cannot assign to field {name!r}")
        assert outcome(lambda: delattr(ideal, name)) == (
            AttributeError, f"cannot delete field {name!r}")
    assert MonomialIdeal.__match_args__ == ("nvars", "exponents")
    match ideal:
        case MonomialIdeal(2, exponents):
            assert exponents == ideal.exponents
        case _:
            pytest.fail("no match on (nvars, exponents)")
    for clone in (copy.copy(ideal), copy.deepcopy(ideal), pickle.loads(pickle.dumps(ideal))):
        assert type(clone) is MonomialIdeal and clone == ideal and hash(clone) == hash(ideal)
        assert repr(clone) == repr(ideal)
    assert not hasattr(ideal, "__dict__")
    assert repr(ideal) == f"MonomialIdeal(2, {sorted(ideal.gens)})"

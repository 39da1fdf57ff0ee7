"""Exact 2D lattice geometry in the first quadrant.

Primitive vectors, pointed rational cones given by two rays, Hilbert bases as
slope-ordered chains, and the search-free decomposition of a lattice point
along such a chain: the bracketing det-1 pair and Cramer's rule.
A point is its (r, s) pair: ``LatticePoint2`` is a tuple.  Public
constructors and functions check their arguments; points and cones derived
from checked values are built unchecked by ``_point`` and ``_cone``.
All arithmetic uses Python integers (arbitrary precision, so there is no
silent wraparound); every value is immutable and every operation is a pure
function, safe for concurrent use.
"""

from bisect import bisect_left
from functools import cmp_to_key
from math import gcd
from operator import attrgetter, eq, ge, gt, itemgetter, le, lt
from typing import Callable, Iterable, Optional, Sequence


def _value_class(order: bool = False) -> Callable[[type], type]:
    """Class decorator: frozen value semantics over the fields annotated in
    the class body, for a class whose ``__init__`` fills its ``__dict__`` or
    its slots.  ``==`` and ``hash`` are those of the tuple of fields,
    ``NotImplemented`` against another class; ``order`` adds ``<``, ``<=``,
    ``>`` and ``>=`` on that tuple; ``repr`` reads ``Name(field=value, ...)``,
    ``__match_args__`` lists the fields, and assignment or deletion raises
    AttributeError.  A method the class defines itself is kept, such as
    ``MonomialIdeal``'s ``repr``, which lists its generators.  Instances keep
    their ``__dict__`` or slots: unchecked constructors such as ``_cone``
    fill them directly, and ``cached_property`` stores into the ``__dict__``.
    ``LatticePoint2``, a tuple, takes no part; ``_point`` fills no ``__dict__``.
    Building a class this way runs no ``exec``, so it adds next to nothing to
    the import time."""

    def decorate(cls: type) -> type:
        names = tuple(cls.__annotations__)
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda self: (get(self),)

        def compare(op):
            def method(self, other):
                if other.__class__ is self.__class__:
                    return op(key(self), key(other))
                return NotImplemented
            return method

        def __hash__(self):
            return hash(key(self))

        def __repr__(self):
            fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
            return f"{self.__class__.__qualname__}({fields})"

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        methods = {"__eq__": compare(eq), "__hash__": __hash__, "__repr__": __repr__,
                   "__setattr__": __setattr__, "__delattr__": __delattr__}
        if order:
            methods.update(__lt__=compare(lt), __le__=compare(le),
                           __gt__=compare(gt), __ge__=compare(ge))
        for name, method in methods.items():
            if name not in vars(cls):
                method.__name__, method.__qualname__ = name, f"{cls.__qualname__}.{name}"
                setattr(cls, name, method)
        cls.__match_args__ = names
        return cls

    return decorate


class LatticePoint2(tuple):
    """A point (r, s) of the nonnegative integer lattice N^2, and the pair
    itself: a tuple of its two coordinates, read as ``p.r`` and ``p.s`` or
    unpacked as ``r, s = p``.  It equals, hashes and orders as ``(r, s)``,
    and so does ``json``'s encoding of it, ``[r, s]``; the rest is a frozen
    value class's: keyword construction, ``repr``, ``__match_args__``,
    copying and pickling, and assignment or deletion raises AttributeError.
    ``+`` and ``-`` take a point or a plain pair on either side and give a
    checked point, and ``*`` is no tuple repetition."""

    __slots__ = ()
    __match_args__ = ("r", "s")
    r = property(itemgetter(0))
    s = property(itemgetter(1))

    def __new__(cls, r=None, s=None, *args, **kwargs):
        # the pair only: __init__ checks the call and the values, so its
        # errors read as a frozen dataclass's
        return tuple.__new__(cls, (r, s))

    def __init__(self, r: int, s: int):
        for name, value in (("r", r), ("s", s)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: tuple[int, int]) -> "LatticePoint2":
        (r, s), (x, y) = self, _pair(other, "+")
        return LatticePoint2(r + x, s + y)

    __radd__ = __add__

    def __sub__(self, other: tuple[int, int]) -> "LatticePoint2":
        (r, s), (x, y) = self, _pair(other, "-")
        return LatticePoint2(r - x, s - y)

    def __rsub__(self, other: tuple[int, int]) -> "LatticePoint2":
        (r, s), (x, y) = self, _pair(other, "-")
        return LatticePoint2(x - r, y - s)

    def scaled(self, k: int) -> "LatticePoint2":
        return LatticePoint2(self.r * k, self.s * k)

    def is_origin(self) -> bool:
        return self.r == 0 and self.s == 0

    def __repr__(self) -> str:
        return f"LatticePoint2(r={self.r!r}, s={self.s!r})"

    def __str__(self) -> str:
        return f"({self.r},{self.s})"


def _pair(other, op: str) -> tuple:
    """``other`` if it is a point or a plain pair; else TypeError, so no tuple concatenates."""
    if isinstance(other, tuple) and len(other) == 2:
        return other
    raise TypeError(f"unsupported operand for {op}: a point and {other!r}, not a pair")


def _point(r: int, s: int) -> LatticePoint2:
    """A LatticePoint2 without its constructor's checks, from checked values."""
    return tuple.__new__(LatticePoint2, (r, s))


def det(p: LatticePoint2, q: LatticePoint2) -> int:
    """Cross product p.r*q.s - p.s*q.r of points or pairs; positive iff q is steeper than p."""
    (pr, ps), (qr, qs) = p, q
    return pr * qs - ps * qr


def primitive(v: LatticePoint2) -> LatticePoint2:
    """The primitive vector on the ray of v (components divided by their gcd)."""
    if v.is_origin():
        raise ValueError("zero ray")
    g = gcd(*v)
    return _point(v.r // g, v.s // g)


@_value_class()
class Cone2:
    """A pointed rational cone in the first quadrant spanned by two primitive
    rays, ordered so that slope(ray_high) >= slope(ray_low).

    The slope of (r, s) is s/r, with s/0 read as +infinity.  A cone whose rays
    coincide is degenerate (a single ray) but still representable.
    """

    ray_low: LatticePoint2
    ray_high: LatticePoint2

    def __init__(self, ray_low: LatticePoint2, ray_high: LatticePoint2):
        for name, ray in (("ray_low", ray_low), ("ray_high", ray_high)):
            if gcd(*ray) != 1:  # 0 at the origin
                raise ValueError(f"{name} {ray} is not primitive" if ray.r or ray.s else "zero ray")
        if det(ray_low, ray_high) < 0:
            raise ValueError(f"ray_high {ray_high} has smaller slope than ray_low {ray_low}")
        self.__dict__.update(ray_low=ray_low, ray_high=ray_high)

    @property
    def is_degenerate(self) -> bool:
        return self.ray_low == self.ray_high

    def __str__(self) -> str:
        return f"cone{{{self.ray_high},{self.ray_low}}}"


def _cone(low: LatticePoint2, high: LatticePoint2) -> Cone2:
    """A Cone2 without its constructor's checks, from primitive rays in slope order."""
    c = object.__new__(Cone2)
    c.__dict__.update(ray_low=low, ray_high=high)
    return c


def cone(u: LatticePoint2, w: LatticePoint2) -> Cone2:
    """The cone spanned by u and w; rays are primitivized and ordered by slope."""
    u, w = primitive(u), primitive(w)
    if det(u, w) < 0:
        u, w = w, u
    return _cone(u, w)


def slope_descending(points: Iterable[LatticePoint2]) -> list[LatticePoint2]:
    """Sort lattice points by slope, steepest first; ties by coordinate order."""

    def cmp(p: LatticePoint2, q: LatticePoint2) -> int:
        d = det(p, q)  # > 0 iff q is steeper than p
        if d != 0:
            return 1 if d > 0 else -1
        return -1 if p < q else (1 if p > q else 0)

    return sorted(points, key=cmp_to_key(cmp))


@_value_class()
class HilbertBasis2:
    """The unique finite minimal generating set of the lattice points of a
    cone, as a chain in slope-descending order: ``ray_high`` first,
    ``ray_low`` last."""

    elements: tuple[LatticePoint2, ...]

    def __init__(self, elements):
        self.__dict__["elements"] = elements


def _parallelogram_points(c: Cone2) -> list[tuple[int, int]]:
    """Nonzero lattice points (r, s) of {l1*ray_low + l2*ray_high : 0 <= l1, l2 <= 1}."""
    (lr, ls), (hr, hs) = c.ray_low, c.ray_high
    d = lr * hs - ls * hr
    # Cramer: l1 = det(p, ray_high)/d, l2 = det(ray_low, p)/d
    return [(r, s) for r in range(lr + hr + 1) for s in range(ls + hs + 1)
            if (r or s) and 0 <= r * hs - s * hr <= d and 0 <= lr * s - ls * r <= d]


def hilbert_basis(c: Cone2) -> HilbertBasis2:
    """The unique minimal generating set of Q = c intersected with Z^2.

    Every irreducible element of Q lies in the fundamental parallelogram of
    the two rays, and both parts of any splitting of a parallelogram point
    into nonzero cone points stay inside the parallelogram (their ray
    coefficients can only shrink), so irreducibility is decided by scanning
    pairwise differences of parallelogram points, as plain (r, s) pairs;
    only the irreducible ones become points.  A degenerate cone has the
    singleton basis consisting of its primitive ray, and a unimodular cone
    (det 1: its rays are a lattice basis, so the parallelogram holds no other
    point) the basis (ray_high, ray_low), both without a scan.  The elements
    are returned sorted by slope, steepest first.
    """
    if c.is_degenerate:
        return HilbertBasis2((c.ray_low,))
    if det(c.ray_low, c.ray_high) == 1:
        return HilbertBasis2((c.ray_high, c.ray_low))
    points = _parallelogram_points(c)
    point_set = set(points)
    irreducible = [
        _point(r, s) for r, s in points
        if not any(qr <= r and qs <= s and (r - qr, s - qs) in point_set for qr, qs in points)
    ]
    return HilbertBasis2(tuple(slope_descending(irreducible)))


def decompose_over(
    p: LatticePoint2, chain: Sequence[LatticePoint2]
) -> Optional[dict[LatticePoint2, int]]:
    """Write p along ``chain``, the slope-descending Hilbert basis of its
    cone, without search: consecutive elements h (steeper) and l span a
    subcone of determinant 1 (Fulton, *Introduction to Toric Varieties* 2.6).
    One bisection finds the first e with det(e, p) >= 0; l is e and h the
    element before it (else the first pair), and by Cramer
    alpha*l + beta*h = det(l, h)*p with alpha = det(p, h), beta = det(l, p).
    Returns {l: alpha, h: beta} without zero entries, or None if a
    multiplicity is negative or det(l, h) != 1 and p is not the origin.  A
    chain [e] gives {e: m} if some m >= 0 has m*e = p, an empty chain {} at
    the origin, and else None: a chain is never trusted, and never raises."""
    r, s = p
    if len(chain) < 2:  # an empty chain reads as [(0, 0)], which writes the origin only
        e = chain[0] if chain else (0, 0)
        m = (r + s) // (e[0] + e[1]) if e[0] + e[1] else 0
        if m < 0 or m * e[0] != r or m * e[1] != s:
            return None
        return {e: m} if m else {}
    j = bisect_left(chain, True, key=lambda e: e[0] * s - e[1] * r >= 0)
    j = j if 0 < j < len(chain) else 1
    (hr, hs), (lr, ls) = h, l = chain[j - 1], chain[j]
    alpha, beta = r * hs - s * hr, lr * s - ls * r
    if alpha < 0 or beta < 0 or (lr * hs - ls * hr != 1 and (r or s)):
        return None
    parts = {l: alpha} if alpha else {}
    if beta:
        parts[h] = beta
    return parts

"""Fans of cones in the first quadrant built from two exponent vectors.

Two exponent vectors a, b of equal length are "fan ordered" when the ratios
a_i/b_i are non-increasing (with x/0 = +infinity).  ``build_fan`` fan orders
any valid pair and builds the chain of cones spanned by consecutive rays
(b_i, a_i), bracketed by the sentinel rays (0,1) and (1,0); together they
cover the first quadrant.
"""

from bisect import bisect_left
from functools import cached_property, cmp_to_key
from math import gcd
from typing import Sequence

from .lattice import Cone2, LatticePoint2, _cone, _point, _value_class, det, hilbert_basis
from .monomials import _naturals


def _check_pair(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """Raise ValueError unless a and b are exponent vectors of one length,
    nonnegative ints (a bool is not), each with a positive entry."""
    if len(a) != len(b):
        raise ValueError("exponent vectors must have the same length")
    for name, v in (("a", a), ("b", b)):
        if len(v) == 0:
            raise ValueError(f"{name} must be nonempty")
        _naturals(f"{name} entries", v)
        if not any(v):
            raise ValueError(f"{name} has no positive entry (the ideal would be the unit ideal)")


@_value_class()
class Fan:
    """The n+1 cones C_0..C_n over consecutive rays (b_i, a_i) of the fan
    ordered columns a, b (``order[j]`` is the original index at position j),
    with sentinels so that C_0 contains the s-axis and C_n the r-axis.
    Consecutive cones share exactly one ray; cones whose rays coincide after
    primitivization are retained but degenerate.

    A fan from ``build_fan`` gives each class of columns of equal ratio one
    ray point and one degenerate cone object, repeated once per extra column,
    and ``chains`` computes one Hilbert chain per run of one cone object, so
    the work grows with the number of distinct rays, not of columns.  Cones
    still compare by value: fields, equality and hash are those of the
    tuples."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    order: tuple[int, ...]
    cones: tuple[Cone2, ...]

    def __init__(self, a, b, order, cones):
        self.__dict__.update(a=a, b=b, order=order, cones=cones)

    @cached_property
    def chains(self) -> tuple[tuple[LatticePoint2, ...], ...]:
        """The slope-descending Hilbert basis of each cone, built on first use;
        a run of one cone object shares one chain object."""
        chains, previous, chain = [], None, ()
        for c in self.cones:
            if c is not previous:
                chain, previous = hilbert_basis(c).elements, c
            chains.append(chain)
        return tuple(chains)

    @cached_property
    def degrees(self) -> dict[LatticePoint2, int]:
        """Distinct chain elements, by cone then chain order, to their first cone."""
        first: dict[LatticePoint2, int] = {}
        for i, chain in enumerate(self.chains):
            for p in chain:
                first.setdefault(p, i)
        return first


def build_fan(a: Sequence[int], b: Sequence[int]) -> Fan:
    """Fan order any valid pair (a, b) and build its fan.

    Fan order sorts the columns by ratio a_i/b_i, descending, with b_i = 0 as
    +infinity; ties keep their original order, and columns where both
    exponents are zero are dropped (the prime occurs in neither ideal).
    Columns of equal ratio share one primitive ray (b_i, a_i)/g, so there is
    one gcd per distinct column, only the distinct rays are sorted, and each
    class of equal ratio is laid down in its original order.

    The pair is checked once; the rays and cones derived from its columns are
    built unchecked.  Each distinct ray, sentinels included, gets one point;
    a run of c columns on one ray gives the cone from the previous ray and
    c - 1 copies of one degenerate cone object on it, which share one chain
    in ``Fan.chains``.  The cones still compare by value."""
    a, b = tuple(a), tuple(b)
    _check_pair(a, b)
    ray_of = {}
    for x, y in dict.fromkeys(zip(b, a)):
        if g := gcd(x, y):  # 0 only for a both-zero column
            ray_of[x, y] = (x // g, y // g)
    classes: dict[tuple[int, int], list[int]] = {}
    for i, ray in enumerate(map(ray_of.get, zip(b, a))):
        if ray:
            classes.setdefault(ray, []).append(i)

    def cmp(p: tuple[int, int], q: tuple[int, int]) -> int:
        # slope s/r of p above that of q iff p_s*q_r > q_s*p_r; distinct rays never tie
        return -1 if p[1] * q[0] > q[1] * p[0] else 1

    order: list[int] = []
    runs = {(0, 1): 1}  # ray -> its copies among (0,1), the column rays, (1,0)
    for ray in sorted(classes, key=cmp_to_key(cmp)):
        order += classes[ray]
        runs[ray] = runs.get(ray, 0) + len(classes[ray])
    runs[1, 0] = runs.get((1, 0), 0) + 1
    cones: list[Cone2] = []
    high = None
    for (r, s), count in runs.items():
        low = _point(r, s)
        if high is not None:
            cones.append(_cone(low, high))
        if count > 1:
            cones += [_cone(low, low)] * (count - 1)
        high = low
    return Fan(tuple([a[i] for i in order]), tuple([b[i] for i in order]), tuple(order),
               tuple(cones))


def fan_order(
    a: Sequence[int], b: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(a_sorted, b_sorted, permutation) read off ``build_fan(a, b)``: the
    paired exponents in fan order, where permutation[j] is the original index
    sitting at fan position j."""
    fan = build_fan(a, b)
    return fan.a, fan.b, fan.order


def locate(fan: Fan, p: LatticePoint2) -> int:
    """Index of the first cone containing p; boundary points resolve to the
    lower index.  Total on N^2 because the cones cover the first quadrant:
    "p is at least as steep as ray_low" is false, then true along the fan
    (true at the last cone, whose ray_low is (1,0)), so bisection finds it."""
    return bisect_left(fan.cones, True, key=lambda c: det(c.ray_low, p) >= 0)

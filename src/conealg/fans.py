"""Fans of cones in the first quadrant built from two exponent vectors.

Two exponent vectors a, b of equal length are "fan ordered" when the ratios
a_i/b_i are non-increasing (with x/0 = +infinity).  ``build_fan`` fan orders
any valid pair and builds the chain of cones spanned by consecutive rays
(b_i, a_i), bracketed by the sentinel rays (0,1) and (1,0); together they
cover the first quadrant.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from math import gcd
from typing import Sequence

from .lattice import Cone2, LatticePoint2, _cone, _point, det, hilbert_basis
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


def fan_order(
    a: Sequence[int], b: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Reorder the paired exponents by ratio a_i/b_i, descending.

    b_i = 0 sorts as +infinity; ties keep their original order; indices where
    both exponents are zero are dropped (the prime occurs in neither ideal).
    Returns (a_sorted, b_sorted, permutation) where permutation[j] is the
    original index sitting at fan position j.
    """
    a, b = tuple(a), tuple(b)
    _check_pair(a, b)
    keep = [i for i in range(len(a)) if a[i] or b[i]]  # nonempty: a has a positive entry

    def cmp(i: int, j: int) -> int:
        # a_i/b_i > a_j/b_j iff a_i*b_j > a_j*b_i (all entries nonnegative)
        lhs, rhs = a[i] * b[j], a[j] * b[i]
        if lhs != rhs:
            return -1 if lhs > rhs else 1
        return 0

    keep.sort(key=cmp_to_key(cmp))
    return tuple(a[i] for i in keep), tuple(b[i] for i in keep), tuple(keep)


@dataclass(frozen=True)
class Fan:
    """The n+1 cones C_0..C_n over consecutive rays (b_i, a_i) of the fan
    ordered columns a, b (``order[j]`` is the original index at position j),
    with sentinels so that C_0 contains the s-axis and C_n the r-axis.
    Consecutive cones share exactly one ray; cones whose rays coincide after
    primitivization are retained but degenerate."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    order: tuple[int, ...]
    cones: tuple[Cone2, ...]

    @cached_property
    def chains(self) -> tuple[tuple[LatticePoint2, ...], ...]:
        """The slope-descending Hilbert basis of each cone, built on first use."""
        return tuple(hilbert_basis(c).elements for c in self.cones)

    @cached_property
    def degrees(self) -> dict[LatticePoint2, int]:
        """Distinct chain elements, by cone then chain order, to their first cone."""
        first: dict[LatticePoint2, int] = {}
        for i, chain in enumerate(self.chains):
            for p in chain:
                first.setdefault(p, i)
        return first


def build_fan(a: Sequence[int], b: Sequence[int]) -> Fan:
    """Build the fan of any valid pair (a, b), as ``fan_order`` checks and
    sorts it; the rays and cones derived from its columns are built unchecked."""
    a, b, order = fan_order(a, b)
    rays = [_point(0, 1)]
    for x, y in zip(b, a):
        g = gcd(x, y)
        rays.append(_point(x // g, y // g))
    rays.append(_point(1, 0))
    return Fan(a, b, order, tuple(map(_cone, rays[1:], rays)))


def locate(fan: Fan, p: LatticePoint2) -> int:
    """Index of the first cone containing p; boundary points resolve to the
    lower index.  Total on N^2 because the cones cover the first quadrant:
    "p is at least as steep as ray_low" is false, then true along the fan
    (true at the last cone, whose ray_low is (1,0)), so bisection finds it."""
    return bisect_left(fan.cones, True, key=lambda c: det(c.ray_low, p) >= 0)

"""Generating sets of the intersection algebra of two principal monomial
ideals.

For I = (x^a) and J = (x^b) the algebra sum of I^r cap J^s u^r v^s is
generated by one bigraded monomial per Hilbert basis element of each cone of
the fan of (a, b): the coefficient at degree (r, s) is the componentwise
max(r*a_k, s*b_k) monomial.  This module computes that set and the
asymptotic containment limits, and runs the bounded-grid verifier that
reconstructs every graded component from the generators.
"""

from math import gcd
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .fans import Fan, _check_pair, build_fan, fan_order, locate
from .lattice import Cone2, LatticePoint2, _point, _value_class, decompose_over
from .monomials import (
    BigradedMonomial,
    PowerCapError,
    _candidate_cap,
    _exponent_kernel,
    _max_exponents,
    _monomial,
)


@_value_class()
class GeneratorSet:
    """A deduplicated generating set and the fan it was read from.

    ``generators`` holds one generator per degree of ``fan.degrees``, the
    distinct elements of the Hilbert chains in ``fan.chains``: ordered by
    cone index, then by descending slope of the (u, v)-degree, a degree
    shared by several cones keeping its first occurrence.
    """

    generators: tuple[BigradedMonomial, ...]
    fan: Fan

    def __init__(self, generators, fan):
        self.__dict__.update(generators=generators, fan=fan)


def intersection_generators(a: Sequence[int], b: Sequence[int]) -> GeneratorSet:
    """Finite generating set for the intersection algebra of (x^a) and (x^b).

    The pair is fan ordered internally, but coefficients are computed over
    the original variable order, so no output remapping is needed.
    """
    a, b = tuple(a), tuple(b)
    fan = build_fan(a, b)  # checks the pair
    columns, spread = _exponent_kernel(a, b)
    gens = (
        BigradedMonomial(_monomial(_max_exponents(columns, spread, *p)), p)
        for p in fan.degrees
    )
    return GeneratorSet(tuple(gens), fan)


@_value_class()
class VerificationReport:
    """Outcome of a bounded-grid reconstruction check; the first failure is
    the lexicographically smallest failing degree."""

    passed: bool
    total: int
    failures: int
    first_failure: Optional[LatticePoint2]
    reason: Optional[str]

    def __init__(self, passed, total, failures, first_failure, reason):
        self.__dict__.update(passed=passed, total=total, failures=failures,
                             first_failure=first_failure, reason=reason)

    def summary(self) -> str:
        if self.passed:
            return f"PASS {self.total}/{self.total} components"
        ok = self.total - self.failures
        return (
            f"FAIL at (r,s)={self.first_failure}: {self.reason}"
            f" ({ok}/{self.total} components)"
        )


def _grid_cells(r_max: int, s_max: int) -> int:
    """The cells of the grid [0..r_max] x [0..s_max]: ValueError unless both
    bounds are nonnegative ints (a bool is not), then PowerCapError past the cap."""
    for bound in (r_max, s_max):
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise ValueError(f"grid bounds must be integers, got {bound!r}")
    if r_max < 0 or s_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    total = (r_max + 1) * (s_max + 1)
    cap = _candidate_cap()
    if total > cap:
        raise PowerCapError(f"grid too large: {total} cells exceed cap {cap}")
    return total


def _verify_grid(
    fan: Fan,
    available: Mapping[LatticePoint2, object],
    r_max: int,
    s_max: int,
    product: Callable[[Iterable[tuple[object, int]]], object],
    component: Callable[[int, int, int], object],
    reasons: tuple[str, str],
) -> VerificationReport:
    """The grid loop of both verifiers, one cell at a time in row-major order:
    p = (r, s) lies in cone i = ``locate(fan, p)``, and ``decompose_over``
    writes it along that cone's chain.  If that gives None or uses a degree
    not in ``available``, or if i has no cone or no chain (a hand-built fan),
    the cell fails with ``reasons[0]``; else ``product`` of the (``available``
    value, multiplicity) pairs must equal ``component(i, r, s)``, called once
    per cell, or it fails with ``reasons[1]``.  It reads no cap: the
    verifiers call ``_grid_cells`` first.  A fan with no cones holds no cell,
    so every cell fails with ``reasons[0]``."""
    total = (r_max + 1) * (s_max + 1)
    cones, chains = fan.cones, fan.chains
    if not cones:
        return VerificationReport(False, total, total, _point(0, 0), reasons[0])
    placed = min(len(cones), len(chains))  # i >= placed: only a hand-built fan
    factor = available.__getitem__
    failures = 0
    first = reason = None
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            p = (r, s)
            i = locate(fan, p)
            parts = decompose_over(p, chains[i]) if i < placed else None
            if parts is None or not available.keys() >= parts.keys():
                why = reasons[0]
            elif product(zip(map(factor, parts), parts.values())) == component(i, r, s):
                continue
            else:
                why = reasons[1]
            failures += 1
            if first is None:
                first, reason = _point(r, s), why
    return VerificationReport(failures == 0, total, failures, first, reason)


def _fan_rays(cones: Sequence[Cone2]) -> tuple[list[LatticePoint2], list[LatticePoint2]]:
    """Check 1 of the certificates: the cones' ray_high and ray_low, in cone
    order, if the cones run contiguously from the ray (0,1) to (1,0), each
    cone's ray_low the next one's ray_high; a point equals its (r, s) pair,
    so the rays compare with the plain pairs of the two axes.  Otherwise
    ValueError names the first joint where they do not; a fan with no cones
    fails at its first."""
    highs = [c.ray_high for c in cones]
    lows = [c.ray_low for c in cones]
    if highs == [(0, 1), *lows[:-1]] and lows[-1:] == [(1, 0)]:
        return highs, lows
    j = next(j for j, (low, high) in enumerate(zip([(0, 1), *lows], [*highs, (1, 0)]))
             if low != high)
    if j == len(cones):
        fault = f"cone {j - 1} ends at {cones[j - 1].ray_low}, not (1,0)" if j else "no cones"
    elif j:
        fault = f"cone {j - 1} ends at {cones[j - 1].ray_low}, cone {j} starts at {cones[j].ray_high}"
    else:
        fault = f"cone 0 starts at {cones[0].ray_high}, not (0,1)"
    raise ValueError(f"fan cones do not run contiguously from (0,1) to (1,0): {fault}")


def _unimodular_chain(fan: Fan) -> Optional[list[LatticePoint2]]:
    """Checks 1 and 2 of the certificates, read off ``fan`` without trusting it:

    1. the cones run contiguously from the ray (0,1) to (1,0) (``_fan_rays``);
    2. each chain runs from its cone's ray_high to its ray_low in N^2, with
       det(l, h) = 1 for every step (h, l).

    If both hold, the chains joined end to end, each joint once, as one
    list of points; else None.  The joined chain then splits the quadrant
    into subcones of determinant 1 in descending slope, each inside one
    cone: a cell p of the subcone (h, l) is det(p, h)*l + det(l, p)*h with
    both multiplicities >= 0, as ``decompose_over`` writes it in the grid
    walk, and a degenerate cone's one-element chain adds no step."""
    cones, chains = fan.cones, fan.chains
    if len(cones) != len(chains) or not all(chains):
        return None
    try:
        highs, lows = _fan_rays(cones)
    except ValueError:
        return None
    if [ch[0] for ch in chains] != highs or [ch[-1] for ch in chains] != lows:
        return None
    elements = [chains[0][0], *(e for chain in chains for e in chain[1:])]  # each joint once
    if min(map(min, elements)) < 0:
        return None
    if any(lr * hs - ls * hr != 1 for (hr, hs), (lr, ls) in zip(elements, elements[1:])):
        return None
    return elements


def _certified(
    columns: tuple[tuple[int, int], ...],
    spread: Callable[[list[int]], tuple[int, ...]],
    fan: Fan,
    coeffs: Mapping[LatticePoint2, tuple[int, ...]],
) -> bool:
    """Whether ``coeffs``, the generators' exponent tuples by degree,
    generate every component of the intersection algebra of (x^a) and (x^b),
    given as their ``_exponent_kernel`` (distinct columns and spread), read
    off ``fan`` without trusting it:

    1. and 2. the chains pass ``_unimodular_chain``;
    3. the ray primitive(b_k, a_k) of every column with a_k + b_k > 0 is a
       chain element;
    4. the generator at each distinct chain degree (r, s) has the exponents
       ``_max_exponents(columns, spread, r, s)``.

    By 1 and 2 the chains, end to end, split the quadrant into subcones of
    determinant 1 in descending slope, and by 3 no column's ray is interior
    to one, so max(r*a_k, s*b_k) is linear on each.  A cell p of such a
    subcone (h, l) is det(p, h)*l + det(l, p)*h, so by 4 the product of the
    generators the grid walk takes for p is the oracle at p: every cell of
    every grid passes.  Check 3 takes one gcd per distinct column, chain
    degrees are each visited once, and at each degree the oracle is computed
    once per distinct column and spread to all n columns before one
    exponent-tuple comparison; nothing is sorted.
    """
    elements = _unimodular_chain(fan)
    if elements is None:
        return False
    rays = {(y // g, x // g) for x, y in columns if (g := gcd(x, y))}  # a_k + b_k > 0
    if not rays.issubset(elements):
        return False
    return all(coeffs.get(e) == _max_exponents(columns, spread, *e) for e in elements)


def verify_generation(
    a: Sequence[int],
    b: Sequence[int],
    gens: GeneratorSet,
    r_max: int,
    s_max: int,
) -> VerificationReport:
    """Check that every graded component on [0..r_max] x [0..s_max] is a
    product of the supplied generators.

    First the all-degree certificate ``_certified``, in time independent of
    the grid: when it holds, every cell of any grid is the product the walk
    below would form, so the report is a pass.  If it fails, the grid is
    walked, and its report is the verdict.

    Cell by cell (see ``_verify_grid``), write each (r, s) along its cone's
    chain in ``gens.fan.chains`` by ``decompose_over``, add the exponent
    tuples of the generators at those degrees (which must be in ``gens``)
    with their multiplicities, and compare the sum, column by column, with
    the tuple of max(r*a_k, s*b_k), computed for every cell by the
    certificate's oracle.  Failures are reported, never raised.
    ``_grid_cells`` checks the grid first, certified or not; then a bad pair
    or coefficients of another length raise ValueError.
    """
    total = _grid_cells(r_max, s_max)
    a, b = tuple(a), tuple(b)
    _check_pair(a, b)
    coeffs = {bm.degree: bm.coeff.exponents for bm in gens.generators}
    for degree, v in coeffs.items():
        if len(v) != len(a):
            raise ValueError(f"generator at degree {degree} has {len(v)} exponents, expected {len(a)}")
    columns, spread = _exponent_kernel(a, b)
    if _certified(columns, spread, gens.fan, coeffs):
        return VerificationReport(True, total, 0, None, None)
    zero = (0,) * len(a)

    def product(factors: Iterable[tuple[tuple[int, ...], int]]) -> tuple[int, ...]:
        return tuple(map(sum, zip(zero, *([m * x for x in v] for v, m in factors))))

    reasons = (
        "no decomposition into available generators",
        "generator product differs from the component generator",
    )
    return _verify_grid(
        gens.fan, coeffs, r_max, s_max, product,
        lambda _, r, s: _max_exponents(columns, spread, r, s),
        reasons,
    )


class AsymptoticLimits(NamedTuple):
    """Exact limits of the containment exponents between powers of I and J."""

    l_I_of_J: "Fraction"
    L_I_of_J: "Fraction"
    l_J_of_I: "Fraction"
    L_J_of_I: "Fraction"


def asymptotic_limits(a: Sequence[int], b: Sequence[int]) -> AsymptoticLimits:
    """Exact asymptotic containment slopes for ideals with equal radicals.

    l_I(J) is the limit of (largest n with J^m inside I^n)/m, attained at the
    smallest ratio b_k/a_k; the other three limits are the matching extreme
    ratios, so the reciprocal identities l_I(J)*L_J(I) = l_J(I)*L_I(J) = 1
    hold by construction.  A column zero in both a and b is dropped, as
    ``build_fan`` drops it: the prime occurs in neither ideal.
    """
    from fractions import Fraction  # imported here: it is slow to import, and only this needs it

    a, b = tuple(a), tuple(b)
    # an int entry < 0, or an int zero beside an entry that is no int zero,
    # means the radicals differ; fan_order checks the lengths first and
    # rejects every entry that is not an int
    if len(a) == len(b) and any(
        type(x) is int and (x < 0 or x == 0 and (type(y) is not int or y != 0))
        for x, y in zip(a + b, b + a)
    ):
        raise ValueError("radicals differ: all exponents must be positive")
    a, b, _ = fan_order(a, b)  # ratio a_k/b_k descending
    hi, lo = Fraction(a[0], b[0]), Fraction(a[-1], b[-1])
    return AsymptoticLimits(1 / hi, 1 / lo, lo, hi)

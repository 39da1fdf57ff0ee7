"""Generating sets of the intersection algebra of two principal monomial
ideals.

For I = (x^a) and J = (x^b) the algebra sum of I^r cap J^s u^r v^s is
generated by one bigraded monomial per Hilbert basis element of each cone of
the fan of (a, b): the coefficient at degree (r, s) is the componentwise
max(r*a_k, s*b_k) monomial.  This module computes that set and the
asymptotic containment limits, and runs the bounded-grid verifier that
reconstructs every graded component from the generators.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .fans import Fan, build_fan, fan_order
from .lattice import LatticePoint2
from .monomials import BigradedMonomial, PowerCapError, _candidate_cap, principal_intersection


@dataclass(frozen=True)
class GeneratorSet:
    """A deduplicated generating set and the fan it was read from.

    ``generators`` holds one generator per distinct degree of the Hilbert
    chains in ``fan.chains``, ordered by cone index, then by descending slope
    of the (u, v)-degree; a degree shared by several cones keeps its first
    occurrence.
    """

    generators: tuple[BigradedMonomial, ...]
    fan: Fan


def intersection_generators(a: Sequence[int], b: Sequence[int]) -> GeneratorSet:
    """Finite generating set for the intersection algebra of (x^a) and (x^b).

    The pair is fan ordered internally, but coefficients are computed over
    the original variable order, so no output remapping is needed.
    """
    a, b = tuple(a), tuple(b)
    a2, b2, _ = fan_order(a, b)
    fan = build_fan(a2, b2)
    degrees = dict.fromkeys(p for chain in fan.chains for p in chain)
    return GeneratorSet(
        tuple(BigradedMonomial(principal_intersection(a, b, p.r, p.s), p) for p in degrees), fan
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a bounded-grid reconstruction check; the first failure is
    the lexicographically smallest failing degree."""

    passed: bool
    total: int
    failures: int
    first_failure: Optional[LatticePoint2]
    reason: Optional[str]

    def summary(self) -> str:
        if self.passed:
            return f"PASS {self.total}/{self.total} components"
        ok = self.total - self.failures
        return (
            f"FAIL at (r,s)={self.first_failure}: {self.reason}"
            f" ({ok}/{self.total} components)"
        )


def _verify_grid(
    fan: Fan,
    available: Mapping[LatticePoint2, object],
    r_max: int,
    s_max: int,
    product: Callable[[list], object],
    component: Callable[[int, int, int], object],
    reasons: tuple[str, str],
    max_candidates: Optional[int] = None,
) -> VerificationReport:
    """The grid loop of both verifiers.  Each p = (r, s) is written along the
    bracketing pair (h, l) of ``fan.chains[i]``, the Hilbert chain of its cone
    i, as det(p, h)*l + det(l, p)*h = det(l, h)*p, so det(l, h) = 1 is
    checked once per pair; a one-element chain gives a multiple of it.  If
    that fails, a multiplicity is negative or a degree used is not in
    ``available``, the cell fails with ``reasons[0]``; otherwise ``product``
    of the (available[degree], multiplicity) factors must equal
    ``component(i, r, s)``, or it fails with ``reasons[1]``.  Along a row s
    grows, so det(ray_low, p) and det(e, p) never decrease: two cursors find
    the cone (as ``locate`` does) and the pair, moving only towards index 0.
    A grid of more cells than the candidate cap raises PowerCapError first."""
    if r_max < 0 or s_max < 0:
        raise ValueError("grid bounds must be nonnegative")
    total = (r_max + 1) * (s_max + 1)
    cap = _candidate_cap(max_candidates)
    if total > cap:
        raise PowerCapError(f"grid too large: {total} cells exceed cap {cap}")
    lows = [(c.ray_low.r, c.ray_low.s) for c in fan.cones]
    chains = []  # per cone: element coordinates and values (None if absent), det 1 per pair
    for chain in fan.chains:
        points = [(e.r, e.s) for e in chain]
        unimodular = [lr * hs - ls * hr == 1 for (hr, hs), (lr, ls) in zip(points, points[1:])]
        chains.append((points, [available.get(e) for e in chain], unimodular))
    failures = 0
    first = reason = None
    for r in range(r_max + 1):
        i, j = len(lows) - 1, None
        for s in range(s_max + 1):
            while i and lows[i - 1][0] * s >= lows[i - 1][1] * r:
                i, j = i - 1, None
            points, values, unimodular = chains[i]
            n = len(points)
            if n > 1:
                j = n if j is None else j
                while j and points[j - 1][0] * s >= points[j - 1][1] * r:
                    j -= 1
                t = j - 1 if 0 < j < n else 0
                (hr, hs), (lr, ls) = points[t], points[t + 1]
                terms = ((values[t + 1], r * hs - s * hr), (values[t], lr * s - ls * r))
                ok = unimodular[t] or r == s == 0
            elif n:
                ((er, es),) = points
                m = (r + s) // (er + es)
                terms, ok = ((values[0], m),), (m * er, m * es) == (r, s)
            else:
                terms, ok = (), r == s == 0
            factors = [(v, m) for v, m in terms if m]
            if not ok or any(m < 0 or v is None for v, m in factors):
                why = reasons[0]
            elif product(factors) == component(i, r, s):
                continue
            else:
                why = reasons[1]
            failures += 1
            if first is None:
                first, reason = LatticePoint2(r, s), why
    return VerificationReport(failures == 0, total, failures, first, reason)


def verify_generation(
    a: Sequence[int],
    b: Sequence[int],
    gens: GeneratorSet,
    r_max: int,
    s_max: int,
) -> VerificationReport:
    """Check that every graded component on [0..r_max] x [0..s_max] is a
    product of the supplied generators.

    Row by row (see ``_verify_grid``), write each (r, s) along the bracketing
    unimodular pair of its cone's chain in ``gens.fan.chains``, add the
    exponents of the generators at those degrees (which must be in ``gens``)
    with their multiplicities, and compare with the componentwise-max oracle,
    computed exactly for every cell.  Failures are reported, never raised.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("exponent vectors must have the same length")
    coeffs = {bm.degree: bm.coeff.exponents for bm in gens.generators}

    def product(factors: list[tuple[tuple[int, ...], int]]) -> list[int]:
        out = [0] * len(a)
        for exponents, m in factors:
            out = [x + m * y for x, y in zip(out, exponents)]
        return out

    def component(_: int, r: int, s: int) -> list[int]:
        return [x * r if x * r > y * s else y * s for x, y in zip(a, b)]

    reasons = (
        "no decomposition into available generators",
        "generator product differs from the component generator",
    )
    return _verify_grid(gens.fan, coeffs, r_max, s_max, product, component, reasons)


class AsymptoticLimits(NamedTuple):
    """Exact limits of the containment exponents between powers of I and J."""

    l_I_of_J: Fraction
    L_I_of_J: Fraction
    l_J_of_I: Fraction
    L_J_of_I: Fraction


def asymptotic_limits(a: Sequence[int], b: Sequence[int]) -> AsymptoticLimits:
    """Exact asymptotic containment slopes for ideals with equal radicals.

    l_I(J) is the limit of (largest n with J^m inside I^n)/m, attained at the
    smallest ratio b_k/a_k; the other three limits are the matching extreme
    ratios, so the reciprocal identities l_I(J)*L_J(I) = l_J(I)*L_I(J) = 1
    hold by construction.
    """
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("exponent vectors must have the same length")
    if len(a) == 0:
        raise ValueError("exponent vectors must be nonempty")
    if any(x <= 0 for x in a) or any(x <= 0 for x in b):
        raise ValueError("radicals differ: all exponents must be positive")
    ratios = [Fraction(x, y) for x, y in zip(a, b)]
    hi, lo = max(ratios), min(ratios)
    return AsymptoticLimits(1 / hi, 1 / lo, lo, hi)

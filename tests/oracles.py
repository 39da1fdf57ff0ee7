"""Independent brute-force oracles shared by the tests.

These deliberately avoid the library's own algorithms: cone membership is
solved with Fraction arithmetic (Cramer), irreducibles are found by scanning
sums over the bounding box, decompositions by exhaustive multiplicity
enumeration, power containment and minimal generators by raw divisibility,
subadditivity witnesses by scanning all small pairs, redundant
intersection-algebra generators by scanning every split of their degree, and
ideal intersections from the pairwise least common multiples of the generators.

The grid verifiers' row walk is checked against a reference driver instead:
a per-cell loop that finds every cell's cone and chain pair by bisection
(``locate`` and ``unimodular_decomposition``) and checks every cell's
recombination.  Its fan-algebra components multiply every power in turn
(``reference_product_of_powers``), where the library folds the principal
ones into one translate; ``iterated_power`` forms A^m by m products with A,
where the library takes a principal power in closed form.
``check_fan_linear`` decides by one sweep over the upper hull of the pieces;
the O(C^2) ray scan (``reference_subadditivity_scan``) is the reference for
that sweep: its acceptance, and its rejection's ray, piece and witness.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import reduce

from conealg import (
    Cone2,
    LatticePoint2,
    Monomial,
    MonomialIdeal,
    PowerCapError,
    VerificationReport,
    ideal_product,
)
from conealg.fan_algebra import _subadditivity_witness
from conealg.fans import locate
from conealg.lattice import det
from conealg.monomials import _natural


def frac_cone_contains(c: Cone2, p: LatticePoint2) -> bool:
    """Membership via exact rational ray coefficients."""
    wl, wh = c.ray_low, c.ray_high
    d = wl.r * wh.s - wl.s * wh.r
    if d == 0:  # degenerate: p must be a nonnegative rational multiple of the ray
        if wl.r:
            lam = Fraction(p.r, wl.r)
        else:
            lam = Fraction(p.s, wl.s)
        return lam >= 0 and wl.r * lam == p.r and wl.s * lam == p.s
    l1 = Fraction(p.r * wh.s - p.s * wh.r, d)
    l2 = Fraction(wl.r * p.s - wl.s * p.r, d)
    return l1 >= 0 and l2 >= 0


def frac_piece_value(cones, pieces, p: LatticePoint2) -> int:
    """Value at p of the (alpha, beta) piece of the first cone that contains
    p, with membership decided by frac_cone_contains."""
    i = next(i for i, c in enumerate(cones) if frac_cone_contains(c, p))
    alpha, beta = pieces[i]
    return alpha * p.r + beta * p.s


def brute_subadditivity_witness(f, max_total: int):
    """First lattice pair (p, q) with f(p) + f(q) < f(p + q), scanning p + q
    by coordinate total up to max_total, then p by its total and r; None if
    there is none that small."""
    for total in range(2, max_total + 1):
        for left in range(1, total):
            for pr in range(left + 1):
                p = LatticePoint2(pr, left - pr)
                for qr in range(total - left + 1):
                    q = LatticePoint2(qr, total - left - qr)
                    if f(p) + f(q) < f(p + q):
                        return p, q
    return None


def reference_subadditivity_scan(f) -> None:
    """The O(C^2) ray scan: raise FanLinearityError, with the library's
    witness and message, at the first ray (steepest first) where some
    non-degenerate cone's piece exceeds the owning piece, naming the first
    such piece.  The reference for the sweep of ``check_fan_linear``."""
    cones = f.fan.cones
    used = [i for i, c in enumerate(cones) if not c.is_degenerate]
    for j, c in enumerate(cones):
        for ray in (c.ray_high, c.ray_low):
            owner = f.piece_value(j, ray)
            for i in used:
                if f.piece_value(i, ray) > owner:
                    raise _subadditivity_witness(f, i, ray)


def brute_irreducibles(c: Cone2) -> set[LatticePoint2]:
    """All irreducible lattice points of the cone, scanned over the bounding
    box of the fundamental parallelogram (which contains every irreducible,
    and every part of a box point's splitting stays in the box)."""
    rmax = c.ray_low.r + c.ray_high.r
    smax = c.ray_low.s + c.ray_high.s
    members = {
        LatticePoint2(r, s)
        for r in range(rmax + 1)
        for s in range(smax + 1)
        if (r or s) and frac_cone_contains(c, LatticePoint2(r, s))
    }
    out = set()
    for p in members:
        splittable = any(
            q.r <= p.r and q.s <= p.s and not (q.r == p.r and q.s == p.s)
            and (p - q) in members
            for q in members
        )
        if not splittable:
            out.add(p)
    return out


def all_decompositions(p: LatticePoint2, elements) -> list[dict[LatticePoint2, int]]:
    """Every multiset of elements summing to p, via exhaustive enumeration."""
    elements = [e for e in elements if not e.is_origin()]
    bound = p.r + p.s
    ranges = []
    for e in elements:
        caps = [p.r // e.r if e.r else bound, p.s // e.s if e.s else bound]
        ranges.append(range(min(caps) + 1))
    found = []
    for combo in itertools.product(*ranges):
        r = sum(m * e.r for m, e in zip(combo, elements))
        s = sum(m * e.s for m, e in zip(combo, elements))
        if r == p.r and s == p.s:
            found.append({e: m for e, m in zip(elements, combo) if m})
    return found


def power_contained(base_small, base_big, m: int, n: int) -> bool:
    """Whether (x^base_big)^m lies in (x^base_small)^n, by divisibility."""
    return all(n * a <= m * b for a, b in zip(base_small, base_big))


def largest_inner_power(a, b, m: int) -> int:
    """Largest n with (x^b)^m inside (x^a)^n, counted up by divisibility."""
    n = 0
    while power_contained(a, b, m, n + 1):
        n += 1
    return n


def brute_redundancy_witness(a, b, p: LatticePoint2):
    """First split p = q + q' into nonzero lattice points, q scanned by r
    then s, at which the generator of degree p of the intersection algebra
    of (x^a) and (x^b) is the product of those of degrees q and q':
    f(q) + f(q') = f(p) in every coordinate, f(r, s) the tuple of
    max(r*a_k, s*b_k) written out here; None if p has no such split."""

    def f(r, s):
        return [max(r * x, s * y) for x, y in zip(a, b)]

    top = f(p.r, p.s)
    for qr in range(p.r + 1):
        for qs in range(p.s + 1):
            if (qr, qs) in ((0, 0), (p.r, p.s)):
                continue
            rest = f(p.r - qr, p.s - qs)
            if all(x + y == z for x, y, z in zip(f(qr, qs), rest, top)):
                return LatticePoint2(qr, qs), LatticePoint2(p.r - qr, p.s - qs)
    return None


def random_exponent_pair(rng, max_len=4, max_entry=6):
    """A random admissible (a, b) pair: equal length, entries in [0, max],
    each vector with a positive entry."""
    n = rng.randint(1, max_len)
    while True:
        a = tuple(rng.randint(0, max_entry) for _ in range(n))
        b = tuple(rng.randint(0, max_entry) for _ in range(n))
        if any(a) and any(b):
            return a, b


def unit_monomial(nvars: int) -> Monomial:
    """The monomial 1 over nvars variables."""
    _natural("nvars", nvars)
    return Monomial((0,) * nvars)


def divides(g: Monomial, m: Monomial) -> bool:
    """Whether g divides m, by comparing exponents."""
    return all(x <= y for x, y in zip(g.exponents, m.exponents))


def brute_minimal_generators(gens) -> frozenset:
    """The monomials of ``gens`` that no other one divides, by comparing
    every pair of exponent vectors."""
    gens = set(gens)
    return frozenset(g for g in gens if not any(h != g and divides(h, g) for h in gens))


def brute_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """The intersection of two monomial ideals: the componentwise max of
    every pair of generators, reduced by brute_minimal_generators."""
    lcms = (
        Monomial(tuple(map(max, g.exponents, h.exponents))) for g in a.gens for h in b.gens
    )
    return MonomialIdeal(a.nvars, brute_minimal_generators(lcms))


def unimodular_decomposition(p: LatticePoint2, chain):
    """Write p along the slope-descending Hilbert basis ``chain`` of its cone
    without search: consecutive elements h (steeper) and l span a subcone of
    determinant 1, so for the pair bracketing p, p = det(p, h)*l + det(l, p)*h
    (Cramer); a degenerate cone gives a multiple of its ray.  Returns the
    (element, positive multiplicity) pairs, or None unless they recombine to p
    with nonnegative multiplicities, so a wrong chain is caught, not trusted.
    """
    if len(chain) < 2:
        pairs = [(e, (p.r + p.s) // (e.r + e.s)) for e in chain]
    else:
        j = bisect_left(chain, True, key=lambda e: det(e, p) >= 0)
        h, l = chain[j - 1 : j + 1] if 0 < j < len(chain) else chain[:2]
        pairs = [(l, det(p, h)), (h, det(l, p))]
    r, s = sum(m * e.r for e, m in pairs), sum(m * e.s for e, m in pairs)
    if (r, s) != (p.r, p.s) or any(m < 0 for _, m in pairs):
        return None
    return [(e, m) for e, m in pairs if m]


def reference_verify_grid(fan, available, r_max, s_max, product, component, reasons):
    """The verifiers' grid loop, one cell at a time: ``locate`` the cone of
    p = (r, s), ``unimodular_decomposition`` along its chain, then compare
    ``product`` of the available factors with ``component(i, p)``."""
    failures = 0
    first = reason = None
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            p = LatticePoint2(r, s)
            i = locate(fan, p)
            pairs = unimodular_decomposition(p, fan.chains[i])
            if pairs is None or any(e not in available for e, _ in pairs):
                why = reasons[0]
            elif product([(available[e], m) for e, m in pairs]) == component(i, p):
                continue
            else:
                why = reasons[1]
            failures += 1
            if first is None:
                first, reason = p, why
    total = (r_max + 1) * (s_max + 1)
    return VerificationReport(failures == 0, total, failures, first, reason)


def reference_verify_generation(a, b, gens, r_max, s_max) -> VerificationReport:
    """``verify_generation`` on ``reference_verify_grid``, with tuple sums
    and the max oracle written out per cell."""
    coeffs = {bm.degree: bm.coeff.exponents for bm in gens.generators}

    def product(factors):
        out = (0,) * len(a)
        for exponents, m in factors:
            out = tuple(x + m * y for x, y in zip(out, exponents))
        return out

    def component(_, p):
        return tuple(max(p.r * x, p.s * y) for x, y in zip(a, b))

    reasons = (
        "no decomposition into available generators",
        "generator product differs from the component generator",
    )
    return reference_verify_grid(gens.fan, coeffs, r_max, s_max, product, component, reasons)


def iterated_power(a: MonomialIdeal, m: int, max_candidates: int) -> MonomialIdeal:
    """A^m as m products with A, each reduced by brute_minimal_generators,
    counting every candidate product against the cap as ``ideal_power``'s
    loop does: the reference for its closed form of a principal power."""
    result = MonomialIdeal(a.nvars, [(0,) * a.nvars])
    spent = 0
    for _ in range(m):
        spent += len(result.gens) * len(a.gens)
        if spent > max_candidates:
            raise PowerCapError(
                f"power too large: {spent} candidate products exceed cap {max_candidates}"
            )
        result = MonomialIdeal(
            a.nvars, brute_minimal_generators(g * h for g in result.gens for h in a.gens)
        )
    return result


def reference_product_of_powers(spec, factors, max_candidates) -> MonomialIdeal:
    """The product of the spec's powers of the (ideal, m) factors with m > 0,
    (1) if there are none: every power first, then one ``ideal_product``
    after another in the factors' order, principal powers included."""
    powers = [spec._power(ideal, m, max_candidates) for ideal, m in factors if m]
    if not powers:
        nvars = len(spec.variables)
        return MonomialIdeal(nvars, [(0,) * nvars])
    return reduce(lambda x, y: ideal_product(x, y, max_candidates), powers)


def reference_verify_fan_algebra(spec, gens, r_max, s_max, max_candidates) -> VerificationReport:
    """``verify_fan_algebra`` on ``reference_verify_grid`` and
    ``reference_product_of_powers``, for a grid that stays within
    ``max_candidates``."""
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.degree, set()).add(g.coeff)
    ideals = {d: MonomialIdeal(len(spec.variables), c) for d, c in by_degree.items()}
    reasons = (
        "no decomposition into available generator degrees",
        "generator component product differs from the graded component",
    )

    def component(i, p):
        factors = [(ideal, f.piece_value(i, p)) for ideal, f in zip(spec.ideals, spec.functions)]
        return reference_product_of_powers(spec, factors, max_candidates)

    return reference_verify_grid(
        spec.fan, ideals, r_max, s_max,
        lambda factors: reference_product_of_powers(spec, factors, max_candidates),
        component,
        reasons,
    )

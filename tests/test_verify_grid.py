"""The grid verifiers' walk against the per-cell reference loop of
``oracles.reference_verify_grid`` (``locate`` and ``unimodular_decomposition``
for every cell), on intact and tampered generators, Hilbert chains and cones,
and on fans whose cones or chains are out of order or missing, where the walk
reports and never raises; and ``verify_generation``'s all-degree certificate,
which must hold on every intact input and fail on every tampered one, leaving
the verdict to the walk."""

from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conealg import (
    BigradedMonomial,
    FanAlgebraSpec,
    FanLinearFunction,
    GeneratorSet,
    LatticePoint2,
    Monomial,
    MonomialIdeal,
    build_fan,
    check_fan_linear,
    fan_algebra_generators,
    hilbert_basis,
    intersection_as_fan_algebra,
    intersection_generators,
    maximal_ideal,
    principal_cap_algebra,
    principal_intersection,
    verify_fan_algebra,
    verify_generation,
)
from conealg import generators
from conealg.fans import Fan, locate
from conealg.generators import _verify_grid
from conealg.lattice import _cone, _point
from conealg.monomials import DEFAULT_MAX_CANDIDATES, PowerCapError, _exponent_kernel
from oracles import (
    reference_verify_fan_algebra,
    reference_verify_generation,
    unimodular_decomposition,
)

P = LatticePoint2
M = Monomial

# Tamperings of generators and chains, which both verifiers are checked on.
CHAIN_TAMPERINGS = ("none", "drop", "square", "interior", "no_low", "reversed", "moved_high")
# Those of verify_generation add: a dropped cone, a cone with its rays
# swapped, a fan missing a column's ray (a "foreign" fan, whose generators
# still match the oracle at its chain degrees), a generator altered only
# at a degree outside the grid, and one exponent of a generator on the grid
# raised by 1 at the later occurrence of a repeated column ("repeat").
TAMPERINGS = CHAIN_TAMPERINGS + ("no_cone", "swapped", "foreign", "outside", "repeat")


def _tamper_generators(gens, kind, pick):
    """Drop one generator, or square one generator's coefficient."""
    gens = list(gens)
    k = pick % len(gens)
    if kind == "drop":
        del gens[k]
    elif kind == "square":
        gens[k] = BigradedMonomial(gens[k].coeff ** 2, gens[k].degree)
    return tuple(gens)


def _tamper_chains(chains, kind, pick):
    """Remove an interior element of one chain (a det-2 step), drop its
    ray_low, reverse it, or move its first element h to h + e, e the next
    one (the step stays det 1, but the chain no longer starts at ray_high);
    None when no chain is long enough."""
    needs = {"interior": 3, "no_low": 1, "reversed": 2, "moved_high": 2}[kind]
    long_enough = [i for i, chain in enumerate(chains) if len(chain) >= needs]
    if not long_enough:
        return None
    i = long_enough[pick % len(long_enough)]
    chain = chains[i]
    if kind == "interior":
        k = 1 + pick % (len(chain) - 2)
        chain = chain[:k] + chain[k + 1 :]
    elif kind == "no_low":
        chain = chain[:-1]
    elif kind == "moved_high":
        chain = (chain[0] + chain[1],) + chain[1:]
    else:
        chain = chain[::-1]
    return chains[:i] + (chain,) + chains[i + 1 :]


def _bump_repeated_column(gens, a, b, pick, r_max, s_max):
    """Raise exponent k of one generator whose degree lies on the grid by 1,
    k the later occurrence of a repeated column (a_k, b_k): an oracle that
    compared only the distinct columns would miss it."""
    first = {}
    later = [k for k, column in enumerate(zip(a, b)) if first.setdefault(column, k) != k]
    on_grid = [g for g, bm in enumerate(gens) if bm.degree.r <= r_max and bm.degree.s <= s_max]
    assume(later and on_grid)
    k, g = later[pick % len(later)], on_grid[pick % len(on_grid)]
    exponents = list(gens[g].coeff.exponents)
    exponents[k] += 1
    return gens[:g] + (BigradedMonomial(M(tuple(exponents)), gens[g].degree),) + gens[g + 1 :]


def _tampered_fan(fan, kind, pick):
    """A stand-in for ``fan`` with one chain tampered, or ``fan`` itself."""
    if kind not in ("interior", "no_low", "reversed", "moved_high"):
        return fan
    chains = _tamper_chains(fan.chains, kind, pick)
    assume(chains is not None)
    return SimpleNamespace(cones=fan.cones, chains=chains)


def _nondegenerate(fan, pick):
    """The index of one cone of ``fan`` whose rays differ, not the last one:
    the per-cell reference's ``locate`` needs the ray_low (1,0) it ends on."""
    spread = [i for i, c in enumerate(fan.cones[:-1]) if c.ray_low != c.ray_high]
    assume(spread)
    return spread[pick % len(spread)]


def _without_a_ray(a, b, fan, pick):
    """A stand-in for ``fan`` without one column ray q: the cones around q
    merge, each chain is the merged cone's Hilbert basis, and the generators
    equal the oracle at its chain degrees.  Only if q is then no chain
    element does the oracle bend inside a cone; None if no ray qualifies."""
    rays = [c.ray_high for c in fan.cones] + [fan.cones[-1].ray_low]
    inner = list(dict.fromkeys(q for q in rays if q not in (P(0, 1), P(1, 0))))
    if not inner:
        return None
    start = pick % len(inner)
    for q in inner[start:] + inner[:start]:
        rest = [x for x in rays if x != q]
        cones = tuple(_cone(low, high) for high, low in zip(rest, rest[1:]))
        chains = tuple(hilbert_basis(c).elements for c in cones)
        if all(q not in chain for chain in chains):
            degrees = dict.fromkeys(e for chain in chains for e in chain)
            gens = tuple(
                BigradedMonomial(principal_intersection(a, b, e.r, e.s), e) for e in degrees
            )
            return GeneratorSet(gens, SimpleNamespace(cones=cones, chains=chains))
    return None


def _tampered(a, b, gs, kind, pick, r_max, s_max):
    """``(gens, r_max, s_max)``: the generator set ``gs`` of (a, b) with one
    tampering of ``TAMPERINGS`` (``gs`` itself for "none"), and the grid."""
    fan = gs.fan
    if kind in CHAIN_TAMPERINGS:
        gens = GeneratorSet(
            _tamper_generators(gs.generators, kind, pick), _tampered_fan(fan, kind, pick)
        )
    elif kind == "no_cone":
        i = _nondegenerate(fan, pick)
        cones, chains = fan.cones[:i] + fan.cones[i + 1 :], fan.chains[:i] + fan.chains[i + 1 :]
        gens = GeneratorSet(gs.generators, SimpleNamespace(cones=cones, chains=chains))
    elif kind == "swapped":
        i = _nondegenerate(fan, pick)
        swapped = _cone(fan.cones[i].ray_high, fan.cones[i].ray_low)
        cones = fan.cones[:i] + (swapped,) + fan.cones[i + 1 :]
        gens = GeneratorSet(gs.generators, SimpleNamespace(cones=cones, chains=fan.chains))
    elif kind == "foreign":
        gens = _without_a_ray(a, b, fan, pick)
        assume(gens is not None)
    elif kind == "repeat":
        bumped = _bump_repeated_column(gs.generators, a, b, pick, r_max, s_max)
        gens = GeneratorSet(bumped, fan)
    else:  # "outside": square the generator at a degree e, and keep e off the grid
        k = pick % len(gs.generators)
        e = gs.generators[k].degree
        if e.r <= r_max and e.s <= s_max:
            r_max, s_max = (e.r - 1, s_max) if e.r else (r_max, e.s - 1)
        gens = GeneratorSet(_tamper_generators(gs.generators, "square", k), fan)
    return gens, r_max, s_max


def _walked(a, b, gens, r_max, s_max):
    """``verify_generation``'s outcome, and whether it walked the grid,
    which it does exactly when its certificate fails."""
    walks = []

    def counted(*args):
        walks.append(args)
        return _verify_grid(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_verify_grid", counted)
        outcome = _outcome(verify_generation, a, b, gens, r_max, s_max)
    return outcome, bool(walks)


def _outcome(verify, *args):
    try:
        report = verify(*args)
    except PowerCapError as e:
        return "PowerCapError", str(e)
    return report.passed, report.total, report.failures, report.first_failure, report.reason


def _pairs(n, top=6):
    entries = st.lists(st.integers(0, top), min_size=n, max_size=n)
    return st.tuples(entries, entries).filter(lambda ab: any(ab[0]) and any(ab[1]))


pairs = st.one_of(st.integers(1, 6).flatmap(_pairs), _pairs(40))
grid = st.integers(0, 15)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs, grid, grid, st.sampled_from(TAMPERINGS), st.integers(0, 10**6))
def test_verify_generation_matches_per_cell_reference(ab, r_max, s_max, kind, pick):
    a, b = ab
    gens, r_max, s_max = _tampered(a, b, intersection_generators(a, b), kind, pick, r_max, s_max)
    outcome, walked = _walked(a, b, gens, r_max, s_max)
    assert outcome == _outcome(reference_verify_generation, a, b, gens, r_max, s_max)
    assert walked == (kind != "none")


@st.composite
def repeated_pairs(draw):
    """A pair of 1-6 columns with entries 0..6 and one column repeated."""
    a, b = draw(st.integers(1, 6).flatmap(_pairs))
    j = draw(st.integers(0, len(a) - 1))
    at = draw(st.integers(j + 1, len(a)))
    return a[:at] + [a[j]] + a[at:], b[:at] + [b[j]] + b[at:]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(repeated_pairs(), st.integers(1, 8), st.integers(1, 8), st.integers(0, 10**6))
@example(([2, 5, 2], [1, 1, 1]), 3, 3, 0)
@example(([0, 3, 0, 0], [0, 1, 0, 2]), 2, 4, 1)  # a repeated both-zero column
def test_bump_at_a_repeated_column_fails_both_verifiers(ab, r_max, s_max, pick):
    """One exponent of a generator on the grid, raised by 1 at the later
    occurrence of a repeated column, is rejected by the certificate, and
    both verifiers and their per-cell references fail it alike."""
    a, b = ab
    gens, _, _ = _tampered(a, b, intersection_generators(a, b), "repeat", pick, r_max, s_max)
    coeffs = {bm.degree: bm.coeff.exponents for bm in gens.generators}
    assert not generators._certified(*_exponent_kernel(tuple(a), tuple(b)), gens.fan, coeffs)
    outcome, walked = _walked(a, b, gens, r_max, s_max)
    assert walked and outcome[0] is False
    assert outcome == _outcome(reference_verify_generation, a, b, gens, r_max, s_max)
    spec = intersection_as_fan_algebra(a, b)
    bumped = _bump_repeated_column(fan_algebra_generators(spec), a, b, pick, r_max, s_max)
    outcome = _outcome(verify_fan_algebra, spec, bumped, r_max, s_max)
    assert outcome[0] is False
    cap = DEFAULT_MAX_CANDIDATES
    assert outcome == _outcome(reference_verify_fan_algebra, spec, bumped, r_max, s_max, cap)


@st.composite
def wide_pairs(draw):
    """1-200 columns (g*x, g*y) with x, y <= 4, so every cone keeps a small
    determinant while entries reach 10**6, and in one column pass 2**64;
    columns with b_k = 0, a_k = 0 or both zero occur."""
    n = draw(st.integers(1, 200))
    shape = st.tuples(st.integers(0, 4), st.integers(0, 4))
    shapes = draw(st.lists(shape, min_size=n, max_size=n))
    scales = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    huge = draw(st.integers(0, n))  # the column scaled past 2**64, or none
    if huge < n:
        scales[huge] = 2**64 + scales[huge]
    a = [g * x for g, (x, _) in zip(scales, shapes)]
    b = [g * y for g, (_, y) in zip(scales, shapes)]
    assume(any(a) and any(b))
    return a, b


def _field_width(a, b, gs, r_max, s_max):
    """A bit width, in whole bytes, above every oracle, generator and
    product entry of the grid: an entry raised by 2**width lies outside
    every value the verifier could otherwise meet."""
    reach = max(max(e.r, e.s) for chain in gs.fan.chains for e in chain)
    largest = max(x for g in gs.generators for x in g.coeff.exponents)
    bound = max(r_max * max(a), s_max * max(b), largest, (r_max + s_max) * reach * largest)
    return 8 * ((bound.bit_length() + 7) // 8)


def _carry(gens, width, pick):
    """Raise entry k of one coefficient by 2**width and lower entry k + 1 by
    1: a different exponent vector whose sum of v_k * 2**(width*k) is the
    same integer as before, so a verifier that compared such sums would
    alias the two."""
    spots = [
        (g, k) for g, bm in enumerate(gens) for k, y in enumerate(bm.coeff.exponents[1:]) if y
    ]
    assume(spots)
    g, k = spots[pick % len(spots)]
    exponents = list(gens[g].coeff.exponents)
    exponents[k] += 2**width
    exponents[k + 1] -= 1
    return gens[:g] + (BigradedMonomial(M(tuple(exponents)), gens[g].degree),) + gens[g + 1 :]


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    wide_pairs(),
    st.integers(0, 12),
    st.integers(0, 12),
    st.sampled_from(TAMPERINGS + ("carry",)),
    st.integers(0, 10**6),
)
@example(((2, 1), (1, 2)), 4, 4, "carry", 0)
@example(((3, 0, 1), (1, 2, 0)), 0, 9, "carry", 0)
@example(((6, 0, 1), (1, 2, 0)), 7, 0, "carry", 13)
def test_packed_verifier_matches_reference_on_wide_and_large_pairs(ab, r_max, s_max, kind, pick):
    """On up to 200 columns with entries past 2**64, every tampering, and a
    "carry" that changes a coefficient into another vector with the same
    sum of v_k * 2**(width*k), report the per-cell reference's outcome."""
    a, b = ab
    gs = intersection_generators(a, b)
    if kind == "carry":
        width = _field_width(a, b, gs, r_max, s_max)
        gens = GeneratorSet(_carry(gs.generators, width, pick), gs.fan)
    else:
        gens, r_max, s_max = _tampered(a, b, gs, kind, pick, r_max, s_max)
    outcome, walked = _walked(a, b, gens, r_max, s_max)
    assert outcome == _outcome(reference_verify_generation, a, b, gens, r_max, s_max)
    assert walked == (kind != "none")


def test_product_fields_past_the_generator_width_do_not_carry():
    """At (5, 1) the product 4*(65, 1) + (1, 0) = (261, 4) differs from the
    oracle (5, 5) although both are 5 + 5*256 read as base-256 digits, a
    base that holds every generator and oracle entry: a product entry past
    every generator entry must not alias another vector."""
    a, b = (1, 1), (1, 1)
    gs = intersection_generators(a, b)
    swap = {P(1, 0): (65, 1), P(1, 1): (1, 0)}
    gens = GeneratorSet(
        tuple(BigradedMonomial(M(swap.get(g.degree, g.coeff.exponents)), g.degree)
              for g in gs.generators),
        gs.fan,
    )
    outcome = _outcome(verify_generation, a, b, gens, 5, 1)
    assert outcome == _outcome(reference_verify_generation, a, b, gens, 5, 1)
    assert outcome[2] == 10  # every cell but (0, 0) and (0, 1)


def test_row_zero_grid_packs_no_entry_of_a():
    """On a grid with r_max = 0 only the generator at (0, 1), here b, is
    used, so a set without the generators at r > 0 passes every cell,
    however large a = (1000, 1) is."""
    a, b = (1000, 1), (0, 1)
    gs = intersection_generators(a, b)
    gens = GeneratorSet(tuple(g for g in gs.generators if g.degree.r == 0), gs.fan)
    outcome = _outcome(verify_generation, a, b, gens, 0, 3)
    assert outcome == _outcome(reference_verify_generation, a, b, gens, 0, 3)
    assert outcome[0] is True


@pytest.mark.parametrize("a,b", [((1, 0), (0, 1)), ((1, 1), (1, 1))])
def test_certificate_rejects_a_chain_that_leaves_the_quadrant(a, b):
    """The first chain, from (0,1), gets a det-1 lap of the whole circle
    first, through (1,0), (0,-1) and (-1,0), with generators equal to
    max(r*a_k, s*b_k) at the new degrees: only the certificate's N^2 check
    rejects it, and the walk's report is the verdict."""
    gs = intersection_generators(a, b)
    lap = tuple(_point(r, s) for r, s in [(0, 1), (1, 0), (0, -1), (-1, 0)])
    chains = (lap + gs.fan.chains[0],) + gs.fan.chains[1:]
    extra = tuple(
        BigradedMonomial(M(tuple(max(p.r * x, p.s * y) for x, y in zip(a, b))), p)
        for p in lap[2:]
    )
    gens = GeneratorSet(gs.generators + extra, SimpleNamespace(cones=gs.fan.cones, chains=chains))
    assert _walked(a, b, gens, 4, 4) == (
        _outcome(reference_verify_generation, a, b, gens, 4, 4), True
    )


def _diagonal_spec():
    """The maximal ideal of k[x, y] with pieces (1, 2) and (2, 1)."""
    fan = build_fan((1,), (1,))
    function = check_fan_linear(fan, ((1, 2), (2, 1)))
    return FanAlgebraSpec(("x", "y"), (maximal_ideal(2),), (function,))


def _two_ideal_spec():
    """I_1 = (x, y^2) and I_2 = (y) with the max(r*a_k, s*b_k) pieces of
    a = (2, 1), b = (1, 2)."""
    fan = build_fan((2, 1), (1, 2))
    return FanAlgebraSpec(
        ("x", "y"),
        (MonomialIdeal(2, [M((1, 0)), M((0, 2))]), MonomialIdeal(2, [M((0, 1))])),
        (
            check_fan_linear(fan, ((0, 1), (2, 0), (2, 0))),
            check_fan_linear(fan, ((0, 2), (0, 2), (1, 0))),
        ),
    )


NON_PRINCIPAL = (
    _diagonal_spec,
    _two_ideal_spec,
    lambda: principal_cap_algebra(2, M((1, 1))),
    lambda: principal_cap_algebra(3, M((1, 0, 0))),
)


specs_and_grids = st.one_of(
    st.tuples(
        st.integers(1, 3)
        .flatmap(lambda n: _pairs(n, top=4))
        .map(lambda ab: intersection_as_fan_algebra(*ab)),
        grid,
        grid,
    ),
    st.tuples(
        st.sampled_from(NON_PRINCIPAL).map(lambda make: make()),
        st.integers(0, 8),
        st.integers(0, 8),
    ),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs_and_grids, st.sampled_from(CHAIN_TAMPERINGS), st.integers(0, 10**6))
def test_verify_fan_algebra_matches_per_cell_reference(spec_and_grid, kind, pick):
    spec, r_max, s_max = spec_and_grid
    gens = _tamper_generators(fan_algebra_generators(spec), kind, pick)
    fan = _tampered_fan(spec.fan, kind, pick)
    if fan is not spec.fan:
        spec = FanAlgebraSpec(
            spec.variables,
            spec.ideals,
            tuple(FanLinearFunction(fan, f.pieces) for f in spec.functions),
        )
    cap = 100_000
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CONEALG_MAX_CANDIDATES", str(cap))
        assert _outcome(verify_fan_algebra, spec, gens, r_max, s_max) == _outcome(
            reference_verify_fan_algebra, spec, gens, r_max, s_max, cap
        )


# Pairs whose fans have several cones on the ray (1,0) (entries a_k = 0),
# several on (0,1) (entries b_k = 0), both, or a repeated interior ray.
EDGE_PAIRS = [
    ((5, 2), (2, 3)),
    ((3, 0, 0), (1, 2, 5)),
    ((1, 2, 3), (0, 0, 4)),
    ((4, 0, 2, 0), (0, 3, 0, 1)),
    ((1, 1, 2), (1, 1, 2)),
    ((1, 0), (0, 1)),
]


@pytest.mark.parametrize("a,b", EDGE_PAIRS)
@pytest.mark.parametrize("r_max,s_max", [(0, 0), (0, 9), (9, 0), (9, 9)])
def test_row_walk_matches_locate_and_bisection(a, b, r_max, s_max):
    """Every cell, in order, gets the cone ``locate`` gives and the factors
    ``unimodular_decomposition`` gives along that cone's chain."""
    fan = build_fan(a, b)
    available = {e: e for chain in fan.chains for e in chain}
    visits = []

    def product(factors):
        return sorted(factors)

    def component(i, r, s):
        visits.append((i, r, s))
        return sorted(unimodular_decomposition(P(r, s), fan.chains[i]))

    report = _verify_grid(fan, available, r_max, s_max, product, component, ("", ""))
    assert report.passed and report.total == (r_max + 1) * (s_max + 1)
    assert visits == [
        (locate(fan, P(r, s)), r, s) for r in range(r_max + 1) for s in range(s_max + 1)
    ]


def _verify_intersection(r_max, s_max):
    gens = intersection_generators((5, 2), (2, 3))
    return verify_generation((5, 2), (2, 3), gens, r_max, s_max)


def _verify_spec(r_max, s_max):
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    return verify_fan_algebra(spec, fan_algebra_generators(spec), r_max, s_max)


EMPTY_FAN = Fan((5, 2), (2, 3), (0, 1), ())


def _verify_intersection_without_cones(r_max, s_max):
    gens = GeneratorSet(intersection_generators((5, 2), (2, 3)).generators, EMPTY_FAN)
    return verify_generation((5, 2), (2, 3), gens, r_max, s_max)


def _verify_spec_without_cones(r_max, s_max):
    function = FanLinearFunction(EMPTY_FAN, ())  # check_fan_linear rejects a fan without cones
    spec = FanAlgebraSpec(("x", "y"), (maximal_ideal(2),), (function,))
    return verify_fan_algebra(spec, fan_algebra_generators(spec), r_max, s_max)


@pytest.mark.parametrize(
    "verify,reason",
    [
        (_verify_intersection_without_cones, "no decomposition into available generators"),
        (_verify_spec_without_cones, "no decomposition into available generator degrees"),
    ],
)
def test_a_fan_without_cones_fails_every_cell(verify, reason):
    """No cone holds a cell, so none decomposes: a report, not an IndexError."""
    assert _outcome(verify, 2, 2) == (False, 9, 9, P(0, 0), reason)


# Tamperings of a fan's order: its cones shuffled (each chain moved along
# with its cone), one chain shuffled, two neighbours of one chain swapped, or
# its last chain dropped.  ``locate`` can then run past the last cone, and a
# cone can be left without a chain.
ORDER_TAMPERINGS = ("shuffled_cones", "shuffled_chain", "swapped_neighbours", "dropped_chain")


def _reordered_fan(fan, kind, rng):
    """A stand-in for ``fan`` with one tampering of ``ORDER_TAMPERINGS``."""
    cones, chains = list(fan.cones), list(fan.chains)
    if kind == "shuffled_cones":
        order = list(range(len(cones)))
        rng.shuffle(order)
        cones, chains = [cones[k] for k in order], [chains[k] for k in order]
    elif kind == "dropped_chain":
        chains.pop()
    else:  # every fan has a cone whose rays differ, so a chain of 2 or more
        i = rng.choice([i for i, chain in enumerate(chains) if len(chain) > 1])
        chain = list(chains[i])
        if kind == "shuffled_chain":
            rng.shuffle(chain)
        else:
            j = rng.randrange(len(chain) - 1)
            chain[j], chain[j + 1] = chain[j + 1], chain[j]
        chains[i] = tuple(chain)
    return SimpleNamespace(cones=tuple(cones), chains=tuple(chains))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(_pairs),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from(ORDER_TAMPERINGS),
    st.randoms(use_true_random=False),
)
@example(([5, 2], [2, 3]), 4, 4, "dropped_chain", Random(0))
def test_walk_reports_on_a_reordered_fan(ab, r_max, s_max, kind, rng):
    """On a fan whose cones or chains are out of order, or which has one
    chain fewer than it has cones, ``verify_generation`` returns a report,
    never raises.  Where the per-cell reference answers, the reports agree;
    where it raises IndexError (``locate`` ran past the last cone, or the
    cone has no chain), some cell has no chain to decompose along, so the
    report is a failure."""
    a, b = ab
    gs = intersection_generators(a, b)
    gens = GeneratorSet(gs.generators, _reordered_fan(gs.fan, kind, rng))
    report = verify_generation(a, b, gens, r_max, s_max)
    try:
        expected = reference_verify_generation(a, b, gens, r_max, s_max)
    except IndexError:
        assert not report.passed
    else:
        assert report == expected


def test_verify_fan_algebra_fails_the_cells_of_a_cone_without_a_chain():
    """A spec whose fan lacks its last chain fails exactly the cells of its
    last cone, with the first reason, and passes the others."""
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    gens = fan_algebra_generators(spec)
    fan = SimpleNamespace(cones=spec.fan.cones, chains=spec.fan.chains[:-1])
    spec = FanAlgebraSpec(
        spec.variables,
        spec.ideals,
        tuple(FanLinearFunction(fan, f.pieces) for f in spec.functions),
    )
    last = [
        P(r, s) for r in range(5) for s in range(5) if locate(fan, P(r, s)) == len(fan.cones) - 1
    ]
    assert _outcome(verify_fan_algebra, spec, gens, 4, 4) == (
        False, 25, len(last), last[0], "no decomposition into available generator degrees"
    )


def test_verify_generation_reports_a_chain_holding_only_the_origin():
    """The origin as a one-element chain writes only the origin: the other
    cells of its cone fail with the first reason, and nothing divides by
    zero."""
    gs = intersection_generators((5, 2), (2, 3))
    fan = SimpleNamespace(cones=gs.fan.cones, chains=((P(0, 0),),) + gs.fan.chains[1:])
    gens = GeneratorSet(gs.generators, fan)
    assert _outcome(verify_generation, (5, 2), (2, 3), gens, 3, 3) == (
        False, 16, 4, P(0, 1), "no decomposition into available generators"
    )


def test_verify_fan_algebra_reports_a_chain_holding_only_the_origin():
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    gens = fan_algebra_generators(spec)
    fan = Fan(spec.fan.a, spec.fan.b, spec.fan.order, spec.fan.cones)  # hand-built
    vars(fan)["chains"] = ((P(0, 0),),) + spec.fan.chains[1:]
    spec = FanAlgebraSpec(
        spec.variables,
        spec.ideals,
        tuple(FanLinearFunction(fan, f.pieces) for f in spec.functions),
    )
    assert _outcome(verify_fan_algebra, spec, gens, 3, 3) == (
        False, 16, 4, P(0, 1), "no decomposition into available generator degrees"
    )


def test_walk_fails_the_cells_past_the_last_cone():
    """With only the first cone kept and every chain, ``locate`` places the
    cells below that cone past it: they have no cone, so they fail with the
    first reason even though a chain sits at their index."""
    gs = intersection_generators((5, 2), (2, 3))
    fan = SimpleNamespace(cones=gs.fan.cones[:1], chains=gs.fan.chains)
    gens = GeneratorSet(gs.generators, fan)
    assert _outcome(verify_generation, (5, 2), (2, 3), gens, 3, 3) == (
        False, 16, 11, P(1, 0), "no decomposition into available generators"
    )


@pytest.mark.parametrize("verify", [_verify_intersection, _verify_spec])
@pytest.mark.parametrize(
    "r_max,s_max,message",
    [
        (2.5, 2, "grid bounds must be integers, got 2.5"),
        (1, 1.5, "grid bounds must be integers, got 1.5"),
        (True, 2, "grid bounds must be integers, got True"),
        (2, "3", "grid bounds must be integers, got '3'"),
        (None, 2, "grid bounds must be integers, got None"),
        (-1, 2, "grid bounds must be nonnegative"),
        (2, -1, "grid bounds must be nonnegative"),
    ],
)
def test_both_verifiers_check_the_grid_bounds_first(verify, r_max, s_max, message):
    with pytest.raises(ValueError) as info:
        verify(r_max, s_max)
    assert str(info.value) == message


def test_certified_generators_pass_a_large_grid_without_walking_it(deadline):
    """The certificate's cost does not grow with the grid: 10**6 cells, the
    default cap, answer in far less than a walk over them takes."""
    gs = intersection_generators((5, 2), (2, 3))
    with deadline(0.5):
        report = verify_generation((5, 2), (2, 3), gs, 999, 999)
    assert report.summary() == "PASS 1000000/1000000 components"


def test_failing_walk_of_many_variables_matches_reference(deadline):
    """The 200-variable pair of tools/cli_digest.py without its first
    generator fails its certificate, so the 60x60 grid is walked, one
    200-entry exponent tuple per cell, within a generous bound."""
    a = tuple(k % 7 for k in range(200))
    b = tuple(3 * k % 5 for k in range(200))
    gs = intersection_generators(a, b)
    gens = GeneratorSet(gs.generators[1:], gs.fan)
    with deadline(5):
        outcome, walked = _walked(a, b, gens, 60, 60)
    assert walked and outcome[0] is False
    assert outcome == _outcome(reference_verify_generation, a, b, gens, 60, 60)


@pytest.mark.parametrize("kind", ["none", "drop"])
def test_grid_cap_applies_whether_certified_or_walked(kind, monkeypatch):
    """A certified set and a set whose certificate fails raise the same
    PowerCapError for a grid past the cap, and pass at the cap."""
    a, b = (5, 2), (2, 3)
    gens, _, _ = _tampered(a, b, intersection_generators(a, b), kind, 0, 0, 0)
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", "30")
    with pytest.raises(PowerCapError) as info:
        verify_generation(a, b, gens, 5, 5)
    assert str(info.value) == "grid too large: 36 cells exceed cap 30"
    assert _walked(a, b, gens, 4, 5) == (
        _outcome(reference_verify_generation, a, b, gens, 4, 5), kind != "none"
    )


def test_certificate_needs_every_oracle_field_to_fit_the_width():
    """a = (256, 1), b = (0, 1) on the 1x1 grid: the generator (0, 2) at the
    degrees (1, 1) and (1, 0) is not the oracle (256, 1) there, though both
    are 512 read as base-256 digits, a base that holds every generator
    below.  The walk passes, since the cell (0, 0) uses no generator; the
    certificate, which compares every entry of the exponent tuples, must
    not."""
    a, b = (256, 1), (0, 1)
    gs = intersection_generators(a, b)
    alias = {P(1, 1): M((0, 2)), P(1, 0): M((0, 2))}
    gens = GeneratorSet(
        tuple(BigradedMonomial(alias.get(g.degree, g.coeff), g.degree) for g in gs.generators),
        gs.fan,
    )
    assert [g.degree for g in gs.generators] == [P(0, 1), P(1, 1), P(1, 0)]
    assert _walked(a, b, gens, 0, 0) == ((True, 1, 0, None, None), True)

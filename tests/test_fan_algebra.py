import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conealg import (
    BigradedMonomial,
    FanAlgebraSpec,
    FanLinearFunction,
    FanLinearityError,
    LatticePoint2,
    Monomial,
    MonomialIdeal,
    PowerCapError,
    SpecFormatError,
    build_fan,
    check_fan_linear,
    cone,
    fan_algebra_generators,
    hilbert_basis,
    ideal_power,
    ideal_product,
    intersection_as_fan_algebra,
    intersection_generators,
    load_fan_algebra_spec,
    maximal_ideal,
    principal_cap_algebra,
    principal_cap_generators,
    principal_cap_maximal_power,
    verify_fan_algebra,
)
from conealg.cli import main
from conealg.fan_algebra import _product_of_powers, graded_component
from conealg.fans import Fan
from conealg.lattice import det
from conealg.monomials import default_variables
from oracles import (
    brute_intersection,
    brute_subadditivity_witness,
    divides,
    frac_piece_value,
    iterated_power,
    random_exponent_pair,
    reference_product_of_powers,
    reference_subadditivity_scan,
)
from strategies import column_pairs

P = LatticePoint2
M = Monomial

DIAGONAL_FAN = build_fan((1,), (1,))


def diagonal_function():
    return check_fan_linear(DIAGONAL_FAN, ((1, 2), (2, 1)))


def diagonal_spec():
    return FanAlgebraSpec(("x", "y"), (maximal_ideal(2),), (diagonal_function(),))


def test_accepts_valid_function():
    f = diagonal_function()
    assert f(P(1, 3)) == 7  # piece r + 2s above the diagonal
    assert f(P(3, 1)) == 7  # piece 2r + s below
    assert f(P(2, 2)) == 6  # shared ray, both pieces agree


def test_rejects_face_disagreement():
    with pytest.raises(FanLinearityError) as info:
        check_fan_linear(DIAGONAL_FAN, ((1, 2), (1, 0)))
    assert info.value.condition == "face_agreement"
    assert info.value.witness == P(1, 1)
    assert "3 != 1" in str(info.value)


def test_rejects_swapped_pieces_with_subadditivity_witness():
    with pytest.raises(FanLinearityError) as info:
        check_fan_linear(DIAGONAL_FAN, ((2, 1), (1, 2)))
    assert info.value.condition == "subadditivity"
    assert info.value.witness == (P(0, 1), P(1, 0))
    assert "1+1 < f(1,1) = 3" in str(info.value)


def test_rejects_negative_value_on_cone():
    with pytest.raises(FanLinearityError) as info:
        check_fan_linear(DIAGONAL_FAN, ((-1, 0), (0, -1)))
    assert info.value.condition == "nonnegativity"


def test_rejects_wrong_piece_count():
    with pytest.raises(ValueError, match="per cone"):
        check_fan_linear(DIAGONAL_FAN, ((1, 2),))


@pytest.mark.parametrize(
    "pieces,message",
    [
        (((1, 2, 3), (2, 1)), "piece 0: expected a pair (alpha, beta), got 3 entries"),
        (((1, 2), (2,)), "piece 1: expected a pair (alpha, beta), got 1 entries"),
        ([(1, 2, 3)] * 2, "piece 0: expected a pair (alpha, beta), got 3 entries"),
    ],
)
def test_rejects_a_piece_that_is_not_a_pair(pieces, message):
    with pytest.raises(ValueError) as info:
        check_fan_linear(DIAGONAL_FAN, pieces)
    assert str(info.value) == message


def test_negative_coefficients_allowed_when_nonnegative_on_cone():
    fan = build_fan((2,), (1,))
    f = check_fan_linear(fan, ((-2, 1), (0, 0)))
    assert f(P(0, 1)) == 1
    assert f(P(1, 2)) == 0  # on the wall of slope 2
    assert f(P(1, 5)) == 3
    assert f(P(4, 1)) == 0


def test_subadditivity_witness_never_contradicts_exact_decision():
    # accepted function: sampling finds no violation
    f = diagonal_function()
    rng = random.Random(61)
    for _ in range(2000):
        p = P(rng.randint(0, 30), rng.randint(0, 30))
        q = P(rng.randint(0, 30), rng.randint(0, 30))
        assert f(p) + f(q) >= f(p + q)
    # rejected function: the reported witness is a genuine violation
    with pytest.raises(FanLinearityError) as info:
        check_fan_linear(DIAGONAL_FAN, ((2, 1), (1, 2)))
    p, q = info.value.witness

    def raw(point):
        alpha, beta = (2, 1) if point.s >= point.r else (1, 2)
        return alpha * point.r + beta * point.s

    assert raw(p) + raw(q) < raw(p + q)

    # max(tops) + min(bottoms) of nonnegative forms, linear on every cone of a
    # fan through all their crossing rays: every rejection's witness holds
    # for the pieces read through Fraction cone membership, and no acceptance
    # has a witness of coordinate total up to 12
    @settings(max_examples=300, deadline=None)
    @given(max_plus_min_functions())
    # w + q reaches the violating cone only at q = 5*(1,0)
    @example(max_plus_min([(0, 4), (1, 0)], [(0, 5), (1, 0)], [(1, 1), (1, 1)]))
    def family(candidate):
        fan, pieces = candidate

        @functools.cache
        def value(p):
            return frac_piece_value(fan.cones, pieces, p)

        try:
            check_fan_linear(fan, pieces)
        except FanLinearityError as e:
            assert e.condition == "subadditivity"
            p, q = e.witness
            assert value(p) + value(q) < value(p + q)
            assert str(e) == f"f{p}+f{q} = {value(p)}+{value(q)} < f{p + q} = {value(p + q)}"
        else:
            assert brute_subadditivity_witness(value, 12) is None

    family()


def max_plus_min(tops, bottoms, extra_rays):
    """(fan, pieces) of f = max(tops) + min(bottoms) over nonnegative linear
    forms (alpha, beta), on a fan whose rays (r, s) are every crossing ray of
    two forms plus the extra rays."""
    rays = [
        (abs(b1 - b2), abs(a1 - a2))
        for (a1, b1), (a2, b2) in itertools.combinations(tops + bottoms, 2)
        if (a1 - a2) * (b1 - b2) < 0
    ] + extra_rays
    fan = build_fan([s for _, s in rays], [r for r, _ in rays])

    def at(form, p):
        return form[0] * p.r + form[1] * p.s

    pieces = []
    for c in fan.cones:
        inside = c.ray_low + c.ray_high  # interior unless the cone is degenerate
        top = max(tops, key=lambda form: at(form, inside))
        bottom = min(bottoms, key=lambda form: at(form, inside), default=(0, 0))
        pieces.append((top[0] + bottom[0], top[1] + bottom[1]))
    return fan, pieces


FORMS = st.tuples(st.integers(0, 7), st.integers(0, 7))


@st.composite
def max_plus_min_functions(draw):
    """max_plus_min over random forms, with some random extra rays and one
    ray given twice (a degenerate cone)."""
    tops = draw(st.lists(FORMS, min_size=1, max_size=3))
    bottoms = draw(st.lists(FORMS, max_size=3))
    extra = draw(st.lists(FORMS.filter(any), max_size=3))
    extra += [draw(st.tuples(st.integers(1, 7), st.integers(1, 7)))] * 2
    return max_plus_min(tops, bottoms, extra)


def test_thin_cone_rejection_witness_is_built_not_searched(deadline):
    # the kink sits in a det-1 cone between rays (1000,999) and (999,998);
    # no violating pair has a small coordinate total
    fan = build_fan((999, 998), (1000, 999))
    with deadline(2), pytest.raises(FanLinearityError) as info:
        check_fan_linear(fan, [(0, 0), (999, -1000), (1, -1)])
    assert info.value.condition == "subadditivity"
    assert info.value.witness == (P(1, 0), P(1000, 999))


@st.composite
def ray_valued_functions(draw):
    """(fan, pieces) on the fan of a random pair, degenerate cones included,
    with each piece solved from one value per ray: random values, those of
    the max of random forms (convex, so fan-linear), or those with one ray's
    value lowered (a dent, concave only around that ray).  The values are
    scaled by the product of the cone determinants, so that every piece is
    integral; a degenerate cone's piece is a random integer solution on its
    ray.  Nonnegative and face-agreeing by construction."""
    fan = build_fan(*draw(column_pairs(max_columns=12)))
    rays = dict.fromkeys(w for c in fan.cones for w in (c.ray_high, c.ray_low))
    kind = draw(st.sampled_from(("random", "convex", "dent")))
    if kind == "random":
        values = {w: draw(st.integers(0, 9)) for w in rays}
    else:
        forms = draw(st.lists(FORMS, min_size=1, max_size=6))
        values = {w: max(alpha * w.r + beta * w.s for alpha, beta in forms) for w in rays}
    if kind == "dent":
        w = draw(st.sampled_from(list(rays)))
        values[w] = max(0, values[w] - draw(st.integers(1, 9)))
    scale = math.prod(det(c.ray_low, c.ray_high) for c in fan.cones if not c.is_degenerate)
    pieces = []
    for c in fan.cones:
        low, high = c.ray_low, c.ray_high
        v_low, v_high = scale * values[low], scale * values[high]
        d = det(low, high)
        if d:  # alpha*r + beta*s = v at both rays, by Cramer
            pieces.append(((v_low * high.s - v_high * low.s) // d,
                           (v_high * low.r - v_low * high.r) // d))
        else:  # x*r + y*s = 1 on the primitive ray, plus t times (s, -r)
            x = pow(low.r, -1, low.s) if low.s else 1
            y = (1 - x * low.r) // low.s if low.s else 0
            t = draw(st.integers(-3, 3))
            pieces.append((v_low * x + t * low.s, v_low * y - t * low.r))
    return fan, pieces


@settings(max_examples=500, deadline=None)
@given(ray_valued_functions())
def test_wall_check_decides_as_the_ray_scan(candidate):
    # check_fan_linear decides by one sweep over the upper hull of the
    # pieces; the ray scan is the reference for acceptance, condition,
    # message and witness
    fan, pieces = candidate
    f = FanLinearFunction(fan, tuple(pieces))
    try:
        reference_subadditivity_scan(f)
        expected = None
    except FanLinearityError as e:
        expected = (e.condition, str(e), e.witness)
    try:
        assert check_fan_linear(fan, pieces) == f and expected is None
    except FanLinearityError as e:
        assert (e.condition, str(e), e.witness) == expected


@pytest.mark.parametrize(
    "cones,pieces,fault",
    [
        # cone 1 spans the quadrant, so cone 0's ray_low (1,2) is not cone 1's
        # ray_high (0,1); the ray scan reported f(0,0)+f(0,1) = 0+1 < f(0,1) = 1,
        # which is no violation
        ((cone(P(0, 1), P(1, 2)), cone(P(0, 1), P(1, 0))), ((0, 1), (2, 0)),
         "cone 0 ends at (1,2), cone 1 starts at (0,1)"),
        # cone 1 overlaps cone 0: the witness construction left N^2
        ((cone(P(1, 1), P(0, 1)), cone(P(1, 0), P(1, 2))), ((0, 2), (1, 1)),
         "cone 0 ends at (1,1), cone 1 starts at (1,2)"),
        ((cone(P(1, 2), P(1, 0)),), ((0, 0),), "cone 0 starts at (1,2), not (0,1)"),
        ((cone(P(0, 1), P(1, 1)),), ((0, 0),), "cone 0 ends at (1,1), not (1,0)"),
        ((), (), "no cones"),
        # the first bad joint is named before any piece is read
        ((cone(P(0, 1), P(1, 2)), cone(P(0, 1), P(1, 0))), ("not a piece",),
         "cone 0 ends at (1,2), cone 1 starts at (0,1)"),
    ],
    ids=["not-chaining", "overlapping", "bad-start", "bad-end", "no-cones", "before-pieces"],
)
def test_fan_whose_cones_do_not_chain_is_rejected(cones, pieces, fault):
    fan = Fan((1,), (1,), (0,), cones)
    with pytest.raises(ValueError) as info:
        check_fan_linear(fan, pieces)
    assert type(info.value) is ValueError
    assert str(info.value) == f"fan cones do not run contiguously from (0,1) to (1,0): {fault}"


def test_many_cones_are_accepted_in_linear_time(deadline):
    # 3000 det-1 cones between the rays (1, k): the ray scan compares every
    # piece at every ray, 18 million piece values
    a = tuple(range(2999, 0, -1))
    payload = {"variables": ["x"], "a": list(a), "b": [1] * len(a), "ideals": [["x"]],
               "pieces": [[[0, 0]] * (len(a) + 1)]}
    with deadline(0.5):
        spec = load_fan_algebra_spec(json.dumps(payload))
    assert len(spec.fan.cones) == 3000


def test_many_cones_are_rejected_at_the_last_wall_in_time(tmp_path, capsys, deadline):
    # 3001 det-1 cones between the rays (1, k): f(1, k) = k^2 + 3 and
    # f(0, 1) = 6001 make f convex down to (1, 2), and the last cone's piece
    # 4s is concave at the wall (1, 1), exceeding f only at (1, 2); the ray
    # scan compares every piece at nearly every ray before it gets there
    n = 3000
    pieces = [[n * n + 3 - n * (2 * n + 1), 2 * n + 1]]
    pieces += [[3 - k * k - k, 2 * k + 1] for k in range(n - 1, 0, -1)] + [[0, 4]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"variables": ["x"], "a": list(range(n, 0, -1)), "b": [1] * n,
                                "ideals": [["x"]], "pieces": [pieces]}))
    with deadline(1):
        code = main(["fan-algebra", "--spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: f(1,0)+f(1,2) = 0+7 < f(2,2) = 8\n"


def test_degenerate_cone_piece_is_ignored_off_its_ray(deadline):
    fan = build_fan((1, 1), (1, 1))
    assert fan.cones[1].is_degenerate
    # f = 0 everywhere; the degenerate cone's piece r - s is 0 on its ray
    with deadline(5):
        f = check_fan_linear(fan, ((0, 0), (1, -1), (0, 0)))
    assert all(f(P(r, s)) == 0 for r in range(6) for s in range(6))


def test_max_representation_on_grid():
    f = diagonal_function()
    for r in range(31):
        for s in range(31):
            p = P(r, s)
            assert f(p) == max(f.piece_value(i, p) for i in range(len(f.pieces)))


def test_pieces_homogeneous_on_cones():
    f = diagonal_function()
    for i in range(2):
        for c in (1, 2, 3, 5):
            for r in range(8):
                for s in range(8):
                    p = P(r, s)
                    assert f.piece_value(i, p.scaled(c)) == c * f.piece_value(i, p)


def test_fan_algebra_generators_diagonal_spec():
    gens = set(fan_algebra_generators(diagonal_spec()))
    # degree (1,1) carries (x,y)^3, degrees (0,1) and (1,0) carry (x,y)^2
    expected = set()
    for degree, power in ((P(0, 1), 2), (P(1, 1), 3), (P(1, 0), 2)):
        for mono in ideal_power(maximal_ideal(2), power).gens:
            expected.add(BigradedMonomial(mono, degree))
    assert gens == expected
    assert len(gens) == 10


def test_fan_algebra_generators_zero_functions():
    fan = build_fan((5, 2), (2, 3))
    zero = check_fan_linear(fan, ((0, 0),) * 3)
    spec = FanAlgebraSpec(("x", "y"), (maximal_ideal(2),), (zero,))
    gens = fan_algebra_generators(spec)
    degrees = set()
    for c in fan.cones:
        degrees.update(hilbert_basis(c).elements)
    assert set(gens) == {BigradedMonomial(M((0, 0)), p) for p in degrees}


def test_intersection_as_fan_algebra_pieces():
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    assert spec.functions[0].pieces == ((0, 2), (5, 0), (5, 0))
    assert spec.functions[1].pieces == ((0, 3), (0, 3), (2, 0))
    assert [i.gens for i in spec.ideals] == [{M((1, 0))}, {M((0, 1))}]


def test_intersection_as_fan_algebra_single_prime():
    spec = intersection_as_fan_algebra((1,), (1,))
    assert spec.functions[0].pieces == ((0, 1), (1, 0))
    f = spec.functions[0]
    for r in range(6):
        for s in range(6):
            assert f(P(r, s)) == max(r, s)


def test_intersection_as_fan_algebra_reorders_input():
    spec = intersection_as_fan_algebra((2, 5), (3, 2))
    # original index 0 sits at fan position 1, index 1 at position 0
    assert spec.functions[0].pieces == ((0, 3), (0, 3), (2, 0))
    assert spec.functions[1].pieces == ((0, 2), (5, 0), (5, 0))


@settings(max_examples=300, deadline=None)
@given(column_pairs())
def test_intersection_as_fan_algebra_is_fan_linear_by_construction(pair):
    # the construction skips check_fan_linear; the check must accept what it builds
    for f in intersection_as_fan_algebra(*pair).functions:
        assert check_fan_linear(f.fan, f.pieces) == f


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any)))
def test_principal_cap_algebra_is_fan_linear_by_construction(exponents):
    (f,) = principal_cap_algebra(len(exponents), M(tuple(exponents))).functions
    assert check_fan_linear(f.fan, f.pieces) == f


def test_intersection_as_fan_algebra_on_many_distinct_columns_is_fast(deadline):
    # ratios (k + 1)/(200 - k) are distinct: 201 cones, each function built unchecked
    a, b = tuple(range(1, 201)), tuple(range(200, 0, -1))
    with deadline(0.5):
        spec = intersection_as_fan_algebra(a, b)
    assert len(spec.fan.cones) == 201 and len(spec.functions) == 200


@pytest.mark.parametrize("a,b,variables", [
    ((1,), (1,), ("u",)),
    ((1, 2), (2, 1), ("x*y", "1")),
])
def test_spec_rejects_unspellable_variable_names(a, b, variables):
    # such names would print generators that no parser reads back
    with pytest.raises(ValueError, match=r"variables\[0\]"):
        intersection_as_fan_algebra(a, b, variables=variables)


def test_cross_path_equivalence_golden():
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    assert set(fan_algebra_generators(spec)) == set(
        intersection_generators((5, 2), (2, 3)).generators
    )


def test_cross_path_equivalence_random():
    rng = random.Random(67)
    for _ in range(8):
        a, b = random_exponent_pair(rng)
        assert set(fan_algebra_generators(intersection_as_fan_algebra(a, b))) == set(
            intersection_generators(a, b).generators
        )


def test_graded_component_examples():
    spec = intersection_as_fan_algebra((2, 1), (1, 3))
    assert graded_component(spec, 2, 3) == MonomialIdeal(2, [M((4, 9))])
    assert graded_component(spec, 0, 0) == MonomialIdeal(2, [M((0, 0))])
    assert graded_component(diagonal_spec(), 1, 2) == ideal_power(maximal_ideal(2), 5)


@pytest.mark.parametrize(
    "r,s,message",
    [
        (1.5, 0, "r must be a nonnegative integer, got 1.5"),
        (True, 0, "r must be a nonnegative integer, got True"),
        (0, -1, "s must be a nonnegative integer, got -1"),
        (2, "3", "s must be a nonnegative integer, got '3'"),
    ],
)
def test_graded_component_rejects_a_bad_degree_with_value_error(r, s, message):
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    with pytest.raises(ValueError) as info:
        graded_component(spec, r, s)
    assert str(info.value) == message


def test_verify_fan_algebra_passes():
    spec = intersection_as_fan_algebra((5, 2), (2, 3))
    report = verify_fan_algebra(spec, fan_algebra_generators(spec), 10, 10)
    assert report.passed and report.total == 121

    spec2 = diagonal_spec()
    report2 = verify_fan_algebra(spec2, fan_algebra_generators(spec2), 10, 10)
    assert report2.passed


def test_verify_fan_algebra_detects_tampering():
    spec = diagonal_spec()
    gens = fan_algebra_generators(spec)
    # drop one minimal generator of the (1,1) component
    tampered = tuple(g for g in gens if g != BigradedMonomial(M((3, 0)), P(1, 1)))
    report = verify_fan_algebra(spec, tampered, 6, 6)
    assert not report.passed
    assert report.first_failure == P(1, 1)


def _first_component_cap_error(spec, r_max, s_max):
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            try:
                graded_component(spec, r, s)
            except PowerCapError as e:
                return str(e)
    return None


@pytest.mark.parametrize("cap,r_max,s_max", [(20, 3, 3), (50, 2, 6), (100, 6, 6)])
def test_verify_fan_algebra_cap_error_matches_graded_component(cap, r_max, s_max, monkeypatch):
    spec = principal_cap_algebra(3, M((1, 0, 0)))
    gens = fan_algebra_generators(spec)
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", str(cap))
    expected = _first_component_cap_error(spec, r_max, s_max)
    assert expected is not None
    with pytest.raises(PowerCapError) as info:
        verify_fan_algebra(spec, gens, r_max, s_max)
    assert str(info.value) == expected


@st.composite
def power_products(draw):
    """Ideals over 1-3 variables with one, two or three drawn generators,
    (ideal, m) factors of them, and a cap at or one below a candidate count
    that the reference checks (each power's running total, m for a principal
    one, and each product's), or small."""
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    sizes = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3))
    ideals = tuple(
        MonomialIdeal(n, draw(st.lists(exponents, min_size=k, max_size=k, unique=True)))
        for k in sizes
    )
    factors = draw(st.lists(st.tuples(st.sampled_from(ideals), st.integers(0, 6)),
                            min_size=1, max_size=5))
    counts, product = set(), None
    for ideal, m in factors:
        if m:
            counts.add(len(ideal.gens) * sum(len(ideal_power(ideal, k).gens) for k in range(m)))
            power = ideal_power(ideal, m)
            if product is not None:
                counts.add(len(product.gens) * len(power.gens))
            product = power if product is None else ideal_product(product, power)
    near = sorted({c - d for c in counts for d in (0, 1) if c - d > 0}) or [1]
    cap = draw(st.one_of(st.sampled_from(near), st.integers(1, 60)))
    return n, ideals, factors, cap


def _product_or_cap_error(call, *args):
    try:
        return call(*args)
    except PowerCapError as e:
        return str(e)


# (x, y), (x^2, y) and (x^3, x*y, y^3): their product in order checks 2*2
# and then 3*3 candidates (in reverse, 3*2 first), so cap 5 must raise at 9.
# Cap 3 passes the first powers but not the third ideal's square (3 + 9
# candidates), which must raise before the product's 2*2 could.
XY, X2Y, X3XYY3 = (MonomialIdeal(2, [M(g) for g in gens]) for gens in (
    [(1, 0), (0, 1)], [(2, 0), (0, 1)], [(3, 0), (1, 1), (0, 3)]))


@settings(max_examples=300, deadline=None)
@given(power_products())
@example((2, (XY, X2Y, X3XYY3), [(XY, 1), (X2Y, 1), (X3XYY3, 1)], 5))
@example((2, (XY, X2Y, X3XYY3), [(XY, 1), (X2Y, 1), (X3XYY3, 2)], 3))
def test_folded_powers_match_the_reduce_of_every_product(case):
    """Each power equals, or raises as, m products with its base; the product
    of the powers, with the principal ones folded into one translate, equals,
    or raises as, one ideal_product after another over all of them."""
    n, ideals, factors, cap = case
    zero = check_fan_linear(DIAGONAL_FAN, ((0, 0), (0, 0)))

    def spec():
        return FanAlgebraSpec(default_variables(n), ideals, (zero,) * len(ideals))

    for ideal, m in factors:
        assert _product_or_cap_error(ideal_power, ideal, m, cap) == _product_or_cap_error(
            iterated_power, ideal, m, cap
        )
    assert _product_or_cap_error(_product_of_powers, spec(), factors, cap) == (
        _product_or_cap_error(reference_product_of_powers, spec(), factors, cap)
    )


def test_principal_cap_maximal_power_examples():
    assert principal_cap_maximal_power(2, M((1, 1)), 1, 3) == MonomialIdeal(
        2, [M((2, 1)), M((1, 2))]
    )
    assert principal_cap_maximal_power(2, M((1, 1)), 0, 3) == ideal_power(
        maximal_ideal(2), 3
    )
    assert principal_cap_maximal_power(2, M((1, 1)), 2, 3) == MonomialIdeal(
        2, [M((2, 2))]
    )


def test_principal_cap_rejects_unit():
    with pytest.raises(ValueError, match="unit"):
        principal_cap_maximal_power(2, M((0, 0)), 1, 1)


@pytest.mark.parametrize(
    "build",
    [
        principal_cap_algebra,
        principal_cap_generators,
        lambda n, f: principal_cap_maximal_power(n, f, 1, 1),
    ],
)
def test_principal_cap_checks_the_arity_of_f(build):
    for n, f, message in [
        (3, M((1, 1)), "f has 2 variables, expected 3"),
        (1, M((1, 1)), "f has 2 variables, expected 1"),
        (2, M((0, 0)), "f must not be the unit monomial"),
    ]:
        with pytest.raises(ValueError) as info:
            build(n, f)
        assert str(info.value) == message


def test_principal_cap_matches_intersection_oracle():
    f = M((2, 1, 0))
    principal = MonomialIdeal(3, [f])
    m = maximal_ideal(3)
    for r in range(5):
        for s in range(5):
            assert principal_cap_maximal_power(3, f, r, s) == brute_intersection(
                ideal_power(principal, r), ideal_power(m, s)
            )


def test_principal_cap_generators_mapping():
    f = M((1, 1))
    gens = principal_cap_generators(2, f)
    # every coefficient at degree (r, s) lies in (f)^r cap m^s
    for bm in gens:
        component = principal_cap_maximal_power(2, f, bm.degree.r, bm.degree.s)
        assert any(divides(g, bm.coeff) for g in component.gens)
    # the auxiliary algebra itself verifies on a grid
    aux = principal_cap_algebra(2, f)
    report = verify_fan_algebra(aux, fan_algebra_generators(aux), 8, 8)
    assert report.passed


def test_spec_roundtrip_from_json():
    payload = {
        "variables": ["x", "y"],
        "a": [1],
        "b": [1],
        "ideals": [["x", "y"]],
        "pieces": [[[1, 2], [2, 1]]],
    }
    spec = load_fan_algebra_spec(json.dumps(payload))
    assert spec.variables == ("x", "y")
    assert spec.ideals[0] == maximal_ideal(2)
    assert spec.functions[0].pieces == ((1, 2), (2, 1))
    assert set(fan_algebra_generators(spec)) == set(
        fan_algebra_generators(diagonal_spec())
    )


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(pieces=[[[1, 2]]]), "pieces[0]"),
        (lambda d: d.update(a=[1.0]), "a[0]"),
        (lambda d: d.update(a=[2], b=[0]), "a/b"),
        # the checks of the pair, with their whole messages
        (lambda d: d.update(a=[2, 5], b=[3, 2]),
         "a/b: a and b are not fan ordered (ratios a_i/b_i must be non-increasing)"),
        (lambda d: d.update(a=[1, 0, 5], b=[2, 0, 1]), "a/b: a and b are both zero at index 1"),
        (lambda d: d.update(a=[1, 2]), "a/b: exponent vectors must have the same length"),
        (lambda d: d.update(a=[1, -2], b=[1, 2]),
         "a/b: a entries must be nonnegative integers, got -2"),
        (lambda d: d.update(a=[0, 0], b=[1, 2]),
         "a/b: a has no positive entry (the ideal would be the unit ideal)"),
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.pop("ideals"), "missing field"),
        (lambda d: d.update(ideals=[["x+y"]]), "ideals[0][0]"),
        (lambda d: d.update(ideals=[[]]), "at least one generator"),
        (lambda d: d.update(variables=["x", "x"]), "variables[1]"),
        (lambda d: d.update(variables=["x", "\u00e9"]), "variables[1]: expected an identifier"),
        (lambda d: d.update(pieces=[[[1, 2], [2]]]), "pieces[0][1]"),
        (lambda d: d.update(format_version=2), "format_version: unsupported version 2"),
        (lambda d: d.update(variables=[]), "variables: must be nonempty"),
        (lambda d: d.update(ideals=[]), "ideals: must be nonempty"),
        (lambda d: d.update(ideals=[["x", 1]]), "ideals[0][1]: expected a monomial string"),
        (lambda d: d.update(ideals=[["x"], ["y"]]),
         "pieces: expected 2 piece lists (one per ideal), got 1"),
    ],
)
def test_spec_format_errors(mutate, fragment):
    payload = {
        "variables": ["x", "y"],
        "a": [1],
        "b": [1],
        "ideals": [["x", "y"]],
        "pieces": [[[1, 2], [2, 1]]],
    }
    mutate(payload)
    with pytest.raises(SpecFormatError, match=None) as info:
        load_fan_algebra_spec(json.dumps(payload))
    assert fragment in str(info.value)


@pytest.mark.parametrize("text", ["[]", "1", '"spec"', "null"])
def test_spec_top_level_must_be_an_object(text):
    with pytest.raises(SpecFormatError) as info:
        load_fan_algebra_spec(text)
    assert str(info.value) == "top level: expected an object"


def test_spec_invalid_json_reports_position():
    with pytest.raises(SpecFormatError, match="line 1"):
        load_fan_algebra_spec("{not json")


def test_spec_requires_fan_ordered_input():
    payload = {
        "variables": ["x", "y"],
        "a": [2, 5],
        "b": [3, 2],
        "ideals": [["x"], ["y"]],
        "pieces": [[[0, 3], [0, 3], [2, 0]], [[0, 2], [5, 0], [5, 0]]],
    }
    with pytest.raises(SpecFormatError, match="fan ordered"):
        load_fan_algebra_spec(json.dumps(payload))


def test_spec_rejects_zero_ideal():
    with pytest.raises(ValueError, match="nonzero"):
        FanAlgebraSpec(("x", "y"), (MonomialIdeal(2),), (diagonal_function(),))


def test_spec_rejects_non_fan_linear_pieces():
    payload = {
        "variables": ["x", "y"],
        "a": [1],
        "b": [1],
        "ideals": [["x", "y"]],
        "pieces": [[[2, 1], [1, 2]]],
    }
    with pytest.raises(FanLinearityError):
        load_fan_algebra_spec(json.dumps(payload))

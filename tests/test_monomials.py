import random

import pytest
from hypothesis import example, given, strategies as st

from conealg import (
    Monomial,
    MonomialIdeal,
    MonomialParseError,
    PowerCapError,
    format_monomial,
    ideal_power,
    ideal_product,
    maximal_ideal,
    parse_monomial,
    principal_cap_maximal_power,
    principal_intersection,
)
from conealg.monomials import _exponent_kernel, _max_exponents, default_variables
from oracles import brute_intersection, brute_minimal_generators, divides, unit_monomial

M = Monomial


def ideal(*gens, n=2):
    return MonomialIdeal(n, [M(g) for g in gens])


def test_principal_intersection_components():
    assert principal_intersection((2, 1), (1, 3), 2, 3) == M((4, 9))
    assert principal_intersection((2, 1), (1, 3), 4, 1) == M((8, 4))
    assert principal_intersection((2, 1), (1, 3), 0, 0) == unit_monomial(2)


def test_principal_intersection_validates():
    with pytest.raises(ValueError, match="same length"):
        principal_intersection((1,), (1, 2), 1, 1)
    with pytest.raises(ValueError):
        principal_intersection((1,), (1,), -1, 0)
    for a, b, r, s, message in [
        ((-5, 2), (3, 1), 1, 0, "a entries must be nonnegative integers, got -5"),
        ((-1, 2), (1, 1), 1, 1, "a entries must be nonnegative integers, got -1"),
        ((1, 2), (1, 1.0), 1, 1, "b entries must be nonnegative integers, got 1.0"),
        ((1, True), (1, 1), 1, 1, "a entries must be nonnegative integers, got True"),
        ((1, "2"), (1, 1), 1, 1, "a entries must be nonnegative integers, got '2'"),
    ]:
        with pytest.raises(ValueError) as info:
            principal_intersection(a, b, r, s)
        assert str(info.value) == message


def test_natural_number_parameters_share_one_check():
    f = M((1, 2))
    cases = [
        (lambda: f**True, "exponent", True),
        (lambda: f**-1, "exponent", -1),
        (lambda: ideal_power(ideal((1, 0)), 2.0), "power", 2.0),
        (lambda: ideal_power(ideal((1, 0)), False), "power", False),
        (lambda: principal_intersection((1,), (1,), -1, 0), "r", -1),
        (lambda: principal_intersection((1,), (1,), 0, True), "s", True),
        (lambda: principal_cap_maximal_power(2, f, "1", 0), "r", "1"),
        (lambda: principal_cap_maximal_power(2, f, 1, -2), "s", -2),
        (lambda: MonomialIdeal(-1), "nvars", -1),
        (lambda: MonomialIdeal(True, [M((1,))]), "nvars", True),
        (lambda: maximal_ideal(-2), "nvars", -2),
        (lambda: maximal_ideal(2.0), "nvars", 2.0),
        (lambda: unit_monomial(-1), "nvars", -1),
        (lambda: default_variables(-1), "n", -1),
        (lambda: default_variables(True), "n", True),
    ]
    for call, name, value in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{name} must be a nonnegative integer, got {value!r}"
    assert f**1 == f and f**0 == unit_monomial(2)


@pytest.mark.parametrize("cap", [0, -1, 2.5, True, "10"])
def test_passed_cap_must_be_a_positive_int(cap):
    message = f"max_candidates must be a positive integer, got {cap!r}"
    with pytest.raises(ValueError) as info:
        ideal_power(maximal_ideal(2), 2, cap)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        ideal_product(maximal_ideal(2), maximal_ideal(2), cap)
    assert str(info.value) == message


def test_ideal_is_frozen_and_compares_by_arity_and_generators():
    a = ideal((1, 0), (0, 1))
    with pytest.raises(AttributeError):
        a.gens = frozenset()
    assert not hasattr(a, "__dict__")
    assert a == maximal_ideal(2) and hash(a) == hash(maximal_ideal(2))
    assert MonomialIdeal(2) != MonomialIdeal(3) and a != a.gens
    assert repr(a) == "MonomialIdeal(2, [Monomial(exponents=(0, 1)), Monomial(exponents=(1, 0))])"


def test_ideal_minimal_normal_form():
    a = ideal((2, 1), (3, 1), (2, 3))  # x^3y and x^2y^3 are redundant
    assert a.gens == {M((2, 1))}
    assert ideal((2, 1)) == a


def test_zero_and_unit_ideals():
    zero = MonomialIdeal(2)
    assert zero.is_zero() and unit_monomial(2) not in zero.gens
    one = ideal((0, 0))
    assert unit_monomial(2) in one.gens and not one.is_zero()
    assert brute_intersection(zero, one) == zero
    assert ideal_product(one, one) == one


def test_ideal_intersect_examples():
    assert brute_intersection(ideal((2, 1)), ideal((1, 3))) == ideal((2, 3))
    # cross-check against the principal component oracle at r = s = 1
    assert principal_intersection((2, 1), (1, 3), 1, 1) == M((2, 3))
    a = ideal((4, 0), (1, 2))
    assert brute_intersection(a, ideal((0, 0))) == a
    cube = ideal_power(ideal((1, 0), (0, 1)), 3)
    assert brute_intersection(ideal((1, 1)), cube) == ideal((2, 1), (1, 2))


def test_ideal_power_examples():
    assert ideal_power(ideal((1, 0), (0, 1)), 2) == ideal((2, 0), (1, 1), (0, 2))
    assert ideal_power(ideal((5, 2)), 3) == ideal((15, 6))
    assert ideal_power(ideal((2, 0), (0, 3)), 2) == ideal((4, 0), (2, 3), (0, 6))
    assert ideal_power(ideal((1, 1)), 0) == ideal((0, 0))
    assert ideal_power(MonomialIdeal(2), 0) == ideal((0, 0))


def test_ideal_power_cap():
    with pytest.raises(PowerCapError, match="power too large"):
        ideal_power(maximal_ideal(3), 50, max_candidates=100)


def test_ideal_product_examples():
    assert ideal_product(ideal((1, 0)), ideal((0, 1))) == ideal((1, 1))
    assert ideal_product(ideal((1, 0), (0, 1)), ideal((1, 0))) == ideal((2, 0), (1, 1))
    # x^2y^3 = x^2 * y^3 is divisible by x*y, so the minimal form drops it
    assert ideal_product(ideal((2, 0), (0, 1)), ideal((1, 0), (0, 3))) == ideal(
        (3, 0), (1, 1), (0, 4)
    )


@pytest.mark.parametrize("a,b", [((2, 1), (1, 3)), ((5, 2), (2, 3)), ((3,), (2,))])
def test_principal_intersection_agrees_with_ideal_path(a, b):
    n = len(a)
    ia, ib = MonomialIdeal(n, [M(a)]), MonomialIdeal(n, [M(b)])
    for r in range(11):
        for s in range(11):
            via_ideals = brute_intersection(ideal_power(ia, r), ideal_power(ib, s))
            assert via_ideals.gens == {principal_intersection(a, b, r, s)}


def per_column_max_exponents(a, b, r, s):
    """max(r*a_k, s*b_k) with one comparison per column, the formula the
    distinct-column kernel replaced: its reference."""
    return tuple([x * r if x * r > y * s else y * s for x, y in zip(a, b)])


# entries 0..6 and 20-digit ones; degrees 0 (r = 0 or s = 0), small and 20-digit
ENTRY = st.one_of(st.integers(0, 6), st.integers(10**19, 10**20 - 1))
DEGREE = st.one_of(st.just(0), st.integers(1, 50), st.integers(10**19, 10**20 - 1))
COLUMN = st.tuples(ENTRY, ENTRY)
KERNEL_COLUMNS = st.one_of(
    # heavy repetition: 1-200 columns drawn from at most four
    st.lists(COLUMN, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=200)
    ),
    st.lists(COLUMN, min_size=1, max_size=200, unique=True),  # all distinct
    st.lists(COLUMN, min_size=1, max_size=200),
)


@given(KERNEL_COLUMNS, DEGREE, DEGREE)
@example([(5, 2)], 3, 4)  # n = 1
@example([(0, 0), (3, 0), (0, 4), (0, 0), (3, 0), (0, 4)], 2, 3)  # zero columns, repeated
@example([(12345678901234567890, 1)] * 3 + [(1, 12345678901234567890)], 0, 7)
@example([(2, 5), (2, 5)], 9, 0)
def test_exponent_kernel_matches_per_column_reference(columns, r, s):
    a, b = (tuple(v) for v in zip(*columns))
    kernel = _exponent_kernel(a, b)
    assert kernel[0] == tuple(dict.fromkeys(columns))
    expected = per_column_max_exponents(a, b, r, s)
    assert _max_exponents(*kernel, r, s) == expected
    assert principal_intersection(a, b, r, s).exponents == expected


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_component_superadditivity(r, s, r2, s2):
    # the (r+r', s+s') component contains the product of the two components
    a, b = (5, 2), (2, 3)
    big = principal_intersection(a, b, r + r2, s + s2)
    small = principal_intersection(a, b, r, s) * principal_intersection(a, b, r2, s2)
    assert divides(big, small)


def _random_ideal(rng, n=2):
    gens = [
        tuple(rng.randint(0, 4) for _ in range(n))
        for _ in range(rng.randint(1, 3))
    ]
    return MonomialIdeal(n, [M(g) for g in gens])


def test_ideal_ops_commutative_associative():
    rng = random.Random(17)
    one = ideal((0, 0))
    for _ in range(30):
        a, b, c = (_random_ideal(rng) for _ in range(3))
        assert brute_intersection(a, b) == brute_intersection(b, a)
        assert ideal_product(a, b) == ideal_product(b, a)
        assert brute_intersection(brute_intersection(a, b), c) == brute_intersection(
            a, brute_intersection(b, c)
        )
        assert ideal_product(ideal_product(a, b), c) == ideal_product(
            a, ideal_product(b, c)
        )
        assert ideal_product(a, one) == a
        for result in (brute_intersection(a, b), ideal_product(a, b)):
            for g in result.gens:
                assert not any(h != g and divides(h, g) for h in result.gens)


@st.composite
def generator_lists(draw, n=None):
    """Exponent vectors of mixed total degree over 1-4 variables (or n), with
    some repeated and sometimes the unit monomial."""
    if n is None:
        n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=20))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=5))
    if draw(st.booleans()):
        gens.append((0,) * n)
    return n, [M(g) for g in gens]


@given(generator_lists())
def test_minimal_generators_match_all_pairs_oracle(case):
    n, gens = case
    assert MonomialIdeal(n, gens).gens == brute_minimal_generators(gens)


@st.composite
def product_factors(draw):
    """Two generator lists over one variable count, each drawn by
    generator_lists or as a single generator, the unit ideal or the zero ideal."""
    n = draw(st.integers(1, 4))
    factors = []
    for kind in draw(st.lists(st.sampled_from(["lists", "single", "unit", "zero"]),
                              min_size=2, max_size=2)):
        if kind == "lists":
            factors.append(draw(generator_lists(n))[1])
        elif kind == "single":
            factors.append([M(draw(st.tuples(*[st.integers(0, 4)] * n)))])
        else:
            factors.append([unit_monomial(n)] if kind == "unit" else [])
    return n, factors


@given(product_factors())
def test_ideal_product_matches_all_pairs_oracle(case):
    n, (xs, ys) = case
    product = ideal_product(MonomialIdeal(n, xs), MonomialIdeal(n, ys))
    sums = [M(tuple(x + y for x, y in zip(g.exponents, h.exponents))) for g in xs for h in ys]
    assert product.gens == brute_minimal_generators(sums)
    public = MonomialIdeal(n, sums)
    assert product == public and hash(product) == hash(public)
    assert product.nvars == n and product.sorted_gens() == public.sorted_gens()


def test_cap_messages_count_candidates_of_minimal_factors():
    m3 = maximal_ideal(3)
    mixed = ideal((3, 0), (1, 1), (0, 4))  # its k-th power has 2k + 1 generators
    cases = [
        (lambda: ideal_product(ideal_power(m3, 3), ideal_power(m3, 2), 59), 60, 59),
        (lambda: ideal_power(m3, 5, max_candidates=50), 60, 50),
        (lambda: ideal_power(mixed, 6, max_candidates=40), 48, 40),
        (lambda: ideal_power(ideal((2, 3)), 40, max_candidates=39), 40, 39),
    ]
    for call, spent, cap in cases:
        with pytest.raises(PowerCapError) as info:
            call()
        assert str(info.value) == f"power too large: {spent} candidate products exceed cap {cap}"


def test_principal_power_is_closed_form(deadline):
    """(x^e)^m is (x^(m*e)) at once, and past the cap it raises the count
    that m products of one candidate each would reach: cap + 1."""
    with deadline(0.5):
        big = ideal_power(ideal((2, 3)), 10**12, max_candidates=10**13)
        with pytest.raises(PowerCapError) as info:
            ideal_power(ideal((2, 3)), 10**12, max_candidates=10**12 - 1)
    assert big == ideal((2 * 10**12, 3 * 10**12))
    assert str(info.value) == (
        f"power too large: {10**12} candidate products exceed cap {10**12 - 1}"
    )
    assert ideal_power(ideal((2, 3)), 7, max_candidates=7) == ideal((14, 21))


def test_public_constructors_keep_their_checks():
    for bad in ((1, -1), (True, 0), (1.0, 0)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            M(bad)
        with pytest.raises(ValueError, match="nonnegative integers"):
            MonomialIdeal(2, [bad])
    with pytest.raises(ValueError, match="expected 2"):
        MonomialIdeal(2, [M((1, 0, 0))])


def test_ideal_power_matches_iterated_brute_products():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [M(tuple(rng.randint(0, 3) for _ in range(n))) for _ in range(rng.randint(1, 4))]
        base = brute_minimal_generators(gens)
        expected = {unit_monomial(n)}
        for m in range(5):
            assert ideal_power(MonomialIdeal(n, gens), m).gens == expected
            expected = brute_minimal_generators(
                M(tuple(x + y for x, y in zip(g.exponents, h.exponents)))
                for g in expected for h in base
            )


def test_arity_mismatch_is_an_error():
    with pytest.raises(ValueError, match="mismatch"):
        ideal_product(ideal((1, 0)), MonomialIdeal(3, [M((1, 0, 0))]))
    with pytest.raises(ValueError, match="variable count mismatch: 2 vs 3"):
        M((1, 0)) * M((1, 0, 0))


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", "10")
    with pytest.raises(PowerCapError):
        ideal_power(maximal_ideal(2), 10)
    monkeypatch.delenv("CONEALG_MAX_CANDIDATES")
    ideal_power(maximal_ideal(2), 10)


def test_parse_monomial():
    assert parse_monomial("x^5*y^2", ("x", "y")) == M((5, 2))
    assert parse_monomial("x*y^2", ("x", "y")) == M((1, 2))
    assert parse_monomial("y", ("x", "y")) == M((0, 1))
    assert parse_monomial("1", ("x", "y")) == unit_monomial(2)
    assert parse_monomial("x*x^2", ("x", "y")) == M((3, 0))
    assert parse_monomial(" x ^ 2 * y ", ("x", "y")) == M((2, 1))


def test_parse_monomial_errors_carry_column():
    with pytest.raises(MonomialParseError, match="column 2") as info:
        parse_monomial("x+y", ("x", "y"))
    assert info.value.column == 2
    with pytest.raises(MonomialParseError, match="unknown variable"):
        parse_monomial("x*z", ("x", "y"))
    with pytest.raises(MonomialParseError, match="exponent"):
        parse_monomial("x^", ("x", "y"))
    with pytest.raises(MonomialParseError, match="empty"):
        parse_monomial("   ", ("x", "y"))


def test_format_monomial():
    assert format_monomial(M((5, 2)), ("x", "y")) == "x^5*y^2"
    assert format_monomial(M((1, 2)), ("x", "y")) == "x*y^2"
    assert format_monomial(unit_monomial(2), ("x", "y")) == "1"


@given(st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_format_parse_round_trip(exponents):
    variables = default_variables(len(exponents))
    m = M(tuple(exponents))
    assert parse_monomial(format_monomial(m, variables), variables) == m


def test_default_variables():
    assert default_variables(2) == ("x", "y")
    assert default_variables(4) == ("x1", "x2", "x3", "x4")


def test_env_cap_rejects_non_positive_or_non_integer(monkeypatch):
    for value in ("abc", "-1", "0", "²"):
        monkeypatch.setenv("CONEALG_MAX_CANDIDATES", value)
        with pytest.raises(ValueError, match="CONEALG_MAX_CANDIDATES"):
            ideal_power(maximal_ideal(2), 2)
    monkeypatch.setenv("CONEALG_MAX_CANDIDATES", " 7 ")
    with pytest.raises(PowerCapError, match="cap 7"):
        ideal_power(maximal_ideal(2), 10)

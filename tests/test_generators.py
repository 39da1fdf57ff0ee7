import random
import re
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conealg import (
    BigradedMonomial,
    GeneratorSet,
    LatticePoint2,
    Monomial,
    asymptotic_limits,
    intersection_generators,
    principal_intersection,
    verify_generation,
)
from oracles import (
    brute_irreducibles,
    brute_redundancy_witness,
    largest_inner_power,
    random_exponent_pair,
)

P = LatticePoint2
M = Monomial


def bg(exponents, r, s):
    return BigradedMonomial(M(exponents), P(r, s))


# The (2,1) generator carries the full degree u^2*v: its cone provenance is
# Hilbert element (2,1), and I^2 cap J^1 = (x^10*y^4).
GOLDEN = [
    bg((2, 3), 0, 1),
    bg((6, 9), 1, 3),
    bg((10, 15), 2, 5),
    bg((5, 6), 1, 2),
    bg((5, 3), 1, 1),
    bg((15, 6), 3, 2),
    bg((10, 4), 2, 1),
    bg((5, 2), 1, 0),
]


def test_golden_generators_exact_order():
    gs = intersection_generators((5, 2), (2, 3))
    assert list(gs.generators) == GOLDEN


def test_golden_generators_per_cone_provenance():
    gs = intersection_generators((5, 2), (2, 3))
    assert [len(chain) for chain in gs.fan.chains] == [3, 4, 3]
    degrees = [p for chain in gs.fan.chains for p in chain]
    assert [bm.degree for bm in gs.generators] == list(dict.fromkeys(degrees))
    for bm in gs.generators:
        assert bm.coeff == principal_intersection((5, 2), (2, 3), bm.degree.r, bm.degree.s)
    # boundary Hilbert elements appear in two chains but yield one generator
    assert sum(1 for chain in gs.fan.chains[:2] if P(2, 5) in chain) == 2
    assert sum(1 for g in gs.generators if g.degree == P(2, 5)) == 1


def test_single_prime_generators():
    gs = intersection_generators((1,), (1,))
    assert set(gs.generators) == {
        BigradedMonomial(M((1,)), P(1, 0)),
        BigradedMonomial(M((1,)), P(0, 1)),
        BigradedMonomial(M((1,)), P(1, 1)),
    }


def test_two_three_generators_match_brute_force():
    gs = intersection_generators((2,), (3,))
    expected = {
        BigradedMonomial(M((3,)), P(0, 1)),
        BigradedMonomial(M((3,)), P(1, 1)),
        BigradedMonomial(M((6,)), P(3, 2)),
        BigradedMonomial(M((4,)), P(2, 1)),
        BigradedMonomial(M((2,)), P(1, 0)),
    }
    assert set(gs.generators) == expected
    # independent route: irreducibles of each cone + the componentwise max
    oracle = set()
    for c in gs.fan.cones:
        for p in brute_irreducibles(c):
            oracle.add(
                BigradedMonomial(principal_intersection((2,), (3,), p.r, p.s), p)
            )
    assert set(gs.generators) == oracle


@st.composite
def small_pairs(draw):
    """1-4 columns with entries 0-6, each drawn freely, zero, or a multiple
    of the primitive vector of an earlier nonzero column (a repeated ratio)."""
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        earlier = [c for c in columns if any(c)]
        kind = draw(st.sampled_from(("free", "zero", "repeat") if earlier else ("free", "zero")))
        if kind == "free":
            columns.append(draw(st.tuples(st.integers(0, 6), st.integers(0, 6))))
        elif kind == "zero":
            columns.append((0, 0))
        else:
            x, y = draw(st.sampled_from(earlier))
            x, y = x // gcd(x, y), y // gcd(x, y)
            m = draw(st.integers(1, 6 // max(x, y)))
            columns.append((m * x, m * y))
    a, b = (tuple(v) for v in zip(*columns))
    assume(any(a) and any(b))
    return a, b


@settings(max_examples=200, deadline=None)
@given(small_pairs())
@example(((5, 2), (2, 3)))
@example(((2, 4, 6), (1, 2, 3)))
@example(((3, 0, 0, 1), (1, 0, 5, 2)))
def test_intersection_generators_are_minimal(ab):
    """No generator of degree p lies in the product of the components of
    degrees q and p - q, for any split into nonzero q and p - q: each is
    needed, by a scan of every split of its degree."""
    a, b = ab
    for g in intersection_generators(a, b).generators:
        assert brute_redundancy_witness(a, b, g.degree) is None, g


def test_generators_sound():
    rng = random.Random(41)
    for _ in range(10):
        a, b = random_exponent_pair(rng)
        for g in intersection_generators(a, b).generators:
            assert g.coeff == principal_intersection(a, b, g.degree.r, g.degree.s)


def test_input_order_invariance():
    rng = random.Random(43)
    for _ in range(15):
        a, b = random_exponent_pair(rng)
        indices = list(range(len(a)))
        rng.shuffle(indices)
        a2 = tuple(a[i] for i in indices)
        b2 = tuple(b[i] for i in indices)
        base = set(intersection_generators(a, b).generators)
        shuffled = set(intersection_generators(a2, b2).generators)
        remapped = {
            BigradedMonomial(
                M(tuple(g.coeff.exponents[i] for i in indices)), g.degree
            )
            for g in base
        }
        assert shuffled == remapped


def test_swap_symmetry():
    rng = random.Random(47)
    for _ in range(15):
        a, b = random_exponent_pair(rng)
        forward = set(intersection_generators(a, b).generators)
        backward = set(intersection_generators(b, a).generators)
        assert backward == {
            BigradedMonomial(g.coeff, P(g.degree.s, g.degree.r)) for g in forward
        }


def test_scaling_multiplies_coefficients_only():
    rng = random.Random(53)
    for _ in range(10):
        a, b = random_exponent_pair(rng, max_entry=4)
        c = rng.randint(2, 4)
        base = intersection_generators(a, b)
        scaled = intersection_generators(
            tuple(c * x for x in a), tuple(c * x for x in b)
        )
        assert scaled.fan.cones == base.fan.cones
        assert set(scaled.generators) == {
            BigradedMonomial(M(tuple(c * e for e in g.coeff.exponents)), g.degree)
            for g in base.generators
        }


def test_verify_generation_golden_grid():
    gs = intersection_generators((5, 2), (2, 3))
    report = verify_generation((5, 2), (2, 3), gs, 15, 15)
    assert report.passed and report.total == 256 and report.failures == 0
    assert report.summary() == "PASS 256/256 components"


def test_verify_generation_detects_missing_generator():
    gs = intersection_generators((5, 2), (2, 3))
    removed = bg((2, 3), 0, 1)
    tampered = GeneratorSet(tuple(g for g in gs.generators if g != removed), gs.fan)
    report = verify_generation((5, 2), (2, 3), tampered, 15, 15)
    assert not report.passed
    assert report.first_failure == P(0, 1)
    assert "FAIL at (r,s)=(0,1)" in report.summary()


@pytest.mark.parametrize("pad", [(1,), (0,), None], ids=["extra-1", "extra-0", "short"])
def test_verify_generation_rejects_coefficients_of_another_arity(pad):
    """Coefficients of another arity are an error: cut to len(a), the padded
    sets would pass all 25 cells."""
    gs = intersection_generators((5, 2), (2, 3))
    if pad is None:
        first, *rest = gs.generators
        gens = (BigradedMonomial(M(first.coeff.exponents[:1]), first.degree), *rest)
    else:
        gens = tuple(BigradedMonomial(M(g.coeff.exponents + pad), g.degree) for g in gs.generators)
    arity = len(gens[0].coeff.exponents)
    message = re.escape(f"degree {gens[0].degree} has {arity} exponents, expected 2")
    with pytest.raises(ValueError, match=message):
        verify_generation((5, 2), (2, 3), GeneratorSet(gens, gs.fan), 4, 4)


def test_verify_generation_trivial_grid():
    gs = intersection_generators((5, 2), (2, 3))
    assert verify_generation((5, 2), (2, 3), gs, 0, 0).passed


def test_asymptotic_limits_examples():
    F = Fraction
    limits = asymptotic_limits((5, 2), (2, 3))
    assert limits == (F(2, 5), F(3, 2), F(2, 3), F(5, 2))
    assert asymptotic_limits((3, 1), (3, 1)) == (1, 1, 1, 1)
    assert asymptotic_limits((1,), (2,)) == (2, 2, F(1, 2), F(1, 2))


def test_asymptotic_limits_reciprocal_identities():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(1, 6) for _ in range(n))
        b = tuple(rng.randint(1, 6) for _ in range(n))
        limits = asymptotic_limits(a, b)
        assert limits.l_I_of_J * limits.L_J_of_I == 1
        assert limits.l_J_of_I * limits.L_I_of_J == 1


def test_asymptotic_limits_requires_equal_radicals():
    with pytest.raises(ValueError, match="radicals differ"):
        asymptotic_limits((1, 0), (1, 2))


@pytest.mark.parametrize(
    "a,b,message",
    [
        ((1.5, 2), (1, 1), "a entries must be nonnegative integers, got 1.5"),
        ((True, 2), (1, 1), "a entries must be nonnegative integers, got True"),
        ((1, 2), (1, "1"), "b entries must be nonnegative integers, got '1'"),
        ((-1, 2), (1, 1), "radicals differ: all exponents must be positive"),
        ((1, 2), (0, 1), "radicals differ: all exponents must be positive"),
        ((1.5, 0), (1, 1), "radicals differ: all exponents must be positive"),
        ((0, 2), (1, 1, 1), "exponent vectors must have the same length"),
        ((), (), "a must be nonempty"),
    ],
)
def test_asymptotic_limits_checks_entries_like_the_library(a, b, message):
    with pytest.raises(ValueError) as info:
        asymptotic_limits(a, b)
    assert str(info.value) == message


def test_asymptotic_limits_drop_a_column_zero_in_both():
    # the prime of that column occurs in neither ideal, as build_fan reads it
    assert asymptotic_limits((1, 0), (2, 0)) == (2, 2, Fraction(1, 2), Fraction(1, 2))
    assert asymptotic_limits((0, 5, 0, 2), (0, 2, 0, 3)) == asymptotic_limits((5, 2), (2, 3))
    with pytest.raises(ValueError) as info:
        asymptotic_limits((0, 0), (0, 0))
    assert str(info.value) == "a has no positive entry (the ideal would be the unit ideal)"


def test_asymptotic_limit_matches_divisibility_oracle():
    a, b = (5, 2), (2, 3)
    limits = asymptotic_limits(a, b)
    for m in range(1, 61):
        v = largest_inner_power(a, b, m)
        assert abs(v / m - limits.l_I_of_J) <= max(a) / m


def test_verify_generation_does_not_trust_the_hilbert_chain():
    gs = intersection_generators((5, 2), (2, 3))
    # without (1,3), cone 0's chain (0,1),(2,5) is no Hilbert basis: det 2
    chains = (tuple(p for p in gs.fan.chains[0] if p != P(1, 3)),) + gs.fan.chains[1:]
    tampered = GeneratorSet(gs.generators, SimpleNamespace(cones=gs.fan.cones, chains=chains))
    report = verify_generation((5, 2), (2, 3), tampered, 4, 4)
    assert not report.passed
    assert report.first_failure == P(0, 1)
    assert report.reason == "no decomposition into available generators"

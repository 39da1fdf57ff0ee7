import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from conealg import (
    Cone2,
    LatticePoint2,
    build_fan,
    cone,
    hilbert_basis,
)
from conealg.lattice import _point, decompose_over, det, primitive, slope_descending
from oracles import (
    all_decompositions,
    brute_irreducibles,
    frac_cone_contains,
    search_decomposition,
    unimodular_decomposition,
)
from strategies import column_pairs

P = LatticePoint2


def test_primitive_examples():
    assert primitive(P(4, 6)) == P(2, 3)
    assert primitive(P(0, 5)) == P(0, 1)
    assert primitive(P(2, 5)) == P(2, 5)


def test_primitive_zero_ray_rejected():
    with pytest.raises(ValueError, match="zero ray"):
        primitive(P(0, 0))


@given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 9))
def test_primitive_idempotent_and_scale_invariant(r, s, k):
    if r == 0 and s == 0:
        return
    p = primitive(P(r, s))
    assert primitive(p) == p
    assert primitive(P(r * k, s * k)) == p


def test_lattice_point_rejects_negative_and_nonint():
    with pytest.raises(ValueError):
        P(-1, 0)
    with pytest.raises(TypeError):
        P(1.5, 0)


def test_cone_factory_orders_and_primitivizes():
    c = cone(P(4, 10), P(0, 3))
    assert c.ray_low == P(2, 5) and c.ray_high == P(0, 1)
    assert not c.is_degenerate
    assert cone(P(1, 1), P(2, 2)).is_degenerate


def test_cone_validates_rays():
    for low, high, message in [
        (P(0, 0), P(2, 4), "zero ray"),
        (P(1, 0), P(0, 0), "zero ray"),
        (P(2, 4), P(0, 1), "ray_low (2,4) is not primitive"),
        (P(1, 0), P(0, 3), "ray_high (0,3) is not primitive"),
        (P(0, 1), P(1, 0), "ray_high (1,0) has smaller slope than ray_low (0,1)"),
    ]:
        with pytest.raises(ValueError) as info:
            Cone2(ray_low=low, ray_high=high)
        assert str(info.value) == message


def test_hilbert_basis_golden():
    assert hilbert_basis(cone(P(2, 5), P(0, 1))).elements == (P(0, 1), P(1, 3), P(2, 5))
    assert hilbert_basis(cone(P(3, 2), P(2, 5))).elements == (
        P(2, 5), P(1, 2), P(1, 1), P(3, 2)
    )
    assert hilbert_basis(cone(P(1, 0), P(3, 2))).elements == (P(3, 2), P(2, 1), P(1, 0))


def test_hilbert_basis_unimodular():
    assert hilbert_basis(cone(P(1, 0), P(0, 1))).elements == (P(0, 1), P(1, 0))


def test_hilbert_basis_degenerate():
    basis = hilbert_basis(cone(P(2, 2), P(3, 3)))
    assert basis.elements == (P(1, 1),)


SAMPLE_RAY_PAIRS = [
    (P(2, 5), P(0, 1)),
    (P(3, 2), P(2, 5)),
    (P(1, 0), P(3, 2)),
    (P(1, 0), P(0, 1)),
    (P(3, 1), P(1, 3)),
    (P(5, 1), P(1, 5)),
    (P(1, 2), P(1, 1)),
    (P(4, 7), P(1, 6)),
    (P(6, 1), P(5, 6)),
]


@pytest.mark.parametrize("u,w", SAMPLE_RAY_PAIRS)
def test_hilbert_basis_matches_brute_force(u, w):
    c = cone(u, w)
    elements = hilbert_basis(c).elements
    assert set(elements) == brute_irreducibles(c)
    assert elements[0] == c.ray_high and elements[-1] == c.ray_low
    assert all(det(l, h) == 1 for h, l in zip(elements, elements[1:]))


@pytest.mark.parametrize("u,w", SAMPLE_RAY_PAIRS)
def test_hilbert_basis_minimality_exhaustive(u, w):
    # no element is a sum of two nonzero cone points (scan below the element)
    c = cone(u, w)
    for e in hilbert_basis(c).elements:
        for qr in range(e.r + 1):
            for qs in range(e.s + 1):
                q = P(qr, qs)
                rest = e - q
                if q.is_origin() or rest.is_origin():
                    continue
                assert not (frac_cone_contains(c, q) and frac_cone_contains(c, rest)), (
                    f"{e} splits as {q} + {rest} in {c}"
                )


@pytest.mark.parametrize("u,w", SAMPLE_RAY_PAIRS)
def test_hilbert_basis_generation_up_to_25(u, w):
    c = cone(u, w)
    basis = hilbert_basis(c)
    for r in range(26):
        for s in range(26):
            p = P(r, s)
            if not frac_cone_contains(c, p):
                continue
            parts = decompose_over(p, basis.elements)
            total = P(0, 0)
            for e, m in parts.items():
                assert m > 0 and e in basis.elements
                total = total + e.scaled(m)
            assert total == p


def test_hilbert_basis_pure_function():
    c1 = cone(P(3, 2), P(2, 5))
    c2 = cone(P(2, 5), P(3, 2))
    assert c1 == c2
    assert hilbert_basis(c1) == hilbert_basis(c2)


@st.composite
def unimodular_rays(draw, limit):
    """(ray_low, ray_high) with det 1 and entries <= limit: from (1,0) and
    (0,1), each step adds k times one ray to the other, keeping det 1."""
    low, high = (1, 0), (0, 1)
    steps = st.tuples(st.booleans(), st.integers(1, limit))
    for to_low, k in draw(st.lists(steps, max_size=12)):
        if to_low:
            new = (low[0] + k * high[0], low[1] + k * high[1])
            low = new if max(new) <= limit else low
        else:
            new = (high[0] + k * low[0], high[1] + k * low[1])
            high = new if max(new) <= limit else high
    return P(*low), P(*high)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rays=unimodular_rays(10**6))
@example(rays=(P(1, 0), P(999_999, 1)))
@example(rays=(P(999_999, 1_000_000), P(999_998, 999_999)))
def test_unimodular_hilbert_basis_is_its_two_rays_without_a_scan(deadline, rays):
    """A det-1 cone's parallelogram holds no lattice point but its corners,
    so its chain is (ray_high, ray_low); with entries up to 10**6 a scan of
    the parallelogram's box could not finish."""
    low, high = rays
    c = Cone2(low, high)
    assert det(low, high) == 1
    with deadline(1):
        elements = hilbert_basis(c).elements
    assert elements == ((high, low) if low != high else (low,))


@settings(max_examples=60, deadline=None)
@given(unimodular_rays(30))
def test_unimodular_hilbert_basis_matches_brute_force(rays):
    c = Cone2(*rays)
    assert set(hilbert_basis(c).elements) == brute_irreducibles(c)


@pytest.mark.parametrize("u,w", SAMPLE_RAY_PAIRS)
def test_hilbert_basis_swap_symmetry(u, w):
    swapped = hilbert_basis(cone(P(u.s, u.r), P(w.s, w.r))).elements
    assert swapped == tuple(P(p.s, p.r) for p in reversed(hilbert_basis(cone(u, w)).elements))


def test_slope_descending_order():
    pts = [P(1, 0), P(2, 5), P(0, 1), P(1, 1)]
    assert slope_descending(pts) == [P(0, 1), P(2, 5), P(1, 1), P(1, 0)]


def test_decompose_examples():
    basis = hilbert_basis(cone(P(2, 5), P(0, 1)))
    assert search_decomposition(P(0, 0), basis.elements) == {}
    assert search_decomposition(P(2, 6), basis.elements) == {P(2, 5): 1, P(0, 1): 1}
    assert search_decomposition(P(4, 10), basis.elements) == {P(2, 5): 2}


def test_decompose_over_takes_the_bracketing_pair_without_search():
    """The pair of the chain that brackets p, not the search's first hit:
    (2, 6) = 2*(1, 3), where the steepest-first search over the same
    elements gives (2, 5) + (0, 1); both lie in the cone."""
    chain = hilbert_basis(cone(P(0, 1), P(2, 5))).elements
    assert chain == (P(0, 1), P(1, 3), P(2, 5))
    assert decompose_over(P(0, 0), chain) == {}
    assert decompose_over(P(2, 6), chain) == {P(1, 3): 2}
    assert list(decompose_over(P(3, 8), chain).items()) == [(P(2, 5), 1), (P(1, 3), 1)]
    assert decompose_over(P(0, 4), chain) == {P(0, 1): 4}
    assert decompose_over(P(4, 10), chain) == {P(2, 5): 2}
    assert decompose_over(P(4, 10), [P(2, 5)]) == {P(2, 5): 2}
    assert decompose_over(P(0, 0), [P(2, 5)]) == {}


def test_decompose_over_answers_none_where_the_pair_does_not_write_p():
    chain = [P(0, 1), P(1, 3), P(2, 5)]
    assert decompose_over(P(5, 1), chain) is None  # outside the cone
    # a det-2 step: the search writes (2, 6) as (2, 5) + (0, 1), the pair cannot
    assert decompose_over(P(2, 6), [P(0, 1), P(2, 5)]) is None
    assert search_decomposition(P(2, 6), [P(0, 1), P(2, 5)]) == {P(2, 5): 1, P(0, 1): 1}
    assert decompose_over(P(1, 4), [P(0, 1), P(2, 5)]) is None
    assert decompose_over(P(1, 3), [P(2, 5)]) is None  # off the ray
    assert decompose_over(P(2, 4), [_point(-1, -2)]) is None  # a negative multiple
    assert decompose_over(P(1, 3), []) is None
    assert decompose_over(P(0, 0), []) == {}


def test_decompose_over_an_origin_element_writes_only_the_origin():
    """A chain holding only the origin gives multiplicity 0: the origin
    decomposes, every other point does not, and nothing divides by zero."""
    assert decompose_over(P(0, 0), [P(0, 0)]) == {}
    assert decompose_over(P(0, 1), [P(0, 0)]) is None
    assert decompose_over(P(3, 2), [P(0, 0)]) is None
    assert decompose_over(P(3, 2), [P(0, 0), P(1, 0)]) is None  # det 0 step


# Tamperings of a fan chain for the comparison with the oracle: an interior
# element removed (a det-2 step), the chain reversed or shuffled, an element
# repeated, the origin inserted, a one-element or empty chain, or a det-1 lap
# of the whole circle, through (1,0), (0,-1) and (-1,0), put in front.
DECOMPOSE_TAMPERINGS = (
    "none", "interior", "reversed", "shuffled", "repeat", "origin", "single", "empty", "lap"
)


@st.composite
def chains_and_points(draw):
    """A Hilbert chain of a ``build_fan`` fan, tampered by one of
    ``DECOMPOSE_TAMPERINGS``, and a point: any point of a small box, or a
    nonnegative combination of up to three elements of the chain."""
    fan = build_fan(*draw(column_pairs(max_entry=9, max_columns=4)))
    chain = list(draw(st.sampled_from(fan.chains)))
    kind = draw(st.sampled_from(DECOMPOSE_TAMPERINGS))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "interior" and len(chain) > 2:
        del chain[rng.randrange(1, len(chain) - 1)]
    elif kind == "reversed":
        chain.reverse()
    elif kind == "shuffled":
        rng.shuffle(chain)
    elif kind == "repeat":
        k = rng.randrange(len(chain))
        chain.insert(k, chain[k])
    elif kind == "origin":
        chain.insert(rng.randrange(len(chain) + 1), P(0, 0))
    elif kind == "single":
        chain = [rng.choice(chain)]
    elif kind == "empty":
        chain = []
    elif kind == "lap":
        chain = [_point(r, s) for r, s in [(0, 1), (1, 0), (0, -1), (-1, 0)]] + chain
    if chain and draw(st.booleans()):
        p = P(0, 0)
        for e in rng.sample(chain, min(3, len(chain))):
            m = rng.randint(0, 4)
            p = _point(p.r + m * e.r, p.s + m * e.s)
        assume(p.r >= 0 and p.s >= 0)
    else:
        p = P(draw(st.integers(0, 30)), draw(st.integers(0, 30)))
    return tuple(chain), p


@settings(max_examples=400, deadline=None)
@given(chains_and_points())
@example(((P(0, 1), P(2, 5)), P(2, 6)))
@example(((P(0, 1), P(1, 0)), P(3, 2)))
@example(((), P(1, 1)))
@example(((_point(-1, -2),), P(2, 4)))
def test_decompose_over_matches_the_unimodular_oracle(chain_and_point):
    """Wherever ``oracles.unimodular_decomposition`` answers (it divides by
    zero on a one-element chain holding the origin), ``decompose_over``
    gives its pairs, l before h, or None where it gives None."""
    chain, p = chain_and_point
    try:
        expected = unimodular_decomposition(p, chain)
    except ZeroDivisionError:
        assume(False)
    parts = decompose_over(p, chain)
    assert (None if parts is None else list(parts.items())) == expected


def test_decompose_agrees_with_exhaustive_oracle():
    basis = hilbert_basis(cone(P(2, 5), P(0, 1)))
    valid = all_decompositions(P(2, 6), basis.elements)
    assert decompose_over(P(2, 6), basis.elements) in valid
    assert {P(2, 5): 1, P(0, 1): 1} in valid


def test_decompose_outside_cone():
    basis = hilbert_basis(cone(P(2, 5), P(0, 1)))
    assert decompose_over(P(5, 1), basis.elements) is None


def test_decompose_deterministic():
    c = cone(P(3, 2), P(2, 5))
    basis = hilbert_basis(c)
    rng = random.Random(7)
    for _ in range(50):
        l1, l2 = rng.randint(0, 6), rng.randint(0, 6)
        p = c.ray_low.scaled(l1) + c.ray_high.scaled(l2)
        assert decompose_over(p, basis.elements) == decompose_over(p, basis.elements)


def test_decompose_over_failure_returns_none():
    assert decompose_over(P(2, 1), [P(1, 0)]) is None
    assert decompose_over(P(0, 0), []) == {}


@given(st.integers(0, 5), st.integers(0, 5))
def test_decompose_recombines_in_cone(l1, l2):
    c = cone(P(3, 1), P(1, 3))
    basis = hilbert_basis(c)
    p = c.ray_low.scaled(l1) + c.ray_high.scaled(l2)
    parts = decompose_over(p, basis.elements)
    total = P(0, 0)
    for e, m in parts.items():
        total = total + e.scaled(m)
    assert total == p


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_cone_closed_under_addition(m1, m2, k1, k2):
    c = cone(P(3, 2), P(2, 5))
    p = c.ray_low.scaled(m1) + c.ray_high.scaled(m2)
    q = c.ray_low.scaled(k1) + c.ray_high.scaled(k2)
    assert frac_cone_contains(c, p) and frac_cone_contains(c, q)
    assert frac_cone_contains(c, p + q)


def _enumeration_size(p, elements):
    """Number of multiplicity vectors oracles.all_decompositions would scan."""
    size = 1
    for e in elements:
        caps = [p.r // e.r if e.r else p.r + p.s, p.s // e.s if e.s else p.r + p.s]
        size *= min(caps) + 1
    return size


exponents = st.lists(st.integers(0, 12), min_size=1, max_size=3)


@given(exponents, exponents, st.integers(0, 10**6), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 10**6))
def test_unimodular_decomposition_against_search_and_oracle(a, b, cone_pick, l1, l2, e_pick):
    # cones of a fan, so that the coefficient max(r*a_k, s*b_k) is linear on each
    n = min(len(a), len(b))
    a, b = tuple(a[:n]), tuple(b[:n])
    assume(any(a) and any(b))
    fan = build_fan(a, b)
    c = fan.cones[cone_pick % len(fan.cones)]
    chain = hilbert_basis(c).elements
    p = c.ray_low.scaled(l1) + c.ray_high.scaled(l2) + chain[e_pick % len(chain)]
    pairs = unimodular_decomposition(p, chain)
    assert pairs is not None and len(pairs) <= 2
    assert all(e in chain and m > 0 for e, m in pairs)
    assert (sum(m * e.r for e, m in pairs), sum(m * e.s for e, m in pairs)) == (p.r, p.s)
    if _enumeration_size(p, chain) <= 20_000:
        assert dict(pairs) in all_decompositions(p, chain)

    def coefficient_product(parts):
        return tuple(
            sum(m * max(e.r * x, e.s * y) for e, m in parts) for x, y in zip(a, b)
        )

    searched = search_decomposition(p, chain)
    assert coefficient_product(pairs) == coefficient_product(searched.items())
    assert coefficient_product(pairs) == tuple(max(p.r * x, p.s * y) for x, y in zip(a, b))


def test_unimodular_decomposition_examples():
    chain = hilbert_basis(cone(P(0, 1), P(2, 5))).elements
    assert chain == (P(0, 1), P(1, 3), P(2, 5))
    assert unimodular_decomposition(P(0, 0), chain) == []
    assert unimodular_decomposition(P(2, 6), chain) == [(P(1, 3), 2)]
    assert unimodular_decomposition(P(3, 8), chain) == [(P(2, 5), 1), (P(1, 3), 1)]
    assert unimodular_decomposition(P(0, 4), chain) == [(P(0, 1), 4)]
    assert unimodular_decomposition(P(4, 10), [P(2, 5)]) == [(P(2, 5), 2)]


def test_unimodular_decomposition_rejects_what_it_cannot_write():
    chain = [P(0, 1), P(1, 3), P(2, 5)]
    assert unimodular_decomposition(P(5, 1), chain) is None  # outside the cone
    assert unimodular_decomposition(P(1, 4), [P(0, 1), P(2, 5)]) is None  # det 2 pair
    assert unimodular_decomposition(P(1, 3), [P(2, 5)]) is None  # off the ray
    assert unimodular_decomposition(P(1, 3), []) is None

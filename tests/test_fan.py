import random
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from conealg import (
    Cone2,
    LatticePoint2,
    build_fan,
    cone,
    fan_order,
    hilbert_basis,
)
from conealg import fans, lattice
from conealg.fans import locate
from conealg.lattice import _cone, primitive
from oracles import frac_cone_contains, random_exponent_pair

P = LatticePoint2


def test_fan_order_already_ordered():
    assert fan_order((5, 2), (2, 3)) == ((5, 2), (2, 3), (0, 1))


def test_fan_order_sorts_by_descending_ratio():
    assert fan_order((2, 5), (3, 2)) == ((5, 2), (2, 3), (1, 0))


def test_fan_order_ties_are_stable():
    assert fan_order((1, 1), (1, 1)) == ((1, 1), (1, 1), (0, 1))


def test_fan_order_infinite_ratio_sorts_first():
    # b_i = 0 reads as ratio +infinity
    assert fan_order((2, 3), (1, 0)) == ((3, 2), (0, 1), (1, 0))


def test_fan_order_drops_indices_absent_from_both():
    assert fan_order((1, 0), (1, 0)) == ((1,), (1,), (0,))


def test_fan_order_errors():
    with pytest.raises(ValueError, match="same length"):
        fan_order((1, 2), (1,))
    with pytest.raises(ValueError, match="positive entry"):
        fan_order((0, 0), (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        fan_order((1, -2), (1, 2))
    with pytest.raises(ValueError, match="nonempty"):
        fan_order((), ())


def test_fan_order_idempotent():
    rng = random.Random(11)
    for _ in range(40):
        a, b = random_exponent_pair(rng)
        a2, b2, _ = fan_order(a, b)
        a3, b3, perm = fan_order(a2, b2)
        assert (a3, b3) == (a2, b2)
        assert perm == tuple(range(len(a2)))


def test_build_fan_golden():
    fan = build_fan((5, 2), (2, 3))
    assert [(c.ray_high, c.ray_low) for c in fan.cones] == [
        (P(0, 1), P(2, 5)),
        (P(2, 5), P(3, 2)),
        (P(3, 2), P(1, 0)),
    ]


def test_build_fan_single_prime():
    fan = build_fan((1,), (1,))
    assert [(c.ray_high, c.ray_low) for c in fan.cones] == [
        (P(0, 1), P(1, 1)),
        (P(1, 1), P(1, 0)),
    ]


def test_build_fan_middle_rays():
    fan = build_fan((2, 1), (1, 1))
    assert [(c.ray_high, c.ray_low) for c in fan.cones] == [
        (P(0, 1), P(1, 2)),
        (P(1, 2), P(1, 1)),
        (P(1, 1), P(1, 0)),
    ]


def test_build_fan_sorts_unordered_pair():
    fan = build_fan((2, 5), (3, 2))
    assert (fan.a, fan.b, fan.order) == ((5, 2), (2, 3), (1, 0))


def test_build_fan_drops_dead_index():
    fan = build_fan((1, 0), (1, 0))
    assert (fan.a, fan.order) == ((1,), (0,))


# small entries give zero, both-zero and tied columns
COLUMNS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6)


@given(COLUMNS.filter(lambda cs: any(x for x, _ in cs) and any(y for _, y in cs)))
def test_build_fan_is_fan_order_then_cones(columns):
    a, b = (tuple(v) for v in zip(*columns))
    fan = build_fan(a, b)
    assert (fan.a, fan.b, fan.order) == fan_order(a, b)
    assert fan.cones == build_fan(fan.a, fan.b).cones
    first = {}
    for i, chain in enumerate(fan.chains):
        for p in chain:
            if p not in first:
                first[p] = i
    assert list(fan.degrees.items()) == list(first.items())


@given(COLUMNS.filter(lambda cs: any(x for x, _ in cs) and any(y for _, y in cs)))
def test_build_fan_cones_pass_the_checked_constructors(columns):
    # build_fan builds its rays and cones unchecked, from fan_order's checked columns
    a, b = (tuple(v) for v in zip(*columns))
    for c in build_fan(a, b).cones:
        low, high = (P(ray.r, ray.s) for ray in (c.ray_low, c.ray_high))
        checked = Cone2(ray_low=low, ray_high=high)
        assert (low, high) == (c.ray_low, c.ray_high)
        assert c == checked and hash(c) == hash(checked)
        assert c == cone(c.ray_low, c.ray_high)


def reference_fan_order(a, b):
    """fan_order as a stable cmp_to_key sort over every column index by the
    cross product of ratios, the arbiter of the grouping into ray classes."""
    keep = [i for i in range(len(a)) if a[i] or b[i]]

    def cmp(i, j):
        lhs, rhs = a[i] * b[j], a[j] * b[i]
        return (lhs < rhs) - (lhs > rhs)

    keep.sort(key=cmp_to_key(cmp))
    return tuple(a[i] for i in keep), tuple(b[i] for i in keep), tuple(keep)


# (a_i, b_i) columns: small entries, and multiples of a few rays, up to 20
# digits, so that ratios tie, also on the sentinel rays (b = 0 and a = 0),
# and both-zero columns occur
RAYS = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (5, 3)])
SCALE = st.one_of(st.integers(1, 4), st.integers(10**19, 10**20 - 1))
TIED = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.builds(lambda ray, k: (ray[0] * k, ray[1] * k), RAYS, SCALE),
)


@given(st.lists(TIED, min_size=1, max_size=200)
       .filter(lambda cs: any(x for x, _ in cs) and any(y for _, y in cs)))
def test_fan_matches_per_column_reference(columns):
    a, b = (tuple(v) for v in zip(*columns))
    sorted_a, sorted_b, order = reference_fan_order(a, b)
    assert fan_order(a, b) == (sorted_a, sorted_b, order)
    fan = build_fan(a, b)
    assert (fan.a, fan.b, fan.order) == (sorted_a, sorted_b, order)
    rays = [P(0, 1), *(primitive(P(x, y)) for x, y in zip(sorted_b, sorted_a)), P(1, 0)]
    cones = list(map(_cone, rays[1:], rays))
    assert list(fan.cones) == cones
    chains = [hilbert_basis(c).elements for c in cones]
    assert list(fan.chains) == chains
    first = {}
    for i, chain in enumerate(chains):
        for p in chain:
            first.setdefault(p, i)
    assert list(fan.degrees.items()) == list(first.items())


def test_chains_call_hilbert_basis_once_per_distinct_cone(calls):
    # 200 columns on few rays, both-zero columns and ties on both sentinels
    a = [k % 7 for k in range(200)] + [3, 3, 0, 0, 0]
    b = [3 * k % 5 for k in range(200)] + [0, 0, 4, 4, 0]
    fan = build_fan(a, b)
    seen = calls("lattice.hilbert_basis")
    fan.chains
    assert [c for c, in seen] == list(dict.fromkeys(fan.cones))
    assert len(seen) < 50 < len(fan.cones)


def test_build_fan_checks_nothing_twice(monkeypatch):
    def checked_again(*args):
        raise AssertionError("build_fan re-checked a value that fan_order checked")

    monkeypatch.setattr(LatticePoint2, "__init__", checked_again)
    monkeypatch.setattr(Cone2, "__init__", checked_again)
    monkeypatch.setattr(lattice, "primitive", checked_again)
    monkeypatch.setattr(fans, "primitive", checked_again, raising=False)
    fan = build_fan((5, 0, 2, 1), (2, 0, 3, 0))
    assert [((c.ray_high.r, c.ray_high.s), (c.ray_low.r, c.ray_low.s)) for c in fan.cones] == [
        ((0, 1), (0, 1)),
        ((0, 1), (2, 5)),
        ((2, 5), (3, 2)),
        ((3, 2), (1, 0)),
    ]


def test_degenerate_cone_from_vanishing_b_entry():
    # ratio +infinity merges the first interior ray with the (0,1) sentinel
    fan = build_fan((2, 3), (3, 0))
    assert fan.cones[0].is_degenerate
    assert hilbert_basis(fan.cones[0]).elements == (P(0, 1),)


def test_degenerate_cone_from_tied_ratios():
    fan = build_fan((2, 4), (1, 2))
    assert len(fan.cones) == 3
    assert fan.cones[1].is_degenerate
    assert fan.cones[1].ray_low == P(1, 2)


def test_locate_examples():
    fan = build_fan((5, 2), (2, 3))
    assert locate(fan, P(1, 3)) == 0
    assert locate(fan, P(0, 0)) == 0
    assert locate(fan, P(2, 5)) == 0  # shared ray of C_0 and C_1: lowest index
    assert locate(fan, P(3, 2)) == 1
    assert locate(fan, P(6, 1)) == 2


def test_sentinels():
    rng = random.Random(23)
    for _ in range(20):
        a, b = random_exponent_pair(rng)
        fan = build_fan(a, b)
        assert fan.cones[0].ray_high == P(0, 1)
        assert fan.cones[-1].ray_low == P(1, 0)
        for k in range(6):
            assert frac_cone_contains(fan.cones[0], P(0, k))
            assert frac_cone_contains(fan.cones[-1], P(k, 0))


def test_monotone_slopes_and_shared_rays():
    rng = random.Random(29)
    for _ in range(20):
        a, b = random_exponent_pair(rng)
        fan = build_fan(a, b)
        for left, right in zip(fan.cones, fan.cones[1:]):
            assert left.ray_low == right.ray_high
            # slope comparison by cross-multiplication
            assert left.ray_high.s * left.ray_low.r >= left.ray_low.s * left.ray_high.r


def test_boundary_rays_in_both_hilbert_bases():
    fan = build_fan((5, 2), (2, 3))
    for left, right in zip(fan.cones, fan.cones[1:]):
        shared = primitive(left.ray_low)
        assert hilbert_basis(left).elements[-1] == shared
        assert hilbert_basis(right).elements[0] == shared


def test_coverage_grid():
    for a, b in [((5, 2), (2, 3)), ((1,), (1,)), ((2, 4), (1, 2)), ((0, 3), (2, 1))]:
        fan = build_fan(a, b)
        for r in range(51):
            for s in range(51):
                locate(fan, P(r, s))  # raises if uncovered


def test_locate_bisection_matches_linear_scan():
    rng = random.Random(41)
    degenerate = 0
    for n in [1, 2, 3, 5, 8, 13, 50, 120, 200]:
        for _ in range(4):
            # small entries give tied ratios, hence degenerate cones
            a = [rng.randint(0, 4) for _ in range(n)]
            b = [rng.randint(0, 4) for _ in range(n)]
            a[0], b[-1] = a[0] or 1, b[-1] or 1
            fan = build_fan(a, b)
            degenerate += sum(c.is_degenerate for c in fan.cones)
            points = [P(0, 0)]
            for c in fan.cones:  # shared rays and their multiples
                points += [c.ray_low, c.ray_high.scaled(rng.randint(1, 5))]
            points += [P(rng.randint(0, 99), rng.randint(0, 99)) for _ in range(40)]
            for p in points:
                first = next(i for i, c in enumerate(fan.cones) if frac_cone_contains(c, p))
                assert locate(fan, p) == first, (fan.a, fan.b, p)
    assert degenerate > 0

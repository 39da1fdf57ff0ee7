"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report."""

import itertools
import random
import time

from conealg import (
    BigradedMonomial,
    LatticePoint2,
    Monomial,
    MonomialIdeal,
    asymptotic_limits,
    check_fan_linear,
    build_fan,
    cone,
    fan_algebra_generators,
    hilbert_basis,
    ideal_power,
    intersection_as_fan_algebra,
    intersection_generators,
    maximal_ideal,
    principal_cap_maximal_power,
    principal_intersection,
    verify_generation,
)
from conealg.fan_algebra import FanLinearityError
from conealg.lattice import decompose_over
from oracles import (
    brute_intersection,
    frac_cone_contains,
    largest_inner_power,
    random_exponent_pair,
)

P = LatticePoint2
M = Monomial


def _report(number: int, detail: str):
    print(f"ACCEPTANCE {number}: PASS — {detail}")


def test_criterion_1_golden_generator_set():
    start = time.perf_counter()
    gs = intersection_generators((5, 2), (2, 3))
    elapsed = time.perf_counter() - start
    expected = {
        BigradedMonomial(M((5, 2)), P(1, 0)),
        BigradedMonomial(M((10, 4)), P(2, 1)),
        BigradedMonomial(M((15, 6)), P(3, 2)),
        BigradedMonomial(M((5, 3)), P(1, 1)),
        BigradedMonomial(M((5, 6)), P(1, 2)),
        BigradedMonomial(M((2, 3)), P(0, 1)),
        BigradedMonomial(M((6, 9)), P(1, 3)),
        BigradedMonomial(M((10, 15)), P(2, 5)),
    }
    assert set(gs.generators) == expected
    assert len(gs.generators) == 8
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    _report(1, f"8-generator set exact, {elapsed * 1000:.1f} ms")


def test_criterion_2_hilbert_basis_goldens():
    start = time.perf_counter()
    b0 = hilbert_basis(cone(P(2, 5), P(0, 1))).elements
    b1 = hilbert_basis(cone(P(3, 2), P(2, 5))).elements
    b2 = hilbert_basis(cone(P(1, 0), P(3, 2))).elements
    elapsed = time.perf_counter() - start
    assert b0 == (P(0, 1), P(1, 3), P(2, 5))
    assert b1 == (P(2, 5), P(1, 2), P(1, 1), P(3, 2))
    assert b2 == (P(3, 2), P(2, 1), P(1, 0))
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    _report(2, f"three golden Hilbert bases exact, {elapsed * 1000:.1f} ms")


def test_criterion_3_component_oracle():
    a, b = (2, 1), (1, 3)
    ia = MonomialIdeal(2, [M(a)])
    ib = MonomialIdeal(2, [M(b)])
    for r, s, expected in ((2, 3, (4, 9)), (4, 1, (8, 4))):
        assert principal_intersection(a, b, r, s) == M(expected)
        via_ideals = brute_intersection(ideal_power(ia, r), ideal_power(ib, s))
        assert via_ideals == MonomialIdeal(2, [M(expected)])
    _report(3, "I^2 cap J^3 = (x^4y^9) and I^4 cap J = (x^8y^4) on both paths")


def test_criterion_4_property_suite():
    start = time.perf_counter()
    rng = random.Random(2026)
    cases = 0
    for _ in range(50):
        a, b = random_exponent_pair(rng, max_len=4, max_entry=6)
        gs = intersection_generators(a, b)
        report = verify_generation(a, b, gs, 15, 15)
        assert report.passed, f"verify failed for a={a} b={b}: {report.summary()}"
        for c in gs.fan.cones:
            basis = hilbert_basis(c)
            for e in basis.elements:
                for qr in range(e.r + 1):
                    for qs in range(e.s + 1):
                        q = P(qr, qs)
                        rest = e - q
                        if q.is_origin() or rest.is_origin():
                            continue
                        assert not (
                            frac_cone_contains(c, q) and frac_cone_contains(c, rest)
                        ), f"basis element {e} of {c} is reducible"
            for r in range(26):
                for s in range(26):
                    p = P(r, s)
                    if not frac_cone_contains(c, p):
                        continue
                    total = P(0, 0)
                    for e, m in decompose_over(p, basis.elements).items():
                        total = total + e.scaled(m)
                    assert total == p
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 50
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(4, f"50 random (a,b): 15x15 verification + basis checks, {elapsed:.1f} s")


def test_criterion_5_cross_path_equivalence():
    start = time.perf_counter()
    rng = random.Random(425)
    for _ in range(25):
        a, b = random_exponent_pair(rng, max_len=4, max_entry=6)
        via_fan_algebra = set(fan_algebra_generators(intersection_as_fan_algebra(a, b)))
        direct = set(intersection_generators(a, b).generators)
        assert via_fan_algebra == direct, f"paths differ for a={a} b={b}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _report(5, f"25 random (a,b) agree across both construction paths, {elapsed:.1f} s")


def test_criterion_6_fan_linearity_decision():
    fan = build_fan((1,), (1,))
    accepted = check_fan_linear(fan, ((1, 2), (2, 1)))

    rejected_witnesses = []
    try:
        check_fan_linear(fan, ((1, 2), (1, 0)))
    except FanLinearityError as e:
        rejected_witnesses.append((e.condition, e.witness, str(e)))
    try:
        check_fan_linear(fan, ((2, 1), (1, 2)))
    except FanLinearityError as e:
        rejected_witnesses.append((e.condition, e.witness, str(e)))
    assert len(rejected_witnesses) == 2
    condition, witness, message = rejected_witnesses[0]
    assert condition == "face_agreement" and witness == P(1, 1)
    assert "3 != 1" in message
    condition, witness, message = rejected_witnesses[1]
    assert condition == "subadditivity" and witness == (P(0, 1), P(1, 0))
    assert "1+1 < f(1,1) = 3" in message

    rng = random.Random(426)
    for _ in range(10_000):
        p = P(rng.randint(0, 30), rng.randint(0, 30))
        q = P(rng.randint(0, 30), rng.randint(0, 30))
        assert accepted(p) + accepted(q) >= accepted(p + q)
    _report(6, "accept/reject decisions with documented witnesses; 10^4 samples agree")


def test_criterion_7_principal_cap_identity():
    start = time.perf_counter()
    checked = 0
    for n_vars in (1, 2, 3):
        m = maximal_ideal(n_vars)
        monomials = [
            M(e)
            for total in (1, 2, 3)
            for e in itertools.product(range(total + 1), repeat=n_vars)
            if sum(e) == total
        ]
        for f in monomials:
            principal = MonomialIdeal(n_vars, [f])
            for r in range(7):
                for s in range(7):
                    direct = principal_cap_maximal_power(n_vars, f, r, s)
                    oracle = brute_intersection(
                        ideal_power(principal, r), ideal_power(m, s)
                    )
                    assert direct == oracle, f"f={f} r={r} s={s}"
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f}s"
    _report(7, f"{checked} exhaustive identity checks, {elapsed:.1f} s")


def test_criterion_8_limits_against_divisibility_oracle():
    rng = random.Random(428)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(1, 6) for _ in range(n))
        b = tuple(rng.randint(1, 6) for _ in range(n))
        limits = asymptotic_limits(a, b)
        assert limits.l_I_of_J * limits.L_J_of_I == 1
        assert limits.l_J_of_I * limits.L_I_of_J == 1
        for m in range(1, 61):
            v = largest_inner_power(a, b, m)
            assert abs(v / m - limits.l_I_of_J) <= max(a) / m, f"a={a} b={b} m={m}"
    _report(8, "20 random pairs: slope formulas match the divisibility oracle")

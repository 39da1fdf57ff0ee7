"""``verify_fan_algebra``'s all-degree certificate for specs of principal
ideals (``fan_algebra._principal_certified``): whenever it answers, the grid
walk gives the identical report, and every tampered input, non-principal
spec or maximal-ideal spec is left to the walk."""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from conealg import (
    BigradedMonomial,
    FanAlgebraSpec,
    FanLinearFunction,
    FanLinearityError,
    LatticePoint2,
    Monomial,
    MonomialIdeal,
    PowerCapError,
    build_fan,
    check_fan_linear,
    fan_algebra_generators,
    intersection_as_fan_algebra,
    principal_cap_algebra,
    verify_fan_algebra,
)
from conealg import fan_algebra
from conealg.cli import main
from conealg.fans import Fan
from conealg.monomials import DEFAULT_MAX_CANDIDATES, default_variables
from oracles import reference_verify_fan_algebra
from strategies import column_pairs

P = LatticePoint2
M = Monomial


def _outcome(spec, gens, r_max, s_max, walk_only=False):
    """(report fields, walked), or (the error's type and text, walked);
    ``walk_only`` takes the certificate out, so the walk is the verdict."""
    walks = []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    walk = fan_algebra._verify_grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fan_algebra, "_verify_grid", counted)
        if walk_only:
            mp.setattr(fan_algebra, "_principal_certified", lambda *args: False)
        try:
            report = verify_fan_algebra(spec, gens, r_max, s_max)
        except (ValueError, PowerCapError) as e:
            return (type(e).__name__, str(e)), bool(walks)
    fields = (report.passed, report.total, report.failures, report.first_failure, report.reason)
    return fields, bool(walks)


def _components(spec, degrees):
    """One generator per (degree, cone): the product of x^g_k to the power
    max(f_k(p), 0) of cone i's piece, g_k the generator of I_k."""
    n = len(spec.variables)
    gens = []
    for p, i in degrees:
        exponents = [0] * n
        for ideal, f in zip(spec.ideals, spec.functions):
            (g,) = ideal.exponents
            m = max(f.piece_value(i, p), 0)
            exponents = [x + m * y for x, y in zip(exponents, g)]
        gens.append(BigradedMonomial(M(tuple(exponents)), p))
    return tuple(gens)


TAMPERS = ("none", "drop", "alter", "extra")


def _tamper(gens, kind, pick):
    """Drop one generator, raise one exponent of one by 1, or add one more
    monomial at its degree: x_j^(e_j + 1) for the next variable j after
    one that occurs in the generator, which neither divides it nor is
    divided by it, or the unit monomial where no such j exists."""
    gens = list(gens)
    k = pick % len(gens)
    g = gens[k]
    e = list(g.coeff.exponents)
    if kind == "drop":
        del gens[k]
    elif kind == "alter":
        e[pick % len(e)] += 1
        gens[k] = BigradedMonomial(M(tuple(e)), g.degree)
    elif kind == "extra":
        extra = [0] * len(e)
        occurs = [i for i, x in enumerate(e) if x]
        if occurs and len(e) > 1:
            j = (occurs[pick % len(occurs)] + 1) % len(e)
            extra[j] = e[j] + 1
        gens.append(BigradedMonomial(M(tuple(extra)), g.degree))
    return tuple(gens)


@st.composite
def principal_specs(draw):
    """A spec of 1-3 principal ideals over 1-3 variables on the fan of a
    random pair (degenerate cones included), one function per ideal: a
    column's max(r*a_k, s*b_k) plus a linear form with coefficients -1..2,
    checked when ``check_fan_linear`` accepts it; or the same with one
    coefficient of one piece moved by 1 (a face disagreement, as a rule), or
    random pieces with coefficients -2..3, both unchecked."""
    a, b = draw(column_pairs(max_entry=5, max_columns=3))
    fan = build_fan(a, b)
    walls = intersection_as_fan_algebra(a, b).functions
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    ideals = tuple(
        MonomialIdeal(n, [M(draw(st.tuples(*[st.integers(0, 2)] * n)))]) for _ in range(count)
    )
    functions, checked = [], []
    for _ in range(count):
        kind = draw(st.sampled_from(["max", "disagree", "random"]))
        if kind == "random":
            coeff = st.integers(-2, 3)
            pieces = [draw(st.tuples(coeff, coeff)) for _ in fan.cones]
        else:
            c, d = draw(st.integers(-1, 2)), draw(st.integers(-1, 2))
            base = draw(st.sampled_from(walls)).pieces
            pieces = [(alpha + c, beta + d) for alpha, beta in base]
            if kind == "disagree":
                i, j = draw(st.integers(0, len(pieces) - 1)), draw(st.integers(0, 1))
                moved = list(pieces[i])
                moved[j] += draw(st.sampled_from([-1, 1]))
                pieces[i] = tuple(moved)
        try:
            functions.append(check_fan_linear(fan, pieces))
            checked.append(True)
        except FanLinearityError:
            functions.append(FanLinearFunction(fan, tuple(pieces)))
            checked.append(False)
    spec = FanAlgebraSpec(default_variables(n), ideals, tuple(functions))
    return spec, all(checked)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    principal_specs(),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from(TAMPERS),
    st.integers(0, 10**6),
    st.integers(0, 4),
)
def test_certificate_answers_only_as_the_walk_does(spec_checked, r_max, s_max, kind, pick, which):
    spec, checked = spec_checked
    fan = spec.fan
    intact = _components(spec, fan.degrees.items())
    gens = _tamper(intact, kind, pick)
    bound = max(
        max(alpha, 0) * r_max + max(beta, 0) * s_max
        for f in spec.functions
        for alpha, beta in f.pieces
    )
    cells = (r_max + 1) * (s_max + 1)
    cap = [bound, bound - 1, cells, cells - 1, DEFAULT_MAX_CANDIDATES][which]
    cap = max(cap, 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CONEALG_MAX_CANDIDATES", str(cap))
        outcome, walked = _outcome(spec, gens, r_max, s_max)
        walk, _ = _outcome(spec, gens, r_max, s_max, walk_only=True)
    assert outcome == walk
    event("certified" if not walked else "walked")
    if not walked:  # the certificate answered, or the grid passed the cap first
        assert outcome == (True, cells, 0, None, None) or outcome[1].startswith("grid too large")
    # the certificate is no empty promise: on intact generators of a checked
    # spec it answers whenever no power it takes passes the cap
    at_chains = max(
        f.piece_value(i, e)
        for f in spec.functions
        for i, chain in enumerate(fan.chains)
        for e in chain
    )
    if checked and kind == "none" and max(bound, cells, at_chains) <= cap:
        assert not walked


def _principal_spec():
    return intersection_as_fan_algebra((5, 2), (2, 3))


def _det2_fan(fan):
    """A hand-built copy of ``fan`` whose longest chain has lost an
    interior element, so one step has det 2."""
    copy = Fan(fan.a, fan.b, fan.order, fan.cones)
    i = max(range(len(fan.chains)), key=lambda i: len(fan.chains[i]))
    chain = fan.chains[i]
    assert len(chain) > 2
    vars(copy)["chains"] = fan.chains[:i] + (chain[:1] + chain[2:],) + fan.chains[i + 1 :]
    return copy


def _tampered_case(kind):
    spec = _principal_spec()
    gens = fan_algebra_generators(spec)
    at = {g.degree: k for k, g in enumerate(gens)}
    k = at[P(1, 1)]
    if kind == "drop":
        gens = gens[:k] + gens[k + 1 :]
    elif kind == "alter":
        gens = gens[:k] + (BigradedMonomial(gens[k].coeff * M((1, 0)), P(1, 1)),) + gens[k + 1 :]
    elif kind == "extra":  # x^5*y^3 and y^4 at (1,1)
        gens = gens + (BigradedMonomial(M((0, 4)), P(1, 1)),)
    else:  # "det2"
        fan = _det2_fan(spec.fan)
        spec = FanAlgebraSpec(
            spec.variables, spec.ideals,
            tuple(FanLinearFunction(fan, f.pieces) for f in spec.functions),
        )
    return spec, gens


@pytest.mark.parametrize("kind", ["drop", "alter", "extra", "det2"])
def test_tampered_principal_spec_takes_the_walk_and_fails(kind):
    spec, gens = _tampered_case(kind)
    outcome, walked = _outcome(spec, gens, 6, 6)
    assert walked and outcome[0] is False
    expected = reference_verify_fan_algebra(spec, gens, 6, 6, DEFAULT_MAX_CANDIDATES)
    assert outcome == (expected.passed, expected.total, expected.failures,
                       expected.first_failure, expected.reason)


def _non_principal_spec():
    """The principal spec with its first ideal (x) replaced by (x, y^2)."""
    spec = _principal_spec()
    ideals = (MonomialIdeal(2, [M((1, 0)), M((0, 2))]),) + spec.ideals[1:]
    return FanAlgebraSpec(spec.variables, ideals, spec.functions)


@pytest.mark.parametrize(
    "make,walks",
    [(_principal_spec, 0), (lambda: principal_cap_algebra(2, M((1, 0))), 1),
     (_non_principal_spec, 1)],
    ids=["principal", "maximal-cap", "non-principal"],
)
def test_only_principal_specs_skip_the_walk(make, walks, calls):
    spec = make()
    walked = calls("generators._verify_grid")
    report = verify_fan_algebra(spec, fan_algebra_generators(spec), 6, 6)
    assert report.summary() == "PASS 49/49 components" and len(walked) == walks


def test_principal_spec_on_the_largest_grid_answers_at_once(tmp_path, capsys, deadline):
    """10**6 cells, the default cap: the certificate's cost does not grow
    with the grid, where the walk builds one component per cell."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "variables": ["x", "y"], "a": [5, 2], "b": [2, 3], "ideals": [["x"], ["y"]],
        "pieces": [[[0, 2], [5, 0], [5, 0]], [[0, 3], [0, 3], [2, 0]]],
    }))
    with deadline(1):
        code = main(["fan-algebra", "--spec", str(path), "--verify", "999x999"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "PASS 1000000/1000000 components"


@pytest.mark.parametrize("extra", [-1, 1])
def test_function_with_a_piece_count_off_the_fan_is_refused(extra):
    """A function with one piece too few or too many is refused where it is
    built, so neither the certificate nor the walk ever reads a piece that
    is missing."""
    spec = _principal_spec()
    pieces = spec.functions[0].pieces
    pieces = pieces[:extra] if extra < 0 else pieces + pieces[-1:]
    n = len(spec.fan.cones)
    with pytest.raises(ValueError) as info:
        FanLinearFunction(spec.fan, pieces)
    assert str(info.value) == f"one coefficient pair per cone: got {n + extra} for {n} cones"

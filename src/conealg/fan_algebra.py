"""Fan algebras: piecewise-linear exponent functions on a fan and the graded
algebras they define.

A candidate function is given by one integer coefficient pair per cone,
g_i(r, s) = alpha_i*r + beta_i*s.  It is fan-linear when it is nonnegative on
each cone, agrees across shared rays, and is subadditive on all of N^2.  For
functions linear on the cones of a complete fan (and zero at the origin),
subadditivity is equivalent to the function being the pointwise max of its
pieces, which reduces to finitely many ray comparisons, made here in one
sweep.  A failed comparison yields the subadditivity witness directly: a
genuine violating pair, not necessarily the smallest.
"""

from functools import cache
from operator import add
from typing import Iterable, Optional, Sequence

from .fans import Fan, build_fan, locate
from .generators import (
    VerificationReport,
    _fan_rays,
    _grid_cells,
    _unimodular_chain,
    _verify_grid,
)
from .lattice import LatticePoint2, _point, _value_class, det
from .monomials import (
    BigradedMonomial,
    Monomial,
    MonomialIdeal,
    PowerCapError,
    _candidate_cap,
    _natural,
    _product_exponents,
    check_variable_names,
    default_variables,
    ideal_power,
    ideal_product,
    maximal_ideal,
    parse_monomial,
)


class FanLinearityError(ValueError):
    """Rejection of a candidate piecewise function.

    ``condition`` is one of "nonnegativity", "face_agreement", or
    "subadditivity"; ``witness`` is a concrete violating point, or for
    subadditivity a constructed violating pair (genuine, not always smallest).
    """

    def __init__(self, condition: str, witness, message: str):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


@_value_class()
class FanLinearFunction:
    """A fan-linear function: one (alpha, beta) pair per cone of ``fan``.

    The constructor checks only its piece count: ValueError unless there is
    one pair per cone.  Pieces from outside the library go through
    ``check_fan_linear``; ``intersection_as_fan_algebra`` and
    ``principal_cap_algebra`` build theirs directly, fan-linear by
    construction."""

    fan: Fan
    pieces: tuple[tuple[int, int], ...]

    def __init__(self, fan, pieces):
        if len(pieces) != len(fan.cones):
            raise ValueError(
                f"one coefficient pair per cone: got {len(pieces)} for {len(fan.cones)} cones"
            )
        self.__dict__.update(fan=fan, pieces=pieces)

    def piece_value(self, i: int, p: LatticePoint2) -> int:
        alpha, beta = self.pieces[i]
        return alpha * p.r + beta * p.s

    def __call__(self, p: LatticePoint2) -> int:
        return self.piece_value(locate(self.fan, p), p)


def _subadditivity_witness(f: FanLinearFunction, i: int, w: LatticePoint2):
    """The rejection of f by a pair (p, q) with f(p) + f(q) < f(p + q), from
    the steepest ray w at which the piece g_i of a non-degenerate cone exceeds f.
    Cone i lies below w: a steeper piece exceeds f at w only past a concave
    kink above w, where the lower piece exceeds f at a steeper ray.  The least
    multiple q of ray_low_i with w + q in cone i gives f(w) + f(q) <
    g_i(w) + g_i(q) = f(w + q).  Genuine, though not always the smallest."""
    c = f.fan.cones[i]
    q = c.ray_low.scaled(-(det(w, c.ray_high) // det(c.ray_low, c.ray_high)))
    p, q = sorted((w, q), key=lambda x: (x.r + x.s, x.r))
    message = f"f{p}+f{q} = {f(p)}+{f(q)} < f{p + q} = {f(p + q)}"
    return FanLinearityError("subadditivity", (p, q), message)


def check_fan_linear(
    fan: Fan, pieces: Iterable[Sequence[int]]
) -> FanLinearFunction:
    """Validate one (alpha, beta) coefficient pair per cone as a fan-linear
    function, or raise FanLinearityError with the violated condition and a
    witness.

    Negative coefficients are accepted as long as the piece is nonnegative on
    its own cone (only values on the cone matter).

    The cones must run contiguously from the ray (0,1) to (1,0), as every
    fan from ``build_fan`` does; otherwise ValueError names the first joint
    where they do not, before any piece is read.  Subadditivity is decided
    in one O(C log C) sweep over the upper hull of the C pieces; its
    reference is the O(C^2) ray scan of the tests, ``reference_subadditivity_scan``.
    """
    _fan_rays(fan.cones)
    normalized = []
    for i, pair in enumerate(pieces):
        if len(pair) != 2:
            raise ValueError(f"piece {i}: expected a pair (alpha, beta), got {len(pair)} entries")
        for x in pair:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"piece coefficients must be integers, got {x!r}")
        normalized.append(tuple(pair))
    f = FanLinearFunction(fan, tuple(normalized))

    for i, c in enumerate(fan.cones):
        for ray in (c.ray_high, c.ray_low):
            if (value := f.piece_value(i, ray)) < 0:
                raise FanLinearityError(
                    "nonnegativity", ray, f"piece {i} is negative at ray {ray}: {value}"
                )

    for i in range(len(fan.cones) - 1):
        shared = fan.cones[i].ray_low  # == fan.cones[i + 1].ray_high
        left, right = f.piece_value(i, shared), f.piece_value(i + 1, shared)
        if left != right:
            raise FanLinearityError(
                "face_agreement", shared, f"face disagreement at {shared}: {left} != {right}"
            )

    # Subadditive iff f is the max of its pieces, iff no piece exceeds the
    # owner at a ray; a degenerate cone's piece, pinned on its ray by face
    # agreement, takes no part.  The largest piece at a ray is on the upper
    # hull of the distinct (alpha, beta) (Andrew's monotone chain); the rays
    # run from (0,1), best at its highest vertex, to (1,0): its cursor only moves right.
    used = [i for i, c in enumerate(fan.cones) if not c.is_degenerate]
    hull: list[tuple[int, int]] = []
    for alpha, beta in sorted({f.pieces[i] for i in used}):
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (beta - hull[-2][1]) >= (
            hull[-1][1] - hull[-2][1]
        ) * (alpha - hull[-2][0]):  # hull[-1] is no right turn
            hull.pop()
        hull.append((alpha, beta))
    k = 0
    for (alpha, beta), c in zip(f.pieces, fan.cones):
        for ray in (c.ray_high, c.ray_low):
            r, s = ray
            top = hull[k][0] * r + hull[k][1] * s
            while k + 1 < len(hull) and (value := hull[k + 1][0] * r + hull[k + 1][1] * s) >= top:
                k, top = k + 1, value
            owner = alpha * r + beta * s
            if top > owner:  # the first piece that exceeds the owner names the witness
                raise _subadditivity_witness(
                    f, next(i for i in used if f.piece_value(i, ray) > owner), ray)
    return f


@_value_class()
class FanAlgebraSpec:
    """Ideals I_1..I_n with fan-linear exponent functions f_1..f_n over one
    shared fan: the data of the graded algebra with (r, s) component
    I_1^{f_1(r,s)} ... I_n^{f_n(r,s)}.

    The powers of its ideals are remembered by (ideal, m, cap) for the life of
    the spec, so generation and verification compute each one once.  A call
    that raises stores nothing, so a later identical call raises the same
    PowerCapError.  Each ideal keeps only its minimal exponent tuples, and
    the power of a principal ideal is taken in closed form.  A component
    folds the powers with one generator into a single translate vector and
    multiplies only the others, in their order, with ``ideal_product``; since
    a translate never reaches the cap, it raises the PowerCapError that
    multiplying every power in turn would."""

    variables: tuple[str, ...]
    ideals: tuple[MonomialIdeal, ...]
    functions: tuple[FanLinearFunction, ...]

    def __init__(
        self,
        variables: tuple[str, ...],
        ideals: tuple[MonomialIdeal, ...],
        functions: tuple[FanLinearFunction, ...],
    ):
        if len(ideals) != len(functions) or not ideals:
            raise ValueError("need equally many ideals and functions, at least one each")
        check_variable_names(variables)
        for ideal in ideals:
            if ideal.nvars != len(variables):
                raise ValueError(
                    f"ideal arity {ideal.nvars} does not match {len(variables)} variables"
                )
            if ideal.is_zero():
                raise ValueError("ideals must be nonzero")
        fan = functions[0].fan
        for f in functions:
            if f.fan != fan:
                raise ValueError("all functions must share one fan")
        # _power is no field: it takes no part in ==, hash or repr
        self.__dict__.update(variables=variables, ideals=ideals, functions=functions,
                             _power=cache(ideal_power))

    @property
    def fan(self) -> Fan:
        return self.functions[0].fan


def _product_of_powers(
    spec: FanAlgebraSpec, factors: Iterable[tuple[MonomialIdeal, int]], max_candidates: int
) -> MonomialIdeal:
    """The product of the spec's powers of the (ideal, m) factors with m > 0;
    (1) if there are none.  Every power is taken first, so a power past the
    cap raises before any product.  Then the powers with one generator add up
    to one translate, and ``ideal_product`` runs only between the others, in
    their order: a translate could not pass the cap, since no kept set has
    more than ``max_candidates`` elements."""
    powers = [spec._power(ideal, m, max_candidates) for ideal, m in factors if m]
    shift = (0,) * len(spec.variables)
    product = None
    for power in powers:
        if len(power.exponents) == 1:
            (e,) = power.exponents
            shift = tuple(map(add, shift, e))
        else:
            product = power if product is None else ideal_product(product, power, max_candidates)
    if product is None:
        return MonomialIdeal._from_minimal(len(shift), [shift])
    if not any(shift):
        return product
    translated = _product_exponents((shift,), product.exponents)
    return MonomialIdeal._from_minimal(len(shift), translated)


def _component_on_cone(
    spec: FanAlgebraSpec, i: int, p: LatticePoint2, max_candidates: int
) -> MonomialIdeal:
    factors = [(ideal, f.piece_value(i, p)) for ideal, f in zip(spec.ideals, spec.functions)]
    return _product_of_powers(spec, factors, max_candidates)


def graded_component(spec: FanAlgebraSpec, r: int, s: int) -> MonomialIdeal:
    """The (r, s) component I_1^{f_1(r,s)} ... I_n^{f_n(r,s)} as a monomial
    ideal, from the powers the spec keeps."""
    _natural("r", r)
    _natural("s", s)
    p = _point(r, s)
    return _component_on_cone(spec, locate(spec.fan, p), p, _candidate_cap())


def fan_algebra_generators(spec: FanAlgebraSpec) -> tuple[BigradedMonomial, ...]:
    """Finite generating set: for every Hilbert basis element (r, s) of every
    cone, one generator per minimal generator of the (r, s) component.

    Ordered as ``spec.fan.degrees``: by cone index, then descending slope of
    the degree, then descending exponent order of the coefficient.  A degree
    shared by several cones is taken on the first of them, as ``degrees``
    maps it: face agreement gives every cone that holds it the same component.
    """
    cap = _candidate_cap()
    return tuple(
        BigradedMonomial(mono, p)
        for p, i in spec.fan.degrees.items()
        for mono in _component_on_cone(spec, i, p, cap).sorted_gens()
    )


def intersection_as_fan_algebra(
    a: Sequence[int], b: Sequence[int], variables: Optional[Sequence[str]] = None
) -> FanAlgebraSpec:
    """The intersection algebra of (x^a) and (x^b) as a fan algebra:
    I_k = (x_k) and f_k(r, s) = max(r*a_k, s*b_k), whose restriction to cone
    i of the fan of (a, b) is r*a_k left of the wall (fan position before i)
    and s*b_k from the wall on.  Fan-linear by construction, so unchecked:
    the two forms agree on the wall, the ray (b_k, a_k) of column k, and each
    is the larger one on its own side of it."""
    a, b = tuple(a), tuple(b)
    fan = build_fan(a, b)
    n = len(a)
    if variables is None:
        variables = default_variables(n)
    position = {original: j for j, original in enumerate(fan.order)}
    ncones = len(fan.cones)
    functions = []
    for k in range(n):
        j = position.get(k, 0)  # a column left out of the fan has a_k = b_k = 0
        pieces = tuple((a[k], 0) if j < i else (0, b[k]) for i in range(ncones))
        functions.append(FanLinearFunction(fan, pieces))
    xs = maximal_ideal(n).sorted_gens()  # x_1, ..., x_n
    ideals = tuple(MonomialIdeal._from_minimal(n, [x.exponents]) for x in xs)
    return FanAlgebraSpec(tuple(variables), ideals, tuple(functions))


def _principal_certified(
    spec: FanAlgebraSpec,
    ideals: dict[LatticePoint2, MonomialIdeal],
    r_max: int,
    s_max: int,
    cap: int,
) -> bool:
    """Whether the grid walk of ``verify_fan_algebra`` over ``ideals``, the
    supplied components by degree, would pass every cell of the grid
    [0..r_max] x [0..s_max] (of at most ``cap`` cells) without raising:

    1. every ideal of the spec has one generator;
    2. the chains pass ``_unimodular_chain``;
    3. every piece is >= 0 at both rays of its own cone, so on all of it;
    4. every piece (alpha, beta) has max(alpha, 0)*r_max + max(beta, 0)*s_max
       <= cap, so no cell's component takes a power past the cap (this needs
       no convexity);
    5. at every element e of every chain i the supplied ideal at e is
       ``_component_on_cone(spec, i, e, cap)``: checked per chain, so a
       degree shared by two cones is checked against both pieces.  A power
       past the cap at a chain degree off the grid fails the check.

    The argument is in ``verify_fan_algebra``'s docstring."""
    if any(len(ideal.exponents) != 1 for ideal in spec.ideals):
        return False
    if _unimodular_chain(spec.fan) is None:
        return False
    cones = spec.fan.cones
    for f in spec.functions:
        for i, (alpha, beta) in enumerate(f.pieces):
            if f.piece_value(i, cones[i].ray_high) < 0 or f.piece_value(i, cones[i].ray_low) < 0:
                return False
            if max(alpha, 0) * r_max + max(beta, 0) * s_max > cap:
                return False
    try:
        return all(ideals.get(e) == _component_on_cone(spec, i, e, cap)
                   for i, chain in enumerate(spec.fan.chains) for e in chain)
    except PowerCapError:
        return False


def verify_fan_algebra(
    spec: FanAlgebraSpec, gens: Iterable[BigradedMonomial], r_max: int, s_max: int
) -> VerificationReport:
    """Check that every graded component on [0..r_max] x [0..s_max] equals the
    product of generator components along the Hilbert basis elements that
    ``decompose_over`` writes (r, s) with.

    The grid bounds are checked, and a grid of more cells than the candidate
    cap raises PowerCapError, first.  Then a spec of principal ideals is
    tried against the all-degree certificate ``_principal_certified``, in
    time independent of the grid; when it holds the report is a pass,
    because the walk below would pass every cell without raising.  By the
    certificate's chain check, the walk writes each cell p of cone i as
    alpha*l + beta*h with alpha, beta >= 0, (h, l) a det-1 pair of chain i.
    Its product side takes principal powers only, which raise only when
    alpha or beta passes the cap, and alpha + beta <= r + s < cells <= cap;
    translates never raise.  Its component side takes powers piece_ik(p), in
    [0, cap] by the piece checks.  Cone i's pieces are linear, so with A_e
    the supplied ideal at e, equal to cone i's component there,
    A_l^alpha * A_h^beta is x^(sum_k piece_ik(p)*g_k), the component at p,
    where x^g_k generates I_k.

    Otherwise the grid is walked, each cell placed on its own by ``locate``
    and written along its cone's chain by ``decompose_over`` (see
    ``generators._verify_grid``), and its report, or its error, is the
    verdict.  The component at a Hilbert degree is rebuilt from the supplied
    generators, so missing or tampered generators surface as reported
    failures.  Both sides of the comparison take their ideal powers from the
    spec, which keeps those of an earlier fan_algebra_generators call.
    """
    total = _grid_cells(r_max, s_max)
    cap = _candidate_cap()
    by_degree: dict[LatticePoint2, set[Monomial]] = {}
    for g in gens:
        by_degree.setdefault(g.degree, set()).add(g.coeff)
    nvars = len(spec.variables)
    ideals = {d: MonomialIdeal(nvars, coeffs) for d, coeffs in by_degree.items()}
    if _principal_certified(spec, ideals, r_max, s_max, cap):
        return VerificationReport(True, total, 0, None, None)
    reasons = (
        "no decomposition into available generator degrees",
        "generator component product differs from the graded component",
    )
    return _verify_grid(
        spec.fan, ideals, r_max, s_max,
        lambda factors: _product_of_powers(spec, factors, cap),
        lambda i, r, s: _component_on_cone(spec, i, _point(r, s), cap),
        reasons,
    )


def _check_principal(n_vars: int, f: Monomial) -> None:
    if f.nvars != n_vars:
        raise ValueError(f"f has {f.nvars} variables, expected {n_vars}")
    if f.is_unit():
        raise ValueError("f must not be the unit monomial")


def principal_cap_maximal_power(n_vars: int, f: Monomial, r: int, s: int) -> MonomialIdeal:
    """Minimal generators of (f)^r intersected with (x_1..x_n)^s for a
    non-unit monomial f: equals f^r * m^{max(s - r*deg f, 0)}."""
    _check_principal(n_vars, f)
    _natural("r", r)
    _natural("s", s)
    clamp = max(s - r * f.total_degree(), 0)
    cap = _candidate_cap()
    return ideal_product(
        MonomialIdeal(n_vars, [f**r]), ideal_power(maximal_ideal(n_vars), clamp, cap), cap
    )


def principal_cap_algebra(n_vars: int, f: Monomial) -> FanAlgebraSpec:
    """The auxiliary fan algebra behind (f)^r cap m^s: the maximal ideal with
    exponent max(s - r*deg f, 0), which is s - r*deg f above the wall of slope
    deg f and zero below; fan-linear by construction, so unchecked."""
    _check_principal(n_vars, f)
    degree = f.total_degree()
    fan = build_fan((degree,), (1,))
    function = FanLinearFunction(fan, ((-degree, 1), (0, 0)))
    return FanAlgebraSpec(
        default_variables(n_vars), (maximal_ideal(n_vars),), (function,)
    )


def principal_cap_generators(n_vars: int, f: Monomial) -> tuple[BigradedMonomial, ...]:
    """Generating set of the algebra of the (f)^r cap m^s components, obtained
    from the auxiliary fan algebra by multiplying the coefficient at degree
    (r, s) by f^r."""
    spec = principal_cap_algebra(n_vars, f)
    return tuple(
        BigradedMonomial(bm.coeff * (f**bm.degree.r), bm.degree)
        for bm in fan_algebra_generators(spec)
    )


# --- JSON file format ---

class SpecFormatError(ValueError):
    """Invalid fan algebra file; the message names the offending field."""


_REQUIRED_FIELDS = ("variables", "a", "b", "ideals", "pieces")


def _expect_int(path: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecFormatError(f"{path}: expected an exact integer, got {value!r}")
    return value


def _expect_list(path: str, value) -> list:
    if not isinstance(value, list):
        raise SpecFormatError(f"{path}: expected a list")
    return value


def load_fan_algebra_spec(text: str) -> FanAlgebraSpec:
    """Parse and validate the JSON fan-algebra format::

        {"variables": ["x", "y"], "a": [...], "b": [...],
         "ideals": [["x"], ["y"]], "pieces": [[[a, b], ...per cone], ...per function]}

    a and b must be as ``build_fan`` would leave them, fan ordered with no
    column where both are zero, because pieces are positional per cone.
    Raises SpecFormatError with the offending field, or FanLinearityError if a
    piece list is not fan-linear.
    """
    import json  # imported here: only spec files need it, and it is slow to import

    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise SpecFormatError(f"invalid JSON: {e}") from e
    except ValueError as e:  # an integer past the digit limit; drop the hint at a Python call
        raise SpecFormatError(f"invalid JSON: {str(e).partition(';')[0]}") from e
    if not isinstance(data, dict):
        raise SpecFormatError("top level: expected an object")
    unknown = set(data) - set(_REQUIRED_FIELDS) - {"format_version"}
    if unknown:
        raise SpecFormatError(f"unknown field {sorted(unknown)[0]!r}")
    for name in _REQUIRED_FIELDS:
        if name not in data:
            raise SpecFormatError(f"missing field {name!r}")
    version = _expect_int("format_version", data.get("format_version", 1))
    if version != 1:
        raise SpecFormatError(f"format_version: unsupported version {version!r}")

    variables = _expect_list("variables", data["variables"])
    if not variables:
        raise SpecFormatError("variables: must be nonempty")
    try:
        check_variable_names(variables)
    except ValueError as e:
        raise SpecFormatError(str(e)) from e

    exponents = {}
    for name in ("a", "b"):
        entries = _expect_list(name, data[name])
        exponents[name] = tuple(
            _expect_int(f"{name}[{i}]", x) for i, x in enumerate(entries)
        )
    a, b = exponents["a"], exponents["b"]
    try:
        fan = build_fan(a, b)
    except ValueError as e:
        raise SpecFormatError(f"a/b: {e}") from e
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y == 0:
            raise SpecFormatError(f"a/b: a and b are both zero at index {i}")
    if fan.order != tuple(range(len(a))):
        raise SpecFormatError(
            "a/b: a and b are not fan ordered (ratios a_i/b_i must be non-increasing)"
        )

    raw_ideals = _expect_list("ideals", data["ideals"])
    if not raw_ideals:
        raise SpecFormatError("ideals: must be nonempty")
    ideals = []
    for k, gens in enumerate(raw_ideals):
        gens = _expect_list(f"ideals[{k}]", gens)
        if not gens:
            raise SpecFormatError(f"ideals[{k}]: must have at least one generator")
        monomials = []
        for j, text_gen in enumerate(gens):
            if not isinstance(text_gen, str):
                raise SpecFormatError(f"ideals[{k}][{j}]: expected a monomial string")
            try:
                monomials.append(parse_monomial(text_gen, variables))
            except ValueError as e:
                raise SpecFormatError(f"ideals[{k}][{j}]: {e}") from e
        ideals.append(MonomialIdeal(len(variables), monomials))

    raw_pieces = _expect_list("pieces", data["pieces"])
    if len(raw_pieces) != len(ideals):
        raise SpecFormatError(
            f"pieces: expected {len(ideals)} piece lists (one per ideal), got {len(raw_pieces)}"
        )
    functions = []
    for k, piece_list in enumerate(raw_pieces):
        piece_list = _expect_list(f"pieces[{k}]", piece_list)
        if len(piece_list) != len(fan.cones):
            raise SpecFormatError(
                f"pieces[{k}]: expected {len(fan.cones)} pairs (one per cone), got {len(piece_list)}"
            )
        pairs = []
        for i, pair in enumerate(piece_list):
            pair = _expect_list(f"pieces[{k}][{i}]", pair)
            if len(pair) != 2:
                raise SpecFormatError(f"pieces[{k}][{i}]: expected a pair [alpha, beta]")
            pairs.append(
                (
                    _expect_int(f"pieces[{k}][{i}][0]", pair[0]),
                    _expect_int(f"pieces[{k}][{i}][1]", pair[1]),
                )
            )
        functions.append(check_fan_linear(fan, pairs))

    return FanAlgebraSpec(tuple(variables), tuple(ideals), tuple(functions))

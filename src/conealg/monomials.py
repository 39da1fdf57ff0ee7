"""Exact monomials and monomial ideals over a fixed variable list.

A monomial ideal stores one thing: the frozenset of the exponent tuples of
its unique minimal generators, so set equality is ideal equality.  Its
``gens`` builds the matching ``Monomial`` objects only when it is read.  The
public constructors and functions check their arguments; what the library
derives from values checked already is built by ``_monomial`` and
``MonomialIdeal._from_minimal``, which skip the checks.  Products and powers
of ideals work on the stored tuples and build no Monomial: they collect the
sums of generator exponents in one set and keep the minimal ones.  Pruning
sorts the candidates by total degree and tests each one only against the
tuples of smaller degree kept so far, since a proper divisor has a strictly
smaller degree; the candidates of an equigenerated product, such as a power
of the maximal ideal, need no test at all.  When one factor has a single
generator the product is a translate of the other factor's minimal set and
needs no pruning, and the m-th power of a principal ideal (x^e) is (x^(m*e))
in closed form.  The enumeration is capped (default 10^6 candidates,
overridable with the CONEALG_MAX_CANDIDATES environment variable; the
fan-algebra functions read the cap once per call and pass it down through
``ideal_product`` and ``ideal_power``); a principal power counts the m
candidates its m products of one generator each would, so it raises exactly
when m passes the cap.  The grid verifiers apply the same cap to their number
of cells.
"""

import os
import re
from itertools import count
from operator import add, itemgetter, le
from typing import Callable, Collection, Iterable, Optional, Sequence

from .lattice import LatticePoint2, _value_class

DEFAULT_MAX_CANDIDATES = 10**6
CAP_ENV_VAR = "CONEALG_MAX_CANDIDATES"
GRADING_SYMBOLS = ("u", "v")  # printed after the coefficient, so no variable may use them
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class PowerCapError(RuntimeError):
    """An ideal power or product would enumerate too many candidate generators."""


def _candidate_cap(override: Optional[int] = None) -> int:
    """The cap passed down by a caller that read it already, else the
    environment's; either must be a positive int."""
    if override is not None:
        if type(override) is not int or override < 1:
            raise ValueError(f"max_candidates must be a positive integer, got {override!r}")
        return override
    env = os.environ.get(CAP_ENV_VAR) or str(DEFAULT_MAX_CANDIDATES)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {env!r}")
    return int(env)


def _natural(name: str, value) -> None:
    """Raise ValueError unless value is a nonnegative int (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _naturals(name: str, values: tuple) -> None:
    """Raise ValueError, naming the first bad entry, unless every entry passes
    ``_natural``'s test; entries all of type int pass at C speed."""
    if not {int}.issuperset(map(type, values)) or min(values, default=0) < 0:
        for x in values:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError(f"{name} must be nonnegative integers, got {x!r}")


def check_variable_names(names: Sequence[str]) -> None:
    """Raise ValueError, naming the position of the first bad name, unless
    every name is an identifier that monomial text can spell, the names are
    distinct, and none is u or v."""
    seen = set()  # the names before position i, all of them good
    for i, name in enumerate(names):
        if not isinstance(name, str) or not _IDENT.fullmatch(name):
            problem = f"expected an identifier, got {name!r}"
        elif name in seen:
            problem = f"duplicate name {name!r}"
        elif name in GRADING_SYMBOLS:
            problem = "u and v name the grading and cannot be variables"
        else:
            seen.add(name)
            continue
        raise ValueError(f"variables[{i}]: {problem}")


def default_variables(n: int) -> tuple[str, ...]:
    """x, y, z for up to three variables, x1..xn beyond."""
    _natural("n", n)
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


@_value_class(order=True)
class Monomial:
    """A monomial recorded by its exponent vector over x_1..x_n."""

    exponents: tuple[int, ...]

    def __init__(self, exponents: tuple[int, ...]):
        if not isinstance(exponents, tuple):
            exponents = tuple(exponents)
        _naturals("exponents", exponents)
        self.__dict__["exponents"] = exponents

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def is_unit(self) -> bool:
        return not any(self.exponents)

    def total_degree(self) -> int:
        return sum(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        return _monomial(tuple(map(add, self.exponents, other.exponents)))

    def __pow__(self, k: int) -> "Monomial":
        _natural("exponent", k)
        return _monomial(tuple(e * k for e in self.exponents))


def _monomial(exponents: tuple[int, ...]) -> Monomial:
    """A Monomial without its constructor's checks, from checked exponents."""
    m = object.__new__(Monomial)
    m.__dict__["exponents"] = exponents
    return m


def _minimalize(exponents: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The minimal elements under divisibility of distinct exponent tuples.
    A proper divisor has a strictly smaller total degree, so after sorting by
    degree each tuple is tested only against the minimal tuples of smaller
    degree kept so far; distinct tuples of one degree never divide each
    other."""
    kept: list[tuple[int, ...]] = []
    below: tuple[tuple[int, ...], ...] = ()  # the kept tuples of smaller degree
    degree = None
    for e in sorted(exponents, key=sum):
        d = sum(e)
        if d != degree:
            degree, below = d, tuple(kept)
        if not below or not any(all(map(le, h, e)) for h in below):
            kept.append(e)
    return kept


def _product_exponents(
    xs: Collection[tuple[int, ...]], ys: Collection[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The minimal exponent tuples of the product of two ideals given by
    their minimal exponent tuples over the same variables.  When one factor
    has a single generator the product is a translate of the other's minimal
    set, which is minimal already."""
    if len(ys) == 1:
        xs, ys = ys, xs
    if len(xs) == 1:
        (t,) = xs
        return [tuple(map(add, t, h)) for h in ys]
    return _minimalize({tuple(map(add, g, h)) for g in xs for h in ys})


@_value_class()
class MonomialIdeal:
    """A monomial ideal in its minimal-generator normal form.

    The zero ideal has no generators; the unit ideal's sole generator is the
    unit monomial.  All ideals carry the arity of the shared variable list;
    mixing arities is an error, never a broadcast.  The ideal stores the
    frozenset of its minimal exponent tuples, ``exponents``; ``gens`` builds
    the matching Monomials when it is read.  Instances are immutable.
    """

    __slots__ = ("nvars", "exponents")
    nvars: int
    exponents: frozenset[tuple[int, ...]]

    def __init__(self, nvars: int, generators: Iterable[Monomial] = ()):
        _natural("nvars", nvars)
        gens = frozenset(
            g if isinstance(g, Monomial) else Monomial(tuple(g)) for g in generators
        )
        for g in gens:
            if g.nvars != nvars:
                raise ValueError(f"generator {g} has {g.nvars} variables, expected {nvars}")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "exponents", frozenset(_minimalize({g.exponents for g in gens})))

    @classmethod
    def _from_minimal(cls, nvars: int, exponents: Iterable[tuple[int, ...]]) -> "MonomialIdeal":
        """The ideal of these minimal exponent tuples over nvars variables,
        taken as they are: only for tuples computed from validated ideals."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "nvars", nvars)
        object.__setattr__(ideal, "exponents", frozenset(exponents))
        return ideal

    def __reduce__(self):  # unpickled slot state would go through the frozen __setattr__
        return MonomialIdeal._from_minimal, (self.nvars, self.exponents)

    @property
    def gens(self) -> frozenset[Monomial]:
        """The minimal generators as Monomials, built on each read."""
        return frozenset(map(_monomial, self.exponents))

    def is_zero(self) -> bool:
        return not self.exponents

    def sorted_gens(self) -> list[Monomial]:
        """Generators in descending exponent order (x-heaviest first)."""
        return list(map(_monomial, sorted(self.exponents, reverse=True)))

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.nvars}, {list(map(_monomial, sorted(self.exponents)))})"


def maximal_ideal(nvars: int) -> MonomialIdeal:
    """The ideal (x_1, ..., x_n)."""
    _natural("nvars", nvars)
    basis = ((0,) * i + (1,) + (0,) * (nvars - 1 - i) for i in range(nvars))
    return MonomialIdeal._from_minimal(nvars, basis)


def ideal_product(
    a: MonomialIdeal, b: MonomialIdeal, max_candidates: Optional[int] = None
) -> MonomialIdeal:
    """Product, generated by the pairwise products."""
    if a.nvars != b.nvars:
        raise ValueError(f"variable count mismatch: {a.nvars} vs {b.nvars}")
    cap = _candidate_cap(max_candidates)
    candidates = len(a.exponents) * len(b.exponents)
    if candidates > cap:
        raise PowerCapError(f"power too large: {candidates} candidate products exceed cap {cap}")
    return MonomialIdeal._from_minimal(a.nvars, _product_exponents(a.exponents, b.exponents))


def ideal_power(
    a: MonomialIdeal, m: int, max_candidates: Optional[int] = None
) -> MonomialIdeal:
    """m-th power via iterated products of minimal generating sets; A^0 = (1).
    The power of a principal ideal (x^e) is (x^(m*e)), in closed form; it
    raises where the iterated products, one candidate each, would pass the
    cap: when m exceeds it."""
    _natural("power", m)
    cap = _candidate_cap(max_candidates)
    base = a.exponents
    if len(base) == 1:
        if m > cap:
            raise PowerCapError(f"power too large: {cap + 1} candidate products exceed cap {cap}")
        (e,) = base
        return MonomialIdeal._from_minimal(a.nvars, [tuple([x * m for x in e])])
    result = [(0,) * a.nvars]
    spent = 0
    for _ in range(m):
        spent += len(result) * len(base)
        if spent > cap:
            raise PowerCapError(f"power too large: {spent} candidate products exceed cap {cap}")
        result = _product_exponents(result, base)
    return MonomialIdeal._from_minimal(a.nvars, result)


def principal_intersection(
    a: Sequence[int], b: Sequence[int], r: int, s: int
) -> Monomial:
    """The single minimal generator of (x^a)^r intersected with (x^b)^s:
    componentwise max(r*a_k, s*b_k).  Ground truth for each bigraded piece."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError("exponent vectors must have the same length")
    _natural("r", r)
    _natural("s", s)
    _naturals("a entries", a)
    _naturals("b entries", b)
    return _monomial(_max_exponents(*_exponent_kernel(a, b), r, s))


def _exponent_kernel(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], Callable[[list[int]], tuple[int, ...]]]:
    """The distinct columns (a_k, b_k) of a pair of equal length, in order of
    first occurrence, and the spread that maps a list of one value per
    distinct column to the tuple of one value per column: an ``itemgetter``
    over each column's index among the distinct ones, or ``tuple`` when no
    column repeats (an ``itemgetter`` of one index returns a bare item, not a
    tuple).  Built once per pair, it serves every degree of
    ``_max_exponents``."""
    columns = tuple(dict.fromkeys(zip(a, b)))
    if len(columns) == len(a):
        return columns, tuple
    index = dict(zip(columns, count()))
    return columns, itemgetter(*map(index.__getitem__, zip(a, b)))


def _max_exponents(
    columns: tuple[tuple[int, int], ...],
    spread: Callable[[list[int]], tuple[int, ...]],
    r: int,
    s: int,
) -> tuple[int, ...]:
    """Componentwise max(r*a_k, s*b_k), unchecked: the exponents of the
    generator of (x^a)^r cap (x^b)^s for a checked pair, given as its
    ``_exponent_kernel``, and degree.  The max is taken once per distinct
    column and spread to all columns."""
    return spread([p if (p := x * r) > (q := y * s) else q for x, y in columns])


@_value_class(order=True)
class BigradedMonomial:
    """A monomial coefficient together with its (u, v)-degree."""

    coeff: Monomial
    degree: LatticePoint2

    def __init__(self, coeff, degree):
        self.__dict__.update(coeff=coeff, degree=degree)


# --- text syntax: x^5*y^2, exponent 1 omitted, unit monomial prints as 1 ---

class MonomialParseError(ValueError):
    """Invalid monomial text; carries the 1-based column of the offense."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


_NUMBER = re.compile(r"[0-9]+")


def parse_monomial(text: str, variables: Sequence[str]) -> Monomial:
    """Parse monomial text like ``x^5*y^2`` over the declared alphabet."""
    index = {v: i for i, v in enumerate(variables)}
    exponents = [0] * len(variables)
    pos = 0

    def skip_spaces():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    skip_spaces()
    if pos >= len(text):
        raise MonomialParseError("empty monomial", pos + 1)
    if text[pos] == "1":
        pos += 1
        skip_spaces()
        if pos != len(text):
            raise MonomialParseError("unexpected input after unit monomial", pos + 1)
        return Monomial(tuple(exponents))

    while True:
        skip_spaces()
        m = _IDENT.match(text, pos)
        if not m:
            got = text[pos] if pos < len(text) else "end of input"
            raise MonomialParseError(f"expected a variable, got {got!r}", pos + 1)
        name = m.group(0)
        if name not in index:
            raise MonomialParseError(f"unknown variable {name!r}", pos + 1)
        pos = m.end()
        power = 1
        skip_spaces()
        if pos < len(text) and text[pos] == "^":
            pos += 1
            skip_spaces()
            n = _NUMBER.match(text, pos)
            if not n:
                raise MonomialParseError("expected an integer exponent after '^'", pos + 1)
            try:
                power = int(n.group(0))
            except ValueError as e:  # past the digit limit: keep the limit, drop its hint
                raise MonomialParseError(str(e).partition("; use sys.")[0], pos + 1) from None
            pos = n.end()
        exponents[index[name]] += power
        skip_spaces()
        if pos == len(text):
            return Monomial(tuple(exponents))
        if text[pos] != "*":
            raise MonomialParseError(f"expected '*', got {text[pos]!r}", pos + 1)
        pos += 1


def format_monomial(m: Monomial, variables: Sequence[str]) -> str:
    if m.nvars != len(variables):
        raise ValueError(f"variable count mismatch: {m.nvars} vs {len(variables)}")
    parts = [
        v if e == 1 else f"{v}^{e}" for v, e in zip(variables, m.exponents) if e
    ]
    return "*".join(parts) if parts else "1"


def format_bigraded(bm: BigradedMonomial, variables: Sequence[str]) -> str:
    """Render coefficient and (u, v)-degree, e.g. ``x^5*y^2*u`` or ``x^2*y^3*v``."""
    parts = []
    if not bm.coeff.is_unit():
        parts.append(format_monomial(bm.coeff, variables))
    for sym, e in zip(GRADING_SYMBOLS, bm.degree):
        if e == 1:
            parts.append(sym)
        elif e > 1:
            parts.append(f"{sym}^{e}")
    return "*".join(parts) if parts else "1"

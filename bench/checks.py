"""Output checks that share no algorithm with the library.

Every check parses the CLI's text output and tests it with plain integer
arithmetic written here: the componentwise-max coefficient of each
generator, the Hirzebruch-Jung chain conditions that characterise the
Hilbert basis of a 2D cone, the PASS verdict with the grid's cell count,
and, for rejected fan-algebra specs, that the reported pair really breaks
subadditivity.  For small cones the chain is also compared with the
brute-force scan in ``tests/oracles.py``.

A check returns ``None`` when the output is right and a one-line reason
when it is not.
"""

import re
from math import gcd

# Cones whose parallelogram bounding box has at most this many points are
# also compared against the brute-force oracle; its cost grows as the square
# of the box.
BRUTE_BOX_LIMIT = 300

_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]+))?$")
_POINT = re.compile(r"\(([0-9]+),([0-9]+)\)$")
_WITNESS = re.compile(
    r"error: f\((\d+),(\d+)\)\+f\((\d+),(\d+)\) = (-?\d+)\+(-?\d+)"
    r" < f\((\d+),(\d+)\) = (-?\d+)$"
)


# --- exact 2D geometry -----------------------------------------------------

def det(p, q):
    """p.r*q.s - p.s*q.r for points given as (r, s); > 0 iff q is steeper."""
    return p[0] * q[1] - p[1] * q[0]


def primitive(p):
    g = gcd(p[0], p[1])
    return (p[0] // g, p[1] // g)


def in_cone(low, high, p):
    """Whether p lies in the closed cone spanned by rays low and high."""
    return det(low, p) >= 0 and det(p, high) >= 0


def fan_rays(a, b):
    """The distinct primitive rays (b_i, a_i) and the two axes, steepest first."""
    rays = {primitive((bi, ai)) for ai, bi in zip(a, b) if ai or bi}
    rays |= {(0, 1), (1, 0)}
    ordered = []
    for ray in rays:  # insertion sort by slope, descending; at most n+2 rays
        k = 0
        while k < len(ordered) and det(ray, ordered[k]) > 0:
            k += 1
        ordered.insert(k, ray)
    return ordered


def fan_cones(a, b):
    """Consecutive (high, low) ray pairs of the fan of (a, b)."""
    rays = fan_rays(a, b)
    return list(zip(rays, rays[1:]))


def variable_names(n):
    """The CLI's default alphabet: x, y, z up to three variables, x1..xn beyond."""
    return ("x", "y", "z")[:n] if n <= 3 else tuple(f"x{i}" for i in range(1, n + 1))


# --- parsers ---------------------------------------------------------------

def parse_bigraded(line, variables):
    """``x^5*y^2*u`` -> ((5, 2), (1, 0)); raises ValueError on anything else."""
    index = {v: i for i, v in enumerate(variables)}
    coeff = [0] * len(variables)
    degree = [0, 0]
    if line == "1":
        return tuple(coeff), tuple(degree)
    for factor in line.split("*"):
        m = _FACTOR.match(factor)
        if not m:
            raise ValueError(f"bad factor {factor!r}")
        name, power = m.group(1), int(m.group(2) or 1)
        if name in ("u", "v"):
            degree[name == "v"] += power
        elif name in index:
            coeff[index[name]] += power
        else:
            raise ValueError(f"unknown variable {name!r}")
    return tuple(coeff), tuple(degree)


def parse_points(text):
    """``(1,0) (2,1)`` -> [(1, 0), (2, 1)]; raises ValueError on anything else."""
    points = []
    for word in text.split():
        m = _POINT.match(word)
        if not m:
            raise ValueError(f"bad point {word!r}")
        points.append((int(m.group(1)), int(m.group(2))))
    return points


# --- Hilbert basis chains --------------------------------------------------

def chain_problem(high, low, chain):
    """Why ``chain`` is not the Hilbert basis of cone(low, high), or None.

    The Hilbert basis of a 2D cone is the unique sequence u_0 = high, ...,
    u_k = low with det(u_{i+1}, u_i) = 1 and u_{i-1} + u_{i+1} = b_i*u_i for
    integers b_i >= 2 (the Hirzebruch-Jung chain)."""
    if high == low:
        return None if chain == [high] else f"degenerate cone {high} needs just its ray"
    if len(chain) < 2 or chain[0] != high or chain[-1] != low:
        return f"chain of cone {high}..{low} does not run from ray to ray"
    for p, q in zip(chain, chain[1:]):
        if det(q, p) != 1:
            return f"consecutive basis elements {p},{q} have det {det(q, p)}, not 1"
    for prev, mid, nxt in zip(chain, chain[1:], chain[2:]):
        total = (prev[0] + nxt[0], prev[1] + nxt[1])
        pivot, part = (mid[0], total[0]) if mid[0] else (mid[1], total[1])
        b, rest = divmod(part, pivot)
        if rest or b < 2 or total != (b * mid[0], b * mid[1]):
            return f"basis element {mid} breaks the chain relation (b >= 2)"
    return None


def oracle_problem(high, low, chain, brute_irreducibles, make_cone):
    """Compare small cones with the brute-force oracle of the test suite."""
    box = (high[0] + low[0] + 1) * (high[1] + low[1] + 1)
    if box > BRUTE_BOX_LIMIT:
        return None
    expected = {(p.r, p.s) for p in brute_irreducibles(make_cone(low, high))}
    if expected != set(chain):
        return f"cone {high}..{low} differs from the brute-force oracle"
    return None


class Checker:
    """Checks outputs; ``brute_irreducibles`` and ``make_cone`` connect the
    brute-force oracle for small cones."""

    def __init__(self, brute_irreducibles, make_cone):
        self.brute_irreducibles = brute_irreducibles
        self.make_cone = make_cone

    def cone_problem(self, high, low, chain):
        return chain_problem(high, low, chain) or oracle_problem(
            high, low, chain, self.brute_irreducibles, self.make_cone
        )

    def generators(self, a, b, code, out, err):
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()[:80]!r}"
        variables = variable_names(len(a))
        degrees = []
        try:
            parsed = [parse_bigraded(line, variables) for line in out.splitlines()]
        except ValueError as e:
            return f"unparseable generator: {e}"
        for coeff, (r, s) in parsed:
            want = tuple(max(r * x, s * y) for x, y in zip(a, b))
            if coeff != want:
                return f"coefficient at degree {(r, s)} is {coeff}, expected {want}"
            degrees.append((r, s))
        for p, q in zip(degrees, degrees[1:]):
            if det(q, p) <= 0:
                return f"degrees {p},{q} are not in strictly descending slope order"
        for high, low in fan_cones(a, b):
            chain = [p for p in degrees if in_cone(low, high, p)]
            problem = self.cone_problem(high, low, chain)
            if problem:
                return problem
        return None

    def hilbert_basis(self, rays, code, out, err):
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()[:80]!r}"
        try:
            chain = parse_points(out)
        except ValueError as e:
            return f"unparseable basis: {e}"
        high, low = (primitive(p) for p in rays)
        if det(low, high) < 0:
            high, low = low, high
        return self.cone_problem(high, low, chain)

    @staticmethod
    def passed(cells, code, out, err):
        lines = out.splitlines()
        want = f"PASS {cells}/{cells} components"
        if code != 0 or err or not lines or lines[-1] != want:
            last = lines[-1] if lines else ""
            return f"exit {code}, verdict {last!r}, expected {want!r}"
        return None

    @staticmethod
    def rejected(cones, pieces, code, out, err):
        """A non-fan-linear spec: exit 2 with a genuine subadditivity witness
        f(p) + f(q) < f(p + q) for the piecewise function ``pieces``."""
        m = _WITNESS.match(err.strip())
        if code != 2 or out or not m:
            return f"exit {code}, stderr {err.strip()[:80]!r}, expected a subadditivity witness"
        v = [int(x) for x in m.groups()]
        p, q, s = (v[0], v[1]), (v[2], v[3]), (v[6], v[7])

        def f(point):
            for (high, low), (alpha, beta) in zip(cones, pieces):
                if in_cone(low, high, point):
                    return alpha * point[0] + beta * point[1]
            raise AssertionError(f"fan does not cover {point}")

        if s != (p[0] + q[0], p[1] + q[1]) or (v[4], v[5], v[8]) != (f(p), f(q), f(s)):
            return "witness values do not match the spec"
        if not v[4] + v[5] < v[8]:
            return "witness does not violate subadditivity"
        return None

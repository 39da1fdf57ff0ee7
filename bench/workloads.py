"""Seeded inputs for the benchmark workloads.

A workload is a pool of CLI operations made from the seed alone, with every
spec file written, before any timing starts.  The timed loop cycles through
the pool in order.  Sizes (det, grid, n) are drawn one per equal-probability
slice of each input kind's size range, and each round of the pool is
shuffled, so every seed gives nearly the same mix of sizes while the inputs
themselves differ.

Each ``Op`` carries its parameters (workload, subcommand, n, max cone
determinant, grid, accept or reject), so the size families can be read off
the results file, and a ``check`` naming the ``checks.Checker`` method and
the data it needs.
"""

import json
import math
import random
from dataclasses import dataclass

from checks import det, fan_cones, primitive, variable_names


@dataclass
class Op:
    argv: list
    params: dict
    check: tuple  # (Checker method name, *data)


def _csv(values):
    return ",".join(str(x) for x in values)


def _slices(rng, k):
    """One uniform draw from each of k equal slices of [0, 1), shuffled."""
    draws = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(draws)
    return draws


def _pair_dets(a, b):
    return [det(low, high) for high, low in fan_cones(a, b)]


# --- generate-thin ---------------------------------------------------------

DET_MIN, DET_MAX = 10, 2000


def _pair_with_max_det(rng, target):
    """A 2-4 variable pair whose largest cone has det within 3% of ``target``
    and holds most of the pair's Hilbert-basis work (sum of det^2 at most
    1.25 times the largest det^2)."""
    while True:
        n = rng.choice((2, 3, 4))
        bound = rng.randint(2, max(3, int(2 * math.sqrt(target))))
        a = [rng.randint(0, bound) for _ in range(n)]
        b = [rng.randint(0, bound) for _ in range(n)]
        if not any(a) or not any(b):
            continue
        dets = _pair_dets(a, b)
        top = max(dets)
        if abs(top - target) <= 0.03 * target and sum(d * d for d in dets) <= 1.25 * top * top:
            return a, b, dets


def generate_thin(rng, rounds=32, k=16):
    ops = []
    for _ in range(rounds):
        batch = []
        for u in _slices(rng, k):
            a, b, dets = _pair_with_max_det(rng, round(DET_MIN + (DET_MAX - DET_MIN) * u))
            params = {"workload": "generate-thin", "n": len(a), "max_det": max(dets),
                      "grid": None, "expect": "accept"}
            batch.append(Op(["generators", "--a", _csv(a), "--b", _csv(b)],
                            {**params, "subcommand": "generators"},
                            ("generators", a, b)))
            high, low = fan_cones(a, b)[dets.index(max(dets))]
            rays = []
            for ray in (high, low):  # CLI input need not be primitive
                f = rng.randint(1, 3)
                rays.append((ray[0] * f, ray[1] * f))
            rng.shuffle(rays)
            batch.append(Op(["hilbert-basis", "--ray", _csv(rays[0]), "--ray", _csv(rays[1])],
                            {**params, "n": 2, "subcommand": "hilbert-basis"},
                            ("hilbert_basis", rays)))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# --- verify-grid -----------------------------------------------------------

def _small_entry_pair(rng, n, top=6):
    while True:
        a = [rng.randint(0, top) for _ in range(n)]
        b = [rng.randint(0, top) for _ in range(n)]
        if any(a) and any(b):
            return a, b


def _verify_op(rng, n, grid):
    a, b = _small_entry_pair(rng, n)
    return Op(["verify", "--a", _csv(a), "--b", _csv(b), "--rmax", str(grid), "--smax", str(grid)],
              {"workload": "verify-grid", "subcommand": "verify", "n": n,
               "max_det": max(_pair_dets(a, b)), "grid": f"{grid}x{grid}", "expect": "accept"},
              ("passed", (grid + 1) ** 2))


def verify_grid(rng, rounds=32, k=8):
    """Per round, k small pairs (2-3 variables, square grids 20..28) and k
    wide pairs (50-200 variables, 12x12 grid); the slice sets grid or n."""
    ops = []
    for _ in range(rounds):
        batch = [_verify_op(rng, 2 + j % 2, 20 + int(9 * u))
                 for j, u in enumerate(_slices(rng, k))]
        batch += [_verify_op(rng, 50 + int(151 * u), 12) for u in _slices(rng, k)]
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# --- fan-algebra -----------------------------------------------------------

def _fan_ordered(rng, n, top):
    """Fan-ordered a, b with positive entries up to ``top`` and strictly
    decreasing ratios a_i/b_i, so that no cone is degenerate."""
    while True:
        pairs = [(rng.randint(1, top), rng.randint(1, top)) for _ in range(n)]
        pairs.sort(key=lambda p: p[0] / p[1], reverse=True)
        if all(x[0] * y[1] > y[0] * x[1] for x, y in zip(pairs, pairs[1:])):
            return [p[0] for p in pairs], [p[1] for p in pairs]


def _spec_cones(a, b):
    rays = [(0, 1)] + [primitive((y, x)) for x, y in zip(a, b)] + [(1, 0)]
    return list(zip(rays, rays[1:]))


def _max_pieces(a, b, k):
    """max(r*a_k, s*b_k) on each cone of the fan of a fan-ordered (a, b)."""
    return [[0, b[k]] if i <= k else [a[k], 0] for i in range(len(a) + 1)]


def _spec_intersection(rng, u):
    n, grid = 2 + int(3 * u), 5 + int(4 * u)
    a, b = _fan_ordered(rng, n, 4)
    names = variable_names(n)
    ideals = [[v] for v in names]
    pieces = [_max_pieces(a, b, k) for k in range(n)]
    return "intersection", names, a, b, ideals, pieces, (grid, grid)


def _spec_nonprincipal(rng, u):
    """Two-generator ideals (x, y^e) and (y, x^e): the component sizes grow
    fast with the grid, so the grid stays at 2..4."""
    n, grid = 2, 2 + int(3 * u)
    a, b = _fan_ordered(rng, n, 2)
    names = variable_names(n)
    ideals = [[names[k], f"{names[(k + 1) % n]}^{rng.randint(1, 2)}"] for k in range(n)]
    pieces = [_max_pieces(a, b, k) for k in range(n)]
    return "non-principal", names, a, b, ideals, pieces, (grid, grid)


def _spec_maximal_cap(rng, u):
    """(f)^r cap m^s for f one of the variables: the maximal ideal with
    exponent max(s - r, 0) and the principal ideal (f) with exponent r.
    Three variables only on the smallest grid: there the component sizes
    grow fastest."""
    if u < 2 / 3:
        n, rmax, smax = 2, 2 + int(4.5 * u), 6 + int(6 * u)
    else:
        n, rmax, smax = 3, 2, 6
    names = variable_names(n)
    ideals = [list(names), [rng.choice(names)]]
    pieces = [[[-1, 1], [0, 0]], [[1, 0], [1, 0]]]
    return "maximal-cap", names, [1], [1], ideals, pieces, (rmax, smax)


def _spec_reject_thin(rng, u):
    """A kink inside a unimodular cone between rays (k, k-1) and (k-1, k-2);
    the smallest subadditivity witness grows with k.  k stays at most 12:
    the k = 1000 member of this family does not finish within 60 s."""
    k = 4 + int(9 * u)
    return ("reject-thin", ["x"], [k - 1, k - 2], [k, k - 1], [["x"]],
            [[[0, 0], [k - 1, -k], [1, -1]]], (3, 3))


def _spec_reject_min(rng, u):
    """min(r*a_k, s*b_k): nonnegative and face-consistent, but concave."""
    n = 1 + int(2 * u)
    a, b = _fan_ordered(rng, n, 4)
    k = rng.randrange(n)
    pieces = [[[a[k], 0] if i <= k else [0, b[k]] for i in range(n + 1)]]
    return "reject-min", ["x"], a, b, [["x"]], pieces, (3, 3)


# Per round of ten: 3 principal, 2 non-principal, 3 maximal-ideal, 2 rejected.
_SPEC_MIX = [_spec_intersection] * 3 + [_spec_nonprincipal] * 2 + [_spec_maximal_cap] * 3 + [
    _spec_reject_thin, _spec_reject_min]


def fan_algebra(rng, spec_dir, rounds=48):
    ops = []
    per_kind = {make: _slices(rng, _SPEC_MIX.count(make) * rounds)
                for make in dict.fromkeys(_SPEC_MIX)}
    for _ in range(rounds):
        batch = []
        for make in _SPEC_MIX:
            u = per_kind[make].pop()
            kind, names, a, b, ideals, pieces, (rmax, smax) = make(rng, u)
            path = spec_dir / f"spec-{len(ops) + len(batch):04d}.json"
            path.write_text(json.dumps({"format_version": 1, "variables": list(names),
                                        "a": a, "b": b, "ideals": ideals, "pieces": pieces}))
            reject = kind.startswith("reject")
            cells = (rmax + 1) * (smax + 1)
            check = ("rejected", _spec_cones(a, b), pieces[0]) if reject else ("passed", cells)
            batch.append(Op(
                ["fan-algebra", "--spec", str(path), "--verify", f"{rmax}x{smax}"],
                {"workload": "fan-algebra", "subcommand": "fan-algebra", "spec": kind,
                 "n": len(names), "max_det": max(_pair_dets(a, b)), "grid": f"{rmax}x{smax}",
                 "expect": "reject" if reject else "accept"},
                check))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def build(workload, seed, spec_dir):
    """The operation pool of ``workload`` for ``seed``; spec files go to spec_dir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "generate-thin":
        return generate_thin(rng)
    if workload == "verify-grid":
        return verify_grid(rng)
    spec_dir.mkdir(parents=True, exist_ok=True)
    return fan_algebra(rng, spec_dir)

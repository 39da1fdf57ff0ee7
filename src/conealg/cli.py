"""Command-line interface.

Subcommands wrap the library operations one to one: ``generators``,
``hilbert-basis``, ``fan``, ``verify``, ``limits``, and ``fan-algebra``.
Exponent-vector input (--a/--b) is the canonical interface; principal
monomial strings (--ideal-i/--ideal-j) are sugar on top of it.  Output is
byte-stable across identical invocations.

Exit codes: 0 success, 1 stdout closed, 2 input/parse error, 3 enumeration
cap exceeded, 4 verification failure.
"""

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .fan_algebra import (
    fan_algebra_generators,
    load_fan_algebra_spec,
    verify_fan_algebra,
)
from .fans import build_fan
from .generators import (
    VerificationReport,
    asymptotic_limits,
    intersection_generators,
    verify_generation,
)
from .lattice import LatticePoint2, cone, hilbert_basis
from .monomials import (
    BigradedMonomial,
    Monomial,
    PowerCapError,
    _IDENT,
    check_variable_names,
    default_variables,
    format_bigraded,
    format_monomial,
    parse_monomial,
)
from .svg import render_fan_svg

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(",")))
    except ValueError as e:
        limit, hint, _ = str(e).partition("; use sys.")  # only past the digit limit
        raise argparse.ArgumentTypeError(
            limit if hint else f"expected comma-separated integers, got {text!r}"
        )


def _csv_point(text: str) -> LatticePoint2:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected r,s with two integers, got {text!r}")
    try:
        return LatticePoint2(int(parts[0]), int(parts[1]))
    except ValueError as e:  # drop the digit limit's hint at a Python call
        raise argparse.ArgumentTypeError(str(e).partition("; use sys.")[0])


def _csv_names(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(","))
    try:
        check_variable_names(names)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return names


def _grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            return n, n
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected N or RxS, got {text!r}")


def _infer_variables(*texts: str) -> tuple[str, ...]:
    seen = tuple(dict.fromkeys(m.group(0) for text in texts for m in _IDENT.finditer(text)))
    check_variable_names(seen)
    return seen


def _json_dumps(payload: dict) -> str:
    """The payload after ``format_version``; a point, a tuple, encodes as [r, s]."""
    import json  # imported here: only --format json needs it, and it is slow to import

    return json.dumps({"format_version": 1, **payload}, indent=2)


# --- generators JSON format ---

def _generators_payload(
    variables: Sequence[str], gens: Sequence[BigradedMonomial]
) -> dict:
    return {
        "variables": list(variables),
        "generators": [
            {
                "coeff": {v: e for v, e in zip(variables, bm.coeff.exponents) if e},
                "u": bm.degree.r,
                "v": bm.degree.s,
            }
            for bm in gens
        ],
    }


def generators_to_json(
    variables: Sequence[str], gens: Sequence[BigradedMonomial]
) -> str:
    return _json_dumps(_generators_payload(variables, gens))


def _m2check_script(
    variables: Sequence[str], a: Sequence[int], b: Sequence[int], lines: Sequence[str]
) -> str:
    ring_vars = ",".join(variables)
    gen_i = format_monomial(Monomial(tuple(a)), variables)
    gen_j = format_monomial(Monomial(tuple(b)), variables)
    expected = ", ".join(lines)
    return "\n".join(
        [
            "-- conealg m2check (format_version 1)",
            "-- Requires algGens(I,J) in the current Macaulay2 session, returning the",
            "-- intersection algebra generators of I and J in (ring I)[u,v].",
            f"R = QQ[{ring_vars}];",
            f"I = ideal({gen_i});",
            f"J = ideal({gen_j});",
            "G = algGens(I,J);",
            "S = ring first G;",
            "use S;",
            f"expected = {{{expected}}};",
            "assert(set G === set expected);",
            'print "conealg m2check: OK";',
        ]
    ) + "\n"


def _verification_json(report: VerificationReport) -> dict:
    return {
        "passed": report.passed,
        "total": report.total,
        "failures": report.failures,
        "first_failure": report.first_failure,
        "reason": report.reason,
    }


# --- subcommand handlers ---

def _resolve_ideal_inputs(args):
    by_ideal = args.ideal_i is not None or args.ideal_j is not None
    by_vector = args.a is not None or args.b is not None
    if by_ideal and by_vector:
        raise ValueError("choose either --ideal-i/--ideal-j or --a/--b, not both")
    if by_ideal:
        if args.ideal_i is None or args.ideal_j is None:
            raise ValueError("both --ideal-i and --ideal-j are required")
        variables = args.vars or _infer_variables(args.ideal_i, args.ideal_j)
        if not variables:
            raise ValueError("cannot infer variables; pass --vars")
        a = parse_monomial(args.ideal_i, variables).exponents
        b = parse_monomial(args.ideal_j, variables).exponents
        return a, b, variables
    if args.a is None or args.b is None:
        raise ValueError("both --a and --b are required (or use --ideal-i/--ideal-j)")
    variables = args.vars or default_variables(len(args.a))
    if len(variables) != len(args.a):
        raise ValueError(f"{len(variables)} variables for {len(args.a)} exponents")
    return args.a, args.b, variables


def _cmd_generators(args) -> int:
    a, b, variables = _resolve_ideal_inputs(args)
    gs = intersection_generators(a, b)
    if args.format == "json":
        print(generators_to_json(variables, gs.generators))
    elif args.format == "m2check":
        lines = [format_bigraded(bm, variables) for bm in gs.generators]
        print(_m2check_script(variables, a, b, lines), end="")
    else:
        for bm in gs.generators:
            print(format_bigraded(bm, variables))
    return EXIT_OK


def _cmd_hilbert_basis(args) -> int:
    if len(args.ray) != 2:
        raise ValueError("exactly two --ray options are required")
    c = cone(args.ray[0], args.ray[1])
    elements = hilbert_basis(c).elements
    if args.format == "json":
        payload = {
            "cone": {"ray_high": c.ray_high, "ray_low": c.ray_low},
            "elements": elements,
        }
        print(_json_dumps(payload))
    else:
        print(" ".join(str(p) for p in elements))
    return EXIT_OK


def _cmd_fan(args) -> int:
    fan = build_fan(args.a, args.b)
    if args.format == "svg":
        print(render_fan_svg(fan), end="")
    elif args.format == "json":
        payload = {
            "a": list(fan.a),
            "b": list(fan.b),
            "cones": [
                {"ray_high": c.ray_high, "ray_low": c.ray_low, "degenerate": c.is_degenerate}
                for c in fan.cones
            ],
        }
        print(_json_dumps(payload))
    else:
        for i, c in enumerate(fan.cones):
            suffix = " degenerate" if c.is_degenerate else ""
            print(f"C{i}: {c.ray_high} {c.ray_low}{suffix}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    gs = intersection_generators(args.a, args.b)
    report = verify_generation(args.a, args.b, gs, args.rmax, args.smax)
    if args.format == "json":
        print(_json_dumps(_verification_json(report)))
    else:
        print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_limits(args) -> int:
    limits = asymptotic_limits(args.a, args.b)
    if args.format == "json":
        payload = {
            "l_I_of_J": str(limits.l_I_of_J),
            "L_I_of_J": str(limits.L_I_of_J),
            "l_J_of_I": str(limits.l_J_of_I),
            "L_J_of_I": str(limits.L_J_of_I),
        }
        print(_json_dumps(payload))
    else:
        print(
            f"l_I(J)={limits.l_I_of_J} L_I(J)={limits.L_I_of_J}"
            f" l_J(I)={limits.l_J_of_I} L_J(I)={limits.L_J_of_I}"
        )
    return EXIT_OK


def _cmd_fan_algebra(args) -> int:
    try:
        text = Path(args.spec).read_text(encoding="utf-8")  # JSON is UTF-8
    except (OSError, UnicodeDecodeError) as e:
        raise ValueError(f"cannot read spec file: {e}")
    spec = load_fan_algebra_spec(text)
    gens = fan_algebra_generators(spec)
    report = None
    if args.verify is not None:
        r_max, s_max = args.verify
        report = verify_fan_algebra(spec, gens, r_max, s_max)
    if args.format == "json":
        payload = _generators_payload(spec.variables, gens)
        if report is not None:
            payload["verification"] = _verification_json(report)
        print(_json_dumps(payload))
    else:
        for bm in gens:
            print(format_bigraded(bm, spec.variables))
        if report is not None:
            print(report.summary())
    if report is not None and not report.passed:
        return EXIT_VERIFY
    return EXIT_OK


@cache  # one tree per process: parse_args never changes it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conealg",
        description=(
            "Exact generators of intersection algebras of principal monomial"
            " ideals, via fans of rational cones and 2D Hilbert bases."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)  # the --a/--b of fan, verify and limits
    pair.add_argument("--a", type=_csv_ints, required=True)
    pair.add_argument("--b", type=_csv_ints, required=True)

    p = sub.add_parser("generators", help="generating set of the intersection algebra")
    p.add_argument("--ideal-i", help="principal monomial generator of I, e.g. x^5*y^2")
    p.add_argument("--ideal-j", help="principal monomial generator of J")
    p.add_argument("--a", type=_csv_ints, help="exponent vector of I, e.g. 5,2")
    p.add_argument("--b", type=_csv_ints, help="exponent vector of J")
    p.add_argument("--vars", type=_csv_names, help="variable alphabet, e.g. x,y")
    p.add_argument("--format", choices=("text", "json", "m2check"), default="text")
    p.set_defaults(handler=_cmd_generators)

    p = sub.add_parser("hilbert-basis", help="Hilbert basis of the cone of two rays")
    p.add_argument("--ray", type=_csv_point, action="append", required=True,
                   help="a ray r,s (give exactly twice)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_hilbert_basis)

    p = sub.add_parser("fan", help="the fan of two exponent vectors", parents=[pair])
    p.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p.set_defaults(handler=_cmd_fan)

    p = sub.add_parser("verify", help="reconstruct all components on a grid", parents=[pair])
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("limits", help="asymptotic containment limits", parents=[pair])
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_limits)

    p = sub.add_parser("fan-algebra", help="generators of a fan algebra from a JSON file")
    p.add_argument("--spec", required=True, help="path to the fan algebra JSON file")
    p.add_argument("--verify", type=_grid, help="also verify on an RxS (or NxN) grid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_fan_algebra)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the interpreter's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    except PowerCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as e:  # the parse, spec and fan-linearity errors subclass it
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Exact computation of generating sets for intersection algebras of
principal monomial ideals, via fans of rational cones and 2D Hilbert bases,
together with the more general fan algebras."""

from .fan_algebra import (
    FanAlgebraSpec,
    FanLinearFunction,
    FanLinearityError,
    SpecFormatError,
    check_fan_linear,
    fan_algebra_generators,
    intersection_as_fan_algebra,
    load_fan_algebra_spec,
    principal_cap_algebra,
    principal_cap_generators,
    principal_cap_maximal_power,
    verify_fan_algebra,
)
from .fans import Fan, build_fan, fan_order
from .generators import (
    AsymptoticLimits,
    GeneratorSet,
    VerificationReport,
    asymptotic_limits,
    intersection_generators,
    verify_generation,
)
from .lattice import (
    Cone2,
    LatticePoint2,
    cone,
    hilbert_basis,
)
from .monomials import (
    BigradedMonomial,
    Monomial,
    MonomialIdeal,
    MonomialParseError,
    PowerCapError,
    format_bigraded,
    format_monomial,
    ideal_power,
    ideal_product,
    maximal_ideal,
    parse_monomial,
    principal_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticLimits",
    "BigradedMonomial",
    "Cone2",
    "Fan",
    "FanAlgebraSpec",
    "FanLinearFunction",
    "FanLinearityError",
    "GeneratorSet",
    "LatticePoint2",
    "Monomial",
    "MonomialIdeal",
    "MonomialParseError",
    "PowerCapError",
    "SpecFormatError",
    "VerificationReport",
    "asymptotic_limits",
    "build_fan",
    "check_fan_linear",
    "cone",
    "fan_algebra_generators",
    "fan_order",
    "format_bigraded",
    "format_monomial",
    "hilbert_basis",
    "ideal_power",
    "ideal_product",
    "intersection_as_fan_algebra",
    "intersection_generators",
    "load_fan_algebra_spec",
    "maximal_ideal",
    "parse_monomial",
    "principal_cap_algebra",
    "principal_cap_generators",
    "principal_cap_maximal_power",
    "principal_intersection",
    "verify_fan_algebra",
    "verify_generation",
]

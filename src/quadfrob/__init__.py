"""quadfrob: rank-two Frobenius algebras over Z[sqrt(d)] and link homology.

Exact arithmetic throughout: quadratic ring and fraction-field elements,
ideals as Hermite-form lattices, algebra validation by dual bases and
pairing unimodularity, O-module lattices with Smith-form homology, and
cube-of-resolutions complexes for planar link diagrams.
"""

from .ring import FieldElement, RingContext, RingElement
from .ideals import Ideal, ClassOrderTwoCertificate, certify_order_two, solve_partition_of_z
from .frobenius import (
    AlgebraElement,
    FrobeniusAlgebra,
    FrobeniusData,
    TwistSpec,
    build_algebra,
    example_zsqrtm5,
    family_eps_x_one,
    family_eps_x_zero,
    twist,
)
from .linkhom import PDCode, build_complex, homology_integral, homology_over_K, simplify

__all__ = [
    "AlgebraElement",
    "ClassOrderTwoCertificate",
    "FieldElement",
    "FrobeniusAlgebra",
    "FrobeniusData",
    "Ideal",
    "PDCode",
    "RingContext",
    "RingElement",
    "TwistSpec",
    "build_algebra",
    "build_complex",
    "certify_order_two",
    "example_zsqrtm5",
    "family_eps_x_one",
    "family_eps_x_zero",
    "homology_integral",
    "homology_over_K",
    "simplify",
    "solve_partition_of_z",
    "twist",
]

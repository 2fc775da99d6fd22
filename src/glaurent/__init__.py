"""Exact multigradings of mixed polynomial/Laurent rings.

A diagonal action of a torus times a finite abelian group induces a grading
on the ring of polynomials in some variables and Laurent polynomials in the
rest.  This package decides positivity of that grading, enumerates monomial
bases of the finite dimensional graded components, and produces finite
generating sets in the infinite dimensional case — all in exact integer
arithmetic.
"""

from .components import (
    INFINITE,
    ComponentDescription,
    FiniteBasis,
    ModuleGenerators,
    NotInQ,
    component,
    component_dimension,
    s0_generators,
)
from .exactmat import DimensionMismatch, IntMatrix, SingularMatrix, solve_integer
from .grading import (
    ActionSpec,
    DegreeVector,
    InvalidTorsion,
    KernelData,
    Monomial,
    NotFaithful,
    RepresentativeNotFound,
    associated_vectors,
    degree,
    find_representative,
)
from .polycone import (
    EmptyPolyhedron,
    HilbertBasis,
    Polyhedron,
    RationalCone,
    Unbounded,
    dual_cone,
    dual_hilbert_basis,
    hilbert_basis,
    lattice_points,
    rays_in_halfspace,
)
from .positivity import (
    BlockFormUnavailable,
    PositivityVerdict,
    flip_matrix,
    positivity_test,
    special_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpec",
    "BlockFormUnavailable",
    "ComponentDescription",
    "DegreeVector",
    "DimensionMismatch",
    "EmptyPolyhedron",
    "FiniteBasis",
    "HilbertBasis",
    "INFINITE",
    "IntMatrix",
    "InvalidTorsion",
    "KernelData",
    "ModuleGenerators",
    "Monomial",
    "NotFaithful",
    "NotInQ",
    "Polyhedron",
    "PositivityVerdict",
    "RationalCone",
    "RepresentativeNotFound",
    "SingularMatrix",
    "Unbounded",
    "associated_vectors",
    "component",
    "component_dimension",
    "degree",
    "dual_cone",
    "dual_hilbert_basis",
    "find_representative",
    "flip_matrix",
    "hilbert_basis",
    "lattice_points",
    "positivity_test",
    "rays_in_halfspace",
    "s0_generators",
    "solve_integer",
    "special_matrix",
]

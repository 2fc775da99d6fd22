"""Graded components: dimension, monomial bases, and generating sets.

Fix a degree.  A representative of it turns the component's monomials into
the lattice points of a polyhedron holding the origin, and the component is
finite dimensional exactly when that polyhedron is bounded: the lattice
point enumeration lists the points, or raises :class:`Unbounded`.  A finite
component (every one when the grading is positive) gets its monomial basis
from the one listing that also picks its representative.
Otherwise the degree-zero part is an infinitely generated monomial algebra
with a finite canonical set of ring generators, and the component is a
finitely generated module over it; we produce both generating sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .exactmat import Vec, lattice_reducer
from .grading import (
    SEARCH_BOUND,
    ActionSpec,
    DegreeVector,
    Monomial,
    RepresentativeNotFound,
    associated_vectors,
    build_polytope,
    find_representative,
)
from .polycone import (
    Polyhedron,
    RationalCone,
    Unbounded,
    dual_hilbert_basis,
    lattice_images,
    polytope_part,
    split_lineality,
    support_hull_rows,
)


#: Dimension of an infinite dimensional component.
INFINITE = inf


@dataclass(frozen=True)
class FiniteBasis:
    """A full monomial basis of a finite dimensional component."""

    monomials: tuple[Monomial, ...]


@dataclass(frozen=True)
class ModuleGenerators:
    """Generators in the infinite dimensional case.

    ``s0_gens`` generate the degree-zero part as a ring over the ground
    field; ``sa_gens`` generate the component as a module over it.
    """

    s0_gens: tuple[Monomial, ...]
    sa_gens: tuple[Monomial, ...]


@dataclass(frozen=True)
class NotInQ:
    """No monomial of the requested degree was found.

    ``conclusive`` distinguishes "the degree is not attained, the component
    is zero" from "the bounded search was exhausted".
    """

    bound: int
    conclusive: bool


@dataclass(frozen=True)
class ComponentDescription:
    degree: DegreeVector
    representative: Vec | None
    kind: FiniteBasis | ModuleGenerators | NotInQ


def s0_generators(spec: ActionSpec) -> tuple[Monomial, ...]:
    """Canonical ring generators of the degree-zero component.

    Empty exactly when the grading is positive.  Otherwise the Hilbert basis
    of the cone ``{z : <v, z> >= 0}`` over the rays ``v``, pushed into
    exponents.
    """
    kd = associated_vectors(spec)
    basis = dual_hilbert_basis(RationalCone(tuple(kd.rays), kd.l))
    return tuple(
        map(Monomial, sorted((kd.basis.apply(h) for h in basis.elements), reverse=True))
    )


def component(
    spec: ActionSpec,
    a: DegreeVector,
    search_bound: int = SEARCH_BOUND,
) -> ComponentDescription:
    """Describe the graded component of degree ``a``.

    Finds a canonical exponent vector of degree ``a`` (or reports
    :class:`NotInQ`), then returns a :class:`FiniteBasis` when the component
    is finite dimensional and :class:`ModuleGenerators` otherwise.

    A finite component's basis is the listing that
    :func:`find_representative` fills: its bounded polytope is listed once,
    with no box rows, and the search box only picks the representative, so
    the component costs its size, whatever ``search_bound`` is.  Every
    exponent vector ``phi + K u`` is built by :func:`lattice_images` as it
    enumerates the points ``u``.  The module generators come from the
    lattice points of the polyhedron with its lineality (the degree-zero
    units) split off, if that quotient is bounded.  Otherwise they are cut
    from a region around the lattice core of :func:`polytope_part` plus the
    zonotope of the recession Hilbert basis, clipped to the quotient; the
    core alone is the minimal set.  Either set is lifted through a section
    and reduced modulo the units, if any, with one Gram factorization.
    """
    kd = associated_vectors(spec)
    exponents: list = []
    try:
        phi = find_representative(spec, kd, a, search_bound, listing=exponents)
    except RepresentativeNotFound as exc:
        return ComponentDescription(a, None, NotInQ(exc.bound, exc.conclusive))
    if exponents:  # empty only when the polytope is unbounded
        # sorting the exponent tuples before wrapping them spares a Python
        # level Monomial.__lt__ call per comparison; the order is the same
        exponents.sort(reverse=True)
        return ComponentDescription(a, phi, FiniteBasis(tuple(map(Monomial, exponents))))
    poly = build_polytope(kd, phi)
    quotient, section, lin = split_lineality(poly)
    # the lift through the zero section is injective: only units merge images
    lift = (kd.basis @ section).transpose().rows
    try:
        exponents = lattice_images(quotient, lift, phi)
    except Unbounded:
        core, recession_hb = polytope_part(quotient)
        normals = [row for row, _ in quotient.rows]
        hull = support_hull_rows(core, recession_hb.elements, normals, quotient.dim)
        exponents = lattice_images(Polyhedron(quotient.rows + hull.rows, quotient.dim), lift, phi)
    if lin.cols:
        # reduce modulo the unit lattice, which leaves a result that depends
        # only on the component, not on the representative
        exponents = set(map(lattice_reducer(kd.basis @ lin), exponents))
    sa = tuple(map(Monomial, sorted(exponents, reverse=True)))
    return ComponentDescription(a, phi, ModuleGenerators(s0_generators(spec), sa))


def component_dimension(
    spec: ActionSpec, a: DegreeVector, search_bound: int = SEARCH_BOUND
):
    """Dimension of the component: an integer or :data:`INFINITE`.

    The size of the one listing that :func:`find_representative` fills,
    whatever ``search_bound`` is.  A conclusively unattained degree has
    dimension zero; an inconclusive representative search raises
    :class:`RepresentativeNotFound`.
    """
    kd = associated_vectors(spec)
    exponents: list = []
    try:
        find_representative(spec, kd, a, search_bound, listing=exponents)
    except RepresentativeNotFound as exc:
        if exc.conclusive:
            return 0
        raise
    # a found representative is listed, unless the polytope is unbounded
    return len(exponents) or INFINITE

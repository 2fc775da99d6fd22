"""Graded components: dimension, monomial bases, and generating sets.

Fix a degree.  When the grading is positive the component is a finite
dimensional vector space and we list its monomial basis — the lattice points
of a polytope, pushed back into exponent vectors.  Otherwise the degree-zero
part is an infinitely generated monomial algebra with a finite canonical set
of ring generators, and every component is a finitely generated module over
it; we produce both generating sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import (
    IntMatrix,
    Vec,
    dot,
    integer_kernel,
    reduce_mod_lattice,
    unimodular_completion,
    vadd,
    vsub,
)
from .grading import (
    ActionSpec,
    DegreeVector,
    KernelData,
    Monomial,
    RepresentativeNotFound,
    associated_vectors,
    find_representative,
)
from .polycone import (
    Polyhedron,
    RationalCone,
    dual_cone,
    hilbert_basis,
    intersect,
    is_bounded,
    lattice_points,
    polytope_part,
    support_hull_rows,
)


class _Infinite:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INFINITE"


#: Sentinel dimension of an infinite dimensional component.
INFINITE = _Infinite()


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


def build_polytope(kd: KernelData, phi: Vec) -> Polyhedron:
    """The polyhedron whose lattice points index the component's monomials.

    One row per polynomial variable: the pairing with that variable's ray
    must not push the exponent below zero.
    """
    rows = tuple((v, -phi[i]) for i, v in enumerate(kd.rays))
    return Polyhedron(rows, kd.l)


def s0_generators(spec: ActionSpec) -> tuple[Monomial, ...]:
    """Canonical ring generators of the degree-zero component.

    Empty exactly when the grading is positive.  Otherwise the Hilbert basis
    of the dual of the cone spanned by the rays, pushed into exponents.
    """
    kd = associated_vectors(spec)
    cone = RationalCone(tuple(kd.rays), kd.l)
    dual = dual_cone(cone)
    if not dual.generators:
        return ()
    basis = hilbert_basis(dual)
    return tuple(
        sorted((Monomial(kd.basis.apply(h)) for h in basis.elements), reverse=True)
    )


def component(
    spec: ActionSpec,
    a: DegreeVector,
    search_bound: int = 10,
    prune: bool = False,
) -> ComponentDescription:
    """Describe the graded component of degree ``a``.

    Finds a canonical exponent vector of degree ``a`` (or reports
    :class:`NotInQ`), then returns a :class:`FiniteBasis` when the component
    is finite dimensional and :class:`ModuleGenerators` otherwise.  With
    ``prune`` the module generators are thinned by removing points that
    visibly factor through a degree-zero generator.
    """
    kd = associated_vectors(spec)
    try:
        phi = find_representative(spec, kd, a, search_bound)
    except RepresentativeNotFound as exc:
        return ComponentDescription(a, None, NotInQ(exc.bound, exc.conclusive))
    return _component_with_representative(spec, kd, a, phi, prune)


def _component_with_representative(
    spec: ActionSpec,
    kd: KernelData,
    a: DegreeVector,
    phi: Vec,
    prune: bool,
) -> ComponentDescription:
    poly = build_polytope(kd, phi)
    if is_bounded(poly):
        points = lattice_points(poly)
        monomials = sorted(
            (Monomial(vadd(phi, kd.basis.apply(u))) for u in points), reverse=True
        )
        return ComponentDescription(a, phi, FiniteBasis(tuple(monomials)))
    quotient, lift, units = _split_lineality(kd, poly)
    points = _generating_points(quotient, prune)
    # lift through the zero section, then reduce each exponent vector
    # modulo the unit lattice; the result depends only on the component,
    # not on the representative
    seen: set[Vec] = set()
    for u_bar in points:
        g = vadd(phi, lift.apply(u_bar))
        seen.add(reduce_mod_lattice(units, g))
    sa = sorted((Monomial(g) for g in seen), reverse=True)
    return ComponentDescription(
        a, phi, ModuleGenerators(s0_generators(spec), tuple(sa))
    )


def _split_lineality(kd: KernelData, poly: Polyhedron):
    """Factor out the lineality of the polyhedron's recession cone.

    The polyhedron is invariant under translation along the common kernel of
    its defining rows, so it is a product of that subspace with a quotient
    polyhedron whose recession cone is pointed.  Returns the quotient, the
    exponent map of an integral section of the projection (as a matrix), and
    the exponent lattice of the invertible monomials (the image of the
    lineality lattice).
    """
    l = kd.l
    lin = integer_kernel(IntMatrix.from_rows([tuple(v) for v in kd.rays], l))
    q = lin.cols
    _, inverse = unimodular_completion(lin)
    inverse_t = inverse.transpose()
    rows = []
    for a_vec, c in poly.rows:
        transformed = inverse_t.apply(a_vec)
        assert not any(transformed[:q]), "row must vanish on the lineality"
        rows.append((transformed[q:], c))
    quotient = Polyhedron(tuple(rows), l - q)
    # the section sends u_bar to inverse @ (0, ..., 0, u_bar)
    lift = kd.basis @ inverse.submatrix(range(l), range(q, l))
    return quotient, lift, kd.basis @ lin


def _generating_points(poly: Polyhedron, prune: bool) -> list[Vec]:
    """Lattice points covering a polyhedron with pointed recession cone.

    Every lattice point of the polyhedron is one of these plus a monoid
    combination of the recession cone's Hilbert basis: the points are cut
    from an exactly-supported region around (lattice core) + (box spanned
    by the recession Hilbert basis), clipped to the polyhedron itself.
    """
    if is_bounded(poly):
        return lattice_points(poly)
    core, _, recession_hb = polytope_part(poly)
    region = intersect(
        poly,
        support_hull_rows(
            core,
            recession_hb.elements,
            [row for row, _ in poly.rows],
            poly.dim,
        ),
    )
    points = lattice_points(region)
    if prune:
        points = _prune_points(points, poly, recession_hb.elements)
    return points


def _prune_points(points, poly: Polyhedron, hb_elements) -> list[Vec]:
    """Drop points that are a Hilbert basis element above another solution.

    Only strict elements — those not orthogonal to every defining row — are
    used for reduction, so the pass terminates and the kept set still
    generates.
    """
    weight = [0] * poly.dim
    for a, _ in poly.rows:
        weight = [x + y for x, y in zip(weight, a)]
    strict = [h for h in hb_elements if dot(tuple(weight), h) > 0]

    def inside(u: Vec) -> bool:
        return all(dot(a, u) >= c for a, c in poly.rows)

    kept = []
    for u in points:
        if any(inside(vsub(u, h)) for h in strict):
            continue
        kept.append(u)
    return kept


def component_dimension(
    spec: ActionSpec, a: DegreeVector, search_bound: int = 10
):
    """Dimension of the component: an integer or :data:`INFINITE`.

    A conclusively unattained degree has dimension zero; an inconclusive
    representative search raises :class:`RepresentativeNotFound`.
    """
    kd = associated_vectors(spec)
    try:
        phi = find_representative(spec, kd, a, search_bound)
    except RepresentativeNotFound as exc:
        if exc.conclusive:
            return 0
        raise
    poly = build_polytope(kd, phi)
    if is_bounded(poly):
        return len(lattice_points(poly))
    return INFINITE

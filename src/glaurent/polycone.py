"""Rational polyhedral cones, Hilbert bases, and lattice points.

Everything here is exact: cones are given by integer generators, polyhedra by
integer inequality rows ``<a, u> >= c``, and all eliminations and duals are
computed over the rationals with no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil, floor, gcd

from .exactmat import (
    IntMatrix,
    SingularMatrix,
    Vec,
    det_and_scaled_inverse,
    dot,
    integer_kernel,
    primitive,
    rational_kernel_basis,
    rational_rank,
    solve_integer,
    unimodular_completion,
    vsub,
)


class EmptyPolyhedron(ValueError):
    """The polyhedron has no points at all (over the rationals)."""


class Unbounded(ValueError):
    """Lattice-point enumeration was asked for an unbounded polyhedron."""


@dataclass(frozen=True)
class ContainedWith:
    """Witness that a set of vectors lies in the half-space ``<normal, .> >= 0``."""

    normal: Vec


class _NotContained:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NOT_CONTAINED"


#: Singleton result: the vectors are not contained in any half-space.
NOT_CONTAINED = _NotContained()

#: What a half-space query returns.
HalfspaceOutcome = ContainedWith | _NotContained


@dataclass(frozen=True)
class RationalCone:
    """A rational polyhedral cone, stored by integer generators.

    Generators are normalized on construction: zero vectors are dropped,
    every generator is made primitive, and duplicates are removed keeping
    the first occurrence.  ``dim`` is the ambient dimension.
    """

    generators: tuple[Vec, ...]
    dim: int

    def __post_init__(self) -> None:
        seen: dict[Vec, None] = {}
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError(f"generator {g} not of length {self.dim}")
            g = primitive(g)
            if any(g) and g not in seen:
                seen[g] = None
        object.__setattr__(self, "generators", tuple(seen))


@dataclass(frozen=True)
class HilbertBasis:
    """The unique minimal integral generating set of a pointed cone's monoid.

    For a cone with lineality the elements still generate the monoid, with
    both signs of a lattice basis of the lineality space included; minimality
    then holds modulo that lineality.
    """

    elements: tuple[Vec, ...]


@dataclass(frozen=True)
class Polyhedron:
    """Integer inequality rows ``(a, c)`` meaning ``<a, u> >= c``."""

    rows: tuple[tuple[Vec, int], ...]
    dim: int


def intersect(first: Polyhedron, second: Polyhedron) -> Polyhedron:
    if first.dim != second.dim:
        raise ValueError("cannot intersect polyhedra of different dimensions")
    return Polyhedron(first.rows + second.rows, first.dim)


@lru_cache(maxsize=None)
def dual_cone(cone: RationalCone) -> RationalCone:
    """The cone of vectors pairing nonnegatively with every generator.

    The result's generators are canonical: the rays of the pointed part are
    chosen inside the span of the input generators, and both signs of a
    primitive basis of the orthogonal complement give the lineality.
    """
    gens = cone.generators
    d = cone.dim
    lineality = rational_kernel_basis(gens, d)
    k = d - len(lineality)
    rays: set[Vec] = set()
    if k >= 1:
        # Each extreme ray of the pointed part is cut out by k-1 of the
        # generators together with the span constraints.
        for subset in combinations(gens, k - 1):
            constraints = list(subset) + lineality
            kernel = rational_kernel_basis(constraints, d)
            if len(kernel) != 1:
                continue
            c = kernel[0]
            pairings = [dot(c, g) for g in gens]
            if all(x >= 0 for x in pairings):
                rays.add(c)
            elif all(x <= 0 for x in pairings):
                rays.add(tuple(-x for x in c))
    generators = sorted(rays)
    for w in lineality:
        generators.append(w)
        generators.append(tuple(-x for x in w))
    return RationalCone(tuple(sorted(generators)), d)


def cone_contains(cone: RationalCone, v: Vec) -> bool:
    """Exact membership test, via the cached dual description."""
    return all(dot(u, v) >= 0 for u in dual_cone(cone).generators)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination and lattice points


def _normalize_row(a: Vec, c: int, tighten: bool) -> tuple[Vec, int]:
    g = gcd(*a)
    if tighten and g > 1:
        # dividing by the content is valid for integer points: <a,u> >= c
        # with a = g*a' forces <a',u> >= ceil(c/g).
        return (tuple(x // g for x in a), -((-c) // g))
    return (a, c)


def _project_last(rows: list[tuple[Vec, int]], tighten: bool) -> list[tuple[Vec, int]]:
    """One step of Fourier-Motzkin: eliminate the last coordinate."""
    keep: list[tuple[Vec, int]] = []
    pos: list[tuple[Vec, int]] = []
    neg: list[tuple[Vec, int]] = []
    for a, c in rows:
        if a[-1] == 0:
            keep.append((a[:-1], c))
        elif a[-1] > 0:
            pos.append((a, c))
        else:
            neg.append((a, c))
    out = {_normalize_row(a, c, tighten) for a, c in keep}
    for ap, cp in pos:
        for an, cn in neg:
            alpha, beta = ap[-1], an[-1]
            coeffs = tuple(-beta * x + alpha * y for x, y in zip(ap[:-1], an[:-1]))
            rhs = -beta * cp + alpha * cn
            out.add(_normalize_row(coeffs, rhs, tighten))
    return sorted(out)


def _projections(poly: Polyhedron, tighten: bool) -> list[list[tuple[Vec, int]]]:
    """Systems in dimensions dim, dim-1, ..., 0 (successive eliminations)."""
    systems = [sorted(set(poly.rows))]
    for _ in range(poly.dim):
        systems.append(_project_last(systems[-1], tighten))
    systems.reverse()
    return systems


def _real_feasible(poly: Polyhedron) -> bool:
    systems = _projections(poly, tighten=False)
    return all(c <= 0 for _, c in systems[0])


def is_bounded(poly: Polyhedron) -> bool:
    """Whether the polyhedron is bounded (its recession cone is trivial)."""
    recession = RationalCone(tuple(a for a, _ in poly.rows), poly.dim)
    return not dual_cone(recession).generators


def lattice_points(poly: Polyhedron) -> list[Vec]:
    """All integer points of a bounded polyhedron, in lexicographic order."""
    if not is_bounded(poly):
        raise Unbounded(f"polyhedron in dimension {poly.dim} is unbounded")
    return _lattice_points_unchecked(poly)


def _lattice_points_unchecked(poly: Polyhedron) -> list[Vec]:
    systems = _projections(poly, tighten=True)
    if any(c > 0 for _, c in systems[0]):
        return []
    found: list[Vec] = []

    def descend(prefix: Vec) -> None:
        level = len(prefix) + 1
        lo: int | None = None
        hi: int | None = None
        for a, c in systems[level]:
            residual = c - sum(x * y for x, y in zip(a, prefix))
            coeff = a[level - 1]
            if coeff == 0:
                if residual > 0:
                    return
            elif coeff > 0:
                bound = ceil(Fraction(residual, coeff))
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = floor(Fraction(residual, coeff))
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise Unbounded("coordinate range not bounded during enumeration")
        if level == poly.dim:
            for x in range(lo, hi + 1):
                found.append(prefix + (x,))
        else:
            for x in range(lo, hi + 1):
                descend(prefix + (x,))

    if poly.dim == 0:
        return [()]
    descend(())
    return found


# ---------------------------------------------------------------------------
# Hilbert bases


@lru_cache(maxsize=None)
def hilbert_basis(cone: RationalCone) -> HilbertBasis:
    """Generators of the monoid of lattice points of the cone.

    Cones with lineality are handled by splitting off the lineality lattice;
    see :class:`HilbertBasis` for what minimality means in that case.
    """
    gens = cone.generators
    if not gens:
        return HilbertBasis(())
    d = cone.dim
    k = rational_rank(gens)
    if k < d:
        # restrict to the saturated lattice of the linear span, where the
        # cone is full-dimensional; the monoid is carried over isomorphically
        span_constraints = rational_kernel_basis(gens, d)
        lattice = integer_kernel(IntMatrix.from_rows(span_constraints, d))
        coords = []
        for g in gens:
            shrunk = solve_integer(lattice, g)
            assert shrunk is not None
            coords.append(shrunk)
        inner = hilbert_basis(RationalCone(tuple(coords), k))
        lifted = [lattice.apply(h) for h in inner.elements]
        return HilbertBasis(tuple(sorted(lifted)))
    lin_basis = rational_kernel_basis(dual_cone(cone).generators, d)
    if lin_basis:
        return HilbertBasis(_hilbert_with_lineality(cone, lin_basis))
    return HilbertBasis(tuple(sorted(_hilbert_pointed(cone))))


def _hilbert_with_lineality(cone: RationalCone, lin_basis: list[Vec]) -> tuple[Vec, ...]:
    d = cone.dim
    q = len(lin_basis)
    lattice = integer_kernel(
        IntMatrix.from_rows(rational_kernel_basis(lin_basis, d), d)
    )
    # unimodular change of coordinates moving the lineality lattice onto the
    # first q coordinates; the quotient cone in the remaining ones is pointed
    u_mat, u_inv = unimodular_completion(lattice)
    quotient = RationalCone(tuple(u_mat.apply(g)[q:] for g in cone.generators), d - q)
    out = [u_inv.apply((0,) * q + h) for h in hilbert_basis(quotient).elements]
    for j in range(q):
        e = u_inv.col(j)
        out.append(e)
        out.append(tuple(-x for x in e))
    return tuple(sorted(set(out)))


def _hilbert_pointed(cone: RationalCone) -> list[Vec]:
    """Hilbert basis of a pointed, full-dimensional cone.

    Candidates are the lattice points of the closed fundamental
    parallelepipeds of all nonsingular generator subsets; these cover every
    irreducible element.  A greedy pass ordered by a functional positive on
    the cone then removes the reducible ones.
    """
    gens = cone.generators
    d = cone.dim
    candidates: set[Vec] = set()
    for subset in combinations(gens, d):
        mat = IntMatrix.from_columns(list(subset), d)
        try:
            det, scaled = det_and_scaled_inverse(mat)
        except SingularMatrix:
            continue
        sign = 1 if det > 0 else -1
        bound = abs(det)
        rows = []
        for i in range(d):
            row = tuple(sign * x for x in scaled.rows[i])
            rows.append((row, 0))
            rows.append((tuple(-x for x in row), -bound))
        box = Polyhedron(tuple(rows), d)
        for pt in _lattice_points_unchecked(box):
            if any(pt):
                candidates.add(pt)
    weight = [0] * d
    for u in dual_cone(cone).generators:
        weight = [a + b for a, b in zip(weight, u)]
    weight_v = tuple(weight)
    ordered = sorted(candidates, key=lambda v: (dot(weight_v, v), v))
    kept: list[Vec] = []
    for v in ordered:
        reducible = False
        for w in kept:
            diff = vsub(v, w)
            if any(diff) and cone_contains(cone, diff):
                reducible = True
                break
        if not reducible:
            kept.append(v)
    return kept


# ---------------------------------------------------------------------------
# Half-space containment


def is_in_halfspace_extend(
    vectors, cone: RationalCone, normal: Vec
) -> ContainedWith | _NotContained:
    """Grow a half-space certificate over ``vectors``, or refute one.

    Requires ``cone`` to be full-dimensional and contained in the half-space
    of ``normal``.  Processes the vectors in order; each accepted vector is
    added to the cone.  Returns a witness normal for the final cone, or
    :data:`NOT_CONTAINED` as soon as no containing half-space can exist.
    """
    if rational_rank(cone.generators) < cone.dim:
        raise ValueError("seed cone must be full-dimensional")
    current = list(cone.generators)
    u = normal
    for w in vectors:
        w = primitive(tuple(w))
        if not any(w):
            continue
        if dot(u, w) >= 0:
            current.append(w)
            continue
        # <u, w> < 0: a half-space containing the enlarged cone must have w
        # on its boundary; look for one among the duals of cone + the line Rw
        neg = tuple(-x for x in w)
        witness = dual_cone(RationalCone(tuple(current + [w, neg]), cone.dim))
        if not witness.generators:
            return NOT_CONTAINED
        u = witness.generators[0]
        current.append(w)
    return ContainedWith(u)


def rays_in_halfspace(vectors, dim: int) -> ContainedWith | _NotContained:
    """Decide whether the vectors lie in a common closed half-space.

    Returns :class:`ContainedWith` carrying a nonzero integer normal, or
    :data:`NOT_CONTAINED`.  ``dim`` is the ambient dimension (needed because
    the list may be empty).
    """
    if dim == 0:
        return NOT_CONTAINED
    cleaned = [primitive(tuple(v)) for v in vectors]
    cleaned = [v for v in cleaned if any(v)]
    if rational_rank(cleaned) < dim:
        normal = rational_kernel_basis(cleaned, dim)[0]
        return ContainedWith(normal)
    base: list[Vec] = []
    rest: list[Vec] = []
    for v in cleaned:
        if len(base) < dim and rational_rank(base + [v]) > len(base):
            base.append(v)
        else:
            rest.append(v)
    seed = dual_basis_vectors(base, dim)[0]
    return is_in_halfspace_extend(rest, RationalCone(tuple(base), dim), seed)


def dual_basis_vectors(rays, l: int) -> list[Vec]:
    """Primitive integer multiples of the basis dual to the first ``l`` rays."""
    mat = IntMatrix.from_rows([tuple(rays[i]) for i in range(l)], l)
    det, scaled = det_and_scaled_inverse(mat)
    sign = 1 if det > 0 else -1
    return [
        primitive(tuple(sign * scaled.rows[i][j] for i in range(l)))
        for j in range(l)
    ]


# ---------------------------------------------------------------------------
# Polytope part of a polyhedron


def polytope_part(poly: Polyhedron) -> tuple[tuple[Vec, ...], RationalCone, HilbertBasis]:
    """Split ``poly`` into a finite lattice core plus its recession monoid.

    Returns ``(core_points, recession, recession_hb)`` where every lattice
    point of ``poly`` is one of ``core_points`` plus a monoid combination of
    the recession cone's Hilbert basis, and — when the recession cone is
    trivial — ``core_points`` are exactly the lattice points of ``poly``.

    Raises :class:`EmptyPolyhedron` when the polyhedron has no real points.
    """
    if not _real_feasible(poly):
        raise EmptyPolyhedron(f"no solutions in dimension {poly.dim}")
    d = poly.dim
    homogenized = [a + (-c,) for a, c in poly.rows]
    homogenized.append(tuple(0 for _ in range(d)) + (1,))
    cone = dual_cone(RationalCone(tuple(homogenized), d + 1))
    basis = hilbert_basis(cone)
    core = tuple(sorted(h[:-1] for h in basis.elements if h[-1] == 1))
    level0 = tuple(sorted(h[:-1] for h in basis.elements if h[-1] == 0))
    recession = RationalCone(level0, d)
    return core, recession, HilbertBasis(level0)


def support_hull_rows(points, generators, normals, dim: int) -> Polyhedron:
    """An exact outer bound on ``conv(points) + zonotope(generators)``.

    For each normal ``c`` (the set is symmetrized) the row states
    ``<c, x> >= min_points <c, q> + sum_g min(0, <c, g>)`` — the exact
    support value of the sum, so the region contains it and is tight in
    every supplied direction.  Standard axis directions are always included,
    making the region bounded.
    """
    pts = [tuple(q) for q in points]
    if not pts:
        raise EmptyPolyhedron("support hull of no points")
    gens = [tuple(g) for g in generators]
    pool: set[Vec] = set()
    for j in range(dim):
        pool.add(tuple(1 if i == j else 0 for i in range(dim)))
    for c in normals:
        c = primitive(tuple(c))
        if not any(c):
            continue
        for x in c:
            if x:
                if x < 0:
                    c = tuple(-y for y in c)
                break
        pool.add(c)
    rows = []
    for c in sorted(pool):
        for cc in (c, tuple(-x for x in c)):
            lo = min(dot(cc, q) for q in pts)
            lo += sum(min(0, dot(cc, g)) for g in gens)
            rows.append((cc, lo))
    return Polyhedron(tuple(rows), dim)

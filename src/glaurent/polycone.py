"""Rational polyhedral cones, Hilbert bases, and lattice points.

Everything here is exact and free of floating point: cones are given by
integer generators, polyhedra by integer inequality rows ``<a, u> >= c``.
Fourier-Motzkin, the double-description dual, the pulling triangulation
behind Hilbert bases, and the spans, ranks and kernels all run in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

from .exactmat import (
    IntMatrix,
    Vec,
    _rref,
    det_and_scaled_inverse,
    dot,
    integer_kernel,
    primitive,
    rational_kernel_basis,
    rational_rank,
    smith_normal_form,
    solve_integer,
    unimodular_completion,
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


@lru_cache(maxsize=1024)
def dual_cone(cone: RationalCone) -> RationalCone:
    """The cone of vectors pairing nonnegatively with every generator.

    The result's generators are canonical: the primitive extreme rays of the
    pointed part, which lies inside the span of the input generators, and
    both signs of a primitive basis of the orthogonal complement as the
    lineality.

    The rays come from one incremental double-description pass in integers
    (Motzkin et al. 1953; Fukuda and Prodon 1996).  The first independent
    generators form a basis ``B`` of the span, and the pass works in the
    coordinates ``y`` of ``c = B y``, where generator ``g`` becomes the row
    ``(<g, b>)_b``.  The basis rows cut out a simplicial cone whose rays are
    the columns of the Gram matrix's adjugate.  Each further row keeps the
    rays on its nonnegative side and adds one ray on its hyperplane for
    every adjacent pair of rays on opposite sides.  The cache keeps the 1024
    most recently used cones.
    """
    gens = cone.generators
    d = cone.dim
    lineality = rational_kernel_basis(gens, d)
    k = d - len(lineality)
    rays: list[Vec] = []
    if k >= 1:
        _, pivots = _rref([tuple(g[i] for g in gens) for i in range(d)], len(gens))
        basis = [gens[j] for j in pivots]
        rows = [tuple(dot(g, b) for b in basis) for g in gens]
        det, adj = det_and_scaled_inverse(IntMatrix.from_rows([rows[j] for j in pivots], k))
        sign = 1 if det > 0 else -1
        # ray i of the simplicial cone is tight on every basis row but its own;
        # tight sets are bitmasks over generator indices
        tight_all = sum(1 << j for j in pivots)
        current = [
            (primitive(tuple(sign * x for x in adj.col(i))), tight_all & ~(1 << j))
            for i, j in enumerate(pivots)
        ]
        chosen = set(pivots)
        for j, a in enumerate(rows):
            if j in chosen or not current:
                continue
            bit = 1 << j
            kept, pos, neg = [], [], []
            for y, tight in current:
                s = sum(x * z for x, z in zip(a, y))
                if s > 0:
                    kept.append((y, tight))
                    pos.append((y, tight, s))
                elif s < 0:
                    neg.append((y, tight, s))
                else:
                    kept.append((y, tight | bit))
            masks = [tight for _, tight in current]
            for yp, tp, sp in pos:
                for yn, tn, sn in neg:
                    common = tp & tn
                    # adjacent iff no third ray is tight on all of the common
                    # rows (Fukuda-Prodon, Prop. 7); fewer than k - 2 common
                    # rows cannot have rank k - 2, a cheaper way to say no
                    if common.bit_count() < k - 2:
                        continue
                    if sum(1 for t in masks if t & common == common) > 2:
                        continue
                    ray = tuple(sp * x - sn * z for x, z in zip(yn, yp))
                    kept.append((primitive(ray), common | bit))
            current = kept
        rays = [
            primitive(tuple(sum(yi * b[t] for yi, b in zip(y, basis)) for t in range(d)))
            for y, _ in current
        ]
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
                bound = -(-residual // coeff)
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = residual // coeff
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


@lru_cache(maxsize=1024)
def hilbert_basis(cone: RationalCone) -> HilbertBasis:
    """Generators of the monoid of lattice points of the cone, sorted.

    Pointed cones are read off one pulling triangulation; cones with
    lineality are handled by splitting off the lineality lattice; see
    :class:`HilbertBasis` for what minimality means in that case.  The cache
    keeps the 1024 most recently used cones.
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

    One pulling triangulation covers the cone, so every irreducible element
    is a generator or a nonzero point of the half-open parallelepiped of a
    simplex (Bruns-Gubeladze 2009, 2.C), listed as ``Z^d / G Z^d`` through
    the SNF of the simplex matrix ``G`` (Bruns-Ichim 2010).  A greedy pass
    ordered by a functional positive on the cone removes the reducible ones.
    """
    gens = cone.generators
    d = cone.dim
    dual = dual_cone(cone).generators
    # faces are generator bitmasks; a face's facets are its maximal proper face & mask
    facets = [sum(1 << j for j, g in enumerate(gens) if dot(u, g) == 0) for u in dual]
    memo: dict[int, list[list[int]]] = {0: [[]]}

    def pulling(face: int) -> list[list[int]]:
        # the lowest generator joined to each simplex of each facet missing it
        if face not in memo:
            apex = face & -face
            subs = {face & m for m in facets} - {face}
            memo[face] = [
                [apex.bit_length() - 1] + simplex
                for sub in subs
                if not sub & apex and not any(sub != o and sub & o == sub for o in subs)
                for simplex in pulling(sub)
            ]
        return memo[face]

    candidates = set(gens)
    for simplex in pulling((1 << len(gens)) - 1):
        mat = IntMatrix.from_columns([gens[j] for j in simplex], d)
        det, adj = det_and_scaled_inverse(mat)
        size = abs(det)
        if size == 1:
            continue
        # u @ mat @ v = s: the classes x = u^-1 c, 0 <= c_i < s_ii, of Z^d / mat Z^d
        # give the points mat @ mu / |det|, mu = sign(det) adj x mod |det|
        u, s, _ = smith_normal_form(mat)
        det_u, adj_u = det_and_scaled_inverse(u)
        to_mu = adj @ adj_u
        scale = det_u if det > 0 else -det_u  # u^-1 = det(u) adj(u)
        for c in product(*(range(s.rows[i][i]) for i in range(d))):
            mu = [scale * x % size for x in to_mu.apply(c)]
            if any(mu):
                candidates.add(tuple(dot(row, mu) // size for row in mat.rows))
    # v reduces by a kept w iff v - w is in the cone, i.e. iff w's values on
    # the dual rays are at most v's; the dual spans, so values separate points
    values = {v: tuple(dot(u, v) for u in dual) for v in candidates}
    kept: list[Vec] = []
    kept_values: list[Vec] = []
    for v in sorted(candidates, key=lambda v: (sum(values[v]), v)):
        fv = values[v]
        if not any(all(a <= b for a, b in zip(fw, fv)) for fw in kept_values):
            kept.append(v)
            kept_values.append(fv)
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

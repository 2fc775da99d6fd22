"""Rational polyhedral cones, Hilbert bases, and lattice points.

Everything here is exact and free of floating point: cones are given by
integer generators, polyhedra by integer inequality rows ``<a, u> >= c``.
Fourier-Motzkin, the double-description dual, the Hilbert bases, and the
spans, ranks and kernels all run in integers.  A cone given by generators
gets its Hilbert basis from a pulling triangulation; a cone given by
inequalities, as the degree-zero cone and the homogenized polyhedra are,
gets it from Pottier's completion over the inequalities themselves, which
for a polyhedron stops at level 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, le, mul

from .exactmat import (
    DimensionMismatch,
    IntMatrix,
    Vec,
    _gauss_jordan,
    det_and_scaled_inverse,
    dot,
    int_vector,
    integer_kernel,
    primitive,
    rational_kernel_basis,
    rational_rank,
    smith_normal_form,
    unimodular_completion,
)


class EmptyPolyhedron(ValueError):
    """The polyhedron has no points at all (over the rationals)."""


class Unbounded(ValueError):
    """Lattice-point enumeration met an unbounded coordinate range."""


def _check_dim(dim) -> None:
    """Refuse an ambient dimension that is not an ``int`` (:class:`TypeError`)
    or is negative (:class:`DimensionMismatch`)."""
    (dim,) = int_vector((dim,))
    if dim < 0:
        raise DimensionMismatch(f"negative dimension {dim}")


@dataclass(frozen=True)
class RationalCone:
    """A rational polyhedral cone, stored by integer generators.

    Generators are normalized on construction: zero vectors are dropped,
    every generator is made primitive, and duplicates are removed keeping
    the first occurrence.  ``dim`` is the ambient dimension, an ``int``
    (else :class:`TypeError`) and at least 0 (else
    :class:`DimensionMismatch`).  Every generator must have length ``dim``
    (else :class:`DimensionMismatch`) and ``int`` entries (else
    :class:`TypeError`).
    """

    generators: tuple[Vec, ...]
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        seen: dict[Vec, None] = {}
        for g in map(int_vector, self.generators):
            if len(g) != self.dim:
                raise DimensionMismatch(f"generator {g} not of length {self.dim}")
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
    """Integer inequality rows ``(a, c)`` meaning ``<a, u> >= c``.

    ``dim`` follows the rule of :class:`RationalCone`.  Every normal ``a``
    must have length ``dim`` (else :class:`DimensionMismatch`) and every
    entry and right-hand side must be an ``int`` (else :class:`TypeError`).
    """

    rows: tuple[tuple[Vec, int], ...]
    dim: int

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        rows = []
        for a, c in self.rows:
            row = int_vector((*a, c))
            if len(row) != self.dim + 1:
                raise DimensionMismatch(
                    f"normal of length {len(row) - 1} in dimension {self.dim}"
                )
            rows.append((row[:-1], c))
        object.__setattr__(self, "rows", tuple(rows))


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
        _, _, pivots = _gauss_jordan(list(zip(*gens)), len(gens))
        basis = [gens[j] for j in pivots]
        rows = [tuple(dot(g, b) for b in basis) for g in gens]
        # ray i of the simplicial cone is tight on every basis row but its own;
        # tight sets are bitmasks over generator indices
        tight_all = sum(1 << j for j in pivots)
        seeds = dual_basis_vectors([rows[j] for j in pivots], k)
        current = [(y, tight_all & ~(1 << j)) for y, j in zip(seeds, pivots)]
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
    generators = rays + lineality + [tuple(-x for x in w) for w in lineality]
    return RationalCone(tuple(sorted(generators)), d)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination and lattice points


def _normalize_row(a: Vec, c: int) -> tuple[Vec, int]:
    g = gcd(*a)
    if g > 1:
        # dividing by the content is valid for integer points: <a,u> >= c
        # with a = g*a' forces <a',u> >= ceil(c/g).
        return (tuple(x // g for x in a), -((-c) // g))
    return (a, c)


def _project_last(rows: list[tuple[Vec, int]]) -> list[tuple[Vec, int]]:
    """One step of Fourier-Motzkin: eliminate the last coordinate."""
    keep, pos, neg = [], [], []
    for a, c in rows:
        if a[-1] == 0:
            keep.append((a[:-1], c))
        elif a[-1] > 0:
            pos.append((a, c))
        else:
            neg.append((a, c))
    out = {_normalize_row(a, c) for a, c in keep}
    for ap, cp in pos:
        for an, cn in neg:
            alpha, beta = ap[-1], an[-1]
            coeffs = tuple(-beta * x + alpha * y for x, y in zip(ap[:-1], an[:-1]))
            rhs = -beta * cp + alpha * cn
            out.add(_normalize_row(coeffs, rhs))
    return sorted(out)


def lattice_points(poly: Polyhedron) -> list[Vec]:
    """All integer points of the polyhedron, in lexicographic order: the
    identity image of :func:`lattice_images`, and so its boundedness test."""
    units = [tuple(int(i == j) for i in range(poly.dim)) for j in range(poly.dim)]
    return lattice_images(poly, units, (0,) * poly.dim)


def lattice_images(poly: Polyhedron, columns, offset) -> list[Vec]:
    """``offset + sum_k u_k * columns[k]`` for every integer point ``u`` of
    the polyhedron, in the lexicographic order of ``u``.

    Fourier-Motzkin projects the rows down coordinate by coordinate, each
    row divided by its content with the right-hand side rounded up, and the
    descent fixes the coordinates in turn: each level adds ``lo *
    columns[k]`` to the image once and then steps by ``columns[k]``, and the
    last level's images are an arithmetic progression, so no point costs a
    matrix-vector product.  This is also the boundedness test: a polyhedron
    with a lattice point raises :class:`Unbounded` exactly when it is
    unbounded, as the projections are exact over the rationals (Schrijver
    1986, 12.2) and rounding keeps every row's normal.  An unbounded
    polyhedron with no lattice point either raises it too or gives ``[]``.
    """
    if len(columns) != poly.dim or any(len(col) != len(offset) for col in columns):
        raise DimensionMismatch(f"{len(columns)} image columns in dimension {poly.dim}")
    # the systems in dimensions 0, 1, ..., dim, by successive eliminations;
    # a row whose last coefficient is 0 is also a row of the system below,
    # where the descent has enforced it, so each level reads only the others
    systems = [sorted(set(poly.rows))]
    for _ in range(poly.dim):
        systems.insert(0, _project_last(systems[0]))
    if any(c > 0 for _, c in systems[0]):
        return []
    bounding = [[(a, c) for a, c in rows if a[-1]] for rows in systems[1:]]
    found: list[Vec] = []

    def descend(prefix: Vec, image: Vec) -> None:
        k = len(prefix)
        lo = hi = None
        for a, c in bounding[k]:
            residual = c - sum(map(mul, a, prefix))
            if a[k] > 0:
                bound = -(-residual // a[k])
                if lo is None or bound > lo:
                    lo = bound
            else:
                bound = residual // a[k]
                if hi is None or bound < hi:
                    hi = bound
        if lo is None or hi is None:
            raise Unbounded("coordinate range not bounded during enumeration")
        if lo > hi:
            return
        col = columns[k]
        if k + 1 == poly.dim:
            count = hi - lo + 1
            ranges = [range(y + lo * x, y + (hi + 1) * x, x) if x else repeat(y, count)
                      for x, y in zip(col, image)]
            found.extend(zip(*ranges) if ranges else repeat((), count))
        else:
            image = tuple([y + lo * x for x, y in zip(col, image)])
            for x in range(lo, hi + 1):
                descend(prefix + (x,), image)
                image = tuple(map(add, image, col))

    if poly.dim == 0:
        return [tuple(offset)]
    descend((), tuple(offset))
    return found


# ---------------------------------------------------------------------------
# Hilbert bases


@lru_cache(maxsize=1024)
def hilbert_basis(cone: RationalCone) -> HilbertBasis:
    """Generators of the monoid of lattice points of the cone, sorted.

    The pointed quotient of :func:`_pointed_quotient` is read off one pulling
    triangulation of the generators; see :class:`HilbertBasis` for what
    minimality means for a cone with lineality.  For a cone given by
    inequalities, :func:`dual_hilbert_basis` finds the same basis without
    its generators.  The cache keeps the 1024 most recently used cones.
    """
    gens = cone.generators
    dual = dual_cone(cone).generators
    section, lineality = _pointed_quotient(gens, dual, cone.dim)
    # [lineality basis | section] is a basis of the span lattice; with
    # u @ basis @ v = [I; 0], z = basis @ x gives x = v @ (u @ z)[:k]
    basis = IntMatrix.from_columns(lineality[::2] + list(zip(*section.rows)), cone.dim)
    u, _, v = smith_normal_form(basis)
    k, q = basis.cols, len(lineality) // 2
    quotient = RationalCone(tuple(v.apply(u.apply(g)[:k])[q:] for g in gens), k - q)
    # the dual's rays restrict to the quotient's facet normals; its lineality to 0
    forms = [f for f in map(section.transpose().apply, dual) if any(f)]
    out = lineality + [section.apply(h) for h in _hilbert_pointed(quotient, forms)]
    return HilbertBasis(tuple(sorted(out)))


@lru_cache(maxsize=1024)
def dual_hilbert_basis(normals: RationalCone) -> HilbertBasis:
    """The Hilbert basis of ``dual_cone(normals)``, sorted.

    That cone is ``{z : <a, z> >= 0}`` over the generators ``a`` of
    ``normals``, and the completion of :func:`_monoid_basis` runs on these
    inequalities as given: the result equals ``hilbert_basis(dual_cone(
    normals))`` without a second dual.  The cache keeps the 1024 most
    recently used cones.
    """
    return HilbertBasis(
        _monoid_basis(dual_cone(normals).generators, normals.generators, normals.dim)
    )


def _monoid_basis(gens, forms, d: int, level: Vec | None = None) -> tuple[Vec, ...]:
    """The sorted Hilbert basis of the cone ``{z : <f, z> >= 0 for f in
    forms}``, whose generators ``gens`` the caller's ``dual_cone`` pass gave;
    with a ``level`` form nonnegative on the cone, only its elements at
    level 0 and 1.

    The forms are carried into the coordinates of :func:`_pointed_quotient`,
    where :func:`_hilbert_by_completion` runs on them.
    """
    section, out = _pointed_quotient(gens, forms, d)
    restrict = section.transpose().apply
    pointed = _hilbert_by_completion(
        [restrict(f) for f in forms], section.cols, level and restrict(level)
    )
    return tuple(sorted(out + [section.apply(h) for h in pointed]))


def _pointed_quotient(gens, forms, d: int) -> tuple[IntMatrix, list[Vec]]:
    """Coordinates in which the cone ``{z : <f, z> >= 0 for f in forms}``,
    with generators ``gens``, is pointed and full-dimensional.

    The cone is moved into the saturated lattice of its span, where the forms
    vanishing on it (its implicit equalities) become zero, and its lineality
    is split off in the coordinates of :func:`_lineality_coordinates`.
    Returns ``(section, lineality)``: the columns of ``section`` complete a
    lineality lattice basis to a basis of the span lattice, so the Hilbert
    basis is ``section`` applied to that of the pointed quotient, plus
    ``lineality``, both signs of each lineality basis vector.
    """
    section = integer_kernel(IntMatrix.from_rows(rational_kernel_basis(gens, d), d))
    k = section.cols
    lineality: list[Vec] = []
    lin_basis = rational_kernel_basis([section.transpose().apply(f) for f in forms], k)
    if lin_basis:
        _, u_inv = _lineality_coordinates(rational_kernel_basis(lin_basis, k), k)
        for j in range(len(lin_basis)):
            e = section.apply(u_inv.col(j))
            lineality += [e, tuple(-x for x in e)]
        section = section @ u_inv.submatrix(range(k), range(len(lin_basis), k))
    return section, lineality


def _hilbert_by_completion(forms, d: int, level: Vec | None) -> list[Vec]:
    """Hilbert basis of the pointed full-dimensional cone ``{y : <f, y> >= 0
    for f in forms}``; with a ``level`` form, only its elements at level 0
    and 1.

    Pottier's completion (Pottier, ISSAC 1996; the dual mode of Normaliz,
    Bruns-Ichim 2010) adds one form at a time to the Hilbert basis of the
    cone cut so far.  The seed is the simplicial cone of ``d`` of the forms,
    level form first.  Its rows start as the pivot basis of one elimination
    among the forms; while putting another form in place of one row lowers
    ``|det|``, the exchange that lowers it most is made.  Its Hilbert basis
    is read as in the triangulation: the rays, plus the points of their
    half-open parallelepiped, less the reducible ones.  An element is kept
    as the tuple of its values on the forms, seed rows first, which add
    under sums and fix it.  With ``t >= 0`` for the level ``t`` among the
    rows, sums only raise ``t``, so every element and sum at ``t >= 2`` is
    dropped.
    """
    if d == 0:
        return []
    head = () if level is None else (level,)
    order = list(RationalCone(head + tuple(forms), d).generators)
    top = None if level is None else 1 // gcd(*level)
    _, _, basis = _gauss_jordan(list(zip(*order)), len(order))
    fixed = 0 if level is None else 1
    while True:
        det, adj = det_and_scaled_inverse(IntMatrix.from_rows([order[j] for j in basis], d))
        # putting f in place of basis form i gives the determinant (adj^T f)_i
        exchange = adj.transpose().apply
        swaps = [
            (abs(x), i, j)
            for j, f in enumerate(order) if j not in basis
            for i, x in enumerate(exchange(f)) if i >= fixed and 0 < abs(x) < abs(det)
        ]
        if not swaps:
            break
        _, i, j = min(swaps)
        basis[i] = j
    forms = [order[j] for j in basis] + [f for j, f in enumerate(order) if j not in basis]
    # the seed's rays are the columns of sign(det) adj; its Hilbert basis is
    # theirs and their parallelepiped's points, less the reducible ones, and
    # with |det| = 1 the rays are unimodular and the parallelepiped empty
    sign = 1 if det > 0 else -1
    seed = [primitive([sign * x for x in y]) for y in zip(*adj.rows)]
    if abs(det) > 1:
        seed += _parallelepiped_points(IntMatrix.from_columns(seed, d))
    values = [tuple([sum(map(mul, f, y)) for f in forms]) for y in seed]
    elements = _undominated([v for v in values if top is None or v[0] <= top], d)
    for j in range(d, len(forms)):
        elements = _add_form(elements, j, top)
    # the first d values are B y for the seed matrix B, and adj B = det I
    return [tuple(x // det for x in adj.apply(v[:d])) for v in elements]


def _add_form(elements: list[Vec], j: int, top: int | None) -> list[Vec]:
    """The basis of the cone cut so far by forms ``0..j-1``, as value tuples,
    cut by form ``j`` too; form 0 is the level when ``top`` bounds it.

    Each sum of a positive and a negative element on form ``j`` is kept
    unless an element reduces it: one whose values on forms ``0..j-1`` are
    no larger, and whose value on form ``j`` has the same sign or is zero
    and is no larger in absolute value.  Sums are tried in order of their
    norm, the sum of those absolute values, so reducers come first.
    """
    # reducers by sign on form j, as (|value on j|, values on 0..j-1)
    keys: dict[int, list[Vec]] = {1: [], -1: [], 0: []}
    sides: dict[int, list[Vec]] = {1: [], -1: [], 0: []}
    fresh: dict[int, list[Vec]] = {1: [], -1: []}

    def admit(v: Vec) -> None:
        side = (v[j] > 0) - (v[j] < 0)
        key = (abs(v[j]),) + v[:j]
        if any(all(map(le, w, key)) for w in keys[side]) or (
            side and any(all(map(le, w, key)) for w in keys[0])
        ):
            return
        keys[side].append(key)
        if side:
            fresh[side].append(v)
        else:
            sides[0].append(v)

    for v in elements:
        admit(v)
    while fresh[1] or fresh[-1]:
        pos, neg = fresh[1], fresh[-1]
        fresh[1], fresh[-1] = [], []
        sums = {tuple(map(add, p, n)) for p in pos for n in sides[-1] + neg}
        sums.update(tuple(map(add, p, n)) for p in sides[1] for n in neg)
        sides[1] += pos
        sides[-1] += neg
        if top is not None:
            sums = {s for s in sums if s[0] <= top}
        for s in sorted(sums, key=lambda s: sum(s[:j]) + abs(s[j])):
            admit(s)
    return _undominated(sides[1] + sides[0], j + 1)


def _undominated(values, length: int) -> list[Vec]:
    """The value tuples, nonnegative on their first ``length`` entries, that
    no other one is at most on all of those entries."""
    kept: list[Vec] = []
    keys: list[Vec] = []
    for v in sorted(values, key=lambda v: sum(v[:length])):
        key = v[:length]
        if not any(all(map(le, w, key)) for w in keys):
            kept.append(v)
            keys.append(key)
    return kept


def _lineality_coordinates(rows, d: int) -> tuple[IntMatrix, IntMatrix]:
    """The saturated lattice ``{x : <row, x> = 0 for every row}`` as the
    columns of ``lin``, and a unimodular ``u_inv`` whose first ``lin.cols``
    columns are a basis of it."""
    lin = integer_kernel(IntMatrix.from_rows(rows, d))
    return lin, unimodular_completion(lin)[1]


def split_lineality(poly: Polyhedron) -> tuple[Polyhedron, IntMatrix, IntMatrix]:
    """Factor out the lineality space of the polyhedron's recession cone.

    The polyhedron is invariant under translation along the common kernel of
    its row normals, so it is a product of that subspace with a quotient
    polyhedron whose recession cone is pointed.  Returns ``(quotient,
    section, lin)``: the quotient in the last ``dim - q`` coordinates of a
    unimodular basis, the ``dim x (dim - q)`` matrix of an integral section
    of the projection (it sends a quotient point into ``poly``), and the
    ``dim x q`` basis of the lineality lattice.
    """
    d = poly.dim
    lin, inverse = _lineality_coordinates([a for a, _ in poly.rows], d)
    q = lin.cols
    inverse_t = inverse.transpose()
    rows = []
    for a, c in poly.rows:
        transformed = inverse_t.apply(a)
        assert not any(transformed[:q]), "row must vanish on the lineality"
        rows.append((transformed[q:], c))
    # the section sends u_bar to inverse @ (0, ..., 0, u_bar)
    return Polyhedron(tuple(rows), d - q), inverse.submatrix(range(d), range(q, d)), lin


def _hilbert_pointed(cone: RationalCone, forms) -> list[Vec]:
    """Hilbert basis of a pointed, full-dimensional cone with facet normals
    ``forms``.

    One pulling triangulation covers the cone, so every irreducible element
    is a generator or a nonzero point of the half-open parallelepiped of a
    simplex (Bruns-Gubeladze 2009, 2.C), listed as an orbit of the group
    ``Z^d / G Z^d`` of the simplex matrix ``G`` by
    :func:`_parallelepiped_points` (Bruns-Ichim 2010).  :func:`_undominated`
    removes the reducible ones.
    """
    gens = cone.generators
    d = cone.dim
    # faces are generator bitmasks; a face's facets are its maximal proper face & mask
    facets = [sum(1 << j for j, g in enumerate(gens) if dot(u, g) == 0) for u in forms]
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
        candidates.update(
            _parallelepiped_points(IntMatrix.from_columns([gens[j] for j in simplex], d))
        )
    # v reduces by w iff v - w is in the cone, i.e. iff w's values on the
    # forms are at most v's; the forms span, so values separate points
    m = len(forms)
    values = [tuple(sum(map(mul, u, v)) for u in forms) + v for v in candidates]
    return [v[m:] for v in _undominated(values, m)]


def _parallelepiped_points(mat: IntMatrix) -> list[Vec]:
    """The nonzero lattice points of the half-open parallelepiped spanned by
    the columns of a nonsingular square matrix ``G``.

    ``x -> sign(det) adj(G) x mod |det|`` maps ``Z^d`` onto a group of
    ``|det|`` vectors ``mu`` with kernel ``G Z^d``, and the class of ``mu``
    holds the parallelepiped point ``G mu / |det|``.  The group is the orbit
    of ``0`` under the images of the unit vectors: each image ``g`` not yet
    in the orbit ``H`` adds the cosets ``H + k g`` until ``k g`` is in ``H``.
    """
    det, adj = det_and_scaled_inverse(mat)
    size = abs(det)
    sign = 1 if det > 0 else -1
    group = [(0,) * mat.cols]
    members = set(group)
    for column in zip(*adj.rows):
        if len(group) == size:
            break
        step = tuple(sign * x % size for x in column)
        shift = step
        cosets: list[Vec] = []
        while shift not in members:
            coset = [tuple([(a + b) % size for a, b in zip(mu, shift)]) for mu in group]
            cosets += coset
            members.update(coset)
            shift = tuple([(a + b) % size for a, b in zip(shift, step)])
        group += cosets
    return [tuple(sum(map(mul, row, mu)) // size for row in mat.rows) for mu in group[1:]]


# ---------------------------------------------------------------------------
# Half-space containment


def is_in_halfspace_extend(vectors, cone: RationalCone, normal: Vec) -> Vec | None:
    """Grow a half-space certificate over ``vectors``, or refute one.

    Requires ``cone`` to be full-dimensional and contained in the half-space
    of ``normal``.  Processes the vectors in order, normalized as the
    generators of a :class:`RationalCone`; each accepted vector is added to
    the cone.  Returns a normal ``u`` with ``<u, .> >= 0`` on the
    final cone, or ``None`` as soon as no containing half-space can exist.
    """
    if rational_rank(cone.generators) < cone.dim:
        raise ValueError("seed cone must be full-dimensional")
    current = list(cone.generators)
    u = normal
    for w in RationalCone(tuple(vectors), cone.dim).generators:
        if dot(u, w) >= 0:
            current.append(w)
            continue
        # <u, w> < 0: a half-space containing the enlarged cone must have w
        # on its boundary; look for one among the duals of cone + the line Rw
        neg = tuple(-x for x in w)
        witness = dual_cone(RationalCone(tuple(current + [w, neg]), cone.dim))
        if not witness.generators:
            return None
        u = witness.generators[0]
        current.append(w)
    return u


def rays_in_halfspace(vectors, dim: int) -> Vec | None:
    """Decide whether the vectors lie in a common closed half-space.

    Returns a nonzero integer normal pairing nonnegatively with every
    vector, or ``None`` when there is none.  ``dim`` is the ambient
    dimension (needed because the list may be empty).
    """
    if dim == 0:
        return None
    cleaned = RationalCone(tuple(vectors), dim).generators
    # the pivot columns of the vectors as columns are the greedy basis
    _, _, pivots = _gauss_jordan(list(zip(*cleaned)), len(cleaned))
    if len(pivots) < dim:
        return rational_kernel_basis(cleaned, dim)[0]
    base = [cleaned[j] for j in pivots]
    chosen = set(pivots)
    rest = [v for j, v in enumerate(cleaned) if j not in chosen]
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


def polytope_part(poly: Polyhedron) -> tuple[tuple[Vec, ...], HilbertBasis]:
    """Split ``poly`` into a finite lattice core plus its recession monoid.

    Returns ``(core_points, recession_hb)`` where every lattice
    point of ``poly`` is one of ``core_points`` plus a monoid combination of
    the recession cone's Hilbert basis, and — when the recession cone is
    trivial — ``core_points`` are exactly the lattice points of ``poly``.
    They are the elements at levels 1 and 0 of the Hilbert basis of the
    homogenized cone ``{(u, t) : <a, u> >= c t, t >= 0}``, and the completion
    of :func:`_monoid_basis` computes no other: with ``t >= 0`` in its seed,
    sums only raise ``t``, so it drops every element at ``t >= 2``.

    Raises :class:`EmptyPolyhedron` when the polyhedron has no real points,
    that is when no generator of the homogenized cone has ``t > 0``.
    """
    d = poly.dim
    level = (0,) * d + (1,)
    normals = RationalCone(tuple(a + (-c,) for a, c in poly.rows) + (level,), d + 1)
    cone = dual_cone(normals)
    if not any(g[-1] > 0 for g in cone.generators):
        raise EmptyPolyhedron(f"no solutions in dimension {poly.dim}")
    elements = _monoid_basis(cone.generators, normals.generators, d + 1, level)
    core = tuple(sorted(h[:-1] for h in elements if h[-1] == 1))
    level0 = tuple(sorted(h[:-1] for h in elements if h[-1] == 0))
    return core, HilbertBasis(level0)


def support_hull_rows(points, generators, normals, dim: int) -> Polyhedron:
    """An exact outer bound on ``conv(points) + zonotope(generators)``.

    For each primitive direction ``c`` among the unit vectors and the
    normals, and its negative, the row states ``<c, x> >= min_points <c, q>
    + sum_g min(0, <c, g>)`` — the exact support value of the sum, so the
    region contains it and is tight in every supplied direction.  The unit
    vectors make the region bounded.
    """
    pts = [tuple(q) for q in points]
    if not pts:
        raise EmptyPolyhedron("support hull of no points")
    gens = [tuple(g) for g in generators]
    pool = {primitive(tuple(c)) for c in normals}
    pool.update(tuple(int(i == j) for i in range(dim)) for j in range(dim))
    pool.update([tuple(-x for x in c) for c in pool])
    rows = [
        (c, min(dot(c, q) for q in pts) + sum(min(0, dot(c, g)) for g in gens))
        for c in sorted(pool) if any(c)
    ]
    return Polyhedron(tuple(rows), dim)

"""Independent brute-force references for cross-checking.

Nothing here touches cones, polytopes, or lattice algebra: the functions
enumerate bounded exponent boxes directly (splitting the box in half and
meeting in the middle where counting is all that's needed) and test monoid
membership by exhaustive descent.  They are deliberately slow-but-obvious
counterparts to the exact machinery, for use on small instances.

The exceptions are the brute-force routines that the library replaced, kept
as differential references: :func:`dual_cone_by_subsets`, the rational
subset enumeration behind the double-description dual;
:func:`find_representative_by_box`, the scan of every point of the search
box behind the Fourier-Motzkin representative search, ranked by the same
colex key;
:func:`prune_points`, the filter that thinned module generators down to the
lattice core of the polyhedron; :func:`hilbert_basis_by_subsets`, the
closed parallelepipeds of every nonsingular generator subset, listed by
Fourier-Motzkin, behind the triangulation Hilbert basis; and
:func:`special_matrix_by_scan`, the scan of every choice of block columns
behind the one Gauss-Jordan elimination that picks them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

from helpers import vsub

from glaurent.exactmat import (
    DimensionMismatch,
    IntMatrix,
    SingularMatrix,
    Vec,
    det_and_scaled_inverse,
    dot,
    rational_kernel_basis,
    solve_integer,
)
from glaurent.grading import (
    ActionSpec,
    DegreeVector,
    KernelData,
    Monomial,
    RepresentativeNotFound,
    _recentre,
    _stacked_matrix,
    associated_vectors,
    degree,
)
from glaurent.polycone import (
    Polyhedron,
    RationalCone,
    dual_cone,
    lattice_points,
)
from glaurent.positivity import BlockFormUnavailable, SpecialForm


def _ranges(spec: ActionSpec, bound: int) -> list[range]:
    # polynomial exponents live in [0, bound], Laurent ones in [-bound, bound]
    out = [range(0, bound + 1) for _ in range(spec.r)]
    out += [range(-bound, bound + 1) for _ in range(spec.s)]
    return out


def monomials_of_degree(spec: ActionSpec, a: DegreeVector, bound: int) -> list[Monomial]:
    """Every monomial of degree ``a`` in the exponent box, by direct scan."""
    found = []
    for exps in product(*_ranges(spec, bound)):
        if degree(spec, exps) == a:
            found.append(Monomial(exps))
    return sorted(found)


def _census(spec: ActionSpec, variables: list[int], bound: int) -> Counter:
    """Degree distribution over the box restricted to ``variables``."""
    ranges = _ranges(spec, bound)
    counts: Counter = Counter()
    cols = [spec.weights.col(j) for j in variables]
    for exps in product(*(ranges[j] for j in variables)):
        image = [0] * spec.m
        for x, col in zip(exps, cols):
            if x:
                for i in range(spec.m):
                    image[i] += x * col[i]
        key = tuple(image[: spec.p]) + tuple(
            image[spec.p + k] % spec.torsion[k] for k in range(spec.t)
        )
        counts[key] += 1
    return counts


def count_monomials_of_degree(spec: ActionSpec, a: DegreeVector, bound: int) -> int:
    """Number of monomials of degree ``a`` in the box, meeting in the middle."""
    half = spec.n // 2
    left = _census(spec, list(range(half)), bound)
    right = _census(spec, list(range(half, spec.n)), bound)
    target_free = a.free
    total = 0
    for key, cnt in left.items():
        free = tuple(t - x for t, x in zip(target_free, key[: spec.p]))
        tors = tuple(
            (a.torsion[k] - key[spec.p + k]) % spec.torsion[k]
            for k in range(spec.t)
        )
        total += cnt * right.get(free + tors, 0)
    return total


def has_nonconstant_invariant(spec: ActionSpec, bound: int) -> bool:
    """Whether some monomial other than 1 has degree zero, within the box."""
    zero = DegreeVector((0,) * spec.p, (0,) * spec.t, spec.torsion)
    return count_monomials_of_degree(spec, zero, bound) > 1


def nonneg_combination_checker(vectors, functional: Vec):
    """A test of whether a target is a nonnegative integer combination of
    ``vectors``, as a function of the target.

    ``functional`` must pair strictly positively with every vector; it makes
    the search finite by bounding each coefficient.  One memo serves every
    target: whether a remainder is reachable from a suffix of the vectors
    does not depend on the target it came from.
    """
    vecs = [tuple(v) for v in vectors]
    heights = [dot(functional, v) for v in vecs]
    if any(h <= 0 for h in heights):
        raise ValueError("functional must be positive on every vector")
    order = sorted(range(len(vecs)), key=lambda i: -heights[i])
    vecs = [vecs[i] for i in order]
    heights = [heights[i] for i in order]
    memo: dict[tuple[Vec, int], bool] = {}

    # budget is <functional, rem>, passed down rather than recomputed: the
    # pairing is linear, so subtracting c*v from rem subtracts c*h from it
    def descend(rem: Vec, budget: int, idx: int) -> bool:
        if budget < 0:
            return False
        if budget == 0:
            return not any(rem)
        if idx == len(vecs):
            return False
        key = (rem, idx)
        cached = memo.get(key)
        if cached is not None:
            return cached
        v, h = vecs[idx], heights[idx]
        found = False
        for c in range(budget // h + 1):
            if descend(tuple(x - c * y for x, y in zip(rem, v)), budget - c * h, idx + 1):
                found = True
                break
        memo[key] = found
        return found

    def member(target) -> bool:
        target = tuple(target)
        return descend(target, dot(functional, target), 0)

    return member


def is_nonneg_combination(target: Vec, vectors, functional: Vec) -> bool:
    """Whether ``target`` is a nonnegative integer combination of ``vectors``,
    with a memo of its own; see :func:`nonneg_combination_checker`."""
    return nonneg_combination_checker(vectors, functional)(target)


def minimal_generators(vectors, functional: Vec) -> tuple[Vec, ...]:
    """The vectors not expressible through the others, by exhaustive descent."""
    vecs = [tuple(v) for v in vectors]
    kept = []
    for i, v in enumerate(vecs):
        others = vecs[:i] + vecs[i + 1 :]
        if not others or not is_nonneg_combination(v, others, functional):
            kept.append(v)
    return tuple(kept)


def dual_cone_by_subsets(cone: RationalCone) -> RationalCone:
    """The dual cone, by trying every ``k-1`` subset of the generators.

    Each extreme ray of the pointed part is cut out by ``k-1`` generators
    together with the span constraints, ``k`` being the rank of the span;
    the lineality is both signs of a primitive basis of the orthogonal
    complement.
    """
    gens = cone.generators
    d = cone.dim
    lineality = rational_kernel_basis(gens, d)
    k = d - len(lineality)
    rays: set[Vec] = set()
    if k >= 1:
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


def _colex_key(v: Vec) -> Vec:
    return tuple(reversed(v))


def find_representative_by_box(
    spec: ActionSpec, kd: KernelData, a: DegreeVector, search_bound: int = 10
) -> Vec:
    """The representative of ``grading.find_representative``, by trying every
    one of the ``(2B+1)^l`` points of the search box."""
    candidates = representative_candidates_by_box(spec, kd, a, search_bound)
    if not candidates:
        raise RepresentativeNotFound(search_bound, conclusive=False)
    return min(candidates, key=_colex_key)


def representative_candidates_by_box(
    spec: ActionSpec, kd: KernelData, a: DegreeVector, search_bound: int = 10
) -> list[Vec]:
    """Every valid exponent vector ``phi0 + K z`` with ``z`` in the search box,
    in the box's order; raises as the representative search does when the
    degree is not attained at all."""
    if len(a.moduli) != spec.t or a.moduli != spec.torsion:
        raise DimensionMismatch("degree vector does not match the action's torsion")
    if len(a.free) != spec.p:
        raise DimensionMismatch("degree vector free part does not match the action")
    stacked = _stacked_matrix(spec)
    sol = solve_integer(stacked, a.lift())
    if sol is None:
        raise RepresentativeNotFound(search_bound, conclusive=True)
    phi0 = _recentre(kd, sol[: spec.n])
    candidates = []
    for z in _box(kd.l, search_bound):
        cand = tuple(
            phi0[i] + sum(kd.basis.rows[i][k] * z[k] for k in range(kd.l))
            for i in range(spec.n)
        )
        if all(cand[i] >= 0 for i in range(spec.r)):
            candidates.append(cand)
    return candidates


def _box(dim: int, bound: int):
    """All integer points of the centered box [-bound, bound]^dim."""
    if dim == 0:
        yield ()
        return
    for rest in _box(dim - 1, bound):
        for x in range(-bound, bound + 1):
            yield rest + (x,)


def prune_points(points, poly: Polyhedron, hb_elements) -> list[Vec]:
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


def hilbert_basis_by_subsets(cone: RationalCone) -> list[Vec]:
    """Hilbert basis of a pointed, full-dimensional cone, from the closed
    fundamental parallelepipeds of all nonsingular generator subsets.

    These cover every irreducible element; a greedy pass ordered by a
    functional positive on the cone then removes the reducible ones.
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
        for pt in lattice_points(box):
            if any(pt):
                candidates.add(pt)
    dual = dual_cone(cone).generators
    weight = [0] * d
    for u in dual:
        weight = [a + b for a, b in zip(weight, u)]
    weight_v = tuple(weight)
    ordered = sorted(candidates, key=lambda v: (dot(weight_v, v), v))
    kept: list[Vec] = []
    for v in ordered:
        reducible = False
        for w in kept:
            diff = vsub(v, w)
            if any(diff) and all(dot(u, diff) >= 0 for u in dual):
                reducible = True
                break
        if not reducible:
            kept.append(v)
    return kept


def special_matrix_by_scan(spec: ActionSpec) -> SpecialForm:
    """The block form of ``positivity.special_matrix``, trying each choice of
    ``max(0, p - s)`` polynomial columns in lexicographic order until the
    free-row block over them and the Laurent block is nonsingular."""
    associated_vectors(spec)  # faithfulness check
    p, r, s, n = spec.p, spec.r, spec.s, spec.n
    free = range(p)
    laurent = list(range(r + max(0, s - p), n))
    for chosen in combinations(range(r), max(0, p - s)):
        trailing = list(chosen) + laurent
        try:
            det, adj = det_and_scaled_inverse(spec.weights.submatrix(free, trailing))
        except SingularMatrix:
            continue
        sign = 1 if det > 0 else -1
        front = [j for j in range(n) if j not in trailing]
        l1 = IntMatrix.from_rows([[sign * x for x in row] for row in adj.rows], p)
        l1 = l1 @ spec.weights.submatrix(free, front)
        return SpecialForm(l1, abs(det), tuple(front + trailing))
    raise BlockFormUnavailable(
        "no nonsingular free-row block over any admissible column choice"
    )

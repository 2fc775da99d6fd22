"""Shared helpers for the test suite.

Everything here is deliberately independent of the library's polyhedral
machinery: cone membership is decided by a self-contained Fourier-Motzkin
elimination over ``Fraction``, box point sets are enumerated by a
meet-in-the-middle scan, and monoid factorizations are checked by bounded
search.  The helpers exist so that acceptance tests compare the library
against genuinely separate computations.  The ``Fraction`` references
are the straightforward rational routes that the library's integer
eliminations replaced (inverse, lattice reduction, row echelon form, rank
and kernel), and :func:`reference_special_matrix` is the full block-form
builder that ``special_matrix`` replaced, with the positivity decision read
off it; :func:`reference_parallelepiped_points` is the SNF group product
that listed the Hilbert basis parallelepipeds before their group orbits,
and :func:`reference_span_hilbert_basis` restricts a cone to its span by
one integer solve per generator, as ``hilbert_basis`` did before one Smith
normal form; :func:`reference_rays_in_halfspace` grows the greedy basis of
``rays_in_halfspace`` by one rank test per vector, as it did before one
elimination's pivot columns picked it; :func:`reference_support_hull_rows`
writes ``support_hull_rows`` as a sign-normalized pool with both signs added
back per direction, as before one pool closed under negation;
:func:`reference_smith_normal_form` writes each Smith normal form operation
once on ``s`` and once more on ``u`` or ``v``, as before one working matrix
carried all three; :func:`reference_lattice_points` reads every row at
every level of the descent, as before each level read only the rows that
bound its coordinate; :func:`reference_component` lists the lattice points
first and then maps each through ``K``, adding ``phi`` with ``vadd`` and
reducing it modulo the units with its own Gram factorization, as before
``lattice_images`` built the exponent vectors inside the descent;
:func:`reference_hilbert_by_completion` lowers the completion's seed to a
unimodular cone by putting lattice points of the dual cone in place of its
rows, as before the seed's Hilbert basis was read off its parallelepiped;
all are kept for differential tests.
The helpers at the end have no caller left in the library: the vector helpers,
the identity matrix, the determinant, the cone membership test, and
:func:`is_bounded`, the double-description boundedness test that the
component pipeline replaced by reading ``Unbounded`` off ``lattice_points``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import mul
from typing import Sequence

from glaurent import components
from glaurent.components import (
    ComponentDescription,
    FiniteBasis,
    ModuleGenerators,
    NotInQ,
    s0_generators,
)
from glaurent.exactmat import (
    DimensionMismatch,
    IntMatrix,
    Vec,
    _gauss_jordan,
    det_and_scaled_inverse,
    dot,
    integer_kernel,
    primitive,
    rational_kernel_basis,
    rational_rank,
    reduce_mod_lattice,
    smith_normal_form,
    solve_integer,
)
from glaurent.grading import (
    SEARCH_BOUND,
    ActionSpec,
    DegreeVector,
    Monomial,
    RepresentativeNotFound,
    associated_vectors,
    build_polytope,
    find_representative,
)
from glaurent.polycone import (
    Polyhedron,
    RationalCone,
    Unbounded,
    _add_form,
    _project_last,
    dual_basis_vectors,
    dual_cone,
    hilbert_basis,
    is_in_halfspace_extend,
    lattice_points,
    polytope_part,
    rays_in_halfspace,
    split_lineality,
    support_hull_rows,
)
from glaurent.positivity import BlockFormUnavailable, PositivityVerdict


# ---------------------------------------------------------------------------
# random instances


def random_spec(
    rng,
    max_n: int = 6,
    max_p: int = 2,
    max_t: int = 1,
    lo: int = -5,
    hi: int = 5,
    min_r: int = 1,
) -> ActionSpec:
    """A random faithful action with 1 <= m <= n, torsion orders in {2,3,4}."""
    while True:
        n = rng.randint(max(min_r, 1), max_n)
        r = rng.randint(min_r, n)
        s = n - r
        p = rng.randint(0, max_p)
        t = rng.randint(0, max_t)
        m = p + t
        if m == 0 or m > n:
            continue
        torsion = tuple(rng.choice([2, 3, 4]) for _ in range(t))
        rows = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(m)]
        weights = IntMatrix.from_rows(rows, n)
        if rational_rank(weights.rows) == m:
            return ActionSpec(r, s, p, torsion, weights)


def random_normals(rng, kind: str) -> RationalCone:
    """Seeded inequality normals in dimensions 1-4, entries in [-2, 2], each
    turned to be nonnegative on a random point ``c``.

    ``pointed`` normals span the space.  ``equalities`` add both signs of a
    normal orthogonal to ``c``, so the cone they cut is not full-dimensional.
    ``lineality`` normals are projected into a hyperplane first.  Half the
    ``trivial`` sets hold both signs of a basis, so they cut out only the
    origin, and half are empty, so they cut out the whole space.
    """
    d = rng.randint(1, 4)
    if kind == "trivial" and rng.random() < 0.5:
        return RationalCone((), d)
    while True:
        c = tuple(rng.randint(-2, 2) for _ in range(d))
        w = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(c) or not any(w):
            continue
        normals = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 3))]
        if kind == "lineality":
            # the component orthogonal to w
            normals = [tuple(dot(w, w) * x - dot(w, a) * y for x, y in zip(a, w)) for a in normals]
        normals = [a if dot(a, c) >= 0 else tuple(-x for x in a) for a in normals]
        if kind == "equalities":
            a = tuple(dot(c, c) * x - dot(c, w) * y for x, y in zip(w, c))
            normals += [a, tuple(-x for x in a)]
        if kind == "trivial":
            normals += [tuple(s * int(i == j) for i in range(d)) for j in range(d) for s in (1, -1)]
        cone = RationalCone(tuple(normals), d)
        rank = rational_rank(cone.generators) if cone.generators else 0
        if (rank < d) == (kind == "lineality"):
            return cone


def random_quotient(rng) -> Polyhedron:
    """The lineality quotient of the polytope of a seeded exponent vector of
    a seeded action: 1-2 weight rows with torsion and Laurent columns, ``n
    <= 5``, bounded or not."""
    spec = random_spec(rng, max_n=5, max_p=2, max_t=1, lo=-4, hi=4)
    phi = tuple(rng.randint(0, 3) for _ in range(spec.r))
    phi += tuple(rng.randint(-2, 2) for _ in range(spec.s))
    return split_lineality(build_polytope(associated_vectors(spec), phi))[0]


def homogenized_normals(poly: Polyhedron) -> tuple[RationalCone, Vec]:
    """The normals of ``{(u, t) : <a, u> >= c t, t >= 0}`` over the rows
    ``(a, c)`` of the polyhedron, and the level form ``t``."""
    level = (0,) * poly.dim + (1,)
    return RationalCone(tuple(a + (-c,) for a, c in poly.rows) + (level,), poly.dim + 1), level


# ---------------------------------------------------------------------------
# independent rational cone membership (Fourier-Motzkin over Fraction)


def membership_forms(gens, dim: int) -> list[tuple[Fraction, ...]]:
    """Linear forms f such that v is a nonnegative rational combination of
    ``gens`` iff <f, v> <= 0 for every returned form.

    The system "sum_j c_j g_j = v, c_j >= 0" is eliminated once, tracking the
    right-hand side symbolically as a linear form in v; each elimination step
    combines rows with positive multipliers, so feasibility for a concrete v
    is exactly "all final forms evaluate <= 0".
    """
    k = len(gens)
    # rows: (coeffs over c_1..c_k, form over v) meaning  sum_j a_j c_j >= <form, v>
    rows: list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = []
    for i in range(dim):
        coeffs = tuple(Fraction(g[i]) for g in gens)
        e_i = tuple(Fraction(int(j == i)) for j in range(dim))
        rows.append((coeffs, e_i))
        rows.append((tuple(-x for x in coeffs), tuple(-x for x in e_i)))
    for j in range(k):
        e_j = tuple(Fraction(int(jj == j)) for jj in range(k))
        rows.append((e_j, tuple(Fraction(0) for _ in range(dim))))
    for _ in range(k):
        keep, pos, neg = [], [], []
        for a, b in rows:
            if a[-1] == 0:
                keep.append((a[:-1], b))
            elif a[-1] > 0:
                pos.append((a, b))
            else:
                neg.append((a, b))
        new = set(keep)
        for ap, bp in pos:
            for an, bn in neg:
                alpha, beta = ap[-1], an[-1]
                coeffs = tuple(-beta * x + alpha * y for x, y in zip(ap[:-1], an[:-1]))
                form = tuple(-beta * x + alpha * y for x, y in zip(bp, bn))
                new.add((coeffs, form))
        rows = list(new)
    return [form for _, form in rows]


def forms_member(forms, v) -> bool:
    """Membership test against precomputed :func:`membership_forms` output."""
    return all(sum(f * x for f, x in zip(form, v)) <= 0 for form in forms)


def fm_member(gens, v) -> bool:
    """Is v a nonnegative rational combination of gens?  One-shot variant."""
    return forms_member(membership_forms(gens, len(v)), v)


# ---------------------------------------------------------------------------
# positive functionals and monoid factorization


def strictly_positive_functional(generators, dual_generators, dim: int):
    """An integer functional w with <w, g> > 0 for every generator.

    Tries the sum of the dual generators first (and verifies it); falls back
    to a growing box search.  Only meaningful for pointed cones.
    """
    if dual_generators:
        w = tuple(sum(col) for col in zip(*dual_generators))
        if all(dot(w, g) > 0 for g in generators):
            return w
    bound = 1
    while True:
        for cand in product(range(-bound, bound + 1), repeat=dim):
            if all(dot(cand, g) > 0 for g in generators):
                return cand
        bound += 1


def factors_through(u, hb_elements, lin_lattice, w) -> bool:
    """Is u = (nonnegative combination of the strict Hilbert-basis elements)
    + (lattice point of the lineality space)?

    ``w`` must vanish on the lineality and be strictly positive on the strict
    elements; ``lin_lattice`` is an IntMatrix whose columns span the lineality
    lattice, or None when the cone is pointed.
    """
    strict = [h for h in hb_elements if dot(w, h) > 0]

    def residual_ok(rem):
        if lin_lattice is None:
            return not any(rem)
        return solve_integer(lin_lattice, rem) is not None

    def descend(rem, idx):
        budget = dot(w, rem)
        if budget < 0:
            return False
        if idx == len(strict):
            return residual_ok(rem)
        h = strict[idx]
        hw = dot(w, h)
        for c in range(budget // hw + 1):
            if descend(tuple(x - c * y for x, y in zip(rem, h)), idx + 1):
                return True
        return False

    return descend(tuple(u), 0)


# ---------------------------------------------------------------------------
# meet-in-the-middle box scans for the kernel criterion


def constrained_box_points(exact_rows, mod_rows, moduli, n: int, bound: int):
    """Every λ in [-B, B]^n with <row, λ> = 0 for each exact row and
    <row, λ> ≡ 0 (mod d) for each (row, d) pair, as a set of tuples.

    Works by a meet-in-the-middle join: each half of the coordinates is
    scanned once, keyed by its contribution to every constraint, and
    complementary keys are paired.  Exhaustive over the box by construction.
    """
    h = n // 2

    def half_keys(coords):
        for values in product(range(-bound, bound + 1), repeat=len(coords)):
            exact = tuple(
                sum(row[j] * v for j, v in zip(coords, values)) for row in exact_rows
            )
            mods = tuple(
                sum(row[j] * v for j, v in zip(coords, values)) % d
                for row, d in zip(mod_rows, moduli)
            )
            yield values, exact, mods

    table: dict[tuple, list[tuple[int, ...]]] = {}
    for values, exact, mods in half_keys(range(h, n)):
        table.setdefault((exact, mods), []).append(values)
    out: set[tuple[int, ...]] = set()
    for values, exact, mods in half_keys(range(0, h)):
        want = (
            tuple(-x for x in exact),
            tuple((-x) % d for x, d in zip(mods, moduli)),
        )
        for tail in table.get(want, ()):
            out.add(values + tail)
    return out


def degree_zero_box_points(spec: ActionSpec, bound: int):
    """Every λ in [-B, B]^n of degree zero, straight from the weight rows."""
    rows = spec.weights.rows
    return constrained_box_points(
        rows[: spec.p], rows[spec.p :], spec.torsion, spec.n, bound
    )


def image_box_points(basis: IntMatrix, bound: int):
    """Every λ in [-B, B]^n lying in the column span of ``basis`` over ℤ.

    Membership is reduced to congruence constraints via a Smith factorization
    U·K·V = S that is *verified on the spot* (product identity, unimodularity,
    positive diagonal): λ = K z  ⟺  Uλ = S(V⁻¹z), and since V is a bijection
    of ℤ^l this says s_i | (Uλ)_i for i < l and (Uλ)_i = 0 for i >= l.  The
    constraints then feed the same meet-in-the-middle scan as the degree side.
    """
    n, l = basis.nrows, basis.cols
    if l == 0:
        return {(0,) * n}
    u, s, v = smith_normal_form(basis)
    assert (u @ basis) @ v == s, "Smith factorization identity"
    assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1, "unimodularity"
    diag = [s.rows[i][i] for i in range(l)]
    assert all(x > 0 for x in diag), "full column rank"
    assert all(
        s.rows[i][j] == 0 for i in range(n) for j in range(l) if i != j
    ), "diagonal shape"
    exact_rows = [u.rows[i] for i in range(l, n)]
    mod_rows = [u.rows[i] for i in range(l) if diag[i] > 1]
    moduli = [d for d in diag if d > 1]
    return constrained_box_points(exact_rows, mod_rows, moduli, n, bound)


# ---------------------------------------------------------------------------
# Fraction references for the integer elimination routines


def fraction_inverse(rows):
    """Inverse of a square matrix by Gauss-Jordan over ``Fraction``, or
    ``None`` when it is singular."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in rows[i]] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def fraction_reduce_mod_lattice(columns, v):
    """``v`` minus the lattice point ``sum_j floor(z_j + 1/2) * columns[j]``,
    where ``z`` solves the normal equations exactly over ``Fraction``."""
    gram = [[dot(ci, cj) for cj in columns] for ci in columns]
    inv = fraction_inverse(gram)
    rhs = [dot(ci, v) for ci in columns]
    z = [sum(a * b for a, b in zip(row, rhs)) for row in inv]
    shift = [(2 * x + 1) // 2 for x in z]
    return tuple(
        v[i] - sum(c[i] * x for c, x in zip(columns, shift)) for i in range(len(v))
    )


def fraction_rref(rows, dim: int):
    """Reduced row echelon form over ``Fraction``: ``(work, pivots)`` with a
    1 in column ``pivots[i]`` of row ``work[i]``; zero rows are dropped."""
    work = [list(map(Fraction, r)) for r in rows if any(r)]
    pivots: list[int] = []
    for col in range(dim):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        pv = work[rk][col]
        work[rk] = [x / pv for x in work[rk]]
        for i in range(len(work)):
            if i != rk and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
        pivots.append(col)
    return work, pivots


def fraction_rank(rows) -> int:
    """Rank over the rationals by :func:`fraction_rref`."""
    rows = list(rows)
    return len(fraction_rref(rows, len(rows[0]) if rows else 0)[1])


def fraction_primitive(v) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, keeping its sign."""
    fracs = [Fraction(x) for x in v]
    if not any(fracs):
        return (0,) * len(fracs)
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def fraction_kernel_basis(rows, dim: int) -> list[tuple[int, ...]]:
    """Kernel basis from :func:`fraction_rref`: free variables set to 1 in
    increasing column order, each vector made primitive."""
    work, pivots = fraction_rref(rows, dim)
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[free] = Fraction(1)
        for rix, pcol in enumerate(pivots):
            vec[pcol] = -work[rix][free]
        basis.append(fraction_primitive(tuple(vec)))
    return basis


# ---------------------------------------------------------------------------
# reference block form: the full product gamma @ weights @ delta


@dataclass(frozen=True)
class ReferenceSpecialForm:
    """``gamma * weights * delta`` equals ``[[l1, d*I], [l3, l4]]`` with the
    identity block scaled by ``d > 0`` sitting in the free rows over the
    last columns.  ``delta`` only permutes columns; Laurent columns stay in
    the trailing positions."""

    l1: IntMatrix
    l3: IntMatrix
    l4: IntMatrix
    d: int
    gamma: IntMatrix
    delta: IntMatrix

    @property
    def column_map(self) -> tuple[int, ...]:
        """For each position after permutation, the original column index."""
        out = []
        for k in range(self.delta.cols):
            col = self.delta.col(k)
            out.append(col.index(1))
        return tuple(out)


def reference_special_matrix(spec: ActionSpec) -> ReferenceSpecialForm:
    """The block form with torsion rows, permutation matrix and full product.

    Picks the same columns as ``positivity.special_matrix`` and asserts the
    identity block of the product.
    """
    associated_vectors(spec)  # faithfulness check
    p, t, r, s, n = spec.p, spec.t, spec.r, spec.s, spec.n
    l = n - p
    free_rows = list(range(p))
    laurent_cols = list(range(r, n))
    if p <= s:
        choices = [tuple()]
    else:
        choices = combinations(range(r), p - s)
    chosen: tuple[int, ...] | None = None
    block: IntMatrix | None = None
    for cand in choices:
        cols = list(cand) + laurent_cols if p > s else laurent_cols[s - p :]
        mat = spec.weights.submatrix(free_rows, cols)
        if p == 0 or rational_rank(mat.rows) == p:
            chosen = tuple(cand)
            block = mat
            break
    if block is None:
        raise BlockFormUnavailable(
            "no nonsingular free-row block over any admissible column choice"
        )
    if p == 0:
        d0 = 1
        gamma2 = IntMatrix.from_rows([], 0)
    else:
        d0, scaled = det_and_scaled_inverse(block)
        sign = 1 if d0 > 0 else -1
        gamma2 = IntMatrix.from_rows(
            [tuple(sign * x for x in row) for row in scaled.rows], p
        )
    d = abs(d0)
    gamma_rows = []
    for i in range(p):
        gamma_rows.append(tuple(gamma2.rows[i]) + (0,) * t)
    for k in range(t):
        row = [0] * (p + t)
        row[p + k] = spec.torsion[k]
        gamma_rows.append(tuple(row))
    gamma = IntMatrix.from_rows(gamma_rows, p + t)
    if p > s:
        trailing = list(chosen) + laurent_cols
    else:
        trailing = laurent_cols[s - p :] if p else []
    front = [j for j in range(n) if j not in set(trailing)]
    perm = front + trailing
    delta = IntMatrix.from_rows(
        [tuple(1 if perm[k] == i else 0 for k in range(n)) for i in range(n)], n
    )
    transformed = gamma @ (spec.weights @ delta)
    for i in range(p):
        for k in range(p):
            expected = d if i == k else 0
            assert transformed.rows[i][l + k] == expected, "block form violated"
    l1 = transformed.submatrix(list(range(p)), list(range(l)))
    l3 = transformed.submatrix(list(range(p, p + t)), list(range(l)))
    l4 = transformed.submatrix(list(range(p, p + t)), list(range(l, n)))
    return ReferenceSpecialForm(l1, l3, l4, d, gamma, delta)


# ---------------------------------------------------------------------------
# reference parallelepiped listing: the SNF group product


def reference_parallelepiped_points(mat: IntMatrix) -> set[tuple[int, ...]]:
    """The nonzero points of the half-open parallelepiped of ``mat``'s columns,
    listed as the group ``Z^d / G Z^d`` from the SNF of ``G``.

    ``u @ mat @ v = s``: the classes ``x = u^-1 c``, ``0 <= c_i < s_ii``,
    give the points ``mat @ mu / |det|`` with ``mu = sign(det) adj x mod
    |det|``.
    """
    d = mat.cols
    det, adj = det_and_scaled_inverse(mat)
    size = abs(det)
    points: set[tuple[int, ...]] = set()
    if size == 1:
        return points
    u, s, _ = smith_normal_form(mat)
    det_u, adj_u = det_and_scaled_inverse(u)
    to_mu = adj @ adj_u
    scale = det_u if det > 0 else -det_u  # u^-1 = det(u) adj(u)
    for c in product(*(range(s.rows[i][i]) for i in range(d))):
        mu = [scale * x % size for x in to_mu.apply(c)]
        if any(mu):
            points.add(tuple(dot(row, mu) // size for row in mat.rows))
    return points


def reference_span_hilbert_basis(cone: RationalCone) -> tuple[tuple[int, ...], ...]:
    """``hilbert_basis`` of a cone that is not full-dimensional, with the
    generators moved into the saturated lattice of their span by one
    ``solve_integer`` per generator, before one Smith normal form gave every
    coordinate."""
    gens, d = cone.generators, cone.dim
    lattice = integer_kernel(IntMatrix.from_rows(rational_kernel_basis(gens, d), d))
    coords = []
    for g in gens:
        shrunk = solve_integer(lattice, g)
        assert shrunk is not None
        coords.append(shrunk)
    inner = hilbert_basis(RationalCone(tuple(coords), lattice.cols))
    return tuple(sorted(lattice.apply(h) for h in inner.elements))


def reference_rays_in_halfspace(vectors, dim: int):
    """``rays_in_halfspace`` with the greedy basis grown by one rank test per
    vector, as before one elimination's pivot columns picked it."""
    if dim == 0:
        return None
    cleaned = [primitive(tuple(v)) for v in vectors]
    cleaned = [v for v in cleaned if any(v)]
    if rational_rank(cleaned) < dim:
        return rational_kernel_basis(cleaned, dim)[0]
    base: list[tuple[int, ...]] = []
    rest: list[tuple[int, ...]] = []
    for v in cleaned:
        if len(base) < dim and rational_rank(base + [v]) > len(base):
            base.append(v)
        else:
            rest.append(v)
    seed = dual_basis_vectors(base, dim)[0]
    return is_in_halfspace_extend(rest, RationalCone(tuple(base), dim), seed)


def reference_support_hull_rows(points, generators, normals, dim: int) -> Polyhedron:
    """``support_hull_rows`` with each direction turned to a positive first
    nonzero entry and both signs written per pooled direction, as before one
    pool closed under negation."""
    pts = [tuple(q) for q in points]
    gens = [tuple(g) for g in generators]
    pool: set[tuple[int, ...]] = set()
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


# ---------------------------------------------------------------------------
# reference Smith normal form: each operation mirrored on u or v by hand


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _add_row(m: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        row_s = m[src]
        row_d = m[dst]
        for k in range(len(row_d)):
            row_d[k] += factor * row_s[k]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_col(m: list[list[int]], dst: int, src: int, factor: int) -> None:
    if factor:
        for row in m:
            row[dst] += factor * row[src]


def reference_smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(u, s, v)`` with ``u @ a @ v == s`` diagonal.

    The diagonal of ``s`` is nonnegative and each entry divides the next.
    Pivots are chosen as the smallest-magnitude nonzero entry of the working
    submatrix (ties broken by lowest row, then column), which keeps
    intermediate entries small without any randomness.
    """
    m, n = a.nrows, a.cols
    s = [list(row) for row in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        # locate pivot: min |entry|, ties at lowest (row, col)
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            _swap_rows(s, t, pi)
            _swap_rows(u, t, pi)
        if pj != t:
            _swap_cols(s, t, pj)
            _swap_cols(v, t, pj)

        while True:
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    _add_row(s, i, t, -q)
                    _add_row(u, i, t, -q)
            rem = [i for i in range(t + 1, m) if s[i][t]]
            if rem:
                i = min(rem, key=lambda k: (abs(s[k][t]), k))
                _swap_rows(s, t, i)
                _swap_rows(u, t, i)
                continue
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    _add_col(s, j, t, -q)
                    _add_col(v, j, t, -q)
            rem = [j for j in range(t + 1, n) if s[t][j]]
            if rem:
                j = min(rem, key=lambda k: (abs(s[t][k]), k))
                _swap_cols(s, t, j)
                _swap_cols(v, t, j)
                continue
            # row and column are clear; enforce divisibility of the rest
            d = s[t][t]
            witness = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % d:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            # pull the offending row up so the pivot step can shrink d
            _add_row(s, t, witness, 1)
            _add_row(u, t, witness, 1)
        t += 1

    for i in range(min(m, n)):
        if s[i][i] < 0:
            for k in range(n):
                s[i][k] = -s[i][k]
            for k in range(m):
                u[i][k] = -u[i][k]

    return (
        IntMatrix.from_rows(u, m),
        IntMatrix.from_rows(s, n),
        IntMatrix.from_rows(v, n),
    )


# ---------------------------------------------------------------------------
# reference lattice points: every row read at every level


def reference_lattice_points(poly: Polyhedron) -> list[tuple[int, ...]]:
    """``lattice_points`` as it was before ``lattice_images``: the descent
    reads every row of a level, and returns when a row whose last
    coefficient is 0 fails."""
    systems = [sorted(set(poly.rows))]
    for _ in range(poly.dim):
        systems.append(_project_last(systems[-1]))
    systems.reverse()
    if any(c > 0 for _, c in systems[0]):
        return []
    found: list[tuple[int, ...]] = []

    def descend(prefix: tuple[int, ...]) -> None:
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
# reference component: lattice points first, then one product per point


def reference_component(
    spec: ActionSpec,
    a: DegreeVector,
    search_bound: int = SEARCH_BOUND,
) -> ComponentDescription:
    """Describe the graded component of degree ``a``.

    Finds a canonical exponent vector of degree ``a`` (or reports
    :class:`NotInQ`), then returns a :class:`FiniteBasis` when the component
    is finite dimensional and :class:`ModuleGenerators` otherwise.

    The module generators are the lattice points of the polyhedron with its
    lineality (the degree-zero units) split off, if that quotient is
    bounded.  Otherwise they are cut from a region around the lattice core
    of :func:`polytope_part` plus the zonotope of the recession Hilbert
    basis, clipped to the quotient; the core alone is the minimal set.
    """
    kd = associated_vectors(spec)
    try:
        phi = find_representative(spec, kd, a, search_bound)
    except RepresentativeNotFound as exc:
        return ComponentDescription(a, None, NotInQ(exc.bound, exc.conclusive))
    poly = build_polytope(kd, phi)
    try:
        points = lattice_points(poly)
    except Unbounded:
        pass
    else:
        # sorting the exponent tuples before wrapping them spares a Python
        # level Monomial.__lt__ call per comparison; the order is the same
        exponents = sorted((vadd(phi, kd.basis.apply(u)) for u in points), reverse=True)
        return ComponentDescription(a, phi, FiniteBasis(tuple(map(Monomial, exponents))))
    quotient, section, lin = split_lineality(poly)
    try:
        points = lattice_points(quotient)
    except Unbounded:
        core, recession_hb = polytope_part(quotient)
        normals = [row for row, _ in quotient.rows]
        region = support_hull_rows(core, recession_hb.elements, normals, quotient.dim)
        points = lattice_points(Polyhedron(quotient.rows + region.rows, quotient.dim))
    # lift through the zero section, then reduce each exponent vector
    # modulo the unit lattice; the result depends only on the component,
    # not on the representative
    lift = kd.basis @ section
    units = kd.basis @ lin
    seen: set[Vec] = set()
    for u_bar in points:
        g = vadd(phi, lift.apply(u_bar))
        seen.add(reduce_mod_lattice(units, g))
    sa = tuple(map(Monomial, sorted(seen, reverse=True)))
    return ComponentDescription(a, phi, ModuleGenerators(s0_generators(spec), sa))


def inject_representative(monkeypatch, phi: Vec) -> None:
    """Make ``component`` and ``component_dimension`` take ``phi`` as the
    representative of the degree they are asked, with the listing that
    ``find_representative`` itself fills: the exponent vectors of a degree
    do not depend on the representative."""

    def injected(*args, **kwargs):
        find_representative(*args, **kwargs)
        return phi

    monkeypatch.setattr(components, "find_representative", injected)


# ---------------------------------------------------------------------------
# reference completion: a unimodular seed reached by lattice points


def reference_hilbert_by_completion(forms, d: int, level: Vec | None) -> list[Vec]:
    """Hilbert basis of the pointed full-dimensional cone ``{y : <f, y> >= 0
    for f in forms}``; with a ``level`` form, only its elements at level 0
    and 1.

    Pottier's completion (Pottier, ISSAC 1996; the dual mode of Normaliz,
    Bruns-Ichim 2010) adds one form at a time to the Hilbert basis of the
    cone cut so far.  The seed is a unimodular cone containing the cone,
    level form first, so its basis is its rays.  Its rows start as the pivot basis
    of one elimination among the forms; while putting another form in place
    of one row lowers ``|det|``, the exchange that lowers it most is made.
    Then each step puts in place of a row the lattice point of the rows'
    cone, which lies in the dual cone, that lowers ``|det|`` most, down to
    1.  An element is kept as the tuple of its values on the rows and
    forms, which add under sums and fix it.  With ``t >= 0`` for the level
    ``t`` among the rows, sums only raise ``t``, so every element and sum at
    ``t >= 2`` is dropped.
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
    rows = [order[j] for j in basis]
    while abs(det) > 1:
        # e_k = sum c_i rows_i with c = row k of adj / det; its class mod the
        # rows' lattice is the point sum frac(c_i) rows_i of the dual cone,
        # and it replaces row i with determinant det frac(c_i)
        size = abs(det)
        sign = 1 if det > 0 else -1
        _, k, i = min(
            (sign * adj.rows[k][i] % size, k, i)
            for k in range(d) for i in range(fixed, d) if sign * adj.rows[k][i] % size
        )
        frac = [sign * x % size for x in adj.rows[k]]
        rows[i] = tuple(sum(map(mul, frac, col)) // size for col in zip(*rows))
        det, adj = det_and_scaled_inverse(IntMatrix.from_rows(rows, d))
    chosen = set(rows)
    forms = rows + [f for f in order if f not in chosen]
    # the rows' dual basis, the columns of det adj, is the seed's Hilbert basis
    elements = [
        tuple([det * sum(map(mul, f, y)) for f in forms]) for y in zip(*adj.rows)
    ]
    if top is not None:
        elements = [v for v in elements if v[0] <= top]
    for j in range(d, len(forms)):
        elements = _add_form(elements, j, top)
    # the first d values are B y for the seed matrix B, and adj B = det I
    # with det = +-1
    return [tuple(det * x for x in adj.apply(v[:d])) for v in elements]


# ---------------------------------------------------------------------------
# helpers with no caller left in the library


def vadd(u: Sequence, v: Sequence) -> tuple:
    if len(u) != len(v):
        raise DimensionMismatch("sum of vectors of different lengths")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v: Sequence) -> tuple:
    return tuple(c * x for x in v)


def identity(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    assert a.nrows == a.cols
    sign, last, pivots = _gauss_jordan([list(row) for row in a.rows], a.cols)
    return sign * last if len(pivots) == a.cols else 0


def cone_contains(cone: RationalCone, v) -> bool:
    """Exact membership test, via the cached dual description."""
    return all(dot(u, v) >= 0 for u in dual_cone(cone).generators)


def is_bounded(poly: Polyhedron) -> bool:
    """Whether the polyhedron is bounded (its recession cone is trivial)."""
    recession = RationalCone(tuple(a for a, _ in poly.rows), poly.dim)
    return not dual_cone(recession).generators


def reference_positivity_test(spec: ActionSpec) -> PositivityVerdict:
    """The positivity decision read off :func:`reference_special_matrix`
    through its ``column_map``, with the sign chain indexed as ``l + k``."""
    kd = associated_vectors(spec)
    if kd.l == 0:
        return PositivityVerdict(True)
    if spec.p <= spec.s:
        return PositivityVerdict(False, failed_condition="p>s")
    if spec.s > 0:
        laurent = [spec.weights.col(j) for j in range(spec.r, spec.n)]
        if rational_rank(laurent) < spec.s:
            return PositivityVerdict(False, failed_condition="independent Laurent weights")
    try:
        form = reference_special_matrix(spec)
    except BlockFormUnavailable:
        outcome = rays_in_halfspace(kd.rays, kd.l)
        if outcome is None:
            return PositivityVerdict(True)
        return PositivityVerdict(False, halfspace_normal=outcome)
    perm = form.column_map
    rays = [kd.basis.rows[perm[j]] for j in range(spec.n)]
    l = spec.n - spec.p
    sets: list[frozenset[int]] = []
    covered: set[int] = set()
    untouched = set(range(l))
    current: frozenset[int] = frozenset()
    for k in range(spec.p - spec.s):
        row = form.l1.rows[k]
        plus = {i for i in range(l) if row[i] < 0}
        minus = {i for i in range(l) if row[i] > 0}
        current = frozenset(plus) if k == 0 else current | (untouched & plus)
        sets.append(current)
        covered |= plus | minus
        untouched -= plus | minus
        if len(covered) == l:
            break
    if len(covered) < l:
        normal = dual_basis_vectors(rays, l)[min(set(range(l)) - covered)]
        return PositivityVerdict(False, halfspace_normal=normal)
    if not sets[-1]:
        return PositivityVerdict(True)
    first = next(k for k, s in enumerate(sets) if s)
    normal = dual_basis_vectors(rays, l)[min(sets[first])]
    seed = RationalCone(tuple(rays[: l + first + 1]), l)
    outcome = is_in_halfspace_extend(rays[l + first + 1 : spec.r], seed, normal)
    if outcome is None:
        return PositivityVerdict(True)
    flips = tuple(sorted(perm[i] for i in sets[-1]))
    return PositivityVerdict(False, halfspace_normal=outcome, flip_set=flips)

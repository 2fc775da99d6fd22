"""Shared helpers for the test suite.

Everything here is deliberately independent of the library's polyhedral
machinery: cone membership is decided by a self-contained Fourier-Motzkin
elimination over ``Fraction``, box point sets are enumerated by a
meet-in-the-middle scan, and monoid factorizations are checked by bounded
search.  The helpers exist so that acceptance tests compare the library
against genuinely separate computations.  The ``Fraction`` references at the
end are the straightforward rational routes that the library's integer
eliminations replaced (inverse, lattice reduction, row echelon form, rank
and kernel), kept for differential tests.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from glaurent.exactmat import (
    IntMatrix,
    determinant,
    dot,
    rational_rank,
    smith_normal_form,
    solve_integer,
)
from glaurent.grading import ActionSpec


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

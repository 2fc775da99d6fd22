"""Exact arithmetic the benchmark uses to build and check instances.

It is written apart from glaurent on purpose: the generator's faithfulness
check and the checker's invariants must not trust the code they measure.
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows) -> int:
    """Rank over the rationals of a list of integer rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    rk = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        for i in range(rk + 1, len(work)):
            f = work[i][col] / work[rk][col]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
        rk += 1
    return rk


def degree(weights, torsion, exponents) -> tuple[int, ...]:
    """Degree of a monomial: free entries, then residues modulo ``torsion``."""
    image = [sum(w * e for w, e in zip(row, exponents)) for row in weights]
    p = len(weights) - len(torsion)
    return tuple(image[:p]) + tuple(x % d for x, d in zip(image[p:], torsion))


def nonneg_feasible(columns, target) -> bool:
    """Whether ``sum_i x_i * columns[i] == target`` has a solution ``x >= 0``.

    Phase one of the simplex method with Bland's rule, in exact fractions.
    """
    m, k = len(target), len(columns)
    tab = []
    for i in range(m):
        sign = -1 if target[i] < 0 else 1
        row = [Fraction(sign * c[i]) for c in columns]
        row += [Fraction(int(j == i)) for j in range(m)]
        row.append(Fraction(sign * target[i]))
        tab.append(row)
    basis = [k + i for i in range(m)]
    obj = [-sum(tab[i][j] for i in range(m)) for j in range(k + m + 1)]
    for i in range(m):
        obj[k + i] = Fraction(0)
    while True:
        enter = next((j for j in range(k + m) if obj[j] < 0), None)
        if enter is None:
            return obj[-1] == 0
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                key = (tab[i][-1] / tab[i][enter], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:  # unbounded direction cannot occur in phase one
            raise ArithmeticError("phase-one objective unbounded")
        r = best[1]
        piv = tab[r][enter]
        tab[r] = [x / piv for x in tab[r]]
        for row in tab + [obj]:
            if row is not tab[r] and row[enter]:
                f = row[enter]
                row[:] = [x - f * y for x, y in zip(row, tab[r])]
        basis[r] = enter


def positively_spanning(vectors, dim: int) -> bool:
    """Whether the vectors lie in no closed half-space of ``Q^dim``.

    True exactly when they span and some strictly positive combination of
    them is zero; scaling the coefficients to be at least 1 turns the second
    condition into a feasibility problem in ``x = lambda - 1 >= 0``.
    """
    vectors = [tuple(v) for v in vectors]
    if dim == 0:
        return True
    if rank(vectors) < dim:
        return False
    target = [-sum(v[i] for v in vectors) for i in range(dim)]
    return nonneg_feasible(vectors, target)


def zero_sum_generators(weights, limit: int | None = None) -> list[tuple[int, ...]]:
    """Minimal nonzero ``x >= 0`` with ``sum(w * x) == 0``, for nonzero weights.

    These generate the degree-zero monoid of a one-row torsion-free grading.
    A minimal solution's positive-weight entries sum to at most the largest
    negative weight's size, and vice versa, which bounds the enumeration.
    With ``limit``, stops after ``limit + 1`` generators.
    """
    if not all(weights):
        raise ValueError("weights must be nonzero")
    pos = [i for i, w in enumerate(weights) if w > 0]
    neg = [i for i, w in enumerate(weights) if w < 0]
    if not pos or not neg:
        return []

    def sums(idx, budget):
        sizes = [abs(weights[i]) for i in idx]
        by_value: dict[int, list[tuple[int, ...]]] = {}

        def walk(prefix, left, value):
            if len(prefix) == len(idx):
                by_value.setdefault(value, []).append(prefix)
                return
            size = sizes[len(prefix)]
            for x in range(left + 1):
                walk(prefix + (x,), left - x, value + size * x)

        walk((), budget, 0)
        return by_value

    left = sums(pos, max(-weights[i] for i in neg))
    right = sums(neg, max(weights[i] for i in pos))
    solutions = []
    for value, xs in left.items():
        for y in right.get(value, ()) if value else ():
            for x in xs:
                sol = [0] * len(weights)
                for i, e in zip(pos, x):
                    sol[i] = e
                for i, e in zip(neg, y):
                    sol[i] = e
                solutions.append(tuple(sol))
    solutions.sort(key=lambda v: (sum(v), v))
    minimal: list[tuple[int, ...]] = []
    for v in solutions:
        if not any(all(a <= b for a, b in zip(m, v)) for m in minimal):
            minimal.append(v)
            if limit is not None and len(minimal) > limit:
                break
    return minimal

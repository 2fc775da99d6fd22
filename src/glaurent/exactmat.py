"""Exact integer and rational linear algebra.

Everything here is deterministic and exact: integer matrices are immutable
tuples-of-tuples, all arithmetic is on ``int``, and neither fractions nor
floating point ever appear.  The centrepiece is :func:`smith_normal_form`,
which drives integer kernels, integer linear solving and lattice completion;
it eliminates on one working matrix that carries both unimodular transforms,
as :func:`det_and_scaled_inverse` carries its adjugate in ``[a | I]``.
One fraction-free Gauss-Jordan elimination gives everything else:
determinants and adjugates, rational ranks and kernels, and the pivot
columns that pick a basis among given vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Callable, Iterable, Sequence

Vec = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrix(ValueError):
    """A square matrix that was required to be invertible is not."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.

    ``rows`` is a tuple of row tuples; ``cols`` is kept explicitly so that
    matrices with zero rows still know their width.  Every entry must be an
    ``int``: the constructor refuses anything else with :class:`TypeError`.
    """

    rows: tuple[Vec, ...]
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(int_vector, self.rows)))
        for row in self.rows:
            if len(row) != self.cols:
                raise DimensionMismatch(
                    f"row of length {len(row)} in a {self.cols}-column matrix"
                )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if cols is None:
            if not rows:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        if nrows is None:
            if not columns:
                raise DimensionMismatch("empty matrix needs an explicit row count")
            nrows = len(columns[0])
        for c in columns:
            if len(c) != nrows:
                raise DimensionMismatch("ragged columns")
        rows = tuple(tuple(c[i] for c in columns) for i in range(nrows))
        return cls(rows, len(columns))

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(self.col(j) for j in range(self.cols)), self.nrows)

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(self.rows[i][j] for j in col_indices) for i in row_indices),
            len(col_indices),
        )

    def apply(self, v: Sequence[int]) -> Vec:
        """Matrix-vector product ``self @ v``."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector of length {len(v)} for {self.cols} columns")
        return tuple(sum(map(mul, r, v)) for r in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.cols} @ {other.nrows}x{other.cols}")
        ocols = [other.col(j) for j in range(other.cols)]
        return IntMatrix(
            tuple(
                tuple(sum(map(mul, row, c)) for c in ocols)
                for row in self.rows
            ),
            other.cols,
        )


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return unimodular ``(u, s, v)`` with ``u @ a @ v == s`` diagonal.

    The diagonal of ``s`` is nonnegative and each entry divides the next.
    Pivots are chosen as the smallest-magnitude nonzero entry of the working
    submatrix (ties broken by lowest row, then column), which keeps
    intermediate entries small without any randomness.  The elimination runs
    on one working matrix ``[[a, I_m], [I_n, 0]]``: a row operation on its
    first ``m`` rows acts on ``s`` and ``u`` at once, a column operation on
    its first ``n`` columns on ``s`` and ``v``, and the three are its blocks.
    """
    m, n = a.nrows, a.cols
    w = [[*row, *[0] * m] for row in a.rows] + [[0] * (n + m) for _ in range(n)]
    for i in range(m):
        w[i][n + i] = 1
    for j in range(n):
        w[m + j][j] = 1

    t = 0
    while t < min(m, n):
        # locate pivot: min |entry|, ties at lowest (row, col)
        best = None
        for i in range(t, m):
            row = w[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    key = (abs(x), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, pi, pj = best
        w[t], w[pi] = w[pi], w[t]
        for row in w:
            row[t], row[pj] = row[pj], row[t]

        while True:
            for i in range(t + 1, m):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
            rem = [i for i in range(t + 1, m) if w[i][t]]
            if rem:
                i = min(rem, key=lambda k: (abs(w[k][t]), k))
                w[t], w[i] = w[i], w[t]
                continue
            for j in range(t + 1, n):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        row[j] -= q * row[t]
            rem = [j for j in range(t + 1, n) if w[t][j]]
            if rem:
                j = min(rem, key=lambda k: (abs(w[t][k]), k))
                for row in w:
                    row[t], row[j] = row[j], row[t]
                continue
            # row and column are clear; enforce divisibility of the rest
            d = w[t][t]
            witness = next((i for i in range(t + 1, m) for x in w[i][t + 1 : n] if x % d), None)
            if witness is None:
                break
            # pull the offending row up so the pivot step can shrink d
            w[t] = [x + y for x, y in zip(w[t], w[witness])]
        t += 1

    for i in range(min(m, n)):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]

    return (
        IntMatrix.from_rows([row[n:] for row in w[:m]], m),
        IntMatrix.from_rows([row[:n] for row in w[:m]], n),
        IntMatrix.from_rows([row[:n] for row in w[m:]], n),
    )


def _gauss_jordan(m: list[Sequence[int]], ncols: int) -> tuple[int, int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of the rows ``m``, in place,
    pivoting on the first ``ncols`` columns in order and skipping dependent ones.

    Returns ``(sign, last, pivots)``: with ``B`` the input's pivot columns,
    ``det(B) = sign * last`` and ``m`` ends as ``last * B^-1 @ input``: pivot
    row ``i`` is ``last`` times row ``i`` of the rational reduced echelon
    form, and the rows after them vanish on the first ``ncols`` columns.  So
    the pivots give ranks and the first independent columns.  Every division
    is exact (Bareiss, Math. Comp. 22, 1968): each entry is, up to sign, a
    minor of the input.  A row with 0 in the pivot column is left alone when
    the pivot equals the previous one, as its update is then the identity.
    """
    sign = 1
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row_k = m[k]
        pk = row_k[col]
        for i in range(len(m)):
            f = m[i][col]
            if i != k and (f or pk != prev):
                m[i] = [(pk * x - f * y) // prev for x, y in zip(m[i], row_k)]
        prev = pk
        pivots.append(col)
    return sign, prev, pivots


def det_and_scaled_inverse(a: IntMatrix) -> tuple[int, IntMatrix]:
    """Return ``(d, b)`` with ``d = det(a)`` and ``b @ a == d * identity``.

    ``b`` is the adjugate of ``a``; its entries are always integers.  It is
    read off the right block of ``[a | I]`` after :func:`_gauss_jordan`.
    Raises :class:`SingularMatrix` when ``d == 0``.
    """
    if a.nrows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.nrows
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.rows)]
    sign, last, pivots = _gauss_jordan(m, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix has determinant 0")
    return sign * last, IntMatrix.from_rows([[sign * x for x in row[n:]] for row in m], n)


def unimodular_completion(lattice: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return unimodular ``(u, u_inv)`` with ``u @ lattice`` zero below row ``q``.

    ``lattice`` holds ``q`` independent columns spanning a saturated
    sublattice, so ``u`` moves it onto the first ``q`` coordinates and the
    first ``q`` columns of ``u_inv`` are a basis of it.
    """
    u, s, _ = smith_normal_form(lattice)
    assert all(s.rows[i][i] == 1 for i in range(lattice.cols)), "lattice saturated"
    d, adj = det_and_scaled_inverse(u)
    return u, IntMatrix.from_rows([[d * x for x in row] for row in adj.rows], u.cols)


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of ``{x : a @ x == 0}`` as the columns of the result.

    The basis is saturated: every integer kernel vector is an integer
    combination of the columns.
    """
    return _smith_kernel(smith_normal_form(a))


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Vec | None:
    """One integer solution of ``a @ x == b``, or ``None`` if there is none."""
    if len(b) != a.nrows:
        raise DimensionMismatch("right-hand side length does not match row count")
    return _smith_solve(smith_normal_form(a), b)


def _smith_kernel(snf: tuple[IntMatrix, IntMatrix, IntMatrix]) -> IntMatrix:
    """:func:`integer_kernel` of ``a``, read off its Smith normal form."""
    _, s, v = snf
    r = sum(1 for i in range(min(s.nrows, s.cols)) if s.rows[i][i])
    return IntMatrix.from_columns([v.col(j) for j in range(r, s.cols)], s.cols)


def _smith_solve(snf: tuple[IntMatrix, IntMatrix, IntMatrix], b: Sequence[int]) -> Vec | None:
    """:func:`solve_integer` for ``a``, read off its Smith normal form."""
    u, s, v = snf
    c = u.apply(int_vector(b))
    n = s.cols
    y = [0] * n
    for i in range(s.nrows):
        si = s.rows[i][i] if i < n else 0
        if si:
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    return v.apply(tuple(y))


# ---------------------------------------------------------------------------
# ranks and kernels over the rationals


def rational_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals."""
    m = list(rows)
    return len(_gauss_jordan(m, len(m[0]) if m else 0)[2])


def rational_kernel_basis(rows: Iterable[Sequence[int]], dim: int) -> list[Vec]:
    """Primitive integer vectors spanning ``{x : row . x == 0 for all rows}``.

    The output is deterministic: reduced row echelon form with free variables
    set to 1 in increasing column order, each vector scaled to be integral and
    primitive.  :func:`_gauss_jordan` leaves ``last`` times the reduced rows,
    so the free entry ``|last|`` makes every coordinate an integer.
    """
    m = list(rows)
    _, last, pivots = _gauss_jordan(m, dim)
    sign = 1 if last > 0 else -1
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [0] * dim
        vec[free] = abs(last)
        for row, p in zip(m, pivots):
            vec[p] = -sign * row[free]
        basis.append(primitive(vec))
    return basis


def reduce_mod_lattice(basis: IntMatrix, v: Sequence[int]) -> Vec:
    """Reduce ``v`` modulo the lattice spanned by the columns of ``basis``.

    Subtracts the lattice point given by rounding the least-squares solution
    of the normal equations.  The result depends only on the coset ``v`` +
    lattice: shifting ``v`` by a lattice element shifts the exact solution by
    the same integers, and the rounding used here — floor(x + 1/2), computed
    exactly on rationals — commutes with integer shifts (round-half-to-even
    would not, at exact half-integers).  Requires independent columns; a
    matrix with no columns leaves ``v`` unchanged.
    """
    return lattice_reducer(basis)(v)


def lattice_reducer(basis: IntMatrix) -> Callable[[Sequence[int]], Vec]:
    """``v -> reduce_mod_lattice(basis, v)``, with one Gram factorization."""
    if basis.cols == 0:
        return int_vector
    cols = [basis.col(j) for j in range(basis.cols)]
    gram = IntMatrix.from_rows([tuple(dot(ci, cj) for cj in cols) for ci in cols], len(cols))
    try:
        # the Gram matrix of independent columns is positive definite: d > 0
        d, adj = det_and_scaled_inverse(gram)
    except SingularMatrix:
        raise SingularMatrix("lattice basis columns are dependent") from None

    def reduce(v: Sequence[int]) -> Vec:
        v = int_vector(v)
        # floor(z + 1/2) for the exact solution z = adj @ rhs / d
        shift = [(2 * x + d) // (2 * d) for x in adj.apply(tuple(dot(ci, v) for ci in cols))]
        return tuple(x - sum(map(mul, row, shift)) for x, row in zip(v, basis.rows))

    return reduce


# ---------------------------------------------------------------------------
# vector helpers


def int_vector(values: Iterable) -> Vec:
    """``values`` as a tuple, refusing every entry whose type is not ``int``.

    Floats, fractions, strings and booleans raise :class:`TypeError` rather
    than being truncated or coerced.
    """
    v = tuple(values)
    for x in v:
        if type(x) is not int:
            raise TypeError(f"expected an integer, got {x!r}")
    return v


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionMismatch("dot product of different lengths")
    return sum(map(mul, u, v))


def primitive(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries.

    The direction (sign) is preserved; the zero vector maps to itself.  A
    non-integer entry raises :class:`TypeError`.
    """
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)

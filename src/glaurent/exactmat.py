"""Exact integer and rational linear algebra.

Everything here is deterministic and exact: integer matrices are immutable
tuples-of-tuples, rational work uses :class:`fractions.Fraction`, and no
floating point ever appears.  The centrepiece is :func:`smith_normal_form`,
which drives integer kernels, integer linear solving and lattice completion.
One fraction-free elimination gives determinants and adjugates, and one
rational row reduction gives ranks and rational kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Vec = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class SingularMatrix(ValueError):
    """A square matrix that was required to be invertible is not."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.

    ``rows`` is a tuple of row tuples; ``cols`` is kept explicitly so that
    matrices with zero rows still know their width.
    """

    rows: tuple[Vec, ...]
    cols: int

    def __post_init__(self) -> None:
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
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not rows:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            cols = len(rows[0])
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], nrows: int | None = None) -> "IntMatrix":
        columns = [tuple(int(x) for x in c) for c in columns]
        if nrows is None:
            if not columns:
                raise DimensionMismatch("empty matrix needs an explicit row count")
            nrows = len(columns[0])
        for c in columns:
            if len(c) != nrows:
                raise DimensionMismatch("ragged columns")
        rows = tuple(tuple(c[i] for c in columns) for i in range(nrows))
        return cls(rows, len(columns))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

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
        return tuple(sum(r[j] * v[j] for j in range(self.cols)) for r in self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.cols} @ {other.nrows}x{other.cols}")
        ocols = [other.col(j) for j in range(other.cols)]
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, c)) for c in ocols)
                for row in self.rows
            ),
            other.cols,
        )

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.rows) + "]"


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


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
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


def _bareiss(a: IntMatrix) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of ``[a | I]``.

    Returns ``(det(a), adjugate rows)``, or ``(0, [])`` when ``a`` is
    singular.  Every division is exact (Bareiss, Math. Comp. 22, 1968): after
    step ``k`` each entry is a ``(k+1)``-minor, and the right block ends as
    ``det * inverse`` of the row-permuted matrix.
    """
    if a.nrows != a.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.nrows
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.rows)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, []
        if piv != k:
            _swap_rows(m, k, piv)
            sign = -sign
        row_k = m[k]
        pk = row_k[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pk * x - f * y) // prev for x, y in zip(m[i], row_k)]
        prev = pk
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    return _bareiss(a)[0]


def det_and_scaled_inverse(a: IntMatrix) -> tuple[int, IntMatrix]:
    """Return ``(d, b)`` with ``d = det(a)`` and ``b @ a == d * identity``.

    ``b`` is the adjugate of ``a``; its entries are always integers.  Raises
    :class:`SingularMatrix` when ``d == 0``.
    """
    d, adj = _bareiss(a)
    if d == 0:
        raise SingularMatrix("matrix has determinant 0")
    return d, IntMatrix.from_rows(adj, a.nrows)


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
    _, s, v = smith_normal_form(a)
    r = sum(1 for i in range(min(a.nrows, a.cols)) if s.rows[i][i])
    return IntMatrix.from_columns([v.col(j) for j in range(r, a.cols)], a.cols)


def solve_integer(a: IntMatrix, b: Sequence[int]) -> Vec | None:
    """One integer solution of ``a @ x == b``, or ``None`` if there is none."""
    if len(b) != a.nrows:
        raise DimensionMismatch("right-hand side length does not match row count")
    u, s, v = smith_normal_form(a)
    c = u.apply(tuple(int(x) for x in b))
    n = a.cols
    y = [0] * n
    for i in range(a.nrows):
        si = s.rows[i][i] if i < n else 0
        if si:
            if c[i] % si:
                return None
            y[i] = c[i] // si
        elif c[i]:
            return None
    return v.apply(tuple(y))


# ---------------------------------------------------------------------------
# rational elimination helpers


def _rref(rows: Iterable[Sequence[Fraction | int]], dim: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Returns ``(work, pivots)``: row ``work[i]`` has a 1 in column
    ``pivots[i]`` and zeros in every other pivot column; zero rows are
    dropped.
    """
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


def rational_rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    """Rank over the rationals."""
    rows = list(rows)
    return len(_rref(rows, len(rows[0]) if rows else 0)[1])


def rational_kernel_basis(rows: Iterable[Sequence[Fraction | int]], dim: int) -> list[Vec]:
    """Primitive integer vectors spanning ``{x : row . x == 0 for all rows}``.

    The output is deterministic: reduced row echelon form with free variables
    set to 1 in increasing column order, each vector scaled to be integral and
    primitive.
    """
    work, pivots = _rref(rows, dim)
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[free] = Fraction(1)
        for rix, pcol in enumerate(pivots):
            vec[pcol] = -work[rix][free]
        basis.append(primitive(tuple(vec)))
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
    v = tuple(int(x) for x in v)
    if basis.cols == 0:
        return v
    cols = [basis.col(j) for j in range(basis.cols)]
    gram = IntMatrix.from_rows([tuple(dot(ci, cj) for cj in cols) for ci in cols], len(cols))
    try:
        # the Gram matrix of independent columns is positive definite: d > 0
        d, adj = det_and_scaled_inverse(gram)
    except SingularMatrix:
        raise SingularMatrix("lattice basis columns are dependent") from None
    # floor(z + 1/2) for the exact solution z = adj @ rhs / d
    shift = [(2 * x + d) // (2 * d) for x in adj.apply(tuple(dot(ci, v) for ci in cols))]
    return tuple(
        v[i] - sum(col[i] * x for col, x in zip(cols, shift))
        for i in range(basis.nrows)
    )


# ---------------------------------------------------------------------------
# vector helpers


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise DimensionMismatch("dot product of different lengths")
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v: Sequence) -> tuple:
    return tuple(c * x for x in v)


def primitive(v: Sequence[Fraction | int]) -> Vec:
    """Scale a rational vector to a primitive integer vector (gcd 1).

    The direction (sign) is preserved; the zero vector maps to itself.
    """
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

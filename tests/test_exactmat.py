"""Unit tests for the exact integer/rational matrix layer."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
import sympy
from helpers import (
    fraction_inverse,
    fraction_kernel_basis,
    fraction_primitive,
    fraction_rank,
    fraction_reduce_mod_lattice,
    fraction_rref,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from glaurent.exactmat import (
    DimensionMismatch,
    IntMatrix,
    SingularMatrix,
    _rref,
    det_and_scaled_inverse,
    determinant,
    dot,
    integer_kernel,
    primitive,
    rational_kernel_basis,
    rational_rank,
    reduce_mod_lattice,
    smith_normal_form,
    solve_integer,
    unimodular_completion,
    vadd,
    vscale,
    vsub,
)


def snf_checked(a: IntMatrix):
    """Run smith_normal_form and verify its full contract before returning."""
    u, s, v = smith_normal_form(a)
    assert (u @ a) @ v == s
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [s.rows[i][i] for i in range(min(s.nrows, s.cols))]
    for i in range(s.nrows):
        for j in range(s.cols):
            if i != j:
                assert s.rows[i][j] == 0
    assert all(x >= 0 for x in diag)
    seen_zero = False
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            seen_zero = True
        if seen_zero:
            assert diag[i + 1] == 0
        elif diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0
    return u, s, v, diag


class TestIntMatrix:
    def test_construction_and_shape(self):
        a = IntMatrix.from_rows([(1, 2, 3), (4, 5, 6)], 3)
        assert a.nrows == 2 and a.cols == 3
        assert a.col(1) == (2, 5)
        assert a.transpose().rows == ((1, 4), (2, 5), (3, 6))

    def test_empty_shapes(self):
        a = IntMatrix.from_columns([], 3)
        assert a.nrows == 3 and a.cols == 0
        b = IntMatrix.from_rows([], 2)
        assert b.nrows == 0 and b.cols == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix.from_rows([(1, 2), (3,)], 2)

    def test_matmul_and_apply(self):
        a = IntMatrix.from_rows([(1, 2), (3, 4)], 2)
        b = IntMatrix.from_rows([(0, 1), (1, 0)], 2)
        assert (a @ b).rows == ((2, 1), (4, 3))
        assert a.apply((1, 1)) == (3, 7)

    def test_identity(self):
        assert IntMatrix.identity(3).apply((4, 5, 6)) == (4, 5, 6)

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, Fraction(3, 1), "1"])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(TypeError, match="expected an integer"):
            IntMatrix.from_rows([[bad, 1]], 2)
        with pytest.raises(TypeError, match="expected an integer"):
            IntMatrix.from_columns([(1, 2), (3, bad)], 2)


class TestVectors:
    def test_arithmetic(self):
        assert vadd((1, 2), (3, 4)) == (4, 6)
        assert vsub((1, 2), (3, 4)) == (-2, -2)
        assert vscale(3, (1, -2)) == (3, -6)
        assert dot((1, 2), (3, 4)) == 11

    def test_primitive(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)
        assert primitive((0, 0)) == (0, 0)
        assert primitive((-3, 0, 6)) == (-1, 0, 2)
        assert primitive(()) == ()

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(1, 2), Fraction(3, 1), "1"])
    def test_primitive_refuses_non_integers(self, bad):
        with pytest.raises(TypeError):
            primitive((2, bad))


class TestRankDeterminant:
    def test_determinant_values(self):
        assert determinant(IntMatrix.from_rows([(1, 2), (3, 4)], 2)) == -2
        assert determinant(IntMatrix.from_rows([(2, 0), (0, 3)], 2)) == 6
        assert determinant(IntMatrix.from_rows([(1, 2), (2, 4)], 2)) == 0
        assert determinant(IntMatrix.from_rows([(5,)], 1)) == 5

    def test_rank(self):
        assert rational_rank([(1, 2), (2, 4)]) == 1
        assert rational_rank([(1, 0), (0, 1)]) == 2
        assert rational_rank([]) == 0
        assert rational_rank([(0, 0, 0)]) == 0
        assert rational_rank([(1, 2), (2, 4), (0, 1)]) == 2

    def test_det_and_scaled_inverse(self):
        a = IntMatrix.from_rows([(1, 2), (3, 4)], 2)
        d, adj = det_and_scaled_inverse(a)
        assert d == -2
        assert adj.rows == ((4, -2), (-3, 1))
        # a @ adj = d * identity
        prod = a @ adj
        assert prod.rows == ((-2, 0), (0, -2))
        with pytest.raises(SingularMatrix):
            det_and_scaled_inverse(IntMatrix.from_rows([(1, 2), (2, 4)], 2))

    def test_adjugate_is_det_times_fraction_inverse(self):
        rng = random.Random(7)
        singular = 0
        for _ in range(400):
            n = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            a = IntMatrix.from_rows(rows, n)
            leibniz = sum(
                (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
                * prod(rows[i][p[i]] for i in range(n))
                for p in permutations(range(n))
            )
            assert determinant(a) == leibniz
            inv = fraction_inverse(rows)
            if inv is None:
                singular += 1
                with pytest.raises(SingularMatrix):
                    det_and_scaled_inverse(a)
                continue
            d, adj = det_and_scaled_inverse(a)
            assert d == leibniz
            assert [list(r) for r in adj.rows] == [[d * x for x in row] for row in inv]
        assert singular > 0


class TestSmithNormalForm:
    def test_divisor_chain(self):
        *_, diag = snf_checked(IntMatrix.from_rows([(2, 4), (6, 8)], 2))
        assert diag == [2, 4]

    def test_wide_matrix(self):
        *_, diag = snf_checked(IntMatrix.from_rows([(1, 1)], 2))
        assert diag == [1]

    def test_zero_matrix(self):
        *_, diag = snf_checked(IntMatrix.from_rows([(0, 0), (0, 0)], 2))
        assert diag == [0, 0]

    def test_rank_deficient(self):
        *_, diag = snf_checked(IntMatrix.from_rows([(2, 4), (1, 2)], 2))
        assert diag == [1, 0]


class TestKernelAndSolve:
    def test_integer_kernel_line(self):
        k = integer_kernel(IntMatrix.from_rows([(1, 1)], 2))
        assert k.cols == 1
        col = k.col(0)
        assert col in ((1, -1), (-1, 1))

    def test_integer_kernel_saturated(self):
        # kernel of [2 2] is spanned by the primitive (1, -1), not (2, -2)
        k = integer_kernel(IntMatrix.from_rows([(2, 2)], 2))
        assert k.cols == 1
        assert sorted(abs(x) for x in k.col(0)) == [1, 1]

    def test_integer_kernel_trivial(self):
        k = integer_kernel(IntMatrix.from_rows([(1, 0), (0, 1)], 2))
        assert k.cols == 0 and k.nrows == 2

    def test_solve_integer(self):
        a = IntMatrix.from_rows([(2,)], 1)
        assert solve_integer(a, (4,)) == (2,)
        assert solve_integer(a, (3,)) is None
        b = IntMatrix.from_columns([(1, 1), (0, 2)], 2)
        assert solve_integer(b, (1, 3)) == (1, 1)
        assert solve_integer(b, (1, 2)) is None

    @pytest.mark.parametrize("bad", [4.9, 4.0, Fraction(4, 1), True, "4"])
    def test_solve_integer_refuses_non_integers(self, bad):
        a = IntMatrix.from_rows([(2,)], 1)
        with pytest.raises(TypeError, match="expected an integer"):
            solve_integer(a, [bad])

    def test_rational_kernel_basis(self):
        basis = rational_kernel_basis([(1, 1, 0)], 3)
        assert len(basis) == 2
        for v in basis:
            assert dot(v, (1, 1, 0)) == 0
        assert rational_kernel_basis([(1, 0), (0, 1)], 2) == []
        # free variables set in column order, pivot coordinates solved for
        assert rational_kernel_basis([(2, 4, 0), (1, 2, 3)], 3) == [(-2, 1, 0)]
        assert rational_kernel_basis([(-3, 0, 2)], 3) == [(0, 1, 0), (2, 0, 3)]
        assert rational_kernel_basis([], 2) == [(1, 0), (0, 1)]


class TestReduceModLattice:
    def test_axis_lattice(self):
        basis = IntMatrix.from_columns([(1, 0)], 2)
        assert reduce_mod_lattice(basis, (5, 3)) == (0, 3)
        # exact half-integers round up, so both ends of a tie agree
        doubled = IntMatrix.from_columns([(2, 0)], 2)
        assert reduce_mod_lattice(doubled, (1, 5)) == (-1, 5)
        assert reduce_mod_lattice(doubled, (-1, 5)) == (-1, 5)

    def test_empty_lattice(self):
        basis = IntMatrix.from_columns([], 2)
        assert reduce_mod_lattice(basis, (5, 3)) == (5, 3)

    def test_coset_function(self):
        # shifting by a lattice vector never changes the result
        basis = IntMatrix.from_columns([(2, 1), (0, 3)], 2)
        v = (7, -5)
        shifted = vadd(v, vadd(vscale(3, (2, 1)), vscale(-2, (0, 3))))
        assert reduce_mod_lattice(basis, v) == reduce_mod_lattice(basis, shifted)

    def test_matches_fraction_normal_equations(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            columns = [
                tuple(rng.randint(-4, 4) for _ in range(n))
                for _ in range(rng.randint(1, n))
            ]
            if rational_rank(columns) < len(columns):
                continue
            v = tuple(rng.randint(-30, 30) for _ in range(n))
            basis = IntMatrix.from_columns(columns, n)
            assert reduce_mod_lattice(basis, v) == fraction_reduce_mod_lattice(columns, v)
            checked += 1
        assert checked > 150

    def test_dependent_columns_rejected(self):
        basis = IntMatrix.from_columns([(1, 1), (2, 2)], 2)
        with pytest.raises(SingularMatrix):
            reduce_mod_lattice(basis, (0, 0))

    @pytest.mark.parametrize("bad", [1.7, 1.0, Fraction(1, 1), True, "1"])
    def test_non_integer_vector_rejected(self, bad):
        basis = IntMatrix.from_rows([(1,), (1,)], 1)
        with pytest.raises(TypeError, match="expected an integer"):
            reduce_mod_lattice(basis, [bad, 0])
        with pytest.raises(TypeError, match="expected an integer"):
            reduce_mod_lattice(IntMatrix.from_columns([], 2), [bad, 0])


def random_rows(rng):
    """A seeded matrix of 0-7 rows by 0-8 columns with entries in [-50, 50],
    mixing dense, sparse, zero, repeated, negated, scaled and combined rows."""
    n = rng.randint(0, 8)
    density = rng.choice([0.3, 0.6, 1.0])
    rows: list[list[int]] = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * n
        elif rows and kind < 0.35:
            base = rng.choice(rows)
            c = rng.choice([1, -1, 2, -2, 3, -5])
            row = [c * x for x in base]
            if kind < 0.25:
                other = rng.choice(rows)
                row = [x + rng.choice([1, -1, 2]) * y for x, y in zip(row, other)]
            if any(abs(x) > 50 for x in row):
                row = list(base)
        else:
            bound = rng.choice([2, 9, 50])
            row = [rng.randint(-bound, bound) if rng.random() < density else 0
                   for _ in range(n)]
        rows.append(row)
    return rows, n


class TestFractionFreeElimination:
    def test_matches_fraction_reference(self):
        rng = random.Random(2024)
        seen = {"zero row": 0, "repeated row": 0, "negative pivot": 0,
                "full rank": 0, "deficient": 0, "no rows": 0, "no columns": 0}
        for _ in range(1500):
            rows, n = random_rows(rng)
            work, pivots = _rref(rows, n)
            ref_work, ref_pivots = fraction_rref(rows, n)
            assert pivots == ref_pivots
            assert len(work) == len(ref_work)
            assert all(type(x) is int for row in work for x in row)
            # each pivot row is a nonzero multiple of the rational one
            for row, ref, p in zip(work, ref_work, pivots):
                assert row[p] != 0 and all(x == row[p] * y for x, y in zip(row, ref))
            rank = rational_rank(rows)
            assert rank == len(pivots) == fraction_rank(rows)
            basis = rational_kernel_basis(rows, n)
            assert basis == fraction_kernel_basis(rows, n)
            assert len(basis) == n - rank
            assert all(dot(r, v) == 0 for r in rows for v in basis)
            seen["zero row"] += any(not any(r) for r in rows) and n > 0
            seen["repeated row"] += len({tuple(r) for r in rows if any(r)}) < sum(
                1 for r in rows if any(r))
            seen["negative pivot"] += any(row[p] < 0 for row, p in zip(work, pivots))
            seen["full rank"] += 0 < rank == min(len(rows), n)
            seen["deficient"] += rank < min(len(rows), n)
            seen["no rows"] += not rows
            seen["no columns"] += n == 0
        assert min(seen.values()) >= 20, seen

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-20, 20), min_size=n, max_size=n), max_size=5
            ).map(lambda rows: (rows, n))
        )
    )
    def test_matches_sympy(self, case):
        rows, n = case
        matrix = sympy.Matrix(len(rows), n, [x for r in rows for x in r])
        assert rational_rank(rows) == matrix.rank()
        # sympy also sets free variables to 1 in column order
        expected = [
            fraction_primitive([Fraction(int(x.p), int(x.q)) for x in vec])
            for vec in matrix.nullspace()
        ]
        assert rational_kernel_basis(rows, n) == expected


class TestUnimodularCompletion:
    def test_contract_on_random_saturated_lattices(self):
        rng = random.Random(5)
        seen_q = set()
        for _ in range(200):
            n = rng.randint(1, 5)
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(0, n))
            ]
            lattice = integer_kernel(IntMatrix.from_rows(rows, n))
            q = lattice.cols
            seen_q.add((q, n))
            u, u_inv = unimodular_completion(lattice)
            assert u @ u_inv == IntMatrix.identity(n)
            assert abs(determinant(u)) == 1
            assert not any(any(row) for row in (u @ lattice).rows[q:])
        assert any(q == 0 for q, _ in seen_q) and any(q == n for q, n in seen_q)

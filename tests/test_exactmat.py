"""Unit tests for the exact integer/rational matrix layer."""

import random
from itertools import permutations
from math import prod

import pytest
from helpers import fraction_inverse, fraction_reduce_mod_lattice

from glaurent.exactmat import (
    DimensionMismatch,
    IntMatrix,
    SingularMatrix,
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


class TestVectors:
    def test_arithmetic(self):
        assert vadd((1, 2), (3, 4)) == (4, 6)
        assert vsub((1, 2), (3, 4)) == (-2, -2)
        assert vscale(3, (1, -2)) == (3, -6)
        assert dot((1, 2), (3, 4)) == 11

    def test_primitive(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)
        assert primitive((0, 0)) == (0, 0)


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

    def test_rational_kernel_basis(self):
        basis = rational_kernel_basis([(1, 1, 0)], 3)
        assert len(basis) == 2
        for v in basis:
            assert dot(v, (1, 1, 0)) == 0
        assert rational_kernel_basis([(1, 0), (0, 1)], 2) == []


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

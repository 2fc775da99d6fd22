"""Unit tests for the brute-force enumeration oracle."""

import random
from itertools import product

import pytest

from oracle import (
    count_monomials_of_degree,
    has_nonconstant_invariant,
    is_nonneg_combination,
    minimal_generators,
    monomials_of_degree,
    nonneg_combination_checker,
)

from glaurent.exactmat import IntMatrix
from glaurent.grading import ActionSpec, DegreeVector, degree


def spec_of(r, s, p, torsion, rows):
    return ActionSpec(r, s, p, tuple(torsion), IntMatrix.from_rows(rows, r + s))


STD = spec_of(2, 0, 1, (), [(1, 1)])
MIXED = spec_of(2, 0, 1, (), [(1, -1)])


class TestEnumeration:
    def test_degree_zero_monomials(self):
        zero = DegreeVector((0,), (), ())
        found = [str(m) for m in monomials_of_degree(MIXED, zero, 3)]
        assert found == ["1", "x1*x2", "x1^2*x2^2", "x1^3*x2^3"]
        assert count_monomials_of_degree(MIXED, zero, 3) == 4

    def test_count_matches_listing(self):
        spec = spec_of(1, 1, 1, (2,), [(2, -1), (1, 1)])
        for values in [(0, 0), (1, 1), (2, 0)]:
            a = DegreeVector.from_values(spec, values)
            assert count_monomials_of_degree(spec, a, 3) == len(
                monomials_of_degree(spec, a, 3)
            )

    def test_laurent_exponents_range_negative(self):
        spec = spec_of(1, 1, 1, (), [(1, -1)])
        a = DegreeVector((1,), (), ())
        assert [str(m) for m in monomials_of_degree(spec, a, 2)] == [
            "x2^-1", "x1", "x1^2*x2",
        ]

    def test_every_result_has_the_degree(self):
        spec = spec_of(2, 1, 1, (3,), [(1, 2, -2), (0, 1, 1)])
        a = DegreeVector.from_values(spec, [1, 2])
        for mono in monomials_of_degree(spec, a, 2):
            assert degree(spec, mono.exponents) == a
            assert all(e >= 0 for e in mono.exponents[: spec.r])


class TestInvariantDetection:
    def test_standard_grading_has_none(self):
        assert not has_nonconstant_invariant(STD, 6)

    def test_mixed_sign_has_one(self):
        assert has_nonconstant_invariant(MIXED, 1)

    def test_torsion_invariant(self):
        assert has_nonconstant_invariant(spec_of(2, 0, 0, (2,), [(1, 1)]), 2)


class TestCombinationSearch:
    def test_simple_memberships(self):
        assert is_nonneg_combination((3,), [(1,)], (1,))
        assert is_nonneg_combination((1, 1), [(1, 0), (0, 1)], (1, 1))
        assert not is_nonneg_combination((1, 2), [(1, 0), (1, 1)], (1, 1))

    def test_zero_target(self):
        assert is_nonneg_combination((0, 0), [(1, 0)], (1, 1))

    def test_rejects_nonpositive_functional(self):
        with pytest.raises(ValueError):
            is_nonneg_combination((1,), [(-1,)], (1,))

    def test_minimal_generators(self):
        vectors = [(1, 1), (2, 2), (3, 3)]
        assert minimal_generators(vectors, (1, 1)) == ((1, 1),)
        staircase = [(2, 0), (1, 1), (0, 2), (2, 2), (3, 1)]
        assert sorted(minimal_generators(staircase, (1, 1))) == [(0, 2), (1, 1), (2, 0)]

    def test_shared_memo_agrees_with_fresh_memos(self):
        """One checker asked about every target of a box, in shuffled order,
        answers as a fresh search per target does."""
        rng = random.Random(2400)
        answers = set()
        for _ in range(80):
            d = rng.randint(1, 3)
            functional = tuple(rng.randint(1, 3) for _ in range(d))
            vectors = [tuple(rng.randint(-2, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
            vectors = [v for v in vectors if sum(a * b for a, b in zip(functional, v)) > 0]
            if not vectors:
                continue
            targets = list(product(range(-1, 5), repeat=d))
            rng.shuffle(targets)
            shared = nonneg_combination_checker(vectors, functional)
            for t in targets:
                answer = shared(t)
                assert answer == is_nonneg_combination(t, vectors, functional), (vectors, t)
                answers.add(answer)
        assert answers == {True, False}

"""Unit tests for the positivity decision procedure and its certificates."""

import random
from collections import Counter
from dataclasses import fields

import pytest
from helpers import random_spec, reference_positivity_test, reference_special_matrix
from oracle import special_matrix_by_scan

from glaurent.components import s0_generators
from glaurent.exactmat import IntMatrix, dot, rational_rank
from glaurent.grading import ActionSpec, NotFaithful, associated_vectors
from glaurent.polycone import rays_in_halfspace
from glaurent.positivity import (
    BlockFormUnavailable,
    PositivityVerdict,
    SpecialForm,
    flip_matrix,
    positivity_test,
    special_matrix,
)


def spec_of(r, s, p, torsion, rows):
    return ActionSpec(r, s, p, tuple(torsion), IntMatrix.from_rows(rows, r + s))


def _check_block_form(spec, sf):
    """``B @ l1 == d * W[:, front]`` for the free rows ``W`` and the square
    block ``B`` of ``W`` over the trailing columns."""
    n, l = spec.n, spec.n - spec.p
    free = range(spec.p)
    assert sf.d > 0
    assert sorted(sf.columns) == list(range(n))
    positions = [sf.columns.index(j) for j in range(n)]
    assert all(positions[i] < positions[j] for i in range(spec.r) for j in range(spec.r, n))
    front, trailing = sf.columns[:l], sf.columns[l:]
    block = spec.weights.submatrix(free, trailing)
    assert block @ sf.l1 == IntMatrix.from_rows(
        [[sf.d * x for x in row] for row in spec.weights.submatrix(free, front).rows], l
    )


class TestSpecialMatrix:
    def test_one_laurent_column(self):
        spec = spec_of(1, 1, 1, (), [(2, 3)])
        sf = special_matrix(spec)
        assert sf.d == 3
        assert sf.l1.rows == ((2,),)
        assert sf.columns == (0, 1)
        _check_block_form(spec, sf)

    def test_no_laurent_columns(self):
        spec = spec_of(2, 0, 1, (), [(1, 1)])
        sf = special_matrix(spec)
        assert sf.d == 1
        assert sf.l1.rows == ((1,),)
        _check_block_form(spec, sf)

    def test_torsion_rows_stay_out_of_the_block(self):
        spec = spec_of(2, 0, 1, (2,), [(1, 1), (1, 0)])
        sf = special_matrix(spec)
        assert sf == special_matrix(spec_of(2, 0, 1, (), [(1, 1)]))
        _check_block_form(spec, sf)

    def test_negative_block_determinant(self):
        # the block over the Laurent column is (-3): d = 3 and l1 = -adj * 2
        spec = spec_of(1, 1, 1, (), [(2, -3)])
        sf = special_matrix(spec)
        assert sf.d == 3
        assert sf.l1.rows == ((-2,),)
        assert sf.columns == (0, 1)
        _check_block_form(spec, sf)

    def test_two_free_rows_over_one_laurent_column(self):
        # p > s: one polynomial column joins the Laurent one; column 0 is
        # singular with it, so column 1 is chosen
        spec = spec_of(3, 1, 2, (), [(1, 2, 0, 1), (2, 0, 1, 2)])
        sf = special_matrix(spec)
        assert sf.columns == (0, 2, 1, 3)
        assert sf.d == 4
        _check_block_form(spec, sf)

    def test_fields(self):
        assert [f.name for f in fields(SpecialForm)] == ["l1", "d", "columns"]


class TestSpecialMatrixDifferential:
    def test_matches_reference_builder(self):
        """1,200 seeded specs (up to 6 variables, up to 3 free rows, entries
        in [-2, 2]) against the full product ``gamma @ W @ delta``."""
        rng = random.Random(1000)
        kinds = Counter()
        for _ in range(1200):
            spec = random_spec(rng, max_p=3, lo=-2, hi=2)
            try:
                ref = reference_special_matrix(spec)
            except BlockFormUnavailable:
                with pytest.raises(BlockFormUnavailable):
                    special_matrix(spec)
                kinds["unavailable"] += 1
            else:
                sf = special_matrix(spec)
                assert (sf.l1, sf.d, sf.columns) == (ref.l1, ref.d, ref.column_map), spec
                _check_block_form(spec, sf)
                kinds["p=0" if spec.p == 0 else "p<=s" if spec.p <= spec.s else "p>s"] += 1
            got, want = positivity_test(spec), reference_positivity_test(spec)
            assert got.positive == want.positive, spec
            assert got.failed_condition == want.failed_condition, spec
            assert got.halfspace_normal == want.halfspace_normal, spec
            assert got.flip_set == want.flip_set, spec
        assert min(kinds[k] for k in ("p=0", "p<=s", "p>s", "unavailable")) >= 20, kinds

    def test_matches_column_scan(self):
        """3,000 seeded specs (up to 7 variables, up to 4 free rows, entries
        in [-1, 1] or [-2, 2]): the pivot columns of one row reduction are
        the first nonsingular choice of the scan over all of them."""
        rng = random.Random(1100)
        kinds = Counter()
        for _ in range(3000):
            span = rng.choice([1, 2])
            spec = random_spec(rng, max_n=7, max_p=4, lo=-span, hi=span)
            try:
                want = special_matrix_by_scan(spec)
            except BlockFormUnavailable:
                with pytest.raises(BlockFormUnavailable):
                    special_matrix(spec)
                kinds["unavailable"] += 1
            else:
                assert special_matrix(spec) == want, spec
                kinds["p>s" if spec.p > spec.s else "p<=s"] += 1
        assert min(kinds[k] for k in ("p<=s", "p>s", "unavailable")) >= 100, kinds


class TestVerdicts:
    def test_standard_positive(self):
        v = positivity_test(spec_of(2, 0, 1, (), [(1, 1)]))
        assert v.positive
        assert v.failed_condition is None
        assert v.halfspace_normal is None and v.flip_set is None

    def test_mixed_sign_not_positive_with_certificate(self):
        v = positivity_test(spec_of(2, 0, 1, (), [(1, -1)]))
        assert not v.positive
        assert v.failed_condition is None
        assert v.halfspace_normal == (1,)
        assert v.flip_set == (1,)

    def test_necessary_condition_p_le_s(self):
        v = positivity_test(spec_of(1, 1, 1, (), [(1, 1)]))
        assert not v.positive
        assert v.failed_condition == "p>s"

    def test_necessary_condition_laurent_weights(self):
        v = positivity_test(spec_of(2, 1, 2, (), [(1, 0, 0), (0, 1, 0)]))
        assert not v.positive
        assert v.failed_condition == "independent Laurent weights"

    def test_torsion_only_never_positive(self):
        v = positivity_test(spec_of(2, 0, 0, (2,), [(1, 1)]))
        assert not v.positive

    def test_identity_action_positive(self):
        v = positivity_test(spec_of(2, 0, 2, (), [(1, 0), (0, 1)]))
        assert v.positive

    @pytest.mark.parametrize("r, s, p, rows", [
        (0, 1, 1, [(1,)]),  # k[x^±1] with weight 1
        (0, 2, 2, [(1, 0), (1, 1)]),
    ])
    def test_trivial_degree_zero_lattice_positive(self, r, s, p, rows):
        # l = 0: only the constant has degree zero, even with p = s
        spec = spec_of(r, s, p, (), rows)
        assert associated_vectors(spec).l == 0
        v = positivity_test(spec)
        assert v.positive == (s0_generators(spec) == ())
        assert v == PositivityVerdict(True)


class TestCertificates:
    def test_halfspace_normal_contains_all_rays(self):
        spec = spec_of(3, 0, 1, (), [(2, -3, 5)])
        v = positivity_test(spec)
        assert not v.positive
        kd = associated_vectors(spec)
        assert v.halfspace_normal is not None
        assert any(v.halfspace_normal)
        for ray in kd.rays:
            assert dot(v.halfspace_normal, ray) >= 0

    def test_flip_set_makes_positive(self):
        spec = spec_of(2, 0, 1, (), [(1, -1)])
        v = positivity_test(spec)
        flipped = flip_matrix(spec, v.flip_set)
        assert flipped.weights.rows == ((1, 1),)
        assert positivity_test(flipped).positive

    def test_flip_matrix_negates_columns(self):
        spec = spec_of(3, 0, 1, (), [(1, -2, 3)])
        flipped = flip_matrix(spec, (1,))
        assert flipped.weights.rows == ((1, 2, 3),)

    @pytest.mark.parametrize("index", [1.0, True, "1"])
    def test_flip_matrix_indices_must_be_int(self, index):
        spec = spec_of(3, 0, 1, (), [(1, -2, 3)])
        with pytest.raises(TypeError, match="expected an integer"):
            flip_matrix(spec, [index])


def laurent_free_spec(rng):
    """A faithful action whose one Laurent column is zero on the free rows
    and nonzero on the torsion row, so that no block form exists."""
    while True:
        r = rng.randint(2, 4)
        p = rng.randint(2, min(3, r))
        order = rng.choice([2, 3, 4])
        rows = [tuple(rng.randint(-2, 2) for _ in range(r)) + (0,) for _ in range(p)]
        rows.append(tuple(rng.randrange(order) for _ in range(r)) + (rng.randint(1, order - 1),))
        if rational_rank(rows) < p + 1:
            continue
        spec = spec_of(r, 1, p, (order,), rows)
        try:
            associated_vectors(spec)
        except NotFaithful:
            continue
        return spec


class TestCertificateProperties:
    def test_laurent_column_zero_on_free_rows(self):
        spec = spec_of(2, 1, 2, (3,), [(1, 0, 0), (0, -1, 0), (1, 1, 1)])
        with pytest.raises(BlockFormUnavailable):
            special_matrix(spec)
        v = positivity_test(spec)
        assert (v.positive, v.halfspace_normal, v.flip_set) == (False, (1,), None)

    def test_every_certificate_checks_out(self):
        """1,000 seeded specs (up to 6 variables, up to 3 free rows, entries
        in [-2, 2]) and 100 with no block form: each normal is nonzero and
        pairs nonnegatively with every ray, each flip set makes the grading
        positive, each verdict matches the direct half-space search, and
        each certificate equals the reference one."""
        rng = random.Random(1800)
        specs = [random_spec(rng, max_p=3, lo=-2, hi=2) for _ in range(1000)]
        specs += [laurent_free_spec(rng) for _ in range(100)]
        routes = Counter()
        for spec in specs:
            v = positivity_test(spec)
            assert v == reference_positivity_test(spec), spec
            kd = associated_vectors(spec)
            assert v.positive == (rays_in_halfspace(kd.rays, kd.l) is None), spec
            if v.halfspace_normal is not None:
                assert any(v.halfspace_normal), spec
                assert all(dot(v.halfspace_normal, ray) >= 0 for ray in kd.rays), spec
            if v.flip_set is not None:
                assert positivity_test(flip_matrix(spec, v.flip_set)).positive, spec
            if v.failed_condition is not None:
                routes["necessary"] += 1
                continue
            try:
                special_matrix(spec)
            except BlockFormUnavailable:
                routes["no block form"] += 1
                continue
            if v.positive:
                routes["positive"] += 1
            else:
                assert v.halfspace_normal is not None, spec
                routes["chain flip" if v.flip_set is not None else "uncovered"] += 1
        assert len(routes) == 5 and min(routes.values()) >= 20, routes


class TestAgreementWithDirectRoute:
    def test_small_grid_of_matrices(self):
        from itertools import product

        for a, b in product(range(-2, 3), repeat=2):
            rows = [(a, b)]
            spec = spec_of(2, 0, 1, (), rows)
            if a == 0 and b == 0:
                continue  # not faithful
            v = positivity_test(spec)
            kd = associated_vectors(spec)
            direct = rays_in_halfspace(kd.rays, kd.l) is None
            assert v.positive == direct, rows

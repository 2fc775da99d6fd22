"""Unit tests for degree maps, the degree-zero lattice, and representatives."""

import random
from fractions import Fraction

import pytest
from helpers import identity, random_spec
from oracle import find_representative_by_box, representative_candidates_by_box

from glaurent import grading
from glaurent.components import component, component_dimension
from glaurent.exactmat import DimensionMismatch, IntMatrix, solve_integer
from glaurent.grading import (
    ActionSpec,
    DegreeVector,
    InvalidTorsion,
    Monomial,
    NotFaithful,
    RepresentativeNotFound,
    associated_vectors,
    degree,
    find_representative,
)


def std() -> ActionSpec:
    return ActionSpec(2, 0, 1, (), IntMatrix.from_rows([(1, 1)], 2))


def mod2() -> ActionSpec:
    return ActionSpec(2, 0, 0, (2,), IntMatrix.from_rows([(1, 1)], 2))


IDENTITY = ActionSpec(2, 0, 2, (), identity(2))
LAURENT_L0 = ActionSpec(1, 1, 2, (), identity(2))
ZERO_RAY = ActionSpec(1, 1, 1, (), IntMatrix.from_rows([(1, 0)], 2))
BOUNDS = (0, 1, 2, 3, 5, 8)


class TestActionSpec:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            ActionSpec(2, 0, 1, (), IntMatrix.from_rows([(1, 1, 1)], 3))
        with pytest.raises(DimensionMismatch):
            ActionSpec(1, 0, 2, (), IntMatrix.from_rows([(1,)], 1))

    def test_torsion_validation(self):
        with pytest.raises(InvalidTorsion):
            ActionSpec(2, 0, 0, (1,), IntMatrix.from_rows([(1, 1)], 2))

    @pytest.mark.parametrize(
        "r, s, p, torsion",
        [
            (True, False, True, ()),
            (2.0, 0, 1, ()),
            (2, 0, 1.0, ()),
            (2, "0", 1, ()),
            (2, 0, 1, (2.0,)),
            (2, 0, 1, (True,)),
            (2, 0, 1, (Fraction(3),)),
        ],
    )
    def test_non_integer_counts_rejected(self, r, s, p, torsion):
        rows = [(1, 1)] + [(1, 0)] * len(torsion)
        with pytest.raises(TypeError, match="expected an integer"):
            ActionSpec(r, s, p, torsion, IntMatrix.from_rows(rows, 2))

    @pytest.mark.parametrize("bad", [1.5, True, Fraction(3, 1), "1"])
    def test_non_integer_weights_rejected(self, bad):
        with pytest.raises(TypeError, match="expected an integer"):
            ActionSpec(2, 0, 1, (), IntMatrix(((bad, 1),), 2))

    def test_torsion_list_stored_as_tuple(self):
        spec = ActionSpec(2, 0, 1, [3], IntMatrix.from_rows([(1, 1), (1, 0)], 2))
        assert spec.torsion == (3,)

    def test_derived_counts(self):
        spec = ActionSpec(1, 2, 1, (2, 3), IntMatrix.from_rows([(1, 0, 0)] * 3, 3))
        assert spec.n == 3 and spec.t == 2 and spec.m == 3

    def test_laurent_only_allowed(self):
        spec = ActionSpec(0, 2, 1, (), IntMatrix.from_rows([(1, 1)], 2))
        assert spec.r == 0 and spec.n == 2


class TestDegreeVector:
    def test_residues_normalized(self):
        a = DegreeVector((1,), (5,), (3,))
        assert a.torsion == (2,)

    def test_str(self):
        assert str(DegreeVector((2,), (0,), (3,))) == "(2, 0 mod 3)"
        assert str(DegreeVector((1, -1), (), ())) == "(1, -1)"

    @pytest.mark.parametrize(
        "free, torsion, moduli",
        [((1,), (3,), (2.5,)), ((1.0,), (), ()), ((1,), (True,), (2,)), ((1,), (1,), (3.0,))],
    )
    def test_non_integer_entries_rejected(self, free, torsion, moduli):
        with pytest.raises(TypeError, match="expected an integer"):
            DegreeVector(free, torsion, moduli)

    def test_modulus_below_two(self):
        with pytest.raises(InvalidTorsion):
            DegreeVector((1,), (0,), (1,))

    def test_from_values(self):
        spec = mod2()
        a = DegreeVector.from_values(spec, [3])
        assert a.free == () and a.torsion == (1,)
        with pytest.raises(DimensionMismatch):
            DegreeVector.from_values(spec, [1, 2])

    @pytest.mark.parametrize("bad", [2.9, 3.0, True, Fraction(3, 1), "3"])
    def test_non_integer_values_rejected(self, bad):
        spec = ActionSpec(2, 0, 1, (3,), IntMatrix.from_rows([(1, 1), (0, 1)], 2))
        with pytest.raises(TypeError, match="expected an integer"):
            DegreeVector.from_values(spec, [1, bad])
        with pytest.raises(TypeError, match="expected an integer"):
            degree(spec, [bad, 1])


class TestMonomial:
    def test_str(self):
        assert str(Monomial((2, 0, -1))) == "x1^2*x3^-1"
        assert str(Monomial((0, 0))) == "1"
        assert str(Monomial((1, 1))) == "x1*x2"

    def test_ordering_is_lex_on_exponents(self):
        assert Monomial((1, 0)) > Monomial((0, 5))


class TestDegree:
    def test_free_part(self):
        assert degree(std(), (2, 0)).free == (2,)
        assert degree(std(), (1, 1)).free == (2,)

    def test_torsion_part(self):
        assert degree(mod2(), (1, 0)).torsion == (1,)
        assert degree(mod2(), (1, 1)).torsion == (0,)

    def test_mixed(self):
        spec = ActionSpec(1, 1, 1, (2,), IntMatrix.from_rows([(1, -1), (1, 0)], 2))
        a = degree(spec, (2, 1))
        assert a.free == (1,) and a.torsion == (0,)


class TestAssociatedVectors:
    def test_standard_grading(self):
        kd = associated_vectors(std())
        assert kd.l == 1
        assert kd.basis.rows == ((-1,), (1,))
        assert kd.rays == ((-1,), (1,))

    def test_trivial_kernel(self):
        spec = ActionSpec(2, 0, 2, (), identity(2))
        kd = associated_vectors(spec)
        assert kd.l == 0 and kd.rays == ((), ())

    def test_torsion_kernel_columns_have_degree_zero(self):
        spec = ActionSpec(1, 1, 1, (2,), IntMatrix.from_rows([(2, 1), (1, 1)], 2))
        kd = associated_vectors(spec)
        assert kd.l == spec.n - spec.p
        zero = DegreeVector((0,) * spec.p, (0,) * spec.t, spec.torsion)
        for j in range(kd.l):
            assert degree(spec, kd.basis.col(j)) == zero

    def test_rays_are_polynomial_rows(self):
        spec = ActionSpec(1, 1, 1, (), IntMatrix.from_rows([(1, -2)], 2))
        kd = associated_vectors(spec)
        assert len(kd.rays) == spec.r
        assert kd.rays == tuple(kd.basis.rows[: spec.r])

    def test_not_faithful(self):
        with pytest.raises(NotFaithful):
            associated_vectors(
                ActionSpec(2, 0, 2, (), IntMatrix.from_rows([(1, 1), (2, 2)], 2))
            )


class TestFindRepresentative:
    def test_standard_degree(self):
        spec = std()
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [2])
        assert find_representative(spec, kd, a, 10) == (2, 0)

    def test_result_has_requested_degree(self):
        spec = ActionSpec(1, 1, 1, (2,), IntMatrix.from_rows([(3, -2), (1, 1)], 2))
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [1, 1])
        phi = find_representative(spec, kd, a, 10)
        assert degree(spec, phi) == a
        assert phi[0] >= 0  # polynomial exponent nonnegative

    def test_unattained_degree_is_conclusive(self):
        spec = ActionSpec(1, 0, 1, (), IntMatrix.from_rows([(2,)], 1))
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [1])
        with pytest.raises(RepresentativeNotFound) as exc:
            find_representative(spec, kd, a, 10)
        assert exc.value.conclusive

    def test_bound_exhaustion_is_not_conclusive(self):
        # degree -1 for the standard grading: integer solutions exist but no
        # monomial does  (exponents must be nonnegative)
        spec = std()
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [-1])
        with pytest.raises(RepresentativeNotFound) as exc:
            find_representative(spec, kd, a, 10)
        assert not exc.value.conclusive

    def test_representative_deterministic_and_recentred(self):
        # representatives are a pure function of (spec, degree), anchored at
        # a base point reduced modulo the kernel lattice
        spec = ActionSpec(2, 1, 1, (3,), IntMatrix.from_rows([(4, -5, 2), (1, 0, 1)], 3))
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [3, 1])
        phi1 = find_representative(spec, kd, a, 10)
        phi2 = find_representative(spec, kd, a, 10)
        assert phi1 == phi2
        assert degree(spec, phi1) == a

    def test_search_alone_lists_only_the_box(self, monkeypatch):
        # x + y + z at degree 30 has 496 monomials; with bound 0 the box
        # holds one candidate, and only a caller that asks for the listing
        # pays for the whole component
        spec = ActionSpec(3, 0, 1, (), IntMatrix.from_rows([(1, 1, 1)], 3))
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [30])
        listed = []
        images = grading.lattice_images

        def counted(*args):
            for image in images(*args):
                listed.append(image)
                yield image

        monkeypatch.setattr(grading, "lattice_images", counted)
        phi = find_representative(spec, kd, a, 0)
        assert len(listed) <= 1
        listing = []
        assert find_representative(spec, kd, a, 0, listing=listing) == phi
        assert len(listing) == component_dimension(spec, a) == 496

    @pytest.mark.parametrize(
        "bound, error",
        [(-1, ValueError), (-7, ValueError), (2.0, TypeError), (True, TypeError),
         (Fraction(2), TypeError), ("3", TypeError), (None, TypeError)],
    )
    @pytest.mark.parametrize("spec", [std(), IDENTITY], ids=["l1", "l0"])
    def test_bad_search_bound_refused(self, spec, bound, error):
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, [1] * spec.m)
        with pytest.raises(error):
            find_representative(spec, kd, a, bound)
        with pytest.raises(error):
            component(spec, a, search_bound=bound)
        with pytest.raises(error):
            component_dimension(spec, a, search_bound=bound)


def find_listed(spec, kd, a, bound):
    """The representative that ``find_representative`` picks from the whole
    listing of a bounded polytope."""
    return find_representative(spec, kd, a, bound, listing=[])


def outcome(find, spec, kd, a, bound):
    try:
        return ("found", find(spec, kd, a, bound))
    except RepresentativeNotFound as exc:
        return ("not found", exc.bound, exc.conclusive)


class TestRepresentativeAgainstBoxScan:
    """The Fourier-Motzkin search returns exactly what scanning every point
    of the search box returns: the same vector, or the same refusal."""

    @pytest.mark.parametrize(
        "spec, values, bound, expected",
        [
            # l = 0: the particular solution is the only candidate
            (IDENTITY, [1, 2], 0, ("found", (1, 2))),
            (IDENTITY, [1, 2], 4, ("found", (1, 2))),
            (IDENTITY, [-1, 0], 4, ("not found", 4, False)),
            (LAURENT_L0, [1, -3], 0, ("found", (1, -3))),
            (LAURENT_L0, [-1, -3], 3, ("not found", 3, False)),
            # B = 0: only the recentred particular solution (2, 2) is tried
            (std(), [4], 0, ("found", (2, 2))),
            # on the box boundary, z = -B, then inside the box
            (std(), [4], 1, ("found", (3, 1))),
            (std(), [4], 2, ("found", (4, 0))),
            (std(), [4], 3, ("found", (4, 0))),
            # x1 has a zero ray row: its exponent is fixed by the degree
            (ZERO_RAY, [2], 0, ("found", (2, 0))),
            (ZERO_RAY, [2], 3, ("found", (2, -3))),
            (ZERO_RAY, [-1], 0, ("not found", 0, False)),
            (ZERO_RAY, [-1], 5, ("not found", 5, False)),
            (std(), [-1], 2, ("not found", 2, False)),
        ],
    )
    def test_explicit_cases(self, spec, values, bound, expected):
        kd = associated_vectors(spec)
        a = DegreeVector.from_values(spec, values)
        assert outcome(find_representative, spec, kd, a, bound) == expected
        assert outcome(find_representative_by_box, spec, kd, a, bound) == expected
        assert outcome(find_listed, spec, kd, a, bound) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        # 175 instances per seed, lattice rank 0-4, torsion and Laurent
        # columns; l = 4 with B = 8 has its own test, the scan is slow there
        rng = random.Random(7100 + seed)
        kinds = set()
        ranks = set()
        done = 0
        while done < 175:
            spec = random_spec(rng, max_n=5, max_p=2, max_t=1, min_r=0)
            kd = associated_vectors(spec)
            bound = rng.choice(BOUNDS)
            if kd.l > 4 or (kd.l, bound) == (4, 8):
                continue
            a = DegreeVector.from_values(spec, [rng.randint(-6, 6) for _ in range(spec.m)])
            fm = outcome(find_representative, spec, kd, a, bound)
            box = outcome(find_representative_by_box, spec, kd, a, bound)
            assert fm == box, (spec, a.lift(), bound)
            assert outcome(find_listed, spec, kd, a, bound) == box, (spec, a.lift(), bound)
            kinds.add(fm[0] if fm[0] == "found" else fm[2])
            ranks.add(kd.l)
            done += 1
        assert kinds == {"found", True, False}
        assert ranks == {0, 1, 2, 3, 4}

    def test_random_instances_largest_box(self):
        rng = random.Random(7200)
        done = 0
        while done < 6:
            spec = random_spec(rng, max_n=5, max_p=1, max_t=1, min_r=0)
            kd = associated_vectors(spec)
            if kd.l != 4:
                continue
            a = DegreeVector.from_values(spec, [rng.randint(-6, 6) for _ in range(spec.m)])
            fm = outcome(find_representative, spec, kd, a, 8)
            assert fm == outcome(find_representative_by_box, spec, kd, a, 8), spec
            done += 1


def with_free_laurent_last(spec: ActionSpec) -> ActionSpec:
    """``spec`` with one more Laurent variable, of weight zero, placed last:
    ``e_n`` joins the degree-zero lattice, so the last exponent is free."""
    rows = [row + (0,) for row in spec.weights.rows]
    return ActionSpec(spec.r, spec.s + 1, spec.p, spec.torsion,
                      IntMatrix.from_rows(rows, spec.n + 1))


class TestRepresentativeCascade:
    """Instances where the last exponent alone does not decide the colex
    minimum, so the search cuts its candidates by more than one row of the
    lattice basis: a zero-weight Laurent variable last, or torsion rows."""

    def test_ties_on_the_last_row(self):
        rng = random.Random(7300)
        done = ties = 0
        while done < 300:
            spec = random_spec(rng, max_n=4, max_p=2, max_t=2, min_r=0)
            if rng.random() < 0.5:
                spec = with_free_laurent_last(spec)
            kd = associated_vectors(spec)
            bound = rng.choice((1, 2, 3))
            if not 1 <= kd.l <= 4 or (kd.l == 4 and bound == 3):
                continue
            a = DegreeVector.from_values(spec, [rng.randint(-6, 6) for _ in range(spec.m)])
            fm = outcome(find_representative, spec, kd, a, bound)
            assert fm == outcome(find_representative_by_box, spec, kd, a, bound), spec
            done += 1
            if fm[0] == "found":
                candidates = representative_candidates_by_box(spec, kd, a, bound)
                least = min(c[-1] for c in candidates)
                ties += sum(c[-1] == least for c in candidates) > 1
        assert ties >= 50


class TestKernelLatticeMeaning:
    def test_lattice_members_have_degree_zero(self):
        spec = ActionSpec(2, 1, 1, (2,), IntMatrix.from_rows([(1, 2, -1), (0, 1, 1)], 3))
        kd = associated_vectors(spec)
        zero = DegreeVector((0,), (0,), (2,))
        for z in [(1, 0), (0, 1), (2, -3)]:
            lam = kd.basis.apply(z[: kd.l])
            assert degree(spec, lam) == zero

    def test_degree_zero_point_is_in_lattice(self):
        spec = mod2()
        kd = associated_vectors(spec)
        assert solve_integer(kd.basis, (1, 1)) is not None
        assert solve_integer(kd.basis, (2, 0)) is not None
        assert solve_integer(kd.basis, (1, 0)) is None

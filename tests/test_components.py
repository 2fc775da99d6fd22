"""Unit tests for graded-component descriptions."""

import collections
import itertools
import random

import pytest
from helpers import (
    homogenized_normals,
    inject_representative,
    is_bounded,
    random_normals,
    random_quotient,
    random_spec,
    reference_component,
    reference_hilbert_by_completion,
    vadd,
)
from oracle import (
    find_representative_by_box,
    nonneg_combination_checker,
    prune_points,
    representative_candidates_by_box,
)

from glaurent import components, exactmat, grading, polycone
from glaurent.components import (
    INFINITE,
    FiniteBasis,
    ModuleGenerators,
    NotInQ,
    build_polytope,
    component,
    component_dimension,
    s0_generators,
)
from glaurent.exactmat import IntMatrix, reduce_mod_lattice, solve_integer
from glaurent.grading import (
    ActionSpec,
    DegreeVector,
    Monomial,
    RepresentativeNotFound,
    _stacked_matrix,
    associated_vectors,
    degree,
)
from glaurent.polycone import (
    Polyhedron,
    Unbounded,
    dual_cone,
    dual_hilbert_basis,
    hilbert_basis,
    lattice_points,
    polytope_part,
    split_lineality,
    support_hull_rows,
)


def spec_of(r, s, p, torsion, rows):
    return ActionSpec(r, s, p, tuple(torsion), IntMatrix.from_rows(rows, r + s))


STD = spec_of(2, 0, 1, (), [(1, 1)])
MIXED = spec_of(2, 0, 1, (), [(1, -1)])
MOD2 = spec_of(2, 0, 0, (2,), [(1, 1)])


def deg(spec, values):
    return DegreeVector.from_values(spec, values)


class TestFiniteComponents:
    def test_standard_degree_two(self):
        desc = component(STD, deg(STD, [2]))
        assert desc.representative == (2, 0)
        assert isinstance(desc.kind, FiniteBasis)
        assert [str(m) for m in desc.kind.monomials] == ["x1^2", "x1*x2", "x2^2"]

    def test_standard_degree_zero(self):
        desc = component(STD, deg(STD, [0]))
        assert isinstance(desc.kind, FiniteBasis)
        assert [str(m) for m in desc.kind.monomials] == ["1"]

    def test_standard_dimension_ladder(self):
        for a in range(6):
            assert component_dimension(STD, deg(STD, [a])) == a + 1

    def test_monomials_have_requested_degree(self):
        spec = spec_of(3, 0, 1, (), [(2, 1, 3)])
        a = deg(spec, [3])
        desc = component(spec, a)
        assert isinstance(desc.kind, FiniteBasis)
        assert [str(m) for m in desc.kind.monomials] == ["x1*x2", "x2^3", "x3"]
        for mono in desc.kind.monomials:
            assert degree(spec, mono.exponents) == a
            assert all(e >= 0 for e in mono.exponents[: spec.r])

    def test_listing_descends_lexicographically(self):
        desc = component(STD, deg(STD, [3]))
        ms = list(desc.kind.monomials)
        assert ms == sorted(ms, reverse=True)


class TestNotInQ:
    def test_conclusively_absent_degree(self):
        spec = spec_of(1, 0, 1, (), [(2,)])
        desc = component(spec, deg(spec, [1]))
        assert isinstance(desc.kind, NotInQ)
        assert desc.kind.conclusive

    def test_bound_exhaustion(self):
        desc = component(STD, deg(STD, [-1]), search_bound=10)
        assert isinstance(desc.kind, NotInQ)
        assert not desc.kind.conclusive
        assert desc.kind.bound == 10


class TestS0Generators:
    def test_mixed_sign(self):
        assert [str(m) for m in s0_generators(MIXED)] == ["x1*x2"]

    def test_mod_two(self):
        assert [str(m) for m in s0_generators(MOD2)] == ["x1^2", "x1*x2", "x2^2"]

    def test_positive_grading_has_none(self):
        assert s0_generators(STD) == ()

    def test_generators_have_degree_zero(self):
        spec = spec_of(2, 1, 1, (2,), [(1, -2, 2), (1, 0, 1)])
        zero = DegreeVector((0,), (0,), (2,))
        gens = s0_generators(spec)
        assert gens
        for mono in gens:
            assert degree(spec, mono.exponents) == zero

    def test_one_row_with_eight_variables(self):
        """``[1, -1, 2, -2, 3, -3, 4, -4]``: degree zero, pairwise
        incomparable, and generating every degree-zero point of ``[0, 2]^8``."""
        spec = spec_of(8, 0, 1, (), [(1, -1, 2, -2, 3, -3, 4, -4)])
        zero = DegreeVector((0,), (), ())
        gens = [m.exponents for m in s0_generators(spec)]
        assert gens
        for g in gens:
            assert degree(spec, g) == zero
        for g, h in itertools.permutations(gens, 2):
            assert not all(x <= y for x, y in zip(g, h)), (g, h)
        generated = nonneg_combination_checker(gens, (1,) * 8)
        points = 0
        for u in itertools.product(range(3), repeat=8):
            if degree(spec, u) == zero:
                points += 1
                assert generated(u), u
        assert points > 100


class TestInfiniteComponents:
    def test_mixed_sign_degree_three(self):
        desc = component(MIXED, deg(MIXED, [3]))
        assert isinstance(desc.kind, ModuleGenerators)
        assert [str(m) for m in desc.kind.s0_gens] == ["x1*x2"]
        assert [str(m) for m in desc.kind.sa_gens] == ["x1^4*x2", "x1^3"]

    def test_mod_two_degree_one(self):
        desc = component(MOD2, deg(MOD2, [1]))
        assert isinstance(desc.kind, ModuleGenerators)
        assert [str(m) for m in desc.kind.sa_gens] == [
            "x1^4*x2^3", "x1^4*x2", "x1^3*x2^4", "x1^3*x2^2", "x1^3",
            "x1^2*x2^3", "x1^2*x2", "x1*x2^4", "x1*x2^2", "x1",
            "x2^3", "x2",
        ]

    def test_dimension_sentinel(self):
        assert component_dimension(MIXED, deg(MIXED, [0])) is INFINITE

    def test_generators_have_requested_degree(self):
        spec = spec_of(1, 2, 1, (), [(0, 2, -3)])
        a = deg(spec, [1])
        desc = component(spec, a)
        assert isinstance(desc.kind, ModuleGenerators)
        assert desc.kind.sa_gens
        for mono in desc.kind.sa_gens:
            assert degree(spec, mono.exponents) == a
            assert all(e >= 0 for e in mono.exponents[: spec.r])

    def test_lattice_core_is_among_the_generators(self):
        # the minimal generators, the lattice core of the quotient polyhedron
        # lifted as component lifts its points, are among the printed ones
        desc = component(MIXED, deg(MIXED, [3]))
        kd = associated_vectors(MIXED)
        quotient, section, lin = split_lineality(build_polytope(kd, desc.representative))
        lift, units = kd.basis @ section, kd.basis @ lin
        core = {
            Monomial(reduce_mod_lattice(units, vadd(desc.representative, lift.apply(u))))
            for u in polytope_part(quotient)[0]
        }
        assert core <= set(desc.kind.sa_gens)
        assert Monomial((3, 0)) in core


class TestPruneDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_minimal_generators_equal_pruned_region(self, seed):
        # 110 unbounded quotient polyhedra per seed, from 1-2 weight rows
        # with torsion and Laurent columns: the lattice core must be exactly
        # what is left of component's region scan after dropping every point
        # above another by a recession Hilbert basis element
        rng = random.Random(8300 + seed)
        done = 0
        while done < 110:
            spec = random_spec(rng, max_n=4, max_p=2, max_t=1, lo=-4, hi=4)
            kd = associated_vectors(spec)
            phi = tuple(rng.randint(0, 3) for _ in range(spec.r))
            phi += tuple(rng.randint(-2, 2) for _ in range(spec.s))
            quotient, _, _ = split_lineality(build_polytope(kd, phi))
            if is_bounded(quotient):
                continue
            core, recession_hb = polytope_part(quotient)
            normals = [row for row, _ in quotient.rows]
            hull = support_hull_rows(core, recession_hb.elements, normals, quotient.dim)
            region = lattice_points(Polyhedron(quotient.rows + hull.rows, quotient.dim))
            expected = prune_points(region, quotient, recession_hb.elements)
            assert list(core) == expected, spec
            done += 1


class TestTruncatedCompletion:
    def test_levels_up_to_one_of_the_full_basis(self):
        # 400 quotient polyhedra from 1-2 weight rows with torsion and Laurent
        # columns, bounded or not: with t >= 0 in the seed, the completion
        # that drops every element at t >= 2 returns exactly the elements at
        # t <= 1 of the full Hilbert basis of the homogenized cone, found by
        # the completion and by the triangulation of its generators alike
        rng = random.Random(8400)
        seen = collections.Counter()
        for _ in range(400):
            quotient = random_quotient(rng)
            d = quotient.dim
            normals, level = homogenized_normals(quotient)
            cone = dual_cone(normals)
            full = dual_hilbert_basis(normals).elements
            truncated = polycone._monoid_basis(cone.generators, normals.generators, d + 1, level)
            assert truncated == tuple(h for h in full if h[-1] <= 1), quotient
            triangulated = hilbert_basis(cone).elements
            assert truncated == tuple(h for h in triangulated if h[-1] <= 1), quotient
            core, recession_hb = polytope_part(quotient)
            assert core == tuple(h[:-1] for h in truncated if h[-1] == 1)
            assert recession_hb.elements == tuple(h[:-1] for h in truncated if h[-1] == 0)
            seen["dropped"] += len(truncated) < len(full)
            seen["unbounded"] += bool(recession_hb.elements)
        assert seen["dropped"] >= 100 and seen["unbounded"] >= 100, seen


class TestCompletionSeed:
    """The completion seeded by a simplicial cone of forms, its Hilbert basis
    read off the parallelepiped, against the unimodular seed it replaced."""

    def test_matches_unimodular_seed(self, monkeypatch):
        # 1,200 random_normals sets without a level form and the 400
        # quotients of TestTruncatedCompletion with one, each in the
        # coordinates of its pointed quotient
        cases = []
        rng = random.Random(2500)
        for kind in ["pointed", "equalities", "lineality", "trivial"] * 300:
            cases.append((random_normals(rng, kind), None))
        rng = random.Random(8400)
        for _ in range(400):
            cases.append(homogenized_normals(random_quotient(rng)))
        # the seed's parallelepiped is listed only when the exchange loop
        # left |det| > 1
        count = collections.Counter()
        listed = polycone._parallelepiped_points

        def counting(mat):
            count["wide"] += 1
            return listed(mat)

        monkeypatch.setattr(polycone, "_parallelepiped_points", counting)
        for normals, level in cases:
            forms = normals.generators
            section, _ = polycone._pointed_quotient(dual_cone(normals).generators, forms, normals.dim)
            restrict = section.transpose().apply
            args = ([restrict(f) for f in forms], section.cols, level and restrict(level))
            new = polycone._hilbert_by_completion(*args)
            assert sorted(new) == sorted(reference_hilbert_by_completion(*args)), (normals, level)
            count["seeded"] += section.cols > 0
        assert count["seeded"] >= 1000 and count["wide"] >= 300, count


class TestFinitenessFromEnumeration:
    """``lattice_points`` is the pipeline's only boundedness test.

    Every component polytope, and its lineality quotient, holds the
    representative's point ``0``, so the enumeration raises ``Unbounded``
    exactly when the reference double-description test says unbounded.
    """

    @staticmethod
    def check(monkeypatch, spec, phi, seen):
        kd = associated_vectors(spec)
        poly = build_polytope(kd, phi)
        quotient, _, _ = split_lineality(poly)
        bounded = []
        for p in (poly, quotient):
            assert all(c <= 0 for _, c in p.rows), (spec, phi)
            bounded.append(is_bounded(p))
            try:
                lattice_points(p)
                enumerated = True
            except Unbounded:
                enumerated = False
            assert enumerated == bounded[-1], (spec, phi, p)
        finite, quotient_bounded = bounded
        inject_representative(monkeypatch, phi)
        a = degree(spec, phi)
        assert isinstance(component(spec, a).kind, FiniteBasis) == finite, (spec, phi)
        assert (component_dimension(spec, a) is not INFINITE) == finite, (spec, phi)
        seen["finite"] += finite
        seen["unbounded quotient"] += not quotient_bounded
        seen["bounded quotient, infinite"] += quotient_bounded and not finite
        return finite

    def test_enumeration_decides_finiteness(self, monkeypatch):
        # 2,000 (spec, phi) pairs with torsion, Laurent columns and 1-2
        # weight rows; each finite one is repeated with a zero-weight
        # Laurent column appended, a unit of degree zero, which makes the
        # component infinite with a bounded quotient
        rng = random.Random(1300)
        seen = collections.Counter()
        pairs = 0
        while pairs < 2000:
            spec = random_spec(rng, max_n=4, max_p=2, max_t=1, lo=-4, hi=4)
            if spec.m > 2:
                continue
            phi = tuple(rng.randint(0, 3) for _ in range(spec.r))
            phi += tuple(rng.randint(-2, 2) for _ in range(spec.s))
            pairs += 1
            if self.check(monkeypatch, spec, phi, seen):
                rows = [row + (0,) for row in spec.weights.rows]
                unit = ActionSpec(
                    spec.r, spec.s + 1, spec.p, spec.torsion, IntMatrix.from_rows(rows)
                )
                assert not self.check(monkeypatch, unit, phi + (rng.randint(-2, 2),), seen)
        assert seen["finite"] >= 100, seen
        assert seen["unbounded quotient"] >= 100, seen
        assert seen["bounded quotient, infinite"] >= 20, seen


class TestComponentDifferential:
    """``component`` against ``helpers.reference_component``, the same
    pipeline with the lattice points listed first and each then mapped
    through ``K`` and reduced modulo the units on its own."""

    def test_matches_reference(self):
        # 600 seeded specs (n <= 4, entries in [-3, 3], torsion and Laurent
        # columns) at an attained degree or a random one, with search bounds
        # 0-4; every other one also with a zero-weight Laurent column
        # appended, a degree-zero unit whose quotient is often bounded
        rng = random.Random(2200)
        seen = collections.Counter()
        for _ in range(600):
            spec = random_spec(rng, max_n=4, max_p=2, max_t=1, lo=-3, hi=3)
            specs = [spec]
            if rng.random() < 1 / 2:
                rows = [row + (0,) for row in spec.weights.rows]
                specs.append(
                    ActionSpec(spec.r, spec.s + 1, spec.p, spec.torsion, IntMatrix.from_rows(rows))
                )
            values = [rng.randint(-4, 4) for _ in range(spec.m)]
            exponents = [rng.randint(0, 3) for _ in range(spec.r)]
            exponents += [rng.randint(-3, 3) for _ in range(spec.s)]
            bound = rng.randint(0, 4)
            for unit, sp in enumerate(specs):
                if rng.random() < 0.7:
                    a = degree(sp, exponents + [rng.randint(-2, 2)] * unit)
                else:
                    a = DegreeVector.from_values(sp, values)
                desc = component(sp, a, bound)
                assert desc == reference_component(sp, a, bound), (sp, a, bound)
                seen[self.path(sp, desc)] += 1
                seen["torsion"] += sp.t > 0
        assert seen["finite"] >= 50, seen
        assert seen["not in Q"] >= 50, seen
        assert seen["module"] >= 200, seen
        assert seen["module, units, bounded quotient"] >= 50, seen
        assert seen["module, units, unbounded quotient"] >= 50, seen
        assert seen["torsion"] >= 200, seen

    def test_box_only_picks_the_representative(self):
        # 600 seeded gradings with weights 1-4 over 3-4 columns, at least 3
        # of them polynomial (torsion and 1-2 free rows), at degrees of
        # monomials with exponents 0-3, with search bounds 0-1: a finite
        # listing often reaches out of the box, or misses it altogether
        rng = random.Random(2601)
        seen = collections.Counter()
        for _ in range(600):
            spec = random_spec(rng, max_n=4, max_p=2, max_t=1, lo=1, hi=4, min_r=3)
            exponents = [rng.randint(0, 3) for _ in range(spec.r)]
            a = degree(spec, exponents + [rng.randint(-2, 2) for _ in range(spec.s)])
            bound = rng.randint(0, 1)
            desc = component(spec, a, bound)
            assert desc == reference_component(spec, a, bound), (spec, a, bound)
            try:
                expected = find_representative_by_box(spec, associated_vectors(spec), a, bound)
            except RepresentativeNotFound:
                expected = None
            assert desc.representative == expected, (spec, a, bound)
            seen[self.box_cut(spec, a, bound, desc)] += 1
        assert seen["finite, a point outside the box"] >= 50, seen
        assert seen["bounded, points, none in the box"] >= 20, seen

    @staticmethod
    def box_cut(spec, a, bound, desc) -> str | None:
        """Where the search box cuts the listing: a finite component with a
        point outside the box, or an inconclusive search on a bounded
        polytope with lattice points, none of them in the box."""
        kd = associated_vectors(spec)
        if isinstance(desc.kind, FiniteBasis):
            inside = representative_candidates_by_box(spec, kd, a, bound)
            if len(desc.kind.monomials) > len(inside):
                return "finite, a point outside the box"
        elif isinstance(desc.kind, NotInQ) and not desc.kind.conclusive:
            # any particular solution gives the polytope up to a translation
            sol = solve_integer(_stacked_matrix(spec), a.lift())
            try:
                if lattice_points(build_polytope(kd, sol[: spec.n])):
                    return "bounded, points, none in the box"
            except Unbounded:
                pass
        return None

    @staticmethod
    def path(spec, desc) -> str:
        if isinstance(desc.kind, NotInQ):
            return "not in Q"
        if isinstance(desc.kind, FiniteBasis):
            return "finite"
        poly = build_polytope(associated_vectors(spec), desc.representative)
        quotient, _, lin = split_lineality(poly)
        if not lin.cols:
            return "module"
        try:
            lattice_points(quotient)
        except Unbounded:
            return "module, units, unbounded quotient"
        return "module, units, bounded quotient"


class TestOneListing:
    """A finite component is listed once: the Fourier-Motzkin listing that
    picks its representative is also its basis and its dimension."""

    UNIT_LINE = spec_of(2, 1, 1, (), [(1, 1, 0)])

    @staticmethod
    def counted_listings(monkeypatch):
        calls = collections.Counter()
        images = polycone.lattice_images

        def counted(*args):
            calls["lattice_images"] += 1
            return images(*args)

        # lattice_points reads the module global of polycone
        for module in (polycone, grading, components):
            monkeypatch.setattr(module, "lattice_images", counted)
        return calls

    def test_finite_component_lists_once(self, monkeypatch):
        calls = self.counted_listings(monkeypatch)
        rng = random.Random(2600)
        finite = 0
        while finite < 40:
            spec = random_spec(rng, max_n=4, max_p=2, max_t=1, lo=0, hi=3)
            a = degree(spec, [rng.randint(0, 2) for _ in range(spec.n)])
            bound = rng.randint(0, 4)
            calls.clear()
            desc = component(spec, a, bound)
            if not isinstance(desc.kind, FiniteBasis):
                continue
            finite += 1
            assert calls["lattice_images"] == 1, (spec, a, bound)
            calls.clear()
            assert component_dimension(spec, a, bound) == len(desc.kind.monomials)
            assert calls["lattice_images"] == 1, (spec, a, bound)

    @pytest.mark.parametrize("spec, listings", [
        (MIXED, 4),  # no units, unbounded quotient: its region is listed too
        (UNIT_LINE, 3),  # a unit, bounded quotient
    ])
    def test_infinite_component_lists_no_more(self, monkeypatch, spec, listings):
        # the failing listing, the box search, the quotient and, if the
        # quotient is unbounded, the region around its core; the dimension
        # stops after the box search
        calls = self.counted_listings(monkeypatch)
        for d in range(4):
            calls.clear()
            assert isinstance(component(spec, deg(spec, [d])).kind, ModuleGenerators)
            assert calls["lattice_images"] == listings, d
            calls.clear()
            assert component_dimension(spec, deg(spec, [d])) is INFINITE
            assert calls["lattice_images"] == 2, d


class TestUnitReduction:
    @pytest.mark.parametrize("rows, r", [([[1, -1, 2, 0]], 3), ([[1, 1, 0]], 2)])
    def test_one_factorization_per_component(self, monkeypatch, rows, r):
        """The degree-zero units are reduced with one Gram factorization per
        call: the number of ``det_and_scaled_inverse`` calls of a call with
        warm caches is the same at every degree, however many generators
        it prints (``unit_mixed`` and ``unit_line``)."""
        spec = spec_of(r, 1, 1, (), rows)
        calls = collections.Counter()
        factor = exactmat.det_and_scaled_inverse

        def counted(a):
            calls["det"] += 1
            return factor(a)

        monkeypatch.setattr(exactmat, "det_and_scaled_inverse", counted)
        per_degree = {}
        for d in range(9):
            component(spec, deg(spec, [d]))
            calls.clear()
            desc = component(spec, deg(spec, [d]))
            per_degree[len(desc.kind.sa_gens)] = calls["det"]
            poly = build_polytope(associated_vectors(spec), desc.representative)
            assert split_lineality(poly)[2].cols
        assert len(per_degree) >= 5 and max(per_degree) >= 9, per_degree
        assert len(set(per_degree.values())) == 1, per_degree


def test_build_polytope_is_defined_once():
    assert build_polytope is grading.build_polytope

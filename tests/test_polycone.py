"""Unit tests for polyhedra, cones, Hilbert bases, and half-space tests."""

import collections
import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from helpers import (
    cone_contains,
    determinant,
    is_bounded,
    random_normals,
    reference_lattice_points,
    reference_parallelepiped_points,
    reference_rays_in_halfspace,
    reference_span_hilbert_basis,
    reference_support_hull_rows,
)
from oracle import dual_cone_by_subsets, hilbert_basis_by_subsets, nonneg_combination_checker

from glaurent import polycone
from glaurent.grading import (
    ActionSpec,
    DegreeVector,
    associated_vectors,
    build_polytope,
    find_representative,
)
from glaurent.polycone import (
    EmptyPolyhedron,
    Polyhedron,
    RationalCone,
    Unbounded,
    dual_cone,
    dual_hilbert_basis,
    hilbert_basis,
    is_in_halfspace_extend,
    lattice_images,
    lattice_points,
    polytope_part,
    rays_in_halfspace,
    split_lineality,
    support_hull_rows,
)
from glaurent.exactmat import (
    DimensionMismatch,
    IntMatrix,
    dot,
    primitive,
    rational_kernel_basis,
    rational_rank,
    smith_normal_form,
)


class TestRationalCone:
    def test_generators_normalized(self):
        c = RationalCone(((2, 4), (0, 0), (1, 2)), 2)
        assert c.generators == ((1, 2),)

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", Fraction(1)])
    def test_entries_must_be_int(self, bad):
        with pytest.raises(TypeError, match="expected an integer"):
            RationalCone(((bad, 0), (0, 1)), 2)

    @pytest.mark.parametrize("gens", [((1, 0, 0),), ((1,),), ((1, 0), ())])
    def test_wrong_length_is_dimension_mismatch(self, gens):
        with pytest.raises(DimensionMismatch):
            RationalCone(gens, 2)
        assert issubclass(DimensionMismatch, ValueError)

    @pytest.mark.parametrize("cls", [RationalCone, Polyhedron])
    @pytest.mark.parametrize("dim", [2.0, True, "2", Fraction(2)])
    def test_dim_must_be_int(self, cls, dim):
        with pytest.raises(TypeError, match="expected an integer"):
            cls((), dim)

    @pytest.mark.parametrize("cls", [RationalCone, Polyhedron])
    def test_negative_dim_is_dimension_mismatch(self, cls):
        with pytest.raises(DimensionMismatch, match="negative dimension -1"):
            cls((), -1)
        assert cls((), 0).dim == 0

    def test_contains(self):
        c = RationalCone(((1, 0), (1, 2)), 2)
        assert cone_contains(c, (2, 1))
        assert cone_contains(c, (0, 0))
        assert not cone_contains(c, (0, -1))
        assert not cone_contains(c, (-1, 0))


class TestDualCone:
    def test_plane_cone(self):
        c = RationalCone(((1, 2), (2, 1)), 2)
        assert sorted(dual_cone(c).generators) == [(-1, 2), (2, -1)]

    def test_halfplane_dual_of_ray(self):
        c = RationalCone(((1, 0),), 2)
        assert sorted(dual_cone(c).generators) == [(0, -1), (0, 1), (1, 0)]

    def test_dual_of_everything_is_zero(self):
        c = RationalCone(((1, 0), (-1, 0), (0, 1), (0, -1)), 2)
        assert dual_cone(c).generators == ()

    def test_duality_pairing(self):
        c = RationalCone(((3, -1), (1, 4)), 2)
        for u in dual_cone(c).generators:
            for g in c.generators:
                assert dot(u, g) >= 0


def random_cone(rng: random.Random, d: int) -> RationalCone:
    """A seeded cone in dimension ``d`` with 0-10 generators.

    One cone in four has a span of lower rank, one in four contains a line
    ``±w`` (the shape ``is_in_halfspace_extend`` builds), and one in eight
    also gets the negated sum of its generators, which makes the dual ``{0}``
    whenever the generators span.  Half the cones are shuffled, so that a
    line is also cut early in the double-description pass, where rays tight
    on both ``w`` and ``-w`` need the combinatorial adjacency test.
    """
    line = rng.random() < 0.25
    closed = rng.random() < 0.125
    g = rng.randint(0, 10 - 2 * line - closed)
    if rng.random() < 0.25:
        base = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d))]
        gens = [
            tuple(sum(rng.randint(-2, 2) * b[i] for b in base) for i in range(d))
            for _ in range(g)
        ]
    else:
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(g)]
    if line:
        w = tuple(rng.randint(-2, 2) for _ in range(d))
        gens += [w, tuple(-x for x in w)]
    if gens and closed:
        gens.append(tuple(-sum(col) for col in zip(*gens)))
    if rng.random() < 0.5:
        rng.shuffle(gens)
    return RationalCone(tuple(gens), d)


class TestDualConeDifferential:
    """The double-description dual against the subset enumeration it replaced."""

    # 2,050 cones, fewer where the subset enumeration is slowest
    @pytest.mark.parametrize("d, count", [(1, 300), (2, 400), (3, 400), (4, 400),
                                          (5, 300), (6, 250)])
    def test_matches_subset_enumeration(self, d, count):
        rng = random.Random(1000 + d)
        for _ in range(count):
            cone = random_cone(rng, d)
            assert dual_cone(cone) == dual_cone_by_subsets(cone), cone

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_dual_of_a_dual_is_an_involution(self, d):
        """300 seeded cones per dimension: a dual cone's generators are
        canonical, so dualizing one twice gives it back exactly."""
        rng = random.Random(1900 + d)
        for _ in range(300):
            dual = dual_cone(random_cone(rng, d))
            assert dual_cone(dual_cone(dual)) == dual, dual

    @pytest.mark.parametrize(
        "gens, dim",
        [
            # k = 1: a ray, and a line, in a lower-rank span
            (((1, 2, 0),), 3),
            (((1, 2, 0), (-2, -4, 0)), 3),
            (((3,),), 1),
            # a generator repeated up to positive or negative scaling
            (((1, 1), (2, 2), (1, 0)), 2),
            (((1, 1), (-3, -3), (1, 0)), 2),
            (((1, 0, 1), (2, 0, 2), (0, 1, 0), (0, 3, 0)), 3),
            # a line cut first: rays tight on both (0, -1, 1, 0) and its
            # negative share two tight rows without being adjacent
            (((0, -1, 1, 0), (0, 1, -1, 0), (1, 0, 1, 0), (0, 1, -1, 1),
              (1, -1, 1, -1), (0, -1, -1, -1), (-1, -1, -1, -1)), 4),
            # no generators, and a dual that is {0}
            ((), 3),
            (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), 3),
        ],
    )
    def test_explicit_cases(self, gens, dim):
        cone = RationalCone(gens, dim)
        assert dual_cone(cone) == dual_cone_by_subsets(cone)


class TestPolyhedron:
    @pytest.mark.parametrize("normal", [(1, 0, 5), (1,), ()])
    def test_normal_of_wrong_length_rejected(self, normal):
        rows = ((normal, 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1))
        with pytest.raises(DimensionMismatch, match="normal of length"):
            Polyhedron(rows, 2)

    @pytest.mark.parametrize("row", [((1.5, 0), 0), ((1, "0"), 0), ((True, 0), 0),
                                     ((1, 0), 0.0), ((1, 0), Fraction(1, 2))])
    def test_non_integer_entry_rejected(self, row):
        with pytest.raises(TypeError, match="expected an integer"):
            Polyhedron((row, ((-1, 0), -1)), 2)

    def test_rows_become_tuples(self):
        poly = Polyhedron([([1, 0], 0), ([0, 1], -2)], 2)
        assert poly.rows == (((1, 0), 0), ((0, 1), -2))

    def test_segment_points(self):
        seg = Polyhedron((((1,), 0), ((-1,), -3)), 1)
        assert sorted(lattice_points(seg)) == [(0,), (1,), (2,), (3,)]

    def test_triangle_points(self):
        tri = Polyhedron((((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)), 2)
        assert sorted(lattice_points(tri)) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        ]

    def test_empty_region(self):
        empty = Polyhedron((((1,), 1), ((-1,), 0)), 1)
        assert lattice_points(empty) == []
        assert is_bounded(empty)

    def test_boundedness(self):
        assert not is_bounded(Polyhedron((((1,), 0),), 1))
        assert is_bounded(Polyhedron((((1,), 0), ((-1,), -5)), 1))
        # bounded in one direction only
        assert not is_bounded(Polyhedron((((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)), 2))

    def test_infinitely_many_points_raise(self):
        with pytest.raises(Unbounded):
            lattice_points(Polyhedron((((1,), 0),), 1))
        with pytest.raises(Unbounded):
            lattice_points(Polyhedron((((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)), 2))

    def test_unbounded_without_lattice_points(self):
        # 2x = 1 and y free: a line with no integer point
        line = Polyhedron((((2, 0), 1), ((-2, 0), -1)), 2)
        assert not is_bounded(line)
        assert lattice_points(line) == []


class TestLatticePointsDifferential:
    def test_matches_box_scan(self):
        """Seeded polyhedra in dimensions 1-4: the box ``|u_i| <= B`` cut by
        rows with coefficients in [-5, 5] and right-hand sides in [-8, 4],
        against a direct scan of the box."""
        rng = random.Random(2300)
        nonempty = empty = 0
        for _ in range(400):
            d = rng.randint(1, 4)
            bound = rng.randint(0, 4)
            rows = []
            for i in range(d):
                e = tuple(int(i == j) for j in range(d))
                rows += [(e, -bound), (tuple(-x for x in e), -bound)]
            for _ in range(rng.randint(1, 4)):
                rows.append((tuple(rng.randint(-5, 5) for _ in range(d)), rng.randint(-8, 4)))
            scan = [
                u for u in product(range(-bound, bound + 1), repeat=d)
                if all(dot(a, u) >= c for a, c in rows)
            ]
            assert lattice_points(Polyhedron(tuple(rows), d)) == scan, rows
            nonempty += bool(scan)
            empty += not scan
        assert nonempty > 100 and empty > 50


class TestLatticeImagesDifferential:
    def test_matches_mapped_points(self):
        """1,200 seeded polyhedra in dimensions 0-4 with rows, right-hand
        sides and image entries in [-3, 3]; half of them are clipped to a box
        ``|u_i| <= B``.  ``lattice_images`` must list ``offset + M u`` for
        the points ``u`` of ``lattice_points``, in their order, and raise
        ``Unbounded`` exactly when ``lattice_points`` does; both must agree
        with ``helpers.reference_lattice_points``, whose descent reads every
        row at every level."""
        rng = random.Random(2201)
        seen = collections.Counter()
        for _ in range(1200):
            d = rng.randint(0, 4)
            n = rng.randint(0, 5)
            rows = [
                (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 5))
            ]
            if rng.random() < 0.5:
                bound = rng.randint(0, 3)
                for i in range(d):
                    e = tuple(int(i == j) for j in range(d))
                    rows += [(e, -bound), (tuple(-x for x in e), -bound)]
            poly = Polyhedron(tuple(rows), d)
            columns = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d)]
            offset = tuple(rng.randint(-3, 3) for _ in range(n))
            try:
                points = reference_lattice_points(poly)
            except Unbounded:
                with pytest.raises(Unbounded):
                    lattice_points(poly)
                with pytest.raises(Unbounded):
                    lattice_images(poly, columns, offset)
                seen["unbounded"] += 1
                continue
            assert lattice_points(poly) == points, (rows, d)
            mapped = [
                tuple(o + sum(c[i] * x for c, x in zip(columns, u)) for i, o in enumerate(offset))
                for u in points
            ]
            assert lattice_images(poly, columns, offset) == mapped, (rows, d, columns, offset)
            seen["points" if points else "empty"] += 1
            seen["dimension 0"] += d == 0
        assert seen["points"] >= 300 and seen["empty"] >= 100, seen
        assert seen["unbounded"] >= 200 and seen["dimension 0"] >= 100, seen

    @pytest.mark.parametrize("columns, offset", [([(1, 0)], (0, 0)), ([(1,), (1, 0)], (0,))])
    def test_shape_mismatch(self, columns, offset):
        with pytest.raises(DimensionMismatch):
            lattice_images(Polyhedron((((1, 0), 0),), 2), columns, offset)


class TestHilbertBasis:
    def test_two_dim_cone(self):
        c = RationalCone(((1, 0), (1, 2)), 2)
        assert sorted(hilbert_basis(c).elements) == [(1, 0), (1, 1), (1, 2)]

    def test_single_ray(self):
        c = RationalCone(((2, 4),), 2)
        assert hilbert_basis(c).elements == ((1, 2),)

    def test_basis_generates_box_points(self):
        c = RationalCone(((2, 1), (1, 3)), 2)
        hb = hilbert_basis(c).elements
        # every cone point in a small box is a nonnegative integer combination
        def gen(point, elems):
            if not any(point):
                return True
            for i, h in enumerate(elems):
                nxt = tuple(a - b for a, b in zip(point, h))
                if all(
                    x >= 0 for x in (dot(u, nxt) for u in dual_cone(c).generators)
                ) and gen(nxt, elems[i:]):
                    return True
            return False

        for u in product(range(0, 5), repeat=2):
            if cone_contains(c, u):
                assert gen(u, list(hb)), u

    def test_full_space_has_lineality(self):
        c = RationalCone(((1,), (-1,)), 1)
        elems = sorted(hilbert_basis(c).elements)
        assert elems == [(-1,), (1,)]


def random_pointed_cone(
    rng: random.Random, d: int, units: int, extra: int, span: int = 3
) -> RationalCone:
    """A seeded pointed cone in dimension ``d``, full-dimensional or not.

    ``units`` of the unit vectors, then random vectors with entries in
    ``[-span, span]`` up to ``d + 1`` to ``d + extra`` generators, each put
    on the positive side of a random positive functional.  Half the cones
    also get the sum of two generators, which is not an extreme ray.
    """
    w = [rng.randint(1, 3) for _ in range(d)]
    gens = [tuple(int(i == j) for i in range(d)) for j in rng.sample(range(d), units)]
    size = d + rng.randint(1, extra)
    while len(gens) < size:
        v = tuple(rng.randint(-span, span) for _ in range(d))
        s = dot(w, v)
        if s:
            gens.append(v if s > 0 else tuple(-x for x in v))
    if rng.random() < 0.5:
        a, b = rng.sample(gens, 2)
        gens.append(tuple(x + y for x, y in zip(a, b)))
    rng.shuffle(gens)
    return RationalCone(tuple(gens), d)


def reference_hilbert_basis(cones, monkeypatch) -> list[tuple]:
    """``hilbert_basis`` of each cone with the subset enumeration in place of
    the triangulation, through the same lineality and span reductions."""
    hilbert_basis.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(polycone, "_hilbert_pointed",
                  lambda cone, forms: hilbert_basis_by_subsets(cone))
        out = [hilbert_basis(c).elements for c in cones]
    hilbert_basis.cache_clear()
    return out


class TestHilbertBasisDifferential:
    """The triangulation Hilbert basis against the subset enumeration it replaced."""

    # 1,010 pointed full-dimensional cones; in dimensions 5 and 6 most
    # generators are unit vectors and the others have entries in [-1, 1],
    # since the reference's Fourier-Motzkin pass over dense parallelepipeds
    # takes from seconds to minutes per cone there
    @pytest.mark.parametrize(
        "d, count, units, extra, span",
        [(1, 100, 0, 3, 3), (2, 250, 0, 4, 3), (3, 250, 0, 3, 3), (4, 150, 0, 2, 3),
         (5, 160, 4, 2, 1), (6, 100, 5, 1, 1)],
    )
    def test_matches_subset_enumeration(self, d, count, units, extra, span):
        rng = random.Random(2000 + d)
        non_extreme = lifted = 0
        cones = 0
        while cones < count:
            cone = random_pointed_cone(rng, d, rng.randint(units, d) if units else 0,
                                       extra, span)
            if rational_rank(cone.generators) < d:
                continue
            cones += 1
            basis = hilbert_basis(cone).elements
            assert list(basis) == sorted(hilbert_basis_by_subsets(cone)), cone
            gens = cone.generators
            non_extreme += any(
                cone_contains(RationalCone(gens[:i] + gens[i + 1 :], d), g)
                for i, g in enumerate(gens)
            )
            lifted += not set(basis) <= set(gens)
        # generators inside the cone, and simplices with |det| > 1 whose
        # parallelepipeds add elements, both occur
        assert d == 1 or (non_extreme and lifted)

    def test_cones_with_lineality(self, monkeypatch):
        rng = random.Random(2100)
        cones = []
        while len(cones) < 60:
            d = rng.randint(2, 4)
            cone = random_pointed_cone(rng, d, 0, 2)
            w = tuple(rng.randint(-2, 2) for _ in range(d))
            cone = RationalCone(cone.generators + (w, tuple(-x for x in w)), d)
            if rational_kernel_basis(dual_cone(cone).generators, d):
                cones.append(cone)
        assert [hilbert_basis(c).elements for c in cones] == reference_hilbert_basis(
            cones, monkeypatch
        )

    def test_lower_rank_cones(self, monkeypatch):
        rng = random.Random(2200)
        cones = []
        while len(cones) < 60:
            d = rng.randint(2, 5)
            base = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d - 1))]
            inner = random_pointed_cone(rng, len(base), 0, 2)
            gens = tuple(
                tuple(sum(c * b[i] for c, b in zip(g, base)) for i in range(d))
                for g in inner.generators
            )
            cone = RationalCone(gens, d)
            if cone.generators and rational_rank(cone.generators) < d:
                cones.append(cone)
        assert [hilbert_basis(c).elements for c in cones] == reference_hilbert_basis(
            cones, monkeypatch
        )

    def test_span_restriction_matches_solving(self):
        # 1,500 cones that are not full-dimensional, every other one given
        # both signs of a vector (659 with lineality): one Smith normal form
        # gives the coordinates in the span lattice that one integer solve
        # per generator gave
        rng = random.Random(2400)
        cones = lineal = 0
        while cones < 1500:
            d = rng.randint(2, 5)
            base = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, d - 1))]
            inner = random_pointed_cone(rng, len(base), 0, 2, span=2).generators
            if cones % 2:
                w = tuple(rng.randint(-2, 2) for _ in base)
                inner += (w, tuple(-x for x in w))
            gens = tuple(
                tuple(sum(c * b[i] for c, b in zip(g, base)) for i in range(d)) for g in inner
            )
            cone = RationalCone(gens, d)
            if not cone.generators or rational_rank(cone.generators) == d:
                continue
            cones += 1
            lineal += bool(rational_kernel_basis(dual_cone(cone).generators, d))
            assert hilbert_basis(cone).elements == reference_span_hilbert_basis(cone), cone
        assert lineal >= 600, lineal

    def test_one_dual_cone_pass(self, monkeypatch):
        # the triangulation reads the quotient's facets off the cone's own
        # dual: one double-description pass per cone, none for its quotient
        calls = []
        original = polycone.dual_cone

        def counted(cone):
            calls.append(cone)
            return original(cone)

        monkeypatch.setattr(polycone, "dual_cone", counted)
        rng = random.Random(2500)
        for d in (2, 3, 4):
            cone = random_pointed_cone(rng, d, 0, 2)
            w = tuple(rng.randint(-2, 2) for _ in range(d))
            for c in (cone, RationalCone(cone.generators + (w, tuple(-x for x in w)), d)):
                hilbert_basis.cache_clear()
                original.cache_clear()
                calls.clear()
                hilbert_basis(c)
                assert calls == [c]

    @pytest.mark.parametrize(
        "gens, dim, expected",
        [
            (((3,),), 1, ((1,),)),
            (((-2,), (-5,)), 1, ((-1,),)),
            # unimodular: the generators are the basis
            (((1, 0, 0), (1, 1, 0), (1, 1, 1)), 3, ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
            # one simplex of determinant 5
            (((1, 0), (1, 5)), 2, tuple((1, i) for i in range(6))),
        ],
    )
    def test_explicit_cases(self, gens, dim, expected):
        cone = RationalCone(gens, dim)
        assert hilbert_basis(cone).elements == expected
        assert sorted(hilbert_basis_by_subsets(cone)) == list(expected)


class TestDualHilbertBasis:
    """The completion from inequalities against the triangulation of the
    dual cone's generators, the round trip it replaced in the library."""

    # 1,200 seeded normal sets, 300 of each kind
    @pytest.mark.parametrize("kind", ["pointed", "equalities", "lineality", "trivial"])
    def test_matches_triangulation_of_dual(self, kind):
        rng = random.Random(["pointed", "equalities", "lineality", "trivial"].index(kind) + 1900)
        seen = {"implicit equality": 0, "lineality": 0, "origin only": 0, "whole space": 0,
                "lifted": 0}
        for _ in range(300):
            normals = random_normals(rng, kind)
            dual = dual_cone(normals)
            expected = hilbert_basis(dual).elements
            assert dual_hilbert_basis(normals).elements == expected, normals
            d = normals.dim
            seen["origin only"] += not dual.generators
            seen["whole space"] += not normals.generators
            seen["implicit equality"] += 0 < rational_rank(dual.generators) < d
            seen["lineality"] += bool(dual.generators) and bool(
                rational_kernel_basis(normals.generators, d)
            )
            seen["lifted"] += not set(expected) <= set(dual.generators)
        if kind == "trivial":
            assert seen["origin only"] + seen["whole space"] == 300
            assert min(seen["origin only"], seen["whole space"]) >= 100, seen
        else:
            assert seen["lifted"] >= 50, seen
        if kind == "equalities":
            assert seen["implicit equality"] >= 100, seen
        if kind == "lineality":
            assert seen["lineality"] == 300, seen

    @pytest.mark.parametrize(
        "normals, size",
        [
            # not full-dimensional: one implicit equality among 7 forms
            ([(1, -1, -2, 0, 0), (0, 1, -1, -1, 2), (0, 1, 0, -2, -2), (-2, -2, -1, 0, -2),
              (1, 2, -1, -1, -1), (-2, -2, -2, -2, 1), (-1, 1, 2, 0, 0)], 149),
            ([(1, -1, 2, 1, 2), (2, 2, -1, -2, 1), (2, -1, 1, 2, 1), (-1, 2, 1, 0, -2),
              (1, 1, 0, -2, 0), (-2, -1, 2, 0, 0)], 216),
        ],
    )
    def test_large_bases_by_properties(self, normals, size):
        """Each element is in the cone, none is another plus a cone point,
        and every cone point of the box ``[-3, 3]^5`` is a sum of elements."""
        basis = dual_hilbert_basis(RationalCone(tuple(normals), 5)).elements
        assert len(basis) == size

        def inside(v):
            return all(dot(a, v) >= 0 for a in normals)

        assert all(map(inside, basis))
        for h in basis:
            for g in basis:
                if g != h:
                    assert not inside(tuple(x - y for x, y in zip(h, g))), (h, g)
        # the forms have full rank, so their sum is positive off the origin
        member = nonneg_combination_checker(basis, tuple(map(sum, zip(*normals))))
        box = [v for v in product(range(-3, 4), repeat=5) if any(v) and inside(v)]
        assert len(box) >= 20
        assert all(map(member, box))


def random_simplex_matrix(rng, d: int, max_det: int) -> IntMatrix:
    """A nonsingular ``d x d`` matrix with ``|det| <= max_det``.

    Half are dense with entries shrinking as ``d`` grows; the other half are
    ``U @ diag(s) @ V`` with ``U``, ``V`` random unimodular and ``s`` a random
    chain of invariant factors, so that non-cyclic groups occur too.
    """
    if rng.random() < 0.5:
        span = {1: max_det, 2: 12, 3: 4, 4: 2, 5: 2, 6: 1}[d]
        while True:
            mat = IntMatrix.from_rows(
                [[rng.randint(-span, span) for _ in range(d)] for _ in range(d)], d
            )
            if 0 < abs(determinant(mat)) <= max_det:
                return mat
    factors: list[int] = []
    for i in range(d):
        # a divisor chain; each later factor is at least this one
        grown = (factors[-1] if factors else 1) * rng.choice([1, 1, 2, 3])
        if prod(factors) * grown ** (d - i) > max_det:
            grown = factors[-1] if factors else 1
        factors.append(grown)
    rows = [[factors[i] * (i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        # sign flips and row and column additions keep the invariant factors
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            f, g = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += g * row[j]
    return IntMatrix.from_rows(rows, d)


class TestParallelepipedOrbit:
    """The parallelepiped points listed as a group orbit against the SNF
    group product that listed them before."""

    # 1,050 simplices, |det| up to 300
    @pytest.mark.parametrize(
        "d, count", [(1, 100), (2, 250), (3, 250), (4, 200), (5, 150), (6, 100)]
    )
    def test_matches_snf_product(self, d, count):
        rng = random.Random(2300 + d)
        non_cyclic = 0
        largest = 0
        for _ in range(count):
            mat = random_simplex_matrix(rng, d, 300)
            size = abs(determinant(mat))
            points = polycone._parallelepiped_points(mat)
            assert len(points) == size - 1, mat
            assert set(points) == reference_parallelepiped_points(mat), mat
            _, snf, _ = smith_normal_form(mat)
            non_cyclic += sum(snf.rows[i][i] > 1 for i in range(d)) > 1
            largest = max(largest, size)
        assert largest > 30
        assert d == 1 or non_cyclic >= 10

    def test_unimodular_has_no_points(self):
        mat = IntMatrix.from_rows([(1, 1, 0), (0, 1, 1), (0, 0, 1)], 3)
        assert polycone._parallelepiped_points(mat) == []

    def test_two_by_two_group(self):
        # Z^2 / 2 Z^2 is not cyclic: three nonzero classes, each its own point
        mat = IntMatrix.from_rows([(2, 0), (0, 2)], 2)
        assert sorted(polycone._parallelepiped_points(mat)) == [(0, 1), (1, 0), (1, 1)]


class TestPolytopePart:
    def test_halfline(self):
        p = Polyhedron((((1,), 0),), 1)
        core, rec = polytope_part(p)
        assert sorted(core) == [(0,)]
        assert sorted(rec.elements) == [(1,)]

    def test_shifted_halfline(self):
        p = Polyhedron((((1,), -2),), 1)
        core, rec = polytope_part(p)
        assert sorted(rec.elements) == [(1,)]
        for v in core:
            assert v[0] >= -2

    @pytest.mark.parametrize(
        "rows, dim",
        [
            # x >= 1 and x <= 0: bounded, empty
            ((((1,), 1), ((-1,), 0)), 1),
            # x >= 1, x <= 0, y free: unbounded recession, empty
            ((((1, 0), 1), ((-1, 0), 0)), 2),
            # x + y >= 3, x <= 1, y <= 1
            ((((1, 1), 3), ((-1, 0), -1), ((0, -1), -1)), 2),
        ],
    )
    def test_empty_polyhedron_raises(self, rows, dim):
        with pytest.raises(EmptyPolyhedron):
            polytope_part(Polyhedron(rows, dim))

    @pytest.mark.parametrize(
        "rows, dim, level0",
        [
            # 2x = 1: one real point, no lattice point
            ((((2,), 1), ((-2,), -1)), 1, ()),
            # 2x = 1, y free: a line of real points, no lattice point
            ((((2, 0), 1), ((-2, 0), -1)), 2, ((0, -1), (0, 1))),
        ],
    )
    def test_real_points_without_lattice_points(self, rows, dim, level0):
        core, rec = polytope_part(Polyhedron(rows, dim))
        assert core == ()
        assert rec.elements == level0

    def test_quotient_whose_region_scan_hangs(self):
        # r = 5, free row (0,-2,-2,1,3), Z/3 row (1,-2,-2,-3,-1), degree
        # (3, 0 mod 3), bound 1: component's region scan around the zonotope
        # of the 84 recession elements does not finish, and is not run here
        rows = [(0, -2, -2, 1, 3), (1, -2, -2, -3, -1)]
        spec = ActionSpec(5, 0, 1, (3,), IntMatrix.from_rows(rows, 5))
        kd = associated_vectors(spec)
        phi = find_representative(spec, kd, DegreeVector.from_values(spec, [3, 0]), 1)
        quotient, _, lin = split_lineality(build_polytope(kd, phi))
        assert (kd.l, lin.cols) == (4, 0)
        core, rec = polytope_part(quotient)
        assert (len(core), len(rec.elements)) == (11, 84)

    def test_support_hull_rows_match_sign_normalized_pool(self):
        # 600 seeded inputs in dimensions 1-4, with zero, repeated, negated
        # and non-primitive normals: the same rows as a set, so the same region
        rng = random.Random(2600)
        zero = repeated = 0
        for _ in range(600):
            d = rng.randint(1, 4)

            def vectors(count, span):
                return [tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(count)]

            points = vectors(rng.randint(1, 4), 3)
            gens = vectors(rng.randint(0, 3), 2)
            normals = vectors(rng.randint(0, 5), 2)
            if rng.random() < 0.3:
                normals.append((0,) * d)
            if normals and rng.random() < 0.5:
                a = rng.choice(normals)
                normals.append(tuple(rng.choice((-2, -1, 1, 2)) * x for x in a))
            zero += (0,) * d in normals
            repeated += len({primitive(a) for a in normals if any(a)}) < sum(map(any, normals))
            new = support_hull_rows(points, gens, normals, d)
            old = reference_support_hull_rows(points, gens, normals, d)
            assert set(new.rows) == set(old.rows), (points, gens, normals)
            assert len(new.rows) == len(set(new.rows))
        assert zero >= 100 and repeated >= 100, (zero, repeated)

    def test_support_hull_contains_core(self):
        # polyhedra are intersected by concatenating their rows
        both = Polyhedron((((1,), 0),) + (((-1,), -2),), 1)
        assert lattice_points(both) == [(0,), (1,), (2,)]
        p = Polyhedron((((1, 1), 0), ((1, -1), 0)), 2)
        core, rec = polytope_part(p)
        hull = support_hull_rows(core, rec.elements, [row for row, _ in p.rows], 2)
        region = Polyhedron(p.rows + hull.rows, 2)
        assert is_bounded(region)
        pts = lattice_points(region)
        for v in core:
            assert v in pts


class TestHalfspace:
    def test_spanning_rays_not_contained(self):
        assert rays_in_halfspace([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) is None

    def test_orthant_contained(self):
        res = rays_in_halfspace([(1, 0), (0, 1)], 2)
        assert res is not None
        assert dot(res, (1, 0)) >= 0 and dot(res, (0, 1)) >= 0
        assert any(res)

    def test_empty_ray_set(self):
        res = rays_in_halfspace([], 2)
        assert res is not None

    def test_one_dim(self):
        assert rays_in_halfspace([(1,), (-1,)], 1) is None
        assert rays_in_halfspace([(1,)], 1) is not None

    @pytest.mark.parametrize("vectors", [[(1,), (0, 1)], [(1, 0, 5), (0, 1)]])
    def test_wrong_length_is_dimension_mismatch(self, vectors):
        with pytest.raises(DimensionMismatch):
            rays_in_halfspace(vectors, 2)
        seed = RationalCone(((1, 0), (0, 1)), 2)
        with pytest.raises(DimensionMismatch):
            is_in_halfspace_extend(vectors, seed, (1, 1))

    def test_matches_rank_test_per_vector(self):
        # the pivot columns of one elimination against the old greedy loop
        rng = random.Random(17)
        seen = {"zero": 0, "duplicate": 0, "dependent": 0, "deficient": 0,
                "contained": 0, "not contained": 0}
        for _ in range(1500):
            dim = rng.randint(1, 4)
            vectors: list[tuple[int, ...]] = []
            for _ in range(rng.randint(0, 8)):
                kind = rng.random()
                if kind < 0.1:
                    v = (0,) * dim
                elif vectors and kind < 0.25:
                    v = tuple(rng.choice([1, 2, 3]) * x for x in rng.choice(vectors))
                elif len(vectors) >= 2 and kind < 0.4:
                    a, b = rng.sample(vectors, 2)
                    v = tuple(x + rng.choice([1, -1, 2]) * y for x, y in zip(a, b))
                else:
                    v = tuple(rng.randint(-3, 3) for _ in range(dim))
                vectors.append(v)
            result = rays_in_halfspace(vectors, dim)
            assert result == reference_rays_in_halfspace(vectors, dim), (vectors, dim)
            nonzero = [v for v in vectors if any(v)]
            rank = rational_rank(nonzero)
            seen["zero"] += len(nonzero) < len(vectors)
            seen["duplicate"] += len(set(map(primitive, nonzero))) < len(nonzero)
            seen["dependent"] += dim <= rank < len(nonzero)
            seen["deficient"] += rank < dim
            seen["contained" if result is not None else "not contained"] += 1
        assert min(seen.values()) >= 200, seen

    def test_extend_accepts_compatible(self):
        seed = RationalCone(((1, 0), (1, 1)), 2)
        res = is_in_halfspace_extend([(0, 1), (1, 2)], seed, (1, 0))
        assert res is not None
        for v in [(1, 0), (1, 1), (0, 1), (1, 2)]:
            assert dot(res, v) >= 0

    def test_extend_refutes_spanning(self):
        seed = RationalCone(((1, 0), (1, 1)), 2)
        assert is_in_halfspace_extend([(0, 1), (-1, -1), (1, -2)], seed, (1, 0)) is None

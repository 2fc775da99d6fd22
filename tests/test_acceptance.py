"""End-to-end acceptance checks, one test per contract.

Every check is exact (integer/rational arithmetic, zero tolerance) and
compares the library against an independent route: brute-force enumeration
oracles, meet-in-the-middle box scans, a self-contained Fourier-Motzkin
membership test, or byte-for-byte golden files.  Random sampling is seeded,
so failures reproduce; sizes keep the whole suite within a few minutes.
"""

import random
from itertools import product
from pathlib import Path

from helpers import (
    degree_zero_box_points,
    factors_through,
    forms_member,
    image_box_points,
    membership_forms,
    random_spec,
    strictly_positive_functional,
)
from oracle import (
    count_monomials_of_degree,
    has_nonconstant_invariant,
    is_nonneg_combination,
    minimal_generators,
    monomials_of_degree,
)

from glaurent.components import (
    FiniteBasis,
    ModuleGenerators,
    _component_with_representative,
    component,
    component_dimension,
    s0_generators,
)
from glaurent.exactmat import (
    IntMatrix,
    determinant,
    dot,
    integer_kernel,
    smith_normal_form,
    solve_integer,
    vsub,
)
from glaurent.grading import (
    ActionSpec,
    DegreeVector,
    RepresentativeNotFound,
    associated_vectors,
    degree,
    find_representative,
)
from glaurent.polycone import (
    NOT_CONTAINED,
    RationalCone,
    dual_cone,
    hilbert_basis,
    rational_kernel_basis,
    rays_in_halfspace,
)
from glaurent.positivity import flip_matrix, positivity_test


def random_degree(rng, spec):
    """The degree of a random small monomial (guaranteed attainable)."""
    lam = tuple(rng.randint(0, 2) for _ in range(spec.r)) + tuple(
        rng.randint(-2, 2) for _ in range(spec.s)
    )
    return degree(spec, lam)


def test_degree_zero_iff_in_kernel_lattice():
    """On 200 random instances (n <= 6, p <= 2, t <= 1, entries in [-5, 5],
    torsion orders in {2, 3, 4}, full row rank), every point of the box
    [-4, 4]^n has degree zero exactly when it is an integer combination of
    the kernel basis columns.

    Both sides of the equivalence are enumerated exhaustively and
    independently: the degree-zero set by a meet-in-the-middle join over the
    weight rows, and the lattice-in-box set by congruence constraints from a
    Smith factorization that is itself verified on the spot.  Set equality
    then settles both directions for every box point at once.
    """
    rng = random.Random(101)
    for _ in range(200):
        spec = random_spec(rng, max_n=6, max_p=2, max_t=1, lo=-5, hi=5, min_r=0)
        kd = associated_vectors(spec)
        degree_zero = degree_zero_box_points(spec, 4)
        lattice = image_box_points(kd.basis, 4)
        assert degree_zero == lattice, (spec.weights.rows, spec.torsion, spec.r)


def test_smith_normal_form_contract():
    """On 500 random matrices up to 6x6 (and shape corner cases): U A V = S,
    U and V unimodular, S diagonal, nonnegative, divisibility chain."""
    rng = random.Random(202)

    def check(a: IntMatrix):
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
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            elif diag[i + 1] != 0:
                assert diag[i + 1] % diag[i] == 0

    check(IntMatrix.from_rows([(0, 0), (0, 0)], 2))
    check(IntMatrix.identity(4))
    check(IntMatrix.from_rows([(7,)], 1))
    for _ in range(500):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        rows = [tuple(rng.randint(-9, 9) for _ in range(ncols)) for _ in range(nrows)]
        check(IntMatrix.from_rows(rows, ncols))


def test_positivity_routes_and_oracle_agree():
    """The three routes to the positivity verdict coincide.

    First, 200 instances from the regime where a box search for nonconstant
    degree-zero monomials is a complete decision procedure (one free grading
    row, no torsion, entries in [-5, 5]: a sign analysis shows any failure of
    positivity is witnessed inside the box).  There the step-by-step decision
    procedure, the direct half-space test on the rays, and the enumeration
    oracle must agree exactly.  Second, 200 instances from the full
    distribution, where the two exact routes must still agree.
    """
    rng = random.Random(303)
    for _ in range(200):
        spec = random_spec(rng, max_n=6, max_p=1, max_t=0, lo=-5, hi=5)
        kd = associated_vectors(spec)
        verdict = positivity_test(spec)
        direct = rays_in_halfspace(kd.rays, kd.l) is NOT_CONTAINED
        oracle = not has_nonconstant_invariant(spec, 6)
        assert verdict.positive == direct == oracle, (spec.r, spec.weights.rows)
    for _ in range(200):
        spec = random_spec(rng, max_n=6, max_p=2, max_t=1)
        kd = associated_vectors(spec)
        verdict = positivity_test(spec)
        direct = rays_in_halfspace(kd.rays, kd.l) is NOT_CONTAINED
        assert verdict.positive == direct, (spec.r, spec.torsion, spec.weights.rows)


def test_flip_set_repairs_positivity():
    """Whenever the verdict carries a flip set, negating those polynomial
    columns yields a positive grading.  100% of cases."""
    rng = random.Random(404)
    repaired = 0
    for _ in range(200):
        spec = random_spec(rng, max_n=6, max_p=2, max_t=1)
        verdict = positivity_test(spec)
        if verdict.flip_set is None:
            continue
        repaired += 1
        flipped = flip_matrix(spec, verdict.flip_set)
        assert positivity_test(flipped).positive, (spec.weights.rows, verdict)
    assert repaired >= 10  # the check must not pass vacuously


def test_finite_component_dimensions_match_enumeration():
    """dim S_a from polytope lattice points equals brute-force monomial
    counts: the standard grading gives dim = a + 1 for a = 0..10, and on 100
    random positive instances with 3 random degrees each, the basis size, the
    dimension routine, and an independent census over a box that provably
    contains the whole component all coincide."""
    std = ActionSpec(2, 0, 1, (), IntMatrix.from_rows([(1, 1)], 2))
    for a in range(11):
        av = DegreeVector.from_values(std, [a])
        assert component_dimension(std, av) == a + 1
        assert count_monomials_of_degree(std, av, a) == a + 1

    rng = random.Random(505)
    found = 0
    while found < 100:
        spec = random_spec(rng, max_n=6, max_p=2, max_t=1)
        if not positivity_test(spec).positive:
            continue
        found += 1
        for _ in range(3):
            a = random_degree(rng, spec)
            desc = component(spec, a, search_bound=12)
            assert isinstance(desc.kind, FiniteBasis), (spec.weights.rows, a)
            monos = desc.kind.monomials
            assert len(set(monos)) == len(monos)
            for mono in monos:
                assert degree(spec, mono.exponents) == a
                assert all(e >= 0 for e in mono.exponents[: spec.r])
            dim = len(monos)
            assert component_dimension(spec, a, search_bound=12) == dim
            # box covering the emitted basis plus slack, so a missing monomial
            # near the component would be caught as a count mismatch
            reach = max((abs(e) for m in monos for e in m.exponents), default=0) + 2
            assert count_monomials_of_degree(spec, a, reach) == dim, (
                spec.weights.rows,
                a,
            )


def test_component_independent_of_representative():
    """For 50 (instance, degree) pairs admitting two distinct monomial
    representatives, the emitted monomial sets are identical.

    Pairs whose representative has a large entry are skipped: the unpruned
    generator listing enumerates a region whose size grows with the
    representative, and the point of this check is invariance, not scale.
    """
    rng = random.Random(606)
    pairs = 0
    trials = 0
    while pairs < 50 and trials < 20000:
        trials += 1
        spec = random_spec(rng, max_n=4, max_p=2, max_t=1, lo=-4, hi=4)
        kd = associated_vectors(spec)
        if kd.l == 0:
            continue
        a = random_degree(rng, spec)
        try:
            phi = find_representative(spec, kd, a, 8)
        except RepresentativeNotFound:
            continue
        if any(abs(x) > 12 for x in phi):
            continue
        phi2 = None
        for z in product(range(-2, 3), repeat=kd.l):
            if not any(z):
                continue
            cand = tuple(
                phi[i] + sum(kd.basis.rows[i][k] * z[k] for k in range(kd.l))
                for i in range(spec.n)
            )
            if all(cand[i] >= 0 for i in range(spec.r)) and cand != phi:
                phi2 = cand
                break
        if phi2 is None:
            continue
        pairs += 1
        d1 = _component_with_representative(spec, kd, a, phi, False)
        d2 = _component_with_representative(spec, kd, a, phi2, False)
        k1, k2 = d1.kind, d2.kind
        if isinstance(k1, FiniteBasis):
            assert isinstance(k2, FiniteBasis), (spec.weights.rows, a, phi, phi2)
            assert k1.monomials == k2.monomials, (spec.weights.rows, a, phi, phi2)
        else:
            assert isinstance(k2, ModuleGenerators), (spec.weights.rows, a, phi, phi2)
            assert k1.s0_gens == k2.s0_gens, (spec.weights.rows, a, phi, phi2)
            assert k1.sa_gens == k2.sa_gens, (spec.weights.rows, a, phi, phi2)
    assert pairs == 50


def test_hilbert_basis_covers_box_and_is_minimal():
    """On 100 random pointed cones (dimension <= 3, <= 5 generators, entries
    bounded by 4): every cone lattice point in [0, 6]^dim is a nonnegative
    integer combination of the computed basis, and no basis element is a sum
    of two nonzero cone lattice points.

    Cone membership is decided by an independent Fourier-Motzkin elimination;
    minimality of an element h is checked as h not being a nonnegative
    combination of the other elements, which for a pointed cone whose every
    box point is covered is equivalent to the two-summands condition.
    """
    rng = random.Random(707)
    cones = 0
    attempts = 0
    while cones < 100 and attempts < 10000:
        attempts += 1
        dim = rng.randint(1, 3)
        ngen = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(ngen)]
        cone = RationalCone(tuple(gens), dim)
        if not cone.generators:
            continue
        dual = dual_cone(cone)
        if rational_kernel_basis(dual.generators, dim):
            continue  # cone has lineality: not pointed
        cones += 1
        basis = hilbert_basis(cone).elements
        forms = membership_forms(cone.generators, dim)
        w = strictly_positive_functional(cone.generators, dual.generators, dim)
        for h in basis:
            assert forms_member(forms, h), (cone.generators, h)
        for u in product(range(0, 7), repeat=dim):
            if not any(u):
                continue
            if forms_member(forms, u):
                assert is_nonneg_combination(u, basis, w), (cone.generators, basis, u)
        for h in basis:
            others = [x for x in basis if x != h]
            assert not is_nonneg_combination(h, others, w), (cone.generators, basis, h)
    assert cones == 100


def test_infinite_component_generators_span_all_monomials():
    """On 50 random non-positive (instance, degree) pairs, every brute-force
    monomial of the degree inside the box factors as one emitted module
    generator times a product of emitted degree-zero generators, verified by
    bounded search in the coordinates of the kernel lattice.

    Pairs whose representative has a large entry are skipped, as in the
    representative-independence check: the factorisation property is what is
    under test, not the size of the enumerated region."""
    rng = random.Random(808)
    comps = 0
    trials = 0
    while comps < 50 and trials < 20000:
        trials += 1
        spec = random_spec(rng, max_n=4, max_p=2, max_t=1)
        if positivity_test(spec).positive:
            continue
        kd = associated_vectors(spec)
        a = random_degree(rng, spec)
        try:
            phi_guard = find_representative(spec, kd, a, 8)
        except RepresentativeNotFound:
            continue
        if any(abs(x) > 12 for x in phi_guard):
            continue
        desc = component(spec, a, search_bound=8)
        if not isinstance(desc.kind, ModuleGenerators):
            continue
        comps += 1
        ray_cone = RationalCone(tuple(kd.rays), kd.l)
        basis = hilbert_basis(dual_cone(ray_cone)).elements
        w = tuple(sum(col) for col in zip(*kd.rays))
        rays_mat = IntMatrix.from_rows([tuple(v) for v in kd.rays], kd.l)
        lin = integer_kernel(rays_mat)
        lin_lattice = lin if lin.cols else None
        sa_exps = [m.exponents for m in desc.kind.sa_gens]
        for mono in monomials_of_degree(spec, a, 3):
            mu = mono.exponents
            ok = False
            for g in sa_exps:
                u = solve_integer(kd.basis, vsub(mu, g))
                if u is not None and factors_through(u, basis, lin_lattice, w):
                    ok = True
                    break
            assert ok, (spec.weights.rows, spec.torsion, a, mu, desc.kind)
    assert comps == 50


def test_degree_zero_ring_generators():
    """The generator sets of the degree-zero subring on the two reference
    gradings, with exact set equality, cross-checked against brute-force
    minimal generators of the enumerated degree-zero monoid."""
    mixed = ActionSpec(2, 0, 1, (), IntMatrix.from_rows([(1, -1)], 2))
    mod2 = ActionSpec(2, 0, 0, (2,), IntMatrix.from_rows([(1, 1)], 2))
    assert [str(m) for m in s0_generators(mixed)] == ["x1*x2"]
    assert sorted(str(m) for m in s0_generators(mod2)) == ["x1*x2", "x1^2", "x2^2"]

    for spec in (mixed, mod2):
        zero = DegreeVector((0,) * spec.p, (0,) * spec.t, spec.torsion)
        box = 6
        exps = [
            m.exponents for m in monomials_of_degree(spec, zero, box) if any(m.exponents)
        ]
        brute = minimal_generators(exps, (1,) * spec.n)
        # only trust brute-force generators well inside the box
        small = {g for g in brute if sum(g) <= box // 2}
        assert small == {m.exponents for m in s0_generators(spec)}


def test_cli_outputs_are_stable():
    """The worked instances produce byte-identical output across repeated
    runs, matching the committed golden files exactly."""
    import io

    from glaurent.cli import main

    data = Path(__file__).parent / "data"
    golden = Path(__file__).parent / "golden"
    cases = {
        "standard_kernel.txt": ["kernel", str(data / "standard.json")],
        "standard_positivity.txt": ["positivity", str(data / "standard.json")],
        "standard_component_2.txt": [
            "component", str(data / "standard.json"), "--degree", "2",
        ],
        "standard_component_2.json": [
            "component", str(data / "standard.json"), "--degree", "2", "--json",
        ],
        "mixed_sign_kernel.txt": ["kernel", str(data / "mixed_sign.json")],
        "mixed_sign_positivity.txt": ["positivity", str(data / "mixed_sign.json")],
        "mixed_sign_component_3.txt": [
            "component", str(data / "mixed_sign.json"), "--degree", "3",
        ],
        "mixed_sign_component_0.json": [
            "component", str(data / "mixed_sign.json"), "--degree", "0", "--json",
        ],
        "mod2_kernel.txt": ["kernel", str(data / "mod2.json")],
        "mod2_positivity.txt": ["positivity", str(data / "mod2.json")],
        "mod2_component_1.txt": [
            "component", str(data / "mod2.json"), "--degree", "1",
        ],
    }
    for fname, argv in cases.items():
        expected = (golden / fname).read_text(encoding="utf-8")
        for _ in range(2):
            out = io.StringIO()
            code = main(argv, out=out, err=io.StringIO())
            assert code == 0, (fname, code)
            assert out.getvalue() == expected, fname

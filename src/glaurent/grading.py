"""Diagonal actions, multidegrees, and the exponent lattice of degree zero.

A diagonal action of a product of multiplicative groups and finite cyclic
groups on a mixed polynomial/Laurent ring is described by an integer weight
matrix.  This module turns that data into a grading: the degree map on
monomials, the lattice of exponent vectors of degree-zero monomials, and the
monomials of a prescribed degree, the images of the lattice points of a
polytope listed by Fourier-Motzkin.  A search for one monomial lists the
polytope cut by the search box.  A search that also asks for the whole
component lists a bounded polytope once, with no box rows, and the box only
picks the canonical representative among its points, so a finite component
costs its size, whatever the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .exactmat import (
    DimensionMismatch,
    IntMatrix,
    Vec,
    _gauss_jordan,
    _smith_kernel,
    _smith_solve,
    int_vector,
    rational_rank,
    reduce_mod_lattice,
    smith_normal_form,
)
from .polycone import Polyhedron, Unbounded, lattice_images

#: Default half-width of the representative search box.
SEARCH_BOUND = 10


class InvalidTorsion(ValueError):
    """A torsion order that is not an integer >= 2."""


class NotFaithful(ValueError):
    """The weight matrix does not describe a faithful action.

    Faithfulness is equivalent to the weight matrix having full row rank.
    """


class RepresentativeNotFound(LookupError):
    """No monomial of the requested degree was found.

    ``conclusive`` is True when the degree is provably not attained by any
    monomial (so no larger search bound would help), and False when the
    bounded search was simply exhausted.
    """

    def __init__(self, bound: int, conclusive: bool):
        self.bound = bound
        self.conclusive = conclusive
        kind = "degree is not attained by any monomial" if conclusive else (
            f"no monomial found within search bound {bound}"
        )
        super().__init__(kind)


@dataclass(frozen=True)
class ActionSpec:
    """A diagonal action on ``r`` polynomial and ``s`` Laurent variables.

    ``weights`` has one row per grading component — ``p`` free rows first,
    then one row per torsion order in ``torsion`` — and one column per
    variable, polynomial variables first.
    """

    r: int
    s: int
    p: int
    torsion: tuple[int, ...]
    weights: IntMatrix

    def __post_init__(self) -> None:
        if min(int_vector((self.r, self.s, self.p))) < 0:
            raise DimensionMismatch("variable and rank counts must be nonnegative")
        object.__setattr__(self, "torsion", int_vector(self.torsion))
        for d in self.torsion:
            if d < 2:
                raise InvalidTorsion(f"torsion order {d!r} (each must be an integer >= 2)")
        if self.weights.nrows != self.m:
            raise DimensionMismatch(
                f"weight matrix has {self.weights.nrows} rows, expected {self.m}"
            )
        if self.weights.cols != self.n:
            raise DimensionMismatch(
                f"weight matrix has {self.weights.cols} columns, expected {self.n}"
            )

    @property
    def n(self) -> int:
        return self.r + self.s

    @property
    def t(self) -> int:
        return len(self.torsion)

    @property
    def m(self) -> int:
        return self.p + self.t


@dataclass(frozen=True)
class DegreeVector:
    """An element of the grading group: free part plus torsion residues."""

    free: Vec
    torsion: Vec
    moduli: Vec

    def __post_init__(self) -> None:
        for name in ("free", "torsion", "moduli"):
            object.__setattr__(self, name, int_vector(getattr(self, name)))
        if len(self.torsion) != len(self.moduli):
            raise DimensionMismatch("torsion part and moduli lengths differ")
        for d in self.moduli:
            if d < 2:
                raise InvalidTorsion(f"torsion order {d}")
        object.__setattr__(
            self, "torsion", tuple(x % d for x, d in zip(self.torsion, self.moduli))
        )

    @classmethod
    def from_values(cls, spec: ActionSpec, values) -> "DegreeVector":
        values = int_vector(values)
        if len(values) != spec.m:
            raise DimensionMismatch(
                f"degree has {len(values)} entries, expected {spec.m}"
            )
        return cls(values[: spec.p], values[spec.p :], spec.torsion)

    def lift(self) -> Vec:
        """The integer vector of free entries followed by torsion residues."""
        return self.free + self.torsion

    def __str__(self) -> str:
        parts = [str(x) for x in self.free]
        parts += [f"{x} mod {d}" for x, d in zip(self.torsion, self.moduli)]
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True, order=True)
class Monomial:
    """A (Laurent) monomial, stored as its exponent vector."""

    exponents: Vec

    def __str__(self) -> str:
        factors = []
        for i, e in enumerate(self.exponents, start=1):
            if e == 0:
                continue
            factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        return "*".join(factors) if factors else "1"


def degree(spec: ActionSpec, exponents) -> DegreeVector:
    """Multidegree of the monomial with the given exponent vector."""
    exponents = int_vector(exponents)
    image = spec.weights.apply(exponents)
    return DegreeVector(image[: spec.p], image[spec.p :], spec.torsion)


@dataclass(frozen=True)
class KernelData:
    """The lattice of exponent vectors of degree-zero monomials.

    ``basis`` holds a saturated lattice basis as its columns.  Each variable
    contributes one row of ``basis``; the rows belonging to the polynomial
    variables are the ``rays``, the vectors whose sign behaviour governs
    positivity and the shape of every graded piece.
    """

    basis: IntMatrix
    rays: tuple[Vec, ...]

    @property
    def l(self) -> int:
        return self.basis.cols


def _stacked_matrix(spec: ActionSpec) -> IntMatrix:
    # [weights | -T] where T has the torsion orders on the rows that are
    # graded modulo them; its integer kernel, projected to the first n
    # coordinates, is exactly the degree-zero exponent lattice.
    rows = []
    for i in range(spec.m):
        extra = [0] * spec.t
        if i >= spec.p:
            extra[i - spec.p] = -spec.torsion[i - spec.p]
        rows.append(tuple(spec.weights.rows[i]) + tuple(extra))
    return IntMatrix.from_rows(rows, spec.n + spec.t)


@lru_cache(maxsize=256)
def _stacked_smith(spec: ActionSpec) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    # one Smith normal form per spec serves the kernel lattice and every
    # representative search; the cache matches associated_vectors'
    return smith_normal_form(_stacked_matrix(spec))


@lru_cache(maxsize=256)
def associated_vectors(spec: ActionSpec) -> KernelData:
    """Compute the degree-zero exponent lattice of a faithful action.

    Raises :class:`NotFaithful` when the weight matrix has rank below the
    number of grading components.  The cache keeps the 256 most recently used
    specs: its hits come from repeated queries on one spec, and unbounded it
    held about 2 KB for every spec ever seen.
    """
    rk = rational_rank(spec.weights.rows)
    if rk < spec.m:
        raise NotFaithful(f"weight matrix rank {rk} below grading rank {spec.m}")
    full = _smith_kernel(_stacked_smith(spec))
    # the projection to the first n coordinates is injective on this kernel:
    # a kernel vector with zero exponent part forces all torsion multipliers
    # to vanish because the torsion orders are nonzero.
    columns = [full.col(j)[: spec.n] for j in range(full.cols)]
    basis = IntMatrix.from_columns(columns, spec.n)
    return KernelData(basis, basis.rows[: spec.r])


def build_polytope(kd: KernelData, phi: Vec) -> Polyhedron:
    """The polyhedron whose lattice points index the component's monomials.

    One row per polynomial variable: the pairing with that variable's ray
    must not push the exponent below zero.
    """
    rows = tuple((v, -phi[i]) for i, v in enumerate(kd.rays))
    return Polyhedron(rows, kd.l)


def find_representative(
    spec: ActionSpec,
    kd: KernelData,
    a: DegreeVector,
    search_bound: int = SEARCH_BOUND,
    *,
    listing: list[Vec] | None = None,
) -> Vec:
    """Exponent vector of a monomial of degree ``a``, or raise.

    The result is canonical: among all valid exponent vectors ``phi0 + K z``
    with ``z`` in the box ``|z_k| <= search_bound`` around a norm-reduced
    particular solution ``phi0``, the one with colexicographically smallest
    exponents is returned.  Polynomial variables must have nonnegative
    exponents; Laurent variables are free.  The candidates are the images
    ``phi0 + K z`` of the lattice points of the polytope cut by the search
    box, built inside the Fourier-Motzkin descent by :func:`lattice_images`;
    they are distinct, as ``K`` has full column rank, so the least is unique.

    Given an empty list ``listing``, a bounded polytope is instead listed
    once, with no box rows, and every exponent vector of degree ``a`` is
    appended to ``listing``; the box only picks the representative among
    them, by reading ``z`` back with the adjugate of one nonsingular row
    block of ``K``.  The answer is the same, and the call costs the size of
    the component, whatever the bound.  An unbounded polytope leaves
    ``listing`` empty and has its representative searched within the box.

    Raises :class:`RepresentativeNotFound` — with ``conclusive=True`` when
    ``a`` is not in the image of the degree map at all, and
    ``conclusive=False`` when no valid exponent vector has ``z`` in the box.
    ``search_bound`` must be an ``int`` (else :class:`TypeError`) and at
    least 0 (else :class:`ValueError`).
    """
    int_vector((search_bound,))  # the library's integer rule: TypeError
    if search_bound < 0:
        raise ValueError(f"search bound must be >= 0, got {search_bound}")
    if len(a.moduli) != spec.t or a.moduli != spec.torsion:
        raise DimensionMismatch("degree vector does not match the action's torsion")
    if len(a.free) != spec.p:
        raise DimensionMismatch("degree vector free part does not match the action")
    sol = _smith_solve(_stacked_smith(spec), a.lift())
    if sol is None:
        raise RepresentativeNotFound(search_bound, conclusive=True)
    phi0 = _recentre(kd, sol[: spec.n])
    poly = build_polytope(kd, phi0)
    if listing is not None:
        try:
            listing.extend(lattice_images(poly, kd.basis.transpose().rows, phi0))
        except Unbounded:
            pass
        else:
            best = min(filter(_box_test(kd, phi0, search_bound), listing),
                       key=_colex, default=None)
            if best is None:
                raise RepresentativeNotFound(search_bound, conclusive=False)
            return best
    # the rows +-z_k >= -search_bound make the region bounded
    box = tuple(((0,) * k + (sign,) + (0,) * (kd.l - k - 1), -search_bound)
                for k in range(kd.l) for sign in (1, -1))
    # colex order on the candidates is lex order on their reversed exponents
    flipped = list(zip(*kd.basis.rows[::-1]))
    best = min(lattice_images(Polyhedron(poly.rows + box, kd.l), flipped, phi0[::-1]),
               default=None)
    if best is None:
        raise RepresentativeNotFound(search_bound, conclusive=False)
    return best[::-1]


def _colex(v: Vec) -> Vec:
    # colex order on exponent vectors is lex order on their reversals
    return v[::-1]


def _box_test(kd: KernelData, phi0: Vec, search_bound: int):
    """``e -> |z_k| <= search_bound`` for every ``k``, where ``e = phi0 + K z``."""
    n = kd.basis.nrows
    m = [list(col) + [int(i == j) for j in range(kd.l)]
         for i, col in enumerate(kd.basis.transpose().rows)]
    _, scale, rows = _gauss_jordan(m, n)
    # m ends as scale * B^-1 @ [K^T | I] with B = K[rows]^T, so the transpose
    # of its right block is the scaled inverse scale * K[rows]^-1
    adj = list(zip(*(row[n:] for row in m)))
    limit = search_bound * abs(scale)

    def inside(e: Vec) -> bool:
        w = [e[i] - phi0[i] for i in rows]
        return all(abs(sum(map(mul, row, w))) <= limit for row in adj)

    return inside


def _recentre(kd: KernelData, phi0: Vec) -> Vec:
    # integer solving can return points arbitrarily far from the origin; the
    # bounded search box is only useful around a norm-reduced point
    return reduce_mod_lattice(kd.basis, phi0)

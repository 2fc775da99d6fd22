"""Diagonal actions, multidegrees, and the exponent lattice of degree zero.

A diagonal action of a product of multiplicative groups and finite cyclic
groups on a mixed polynomial/Laurent ring is described by an integer weight
matrix.  This module turns that data into a grading: the degree map on
monomials, the lattice of exponent vectors of degree-zero monomials, and a
bounded search for a monomial of a prescribed degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactmat import (
    DimensionMismatch,
    IntMatrix,
    Vec,
    integer_kernel,
    rational_rank,
    reduce_mod_lattice,
    solve_integer,
)


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
        if self.r < 0 or self.s < 0 or self.p < 0:
            raise DimensionMismatch("variable and rank counts must be nonnegative")
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
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
        values = tuple(int(x) for x in values)
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
    exponents = tuple(int(x) for x in exponents)
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

    @property
    def n(self) -> int:
        return self.basis.nrows


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


@lru_cache(maxsize=None)
def associated_vectors(spec: ActionSpec) -> KernelData:
    """Compute the degree-zero exponent lattice of a faithful action.

    Raises :class:`NotFaithful` when the weight matrix has rank below the
    number of grading components.
    """
    rk = rational_rank(spec.weights.rows)
    if rk < spec.m:
        raise NotFaithful(f"weight matrix rank {rk} below grading rank {spec.m}")
    stacked = _stacked_matrix(spec)
    full = integer_kernel(stacked)
    # the projection to the first n coordinates is injective on this kernel:
    # a kernel vector with zero exponent part forces all torsion multipliers
    # to vanish because the torsion orders are nonzero.
    columns = [full.col(j)[: spec.n] for j in range(full.cols)]
    basis = IntMatrix.from_columns(columns, spec.n)
    return KernelData(basis, basis.rows[: spec.r])


def _colex_key(v: Vec) -> Vec:
    return tuple(reversed(v))


def find_representative(
    spec: ActionSpec, kd: KernelData, a: DegreeVector, search_bound: int = 10
) -> Vec:
    """Exponent vector of a monomial of degree ``a``, or raise.

    The result is canonical: among all valid exponent vectors differing from
    a particular solution by a lattice element within the search box, the one
    with colexicographically smallest exponents is returned.  Polynomial
    variables must have nonnegative exponents; Laurent variables are free.

    Raises :class:`RepresentativeNotFound` — with ``conclusive=True`` when
    ``a`` is not in the image of the degree map at all, and
    ``conclusive=False`` when the bounded lattice search found nothing.
    """
    if len(a.moduli) != spec.t or a.moduli != spec.torsion:
        raise DimensionMismatch("degree vector does not match the action's torsion")
    if len(a.free) != spec.p:
        raise DimensionMismatch("degree vector free part does not match the action")
    stacked = _stacked_matrix(spec)
    sol = solve_integer(stacked, a.lift())
    if sol is None:
        raise RepresentativeNotFound(search_bound, conclusive=True)
    phi0 = _recentre(kd, sol[: spec.n])
    best: Vec | None = None
    for z in _box(kd.l, search_bound):
        cand = tuple(
            phi0[i] + sum(kd.basis.rows[i][k] * z[k] for k in range(kd.l))
            for i in range(spec.n)
        )
        if any(cand[i] < 0 for i in range(spec.r)):
            continue
        if best is None or _colex_key(cand) < _colex_key(best):
            best = cand
    if best is None:
        raise RepresentativeNotFound(search_bound, conclusive=False)
    return best


def _recentre(kd: KernelData, phi0: Vec) -> Vec:
    # integer solving can return points arbitrarily far from the origin; the
    # bounded search box is only useful around a norm-reduced point
    return reduce_mod_lattice(kd.basis, phi0)


def _box(dim: int, bound: int):
    """All integer points of the centered box [-bound, bound]^dim."""
    if dim == 0:
        yield ()
        return
    for rest in _box(dim - 1, bound):
        for x in range(-bound, bound + 1):
            yield rest + (x,)

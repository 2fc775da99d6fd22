"""Deciding whether the grading is positive, with certificates.

A grading is *positive* when the degree-zero component is just the ground
field.  That happens exactly when the lattice vectors attached to the
polynomial variables do not fit in a common closed half-space.  The decision
procedure here transforms the weight matrix into a block form, reads a chain
of sign sets off the transformed matrix, and either certifies positivity or
produces a witness: a violated necessary condition, a half-space normal, or
a set of columns whose sign flip would make the grading positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exactmat import IntMatrix, Vec, det_and_scaled_inverse, rational_rank
from .grading import ActionSpec, KernelData, associated_vectors
from .polycone import (
    NOT_CONTAINED,
    ContainedWith,
    HalfspaceOutcome,
    RationalCone,
    dual_basis_vectors,
    is_in_halfspace_extend,
    rays_in_halfspace,
)


class BlockFormUnavailable(ValueError):
    """No column choice yields a nonsingular free-row block."""


@dataclass(frozen=True)
class SpecialForm:
    """Block form of the weight matrix under row and column operations.

    ``gamma * weights * delta`` equals ``[[l1, d*I], [l3, l4]]`` with the
    identity block scaled by ``d > 0`` sitting in the free rows over the
    last columns.  ``delta`` only permutes columns; Laurent columns stay in
    the trailing positions.
    """

    l1: IntMatrix
    l3: IntMatrix
    l4: IntMatrix
    d: int
    gamma: IntMatrix
    delta: IntMatrix

    @property
    def column_map(self) -> tuple[int, ...]:
        """For each position after permutation, the original column index."""
        out = []
        for k in range(self.delta.cols):
            col = self.delta.col(k)
            out.append(col.index(1))
        return tuple(out)


@dataclass(frozen=True)
class PositivityChain:
    """The nested sign sets read off the rows of the ``l1`` block.

    ``sets[k]`` collects the front positions whose first nonzero pairing
    with a later ray was positive, accumulated through step ``k``; ``J``
    is the index of the last ray processed (``J - len(sets)`` recovers the
    number of front positions).  ``uncovered`` holds front positions whose
    pairings were zero at every step — each one certifies a half-space.
    """

    sets: tuple[frozenset[int], ...]
    J: int
    uncovered: frozenset[int]


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of the positivity decision, with a certificate.

    Exactly one kind of witness accompanies a negative verdict: a violated
    necessary condition, or a half-space normal (possibly together with the
    set of columns whose flip would repair positivity).
    """

    positive: bool
    failed_condition: str | None = None
    halfspace_normal: Vec | None = None
    flip_set: tuple[int, ...] | None = None


def special_matrix(spec: ActionSpec) -> SpecialForm:
    """Transform the weight matrix into the block form of :class:`SpecialForm`.

    The column permutation moves a lexicographically first choice of
    polynomial columns next to the Laurent ones so that the free rows over
    those trailing columns are nonsingular.  Raises
    :class:`BlockFormUnavailable` when no choice works.
    """
    associated_vectors(spec)  # faithfulness check
    p, t, r, s, n = spec.p, spec.t, spec.r, spec.s, spec.n
    l = n - p
    free_rows = list(range(p))
    laurent_cols = list(range(r, n))
    if p <= s:
        choices = [tuple()]
    else:
        choices = combinations(range(r), p - s)
    chosen: tuple[int, ...] | None = None
    block: IntMatrix | None = None
    for cand in choices:
        cols = list(cand) + laurent_cols if p > s else laurent_cols[s - p :]
        mat = spec.weights.submatrix(free_rows, cols)
        if p == 0 or rational_rank(mat.rows) == p:
            chosen = tuple(cand)
            block = mat
            break
    if block is None:
        raise BlockFormUnavailable(
            "no nonsingular free-row block over any admissible column choice"
        )
    if p == 0:
        d0 = 1
        gamma2 = IntMatrix.from_rows([], 0)
    else:
        d0, scaled = det_and_scaled_inverse(block)
        sign = 1 if d0 > 0 else -1
        gamma2 = IntMatrix.from_rows(
            [tuple(sign * x for x in row) for row in scaled.rows], p
        )
    d = abs(d0)
    gamma_rows = []
    for i in range(p):
        gamma_rows.append(tuple(gamma2.rows[i]) + (0,) * t)
    for k in range(t):
        row = [0] * (p + t)
        row[p + k] = spec.torsion[k]
        gamma_rows.append(tuple(row))
    gamma = IntMatrix.from_rows(gamma_rows, p + t)
    if p > s:
        trailing = list(chosen) + laurent_cols
    else:
        trailing = laurent_cols[s - p :] if p else []
    front = [j for j in range(n) if j not in set(trailing)]
    perm = front + trailing
    delta = IntMatrix.from_rows(
        [tuple(1 if perm[k] == i else 0 for k in range(n)) for i in range(n)], n
    )
    transformed = gamma @ (spec.weights @ delta)
    for i in range(p):
        for k in range(p):
            expected = d if i == k else 0
            assert transformed.rows[i][l + k] == expected, "block form violated"
    l1 = transformed.submatrix(list(range(p)), list(range(l)))
    l3 = transformed.submatrix(list(range(p, p + t)), list(range(l)))
    l4 = transformed.submatrix(list(range(p, p + t)), list(range(l, n)))
    return SpecialForm(l1, l3, l4, d, gamma, delta)


def positivity_set(l1: IntMatrix, d: int, steps: int) -> PositivityChain:
    """Accumulate the sign chain over the first ``steps`` rows of ``l1``.

    At each step a front position enters the chain when its pairing with
    the step's ray — the negated matrix entry — is positive and all earlier
    pairings were zero.  Stops as soon as every front position has shown a
    nonzero pairing; positions that never do are reported in ``uncovered``.
    """
    if d <= 0:
        raise ValueError("block determinant must be positive")
    l = l1.cols
    sets: list[frozenset[int]] = []
    covered: set[int] = set()
    untouched = set(range(l))
    current: frozenset[int] = frozenset()
    everything = set(range(l))
    for k in range(steps):
        row = l1.rows[k]
        plus = {i for i in range(l) if row[i] < 0}
        minus = {i for i in range(l) if row[i] > 0}
        if k == 0:
            current = frozenset(plus)
        else:
            current = current | (untouched & plus)
        sets.append(current)
        covered |= plus | minus
        untouched -= plus | minus
        if covered == everything:
            return PositivityChain(tuple(sets), l + k + 1, frozenset())
    return PositivityChain(tuple(sets), l + steps, frozenset(everything - covered))


def halfspace_from_chain(chain: PositivityChain, rays) -> HalfspaceOutcome:
    """Decide half-space containment of the rays using the sign chain.

    ``rays`` must be the polynomial rays in permuted order — the ``l``
    basis rays first, then one ray per chain step, then any remaining
    rays.  Requires a chain that reached full coverage.
    """
    rays = [tuple(v) for v in rays]
    l = chain.J - len(chain.sets)
    if not chain.sets or not chain.sets[-1]:
        return NOT_CONTAINED
    first = next(k for k, s in enumerate(chain.sets) if s)
    duals = dual_basis_vectors(rays, l)
    normal = duals[min(chain.sets[first])]
    seed = RationalCone(tuple(rays[: l + first + 1]), l)
    return is_in_halfspace_extend(rays[l + first + 1 :], seed, normal)


def positivity_test(spec: ActionSpec) -> PositivityVerdict:
    """Decide positivity of the grading, with a certificate either way.

    Pipeline: necessary conditions (more free parameters than Laurent
    variables; independent Laurent weight columns), block form, the sign
    chain, and finally the half-space search seeded by the chain.  When no
    block form exists the decision falls back to a direct half-space search
    over the rays.
    """
    kd = associated_vectors(spec)
    if spec.p <= spec.s:
        return PositivityVerdict(False, failed_condition="p>s")
    if spec.s > 0:
        laurent = [spec.weights.col(j) for j in range(spec.r, spec.n)]
        if rational_rank(laurent) < spec.s:
            return PositivityVerdict(
                False, failed_condition="independent Laurent weights"
            )
    try:
        form = special_matrix(spec)
    except BlockFormUnavailable:
        return _direct_test(kd)
    perm = form.column_map
    rays_perm = [kd.basis.rows[perm[j]] for j in range(spec.n)]
    l = spec.n - spec.p
    chain = positivity_set(form.l1, form.d, steps=spec.p - spec.s)
    if chain.uncovered:
        duals = dual_basis_vectors(rays_perm, l)
        normal = duals[min(chain.uncovered)]
        return PositivityVerdict(False, halfspace_normal=normal)
    outcome = halfspace_from_chain(chain, rays_perm[: spec.r])
    if outcome is NOT_CONTAINED:
        return PositivityVerdict(True)
    assert isinstance(outcome, ContainedWith)
    flips = tuple(sorted(perm[i] for i in chain.sets[-1]))
    return PositivityVerdict(
        False, halfspace_normal=outcome.normal, flip_set=flips
    )


def _direct_test(kd: KernelData) -> PositivityVerdict:
    outcome = rays_in_halfspace(kd.rays, kd.l)
    if outcome is NOT_CONTAINED:
        return PositivityVerdict(True)
    assert isinstance(outcome, ContainedWith)
    return PositivityVerdict(False, halfspace_normal=outcome.normal)


def flip_matrix(spec: ActionSpec, indices) -> ActionSpec:
    """The action with the weight columns at ``indices`` negated.

    Only polynomial columns may be flipped: negating such a column matches
    replacing the variable's weight by its inverse character.
    """
    chosen = set(indices)
    for i in chosen:
        if not 0 <= i < spec.r:
            raise ValueError(f"column {i} is not a polynomial column")
    rows = [
        tuple(-x if j in chosen else x for j, x in enumerate(row))
        for row in spec.weights.rows
    ]
    return ActionSpec(
        spec.r, spec.s, spec.p, spec.torsion,
        IntMatrix.from_rows(rows, spec.n),
    )

"""Deciding whether the grading is positive, with certificates.

A grading is *positive* when the degree-zero component is just the ground
field.  That happens exactly when the lattice vectors attached to the
polynomial variables do not fit in a common closed half-space.  The decision
procedure here brings the free rows of the weight matrix into a block form
``[l1 | d*I]`` by the adjugate of one nonsingular square block, reads a chain
of sign sets off ``l1``, and either certifies positivity or produces a
witness: a violated necessary condition, a half-space normal, or a set of
columns whose sign flip would make the grading positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmat import IntMatrix, Vec, _gauss_jordan, rational_rank
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
    """Block form of the free rows of the weight matrix.

    With ``W`` the free rows in the column order ``columns`` and ``B`` the
    square block over its last ``p`` columns, ``sign(det B) adj(B) W``
    equals ``[l1 | d*I]`` with ``d = |det B| > 0``.  ``columns`` lists the
    original column indices, every Laurent column after every polynomial
    one.
    """

    l1: IntMatrix
    d: int
    columns: tuple[int, ...]


@dataclass(frozen=True)
class PositivityChain:
    """The nested sign sets read off the rows of the ``l1`` block.

    ``sets[k]`` collects the front positions whose first nonzero pairing
    with a later ray was positive, accumulated through step ``k``.
    ``uncovered`` holds front positions whose pairings were zero at every
    step — each one certifies a half-space.
    """

    sets: tuple[frozenset[int], ...]
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
    """The block form of :class:`SpecialForm` for the free rows.

    The trailing columns are the last ``min(p, s)`` Laurent columns after
    the lexicographically first choice of ``max(0, p - s)`` polynomial
    columns that makes the free-row block over them nonsingular.  Raises
    :class:`BlockFormUnavailable` when no choice works.

    That choice is the greedy one, found by one fraction-free Gauss-Jordan
    elimination of the free rows ``W`` pivoting on the Laurent block first
    and then on the polynomial columns in index order.  It leaves ``last *
    B^-1 @ W`` with ``|last| = d``, so ``l1 = d * B^-1 @ W[:, front]`` is
    read off its rows.
    """
    associated_vectors(spec)  # faithfulness check
    p, r, s, n = spec.p, spec.r, spec.s, spec.n
    laurent = list(range(r + max(0, s - p), n))
    k = len(laurent)
    order = laurent + list(range(n - k))
    m = [[w[j] for j in order] for w in spec.weights.rows[:p]]
    _, last, pivots = _gauss_jordan(m, k + r)
    if len(pivots) < p or pivots[:k] != list(range(k)):
        raise BlockFormUnavailable(
            "no nonsingular free-row block over any admissible column choice"
        )
    trailing = [order[j] for j in pivots[k:]] + laurent
    front = [j for j in range(n) if j not in trailing]
    sign = 1 if last > 0 else -1
    # the rows of B^-1 @ W in the trailing order, polynomial pivots then
    # Laurent; a front column j is column k + j of the reordered rows
    l1 = [[sign * row[k + j] for j in front] for row in m[k:] + m[:k]]
    return SpecialForm(IntMatrix.from_rows(l1, n - p), abs(last), tuple(front + trailing))


def positivity_set(l1: IntMatrix, steps: int) -> PositivityChain:
    """Accumulate the sign chain over the first ``steps`` rows of ``l1``.

    At each step a front position enters the chain when its pairing with
    the step's ray — the negated matrix entry — is positive and all earlier
    pairings were zero.  Stops as soon as every front position has shown a
    nonzero pairing; positions that never do are reported in ``uncovered``.
    """
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
            return PositivityChain(tuple(sets), frozenset())
    return PositivityChain(tuple(sets), frozenset(everything - covered))


def halfspace_from_chain(chain: PositivityChain, rays) -> HalfspaceOutcome:
    """Decide half-space containment of the rays using the sign chain.

    ``rays`` must be the polynomial rays in permuted order — the ``l``
    basis rays first (``l`` is the length of a ray), then one ray per chain
    step, then any remaining rays.  Requires a chain that reached full
    coverage.
    """
    if not chain.sets or not chain.sets[-1]:
        return NOT_CONTAINED
    rays = [tuple(v) for v in rays]
    l = len(rays[0])
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
    rays_perm = [kd.basis.rows[j] for j in form.columns]
    l = spec.n - spec.p
    chain = positivity_set(form.l1, steps=spec.p - spec.s)
    if chain.uncovered:
        duals = dual_basis_vectors(rays_perm, l)
        normal = duals[min(chain.uncovered)]
        return PositivityVerdict(False, halfspace_normal=normal)
    outcome = halfspace_from_chain(chain, rays_perm[: spec.r])
    if outcome is NOT_CONTAINED:
        return PositivityVerdict(True)
    assert isinstance(outcome, ContainedWith)
    flips = tuple(sorted(form.columns[i] for i in chain.sets[-1]))
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

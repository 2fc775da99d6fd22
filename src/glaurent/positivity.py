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

from .exactmat import IntMatrix, Vec, _gauss_jordan, int_vector, rational_rank
from .grading import ActionSpec, associated_vectors
from .polycone import (
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


def positivity_test(spec: ActionSpec) -> PositivityVerdict:
    """Decide positivity of the grading, with a certificate either way.

    A trivial degree-zero lattice (``l = 0``) leaves only the constant
    monomial of degree zero, so the grading is positive, with no polynomial
    variable needed.  Otherwise the pipeline is: necessary conditions (more
    free parameters than Laurent variables, necessary once ``l >= 1``;
    independent Laurent weight columns), block form, the sign chain, and
    finally the half-space search seeded by the chain.  When no block form
    exists the decision is a direct half-space search over the rays.

    The chain is read off the first ``p - s`` rows of ``l1``, one step per
    row.  With the rays in the order of ``columns``, the first ``l`` form a
    basis and step ``k`` pairs ray ``l + k`` with the dual basis; the pairing
    with front position ``i`` is the negated entry ``l1[k][i]``.  A position
    joins the chain when that pairing is positive and all earlier ones were
    zero.  The pass stops once every position has shown a nonzero pairing.
    A position that never does has a dual basis vector as half-space normal.
    Otherwise an empty chain means positive; a nonempty one seeds the
    half-space search with the dual vector of its least position at the step
    where it first became nonempty, over the basis and the rays up to that
    step, and the search runs through the remaining polynomial rays.  A
    normal found there comes with the chain as flip set.
    """
    kd = associated_vectors(spec)
    if kd.l == 0:
        return PositivityVerdict(True)
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
        normal = rays_in_halfspace(kd.rays, kd.l)
        return PositivityVerdict(normal is None, halfspace_normal=normal)
    rays = [kd.basis.rows[j] for j in form.columns]
    l = spec.n - spec.p
    untouched = set(range(l))
    chain: set[int] = set()
    first = (0, 0)  # the step and least position where the chain began
    for k, row in enumerate(form.l1.rows[: spec.p - spec.s]):
        if not untouched:
            break
        plus = {i for i in untouched if row[i] < 0}
        if plus and not chain:
            first = (k, min(plus))
        chain |= plus
        untouched -= {i for i in untouched if row[i]}
    if not untouched and not chain:
        return PositivityVerdict(True)
    duals = dual_basis_vectors(rays, l)
    if untouched:
        return PositivityVerdict(False, halfspace_normal=duals[min(untouched)])
    step, position = first
    seed = RationalCone(tuple(rays[: l + step + 1]), l)
    normal = is_in_halfspace_extend(rays[l + step + 1 : spec.r], seed, duals[position])
    if normal is None:
        return PositivityVerdict(True)
    flips = tuple(sorted(form.columns[i] for i in chain))
    return PositivityVerdict(False, halfspace_normal=normal, flip_set=flips)


def flip_matrix(spec: ActionSpec, indices) -> ActionSpec:
    """The action with the weight columns at ``indices`` negated.

    Only polynomial columns may be flipped: negating such a column matches
    replacing the variable's weight by its inverse character.  Every index
    must be an ``int`` (else :class:`TypeError`).
    """
    chosen = set(int_vector(indices))
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

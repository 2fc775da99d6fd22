"""Independent brute-force references for cross-checking.

Nothing here touches cones, polytopes, or lattice algebra: the functions
enumerate bounded exponent boxes directly (splitting the box in half and
meeting in the middle where counting is all that's needed) and test monoid
membership by exhaustive descent.  They are deliberately slow-but-obvious
counterparts to the exact machinery, for use on small instances.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from glaurent.exactmat import Vec, dot
from glaurent.grading import ActionSpec, DegreeVector, Monomial, degree


def _ranges(spec: ActionSpec, bound: int) -> list[range]:
    # polynomial exponents live in [0, bound], Laurent ones in [-bound, bound]
    out = [range(0, bound + 1) for _ in range(spec.r)]
    out += [range(-bound, bound + 1) for _ in range(spec.s)]
    return out


def monomials_of_degree(spec: ActionSpec, a: DegreeVector, bound: int) -> list[Monomial]:
    """Every monomial of degree ``a`` in the exponent box, by direct scan."""
    found = []
    for exps in product(*_ranges(spec, bound)):
        if degree(spec, exps) == a:
            found.append(Monomial(exps))
    return sorted(found)


def _census(spec: ActionSpec, variables: list[int], bound: int) -> Counter:
    """Degree distribution over the box restricted to ``variables``."""
    ranges = _ranges(spec, bound)
    counts: Counter = Counter()
    cols = [spec.weights.col(j) for j in variables]
    for exps in product(*(ranges[j] for j in variables)):
        image = [0] * spec.m
        for x, col in zip(exps, cols):
            if x:
                for i in range(spec.m):
                    image[i] += x * col[i]
        key = tuple(image[: spec.p]) + tuple(
            image[spec.p + k] % spec.torsion[k] for k in range(spec.t)
        )
        counts[key] += 1
    return counts


def count_monomials_of_degree(spec: ActionSpec, a: DegreeVector, bound: int) -> int:
    """Number of monomials of degree ``a`` in the box, meeting in the middle."""
    half = spec.n // 2
    left = _census(spec, list(range(half)), bound)
    right = _census(spec, list(range(half, spec.n)), bound)
    target_free = a.free
    total = 0
    for key, cnt in left.items():
        free = tuple(t - x for t, x in zip(target_free, key[: spec.p]))
        tors = tuple(
            (a.torsion[k] - key[spec.p + k]) % spec.torsion[k]
            for k in range(spec.t)
        )
        total += cnt * right.get(free + tors, 0)
    return total


def has_nonconstant_invariant(spec: ActionSpec, bound: int) -> bool:
    """Whether some monomial other than 1 has degree zero, within the box."""
    zero = DegreeVector((0,) * spec.p, (0,) * spec.t, spec.torsion)
    return count_monomials_of_degree(spec, zero, bound) > 1


def is_nonneg_combination(target: Vec, vectors, functional: Vec) -> bool:
    """Whether ``target`` is a nonnegative integer combination of ``vectors``.

    ``functional`` must pair strictly positively with every vector; it makes
    the search finite by bounding each coefficient.
    """
    vecs = [tuple(v) for v in vectors]
    heights = [dot(functional, v) for v in vecs]
    if any(h <= 0 for h in heights):
        raise ValueError("functional must be positive on every vector")
    order = sorted(range(len(vecs)), key=lambda i: -heights[i])
    vecs = [vecs[i] for i in order]
    heights = [heights[i] for i in order]
    memo: dict[tuple[Vec, int], bool] = {}

    def descend(rem: Vec, idx: int) -> bool:
        budget = dot(functional, rem)
        if budget < 0:
            return False
        if budget == 0:
            return not any(rem)
        if idx == len(vecs):
            return False
        key = (rem, idx)
        cached = memo.get(key)
        if cached is not None:
            return cached
        v, h = vecs[idx], heights[idx]
        found = False
        for c in range(budget // h + 1):
            if descend(tuple(x - c * y for x, y in zip(rem, v)), idx + 1):
                found = True
                break
        memo[key] = found
        return found

    return descend(tuple(target), 0)


def minimal_generators(vectors, functional: Vec) -> tuple[Vec, ...]:
    """The vectors not expressible through the others, by exhaustive descent."""
    vecs = [tuple(v) for v in vectors]
    kept = []
    for i, v in enumerate(vecs):
        others = vecs[:i] + vecs[i + 1 :]
        if not others or not is_nonneg_combination(v, others, functional):
            kept.append(v)
    return tuple(kept)

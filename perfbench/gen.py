"""Seeded instance generators for the four benchmark workloads.

Every instance is built to have the property its workload needs: faithful
(full row rank, checked with :func:`arith.rank`), positive or mixed-sign by
construction, and gap degrees placed on purpose.  Duplicates are dropped, so
no instance repeats within a run.  The same seed gives byte-identical
instance files.

Each workload is a repeated *cycle* of instance shapes.  A run stops only at
a cycle boundary, so every run sees the same mix of shapes whatever its
length, and the latency percentiles land inside a shape class instead of on
the edge between two.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from arith import degree, rank, zero_sum_generators


@dataclass(frozen=True)
class Instance:
    """One grading, in the instance-file format the CLI reads."""

    p: int
    torsion: tuple[int, ...]
    r: int
    s: int
    L: tuple[tuple[int, ...], ...]

    def document(self, name: str) -> bytes:
        doc = {"name": name, "p": self.p, "torsion": list(self.torsion),
               "r": self.r, "s": self.s, "L": [list(row) for row in self.L]}
        return (json.dumps(doc, sort_keys=True) + "\n").encode()


@dataclass(frozen=True)
class Query:
    """One timed query.

    ``kind`` is ``component`` (CLI, with ``degree``), ``certify`` (CLI
    ``kernel`` then ``positivity``) or ``s0`` (library ``s0_generators``).
    ``expect`` is ``attained`` or ``gap`` for ``component`` queries; an
    attained degree carries the ``monomial`` it was drawn from.
    """

    file: str
    instance: Instance
    kind: str
    cycle: int
    degree: tuple[int, ...] | None = None
    expect: str | None = None
    monomial: tuple[int, ...] | None = None


def _faithful(inst: Instance) -> bool:
    return rank(inst.L) == inst.p + len(inst.torsion)


def _torsion_row(rng: random.Random, n: int) -> tuple[int, tuple[int, ...]]:
    d = rng.randint(2, 5)
    return d, tuple(rng.randrange(d) for _ in range(n))


# ---------------------------------------------------------------------------
# finite_basis: positive gradings, CLI ``component``

# (r, s, t) per slot; l = r - 1.  Two of ten slots have l = 4, whose
# (2B+1)^l box is 21 times the l = 3 box, so p90 sits inside that class.
_FINITE_SLOTS = [(4, 0, 0), (4, 1, 0), (4, 0, 1), (4, 1, 1), (5, 1, 1),
                 (4, 0, 0), (4, 1, 0), (4, 0, 1), (4, 1, 1), (5, 1, 1)]
_FINITE_GAP_SLOT = 5


def _positive_grading(rng: random.Random, r: int, s: int, t: int, lo: int) -> Instance:
    """Row 1 positive on the polynomial variables and 0 on the Laurent one;
    row 2 (when ``s``) carries the Laurent variable with weight 1."""
    n = r + s
    while True:
        rows = [tuple(rng.randint(lo, lo + 4) for _ in range(r)) + (0,) * s]
        if s:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(r)) + (1,))
        torsion: tuple[int, ...] = ()
        if t:
            d, row = _torsion_row(rng, n)
            torsion = (d,)
            rows.append(row)
        inst = Instance(1 + s, torsion, r, s, tuple(rows))
        if _faithful(inst):
            return inst


def positive_monomials(inst: Instance, a) -> set[tuple[int, ...]]:
    """All monomials of degree ``a`` for a grading of the finite_basis shape.

    Row 1 bounds the polynomial exponents; the Laurent exponent, if any, is
    then fixed by row 2; torsion is checked last.
    """
    w = inst.L[0][: inst.r]
    out: set[tuple[int, ...]] = set()

    def walk(prefix: tuple[int, ...], left: int) -> None:
        i = len(prefix)
        if i == inst.r:
            if left:
                return
            lam = prefix
            if inst.s:
                lam += (a[1] - sum(c * e for c, e in zip(inst.L[1], prefix)),)
            if degree(inst.L, inst.torsion, lam) == tuple(a):
                out.add(lam)
            return
        for e in range(left // w[i] + 1):
            walk(prefix + (e,), left - e * w[i])

    if a[0] >= 0:
        walk((), a[0])
    return out


def _gap_degree(rng: random.Random, inst: Instance):
    """A degree in the image of the weight map that no monomial attains."""
    for _ in range(200):
        lam = tuple(rng.randint(-2, 3) for _ in range(inst.r + inst.s))
        a = degree(inst.L, inst.torsion, lam)
        if 1 <= a[0] <= 12 and not positive_monomials(inst, a):
            return a
    return None


def finite_basis(seed: int, cycles: int) -> list[Query]:
    rng = random.Random(f"finite_basis:{seed}")
    seen: set[Instance] = set()
    queries: list[Query] = []
    for c in range(cycles):
        for slot, (r, s, t) in enumerate(_FINITE_SLOTS):
            gap = slot == _FINITE_GAP_SLOT
            while True:
                inst = _positive_grading(rng, r, s, t, 2 if gap else 1)
                if inst in seen:
                    continue
                if gap:
                    a = _gap_degree(rng, inst)
                    if a is None:
                        continue
                    mono = None
                else:
                    mono = tuple(rng.randint(0, 3) for _ in range(r))
                    mono += tuple(rng.randint(-2, 2) for _ in range(s))
                    a = degree(inst.L, inst.torsion, mono)
                    if a[0] == 0:
                        continue
                break
            seen.add(inst)
            queries.append(Query(f"q{len(queries):05d}.json", inst, "component", c,
                                 a, "gap" if gap else "attained", mono))
    return queries


# ---------------------------------------------------------------------------
# positivity_certify: random faithful gradings, CLI ``kernel`` + ``positivity``

# (p, t, s, r): eight light shapes of about 1-3 ms and four (4, 0, 2, 8).
# About half of the (4, 0, 2, 8) instances take 20-50 ms in dual_cone and the
# rest 2-5 ms, so p90 falls inside that slow mode and p50 inside the light
# shapes, rather than on the slope between two modes.  Every verdict route
# occurs in this mix.
_CERTIFY_SLOTS = [(1, 0, 0, 4), (4, 0, 2, 8), (1, 1, 0, 6), (2, 0, 1, 6),
                  (4, 0, 2, 8), (2, 2, 0, 5), (3, 0, 2, 6), (4, 0, 2, 8),
                  (1, 2, 2, 4), (1, 0, 0, 8), (4, 0, 2, 8), (1, 0, 1, 5)]


def positivity_certify(seed: int, cycles: int) -> list[Query]:
    rng = random.Random(f"positivity_certify:{seed}")
    seen: set[Instance] = set()
    queries: list[Query] = []
    for c in range(cycles):
        for p, t, s, r in _CERTIFY_SLOTS:
            n = r + s
            while True:
                rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(p)]
                torsion = []
                for _ in range(t):
                    d, row = _torsion_row(rng, n)
                    torsion.append(d)
                    rows.append(row)
                inst = Instance(p, tuple(torsion), r, s, tuple(rows))
                if inst not in seen and _faithful(inst):
                    break
            seen.add(inst)
            queries.append(Query(f"q{len(queries):05d}.json", inst, "certify", c))
    return queries


# ---------------------------------------------------------------------------
# degree_zero_ring and module_generators: one-row mixed-sign gradings


def _one_row(rng: random.Random, r: int, negatives: int, bound: int, d: int) -> Instance:
    while True:
        signs = [-1] * negatives + [1] * (r - negatives)
        rng.shuffle(signs)
        rows = [tuple(sg * rng.randint(1, bound) for sg in signs)]
        torsion: tuple[int, ...] = ()
        if d:
            torsion = (d,)
            rows.append(tuple(rng.randrange(d) for _ in range(r)))
        inst = Instance(1, torsion, r, 0, tuple(rows))
        if _faithful(inst):
            return inst


# (negative weights, torsion order or 0).  A row and its negative give the
# same ring, so at most half the weights are negative.  Larger torsion orders,
# and free rows whose degree-zero monoid needs more than 15 generators, take
# up to tens of seconds per instance and would decide every percentile.
_S0_SLOTS = [(1, 0), (1, 2), (2, 0), (2, 2), (3, 0)]
_S0_MAX_FREE_GENERATORS = 15


def degree_zero_ring(seed: int, cycles: int) -> list[Query]:
    rng = random.Random(f"degree_zero_ring:{seed}")
    seen: set[Instance] = set()
    queries: list[Query] = []
    for c in range(cycles):
        for negatives, d in _S0_SLOTS:
            while True:
                inst = _one_row(rng, 6, negatives, 5, d)
                size = len(zero_sum_generators(inst.L[0], _S0_MAX_FREE_GENERATORS))
                if inst not in seen and size <= _S0_MAX_FREE_GENERATORS:
                    break
            seen.add(inst)
            queries.append(Query(f"q{len(queries):05d}.json", inst, "s0", c))
    return queries


# Ranges of the number of degree-zero ring generators, one grading each per
# cycle.  The count sets the size of the module-generator output and most of
# the query's cost; without the ranges a few gradings with 30-50 generators
# and megabytes of output would decide every percentile.
_MODULE_SLOTS = [(3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
DEGREES_PER_GRADING = 4


def module_generators(seed: int, cycles: int) -> list[Query]:
    rng = random.Random(f"module_generators:{seed}")
    seen: set[Instance] = set()
    queries: list[Query] = []
    for c in range(cycles):
        for lo, hi in _MODULE_SLOTS:
            while True:
                inst = _one_row(rng, 4, rng.randint(1, 2), 9, 0)
                size = len(zero_sum_generators(inst.L[0], hi))
                if inst not in seen and lo <= size <= hi:
                    break
            seen.add(inst)
            name = f"g{len(seen):05d}.json"
            degrees: dict[tuple[int, ...], tuple[int, ...]] = {}
            while len(degrees) < DEGREES_PER_GRADING:
                mono = tuple(rng.randint(0, 1) for _ in range(4))
                degrees.setdefault(degree(inst.L, inst.torsion, mono), mono)
            for a, mono in degrees.items():
                queries.append(Query(name, inst, "component", c, a, "attained", mono))
    return queries


WORKLOADS = {
    "finite_basis": finite_basis,
    "positivity_certify": positivity_certify,
    "degree_zero_ring": degree_zero_ring,
    "module_generators": module_generators,
}

"""Output checker, run after each query outside its timed interval.

Two kinds of evidence, both required:

* digests: for the default seed, the exit code and a SHA-256 of stdout must
  equal the ones recorded in ``digests.json`` from a known-good commit;
* invariants, in the benchmark's own arithmetic (:mod:`arith`, :mod:`gen`):
  every printed monomial has the requested degree with non-negative
  polynomial exponents, every ``K`` column maps to zero, half-space normals
  pair non-negatively with the printed rays, flip sets really repair
  positivity, and wherever the benchmark can enumerate the answer itself
  (finite bases, torsion-free degree-zero rings) the printed set is exactly
  that answer.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from arith import degree, positively_spanning, rank, zero_sum_generators
from gen import Instance, Query, positive_monomials

_NOT_ATTAINED = "degree not attained: component is zero"
_NOT_FOUND = re.compile(r"no monomial of this degree found within bound \d+$")
_FACTOR = re.compile(r"x(\d+)(?:\^(-?\d+))?$")


class CheckFailed(Exception):
    """An output that is wrong or that the checker cannot read."""


@dataclass(frozen=True)
class Outcome:
    """What one query produced: ``(exit code, stdout)`` per program call."""

    calls: tuple[tuple[int, str], ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        for code, text in self.calls:
            h.update(f"{code}\n{text}\x00".encode())
        return h.hexdigest()[:16]


def parse_monomial(text: str, n: int) -> tuple[int, ...]:
    exps = [0] * n
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        m = _FACTOR.match(factor)
        if not m or not 1 <= int(m.group(1)) <= n:
            raise CheckFailed(f"unreadable monomial {text!r}")
        exps[int(m.group(1)) - 1] = int(m.group(2) or 1)
    return tuple(exps)


def _monomials(line: str, prefix: str, n: int) -> list[tuple[int, ...]]:
    if not line.startswith(prefix):
        raise CheckFailed(f"expected {prefix!r}, got {line!r}")
    body = line[len(prefix):].strip()
    return [parse_monomial(t, n) for t in body.split(", ")] if body else []


def _vector(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise CheckFailed(f"unreadable vector {text!r}")
    body = text[1:-1].strip()
    return tuple(int(x) for x in body.split(",")) if body else ()


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _all_of_degree(inst: Instance, monos, a, what: str) -> None:
    _require(len(set(monos)) == len(monos), f"repeated {what}")
    for m in monos:
        _require(all(e >= 0 for e in m[: inst.r]), f"negative exponent in {what} {m}")
        _require(degree(inst.L, inst.torsion, m) == tuple(a), f"{what} {m} not of degree {a}")


def check_component(q: Query, code: int, text: str) -> None:
    inst, n = q.instance, q.instance.r + q.instance.s
    lines = text.splitlines()
    if q.expect == "gap":
        _require(code == 4, f"gap degree gave exit {code}")
        _require(len(lines) == 2, "gap output has the wrong shape")
        _require(lines[1] == _NOT_ATTAINED or bool(_NOT_FOUND.match(lines[1])),
                 f"unexpected gap verdict {lines[1]!r}")
        return
    _require(code == 0, f"attained degree gave exit {code}")
    _require(len(lines) >= 4 and lines[1].startswith("representative: "), "bad header")
    rep = _vector(lines[1][len("representative: "):])
    _all_of_degree(inst, [rep], q.degree, "representative")
    if lines[2].startswith("dim = "):
        basis = _monomials(lines[3], "basis: ", n)
        _require(int(lines[2][len("dim = "):]) == len(basis), "dim differs from basis size")
        _all_of_degree(inst, basis, q.degree, "basis monomial")
        _require(set(basis) == positive_monomials(inst, q.degree),
                 "basis differs from the enumerated monomials")
        return
    _require(lines[2] == "infinite dimensional" and len(lines) == 5, "bad module output")
    s0 = _monomials(lines[3], "S0 generators: ", n)
    gens = _monomials(lines[4], "module generators: ", n)
    _all_of_degree(inst, s0, (0,) * len(q.degree), "S0 generator")
    _require(bool(gens), "no module generators")
    _all_of_degree(inst, gens, q.degree, "module generator")
    _check_s0_exact(inst, s0)


def _check_s0_exact(inst: Instance, s0) -> None:
    _require(bool(s0) and all(any(m) for m in s0), "S0 generators empty or constant")
    if inst.p == 1 and not inst.torsion and not inst.s:
        _require(set(s0) == set(zero_sum_generators(inst.L[0])),
                 "S0 generators differ from the minimal zero-sum solutions")


def check_s0(q: Query, text: str) -> None:
    inst = q.instance
    s0 = _monomials(text, "", inst.r + inst.s)
    _all_of_degree(inst, s0, (0,) * (inst.p + len(inst.torsion)), "S0 generator")
    _check_s0_exact(inst, s0)


def check_certify(q: Query, kernel: tuple[int, str], verdict: tuple[int, str]) -> str:
    """Check one ``kernel`` + ``positivity`` pair; return the verdict route."""
    inst = q.instance
    n, l = inst.r + inst.s, inst.r + inst.s - inst.p
    code, text = kernel
    _require(code == 0, f"kernel exit {code}")
    lines = text.splitlines()
    if l == 0:
        _require(lines == ["l = 0, kernel trivial"], "bad trivial kernel output")
    else:
        _require(lines[0] == f"l = {l}" and len(lines) == 1 + l + inst.r, "bad kernel header")
    cols = []
    for j, line in enumerate(lines[1: 1 + l]):
        head, _, body = line.partition(": ")
        _require(head == f"K column {j + 1}", f"bad line {line!r}")
        cols.append(_vector(body))
        _require(len(cols[-1]) == n, "K column of the wrong length")
        _require(degree(inst.L, inst.torsion, cols[-1]) == (0,) * len(inst.L),
                 f"K column {cols[-1]} not in the kernel")
    _require(l == 0 or rank(cols) == l, "K columns dependent")
    rays = []
    for i, line in enumerate(lines[1 + l:] if l else []):
        head, _, body = line.partition(" = ")
        _require(head == f"ray v{i + 1}", f"bad line {line!r}")
        rays.append(_vector(body))
        _require(rays[-1] == tuple(c[i] for c in cols), f"ray v{i + 1} is not row {i + 1} of K")

    code, text = verdict
    _require(code == 0, f"positivity exit {code}")
    lines = text.splitlines()
    if lines == ["positive"]:
        _require(positively_spanning(rays, l), "rays lie in a half-space, yet verdict is positive")
        return "positive"
    if lines == ["not positive: necessary condition p>s"]:
        _require(inst.p <= inst.s, "p>s claimed but p > s")
        return "necessary"
    if lines == ["not positive: necessary condition independent Laurent weights"]:
        laurent = [[row[j] for row in inst.L] for j in range(inst.r, n)]
        _require(rank(laurent) < inst.s, "Laurent weights are independent")
        return "necessary"
    _require(lines[0] == "not positive" and len(lines) in (2, 3), f"bad verdict {lines!r}")
    _require(lines[1].startswith("half-space normal: "), "missing half-space normal")
    normal = _vector(lines[1][len("half-space normal: "):])
    _require(len(normal) == l and any(normal), "bad half-space normal")
    for ray in rays:
        _require(sum(x * y for x, y in zip(normal, ray)) >= 0,
                 f"normal {normal} pairs negatively with ray {ray}")
    if len(lines) == 2:
        return "halfspace"
    _require(lines[2].startswith("flip set: {") and lines[2].endswith("}"), "bad flip set")
    flips = {int(x) for x in lines[2][len("flip set: {"):-1].split(", ")}
    _require(flips <= set(range(1, inst.r + 1)), "flip set names a non-polynomial column")
    flipped = [tuple(-x for x in ray) if i + 1 in flips else ray for i, ray in enumerate(rays)]
    _require(positively_spanning(flipped, l), "flipping the flip set leaves a half-space")
    return "flip"


def check(q: Query, outcome: Outcome) -> str | None:
    """Raise :class:`CheckFailed` on a wrong output; return the route, if any."""
    if q.kind == "certify":
        return check_certify(q, *outcome.calls)
    (code, text), = outcome.calls
    if q.kind == "s0":
        _require(code == 0, "s0_generators raised")
        check_s0(q, text)
    else:
        check_component(q, code, text)
    return None
